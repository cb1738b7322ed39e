(** Simulated persistent-memory device with x86 persistence semantics.

    The device models the programming model assumed by SquirrelFS (§3.4 of
    the paper): regular stores land in the CPU cache and are not durable;
    [flush] ([clwb]) initiates write-back of a cache line; [fence]
    ([sfence]) guarantees that all previously flushed stores are durable.
    Only stores of at most 8 bytes that do not cross an 8-byte-aligned
    boundary are crash-atomic; larger stores are split into such units,
    which may persist independently (torn writes).

    At any moment the possible crash states are: the durable image, plus —
    for each dirty cache line — any prefix of the line's pending stores
    (cache lines may be evicted spontaneously, in any order across lines,
    but stores to the same line drain in order). {!crash_views} enumerates
    or samples that space as {e delta views} — per-line record prefixes
    over the shared durable base — and {!materialize} turns a view into
    a byte image.

    The device also keeps a simulated clock: every store, flush, fence and
    read advances it per the {!Latency} model, and file systems charge
    their own software overhead with [charge]. Benchmarks report simulated
    time, which makes results deterministic and machine-independent. *)

type t

exception Media_error of { off : int; len : int }
(** Raised by bulk {!read} when an active fault plan injects a transient
    read error. Callers are expected to retry and surface [EIO] if the
    error persists — never to let the exception escape a syscall. *)

val create : ?latency:Latency.t -> size:int -> unit -> t
(** Fresh zeroed device of [size] bytes. Default latency is {!Latency.zero}
    (functional-test profile); benchmarks pass {!Latency.optane}.

    Both images are lazily backed {!Sbuf} chunk tables: creation costs
    O(size / 1 MiB), a chunk is backed on first store, an untouched
    chunk is durably zero by definition, and resident memory tracks
    touched chunks rather than volume size. *)

val of_image : ?latency:Latency.t -> Bytes.t -> t
(** Quiescent device whose durable and visible contents are [image]
    (crash-image remount path). The image's nonzero chunks are copied
    — twice, once per image; prefer the zero-copy {!of_view} when
    probing many crash states. *)

val of_spans : ?latency:Latency.t -> size:int -> (int * string) list -> t
(** Quiescent device from [(off, payload)] spans over an otherwise-zero
    volume — content-equivalent to {!of_image} on the expanded image,
    without ever materializing a dense copy. The streaming loader for
    multi-GB host-sparse volume files; callers should omit all-zero
    spans. *)

val size : t -> int

val is_sparse : t -> bool
(** Always [true]: every device is lazily backed. *)

val backed_spans : t -> (int * int) list
(** Merged ascending [(off, len)] byte spans ever touched through either
    the visible or the durable image. Any offset outside every span is
    durably zero with no in-flight stores, so scans (mount, fsck,
    rebuild) may skip it wholesale. *)

val resident_bytes : t -> int
(** Resident payload of the two device images: their backed chunks
    times {!Sbuf.chunk_bytes}. *)

val set_shared : t -> bool -> unit
(** Shared (multi-domain) mode, off by default. When on, every public
    store/flush/fence/read/charge entry point runs under an internal
    reentrant lock, so independent operations on separate OCaml domains
    can target one device (the [Serve] engine's configuration). When off
    there is no locking and behaviour is bit-identical to before the
    mode existed. Fence hooks, crash-view enumeration and tracers are
    single-domain machinery and must not be combined with shared mode. *)

val shared : t -> bool

val line_size : int
(** Cache-line size in bytes (64): the granularity of flush, of crash-time
    line effects, and of the device ECC table. *)

val stats : t -> Stats.t

(** {1 Clock} *)

val now_ns : t -> int
val charge : t -> int -> unit
(** [charge t ns] advances the clock by [ns] of software overhead. *)

(** {1 Access} *)

val read : t -> off:int -> len:int -> Bytes.t
(** Read the CPU-visible (latest) contents. Under an active fault plan
    with a non-zero read-error rate this call may raise {!Media_error}.

    Fault accounting: a faulted read models the controller aborting the
    transaction {e before any data moves}, so it charges no latency and
    does not count in [stats.reads]/[bytes_read]; only
    [stats.read_faults] is incremented. A successful read (including
    every {!read_meta}) charges and counts in full. *)

val read_meta : t -> off:int -> len:int -> Bytes.t
(** Like {!read} (same cost and accounting model for the successful
    path) but never injects transient read faults: the metadata-checksum
    layer retries media fetches, so corruption detection itself stays
    deterministic. *)

val read_u64 : t -> int -> int
val read_u32 : t -> int -> int
val read_byte : t -> int -> int

val peek : t -> off:int -> len:int -> Bytes.t
(** Observability read of the {e durable} image: no stats, no simulated
    latency, no fault injection. Used to snapshot durable state for a
    trace preamble without perturbing the run. *)

val peek_u64 : t -> int -> int
(** Like {!peek}, for one little-endian 8-byte word. *)

val store : t -> off:int -> string -> unit
(** Regular store: visible immediately, durable only after flush + fence.
    Split into 8-byte atomic units. *)

val store_u64 : t -> int -> int -> unit
(** 8-byte aligned store: crash-atomic (single unit). Raises
    [Invalid_argument] if [off] is not 8-byte aligned. *)

val store_u32 : t -> int -> int -> unit
val store_byte : t -> int -> int -> unit

val store_nt : t -> off:int -> string -> unit
(** Non-temporal store: bypasses the cache (modelled as store + flush of
    the covered lines); still requires a fence for durability. *)

val store_coarse : t -> off:int -> string -> unit
(** Bulk store split at cache-line rather than 8-byte granularity, and
    flushed immediately (non-temporal). Only for zeroing/bulk-initializing
    regions whose intermediate crash states are uniform; keeps the pending
    log small. Still requires a fence for durability. *)

val zero : t -> off:int -> len:int -> unit
(** Coarse-store zeroes over the range (flushed, not fenced). *)

(** {1 Persistence primitives} *)

val flush : t -> off:int -> len:int -> unit
(** [clwb] every cache line overlapping the range. *)

val fence : t -> unit
(** [sfence]: all flushed stores become durable. Runs the fence hook (if
    any) first, so the hook observes the maximal pending state. After the
    drain, any scratch created by {!scratch} is re-synchronized to the
    new durable base (O(drained + patched lines)), and any view applied
    to it is implicitly reverted. The drain itself visits only the lines
    flushed since the previous fence: O(lines drained), however many
    lines the device has ever held dirty. *)

val persist : t -> off:int -> len:int -> unit
(** [flush] then [fence]. *)

val set_fence_hook : t -> (t -> unit) option -> unit
(** Hook invoked at every [fence], before it takes effect; used by the
    crash-consistency harness to probe crash images at persist
    boundaries. *)

(** {1 Observability}

    Both hooks are [None] by default. When off, the only overhead is one
    branch per device call; when on, emission reads no clocks or RNGs and
    charges nothing, so traced and untraced runs are bit-identical. Both
    are cleared by {!reset} and never inherited by {!of_view} devices. *)

val set_tracer : t -> Obs.Recorder.t option -> unit
(** Mirror every store/flush/fence/bit-flip as a structured {!Obs.Event}
    stamped with the current simulated time. *)

val tracer : t -> Obs.Recorder.t option

val emit : t -> Obs.Event.kind -> unit
(** Emit an event on the attached tracer (no-op when untraced): used by
    higher layers to interleave spans and typestate claims with the
    device's own persistence stream. *)

val set_metrics : t -> Obs.Metrics.t option -> unit
(** Count stores/flushes/fences into a metrics registry. *)

val metrics : t -> Obs.Metrics.t option

(** {1 Crash states} *)

val is_quiescent : t -> bool
(** No pending (non-durable) stores. *)

val pending_line_count : t -> int

val image_durable : t -> Bytes.t
(** Crash image containing only durable stores. *)

val image_latest : t -> Bytes.t
(** Image with every pending store applied (the "nothing lost" image). *)

val crash_image_count : t -> int
(** Number of legal crash images ([max_int] on overflow). *)

(** {2 Delta views}

    A {!view} denotes one crash image without materializing it: the
    shared durable base plus a flattened, line-ascending list of the
    per-line record prefixes that survived the crash. Views are cheap
    (O(dirty records)) and are patched into a reusable {!scratch} buffer
    with {!apply_view} / {!revert_view}, both O(touched lines). *)

type view
(** One crash state of the device, as a delta over the durable base.
    A view is only meaningful against the device (and device generation)
    that produced it: any mutation of the durable image — a fence that
    drains lines, {!flip_bit} — invalidates outstanding views. *)

val view_patch_count : view -> int
(** Number of surviving pending records the view patches in. *)

val crash_views : ?rng:Random.State.t -> ?max_images:int -> t -> view list
(** All legal crash states as views if there are at most [max_images]
    (default 64) of them; otherwise the two extreme views plus random
    samples drawn from [rng] (default: a fixed seed for
    reproducibility), deduplicated by content and topped up to
    [max_images] distinct states within a bounded retry budget. Dirty
    lines are enumerated in ascending line-index order, so the result —
    and the RNG consumption of the sampling branch — is stable by
    construction. *)

val crash_views_faulty : ?max_images:int -> t -> view list
(** Sampled crash views (default 16) where dirty lines may additionally
    be stuck (in-flight updates lost wholesale) or torn (last record
    half-applied, violating 8-byte atomicity), per the fault plan's
    rates and RNG. Falls back to {!crash_views} without a plan. Torn
    records arrive pre-truncated inside the view. *)

val materialize : t -> view -> Bytes.t
(** Fresh byte image of the crash state the view denotes (copy of the
    durable base with the view's records applied). *)

val view_hash : t -> view -> int64
(** 64-bit content hash of the image the view denotes. Equal image
    content hashes equally {e across fences and devices of the same
    size} (the hash is over full content, not over the patch list), so
    it is a sound memoization key up to 64-bit collisions. First use
    enables incremental per-line hashing on the device (one full-device
    pass; afterwards maintained in O(1) per drained line). *)

val durable_hash : t -> int64
(** Content hash of the current durable image — equals
    [view_hash t v] for any view denoting that same content. *)

(** {2 Scratch buffers}

    The zero-copy exploration engine: one full-device buffer, created
    once, that crash views are patched into and reverted from in place.
    At most one scratch is kept fence-synchronized per device (creating
    a new one detaches the previous). *)

type scratch

val scratch : t -> scratch
(** Scratch buffer initialized to the durable image (the one O(device)
    copy). It tracks the owning device across fences: after each drain
    the buffer is re-synced to the new durable base and any applied view
    is reverted. Enables content hashing on the device. *)

val apply_view : scratch -> view -> unit
(** Patch the view's records into the scratch buffer, first reverting
    any previously applied view. O(touched lines) when the scratch is in
    sync with the device; falls back to a full re-blit if the base
    mutated underneath it (e.g. via {!flip_bit}). *)

val revert_view : scratch -> unit
(** Restore the scratch to the durable base: re-blits the lines patched
    by the current view plus any lines mutated through an outstanding
    {!of_view} borrow. O(touched lines). *)

val scratch_image : scratch -> Bytes.t
(** Copy of the scratch buffer's current contents (tests/debugging). *)

val attached_scratch : t -> scratch option
(** The scratch currently attached to the device (the one {!scratch}
    created last and fences keep in sync), if any. Lets pooled callers
    reuse one scratch across many runs instead of re-copying the device
    each time; {!apply_view} self-heals if it has fallen out of sync. *)

(** {2 Retained views}

    Where {!crash_views} denotes {e pending} states, a retained view
    pins a {e past} durable state: {!retain} is O(1), and thereafter the
    device saves the pre-image of every durable line it is about to
    change (fence drain, {!flip_bit}) into each live retained view that
    lacks it — one shared [Bytes.t] per (line, change), whatever the
    number of views. Memory is O(unique lines dirtied since the oldest
    capture), never O(volume). This is the substrate of the snapshot
    subsystem ([Snap]); both it and the crash prober consume the same
    {!view} machinery. *)

type retained

val retain : t -> retained
(** Pin the current durable image. Pending (unfenced) stores are not
    part of the pin — callers wanting a crash-consistent image fence
    first. Enables content hashing on the device (first use is one
    O(backed) pass). *)

val retain_at : t -> hash:int64 -> saved:(int * Bytes.t) list -> retained
(** Resurrect a pin persisted outside the process (the [sqfs] sidecar
    path): a retained view whose capture [hash] and saved
    [(line_idx, pre_image)] pairs are supplied by the caller instead of
    captured live. Sound only if [saved] covers every line differing
    between the current durable image and the pinned one — callers must
    verify [view_hash (view_of_retained t r)] equals [hash] before
    trusting the result. The payloads are copied. *)

val release : t -> retained -> unit
(** Drop the pin. The view becomes dead; saved lines still shared with
    other retained views remain theirs (the GC is the refcount). *)

val retained_hash : retained -> int64
(** {!durable_hash} of the device at capture time. *)

val retained_dead : retained -> bool
(** True once released, or invalidated wholesale by {!reset}. *)

val retained_line_count : retained -> int
(** Number of pre-image lines this view holds — the measure of snapshot
    memory cost (O(dirty lines), the bench gate). *)

val retained_saved : retained -> (int * Bytes.t) list
(** Saved [(line_idx, pre_image)] pairs, ascending. The payloads are
    shared across views: treat as immutable. *)

val view_of_retained : t -> retained -> view
(** The pinned image as a delta {!view} over the {e current} durable
    base (the saved lines as line-sized records): feed it to
    {!apply_view}, {!materialize} or {!view_hash} — the latter equals
    {!retained_hash}. Raises [Invalid_argument] on a dead view or a
    different device. *)

val retained_spans : t -> retained -> (int * string) list
(** The pinned image as [(off, payload)] spans suitable for
    {!of_spans}: the device's backed spans with the saved lines
    overlaid. O(backed), not O(volume), on sparse devices. *)

(** {2 Pooled reuse} *)

val reset : ?hash:int64 array * int64 -> t -> image:Bytes.t -> unit
(** [reset t ~image] rewinds the device in place to the state of a fresh
    [of_image image] device, without reallocating: durable and visible
    contents are blitted from [image] (which must match the device
    size), pending stores, stats, the simulated clock, the fence hook,
    any fault plan/ECC state and outstanding view/borrow bookkeeping are
    all cleared. An attached scratch is kept attached and re-blitted to
    the new base. Device-pool contract: after [reset], every observable
    behaviour — stats, clock, crash-state enumeration, {!durable_hash} —
    is identical to a fresh device with the same contents.

    By default the content-hash state is dropped and lazily re-enabled
    like on a fresh device (a pass over the backed lines on first use).
    Callers resetting to the same template repeatedly should precompute
    [?hash = image_hash_state image] once and pass it: [reset] then
    builds the zero-elided line table from it over the backed lines,
    with no rehash. Not meaningful on borrowed ({!of_view}) devices. *)

val image_hash_state : Bytes.t -> int64 array * int64
(** Per-line content-hash state of an image, as consumed by
    [reset ~hash]: every line's hash and their xor, the {!durable_hash}
    of a device whose durable image is [image]. A whole-image fold that
    shares no state with the device's incremental hash. *)

val of_view : ?latency:Latency.t -> scratch -> t
(** Zero-copy mount of the scratch's current contents: the returned
    device's visible and durable storage {e alias the scratch buffer} —
    no copies. Mutations through the returned device are taint-tracked
    per line and undone by the next {!apply_view}/{!revert_view} on the
    owning scratch, which also invalidates the borrowed device. Intended
    for remount/recovery/fsck probing of a crash state; pending-store
    crash semantics of the borrowed device are not meaningful. *)

(** {1 Fault injection}

    A fault plan ({!Faults.Plan.t}) turns the device into a misbehaving
    medium: seeded bit flips in durable lines, transient read errors, and
    stuck/torn cache lines in crash images. With no plan (the default)
    none of this machinery runs and every observable result — stats,
    simulated clock, crash-image sets — is bit-identical to a device
    without the subsystem. While a plan is active the device maintains a
    per-line CRC32 ECC table over the durable image (recomputed as fences
    drain lines) that {!scrub} checks. *)

val set_fault_plan : t -> Faults.Plan.t -> unit
(** Install [plan]; {!Faults.Plan.none} removes any active plan. The ECC
    baseline is (re)computed from the current durable image. *)

val fault_state : t -> Faults.State.t option
val fault_events : t -> Faults.Trace.event list
(** Injected-fault trace, oldest first; [[]] without a plan. *)

val flip_bit : t -> off:int -> bit:int -> unit
(** Flip one bit of durable (and visible) storage without updating the
    ECC table — simulated media rot, detectable by {!scrub} and by
    record checksums. (The content hash behind {!view_hash} {e is}
    updated: memoization must see the rotted content as a new state.) *)

val inject_flips : t -> int
(** Inject [plan.bit_flips] random flips (constrained to [plan.regions]
    if non-empty) drawn from the plan's RNG; returns the number
    injected. 0 without a plan. *)

val scrub : t -> int list
(** Verify every durable line against the ECC baseline; returns the byte
    offsets of corrupted lines (empty without an active plan). Charges
    the simulated clock like a full-device read and updates
    [scrubbed_lines]/[scrub_errors]. *)
