(** Differential crash-state executor: one op sequence run against
    SquirrelFS on a simulated PM device and against {!Ref_fs}
    simultaneously, with crash-image enumeration + remount + [Fsck] +
    prefix-consistency checking at every persist point. *)

type crash_point = {
  cp_op : int;  (** index of the op being executed when the check failed *)
  cp_fence : int;  (** 1-based global fence count at the failing probe *)
  cp_image : int;  (** index within that fence's enumerated images; -1 for
                       failures not tied to a crash image (differential
                       return-value mismatches, live-fsck failures) *)
}

type outcome = {
  o_report : Crashcheck.Harness.report;
      (** one-sequence report; reports merge with {!Crashcheck.Harness.merge} *)
  o_fail : (crash_point * string) option;
      (** first violation, if any: the executor stops at the first *)
  o_divergences : int;
      (** benign capacity divergences (SquirrelFS [ENOSPC]/[EMLINK] where
          the unlimited model succeeded; the model is rolled back) *)
  o_sim_ns : int;
      (** simulated ns consumed on the main device by the workload itself
          (charged from the post-mkfs baseline, so the value is identical
          whether the device was fresh or pooled) *)
  o_state_sig : int64;
      (** deterministic fingerprint of the sequence's full crash-state
          trace: an FNV-1a-style fold of every probed crash image's
          content hash, in order. A function of (ops, config) only —
          independent of pooling, memo state and domain placement — so
          {!Enum} counts duplicate sequences with it order-independently
          across [-j] shards. *)
}

(** {2 The crash-state prober}

    The one check every crash view goes through, shared by {!run} and
    [Interleave]: patch the view into a scratch buffer and mount it
    zero-copy with [of_view], then superblock, [check_raw], mount
    (recovery), the csum-degraded check (on a csum volume a pure crash
    image must never be quarantined), [Fsck] and capture; the recovered
    tree must equal one of the legal states. Torn/stuck media views get
    the never-raise check instead. Content-determined verdicts are
    memoized by full-content view hash. *)

type memo
(** Verdict cache keyed by view hash. Sound to share across runs on
    devices of one size and csum setting; single-domain state. *)

val memo_create : unit -> memo

type prober
(** One run's probing state: run-local dedup sets, state and dedup
    counters, and the [o_state_sig] fold. *)

val prober : memo:memo -> csum:bool -> Pmem.Device.t -> prober

val probe :
  prober ->
  max_images:int ->
  media:bool ->
  compare_data:bool ->
  legal:Vfs.Logical.t list ->
  fail:(image:int -> string -> unit) ->
  unit
(** Probe the current fence of the prober's device: up to [max_images] crash
    views, then (with [~media:true]) up to 4 torn/stuck views. The
    recovered tree is compared with the legal states by
    {!Vfs.Logical.equal} [~compare_data]: [false] for crash images,
    since plain data writes are not crash-atomic; [true] for a quiescent
    device, whose one view is the durable state. The first failing view
    is reported through [fail] with its index, which is expected to
    raise. *)

val states : prober -> int
val deduped : prober -> int

(** Per-domain resource pool: one formatted device (template-blit reset
    between runs instead of allocate + mkfs), its scratch buffer, and the
    prober's verdict {!memo}, all carried across the runs that share the
    pool. Pooling is invisible in outcomes: reports,
    [states_deduped] and [o_sim_ns] are bit-identical with and without a
    pool. A pool is single-domain state — share one per domain/shard,
    never across domains. *)
module Pool : sig
  type t

  val create : unit -> t
end

val apply_sq : Squirrelfs.Fsctx.t -> Crashcheck.Workload.op -> (unit, Vfs.Errno.t) result
(** Apply one op to a live SquirrelFS, [Buggy_*] variants included (guarded
    so failed preconditions return the model's errno instead of raising;
    the guards understand root-level paths, which is all the generator
    emits). *)

val run :
  ?device_size:int ->
  ?max_images_per_fence:int ->
  ?faults:Faults.Plan.t ->
  ?latency:Pmem.Latency.t ->
  ?pool:Pool.t ->
  ?trace:Obs.Recorder.t ->
  ?metrics:Obs.Metrics.t ->
  Crashcheck.Workload.op list ->
  outcome
(** Defaults: 256 KiB device, 8 crash images per fence, [Faults.none],
    zero latency, no pool (fresh device + mkfs per call). [?trace] records the workload's
    store/flush/fence stream (opened with a geometry + durable-state
    preamble, see {!Squirrelfs.Tracing}); [?metrics] counts device and
    token traffic and op latencies. Neither perturbs the outcome: a traced
    run is bit-identical to an untraced one. With a
    non-trivial [?faults] plan the volume is formatted [~csum:true], the
    plan is installed, and with a torn or stuck line rate up to 4
    torn/stuck media images per fence (from [crash_views_faulty]) get
    the graceful-handling check on top of the pure crash images. With [bit_flips > 0] a sequence that passed ends
    with Phase B: seeded flips in up to [bit_flips] committed inode
    records, then scrub, degraded remount, quarantine and [EIO] checks,
    which fill [faults_detected], [faults_quarantined] and [eio_checks]
    ([o_sim_ns] is read before it). Fully deterministic for fixed
    arguments. *)
