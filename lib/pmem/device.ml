let line_size = 64
let word_size = 8

(* A record is a single store of at most [word_size] bytes that does not
   cross an 8-byte-aligned boundary, hence crash-atomic. *)
type record = { off : int; data : string }

type line = {
  idx : int;
  mutable pending : record list; (* newest first *)
  mutable flushed : int; (* #oldest pending records covered by clwb *)
}

exception Media_error of { off : int; len : int }

(* Minimal reentrant lock for [shared] mode. Public entry points nest
   ([persist] -> [flush] + [fence], [store_coarse] -> [flush], ...), and
   OCaml's [Mutex] is not reentrant, so the lock tracks its owning domain
   and a nesting depth. Reading [rl_owner] from a non-owner domain is a
   benign race: the field is a word (no tearing), and only the owner ever
   sees its own id there. *)
type rlock = {
  rl_m : Mutex.t;
  mutable rl_owner : int; (* (Domain.id :> int); -1 = free *)
  mutable rl_depth : int;
}

let rlock_create () = { rl_m = Mutex.create (); rl_owner = -1; rl_depth = 0 }

(* A retained view pins the durable image as it stood at capture time.
   Capture is O(1): nothing is copied up front. Instead, whenever a line
   of the durable image is about to change (fence drain, bit flip), its
   pre-image is saved — once — into every live retained view that does
   not already hold that line, all of them sharing the same [Bytes.t]
   (the "refcounted base pinning": the GC is the refcount). Memory cost
   is therefore O(unique lines dirtied since the oldest capture), never
   O(volume). *)
type retained = {
  r_saved : (int, Bytes.t) Hashtbl.t; (* line idx -> pre-image at capture *)
  r_hash : int64; (* durable content hash at capture *)
  r_size : int;
  mutable r_dead : bool; (* released, or invalidated by [reset] *)
}

type t = {
  size : int;
  latest : Sbuf.t;
  durable : Sbuf.t;
  lines : (int, line) Hashtbl.t; (* dirty lines only *)
  mutable drain : line list;
      (* the lines [fence] will drain: each line with [flushed > 0], once *)
  latency : Latency.t;
  stats : Stats.t;
  mutable now_ns : int;
  mutable fence_hook : (t -> unit) option;
  mutable in_fence : bool;
  mutable faults : Faults.State.t option;
  mutable ecc : int array; (* per-line CRC of durable content; [||] = off *)
  mutable gen : int; (* bumped whenever durable content changes *)
  mutable hlines : (int, int64) Hashtbl.t option;
      (* per-line content hash of the lines whose hash differs from the
         all-zero line's (an absent line has the zero-line hash, O(1) by
         the FNV power identity below), so enabling hashing costs
         O(backed lines), not O(volume); [None] = hashing off *)
  mutable base_hash : int64; (* xor of line hashes: hash of durable image *)
  mutable attached : scratch option; (* scratch kept in sync across fences *)
  mutable retained : retained list; (* live pinned views, newest first *)
  mutable taint : (int, unit) Hashtbl.t option;
      (* line indexes mutated through this device; only on borrowed
         ([of_view]) devices, so the owning scratch can revert them *)
  mutable tracer : Obs.Recorder.t option;
      (* when set, every store/flush/fence is mirrored as a structured
         event at the current simulated timestamp.  Emission never reads
         clocks or RNGs and charges nothing, so a traced run is
         bit-identical to an untraced one. *)
  mutable metrics : Obs.Metrics.t option;
  rl : rlock;
  mutable shared : bool;
      (* serialize public access through [rl]: multi-domain (server) mode *)
}

and scratch = {
  s_dev : t;
  s_buf : Sbuf.t;
  mutable s_gen : int; (* device generation the buffer mirrors *)
  mutable s_patched : int list; (* line idxs patched by the current view *)
  mutable s_borrow : t option; (* outstanding [of_view] device, if any *)
}

(* The one record literal behind every constructor: a quiescent device
   over [latest]/[durable] with an empty line table, a zero clock and
   every optional subsystem off. *)
let assemble ~latency ~lines ~taint latest durable =
  {
    size = Sbuf.length latest;
    latest;
    durable;
    lines = Hashtbl.create lines;
    drain = [];
    latency;
    stats = Stats.create ();
    now_ns = 0;
    fence_hook = None;
    in_fence = false;
    faults = None;
    ecc = [||];
    gen = 0;
    hlines = None;
    base_hash = 0L;
    attached = None;
    retained = [];
    taint;
    tracer = None;
    metrics = None;
    rl = rlock_create ();
    shared = false;
  }

let create ?(latency = Latency.zero) ~size () =
  assemble ~latency ~lines:256 ~taint:None (Sbuf.create ~size)
    (Sbuf.create ~size)

(* Loading backs only the image's nonzero chunks, so a multi-GB volume
   file costs its content, not its size. *)
let of_image ?(latency = Latency.zero) image =
  let durable = Sbuf.create ~size:(Bytes.length image) in
  Sbuf.load_bytes durable image;
  assemble ~latency ~lines:256 ~taint:None (Sbuf.copy durable) durable

(* Quiescent device from [(off, payload)] spans over an otherwise-zero
   volume. Content-equivalent to [of_image] on the expanded image, but
   no dense intermediate is ever materialized — loading a multi-GB
   host-sparse volume file costs only its nonzero spans. Callers should
   omit all-zero spans; including one merely backs chunks needlessly. *)
let of_spans ?(latency = Latency.zero) ~size spans =
  let durable = Sbuf.create ~size in
  List.iter (fun (off, s) -> Sbuf.blit_string s durable off) spans;
  assemble ~latency ~lines:256 ~taint:None (Sbuf.copy durable) durable

let size t = t.size
let stats t = t.stats
let now_ns t = t.now_ns
let charge t ns = t.now_ns <- t.now_ns + ns
let set_fence_hook t hook = t.fence_hook <- hook
(* Every device is lazily backed; the predicate stays for callers that
   assert it. *)
let is_sparse _ = true

let resident_bytes t =
  Sbuf.resident_bytes t.latest + Sbuf.resident_bytes t.durable

(* Merged ascending byte spans ever touched through either image. An
   offset outside every span is durably zero AND has no in-flight
   stores — scans (mount, fsck) may skip it wholesale. *)
let backed_spans t =
  let spans =
    List.sort compare (Sbuf.backed_spans t.latest @ Sbuf.backed_spans t.durable)
  in
  let rec merge = function
    | (o1, l1) :: (o2, l2) :: rest when o2 <= o1 + l1 ->
        merge ((o1, max l1 (o2 + l2 - o1)) :: rest)
    | s :: rest -> s :: merge rest
    | [] -> []
  in
  merge spans

(* {1 Observability}

   Both hooks are off by default; when off the only overhead is one
   [option] branch per device call. *)

let set_tracer t r = t.tracer <- r
let tracer t = t.tracer
let set_metrics t m = t.metrics <- m
let metrics t = t.metrics

let emit t k =
  match t.tracer with
  | None -> ()
  | Some r -> Obs.Recorder.emit r ~ts:t.now_ns k

let count t name =
  match t.metrics with None -> () | Some m -> Obs.Metrics.incr m name 1

(* [len > size - off] rather than [off + len > size]: the sum wraps
   around for [len] near [max_int]. *)
let check_range t off len =
  if off < 0 || len < 0 || len > t.size - off then
    invalid_arg
      (Printf.sprintf "Pmem.Device: range off=%d len=%d outside device of size %d"
         off len t.size)

let line_count t = (t.size + line_size - 1) / line_size

let line_span t idx =
  let off = idx * line_size in
  (off, Int.min line_size (t.size - off))

(* {1 Content hashing}

   A 64-bit content hash of the durable image, maintained incrementally:
   one FNV-1a digest per cache line (salted with the line index) combined
   by xor. Because xor is self-inverse, draining a line at a fence (or
   flipping a bit) updates the device hash in O(1) per touched line, and
   the hash of any crash view is the base hash with the patched lines'
   digests swapped out — O(dirty lines) per view, no materialization.
   Only maintained once [scratch]/[view_hash] has been used on the
   device, so the default path does no extra work. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_byte h b = Int64.mul (Int64.logxor h (Int64.of_int b)) fnv_prime

let fnv_bytes h buf ~off ~len =
  let h = ref h in
  for i = off to off + len - 1 do
    h := fnv_byte !h (Char.code (Bytes.get buf i))
  done;
  !h

let fnv_int h v =
  let h = ref h in
  for i = 0 to 7 do
    h := fnv_byte !h ((v lsr (i * 8)) land 0xFF)
  done;
  !h

(* Digest of one line's content at a given index (the salt makes equal
   content at different offsets hash differently, so the xor combination
   cannot cancel across lines). *)
let hash_line_content idx b =
  fnv_bytes (fnv_int fnv_offset idx) b ~off:0 ~len:(Bytes.length b)

(* Hashing a zero byte multiplies the accumulator by the FNV prime
   ((h xor 0) * p = h * p), so an all-zero line's digest is the salted
   seed times p^len — O(1) per line via this power table. That identity
   is what lets the hash state skip unbacked and all-zero lines. *)
let pow_prime =
  let a = Array.make (line_size + 1) 1L in
  for i = 1 to line_size do
    a.(i) <- Int64.mul a.(i - 1) fnv_prime
  done;
  a

let zero_line_hash idx len = Int64.mul (fnv_int fnv_offset idx) pow_prime.(len)

(* Base hash of an all-zero volume of a given size, memoized per size
   (pooled fuzz devices share a handful of sizes across domains). *)
let zero_base_memo : (int, int64) Hashtbl.t = Hashtbl.create 4
let zero_base_mu = Mutex.create ()

let zero_base ~size =
  Mutex.lock zero_base_mu;
  let r =
    match Hashtbl.find_opt zero_base_memo size with
    | Some h -> h
    | None ->
        let n = (size + line_size - 1) / line_size in
        let h = ref 0L in
        for idx = 0 to n - 1 do
          let len = min line_size (size - (idx * line_size)) in
          h := Int64.logxor !h (zero_line_hash idx len)
        done;
        Hashtbl.replace zero_base_memo size !h;
        !h
  in
  Mutex.unlock zero_base_mu;
  r

let hash_line_of t buf idx =
  let off, len = line_span t idx in
  match Sbuf.line_view buf ~off ~len with
  | None -> zero_line_hash idx len
  | Some (b, boff) -> fnv_bytes (fnv_int fnv_offset idx) b ~off:boff ~len

let line_hash_get t idx =
  match t.hlines with
  | None -> 0L
  | Some tbl -> (
      match Hashtbl.find_opt tbl idx with
      | Some h -> h
      | None -> zero_line_hash idx (snd (line_span t idx)))

(* Every line index inside the buffer's backed spans, ascending: the
   only lines whose content can differ from zero. *)
let iter_backed_lines buf f =
  List.iter
    (fun (off, len) ->
      for idx = off / line_size to (off + len - 1) / line_size do
        f idx
      done)
    (Sbuf.backed_spans buf)

let enable_content_hash t =
  match t.hlines with
  | Some _ -> ()
  | None ->
      let tbl = Hashtbl.create 1024 in
      let base = ref (zero_base ~size:t.size) in
      iter_backed_lines t.durable (fun idx ->
          let h = hash_line_of t t.durable idx in
          let z = zero_line_hash idx (snd (line_span t idx)) in
          if not (Int64.equal h z) then begin
            Hashtbl.replace tbl idx h;
            base := Int64.logxor !base (Int64.logxor z h)
          end);
      t.hlines <- Some tbl;
      t.base_hash <- !base

let refresh_line_hash t idx =
  match t.hlines with
  | None -> ()
  | Some tbl ->
      let old = line_hash_get t idx in
      let h = hash_line_of t t.durable idx in
      t.base_hash <- Int64.logxor t.base_hash (Int64.logxor old h);
      if Int64.equal h (zero_line_hash idx (snd (line_span t idx))) then
        Hashtbl.remove tbl idx
      else Hashtbl.replace tbl idx h

let durable_hash t =
  enable_content_hash t;
  t.base_hash

(* {1 Fault plans}

   The ECC table holds one CRC32 per cache line of the *durable* image,
   recomputed as fences drain lines. It is only maintained while a fault
   plan is active, so the default path does no extra work and all
   existing results stay bit-identical. [flip_bit] deliberately skips
   the ECC update — that is what lets [scrub] detect rot. *)

let zero_line_bytes = Bytes.make line_size '\000'

let ecc_of_line t idx =
  let off, len = line_span t idx in
  match Sbuf.line_view t.durable ~off ~len with
  | Some (b, boff) -> Faults.Crc32.digest_bytes b ~off:boff ~len
  | None -> Faults.Crc32.digest_bytes zero_line_bytes ~off:0 ~len

let set_fault_plan t plan =
  if Faults.Plan.is_none plan then begin
    t.faults <- None;
    t.ecc <- [||]
  end
  else begin
    t.faults <- Some (Faults.State.create plan);
    t.ecc <- Array.init (line_count t) (ecc_of_line t)
  end

let fault_state t = t.faults

let fault_events t =
  match t.faults with None -> [] | Some st -> Faults.State.events st

let taint_line t idx =
  match t.taint with
  | Some tbl -> Hashtbl.replace tbl idx ()
  | None -> ()

(* Copy-on-write hook for retained views: called immediately BEFORE a
   fence drain changes a durable line. One [Sbuf.sub] per line per
   change, shared by every live view that still lacks the line. *)
let retained_save t idx =
  match t.retained with
  | [] -> ()
  | views -> (
      match List.filter (fun r -> (not r.r_dead) && not (Hashtbl.mem r.r_saved idx)) views with
      | [] -> ()
      | missing ->
          let off, len = line_span t idx in
          let b = Sbuf.sub t.durable ~off ~len in
          List.iter (fun r -> Hashtbl.replace r.r_saved idx b) missing)

let flip_bit t ~off ~bit =
  check_range t off 1;
  if bit < 0 || bit > 7 then invalid_arg "Pmem.Device.flip_bit: bad bit";
  emit t (Obs.Event.Flip { off; bit });
  let mask = 1 lsl bit in
  let flip buf =
    Sbuf.set buf off (Char.chr (Char.code (Sbuf.get buf off) lxor mask))
  in
  (* Deliberately NO [retained_save]: rot hits the physical line, which
     retained views share with the live image until a logical change
     COWs it. A flip in a still-shared line therefore silently corrupts
     the pinned content — exactly the divergence-from-[retained_hash]
     the snapshot scrubber exists to catch. *)
  flip t.durable;
  flip t.latest;
  t.gen <- t.gen + 1;
  refresh_line_hash t (off / line_size);
  taint_line t (off / line_size);
  t.stats.bitflips <- t.stats.bitflips + 1;
  match t.faults with
  | Some st -> ignore (Faults.State.record st Faults.Trace.Bit_flip ~off ~bit)
  | None -> ()

let inject_flips t =
  match t.faults with
  | None -> 0
  | Some st ->
      let plan = Faults.State.plan st in
      let rng = Faults.State.rng st in
      let regions =
        match plan.Faults.Plan.regions with
        | [] -> [ { Faults.Plan.off = 0; len = t.size } ]
        | rs -> rs
      in
      let regions = Array.of_list regions in
      for _ = 1 to plan.Faults.Plan.bit_flips do
        let r = regions.(Random.State.int rng (Array.length regions)) in
        let off = r.Faults.Plan.off + Random.State.int rng r.Faults.Plan.len in
        let bit = Random.State.int rng 8 in
        flip_bit t ~off ~bit
      done;
      plan.Faults.Plan.bit_flips

let scrub t =
  if Array.length t.ecc = 0 then []
  else begin
    let n = Array.length t.ecc in
    let bad = ref [] in
    for idx = n - 1 downto 0 do
      if ecc_of_line t idx <> t.ecc.(idx) then bad := (idx * line_size) :: !bad
    done;
    t.stats.scrubbed_lines <- t.stats.scrubbed_lines + n;
    t.stats.scrub_errors <- t.stats.scrub_errors + List.length !bad;
    charge t (t.latency.read_base_ns + (n * t.latency.read_line_ns));
    !bad
  end

(* {1 Reads} *)

let maybe_read_fault t ~off ~len =
  match t.faults with
  | Some st ->
      let rate = (Faults.State.plan st).Faults.Plan.read_error_rate in
      if rate > 0. && Random.State.float (Faults.State.rng st) 1.0 < rate then begin
        t.stats.read_faults <- t.stats.read_faults + 1;
        ignore (Faults.State.record st Faults.Trace.Read_error ~off ~bit:0);
        raise (Media_error { off; len })
      end
  | None -> ()

(* A faulted read transfers nothing: the controller aborts the
   transaction before any data (or time) moves, so it neither charges
   latency nor counts in [reads]/[bytes_read]; only [read_faults] is
   incremented (inside [maybe_read_fault]). *)
let read t ~off ~len =
  check_range t off len;
  maybe_read_fault t ~off ~len;
  let first = off / line_size and last = (off + len - 1) / line_size in
  let lines = if len = 0 then 0 else last - first + 1 in
  t.stats.reads <- t.stats.reads + 1;
  t.stats.bytes_read <- t.stats.bytes_read + len;
  if lines > 0 then
    charge t (t.latency.read_base_ns + (lines * t.latency.read_line_ns));
  Sbuf.sub t.latest ~off ~len

(* Metadata read path used by the checksum layer: same cost and
   accounting model as a successful [read], but transient read faults are
   never injected (the CRC machinery models a controller that retries
   metadata fetches until the media answers; injecting there would make
   corruption *detection* itself flaky and non-deterministic). *)
let read_meta t ~off ~len =
  check_range t off len;
  let first = off / line_size and last = (off + len - 1) / line_size in
  let lines = if len = 0 then 0 else last - first + 1 in
  t.stats.reads <- t.stats.reads + 1;
  t.stats.bytes_read <- t.stats.bytes_read + len;
  if lines > 0 then
    charge t (t.latency.read_base_ns + (lines * t.latency.read_line_ns));
  Sbuf.sub t.latest ~off ~len

let read_u64 t off =
  check_range t off 8;
  t.stats.reads <- t.stats.reads + 1;
  t.stats.bytes_read <- t.stats.bytes_read + 8;
  charge t t.latency.read_meta_ns;
  Int64.to_int (Sbuf.get_int64_le t.latest off)

let read_u32 t off =
  check_range t off 4;
  t.stats.reads <- t.stats.reads + 1;
  t.stats.bytes_read <- t.stats.bytes_read + 4;
  charge t t.latency.read_meta_ns;
  Int32.to_int (Sbuf.get_int32_le t.latest off) land 0xFFFFFFFF

let read_byte t off =
  check_range t off 1;
  t.stats.reads <- t.stats.reads + 1;
  t.stats.bytes_read <- t.stats.bytes_read + 1;
  charge t t.latency.read_meta_ns;
  Char.code (Sbuf.get t.latest off)

(* Observability peeks at the *durable* image: free of charge (no stats,
   no simulated latency, no fault injection), so a tracer can snapshot
   pre-existing durable state without perturbing the run it observes. *)
let peek t ~off ~len =
  check_range t off len;
  Sbuf.sub t.durable ~off ~len

let peek_u64 t off =
  check_range t off 8;
  Int64.to_int (Sbuf.get_int64_le t.durable off)

(* {1 Stores} *)

let get_line t idx =
  match Hashtbl.find_opt t.lines idx with
  | Some l -> l
  | None ->
      let l = { idx; pending = []; flushed = 0 } in
      Hashtbl.replace t.lines idx l;
      l

let add_record t ~cost_ns off data =
  Sbuf.blit_string data t.latest off;
  let l = get_line t (off / line_size) in
  l.pending <- { off; data } :: l.pending;
  taint_line t (off / line_size);
  t.stats.stores <- t.stats.stores + 1;
  t.stats.bytes_stored <- t.stats.bytes_stored + String.length data;
  charge t cost_ns

(* Split [data] into records that never cross an 8-byte-aligned boundary. *)
let store_aux t ~cost_ns ~off data =
  check_range t off (String.length data);
  let len = String.length data in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let room_in_word = word_size - (abs mod word_size) in
    let chunk = Int.min room_in_word (len - !pos) in
    add_record t ~cost_ns abs (String.sub data !pos chunk);
    pos := !pos + chunk
  done

let store t ~off data =
  emit t (Obs.Event.Store { off; data; nt = false; coarse = false });
  count t "pm.stores";
  store_aux t ~cost_ns:t.latency.store_ns ~off data

let flush t ~off ~len =
  check_range t off len;
  if len > 0 then begin
    emit t (Obs.Event.Flush { off; len });
    count t "pm.flushes";
    let first = off / line_size and last = (off + len - 1) / line_size in
    let mark l =
      (* a line in the table always has pending records, so this is the
         one place [flushed] goes from 0 to positive *)
      if l.flushed = 0 then t.drain <- l :: t.drain;
      l.flushed <- List.length l.pending;
      t.stats.flushes <- t.stats.flushes + 1;
      charge t t.latency.flush_ns
    in
    (* For huge ranges over a mostly-clean table (large truncate/mkfs
       zeroing), walk the dirty-line table instead of every index in the
       range; per-line effects are independent and commutative, so the
       two walks are observably identical. *)
    if last - first + 1 > 4 * (Hashtbl.length t.lines + 1) then
      Hashtbl.iter
        (fun idx l -> if idx >= first && idx <= last then mark l)
        t.lines
    else
      for idx = first to last do
        match Hashtbl.find_opt t.lines idx with
        | None -> ()
        | Some l -> mark l
      done
  end

(* Bulk store with cache-line-sized records: used only for zeroing freshly
   allocated or deallocated regions, where intra-line tearing of uniform
   content is acceptable. Keeps the pending-store log small. *)
let store_coarse t ~off data =
  check_range t off (String.length data);
  emit t (Obs.Event.Store { off; data; nt = true; coarse = true });
  count t "pm.stores";
  let len = String.length data in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let room = line_size - (abs mod line_size) in
    let chunk = Int.min room (len - !pos) in
    add_record t ~cost_ns:t.latency.nt_store_ns abs (String.sub data !pos chunk);
    pos := !pos + chunk
  done;
  flush t ~off ~len

let store_nt t ~off data =
  emit t (Obs.Event.Store { off; data; nt = true; coarse = false });
  count t "pm.stores";
  store_aux t ~cost_ns:t.latency.nt_store_ns ~off data;
  flush t ~off ~len:(String.length data)

let store_u64 t off v =
  if off mod 8 <> 0 then invalid_arg "Pmem.Device.store_u64: unaligned";
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  store t ~off (Bytes.to_string b)

let store_u32 t off v =
  if off mod 4 <> 0 then invalid_arg "Pmem.Device.store_u32: unaligned";
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  store t ~off (Bytes.to_string b)

let store_byte t off v = store t ~off (String.make 1 (Char.chr (v land 0xFF)))

(* Shared zero-content record payloads: [zero] below never materializes
   the full range, only line-sized (or smaller) views of this string. *)
let zeros_line = String.make line_size '\000'

(* Zero a range. Equivalent to [store_coarse] of an all-zero string —
   same records, stats, charges, events — but O(touched lines) in
   transient memory instead of O(len) (the historical implementation
   built a [String.make len] up front, a multi-MB spike for a large
   truncate). Chunks unbacked in both images are provably zero with no
   in-flight stores, so their lines need no records at all and the
   range skips them wholesale. *)
let zero t ~off ~len =
  check_range t off len;
  if len > 0 then begin
    (match t.tracer with
    | None -> ()
    | Some r ->
        Obs.Recorder.emit r ~ts:t.now_ns
          (Obs.Event.Store
             { off; data = String.make len '\000'; nt = true; coarse = true }));
    count t "pm.stores";
    let stop = off + len in
    let pos = ref off in
    while !pos < stop do
      let chunk_end =
        Int.min stop (((!pos / Sbuf.chunk_bytes) + 1) * Sbuf.chunk_bytes)
      in
      if Sbuf.chunk_unbacked t.latest !pos && Sbuf.chunk_unbacked t.durable !pos
      then pos := chunk_end
      else
        while !pos < chunk_end do
          let room = line_size - (!pos mod line_size) in
          let c = Int.min room (chunk_end - !pos) in
          add_record t ~cost_ns:t.latency.nt_store_ns !pos
            (if c = line_size then zeros_line else String.sub zeros_line 0 c);
          pos := !pos + c
        done
    done;
    flush t ~off ~len
  end

(* {1 Scratch maintenance}

   A scratch is a full-device buffer that mirrors the owning device's
   durable image, into which crash views are patched in place. Reverting
   a view restores the patched lines (and any lines a borrowed [of_view]
   device mutated) straight from the durable base, so both apply and
   revert are O(touched lines), never O(device). The one full-buffer
   copy happens at [scratch] creation; after that, fences keep the
   attached scratch in sync by re-blitting only the lines they drain. *)

let scratch_restore_lines s idxs =
  let t = s.s_dev in
  List.iter
    (fun idx ->
      let off, len = line_span t idx in
      Sbuf.blit ~src:t.durable ~src_off:off ~dst:s.s_buf ~dst_off:off ~len)
    idxs

(* Lines the current view patched plus lines a borrowed device stored
   to; restoring this set from [durable] returns the buffer to base. *)
let scratch_dirty_lines s =
  let borrowed =
    match s.s_borrow with
    | Some d -> (
        match d.taint with
        | Some tbl -> Hashtbl.fold (fun idx () acc -> idx :: acc) tbl []
        | None -> [])
    | None -> []
  in
  List.rev_append borrowed s.s_patched

let scratch_release s =
  scratch_restore_lines s (scratch_dirty_lines s);
  (match s.s_borrow with Some d -> d.taint <- None | None -> ());
  s.s_borrow <- None;
  s.s_patched <- []

(* Drop view/borrow bookkeeping without touching the buffer (used when
   the buffer is about to be rebuilt wholesale). *)
let scratch_forget s =
  (match s.s_borrow with Some d -> d.taint <- None | None -> ());
  s.s_borrow <- None;
  s.s_patched <- []

(* {1 Fence} *)

let apply_record durable { off; data } = Sbuf.blit_string data durable off

let fence t =
  emit t Obs.Event.Fence;
  count t "pm.fences";
  (match t.fence_hook with
  | Some hook when not t.in_fence ->
      t.in_fence <- true;
      Fun.protect ~finally:(fun () -> t.in_fence <- false) (fun () -> hook t)
  | Some _ | None -> ());
  (* Drain exactly the lines [flush] queued, so a fence costs O(lines
     drained) whatever the line table once held. The list is in reverse
     flush order, which nothing can observe: record application,
     [retained_save], the ECC entry and the scratch restore are per line
     and independent, and the content hash is an xor. In shared mode the
     list is touched only under the device lock that wraps [flush] and
     [fence]. *)
  let drain = t.drain in
  t.drain <- [];
  List.iter
    (fun l ->
      let idx = l.idx in
      (* Apply the oldest [l.flushed] records to the durable image; the
         rest stay pending ([l.pending] is newest-first). *)
      retained_save t idx;
      let oldest_first = List.rev l.pending in
      let rec take n = function
        | r :: rest when n > 0 ->
            apply_record t.durable r;
            take (n - 1) rest
        | rest -> rest
      in
      let remaining_oldest_first = take l.flushed oldest_first in
      l.pending <- List.rev remaining_oldest_first;
      l.flushed <- 0;
      if Array.length t.ecc > 0 then t.ecc.(idx) <- ecc_of_line t idx;
      refresh_line_hash t idx;
      if l.pending = [] then Hashtbl.remove t.lines idx)
    drain;
  let drained = List.length drain in
  if drained > 0 then begin
    let old_gen = t.gen in
    t.gen <- old_gen + 1;
    (* Keep the attached scratch mirroring the new durable image: restore
       the drained lines plus whatever the outstanding view/borrow
       touched — all from the just-updated durable base. *)
    match t.attached with
    | Some s when s.s_gen = old_gen ->
        scratch_restore_lines s (List.map (fun l -> l.idx) drain);
        scratch_release s;
        s.s_gen <- t.gen
    | Some _ | None -> ()
  end;
  t.stats.fences <- t.stats.fences + 1;
  t.stats.lines_drained <- t.stats.lines_drained + drained;
  charge t (t.latency.fence_base_ns + (drained * t.latency.fence_line_ns))

let persist t ~off ~len =
  flush t ~off ~len;
  fence t

(* {1 Crash views} *)

let is_quiescent t = Hashtbl.length t.lines = 0
let pending_line_count t = Hashtbl.length t.lines

let image_durable t = Sbuf.to_bytes t.durable
let image_latest t = Sbuf.to_bytes t.latest

(* Dirty lines with their pending records (oldest first), sorted by line
   index so enumeration — and therefore sampled-image RNG consumption —
   is stable by construction, independent of hash-table history. *)
let dirty_line_assoc t =
  Hashtbl.fold (fun idx l acc -> (idx, List.rev l.pending) :: acc) t.lines []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

let dirty_lines t = List.map snd (dirty_line_assoc t)
(* each element: one line's pending records, oldest first *)

let crash_image_count t =
  List.fold_left
    (fun acc recs ->
      let n = List.length recs + 1 in
      if acc > max_int / n then max_int else acc * n)
    1 (dirty_lines t)

type view = { v_recs : record list }
(* Line-ascending; oldest-first within a line; torn records arrive
   pre-truncated. Applying the records in list order onto the durable
   base yields the crash image. *)

let view_patch_count v = List.length v.v_recs

(* Build a view applying, for each line, its first [k] records. *)
let build_view lines ks =
  let rec take n = function
    | r :: rest when n > 0 -> r :: take (n - 1) rest
    | _ -> []
  in
  { v_recs = List.concat (List.map2 (fun (_, recs) k -> take k recs) lines ks) }

let group_by_line recs =
  let rec go acc cur_idx cur = function
    | [] -> List.rev (if cur = [] then acc else (cur_idx, List.rev cur) :: acc)
    | r :: rest ->
        let idx = r.off / line_size in
        if cur = [] then go acc idx [ r ] rest
        else if idx = cur_idx then go acc cur_idx (r :: cur) rest
        else go ((cur_idx, List.rev cur) :: acc) idx [ r ] rest
  in
  go [] (-1) [] recs

(* Post-patch content of every line the view touches: (idx, bytes). *)
let patched_line_contents t v =
  List.map
    (fun (idx, recs) ->
      let off, len = line_span t idx in
      let b = Sbuf.sub t.durable ~off ~len in
      List.iter
        (fun r ->
          Bytes.blit_string r.data 0 b (r.off - off) (String.length r.data))
        recs;
      (idx, b))
    (group_by_line v.v_recs)

(* Content hash of a view relative to the current durable base only:
   xor of salted digests of the patched lines that actually differ from
   the base. Canonical within one (device, generation) — two views with
   the same resulting image hash equally — but not comparable across
   fences. Needs no precomputed state. *)
let view_local_hash t v =
  List.fold_left
    (fun h (idx, b) ->
      let off, len = line_span t idx in
      if Bytes.equal b (Sbuf.sub t.durable ~off ~len) then h
      else Int64.logxor h (hash_line_content idx b))
    0L (patched_line_contents t v)

(* Full-content hash of the crash image a view denotes: the durable
   image's rolling hash with the patched lines' digests swapped out.
   Canonical across fences (equal image content => equal hash, whatever
   the base was), which is what makes cross-fence memoization sound up
   to 64-bit collisions. *)
let view_hash t v =
  enable_content_hash t;
  List.fold_left
    (fun h (idx, b) ->
      let hc = hash_line_content idx b in
      let lh = line_hash_get t idx in
      if Int64.equal hc lh then h
      else Int64.logxor h (Int64.logxor lh hc))
    t.base_hash (patched_line_contents t v)

let crash_views ?rng ?(max_images = 64) t =
  let lines = dirty_line_assoc t in
  let counts = List.map (fun (_, recs) -> List.length recs) lines in
  let total = crash_image_count t in
  if lines = [] then [ { v_recs = [] } ]
  else if total <= max_images then begin
    (* Exhaustive odometer over per-line prefixes. *)
    let views = ref [] in
    let ks = Array.of_list (List.map (fun _ -> 0) counts) in
    let maxes = Array.of_list counts in
    let n = Array.length ks in
    let rec emit () =
      views := build_view lines (Array.to_list ks) :: !views;
      let rec inc i =
        if i >= n then false
        else if ks.(i) < maxes.(i) then begin
          ks.(i) <- ks.(i) + 1;
          true
        end
        else begin
          ks.(i) <- 0;
          inc (i + 1)
        end
      in
      if inc 0 then emit ()
    in
    emit ();
    !views
  end
  else begin
    let rng =
      match rng with Some r -> r | None -> Random.State.make [| 0x5eed |]
    in
    (* Sampled: the two extreme images plus random prefix vectors,
       deduplicated by content so RNG collisions (with each other or
       with the extremes) cannot silently shrink coverage; top up to
       [max_images] distinct states within a bounded retry budget. *)
    let seen = Hashtbl.create 64 in
    let out = ref [] in
    let n_out = ref 0 in
    let add v =
      let h = view_local_hash t v in
      if not (Hashtbl.mem seen h) then begin
        Hashtbl.replace seen h ();
        out := v :: !out;
        incr n_out
      end
    in
    add (build_view lines (List.map (fun _ -> 0) counts));
    add (build_view lines counts);
    let budget = ref (16 * max_images) in
    while !n_out < max_images && !budget > 0 do
      decr budget;
      add
        (build_view lines
           (List.map (fun c -> Random.State.int rng (c + 1)) counts))
    done;
    List.rev !out
  end

(* Faulty crash views: like [crash_views], but each dirty line may
   additionally be {e stuck} (all its in-flight updates lost, modelling a
   write-pending-queue failure at power loss) or {e torn} (the last
   applied record persists only partially, violating 8-byte atomicity —
   the media fault SSU reasoning cannot rule out). Samples are drawn from
   the fault plan's RNG, so the set is seed-deterministic. *)
let crash_views_faulty ?(max_images = 16) t =
  match t.faults with
  | None -> crash_views ~max_images t
  | Some st ->
      let plan = Faults.State.plan st in
      let rng = Faults.State.rng st in
      let lines = dirty_line_assoc t in
      if lines = [] then [ { v_recs = [] } ]
      else
        List.init max_images (fun _ ->
            let recs =
              List.concat_map
                (fun (_, recs) ->
                  match recs with
                  | [] -> []
                  | first :: _ ->
                      let base = first.off / line_size * line_size in
                      let n = List.length recs in
                      if
                        Random.State.float rng 1.0
                        < plan.Faults.Plan.stuck_line_rate
                      then begin
                        t.stats.stuck_lines <- t.stats.stuck_lines + 1;
                        ignore
                          (Faults.State.record st Faults.Trace.Stuck_line
                             ~off:base ~bit:0);
                        []
                      end
                      else begin
                        let k = Random.State.int rng (n + 1) in
                        let torn =
                          k > 0
                          && Random.State.float rng 1.0
                             < plan.Faults.Plan.torn_line_rate
                        in
                        let full = if torn then k - 1 else k in
                        let rec go i = function
                          | r :: rest when i < full -> r :: go (i + 1) rest
                          | r :: _ when torn && i = full ->
                              t.stats.torn_lines <- t.stats.torn_lines + 1;
                              ignore
                                (Faults.State.record st Faults.Trace.Torn_line
                                   ~off:r.off ~bit:0);
                              [
                                {
                                  r with
                                  data =
                                    String.sub r.data 0
                                      (String.length r.data / 2);
                                };
                              ]
                          | _ -> []
                        in
                        go 0 recs
                      end)
                lines
            in
            { v_recs = recs })

let materialize t (v : view) =
  let img = Sbuf.to_bytes t.durable in
  List.iter
    (fun r -> Bytes.blit_string r.data 0 img r.off (String.length r.data))
    v.v_recs;
  img

(* {1 Scratch API} *)

let scratch t =
  enable_content_hash t;
  (match t.attached with Some old -> scratch_forget old | None -> ());
  let s =
    {
      s_dev = t;
      s_buf = Sbuf.copy t.durable;
      s_gen = t.gen;
      s_patched = [];
      s_borrow = None;
    }
  in
  t.attached <- Some s;
  s

let apply_view s (v : view) =
  let t = s.s_dev in
  if s.s_gen <> t.gen || Sbuf.length s.s_buf <> t.size then begin
    (* Out of sync (e.g. the base mutated via [flip_bit], or the scratch
       was detached): rebuild wholesale. *)
    scratch_forget s;
    Sbuf.sync ~src:t.durable ~dst:s.s_buf;
    s.s_gen <- t.gen
  end
  else scratch_release s;
  List.iter
    (fun r ->
      let idx = r.off / line_size in
      if not (List.mem idx s.s_patched) then s.s_patched <- idx :: s.s_patched;
      Sbuf.blit_string r.data s.s_buf r.off)
    v.v_recs

let revert_view s =
  if s.s_gen = s.s_dev.gen then scratch_release s else scratch_forget s

let scratch_image s = Sbuf.to_bytes s.s_buf

let attached_scratch t = t.attached

(* {1 Retained views}

   The crash-view machinery above denotes {e pending} states (durable
   base + undrained store prefixes); a retained view denotes a {e past}
   durable state. Both share the same [view] representation: a retained
   view's records are the saved pre-image lines, applied onto whatever
   the durable base has since become, so [apply_view] / [view_hash] /
   [materialize] work on it unchanged — one engine, two producers. *)

let retain t =
  enable_content_hash t;
  let r =
    {
      r_saved = Hashtbl.create 64;
      r_hash = t.base_hash;
      r_size = t.size;
      r_dead = false;
    }
  in
  t.retained <- r :: List.filter (fun x -> not x.r_dead) t.retained;
  r

(* Resurrect a pin whose delta was persisted elsewhere (the [sqfs]
   sidecar path): a retained view whose capture hash and saved
   pre-image lines are supplied by the caller instead of captured live.
   Sound only if [saved] covers every line differing between the
   current durable image and the pinned one — callers must check
   [view_hash (view_of_retained t r) = hash] before trusting it. *)
let retain_at t ~hash ~saved =
  enable_content_hash t;
  let r =
    {
      r_saved = Hashtbl.create (max 64 (List.length saved));
      r_hash = hash;
      r_size = t.size;
      r_dead = false;
    }
  in
  List.iter (fun (idx, b) -> Hashtbl.replace r.r_saved idx (Bytes.copy b)) saved;
  t.retained <- r :: List.filter (fun x -> not x.r_dead) t.retained;
  r

let release t r =
  r.r_dead <- true;
  t.retained <- List.filter (fun x -> x != r) t.retained

let retained_hash r = r.r_hash
let retained_dead r = r.r_dead
let retained_line_count r = Hashtbl.length r.r_saved

(* Saved pre-image lines, ascending. The [Bytes.t] values are shared
   with other retained views — treat them as immutable. *)
let retained_saved r =
  Hashtbl.fold (fun idx b acc -> (idx, b) :: acc) r.r_saved []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

let view_of_retained t r =
  if r.r_dead then invalid_arg "Pmem.Device.view_of_retained: view released";
  if r.r_size <> t.size then
    invalid_arg "Pmem.Device.view_of_retained: wrong device";
  {
    v_recs =
      List.map
        (fun (idx, b) -> { off = idx * line_size; data = Bytes.to_string b })
        (retained_saved r);
  }

(* The pinned image as [(off, payload)] spans suitable for [of_spans]:
   the device's backed spans with the saved pre-image lines overlaid.
   Every line the pinned image backs is backed now too (backing only
   grows), so the span set is complete. *)
let retained_spans t r =
  if r.r_dead then invalid_arg "Pmem.Device.retained_spans: view released";
  List.map
    (fun (off, len) ->
      let b = Sbuf.sub t.durable ~off ~len in
      Hashtbl.iter
        (fun idx sb ->
          let loff = idx * line_size in
          let s = max off loff
          and e = min (off + len) (loff + Bytes.length sb) in
          if e > s then Bytes.blit sb (s - loff) b (s - off) (e - s))
        r.r_saved;
      (off, Bytes.to_string b))
    (backed_spans t)

(* {1 Pooled reuse}

   [reset] rewinds a device to the state of a fresh [of_image image]
   device without reallocating its buffers: reloading the durable image
   from [image] (backing its nonzero chunks) and syncing the visible one
   from it replaces [create] and the simulated mkfs that produced
   [image] in the first place. Everything observable —
   stats, clock, pending stores, fault machinery, hooks — is restored to
   the fresh state, so a pooled device is indistinguishable from a new
   one. The content-hash state is the one exception by default (it is
   dropped and lazily re-enabled, exactly like a fresh device); callers
   that reset to the same template many times pass [?hash] — computed
   once with [image_hash_state] — to skip rehashing the backed lines. *)

let image_hash_state image =
  let n = (Bytes.length image + line_size - 1) / line_size in
  let lh =
    Array.init n (fun idx ->
        let off = idx * line_size in
        let len = min line_size (Bytes.length image - off) in
        fnv_bytes (fnv_int fnv_offset idx) image ~off ~len)
  in
  (lh, Array.fold_left Int64.logxor 0L lh)

let reset ?hash t ~image =
  if Bytes.length image <> t.size then
    invalid_arg "Pmem.Device.reset: image size mismatch";
  Sbuf.load_bytes t.durable image;
  Sbuf.sync ~src:t.durable ~dst:t.latest;
  Hashtbl.reset t.lines;
  t.drain <- [];
  Stats.reset t.stats;
  t.now_ns <- 0;
  t.fence_hook <- None;
  t.in_fence <- false;
  t.faults <- None;
  t.ecc <- [||];
  t.gen <- t.gen + 1;
  t.taint <- None;
  (* Retained views pin the {e old} content; a wholesale reload cannot
     honour them, so they are invalidated rather than silently aliased. *)
  List.iter (fun r -> r.r_dead <- true) t.retained;
  t.retained <- [];
  t.tracer <- None;
  t.metrics <- None;
  (match hash with
  | Some (lh, base) ->
      if Array.length lh <> line_count t then
        invalid_arg "Pmem.Device.reset: hash state size mismatch";
      let tbl =
        match t.hlines with
        | Some tbl ->
            Hashtbl.clear tbl;
            tbl
        | None -> Hashtbl.create 1024
      in
      (* lines outside the backed chunks are zero in [image], so their
         entries in [lh] are the zero-line hash the table elides *)
      iter_backed_lines t.durable (fun idx ->
          let h = lh.(idx) in
          if not (Int64.equal h (zero_line_hash idx (snd (line_span t idx))))
          then Hashtbl.replace tbl idx h);
      t.hlines <- Some tbl;
      t.base_hash <- base
  | None ->
      t.hlines <- None;
      t.base_hash <- 0L);
  (* Keep the attached scratch (if any) mirroring the new base, so a
     pooled device's scratch survives resets without reallocation. *)
  match t.attached with
  | Some s ->
      scratch_forget s;
      Sbuf.sync ~src:t.durable ~dst:s.s_buf;
      s.s_gen <- t.gen
  | None -> ()

let of_view ?(latency = Latency.zero) s =
  (* Borrowed device: [latest] and [durable] alias the scratch buffer
     (zero copies), and every mutation records its line in the taint
     table so the owning scratch can revert it. The device is only
     meaningful for remount/check flows and only until the next
     [apply_view]/[revert_view]/[fence] on the owning scratch. *)
  (match s.s_borrow with
  | Some d ->
      (* fold the previous borrow's mutations into the patched set *)
      (match d.taint with
      | Some tbl ->
          Hashtbl.iter
            (fun idx () ->
              if not (List.mem idx s.s_patched) then
                s.s_patched <- idx :: s.s_patched)
            tbl
      | None -> ());
      d.taint <- None
  | None -> ());
  let d =
    assemble ~latency ~lines:64 ~taint:(Some (Hashtbl.create 64)) s.s_buf
      s.s_buf
  in
  s.s_borrow <- Some d;
  d

(* {1 Shared (multi-domain) mode}

   Off by default: every binding above runs lock-free and all existing
   behaviour (fuzzer determinism, crash-view enumeration, simulated
   timings) is untouched. The server layer flips [set_shared] after
   mount, and from then on the public entry points below — every call
   that mutates or reads the line table, the clock or the stats — run
   under the device's reentrant lock, so independent operations on
   separate domains can share one device. Fence hooks and crash-view
   enumeration are NOT supported in shared mode (the crash probers are
   single-domain by design); the server installs neither. *)

let with_lock t f =
  if not t.shared then f ()
  else begin
    let me = (Domain.self () :> int) in
    if t.rl.rl_owner = me then begin
      t.rl.rl_depth <- t.rl.rl_depth + 1;
      Fun.protect ~finally:(fun () -> t.rl.rl_depth <- t.rl.rl_depth - 1) f
    end
    else begin
      Mutex.lock t.rl.rl_m;
      t.rl.rl_owner <- me;
      t.rl.rl_depth <- 1;
      Fun.protect
        ~finally:(fun () ->
          t.rl.rl_depth <- 0;
          t.rl.rl_owner <- -1;
          Mutex.unlock t.rl.rl_m)
        f
    end
  end

let set_shared t b = t.shared <- b
let shared t = t.shared
let store t ~off data = with_lock t (fun () -> store t ~off data)
let store_u64 t off v = with_lock t (fun () -> store_u64 t off v)
let store_u32 t off v = with_lock t (fun () -> store_u32 t off v)
let store_byte t off v = with_lock t (fun () -> store_byte t off v)
let store_nt t ~off data = with_lock t (fun () -> store_nt t ~off data)
let store_coarse t ~off data = with_lock t (fun () -> store_coarse t ~off data)
let zero t ~off ~len = with_lock t (fun () -> zero t ~off ~len)
let flush t ~off ~len = with_lock t (fun () -> flush t ~off ~len)
let fence t = with_lock t (fun () -> fence t)
let persist t ~off ~len = with_lock t (fun () -> persist t ~off ~len)
let charge t ns = with_lock t (fun () -> charge t ns)
let read t ~off ~len = with_lock t (fun () -> read t ~off ~len)
let read_meta t ~off ~len = with_lock t (fun () -> read_meta t ~off ~len)
let read_u64 t off = with_lock t (fun () -> read_u64 t off)
let read_u32 t off = with_lock t (fun () -> read_u32 t off)
let read_byte t off = with_lock t (fun () -> read_byte t off)
let durable_hash t = with_lock t (fun () -> durable_hash t)
let retain t = with_lock t (fun () -> retain t)
let retain_at t ~hash ~saved = with_lock t (fun () -> retain_at t ~hash ~saved)
let release t r = with_lock t (fun () -> release t r)
let view_of_retained t r = with_lock t (fun () -> view_of_retained t r)
let retained_spans t r = with_lock t (fun () -> retained_spans t r)
