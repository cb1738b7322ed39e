(** Differential crash-state executor: one op sequence run against
    SquirrelFS on a simulated PM device and against {!Ref_fs}
    simultaneously, with crash-image enumeration + remount + [Fsck] +
    prefix-consistency checking at every persist point.

    {!run} and {!run_with} are two ways ops run inside one crash-checked
    run body: a formatted device from the {!Pool} (or a fresh one) is
    mounted and observed, every fence is probed, and the run closes with
    the quiescent data-comparing probe and a live fsck. *)

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
          (charged from the template's clock, after mkfs and any setup
          ops, so the value is identical whether the device was fresh or
          pooled) *)
  o_state_sig : int64;
      (** deterministic fingerprint of the sequence's full crash-state
          trace: an FNV-1a-style fold of every probed crash image's
          content hash, in order. A function of (ops, config) only —
          independent of pooling, memo state and domain placement — so
          {!Enum} counts duplicate sequences with it order-independently
          across [-j] shards. *)
}

(** Per-domain resource pool: one formatted device (template-blit reset
    between runs instead of allocate + mkfs, and setup ops replayed once
    for {!run_with}'s template), its scratch buffer, and the crash-state
    prober's verdict memo, all carried across the runs that share the
    pool. Pooling is invisible in outcomes: reports,
    [states_deduped] and [o_sim_ns] are bit-identical with and without a
    pool. A pool holds one template; a run with another configuration
    replaces it and clears the memo. A pool is single-domain state —
    share one per domain/shard, never across domains. *)
module Pool : sig
  type t

  val create : unit -> t
end

val exhaustive_images_per_fence : int
(** The crash images per fence a sequence holding a [Buggy_*] op probes
    (64), and [Interleave]'s serial legs too: a fence with at most this
    many legal crash states has every one probed, not a sample. *)

val images_per_fence : ?default:int -> Crashcheck.Workload.op list -> int
(** The one image budget rule: {!exhaustive_images_per_fence} for a
    sequence that holds a [Buggy_*] op, [default] (8) for any other. *)

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
(** The sequential differential run: each op against SquirrelFS and
    {!Ref_fs} in turn. A crash view must recover to the model's state
    before or after the op under way, file contents aside (plain data
    writes are not crash-atomic), and return values must agree.

    Defaults: 256 KiB device, [images_per_fence ops] crash images per
    fence, [Faults.none], zero latency, no pool (fresh device + mkfs per
    call). [?trace] records the workload's store/flush/fence stream
    (opened with a geometry + durable-state preamble, see
    {!Squirrelfs.Tracing}); [?metrics] counts device and token traffic
    and op latencies. Neither perturbs the outcome: a traced run is
    bit-identical to an untraced one. With a non-trivial [?faults] plan
    the volume is formatted [~csum:true], the plan is installed, and with
    a torn or stuck line rate up to 4 torn/stuck media images per fence
    (from [crash_views_faulty]) get the graceful-handling check on top of
    the pure crash images. With [bit_flips > 0] a sequence that passed
    ends with Phase B: seeded flips in up to [bit_flips] committed inode
    records, then scrub, degraded remount, quarantine and [EIO] checks,
    which fill [faults_detected], [faults_quarantined] and [eio_checks]
    ([o_sim_ns] is read before it). Fully deterministic for fixed
    arguments. *)

val run_with :
  max_images_per_fence:int ->
  pool:Pool.t ->
  setup:Crashcheck.Workload.op list ->
  trace:Obs.Recorder.t ->
  legal:Vfs.Logical.t list ->
  final:Vfs.Logical.t ->
  (Squirrelfs.Fsctx.t -> unit) ->
  outcome
(** The same crash-checked run as {!run}, with the caller's scheduler
    in place of the sequential loop: on a 256 KiB volume formatted, put
    through [setup] and cleanly unmounted (the pool's template, so the
    setup runs once per pool), the scheduler runs its ops on the mounted
    volume while [trace] records them. Every fence probes up to
    [max_images_per_fence] crash views ({!images_per_fence} of the ops
    the scheduler runs), each of which must recover to one of [legal];
    the quiescent volume must then equal [final] exactly, file contents
    included, and pass a live fsck. Return values are the caller's to
    check: [o_divergences] and the report's [ops_run] stay 0. *)
