(** Crash-check reports: what one or more probed runs of the crash
    oracle ([Fuzzer.Exec.run]) counted and found. Reports merge
    associatively, so sequences, shards and enumeration tiers fold into
    one. *)

type violation = {
  v_op_index : int;
  v_op : Workload.op option;
  v_detail : string;
}

type report = {
  workloads : int;
  ops_run : int;
  fences_probed : int;
  crash_states : int;
  states_deduped : int;
      (** crash/media states whose content-determined verdict (recovery +
          fsck + capture) this run had already computed. Deduped states
          still count in [crash_states]/[media_states] and still get the
          per-occurrence oracle comparison. *)
  media_states : int;  (** faulty (torn/stuck) crash images checked *)
  faults_injected : int;  (** bit flips + torn + stuck + read faults *)
  faults_detected : int;  (** injected flips caught by checksum quarantine *)
  faults_quarantined : int;  (** objects quarantined across remounts *)
  eio_checks : int;  (** quarantined paths that correctly returned [EIO] *)
  violations : violation list;
}

val empty : report
val merge : report -> report -> report
val pp_report : Format.formatter -> report -> unit
