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
  media_states : int;
  faults_injected : int;
  faults_detected : int;
  faults_quarantined : int;
  eio_checks : int;
  violations : violation list;
}

let empty =
  {
    workloads = 0;
    ops_run = 0;
    fences_probed = 0;
    crash_states = 0;
    states_deduped = 0;
    media_states = 0;
    faults_injected = 0;
    faults_detected = 0;
    faults_quarantined = 0;
    eio_checks = 0;
    violations = [];
  }

let merge a b =
  {
    workloads = a.workloads + b.workloads;
    ops_run = a.ops_run + b.ops_run;
    fences_probed = a.fences_probed + b.fences_probed;
    crash_states = a.crash_states + b.crash_states;
    states_deduped = a.states_deduped + b.states_deduped;
    media_states = a.media_states + b.media_states;
    faults_injected = a.faults_injected + b.faults_injected;
    faults_detected = a.faults_detected + b.faults_detected;
    faults_quarantined = a.faults_quarantined + b.faults_quarantined;
    eio_checks = a.eio_checks + b.eio_checks;
    violations = a.violations @ b.violations;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "workloads=%d ops=%d fences=%d crash-states=%d deduped=%d violations=%d"
    r.workloads r.ops_run r.fences_probed r.crash_states r.states_deduped
    (List.length r.violations);
  if
    r.media_states + r.faults_injected + r.faults_detected
    + r.faults_quarantined + r.eio_checks
    > 0
  then
    Format.fprintf ppf
      "@.faults: media-states=%d injected=%d detected=%d quarantined=%d \
       eio-checks=%d"
      r.media_states r.faults_injected r.faults_detected r.faults_quarantined
      r.eio_checks;
  List.iteri
    (fun i v ->
      if i < 10 then
        Format.fprintf ppf "@.  [op %d%s] %s" v.v_op_index
          (match v.v_op with
          | Some op -> Format.asprintf " %a" Workload.pp_op op
          | None -> "")
          v.v_detail)
    r.violations
