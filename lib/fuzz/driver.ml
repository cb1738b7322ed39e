(* Top-level fuzzing loop: generate → execute → (on failure) shrink →
   emit reproducer. Every iteration reseeds its own [Random.State] from
   (seed, iteration), and nothing in the library reads the wall clock, so
   a (cfg) value fully determines the report. *)

module W = Crashcheck.Workload
module H = Crashcheck.Harness

type cfg = {
  seed : int;
  iters : int;
  op_budget : int;
  buggy_rate : float;  (** probability an op slot emits a [Buggy_*] mutant *)
  max_images : int;
  media_images : int;
  device_size : int;
  faults : Faults.Plan.t;
  latency : Pmem.Latency.t option;
  shrink : bool;
  collect_metrics : bool;
      (** collect an {!Obs.Metrics.t} registry (op latencies, device and
          token traffic) across the run; off by default — reports are
          bit-identical either way, metrics ride alongside *)
}

let default_cfg =
  {
    seed = 1;
    iters = 50;
    op_budget = 8;
    buggy_rate = 0.15;
    max_images = 8;
    media_images = 4;
    device_size = 256 * 1024;
    faults = Faults.none;
    latency = None;
    shrink = true;
    collect_metrics = false;
  }

type found = {
  fd_iter : int;
  fd_ops : W.op list;  (** original failing sequence *)
  fd_min : W.op list;  (** shrunk reproducer *)
  fd_crash : Exec.crash_point;  (** crash point in the shrunk sequence *)
  fd_detail : string;
  fd_shrink_runs : int;
}

type report = {
  r_seed : int;
  r_iters : int;
  r_op_budget : int;
  r_harness : H.report;  (** merged across all executions of the loop *)
  r_divergences : int;
  r_shrink_runs : int;
  r_sim_ns : int;
  r_found : found list;
  r_metrics : Obs.Metrics.t option;
      (** present iff [cfg.collect_metrics]; shards merge associatively *)
}

let exec ?pool ?metrics cfg ops =
  Exec.run ~device_size:cfg.device_size
    ~max_images_per_fence:cfg.max_images
    ~media_images_per_fence:cfg.media_images ~faults:cfg.faults ?latency:cfg.latency
    ?pool ?metrics ops

(* Scheduler-driven core: [next] hands out iteration indexes (a plain
   counter for the sequential [run] below, chunks claimed from a shared
   atomic cursor in [Parallel]); every iteration still reseeds from
   (0x5EED, seed, iter), so the set of indexes [next] yields — never who
   yields them or in what order — determines the report. Each call owns
   one {!Exec.Pool}: the device, scratch buffer and verdict memo
   are reused across every iteration (and shrinker re-execution) this
   call runs, which is what makes handing out small chunks cheap. *)
let run_sched ?on_iter_start ?on_iter_done ~next cfg =
  let pool = Exec.Pool.create () in
  let metrics = if cfg.collect_metrics then Some (Obs.Metrics.create ()) else None in
  let harness = ref H.empty in
  let divergences = ref 0 and sim_ns = ref 0 and shrink_runs = ref 0 in
  let found = ref [] in
  let account (o : Exec.outcome) =
    harness := H.merge !harness o.Exec.o_report;
    divergences := !divergences + o.Exec.o_divergences;
    sim_ns := !sim_ns + o.Exec.o_sim_ns
  in
  (* shrinker re-executions accounted like any other run *)
  let exec_acc ops =
    let o = exec ~pool ?metrics cfg ops in
    account o;
    o
  in
  let continue = ref true in
  while !continue do
   match next () with
   | None -> continue := false
   | Some iter ->
    (match on_iter_start with Some f -> f iter | None -> ());
    let rng = Random.State.make [| 0x5EED; cfg.seed; iter |] in
    let ops = Gen.sequence rng { Gen.op_budget = cfg.op_budget; buggy_rate = cfg.buggy_rate } in
    let res = exec_acc ops in
    (match res.Exec.o_fail with
    | None -> ()
    | Some ((cp, detail) as fail) ->
        let min_ops, det, mcp, sruns =
          if cfg.shrink then Shrink.reproduce ~exec:exec_acc ops fail else (ops, detail, cp, 0)
        in
        shrink_runs := !shrink_runs + sruns;
        found :=
          {
            fd_iter = iter;
            fd_ops = ops;
            fd_min = min_ops;
            fd_crash = mcp;
            fd_detail = det;
            fd_shrink_runs = sruns;
          }
          :: !found);
    (match on_iter_done with Some f -> f iter | None -> ())
  done;
  {
    r_seed = cfg.seed;
    r_iters = cfg.iters;
    r_op_budget = cfg.op_budget;
    r_harness = !harness;
    r_divergences = !divergences;
    r_shrink_runs = !shrink_runs;
    r_sim_ns = !sim_ns;
    r_found = List.rev !found;
    r_metrics = metrics;
  }

(* [iter_offset]/[iter_stride] statically shard the iteration space:
   the shard owns iterations {iter_offset, iter_offset + iter_stride,
   ...} < cfg.iters. Kept as the simple sequential entry point (and for
   static-sharding comparisons); the domain-parallel runner schedules
   through [run_sched] directly. [progress] keeps its historical
   pre-iteration (iter, total) semantics. *)
let run ?progress ?(iter_offset = 0) ?(iter_stride = 1) cfg =
  if iter_stride < 1 then invalid_arg "Fuzzer.run: iter_stride < 1";
  let next_iter = ref iter_offset in
  let next () =
    if !next_iter < cfg.iters then begin
      let v = !next_iter in
      next_iter := v + iter_stride;
      Some v
    end
    else None
  in
  run_sched
    ?on_iter_start:
      (Option.map (fun f -> fun iter -> f iter cfg.iters) progress)
    ~next cfg

(* {2 Buggy-mutant accounting: the fuzzer's own acceptance test} *)

type buggy_kind = [ `Create | `Unlink | `Write ]

let buggy_kind_name = function
  | `Create -> "create"
  | `Unlink -> "unlink"
  | `Write -> "write"

let all_buggy_kinds : buggy_kind list = [ `Create; `Unlink; `Write ]

let buggy_kind_of_op : W.op -> buggy_kind option = function
  | W.Buggy_create _ -> Some `Create
  | W.Buggy_unlink _ -> Some `Unlink
  | W.Buggy_write _ -> Some `Write
  | _ -> None

(* Kinds are read off the *shrunk* reproducers: a buggy op the shrinker
   could remove would mean the violation did not come from it. *)
let kinds_found r =
  List.sort_uniq compare
    (List.concat_map (fun f -> List.filter_map buggy_kind_of_op f.fd_min) r.r_found)

let states_per_sim_sec r =
  if r.r_sim_ns = 0 then None
  else Some (float_of_int r.r_harness.H.crash_states *. 1e9 /. float_of_int r.r_sim_ns)

let pp_report ppf r =
  Format.fprintf ppf "fuzz: seed=%d iters=%d op-budget=%d@.%a@."
    r.r_seed r.r_iters r.r_op_budget H.pp_report r.r_harness;
  Format.fprintf ppf "capacity-divergences=%d shrink-runs=%d sim-time=%.3f ms"
    r.r_divergences r.r_shrink_runs
    (float_of_int r.r_sim_ns /. 1e6);
  (match states_per_sim_sec r with
  | Some s -> Format.fprintf ppf " crash-states/sim-sec=%.0f" s
  | None -> ());
  List.iter
    (fun f ->
      Format.fprintf ppf
        "@.FOUND (iter %d, %d ops shrunk to %d, crash at op %d / fence %d / \
         image %d, %d shrink runs):@.  detail: %s@.  ops:%a@.  ocaml: %s@.  \
         cli:   --replay \"%s\""
        f.fd_iter (List.length f.fd_ops) (List.length f.fd_min) f.fd_crash.Exec.cp_op
        f.fd_crash.Exec.cp_fence f.fd_crash.Exec.cp_image f.fd_shrink_runs f.fd_detail
        W.pp f.fd_min (Repro.to_ocaml f.fd_min) (Repro.to_cli f.fd_min))
    r.r_found;
  match r.r_metrics with
  | None -> ()
  | Some m ->
      Format.fprintf ppf "@.metrics:@.%a@.%a" Obs.Metrics.pp m
        Obs.Metrics.pp_datapath m

let report_to_string r = Format.asprintf "%a" pp_report r
