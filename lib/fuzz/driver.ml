(* The one fuzz sweep, and the random fuzzer built on it.

   [sweep] runs sequences [0 .. count-1] of a caller-given function from
   index to op list through {!Exec.run}: the random fuzzer's sequences
   come from [Gen.sequence], [Enum]'s from its enumeration order. Each
   primary run that fails is shrunk; with [~traced] every primary run also
   records its store/flush/fence stream for {!Obs.Ssu.check}. Nothing in
   the library reads the wall clock for a report, so the arguments fully
   determine it. *)

module W = Crashcheck.Workload
module H = Crashcheck.Harness
module I64Set = Set.Make (Int64)

type cfg = {
  seed : int;
  iters : int;
  op_budget : int;
  buggy_rate : float;  (** probability an op slot emits a [Buggy_*] mutant *)
  max_images : int;
      (** crash images per fence of a mutant-free sequence; one that holds
          a mutant op probes {!Exec.exhaustive_images_per_fence} *)
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
    device_size = 256 * 1024;
    faults = Faults.none;
    latency = None;
    shrink = true;
    collect_metrics = false;
  }

type found = {
  fd_iter : int;  (** sweep index: fuzz iteration or enumeration position *)
  fd_ops : W.op list;  (** original failing sequence *)
  fd_min : W.op list;  (** shrunk reproducer *)
  fd_crash : Exec.crash_point;  (** crash point in the shrunk sequence *)
  fd_detail : string;
  fd_shrink_runs : int;
}

type ssu_found = {
  sf_iter : int;  (** sweep index of the offending sequence *)
  sf_ops : W.op list;  (** the full sequence *)
  sf_event : int;  (** index of the offending event in the trace *)
  sf_detail : string;
}

(* {2 The sweep}

   Domains claim one index at a time from a shared atomic cursor, so a
   sequence that pays for shrinking (dozens of re-executions) never
   strands the others idle behind a static stripe; a sequence costs far
   more than the claim. Each domain owns one {!Exec.Pool} (device,
   scratch buffer and verdict memo, reused across every run it makes) and
   folds its outcomes into one [shard].

   Determinism: a sequence depends only on its index, never on which
   domain claimed it, so the domains together run exactly the [-j 1]
   work. [merge] is associative and commutative on everything but list
   order, and [canonicalize] sorts the lists, so the merged shard is
   identical at every [jobs]. The memo a domain carries only skips
   recomputing content-determined verdicts, and the dedup counters are
   run-local in [Exec], so no count depends on the partition. Only the
   primary run of a sequence adds a state signature: shrink re-runs
   would make the distinct count depend on who found what. *)

type shard = {
  s_harness : H.report;  (** every run, shrink re-runs included *)
  s_divergences : int;
  s_sim_ns : int;
  s_shrink_runs : int;
  s_executed : int;  (** primary runs *)
  s_ssu_checked : int;  (** primary runs whose trace went through {!Obs.Ssu} *)
  s_sigs : I64Set.t;  (** crash-state-trace signatures of the primary runs *)
  s_found : found list;
  s_ssu_found : ssu_found list;
  s_metrics : Obs.Metrics.t option;  (** present iff [cfg.collect_metrics] *)
}

let merge a b =
  {
    s_harness = H.merge a.s_harness b.s_harness;
    s_divergences = a.s_divergences + b.s_divergences;
    s_sim_ns = a.s_sim_ns + b.s_sim_ns;
    s_shrink_runs = a.s_shrink_runs + b.s_shrink_runs;
    s_executed = a.s_executed + b.s_executed;
    s_ssu_checked = a.s_ssu_checked + b.s_ssu_checked;
    s_sigs = I64Set.union a.s_sigs b.s_sigs;
    s_found = a.s_found @ b.s_found;
    s_ssu_found = a.s_ssu_found @ b.s_ssu_found;
    s_metrics =
      (match (a.s_metrics, b.s_metrics) with
      | Some ma, Some mb -> Some (Obs.Metrics.merge ma mb)
      | m, None | None, m -> m);
  }

let canonicalize s =
  {
    s with
    s_found = List.sort (fun a b -> compare a.fd_iter b.fd_iter) s.s_found;
    s_ssu_found = List.sort (fun a b -> compare a.sf_iter b.sf_iter) s.s_ssu_found;
    s_harness = { s.s_harness with H.violations = List.sort compare s.s_harness.H.violations };
  }

(* One domain's share: claims indexes from [next] until it runs dry. *)
let run_shard ~traced cfg ~next seq =
  let pool = Exec.Pool.create () in
  let metrics = if cfg.collect_metrics then Some (Obs.Metrics.create ()) else None in
  let s =
    ref
      { s_harness = H.empty; s_divergences = 0; s_sim_ns = 0; s_shrink_runs = 0;
        s_executed = 0; s_ssu_checked = 0; s_sigs = I64Set.empty; s_found = [];
        s_ssu_found = []; s_metrics = metrics }
  in
  (* shrinker re-executions are accounted like any other run *)
  let exec ?trace ops =
    let o =
      Exec.run ~device_size:cfg.device_size
        ~max_images_per_fence:(Exec.images_per_fence ~default:cfg.max_images ops)
        ~faults:cfg.faults ?latency:cfg.latency ~pool ?metrics ?trace ops
    in
    s :=
      { !s with
        s_harness = H.merge !s.s_harness o.Exec.o_report;
        s_divergences = !s.s_divergences + o.Exec.o_divergences;
        s_sim_ns = !s.s_sim_ns + o.Exec.o_sim_ns };
    o
  in
  let rec loop () =
    match next () with
    | None -> !s
    | Some i ->
        let ops = seq i in
        let trace = if traced then Some (Obs.Recorder.create ()) else None in
        let o = exec ?trace ops in
        s :=
          { !s with
            s_executed = !s.s_executed + 1;
            s_sigs = I64Set.add o.Exec.o_state_sig !s.s_sigs };
        (match o.Exec.o_fail with
        | None -> ()
        | Some ((cp, detail) as fail) ->
            let min_ops, det, mcp, sruns =
              if cfg.shrink then Shrink.reproduce ~exec ops fail
              else (ops, detail, cp, 0)
            in
            s :=
              { !s with
                s_shrink_runs = !s.s_shrink_runs + sruns;
                s_found =
                  { fd_iter = i; fd_ops = ops; fd_min = min_ops; fd_crash = mcp;
                    fd_detail = det; fd_shrink_runs = sruns }
                  :: !s.s_found });
        (match trace with
        | None -> ()
        | Some r ->
            s := { !s with s_ssu_checked = !s.s_ssu_checked + 1 };
            (match Obs.Ssu.check (Obs.Recorder.to_list r) with
            | Ok () -> ()
            | Error v ->
                s :=
                  { !s with
                    s_ssu_found =
                      { sf_iter = i; sf_ops = ops; sf_event = v.Obs.Ssu.v_index;
                        sf_detail = Format.asprintf "%a" Obs.Ssu.pp_violation v }
                      :: !s.s_ssu_found }));
        loop ()
  in
  loop ()

type shard_stat = {
  ss_shard : int;  (** 0 = the calling domain *)
  ss_iters : int;  (** sequences this domain claimed *)
  ss_wall_s : float;  (** wall-clock seconds of its loop (side band only) *)
}

let pp_shard_stats ppf stats =
  Format.fprintf ppf "shard  iters   wall_s";
  List.iter
    (fun s -> Format.fprintf ppf "@.%5d  %5d  %7.3f" s.ss_shard s.ss_iters s.ss_wall_s)
    stats

(* [sweep ~jobs ~traced cfg count seq]: the canonical shard over
   sequences [seq 0 .. seq (count-1)], plus one stat per domain. [jobs] is
   clamped to [count], so no domain is spawned without work; the calling
   domain is shard 0. *)
let sweep ~jobs ~traced cfg count seq =
  if jobs < 1 then invalid_arg "Fuzzer.sweep: jobs < 1";
  let jobs = min jobs (max 1 count) in
  let cursor = Atomic.make 0 in
  let next () =
    let i = Atomic.fetch_and_add cursor 1 in
    if i < count then Some i else None
  in
  let worker k =
    let t0 = Unix.gettimeofday () in
    let s = run_shard ~traced cfg ~next seq in
    (s, { ss_shard = k; ss_iters = s.s_executed; ss_wall_s = Unix.gettimeofday () -. t0 })
  in
  let others = List.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1))) in
  let s0, st0 = worker 0 in
  let rest = List.map Domain.join others in
  (canonicalize (List.fold_left (fun acc (s, _) -> merge acc s) s0 rest), st0 :: List.map snd rest)

(* {2 The random fuzzer} *)

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

(* Iteration [i] runs the sequence seeded by (0x5EED, seed, i), untraced,
   so the report is the same at every [jobs] (default 1). *)
let run_stats ?(jobs = 1) cfg =
  let seq i =
    Gen.sequence
      (Random.State.make [| 0x5EED; cfg.seed; i |])
      { Gen.op_budget = cfg.op_budget; buggy_rate = cfg.buggy_rate }
  in
  let s, stats = sweep ~jobs ~traced:false cfg cfg.iters seq in
  ( {
      r_seed = cfg.seed;
      r_iters = cfg.iters;
      r_op_budget = cfg.op_budget;
      r_harness = s.s_harness;
      r_divergences = s.s_divergences;
      r_shrink_runs = s.s_shrink_runs;
      r_sim_ns = s.s_sim_ns;
      r_found = s.s_found;
      r_metrics = s.s_metrics;
    },
    stats )

let run ?jobs cfg = fst (run_stats ?jobs cfg)

(* {2 The mutant account: every --expect-buggy leg's acceptance test}

   One row per mutant kind, whichever leg filled it: the random fuzzer
   and [Enum] from their shrunk reproducers ([account]), [Interleave]
   from its mutant pairs' verdicts. *)

type buggy_kind = W.buggy_kind

let all_buggy_kinds = W.all_buggy_kinds
let buggy_kind_name = W.buggy_kind_name
let buggy_kind_of_op = W.buggy_kind_of_op

type verdict = {
  k_kind : buggy_kind;
  k_oracle : bool;  (** the crash oracle flagged it *)
  k_trace : bool;  (** the SSU trace checker flagged it *)
}

type account = {
  a_rows : verdict list;  (** one per kind, in [all_buggy_kinds] order *)
  a_faults : string list;  (** reproducers that break the leg's rules *)
}

let account_ok a = a.a_faults = [] && List.for_all (fun v -> v.k_oracle && v.k_trace) a.a_rows

(* Kinds are read off the shrunk reproducers: a mutant op the shrinker
   could remove would mean the violation did not come from it, so a
   reproducer that holds none, or runs past the leg's [bound], fails the
   leg. The oracle flagged a kind if a reproducer holds it; the trace
   checker flagged it if {!Obs.Ssu} rejects the traced re-run of such a
   reproducer under [cfg] (tracing never perturbs a run, so the re-run
   replays what the sweep saw). A reproducer is re-run only while it
   holds a kind the trace checker has not been credited with yet. *)
let account ~bound cfg (found : found list) =
  let kinds f = List.filter_map buggy_kind_of_op f.fd_min in
  let faults =
    List.filter_map
      (fun f ->
        let n = List.length f.fd_min in
        if n > bound then
          Some (Printf.sprintf "reproducer of %d ops exceeds the %d-op bound" n bound)
        else if kinds f = [] then
          Some ("mutant-free reproducer failed the oracle: " ^ f.fd_detail)
        else None)
      found
  in
  let held = List.filter (fun f -> List.length f.fd_min <= bound) found in
  let rejected ops =
    let trace = Obs.Recorder.create () in
    ignore
      (Exec.run ~device_size:cfg.device_size
         ~max_images_per_fence:(Exec.images_per_fence ~default:cfg.max_images ops)
         ~faults:cfg.faults ?latency:cfg.latency ~trace ops);
    Result.is_error (Obs.Ssu.check (Obs.Recorder.to_list trace))
  in
  let traced =
    List.fold_left
      (fun credited f ->
        let fresh = List.filter (fun k -> not (List.mem k credited)) (kinds f) in
        if fresh <> [] && rejected f.fd_min then fresh @ credited else credited)
      [] held
  in
  {
    a_rows =
      List.map
        (fun k ->
          { k_kind = k;
            k_oracle = List.exists (fun f -> List.mem k (kinds f)) held;
            k_trace = List.mem k traced })
        all_buggy_kinds;
    a_faults = faults;
  }

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
