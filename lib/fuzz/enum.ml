(* Bounded black-box enumeration (the B3/ACE idea, specialized to
   SquirrelFS): instead of sampling random sequences like [Driver], walk
   {e every} bounded op sequence over a small canonical universe — seq-2
   exhaustively, seq-3 behind a principled frontier — and run the full
   crash oracle plus the SSU trace checker at every fence of every
   sequence. The universe is [Workload.setup] (2 dirs x 2 files worth of
   namespace once the ops run) with [Workload.alphabet] as the op set,
   so [Workload.systematic_pairs] is literally this module's seq-2 tier.

   Everything up to execution is pure arithmetic on [Ref_fs] models, so
   the coverage accounting is closed-form and must reconcile exactly:

     total(d) = n^d
     enumerated(d) = total(d) - skipped_infeasible(d) - skipped_frontier(d)

   Skip rules (and why they are sound):

   - {e infeasible prefix} (exact): a sequence is skipped iff some op
     before its last fails on the post-setup [Ref_fs] model. A refused
     op performs no durable stores and no fences (resolution/validation
     errors return before any allocation is published; volatile cleanup
     does not touch the device), so the sequence's crash-state set is
     identical to that of the same sequence with the failing op removed
     — which is a shorter sequence the sweep already covers. Failures
     of the {e last} op are not skipped: the final-state probe after a
     refused op is a real test (refusal must be durable-state neutral).
   - {e frontier} (seq-3 only, heuristic by design): the third op must
     be {e related} to the first two — sharing a direct target, or in a
     strict ancestor/descendant relation with one ([Interleave.targets]
     / [Interleave.strict_ancestor]; deliberately {e not} the
     parent-expanded [Interleave.touched], which would relate every
     root-level op through "/"). This is ACE's relatedness restriction:
     an unrelated third op commutes with the prefix at the logical
     level, so its crash behaviour is already exercised by the seq-2
     tiers containing it. Frontier skips are accounted separately from
     infeasible skips because they are a pruning {e policy}, not an
     equivalence.

   Dedup is counted, never acted on: every enumerated sequence runs the
   full oracle (the content-hash memo inside [Exec] only skips
   recomputation of content-determined verdicts; legality/prefix
   consistency is re-checked per occurrence). The dedup {e count} is
   derived from [Exec.outcome.o_state_sig] — a deterministic fingerprint
   of the sequence's crash-state trace — collected into a set and merged
   across shards by union, so [-j N] reports are bit-identical to
   [-j 1]. *)

module W = Crashcheck.Workload
module H = Crashcheck.Harness
module I64Set = Set.Make (Int64)

type cfg = {
  depth : int;  (** 2 = seq-1 + seq-2 (complete); 3 adds the frontier tier *)
  buggy : bool;  (** widen the alphabet with the three [Buggy_*] mutants *)
  ssu : bool;  (** trace every sequence and run {!Obs.Ssu.check} on it *)
  max_images : int;
  device_size : int;
  shrink : bool;
}

let default_cfg =
  { depth = 2; buggy = false; ssu = true; max_images = 8;
    device_size = 256 * 1024; shrink = true }

(* Mutant extension of the canonical alphabet: one representative per
   [Buggy_*] kind, phrased on the same universe. [Buggy_create] targets a
   fresh name ("/NB") because its bug only manifests with a prior create
   in the history — which the setup prefix provides. *)
let buggy_ops =
  [ W.Buggy_create "/NB"; W.Buggy_unlink "/A"; W.Buggy_write ("/A", String.make 64 'z') ]

let alphabet cfg = if cfg.buggy then W.alphabet @ buggy_ops else W.alphabet

(* {2 Coverage accounting} *)

type tier = {
  t_depth : int;
  t_total : int;  (** closed form: |alphabet|^depth *)
  t_skipped : int;  (** infeasible-prefix skips (exact equivalence) *)
  t_frontier : int;  (** relatedness-pruned (seq-3 policy skips) *)
  t_enumerated : int;  (** sequences handed to the executor *)
}

type found = {
  fd_index : int;  (** position in the deterministic enumeration order *)
  fd_ops : W.op list;  (** full failing sequence (setup included) *)
  fd_min : W.op list;  (** shrunk reproducer *)
  fd_crash : Exec.crash_point;
  fd_detail : string;
  fd_shrink_runs : int;
}

type ssu_found = {
  sf_index : int;  (** enumeration index of the offending sequence *)
  sf_ops : W.op list;  (** full sequence (setup included) *)
  sf_event : int;  (** index of the offending event in the trace *)
  sf_detail : string;
}

type report = {
  e_alphabet : int;
  e_depth : int;
  e_tiers : tier list;
  e_total : int;
  e_skipped : int;
  e_frontier : int;
  e_enumerated : int;
  e_executed : int;  (** primary runs performed; must equal [e_enumerated] *)
  e_distinct : int;  (** distinct crash-state-trace signatures *)
  e_deduped : int;  (** [e_executed - e_distinct] *)
  e_ssu_checked : int;  (** sequences whose trace ran through {!Obs.Ssu} *)
  e_harness : H.report;
  e_divergences : int;
  e_shrink_runs : int;
  e_sim_ns : int;
  e_found : found list;
  e_ssu_found : ssu_found list;
}

let reconciles r =
  let tiers_ok =
    List.for_all (fun t -> t.t_total = t.t_skipped + t.t_frontier + t.t_enumerated) r.e_tiers
  in
  let sum f = List.fold_left (fun a t -> a + f t) 0 r.e_tiers in
  tiers_ok
  && r.e_total = sum (fun t -> t.t_total)
  && r.e_skipped = sum (fun t -> t.t_skipped)
  && r.e_frontier = sum (fun t -> t.t_frontier)
  && r.e_enumerated = sum (fun t -> t.t_enumerated)
  && r.e_total = r.e_skipped + r.e_frontier + r.e_enumerated
  && r.e_executed = r.e_enumerated
  && r.e_deduped = r.e_executed - r.e_distinct
  && r.e_distinct >= 0 && r.e_deduped >= 0
  && (not (r.e_ssu_checked > 0) || r.e_ssu_checked = r.e_executed)

(* {2 Universe construction (pure; identical in every shard)} *)

let apply_exn m op =
  let m', r = Ref_fs.apply m op in
  match r with
  | Ok () -> m'
  | Error e ->
      failwith
        (Format.asprintf "Enum: setup op %a refused (%s)" W.pp_op op (Vfs.Errno.to_string e))

let model0 () = List.fold_left apply_exn Ref_fs.empty W.setup

(* Third-op relatedness for the seq-3 frontier: direct targets only. *)
let related prefix_targets op =
  let ts = Interleave.targets op in
  List.exists
    (fun t ->
      List.exists
        (fun p -> t = p || Interleave.strict_ancestor t p || Interleave.strict_ancestor p t)
        prefix_targets)
    ts

(* Build the deterministic work list: tiers in depth order, sequences in
   lexicographic alphabet-index order within each tier. Returns the
   closed-form tier accounts alongside; [build] is pure, so every shard
   (and every [-j]) sees the identical array. *)
let build cfg =
  let ops = Array.of_list (alphabet cfg) in
  let n = Array.length ops in
  let m0 = model0 () in
  let eff1 = Array.map (fun op -> Ref_fs.apply m0 op) ops in
  let ok1 i = Result.is_ok (snd eff1.(i)) in
  let work = ref [] in
  let push seq = work := seq :: !work in
  (* seq-1: every singleton runs (a refused op is itself under test). *)
  for i = 0 to n - 1 do
    push [ ops.(i) ]
  done;
  let tier1 = { t_depth = 1; t_total = n; t_skipped = 0; t_frontier = 0; t_enumerated = n } in
  (* seq-2: complete modulo the exact infeasible-prefix rule. *)
  let skip2 = ref 0 in
  for i = 0 to n - 1 do
    if ok1 i then
      for j = 0 to n - 1 do
        push [ ops.(i); ops.(j) ]
      done
    else skip2 := !skip2 + n
  done;
  let tier2 =
    { t_depth = 2; t_total = n * n; t_skipped = !skip2; t_frontier = 0;
      t_enumerated = (n * n) - !skip2 }
  in
  let tiers = ref [ tier1; tier2 ] in
  (* seq-3: effective prefixes only, third op gated by relatedness. *)
  if cfg.depth >= 3 then begin
    let skip3 = ref 0 and frontier3 = ref 0 and enum3 = ref 0 in
    for i = 0 to n - 1 do
      if not (ok1 i) then skip3 := !skip3 + (n * n)
      else
        let mi = fst eff1.(i) in
        for j = 0 to n - 1 do
          let _, rj = Ref_fs.apply mi ops.(j) in
          if Result.is_error rj then skip3 := !skip3 + n
          else begin
            let pre = Interleave.targets ops.(i) @ Interleave.targets ops.(j) in
            for k = 0 to n - 1 do
              if related pre ops.(k) then begin
                push [ ops.(i); ops.(j); ops.(k) ];
                incr enum3
              end
              else incr frontier3
            done
          end
        done
    done;
    tiers :=
      !tiers
      @ [ { t_depth = 3; t_total = n * n * n; t_skipped = !skip3; t_frontier = !frontier3;
            t_enumerated = !enum3 } ]
  end;
  (!tiers, Array.of_list (List.rev !work))

(* {2 Execution} *)

type shard = {
  s_harness : H.report;
  s_divergences : int;
  s_sim_ns : int;
  s_shrink_runs : int;
  s_executed : int;
  s_ssu_checked : int;
  s_sigs : I64Set.t;
  s_found : found list;
  s_ssu_found : ssu_found list;
}

let shard_empty =
  { s_harness = H.empty; s_divergences = 0; s_sim_ns = 0; s_shrink_runs = 0; s_executed = 0;
    s_ssu_checked = 0; s_sigs = I64Set.empty; s_found = []; s_ssu_found = [] }

let shard_merge a b =
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
  }

(* One shard: claims enumeration indexes from [next], owns one
   [Exec.Pool] across all its sequences and shrink re-executions. Only
   the primary run of each sequence contributes a signature (shrink
   re-runs would otherwise make the dedup count depend on which shard
   found what). *)
let run_shard ?on_done ~next cfg (work : W.op list array) =
  let pool = Exec.Pool.create () in
  let acc = ref shard_empty in
  let exec ?trace ops =
    let o =
      Exec.run ~device_size:cfg.device_size
        ~max_images_per_fence:cfg.max_images ~pool ?trace ops
    in
    acc :=
      { !acc with
        s_harness = H.merge !acc.s_harness o.Exec.o_report;
        s_divergences = !acc.s_divergences + o.Exec.o_divergences;
        s_sim_ns = !acc.s_sim_ns + o.Exec.o_sim_ns };
    o
  in
  let continue = ref true in
  while !continue do
    match next () with
    | None -> continue := false
    | Some idx ->
        let ops = W.setup @ work.(idx) in
        let trace = if cfg.ssu then Some (Obs.Recorder.create ()) else None in
        let o = exec ?trace ops in
        acc :=
          { !acc with
            s_executed = !acc.s_executed + 1;
            s_sigs = I64Set.add o.Exec.o_state_sig !acc.s_sigs };
        (match o.Exec.o_fail with
        | None -> ()
        | Some ((cp, detail) as fail) ->
            let min_ops, det, mcp, sruns =
              if cfg.shrink then Shrink.reproduce ~exec ops fail else (ops, detail, cp, 0)
            in
            acc :=
              { !acc with
                s_shrink_runs = !acc.s_shrink_runs + sruns;
                s_found =
                  { fd_index = idx; fd_ops = ops; fd_min = min_ops; fd_crash = mcp;
                    fd_detail = det; fd_shrink_runs = sruns }
                  :: !acc.s_found });
        (match trace with
        | None -> ()
        | Some r ->
            acc := { !acc with s_ssu_checked = !acc.s_ssu_checked + 1 };
            (match Obs.Ssu.check (Obs.Recorder.to_list r) with
            | Ok () -> ()
            | Error v ->
                acc :=
                  { !acc with
                    s_ssu_found =
                      { sf_index = idx; sf_ops = ops; sf_event = v.Obs.Ssu.v_index;
                        sf_detail = Format.asprintf "%a" Obs.Ssu.pp_violation v }
                      :: !acc.s_ssu_found }));
        (match on_done with Some f -> f idx | None -> ())
  done;
  !acc

(* {2 Deterministic parallel sweep} *)

let canonicalize s =
  {
    s with
    s_found = List.sort (fun a b -> compare a.fd_index b.fd_index) s.s_found;
    s_ssu_found = List.sort (fun a b -> compare a.sf_index b.sf_index) s.s_ssu_found;
    s_harness = { s.s_harness with H.violations = List.sort compare s.s_harness.H.violations };
  }

let run ?(jobs = 1) ?(chunk = 8) ?progress cfg =
  let tiers, work = build cfg in
  let total_work = Array.length work in
  let jobs = max 1 (min jobs (max 1 total_work)) in
  let cursor = Atomic.make 0 in
  let done_ = Atomic.make 0 in
  let on_done _ =
    let d = 1 + Atomic.fetch_and_add done_ 1 in
    match progress with Some f -> f d total_work | None -> ()
  in
  let worker () =
    let buf = ref [] in
    let next () =
      match !buf with
      | i :: rest ->
          buf := rest;
          Some i
      | [] ->
          let lo = Atomic.fetch_and_add cursor chunk in
          if lo >= total_work then None
          else begin
            let hi = min (lo + chunk) total_work in
            buf := List.init (hi - lo - 1) (fun k -> lo + 1 + k);
            Some lo
          end
    in
    run_shard ~on_done ~next cfg work
  in
  let merged =
    if jobs = 1 then worker ()
    else begin
      let doms = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
      let mine = worker () in
      List.fold_left (fun acc d -> shard_merge acc (Domain.join d)) mine doms
    end
  in
  let s = canonicalize merged in
  let sum f = List.fold_left (fun a t -> a + f t) 0 tiers in
  {
    e_alphabet = List.length (alphabet cfg);
    e_depth = cfg.depth;
    e_tiers = tiers;
    e_total = sum (fun t -> t.t_total);
    e_skipped = sum (fun t -> t.t_skipped);
    e_frontier = sum (fun t -> t.t_frontier);
    e_enumerated = sum (fun t -> t.t_enumerated);
    e_executed = s.s_executed;
    e_distinct = I64Set.cardinal s.s_sigs;
    e_deduped = s.s_executed - I64Set.cardinal s.s_sigs;
    e_ssu_checked = s.s_ssu_checked;
    e_harness = s.s_harness;
    e_divergences = s.s_divergences;
    e_shrink_runs = s.s_shrink_runs;
    e_sim_ns = s.s_sim_ns;
    e_found = s.s_found;
    e_ssu_found = s.s_ssu_found;
  }

(* {2 Mutant accounting and rendering} *)

let kinds_found r =
  List.sort_uniq compare
    (List.concat_map (fun f -> List.filter_map Driver.buggy_kind_of_op f.fd_min) r.e_found)

let ssu_kinds_found r =
  List.sort_uniq compare
    (List.concat_map (fun f -> List.filter_map Driver.buggy_kind_of_op f.sf_ops) r.e_ssu_found)

let pp_report ppf r =
  let open Format in
  fprintf ppf "@[<v>enumeration coverage (alphabet %d, depth %d)@," r.e_alphabet r.e_depth;
  List.iter
    (fun t ->
      fprintf ppf "  seq-%d: total %-6d skipped %-5d frontier %-6d enumerated %d@," t.t_depth
        t.t_total t.t_skipped t.t_frontier t.t_enumerated)
    r.e_tiers;
  fprintf ppf "  overall: total %d  skipped %d  frontier %d  enumerated %d@," r.e_total
    r.e_skipped r.e_frontier r.e_enumerated;
  fprintf ppf "  executed %d  distinct state-traces %d  deduped %d@," r.e_executed r.e_distinct
    r.e_deduped;
  fprintf ppf "  reconciles: %s@," (if reconciles r then "yes" else "NO");
  fprintf ppf "harness: workloads %d  ops %d  fences %d  crash states %d (%d deduped)@,"
    r.e_harness.H.workloads r.e_harness.H.ops_run r.e_harness.H.fences_probed
    r.e_harness.H.crash_states r.e_harness.H.states_deduped;
  fprintf ppf "divergences %d  shrink runs %d  sim time %.3f ms@," r.e_divergences r.e_shrink_runs
    (float_of_int r.e_sim_ns /. 1e6);
  fprintf ppf "ssu: %d sequences checked, %d violations@," r.e_ssu_checked
    (List.length r.e_ssu_found);
  fprintf ppf "oracle failures: %d@]" (List.length r.e_found);
  (* cap the listings: a mutant sweep fails hundreds of sequences *)
  let cap = 5 in
  List.iter
    (fun f ->
      fprintf ppf "@,  [#%d] %d ops -> %d min: %s" f.fd_index (List.length f.fd_ops)
        (List.length f.fd_min) f.fd_detail)
    (List.filteri (fun i _ -> i < cap) r.e_found);
  if List.length r.e_found > cap then
    fprintf ppf "@,  ... and %d more oracle failures" (List.length r.e_found - cap);
  List.iter
    (fun f -> fprintf ppf "@,  [ssu #%d] event %d: %s" f.sf_index f.sf_event f.sf_detail)
    (List.filteri (fun i _ -> i < cap) r.e_ssu_found);
  if List.length r.e_ssu_found > cap then
    fprintf ppf "@,  ... and %d more trace-checker violations"
      (List.length r.e_ssu_found - cap)

(* Machine-readable coverage record (the CI artifact). *)
let coverage_json r =
  let b = Buffer.create 512 in
  let tier t =
    Printf.sprintf
      {|{"depth":%d,"total":%d,"skipped":%d,"frontier":%d,"enumerated":%d}|}
      t.t_depth t.t_total t.t_skipped t.t_frontier t.t_enumerated
  in
  Buffer.add_string b
    (Printf.sprintf
       {|{"alphabet":%d,"depth":%d,"tiers":[%s],"total":%d,"skipped":%d,"frontier":%d,"enumerated":%d,"executed":%d,"distinct":%d,"deduped":%d,"ssu_checked":%d,"ssu_violations":%d,"oracle_failures":%d,"crash_states":%d,"reconciles":%b}|}
       r.e_alphabet r.e_depth
       (String.concat "," (List.map tier r.e_tiers))
       r.e_total r.e_skipped r.e_frontier r.e_enumerated r.e_executed r.e_distinct r.e_deduped
       r.e_ssu_checked
       (List.length r.e_ssu_found)
       (List.length r.e_found)
       r.e_harness.H.crash_states (reconciles r));
  Buffer.contents b
