(* Bounded black-box enumeration (the B3/ACE idea, specialized to
   SquirrelFS): instead of sampling random sequences like [Driver], walk
   {e every} bounded op sequence over a small canonical universe — seq-2,
   and with depth 3 every seq-3 sequence too — and run the full crash
   oracle plus the SSU trace checker at every fence of every sequence.
   The universe is [Workload.setup] (2 dirs x 2 files worth of namespace
   once the ops run) with [Workload.alphabet] as the op set, so
   [Workload.systematic_pairs] is literally this module's seq-2 tier.

   Everything up to execution is pure arithmetic on [Ref_fs] models, so
   the coverage accounting is closed-form and must reconcile exactly:

     total(d) = n^d
     enumerated(d) = total(d) - skipped(d)

   One skip rule, and it is an equivalence, not a policy: a sequence is
   skipped iff some op before its last fails on the post-setup [Ref_fs]
   model. A refused op performs no durable stores and no fences
   (resolution/validation errors return before any allocation is
   published; volatile cleanup does not touch the device), so the
   sequence's crash-state set is identical to that of the same sequence
   with the failing op removed — which is a shorter sequence the sweep
   already covers. Failures of the {e last} op are not skipped: the
   final-state probe after a refused op is a real test (refusal must be
   durable-state neutral). Seq-3 has no relatedness restriction: ACE
   keeps only third ops that share a path with the prefix, but a
   whole-volume op (snapshot, rollback) shares none and still interacts
   with everything before it, so every third op after a feasible prefix
   runs.

   Dedup is counted, never acted on: every enumerated sequence runs the
   full oracle (the content-hash memo inside [Exec] only skips
   recomputation of content-determined verdicts; legality/prefix
   consistency is re-checked per occurrence). The dedup {e count} is
   derived from [Exec.outcome.o_state_sig] — a deterministic fingerprint
   of the sequence's crash-state trace — which the sweep the random
   fuzzer also runs on ([Driver.sweep]) collects into a set and merges
   across shards by union, so [-j N] reports are bit-identical to
   [-j 1]. *)

module W = Crashcheck.Workload
module H = Crashcheck.Harness

type cfg = {
  depth : int;  (** 2 = seq-1 + seq-2; 3 adds seq-3 *)
  buggy : bool;  (** widen the alphabet with one op per mutant kind *)
  max_images : int;  (** as {!Driver.cfg}'s: a mutant-free sequence's budget *)
}

let default_cfg = { depth = 2; buggy = false; max_images = 8 }

(* Mutant extension of the canonical alphabet: one representative per
   [Buggy_*] kind, phrased on the same universe. [Buggy_create] targets a
   fresh name ("/NB") because its bug only manifests with a prior create
   in the history — which the setup prefix provides. *)
let buggy_op : W.buggy_kind -> W.op = function
  | `Create -> W.Buggy_create "/NB"
  | `Unlink -> W.Buggy_unlink "/A"
  | `Write -> W.Buggy_write ("/A", String.make 64 'z')
  | `Snap -> W.Buggy_snap W.buggy_snap_name

let alphabet cfg =
  if cfg.buggy then W.alphabet @ List.map buggy_op W.all_buggy_kinds else W.alphabet

(* {2 Coverage accounting} *)

type tier = {
  t_depth : int;
  t_total : int;  (** closed form: |alphabet|^depth *)
  t_skipped : int;  (** infeasible-prefix skips (exact equivalence) *)
  t_enumerated : int;  (** sequences handed to the executor *)
}

type report = {
  e_alphabet : int;
  e_depth : int;
  e_tiers : tier list;
  e_total : int;
  e_skipped : int;
  e_enumerated : int;
  e_executed : int;  (** primary runs performed; must equal [e_enumerated] *)
  e_distinct : int;  (** distinct crash-state-trace signatures *)
  e_deduped : int;  (** [e_executed - e_distinct] *)
  e_ssu_checked : int;  (** sequences whose trace ran through {!Obs.Ssu} *)
  e_harness : H.report;
  e_divergences : int;
  e_shrink_runs : int;
  e_sim_ns : int;
  e_found : Driver.found list;
  e_ssu_found : Driver.ssu_found list;
}

let reconciles r =
  let tiers_ok =
    List.for_all (fun t -> t.t_total = t.t_skipped + t.t_enumerated) r.e_tiers
  in
  let sum f = List.fold_left (fun a t -> a + f t) 0 r.e_tiers in
  tiers_ok
  && r.e_total = sum (fun t -> t.t_total)
  && r.e_skipped = sum (fun t -> t.t_skipped)
  && r.e_enumerated = sum (fun t -> t.t_enumerated)
  && r.e_total = r.e_skipped + r.e_enumerated
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

(* Build the deterministic work list: tiers in depth order, sequences in
   lexicographic alphabet-index order within each tier. Returns the
   closed-form tier accounts alongside; [build] is pure, so every shard
   (and every [-j]) sees the identical array. *)
let build cfg =
  if cfg.depth <> 2 && cfg.depth <> 3 then invalid_arg "Fuzzer.Enum: depth must be 2 or 3";
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
  let tier1 = { t_depth = 1; t_total = n; t_skipped = 0; t_enumerated = n } in
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
    { t_depth = 2; t_total = n * n; t_skipped = !skip2; t_enumerated = (n * n) - !skip2 }
  in
  let tiers = ref [ tier1; tier2 ] in
  (* seq-3: complete modulo the same rule, over the first two ops. *)
  if cfg.depth = 3 then begin
    let skip3 = ref 0 in
    for i = 0 to n - 1 do
      if not (ok1 i) then skip3 := !skip3 + (n * n)
      else
        let mi = fst eff1.(i) in
        for j = 0 to n - 1 do
          if Result.is_error (snd (Ref_fs.apply mi ops.(j))) then skip3 := !skip3 + n
          else
            for k = 0 to n - 1 do
              push [ ops.(i); ops.(j); ops.(k) ]
            done
        done
    done;
    tiers :=
      !tiers
      @ [ { t_depth = 3; t_total = n * n * n; t_skipped = !skip3;
            t_enumerated = (n * n * n) - !skip3 } ]
  end;
  (!tiers, Array.of_list (List.rev !work))

(* {2 Execution} *)

let run_cfg cfg = { Driver.default_cfg with max_images = cfg.max_images }

(* The sweep runs every enumerated sequence behind the setup prefix, each
   primary run traced for the SSU checker. *)
let run ?(jobs = 1) cfg =
  let tiers, work = build cfg in
  let s, _ =
    Driver.sweep ~jobs ~traced:true (run_cfg cfg) (Array.length work) (fun i ->
        W.setup @ work.(i))
  in
  let sum f = List.fold_left (fun a t -> a + f t) 0 tiers in
  let distinct = Driver.I64Set.cardinal s.Driver.s_sigs in
  {
    e_alphabet = List.length (alphabet cfg);
    e_depth = cfg.depth;
    e_tiers = tiers;
    e_total = sum (fun t -> t.t_total);
    e_skipped = sum (fun t -> t.t_skipped);
    e_enumerated = sum (fun t -> t.t_enumerated);
    e_executed = s.s_executed;
    e_distinct = distinct;
    e_deduped = s.s_executed - distinct;
    e_ssu_checked = s.s_ssu_checked;
    e_harness = s.s_harness;
    e_divergences = s.s_divergences;
    e_shrink_runs = s.s_shrink_runs;
    e_sim_ns = s.s_sim_ns;
    e_found = s.s_found;
    e_ssu_found = s.s_ssu_found;
  }

(* The mutant leg's acceptance ([Driver.account]): reproducers of at
   most 3 ops. *)
let account cfg r = Driver.account ~bound:3 (run_cfg cfg) r.e_found

(* {2 Rendering} *)

let pp_report ppf r =
  let open Format in
  fprintf ppf "@[<v>enumeration coverage (alphabet %d, depth %d)@," r.e_alphabet r.e_depth;
  List.iter
    (fun t ->
      fprintf ppf "  seq-%d: total %-6d skipped %-5d enumerated %d@," t.t_depth t.t_total
        t.t_skipped t.t_enumerated)
    r.e_tiers;
  fprintf ppf "  overall: total %d  skipped %d  enumerated %d@," r.e_total r.e_skipped
    r.e_enumerated;
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
      fprintf ppf "@,  [#%d] %d ops -> %d min: %s" f.Driver.fd_iter (List.length f.fd_ops)
        (List.length f.fd_min) f.fd_detail)
    (List.filteri (fun i _ -> i < cap) r.e_found);
  if List.length r.e_found > cap then
    fprintf ppf "@,  ... and %d more oracle failures" (List.length r.e_found - cap);
  List.iter
    (fun f -> fprintf ppf "@,  [ssu #%d] event %d: %s" f.Driver.sf_iter f.sf_event f.sf_detail)
    (List.filteri (fun i _ -> i < cap) r.e_ssu_found);
  if List.length r.e_ssu_found > cap then
    fprintf ppf "@,  ... and %d more trace-checker violations"
      (List.length r.e_ssu_found - cap)

(* Machine-readable coverage record (the CI artifact). *)
let coverage_json r =
  let b = Buffer.create 512 in
  let tier t =
    Printf.sprintf
      {|{"depth":%d,"total":%d,"skipped":%d,"enumerated":%d}|}
      t.t_depth t.t_total t.t_skipped t.t_enumerated
  in
  Buffer.add_string b
    (Printf.sprintf
       {|{"alphabet":%d,"depth":%d,"tiers":[%s],"total":%d,"skipped":%d,"enumerated":%d,"executed":%d,"distinct":%d,"deduped":%d,"ssu_checked":%d,"ssu_violations":%d,"oracle_failures":%d,"crash_states":%d,"reconciles":%b}|}
       r.e_alphabet r.e_depth
       (String.concat "," (List.map tier r.e_tiers))
       r.e_total r.e_skipped r.e_enumerated r.e_executed r.e_distinct r.e_deduped
       r.e_ssu_checked
       (List.length r.e_ssu_found)
       (List.length r.e_found)
       r.e_harness.H.crash_states (reconciles r));
  Buffer.contents b
