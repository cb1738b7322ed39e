(* fuzz: the Chipmunk-style crash-state fuzzer.

     fuzz --seed 1 --iters 200                 -- fuzz, shrink any failures
     fuzz --seed 1 --iters 60 --expect-buggy   -- must re-find all Buggy_*
     fuzz --buggy-rate 0 --iters 50            -- clean fuzzing: must be quiet
     fuzz -j 4 --seed 1 --iters 200            -- 4 domains, same report
     fuzz --buggy-rate 0 --flips 2 --torn 0.2  -- media faults: torn/stuck
                                                  crash images, then flip,
                                                  scrub, degraded remount, EIO
     fuzz --replay "create /a; buggy-write /a 64"
                                               -- re-run a shrunk reproducer

   and three other modes, at most one per run (two of them, or --replay
   beside one, is a usage error, and so is any option the chosen mode
   does not read):

     fuzz --enum [--depth 3] [--expect-buggy]  -- complete seq-2 (or seq-3)
                                                  sweep of the canonical
                                                  universe
     fuzz --interleaved [--expect-buggy]       -- every lock-respecting
                                                  schedule of 2-op pairs
     fuzz --snap-smoke                         -- snapshot crash battery *)

open Cmdliner

let latency_of optane = if optane then Some Pmem.Latency.optane else None

(* Re-execute [ops] with a recorder attached and return the event list
   alongside the outcome. Used for --trace and the --expect-buggy
   trace-checker leg; tracing never perturbs the outcome, so the re-run
   reproduces exactly what the fuzzing run saw. *)
let traced_run ?faults ?max_images_per_fence ?(optane = false) ops =
  let r = Obs.Recorder.create () in
  let out =
    Fuzzer.Exec.run ?faults ?max_images_per_fence ?latency:(latency_of optane) ~trace:r ops
  in
  (out, Obs.Recorder.to_list r)

let dump_trace file events =
  Obs.Chrome.to_file file events;
  Printf.printf "trace: %d events -> %s (chrome://tracing)\n" (List.length events) file;
  match Obs.Ssu.check events with
  | Ok () -> print_endline "trace-checker: clean"
  | Error v ->
      Format.printf "trace-checker: %a@." Obs.Ssu.pp_violation v;
      (match List.nth_opt events v.Obs.Ssu.v_index with
      | Some e -> Format.printf "  offending event: %a@." Obs.Event.pp e
      | None -> ())

let replay_cmd line faults optane trace =
  match Fuzzer.Repro.of_cli line with
  | Error msg ->
      prerr_endline ("replay: " ^ msg);
      exit 1
  | Ok ops -> (
      let res, events = traced_run ~faults ~optane ops in
      Format.printf "%a@." Crashcheck.Harness.pp_report res.Fuzzer.Exec.o_report;
      (match trace with Some file -> dump_trace file events | None -> ());
      match res.Fuzzer.Exec.o_fail with
      | Some (cp, detail) ->
          Printf.printf "FAIL at op %d / fence %d / image %d: %s\n" cp.Fuzzer.Exec.cp_op
            cp.Fuzzer.Exec.cp_fence cp.Fuzzer.Exec.cp_image detail;
          exit 2
      | None ->
          print_endline "clean";
          exit 0)

(* --interleaved: 2-op pairs, every lock-respecting interleaving run
   through the crash oracle and the SSU trace checker (see
   [Fuzzer.Interleave]). Clean pairs must be quiet; with --expect-buggy,
   four fixed mutant pairs (create, unlink, write, snap) must each be
   flagged by BOTH checkers. *)
let interleaved_cmd seed pairs expect_buggy =
  if expect_buggy then begin
    let results = Fuzzer.Interleave.run_buggy () in
    let ok = ref true in
    List.iter
      (fun b ->
        let hit = b.Fuzzer.Interleave.b_oracle and ssu = b.Fuzzer.Interleave.b_ssu in
        if not (hit && ssu) then ok := false;
        Printf.printf "interleaved buggy-%s: oracle=%s trace-checker=%s\n"
          b.Fuzzer.Interleave.b_name
          (if hit then "flagged" else "MISSED")
          (if ssu then "flagged" else "MISSED"))
      results;
    exit (if !ok then 0 else 2)
  end
  else begin
    let r = Fuzzer.Interleave.run ~seed ~pairs () in
    Printf.printf
      "interleaved: %d pairs (%d disjoint, %d overlapping), %d schedules \
       (%d past cap skipped), %d crash states (%d deduped)\n"
      r.Fuzzer.Interleave.i_pairs r.Fuzzer.Interleave.i_disjoint
      r.Fuzzer.Interleave.i_overlapping r.Fuzzer.Interleave.i_schedules
      r.Fuzzer.Interleave.i_skipped r.Fuzzer.Interleave.i_states
      r.Fuzzer.Interleave.i_deduped;
    List.iter
      (fun p ->
        Format.printf "FAIL pair %d: %a || %a@."
          p.Fuzzer.Interleave.pr_index Crashcheck.Workload.pp_op
          p.Fuzzer.Interleave.pr_a Crashcheck.Workload.pp_op
          p.Fuzzer.Interleave.pr_b;
        (match p.Fuzzer.Interleave.pr_oracle_fail with
        | Some d -> Printf.printf "  oracle: %s\n" d
        | None -> ());
        match p.Fuzzer.Interleave.pr_ssu_fail with
        | Some d -> Printf.printf "  trace-checker: %s\n" d
        | None -> ())
      r.Fuzzer.Interleave.i_failures;
    exit (if r.Fuzzer.Interleave.i_failures = [] then 0 else 2)
  end

(* --enum: deterministic bounded enumeration (Fuzzer.Enum). Clean runs
   must be quiet and the coverage arithmetic must reconcile exactly; with
   --expect-buggy the alphabet is widened with the three Buggy_* mutants
   and each must be flagged by BOTH the crash oracle (with a <= 3-op
   shrunk reproducer) and the SSU trace checker. *)
let enum_cmd jobs depth coverage_out expect_buggy =
  let r =
    Fuzzer.Enum.run ~jobs { Fuzzer.Enum.default_cfg with depth; buggy = expect_buggy }
  in
  Format.printf "%a@." Fuzzer.Enum.pp_report r;
  (match coverage_out with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Fuzzer.Enum.coverage_json r);
      output_char oc '\n';
      close_out oc;
      Printf.printf "coverage -> %s\n" file);
  let ok = ref true in
  if not (Fuzzer.Enum.reconciles r) then begin
    ok := false;
    print_endline "enum: coverage accounting does NOT reconcile"
  end;
  if expect_buggy then begin
    let okinds = Fuzzer.kinds_found r.Fuzzer.Enum.e_found in
    let skinds = Fuzzer.Enum.ssu_kinds_found r in
    List.iter
      (fun k ->
        let o = List.mem k okinds and s = List.mem k skinds in
        if not (o && s) then ok := false;
        Printf.printf "enum buggy-%s: oracle=%s trace-checker=%s\n"
          (Fuzzer.buggy_kind_name k)
          (if o then "flagged" else "MISSED")
          (if s then "flagged" else "MISSED"))
      Fuzzer.all_buggy_kinds;
    List.iter
      (fun f ->
        if List.length f.Fuzzer.fd_min > 3 then begin
          ok := false;
          Printf.printf "enum reproducer of %d ops exceeds the 3-op bound\n"
            (List.length f.Fuzzer.fd_min)
        end;
        if not (List.exists (fun op -> Fuzzer.buggy_kind_of_op op <> None) f.Fuzzer.fd_min)
        then begin
          ok := false;
          Printf.printf "enum: mutant-free sequence failed the oracle: %s\n"
            f.Fuzzer.fd_detail
        end)
      r.Fuzzer.Enum.e_found
  end
  else if r.Fuzzer.Enum.e_found <> [] || r.Fuzzer.Enum.e_ssu_found <> [] then begin
    ok := false;
    print_endline "enum: clean sweep reported failures (see above)"
  end;
  exit (if !ok then 0 else 2)

(* --snap-smoke: deterministic snapshot-path acceptance. Leg 1 drives
   fixed snapshot/rollback sequences through the differential executor
   with an exhaustive per-fence image budget, so EVERY fence-point crash
   view during snapshot creation and rollback is probed: each must
   recover to the old table or the fully CRC-sealed new entry — a
   committed-but-torn entry is a raw-fsck violation the oracle reports.
   Leg 2 replays the mis-ordered creation mutant and requires BOTH the
   crash oracle and the SSU trace checker to flag it. *)
let snap_smoke_cmd () =
  let module W = Crashcheck.Workload in
  let ok = ref true in
  let smoke name ops =
    let out, events = traced_run ~max_images_per_fence:128 ops in
    let ssu = Obs.Ssu.check events in
    (match out.Fuzzer.Exec.o_fail with
    | Some (_, d) ->
        ok := false;
        Printf.printf "snap-smoke %s: oracle FAIL: %s\n" name d
    | None -> ());
    (match ssu with
    | Error v ->
        ok := false;
        Format.printf "snap-smoke %s: trace-checker FAIL: %a@." name
          Obs.Ssu.pp_violation v
    | Ok () -> ());
    if out.Fuzzer.Exec.o_fail = None && ssu = Ok () then
      Printf.printf "snap-smoke %s: clean (%d crash states probed)\n" name
        out.Fuzzer.Exec.o_report.Crashcheck.Harness.crash_states
  in
  smoke "create"
    (Fuzzer.Gen.setup @ W.[ Snapshot "s0"; Write ("/a", 0, "after"); Snapshot "s1" ]);
  smoke "rollback"
    (Fuzzer.Gen.setup
    @ W.[
        Snapshot "s0";
        Write ("/a", 0, String.make 200 'x');
        Unlink "/d/f";
        Rollback "s0";
      ]);
  smoke "stacked"
    (Fuzzer.Gen.setup
    @ W.[
        Snapshot "s0";
        Rename ("/a", "/e/a");
        Snapshot "s1";
        Rollback "s1";
        Rollback "s0";
      ]);
  let mutant = Fuzzer.Gen.setup @ [ W.Buggy_snap "torn-snapshot-commit-ordering" ] in
  let out, events = traced_run ~max_images_per_fence:128 mutant in
  let o = out.Fuzzer.Exec.o_fail <> None in
  let s = match Obs.Ssu.check events with Error _ -> true | Ok () -> false in
  if not (o && s) then ok := false;
  Printf.printf "snap-smoke buggy-snap: oracle=%s trace-checker=%s\n"
    (if o then "flagged" else "MISSED")
    (if s then "flagged" else "MISSED");
  exit (if !ok then 0 else 2)

(* The random fuzzer, or with --replay one given sequence. *)
let fuzz_cmd seed iters op_budget buggy_rate flips torn stuck optane jobs replay expect_buggy
    trace metrics =
  let faults =
    if flips = 0 && torn = 0. && stuck = 0. then Faults.none
    else
      try
        Faults.Plan.make ~seed ~bit_flips:flips ~torn_line_rate:torn
          ~stuck_line_rate:stuck ()
      with Invalid_argument msg ->
        Printf.eprintf "fuzz: %s (flips >= 0; rates are probabilities in [0,1])\n" msg;
        exit 2
  in
  match replay with
  | Some line -> replay_cmd line faults optane trace
  | None ->
      let cfg =
        {
          Fuzzer.default_cfg with
          seed;
          iters;
          op_budget;
          buggy_rate;
          faults;
          latency = latency_of optane;
          collect_metrics = metrics;
        }
      in
      let cores = Domain.recommended_domain_count () in
      if jobs > cores then
        Printf.eprintf
          "fuzz: warning: -j %d exceeds the %d core(s) this host offers; \
           domains will time-slice\n\
           %!"
          jobs cores;
      let r, shards = Fuzzer.run_stats ~jobs cfg in
      Format.printf "%a@." Fuzzer.pp_report r;
      if jobs > 1 then Format.printf "%a@." Fuzzer.pp_shard_stats shards;
      (match trace with
      | None -> ()
      | Some file ->
          (* Trace a failing iteration if the run found one (the shrunk
             reproducer), otherwise iteration 0 of this seed. *)
          let ops =
            match r.Fuzzer.r_found with
            | f :: _ -> f.Fuzzer.fd_min
            | [] ->
                let rng = Random.State.make [| 0x5EED; seed; 0 |] in
                Fuzzer.Gen.sequence rng { Fuzzer.Gen.op_budget; buggy_rate }
          in
          let _, events = traced_run ~faults ~optane ops in
          dump_trace file events);
      if expect_buggy then begin
        (* acceptance: every mutant re-discovered, every reproducer small *)
        let kinds = Fuzzer.kinds_found r.Fuzzer.r_found in
        let ok = ref true in
        List.iter
          (fun k ->
            let hit = List.mem k kinds in
            if not hit then ok := false;
            Printf.printf "re-discovered buggy-%s: %s\n" (Fuzzer.buggy_kind_name k)
              (if hit then "yes" else "NO"))
          Fuzzer.all_buggy_kinds;
        List.iter
          (fun f ->
            if List.length f.Fuzzer.fd_min > 6 then begin
              ok := false;
              Printf.printf "reproducer of %d ops exceeds the 6-op bound\n"
                (List.length f.Fuzzer.fd_min)
            end)
          r.Fuzzer.r_found;
        (* Second, independent leg: the trace-driven SSU checker must flag
           every mutant from the recorded store/flush/fence stream alone —
           no oracle, no crash images, just the persist ordering. Shrunk
           reproducers carry exactly the buggy ops that caused the
           violation, so a flagged trace is credited to those kinds. *)
        let flagged = ref [] in
        List.iter
          (fun f ->
            let kinds = List.filter_map Fuzzer.buggy_kind_of_op f.Fuzzer.fd_min in
            let fresh = List.filter (fun k -> not (List.mem k !flagged)) kinds in
            if fresh <> [] then begin
              let _, events = traced_run ~faults ~optane f.Fuzzer.fd_min in
              match Obs.Ssu.check events with
              | Error v ->
                  flagged := fresh @ !flagged;
                  List.iter
                    (fun k ->
                      Format.printf "trace-checker flags buggy-%s: %a@."
                        (Fuzzer.buggy_kind_name k) Obs.Ssu.pp_violation v;
                      match List.nth_opt events v.Obs.Ssu.v_index with
                      | Some e -> Format.printf "  offending event: %a@." Obs.Event.pp e
                      | None -> ())
                    fresh
              | Ok () -> ()
            end)
          r.Fuzzer.r_found;
        List.iter
          (fun k ->
            if not (List.mem k !flagged) then begin
              ok := false;
              Printf.printf "trace-checker missed buggy-%s\n" (Fuzzer.buggy_kind_name k)
            end)
          Fuzzer.all_buggy_kinds;
        exit (if !ok then 0 else 2)
      end
      else if buggy_rate = 0. then begin
        (* clean fuzzing: any violation is an SSU bug in the real code,
           and with --flips every flip must have been caught (a run whose
           flips all missed would pass vacuously) *)
        let h = r.Fuzzer.r_harness in
        if flips > 0 && h.Crashcheck.Harness.faults_detected = 0 then
          print_endline "fuzz: --flips: no flip landed (every sequence ended empty)";
        exit
          (if
             h.Crashcheck.Harness.violations = []
             && (flips = 0 || h.Crashcheck.Harness.faults_detected > 0)
           then 0
           else 2)
      end
      else exit 0

(* Each mode's name and the options it reads. Any other option beside a
   mode is a usage error (exit 124), so a mistyped invocation cannot
   skip the work it names. *)
let mode_reads = function
  | `Fuzz ->
      ( "the random fuzzer",
        [ "--seed"; "--iters"; "--op-budget"; "--buggy-rate"; "--flips"; "--torn"; "--stuck";
          "--optane"; "-j"; "--expect-buggy"; "--trace"; "--metrics" ] )
  | `Replay ->
      ("--replay", [ "--seed"; "--flips"; "--torn"; "--stuck"; "--optane"; "--replay"; "--trace" ])
  | `Enum -> ("--enum", [ "-j"; "--depth"; "--coverage-out"; "--expect-buggy" ])
  | `Interleaved -> ("--interleaved", [ "--seed"; "--pairs"; "--expect-buggy" ])
  | `Snap_smoke -> ("--snap-smoke", [])

let run seed iters op_budget buggy_rate flips torn stuck optane jobs mode replay expect_buggy
    trace metrics pairs depth coverage_out =
  let mode = match (mode, replay) with `Fuzz, Some _ -> `Replay | m, _ -> m in
  let name, reads = mode_reads mode in
  let given name v = Option.map (fun _ -> name) v
  and set name b = if b then Some name else None in
  let stray =
    List.find_opt
      (fun o -> not (List.mem o reads))
      (List.filter_map Fun.id
         [
           given "--seed" seed; given "--iters" iters; given "--op-budget" op_budget;
           given "--buggy-rate" buggy_rate; given "--flips" flips; given "--torn" torn;
           given "--stuck" stuck; set "--optane" optane; given "-j" jobs;
           given "--replay" replay; set "--expect-buggy" expect_buggy; given "--trace" trace;
           set "--metrics" metrics; given "--pairs" pairs; given "--depth" depth;
           given "--coverage-out" coverage_out;
         ])
  in
  match stray with
  | Some o -> `Error (true, Printf.sprintf "%s is not read by %s" o name)
  | None -> (
      let seed = Option.value seed ~default:1 and jobs = Option.value jobs ~default:1 in
      match mode with
      | `Snap_smoke -> snap_smoke_cmd ()
      | `Enum -> enum_cmd jobs (Option.value depth ~default:2) coverage_out expect_buggy
      | `Interleaved -> interleaved_cmd seed (Option.value pairs ~default:50) expect_buggy
      | `Fuzz | `Replay ->
          fuzz_cmd seed (Option.value iters ~default:50) (Option.value op_budget ~default:8)
            (Option.value buggy_rate ~default:0.15) (Option.value flips ~default:0)
            (Option.value torn ~default:0.) (Option.value stuck ~default:0.) optane jobs replay
            expect_buggy trace metrics)

let () =
  let seed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed (default 1)")
  in
  let iters =
    Arg.(
      value
      & opt (some int) None
      & info [ "iters" ] ~docv:"N" ~doc:"Sequences to generate (default 50)")
  in
  let op_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "op-budget" ] ~docv:"N" ~doc:"Ops per sequence (default 8)")
  in
  let buggy_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "buggy-rate" ] ~docv:"P"
          ~doc:"Probability an op slot emits a mis-ordered Buggy_* mutant (default 0.15)")
  in
  let flips =
    Arg.(
      value & opt (some int) None
      & info [ "flips" ] ~docv:"N"
          ~doc:
            "Media-fault Phase B: after each sequence that passed, flip one \
             seeded bit in up to N committed inode records, then require the \
             scrubber to flag every damaged line, a degraded remount that \
             quarantines those inodes, and a clean EIO from their paths. \
             Formats a checksummed volume; a clean run (--buggy-rate 0) \
             fails unless some flip was detected")
  in
  let torn =
    Arg.(
      value
      & opt (some float) None
      & info [ "torn" ] ~docv:"P" ~doc:"Torn-line rate (media images)")
  in
  let stuck =
    Arg.(
      value
      & opt (some float) None
      & info [ "stuck" ] ~docv:"P" ~doc:"Stuck-line rate (media images)")
  in
  let optane =
    Arg.(value & flag & info [ "optane" ] ~doc:"Charge Optane-like simulated latency")
  in
  let jobs =
    let positive =
      Arg.conv
        ( (fun s ->
            match int_of_string_opt s with
            | Some n when n >= 1 -> Ok n
            | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer >= 1" s))),
          Format.pp_print_int )
    in
    Arg.(
      value & opt (some positive) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Run sequences (random iterations or --enum's enumeration) on N \
             domains that each claim one sequence at a time from a shared \
             cursor (clamped to the sequence count). The report is \
             bit-identical to -j 1's; without --enum, per-shard \
             sequence counts and wall times are printed too")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"OPS"
          ~doc:
            "Replay a semicolon-separated reproducer (under the fault plan \
             that --flips/--torn/--stuck/--seed describe)")
  in
  let expect_buggy =
    Arg.(
      value & flag
      & info [ "expect-buggy" ]
          ~doc:
            "Fail unless all Buggy_* mutants are re-discovered with <= 6-op \
             reproducers AND the trace-driven SSU checker independently flags \
             each of them from its recorded persist stream")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Re-run one iteration (the first failing reproducer, or iteration \
             0 if clean; with --replay, the replayed ops) with structured \
             tracing and write a chrome://tracing JSON trace to FILE")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Collect and print an op-latency/device-traffic metrics registry")
  in
  let pairs =
    Arg.(
      value & opt (some int) None
      & info [ "pairs" ] ~docv:"N" ~doc:"Op pairs to generate (with --interleaved; default 50)")
  in
  let depth =
    Arg.(
      value
      & opt (some (enum [ ("2", 2); ("3", 3) ])) None
      & info [ "depth" ] ~docv:"D"
          ~doc:
            "Enumeration depth (with --enum): 2, or 3 to add every seq-3 \
             sequence whose first two ops are feasible")
  in
  let coverage_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "coverage-out" ] ~docv:"FILE"
          ~doc:"Write the enumeration coverage record as JSON to FILE (with --enum)")
  in
  (* One flag of the three at most: cmdliner refuses a second one. *)
  let mode =
    Arg.(
      value
      & vflag `Fuzz
          [
            ( `Enum,
              info [ "enum" ]
                ~doc:
                  "Bounded black-box enumeration: deterministically run every \
                   bounded op sequence over the canonical universe (seq-2, and \
                   seq-3 with --depth 3; only sequences with an infeasible \
                   prefix are skipped) through the crash oracle and the SSU \
                   trace checker, and print an exactly-reconciling coverage \
                   account. With --expect-buggy the alphabet gains the Buggy_* \
                   mutants and each must be flagged by both checkers" );
            ( `Interleaved,
              info [ "interleaved" ]
                ~doc:
                  "Concurrent mode: generate 2-op pairs, deterministically \
                   enumerate every interleaving the sharded lock table permits \
                   (disjoint pairs interleave at persist points, overlapping \
                   pairs serialize), and run the crash oracle plus the SSU \
                   trace checker over each schedule" );
            ( `Snap_smoke,
              info [ "snap-smoke" ]
                ~doc:
                  "Deterministic snapshot-path smoke: probe every fence-point \
                   crash view of fixed snapshot/rollback sequences with an \
                   exhaustive image budget (old table or sealed new entry, \
                   never torn), then require the mis-ordered creation mutant \
                   to be flagged by both the crash oracle and the SSU trace \
                   checker" );
          ])
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "fuzz" ~doc:"Crash-state fuzzing of SquirrelFS with a differential oracle")
          Term.(
            ret
              (const run $ seed $ iters $ op_budget $ buggy_rate $ flips $ torn $ stuck
             $ optane $ jobs $ mode $ replay $ expect_buggy $ trace $ metrics $ pairs $ depth
             $ coverage_out))))
