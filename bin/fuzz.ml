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

   and two other modes, at most one per run (both, or --replay beside
   one, is a usage error, and so is any option the chosen mode does not
   read):

     fuzz --enum [--depth 3] [--expect-buggy]  -- complete seq-2 (or seq-3)
                                                  sweep of the canonical
                                                  universe
     fuzz --interleaved [--expect-buggy]       -- every lock-respecting
                                                  schedule of 2-op pairs

   With --expect-buggy every mode runs its mutant leg and prints one row
   per mutant kind; it exits 2 unless the crash oracle and the SSU trace
   checker both flag every kind. In every mode, a --replay included, a
   sequence that holds a mutant op probes
   [Fuzzer.Exec.exhaustive_images_per_fence] crash images per fence. *)

open Cmdliner

let latency_of optane = if optane then Some Pmem.Latency.optane else None

(* Re-execute [ops] with a recorder attached and return the event list
   alongside the outcome; tracing never perturbs the outcome, so the
   re-run reproduces exactly what the fuzzing run saw. *)
let traced_run ?faults ?(optane = false) ops =
  let r = Obs.Recorder.create () in
  let out = Fuzzer.Exec.run ?faults ?latency:(latency_of optane) ~trace:r ops in
  (out, Obs.Recorder.to_list r)

(* Print the SSU trace checker's verdict on [events]; true if clean. *)
let trace_checked events =
  match Obs.Ssu.check events with
  | Ok () ->
      print_endline "trace-checker: clean";
      true
  | Error v ->
      Format.printf "trace-checker: %a@." Obs.Ssu.pp_violation v;
      (match List.nth_opt events v.Obs.Ssu.v_index with
      | Some e -> Format.printf "  offending event: %a@." Obs.Event.pp e
      | None -> ());
      false

let write_trace file events =
  Obs.Chrome.to_file file events;
  Printf.printf "trace: %d events -> %s (chrome://tracing)\n" (List.length events) file

(* Both checkers judge a replay: it exits 2 if either flags it. *)
let replay_cmd line faults optane trace =
  match Fuzzer.Repro.of_cli line with
  | Error msg ->
      prerr_endline ("replay: " ^ msg);
      exit 1
  | Ok ops -> (
      let res, events = traced_run ~faults ~optane ops in
      Format.printf "%a@." Crashcheck.Harness.pp_report res.Fuzzer.Exec.o_report;
      Option.iter (fun file -> write_trace file events) trace;
      let ssu_clean = trace_checked events in
      match res.Fuzzer.Exec.o_fail with
      | Some (cp, detail) ->
          Printf.printf "FAIL at op %d / fence %d / image %d: %s\n" cp.Fuzzer.Exec.cp_op
            cp.Fuzzer.Exec.cp_fence cp.Fuzzer.Exec.cp_image detail;
          exit 2
      | None when ssu_clean ->
          print_endline "clean";
          exit 0
      | None -> exit 2)

(* Every --expect-buggy leg ends here: the account's faults, one row per
   mutant kind, and exit 2 unless both checkers flagged every kind. *)
let account_exit leg (a : Fuzzer.account) =
  List.iter (fun f -> Printf.printf "%s: %s\n" leg f) a.Fuzzer.a_faults;
  let flag b = if b then "flagged" else "MISSED" in
  List.iter
    (fun v ->
      Printf.printf "%s buggy-%s: oracle=%s trace-checker=%s\n" leg
        (Fuzzer.buggy_kind_name v.Fuzzer.k_kind) (flag v.Fuzzer.k_oracle)
        (flag v.Fuzzer.k_trace))
    a.Fuzzer.a_rows;
  exit (if Fuzzer.account_ok a then 0 else 2)

(* --interleaved: 2-op pairs, every lock-respecting interleaving run
   through the crash oracle and the SSU trace checker (see
   [Fuzzer.Interleave]). Clean pairs must be quiet; with --expect-buggy,
   one fixed mutant pair per kind must be flagged by BOTH checkers. *)
let interleaved_cmd seed pairs expect_buggy =
  if expect_buggy then account_exit "interleaved" (Fuzzer.Interleave.run_buggy ())
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
   --expect-buggy the alphabet is widened with one op per mutant kind and
   the account requires each to be flagged by BOTH the crash oracle (with
   a <= 3-op shrunk reproducer) and the SSU trace checker. *)
let enum_cmd jobs depth coverage_out expect_buggy =
  let cfg = { Fuzzer.Enum.default_cfg with depth; buggy = expect_buggy } in
  let r = Fuzzer.Enum.run ~jobs cfg in
  Format.printf "%a@." Fuzzer.Enum.pp_report r;
  (match coverage_out with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Fuzzer.Enum.coverage_json r);
      output_char oc '\n';
      close_out oc;
      Printf.printf "coverage -> %s\n" file);
  if not (Fuzzer.Enum.reconciles r) then begin
    print_endline "enum: coverage accounting does NOT reconcile";
    exit 2
  end;
  if expect_buggy then account_exit "enum" (Fuzzer.Enum.account cfg r)
  else if r.Fuzzer.Enum.e_found <> [] || r.Fuzzer.Enum.e_ssu_found <> [] then begin
    print_endline "enum: clean sweep reported failures (see above)";
    exit 2
  end
  else exit 0

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
          write_trace file events;
          ignore (trace_checked events : bool));
      if expect_buggy then account_exit "random" (Fuzzer.account ~bound:6 cfg r.Fuzzer.r_found)
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
            "Run the mode's mutant leg and fail unless every mutant kind \
             (create, unlink, write, snap) is flagged by the crash oracle, \
             with shrunk reproducers of at most 6 ops (3 with --enum), AND by \
             the trace-driven SSU checker from its recorded persist stream. \
             In every mode a sequence holding a mutant op probes 64 crash \
             images per fence")
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
  (* One mode flag at most: cmdliner refuses a second one. *)
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
