(* Tests for the crash-state fuzzer (lib/fuzz): reference-model semantics,
   executor oracle behaviour, mutant re-discovery with shrinking, repro
   round-trips, and the determinism regression the crash enumerator's
   seeded-PRNG invariant depends on. *)

module W = Crashcheck.Workload
module F = Fuzzer

let run ops = F.Exec.run ops

let check_clean name ops =
  let o = run ops in
  match o.F.Exec.o_fail with
  | None -> ()
  | Some (cp, detail) ->
      Alcotest.failf "%s: unexpected violation at op %d: %s" name cp.F.Exec.cp_op detail

(* the mutants are caught at the fuzzer's image budget and at 12 *)
let expect_caught name ops =
  List.iter
    (fun images ->
      if (F.Exec.run ~max_images_per_fence:images ops).F.Exec.o_fail = None then
        Alcotest.failf "%s not detected at %d images per fence" name images)
    [ 8; 12 ]

(* {1 Reference model} *)

(* The model's capture must canonicalize exactly like Vfs.Logical.capture:
   build the same tree on a real SquirrelFS and compare snapshots. *)
let test_model_capture_matches_squirrelfs () =
  let ops =
    W.
      [
        Mkdir "/d";
        Mkdir "/d/sub";
        Create "/d/f";
        Create "/a";
        Write ("/a", 0, String.make 5000 'q');
        Link ("/a", "/d/hard");
        Symlink ("/d/f", "/s");
        Rename ("/d/f", "/b");
        Truncate ("/a", 100);
        Unlink ("/d/hard");
      ]
  in
  let dev = Pmem.Device.create ~size:(512 * 1024) () in
  Squirrelfs.mkfs dev;
  let fs =
    match Squirrelfs.mount dev with
    | Ok fs -> fs
    | Error e -> Alcotest.failf "mount: %s" (Vfs.Errno.to_string e)
  in
  let model = ref F.Ref_fs.empty in
  List.iter
    (fun op ->
      let m, r1 = F.Ref_fs.apply !model op in
      let r2 = F.Exec.apply_sq fs op in
      if r1 <> r2 then
        Alcotest.failf "outcome mismatch on %s: model %s, squirrelfs %s"
          (Format.asprintf "%a" W.pp_op op)
          (match r1 with Ok () -> "ok" | Error e -> Vfs.Errno.to_string e)
          (match r2 with Ok () -> "ok" | Error e -> Vfs.Errno.to_string e);
      model := m)
    ops;
  let got = Vfs.Logical.capture (module Squirrelfs) fs in
  let want = F.Ref_fs.capture !model in
  if not (Vfs.Logical.equal ~compare_data:true got want) then
    Alcotest.failf "snapshots differ:@.squirrelfs %a@.model %a" Vfs.Logical.pp got
      Vfs.Logical.pp want

(* Errno parity on a sample of error paths (precedence order included). *)
let test_model_errno_parity () =
  let cases =
    W.
      [
        Unlink "/missing";
        Rmdir "/";
        Create "/nodir/f";
        Write ("/missing", 0, "x");
        Mkdir "/d";
        Create "/d";
        Unlink "/d";
        Create "/f";
        Mkdir "/f/sub";
        Rename ("/d", "/d2");
        Mkdir "/d2/in";
        Rename ("/d2", "/d2/in/deeper");
        Link ("/d2", "/ln");
        Rename ("/f", "/d2");
        Truncate ("/d2", 0);
        Symlink ("/f", "/s");
        Write ("/s", 0, "x");
        Rename ("/missing", "/f");
        Create (String.concat "" [ "/"; String.make 200 'n' ]);
      ]
  in
  check_clean "errno parity (differential check inside the executor)" cases

(* {1 Executor oracle} *)

let test_clean_sequences_pass () =
  check_clean "rename chains"
    W.
      [
        Mkdir "/d";
        Create "/d/a";
        Write ("/d/a", 0, String.make 3000 'x');
        Rename ("/d/a", "/b");
        Create "/d/a";
        Rename ("/d/a", "/b");
        Rename ("/b", "/d/c");
        Unlink ("/d/c");
        Rmdir "/d";
      ]

(* {2 Split data path: staged appends probed at every fence point}

   Handle appends land in staging pages and commit via a single relink
   flip. [Exec.run] probes every enumerated crash image at every fence
   the sequence issues, so a clean outcome here means each fence point
   of the staged commit (pre-fill, post-fill, post-relink, post-size)
   recovers to a state the oracle accepts; the traced variant feeds the
   same run's persist stream through the trace-driven SSU checker. *)

let staged_append_ops =
  W.
    [
      Create "/a";
      Write ("/a", 0, String.make 2000 'a');
      Open ("h", "/a");
      Write_h ("h", 0, String.make 100 'H');
      Write_h ("h", 1900, String.make 300 'Y');
      Write_h ("h", 8100, String.make 200 'I');
      Write_h ("h", 16000, String.make 9000 'J');
      Read_h ("h", 0, 256);
      Close "h";
      Truncate ("/a", 10);
      Unlink "/a";
    ]

let test_staged_append_crash_consistent () =
  let o = run staged_append_ops in
  (match o.F.Exec.o_fail with
  | None -> ()
  | Some (cp, detail) ->
      Alcotest.failf "staged append: violation at op %d fence %d: %s"
        cp.F.Exec.cp_op cp.F.Exec.cp_fence detail);
  Alcotest.(check bool)
    "probed crash states" true
    (o.F.Exec.o_report.Crashcheck.Harness.crash_states > 0)

let test_staged_append_ssu_clean () =
  let r = Obs.Recorder.create () in
  let o = F.Exec.run ~trace:r staged_append_ops in
  (match o.F.Exec.o_fail with
  | None -> ()
  | Some (_, d) -> Alcotest.failf "oracle: %s" d);
  match Obs.Ssu.check (Obs.Recorder.to_list r) with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "SSU rejected the staged-append trace: %a"
        (fun ppf -> Obs.Ssu.pp_violation ppf)
        v

let test_buggy_create_fails () = expect_caught "buggy create" W.[ Mkdir "/d"; Buggy_create "/x" ]

let test_buggy_unlink_fails () =
  expect_caught "buggy unlink" W.[ Create "/a"; Buggy_unlink "/a" ]

let test_buggy_write_fails () =
  expect_caught "buggy write" W.[ Create "/a"; Buggy_write ("/a", "z") ]

(* Capacity exhaustion is a divergence, never a violation: the model has
   no limits, SquirrelFS reports clean ENOSPC, both keep going. *)
let test_enospc_is_divergence_not_violation () =
  (* 128 KiB volume holds ~29 data pages: the first 96 KiB write fits,
     the second cannot *)
  let big = String.make (96 * 1024) 'x' in
  let o =
    F.Exec.run ~device_size:(128 * 1024)
      W.[ Create "/a"; Write ("/a", 0, big); Write ("/a", 96 * 1024, big); Create "/b" ]
  in
  (match o.F.Exec.o_fail with
  | None -> ()
  | Some (_, d) -> Alcotest.failf "unexpected violation: %s" d);
  Alcotest.(check bool) "diverged at least once" true (o.F.Exec.o_divergences >= 1)

(* {1 Crash-checker workload corpus}

   Fixed workloads covering every namespace op and the data paths, run
   at 12 crash images per fence (4 more than the fuzzer's default) on
   one device pool, plus the reinjected mutants ([expect_caught]). *)

let check_clean_all name workloads =
  let pool = F.Exec.Pool.create () in
  let states = ref 0 in
  List.iter
    (fun ops ->
      let o = F.Exec.run ~pool ~max_images_per_fence:12 ops in
      (match o.F.Exec.o_fail with
      | None -> ()
      | Some (cp, detail) ->
          Alcotest.failf "%s: %a: violation at op %d: %s" name W.pp ops cp.F.Exec.cp_op detail);
      states := !states + o.F.Exec.o_report.Crashcheck.Harness.crash_states)
    workloads;
  Alcotest.(check bool) (name ^ " probed crash states") true (!states > 0)

let test_create_workloads () =
  check_clean_all "create"
    W.[ [ Create "/a" ]; [ Create "/a"; Create "/b"; Create "/c" ]; [ Mkdir "/d"; Create "/d/a" ] ]

let test_write_workloads () =
  check_clean_all "write"
    W.
      [
        [ Create "/a"; Write ("/a", 0, String.make 100 'x') ];
        [ Create "/a"; Write ("/a", 0, String.make 5000 'x') ];
        [ Create "/a"; Write ("/a", 0, String.make 100 'x'); Write ("/a", 100, String.make 100 'y') ];
        [ Create "/a"; Write ("/a", 10000, "sparse") ];
        [ Create "/a"; Write ("/a", 0, String.make 9000 'x'); Truncate ("/a", 100) ];
        [ Create "/a"; Truncate ("/a", 9000) ];
      ]

let test_unlink_workloads () =
  check_clean_all "unlink"
    W.
      [
        [ Create "/a"; Unlink "/a" ];
        [ Create "/a"; Write ("/a", 0, String.make 8192 'x'); Unlink "/a" ];
        [ Mkdir "/d"; Rmdir "/d" ];
        [ Create "/a"; Link ("/a", "/b"); Unlink "/a"; Unlink "/b" ];
      ]

let test_rename_workloads () =
  check_clean_all "rename"
    W.
      [
        [ Create "/a"; Rename ("/a", "/b") ];
        [ Create "/a"; Create "/b"; Rename ("/a", "/b") ];
        [ Mkdir "/d"; Create "/a"; Rename ("/a", "/d/a") ];
        [ Mkdir "/d"; Mkdir "/e"; Rename ("/d", "/e") ];
        [ Mkdir "/d"; Mkdir "/e"; Rename ("/d", "/e/d") ];
        [ Mkdir "/d"; Create "/d/f"; Mkdir "/e"; Rename ("/d/f", "/e/f"); Rename ("/e", "/d/e") ];
        [ Create "/a"; Link ("/a", "/b"); Rename ("/a", "/b") ];
        [ Create "/a"; Symlink ("/a", "/s"); Rename ("/s", "/t") ];
      ]

(* a deterministic slice of the seq-2 matrix ([fuzz --enum] runs it all) *)
let test_systematic_sample () =
  check_clean_all "systematic sample"
    (List.filteri (fun i _ -> i mod 13 = 0) (W.systematic_pairs ()))

let test_random_fuzz () =
  let r =
    F.run
      { F.default_cfg with seed = 42; iters = 10; op_budget = 6; buggy_rate = 0.; max_images = 12 }
  in
  if r.F.r_harness.Crashcheck.Harness.violations <> [] then
    Alcotest.failf "clean fuzzing: %a" Crashcheck.Harness.pp_report r.F.r_harness;
  Alcotest.(check bool) "probed crash states" true
    (r.F.r_harness.Crashcheck.Harness.crash_states > 0)

let test_buggy_create_detected () =
  expect_caught "buggy create" W.[ Mkdir "/d"; Buggy_create "/b" ]

let test_buggy_unlink_detected () =
  expect_caught "buggy unlink" W.[ Create "/a"; Write ("/a", 0, "data"); Buggy_unlink "/a" ]

let test_buggy_write_detected () =
  expect_caught "buggy write" W.[ Create "/a"; Buggy_write ("/a", String.make 500 'z') ]

(* the same logical operations through the typestate API are clean *)
let test_correct_versions_pass () =
  check_clean_all "correct counterparts"
    W.
      [
        [ Mkdir "/d"; Create "/b" ];
        [ Create "/a"; Write ("/a", 0, "data"); Unlink "/a" ];
        [ Create "/a"; Write ("/a", 0, String.make 500 'z') ];
      ]

(* {2 Data atomicity}

   The crash oracle compares metadata and sizes only: plain data writes
   are not crash-atomic (in SquirrelFS or any evaluated system). COW
   writes (the §3.4 extension) are, which needs a data-comparing oracle:
   a fence hook that mounts every crash image and requires the model's
   state before or after the current op, file contents included. Returns
   the number of images that recover to neither. *)
let torn_data_images ops =
  let dev = Pmem.Device.create ~size:(512 * 1024) () in
  Squirrelfs.mkfs dev;
  let fs =
    match Squirrelfs.mount dev with
    | Ok fs -> fs
    | Error e -> Alcotest.failf "mount: %s" (Vfs.Errno.to_string e)
  in
  let legal = ref [] and torn = ref 0 in
  let check img =
    match Squirrelfs.mount (Pmem.Device.of_image img) with
    | Error _ -> incr torn
    | Ok fs2 ->
        let got = Vfs.Logical.capture (module Squirrelfs) fs2 in
        if not (List.exists (Vfs.Logical.equal ~compare_data:true got) !legal) then incr torn
  in
  Pmem.Device.set_fence_hook dev
    (Some (fun d -> List.iter check (Images.crash_images ~max_images:12 d)));
  ignore
    (List.fold_left
       (fun m op ->
         let m', r = F.Ref_fs.apply m op in
         let next = if r = Ok () then m' else m in
         legal := [ F.Ref_fs.capture m; F.Ref_fs.capture next ];
         ignore (F.Exec.apply_sq fs op : (unit, Vfs.Errno.t) result);
         next)
       F.Ref_fs.empty ops
      : F.Ref_fs.t);
  Pmem.Device.set_fence_hook dev None;
  !torn

let test_atomic_write_survives_data_compare () =
  Alcotest.(check int) "torn images" 0
    (torn_data_images
       W.
         [
           Create "/a";
           Write_atomic ("/a", 0, String.make 4096 'o');
           Write_atomic ("/a", 0, String.make 4096 'n');
           Write_atomic ("/a", 1000, "patch");
         ])

(* the control: plain overwrites MUST tear under data comparison *)
let test_regular_write_is_not_atomic () =
  Alcotest.(check bool) "plain overwrite tears" true
    (torn_data_images
       W.[ Create "/a"; Write ("/a", 0, String.make 4096 'o'); Write ("/a", 0, String.make 4096 'n') ]
    > 0)

(* under the metadata oracle COW-write workloads are as clean as the rest *)
let test_atomic_write_metadata_clean () =
  check_clean_all "atomic writes"
    W.
      [
        [ Create "/a"; Write_atomic ("/a", 0, String.make 5000 'x') ];
        [
          Create "/a";
          Write ("/a", 0, String.make 8192 'i');
          Write_atomic ("/a", 2048, String.make 4096 'j');
          Unlink "/a";
        ];
      ]

(* {1 Shrinking} *)

let test_shrinker_minimizes () =
  let noise =
    W.
      [
        Mkdir "/d";
        Create "/d/f";
        Write ("/d/f", 0, String.make 2000 'x');
        Create "/a";
        Rename ("/a", "/b");
        Buggy_unlink "/b";
        Create "/c";
      ]
  in
  let fails ops = (run ops).F.Exec.o_fail <> None in
  Alcotest.(check bool) "original fails" true (fails noise);
  let min_ops, runs = F.Shrink.minimize ~fails noise in
  Alcotest.(check bool) "still fails" true (fails min_ops);
  Alcotest.(check bool) "shrink used runs" true (runs > 0);
  if List.length min_ops > 3 then
    Alcotest.failf "expected <= 3 ops after shrinking, got %d:%s"
      (List.length min_ops)
      (Format.asprintf "%a" W.pp min_ops);
  (* the buggy op must survive: it is the cause *)
  Alcotest.(check bool) "buggy op kept" true
    (List.exists (fun op -> F.buggy_kind_of_op op <> None) min_ops)

(* {1 Reproducer round-trip} *)

let test_repro_roundtrip () =
  let ops =
    W.
      [
        Mkdir "/d";
        Create "/d/f";
        Write ("/d/f", 3, String.make 7 'z');
        Write_atomic ("/d/f", 0, String.make 9 'z');
        Truncate ("/d/f", 2);
        Rename ("/d/f", "/g");
        Link ("/g", "/h");
        Symlink ("/g", "/s");
        Buggy_write ("/g", String.make 4 'z');
        Buggy_create "/x";
        Buggy_unlink "/g";
        Unlink "/h";
        Rmdir "/nope";
      ]
  in
  match F.Repro.of_cli (F.Repro.to_cli ops) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok ops' ->
      if ops' <> ops then
        Alcotest.failf "round-trip mismatch:@.%a@.vs %a" W.pp ops W.pp ops'

let test_repro_rejects_garbage () =
  (match F.Repro.of_cli "create /a; frobnicate /b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  match F.Repro.of_cli "write /a zero 4" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

(* {1 Mutant re-discovery: the fuzzer's own acceptance test} *)

let rediscovery_cfg =
  { F.default_cfg with seed = 1; iters = 40; op_budget = 6; buggy_rate = 0.15 }

let rediscovery = lazy (F.run rediscovery_cfg)

let test_rediscovers_all_mutants () =
  let r = Lazy.force rediscovery in
  let kinds = F.kinds_found r in
  List.iter
    (fun k ->
      if not (List.mem k kinds) then
        Alcotest.failf "buggy-%s not re-discovered in %d iterations"
          (F.buggy_kind_name k) rediscovery_cfg.F.iters)
    F.all_buggy_kinds

let test_reproducers_are_small () =
  let r = Lazy.force rediscovery in
  Alcotest.(check bool) "found something" true (r.F.r_found <> []);
  List.iter
    (fun f ->
      let n = List.length f.F.fd_min in
      if n > 6 then
        Alcotest.failf "reproducer has %d ops (> 6):%s" n
          (Format.asprintf "%a" W.pp f.F.fd_min);
      (* each emitted reproducer must replay to a failure *)
      if (run f.F.fd_min).F.Exec.o_fail = None then
        Alcotest.failf "shrunk reproducer does not replay:%s"
          (Format.asprintf "%a" W.pp f.F.fd_min))
    r.F.r_found

(* {1 Determinism regression} *)

(* Same seed + same flags => bit-identical trace and report, including
   found-bug lists, shrunk reproducers and the rendered report text. *)
let test_fuzzer_deterministic () =
  let cfg = { F.default_cfg with seed = 21; iters = 8; op_budget = 6; buggy_rate = 0.3 } in
  let r1 = F.run cfg and r2 = F.run cfg in
  Alcotest.(check string) "rendered reports identical" (F.report_to_string r1)
    (F.report_to_string r2);
  Alcotest.(check bool) "reports structurally identical" true (r1 = r2);
  (* an 8-iteration run revisits plenty of recovered states: the verdict
     memo must actually fire *)
  Alcotest.(check bool) "states deduped" true
    (r1.F.r_harness.Crashcheck.Harness.states_deduped > 0)

(* Generation alone is deterministic too (guards the generator if the
   executor ever grows state). *)
let test_generator_deterministic () =
  let gen () =
    List.init 10 (fun i ->
        F.Gen.sequence
          (Random.State.make [| 0x5EED; 4; i |])
          { F.Gen.op_budget = 8; buggy_rate = 0.2 })
  in
  Alcotest.(check bool) "sequences identical" true (gen () = gen ())

(* A media-fault fuzzing run (torn/stuck sampling via crash_views_faulty)
   is deterministic as well and checks media images gracefully. *)
let test_fuzzer_with_media_faults () =
  let cfg =
    {
      F.default_cfg with
      seed = 3;
      iters = 4;
      op_budget = 5;
      buggy_rate = 0.;
      faults = Faults.Plan.make ~seed:3 ~torn_line_rate:0.3 ~stuck_line_rate:0.1 ();
    }
  in
  let r1 = F.run cfg and r2 = F.run cfg in
  Alcotest.(check bool) "media states explored" true
    (r1.F.r_harness.Crashcheck.Harness.media_states > 0);
  Alcotest.(check (list string)) "no violations" []
    (List.map
       (fun v -> v.Crashcheck.Harness.v_detail)
       r1.F.r_harness.Crashcheck.Harness.violations);
  Alcotest.(check bool) "deterministic" true (r1 = r2)

(* {1 Parallel sharding} *)

(* Sharding the seed space across domains is invisible in the merged,
   canonicalized report: -j 3 == -j 1, bit for bit. *)
let test_parallel_matches_sequential () =
  let cfg =
    { F.default_cfg with seed = 13; iters = 9; op_budget = 6; buggy_rate = 0.3 }
  in
  let r1 = F.Parallel.canonicalize (F.Parallel.run ~jobs:1 cfg) in
  let r3 = F.Parallel.canonicalize (F.Parallel.run ~jobs:3 cfg) in
  Alcotest.(check int) "same iters" r1.F.r_iters r3.F.r_iters;
  Alcotest.(check (list int)) "same found iterations"
    (List.map (fun f -> f.F.fd_iter) r1.F.r_found)
    (List.map (fun f -> f.F.fd_iter) r3.F.r_found);
  Alcotest.(check bool) "same shrunk reproducers" true
    (List.map (fun f -> f.F.fd_min) r1.F.r_found
    = List.map (fun f -> f.F.fd_min) r3.F.r_found);
  let counters r =
    Crashcheck.Harness.
      ( r.F.r_harness.crash_states,
        r.F.r_harness.media_states,
        r.F.r_harness.states_deduped,
        List.length r.F.r_harness.violations )
  in
  Alcotest.(check bool) "same merged counters" true (counters r1 = counters r3);
  Alcotest.(check int) "same sim time" r1.F.r_sim_ns r3.F.r_sim_ns

(* {1 Work-stealing scheduler} *)

(* jobs is clamped to the iteration count: -j 8 over 3 iterations must
   run exactly 3 shards (no domain spawned idle), execute every iteration
   once, and still produce the canonicalized -j 1 report. *)
let test_jobs_clamped_to_work () =
  let cfg =
    { F.default_cfg with seed = 17; iters = 3; op_budget = 5; buggy_rate = 0.2 }
  in
  let r8, stats = F.Parallel.run_stats ~jobs:8 cfg in
  Alcotest.(check int) "shards spawned" 3 (List.length stats);
  Alcotest.(check int) "every iteration ran exactly once" 3
    (List.fold_left (fun acc s -> acc + s.F.Parallel.ss_iters) 0 stats);
  let r1, stats1 = F.Parallel.run_stats ~jobs:1 cfg in
  Alcotest.(check int) "-j 1 is one shard" 1 (List.length stats1);
  Alcotest.(check bool) "report == -j 1" true (r8 = r1)

(* -j N == -j 1 (both post-canonicalize) across seeds and a media-fault
   plan: the work-stealing partition, the per-shard device pools and the
   carried memo tables are all invisible in the report. *)
let test_parallel_determinism_matrix () =
  let base seed = { F.default_cfg with seed; iters = 6; op_budget = 5; buggy_rate = 0.25 } in
  let cfgs =
    [
      ("seed 2", base 2);
      ("seed 11", base 11);
      ( "media faults",
        {
          (base 7) with
          F.buggy_rate = 0.;
          faults =
            Faults.Plan.make ~seed:7 ~torn_line_rate:0.25 ~stuck_line_rate:0.1 ();
        } );
    ]
  in
  List.iter
    (fun (name, cfg) ->
      let r1 = F.Parallel.run ~jobs:1 cfg in
      let rn = F.Parallel.run ~jobs:4 cfg in
      if r1 <> rn then Alcotest.failf "%s: -j 4 diverged from -j 1" name)
    cfgs

(* ?progress is global: the shared atomic counter reports every completed
   count 1..iters exactly once with total = iters, whichever domain
   finished the iteration (the old striding scheduler only reported
   shard 0's slice). The callback is serialized by the scheduler's mutex,
   so appending to a plain ref is safe. *)
let test_global_progress () =
  let cfg =
    { F.default_cfg with seed = 9; iters = 7; op_budget = 4; buggy_rate = 0.1 }
  in
  let seen = ref [] in
  let progress c total = seen := (c, total) :: !seen in
  ignore (F.Parallel.run ~jobs:3 ~progress cfg);
  Alcotest.(check (list int))
    "each completed count reported exactly once"
    (List.init cfg.F.iters (fun i -> i + 1))
    (List.sort compare (List.map fst !seen));
  Alcotest.(check bool) "total is always cfg.iters" true
    (List.for_all (fun (_, t) -> t = cfg.F.iters) !seen)

(* Pooling is invisible in outcomes: a warm pooled run (the device was
   dirtied by a previous workload, then template-reset; memo tables
   carried over) is bit-identical — report, dedup counter, o_sim_ns —
   to a fresh-device run of the same workload. *)
let test_pool_transparent () =
  let ops1 =
    W.
      [
        Mkdir "/d";
        Create "/d/a";
        Write ("/d/a", 0, String.make 600 'x');
        Rename ("/d/a", "/b");
      ]
  in
  let ops2 = W.[ Create "/a"; Link ("/a", "/h"); Buggy_unlink "/a" ] in
  let pool = F.Exec.Pool.create () in
  ignore (F.Exec.run ~pool ops1 : F.Exec.outcome);
  let warm = F.Exec.run ~pool ops2 in
  let fresh = F.Exec.run ops2 in
  Alcotest.(check bool) "warm pooled run == fresh run" true (warm = fresh);
  Alcotest.(check bool) "workload found its violation" true
    (warm.F.Exec.o_fail <> None);
  (* Phase B flips the pooled device's durable bits; the next reset must
     leave no trace of them *)
  let faults = Faults.Plan.make ~seed:11 ~bit_flips:2 () in
  let pool = F.Exec.Pool.create () in
  let first = F.Exec.run ~pool ~faults ops1 in
  Alcotest.(check int) "Phase B flipped and caught both inodes" 2
    first.F.Exec.o_report.Crashcheck.Harness.faults_detected;
  let warm = F.Exec.run ~pool ~faults ops1 in
  let fresh = F.Exec.run ~faults ops1 in
  Alcotest.(check bool) "warm pooled run after Phase B == fresh run" true (warm = fresh)

let () =
  Alcotest.run "fuzz"
    [
      ( "model",
        [
          Alcotest.test_case "capture matches squirrelfs" `Quick
            test_model_capture_matches_squirrelfs;
          Alcotest.test_case "errno parity" `Quick test_model_errno_parity;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean sequences pass" `Quick test_clean_sequences_pass;
          Alcotest.test_case "staged append crash-consistent" `Quick
            test_staged_append_crash_consistent;
          Alcotest.test_case "staged append passes SSU" `Quick
            test_staged_append_ssu_clean;
          Alcotest.test_case "buggy create caught" `Quick test_buggy_create_fails;
          Alcotest.test_case "buggy unlink caught" `Quick test_buggy_unlink_fails;
          Alcotest.test_case "buggy write caught" `Quick test_buggy_write_fails;
          Alcotest.test_case "ENOSPC is benign divergence" `Quick
            test_enospc_is_divergence_not_violation;
        ] );
      ( "clean",
        [
          Alcotest.test_case "create workloads" `Quick test_create_workloads;
          Alcotest.test_case "write workloads" `Quick test_write_workloads;
          Alcotest.test_case "unlink workloads" `Quick test_unlink_workloads;
          Alcotest.test_case "rename workloads" `Quick test_rename_workloads;
          Alcotest.test_case "systematic sample" `Slow test_systematic_sample;
          Alcotest.test_case "random fuzz" `Slow test_random_fuzz;
        ] );
      ( "buggy",
        [
          Alcotest.test_case "buggy create detected" `Quick test_buggy_create_detected;
          Alcotest.test_case "buggy unlink detected" `Quick test_buggy_unlink_detected;
          Alcotest.test_case "buggy write detected" `Quick test_buggy_write_detected;
          Alcotest.test_case "correct versions pass" `Quick test_correct_versions_pass;
        ] );
      ( "cow-writes",
        [
          Alcotest.test_case "atomic under data compare" `Quick
            test_atomic_write_survives_data_compare;
          Alcotest.test_case "plain write tears (control)" `Quick
            test_regular_write_is_not_atomic;
          Alcotest.test_case "metadata oracle clean" `Quick test_atomic_write_metadata_clean;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimizes to the cause" `Quick test_shrinker_minimizes;
          Alcotest.test_case "repro round-trip" `Quick test_repro_roundtrip;
          Alcotest.test_case "repro rejects garbage" `Quick test_repro_rejects_garbage;
        ] );
      ( "rediscovery",
        [
          Alcotest.test_case "all Buggy_* mutants found" `Slow
            test_rediscovers_all_mutants;
          Alcotest.test_case "reproducers <= 6 ops and replay" `Slow
            test_reproducers_are_small;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same report" `Quick
            test_fuzzer_deterministic;
          Alcotest.test_case "generator" `Quick test_generator_deterministic;
          Alcotest.test_case "media faults deterministic" `Quick
            test_fuzzer_with_media_faults;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "-j 3 == -j 1 canonicalized" `Slow
            test_parallel_matches_sequential;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "jobs clamped to iteration count" `Quick
            test_jobs_clamped_to_work;
          Alcotest.test_case "-j 4 == -j 1 across seeds and faults" `Slow
            test_parallel_determinism_matrix;
          Alcotest.test_case "global progress counter" `Quick
            test_global_progress;
          Alcotest.test_case "device pool transparent" `Quick
            test_pool_transparent;
        ] );
    ]
