(* Fuzzer.Enum: bounded black-box enumeration.

   - the pre-enumeration 14-op alphabet is pinned as a prefix of the
     canonical universe, so the old systematic pair set is a subset of
     the new seq-2 tier (one source of truth, no silent alphabet drift);
   - the enumeration work list is duplicate-free and its coverage
     account reconciles exactly, at every depth, with and without the
     mutant extension;
   - a clean seq-2 sweep is quiet through both the crash oracle and the
     SSU trace checker;
   - the mutant sweep, at the mutant budget, rediscovers all four
     Buggy_* kinds through BOTH checkers, with shrunk reproducers of at
     most 3 ops;
   - [-j N] reports are bit-identical to [-j 1] (QCheck over jobs);
   - a depth other than 2 or 3 is refused, so the coverage record
     cannot misreport its depth. *)

module W = Crashcheck.Workload
module E = Fuzzer.Enum

(* The alphabet as it stood before the op-surface widening (PR 7's
   systematic pair set). A change here must be deliberate: it silently
   shrinks or shifts every historic coverage claim. *)
let old_alphabet =
  W.
    [
      Create "/B";
      Mkdir "/E";
      Unlink "/A";
      Rmdir "/D";
      Rename ("/A", "/B");
      Rename ("/A", "/D/A2");
      Rename ("/D", "/E2");
      Link ("/A", "/B2");
      Symlink ("/A", "/S");
      Write ("/A", 0, String.make 100 'w');
      Write ("/A", 4090, String.make 100 'x');
      Write ("/B", 0, String.make 50 'y');
      Truncate ("/A", 10);
      Truncate ("/A", 9000);
    ]

let test_old_alphabet_pinned () =
  let n = List.length old_alphabet in
  Alcotest.(check bool) "alphabet grew, not shrank" true (List.length W.alphabet > n);
  List.iteri
    (fun i op ->
      Alcotest.(check bool)
        (Format.asprintf "old op %d (%a) still at index %d" i W.pp_op op i)
        true
        (List.nth W.alphabet i = op))
    old_alphabet

let test_old_pairs_subset () =
  (* every historic systematic pair is (a) still in systematic_pairs and
     (b) inside Enum's seq-2 universe (enumerated or skip-accounted) *)
  let sys = W.systematic_pairs () in
  let _, work = E.build { E.default_cfg with E.depth = 2 } in
  let enumerated = Hashtbl.create 512 in
  Array.iter (fun seq -> Hashtbl.replace enumerated seq ()) work;
  let m0 = E.model0 () in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let pair = W.setup @ [ a; b ] in
          Alcotest.(check bool) "old pair in systematic_pairs" true (List.mem pair sys);
          let covered =
            Hashtbl.mem enumerated [ a; b ]
            (* skipped pairs are exactly those whose first op is refused
               by the post-setup model: check the rule, not the count *)
            || Result.is_error (snd (Fuzzer.Ref_fs.apply m0 a))
          in
          Alcotest.(check bool)
            (Format.asprintf "old pair (%a, %a) covered by Enum" W.pp_op a W.pp_op b)
            true covered)
        old_alphabet)
    old_alphabet

(* {2 Work-list integrity (pure, so cheap enough for QCheck)} *)

let cfg_gen =
  QCheck.make ~print:(fun (d, b) -> Printf.sprintf "depth=%d buggy=%b" d b)
    (QCheck.Gen.oneofl [ (2, false); (2, true); (3, false); (3, true) ])

let prop_worklist =
  QCheck.Test.make ~name:"enum work list duplicate-free and reconciling" ~count:4 cfg_gen
    (fun (depth, buggy) ->
      let cfg = { E.default_cfg with E.depth; buggy } in
      let tiers, work = E.build cfg in
      let seen = Hashtbl.create (Array.length work) in
      Array.iter
        (fun seq ->
          if Hashtbl.mem seen seq then QCheck.Test.fail_report "duplicate sequence";
          Hashtbl.replace seen seq ())
        work;
      let sum f = List.fold_left (fun a t -> a + f t) 0 tiers in
      List.for_all
        (fun t -> t.E.t_total = t.E.t_skipped + t.E.t_enumerated)
        tiers
      && Array.length work = sum (fun t -> t.E.t_enumerated)
      && List.length tiers = cfg.E.depth)

(* Complete seq-3: every third op runs after each of the 285 feasible
   prefixes, whole-volume ops included — they name no path, and a
   relatedness restriction over shared paths would skip all of them. *)
let test_seq3_complete () =
  let tiers, work = E.build { E.default_cfg with E.depth = 3 } in
  let t3 = List.find (fun t -> t.E.t_depth = 3) tiers in
  Alcotest.(check int) "seq-3 enumerated" 7125 t3.E.t_enumerated;
  Alcotest.(check int) "seq-3 skipped" 8500 t3.E.t_skipped;
  let seqs = Hashtbl.create (Array.length work) in
  Array.iter (fun seq -> Hashtbl.replace seqs seq ()) work;
  let m0 = E.model0 () in
  let prefixes =
    List.concat_map
      (fun a ->
        let ma, ra = Fuzzer.Ref_fs.apply m0 a in
        if Result.is_error ra then []
        else
          List.filter_map
            (fun b ->
              if Result.is_ok (snd (Fuzzer.Ref_fs.apply ma b)) then Some [ a; b ] else None)
            W.alphabet)
      W.alphabet
  in
  Alcotest.(check int) "feasible prefixes" 285 (List.length prefixes);
  List.iter
    (fun prefix ->
      List.iter
        (fun op ->
          Alcotest.(check bool)
            (Format.asprintf "%a @@ [%a] enumerated" W.pp prefix W.pp_op op)
            true
            (Hashtbl.mem seqs (prefix @ [ op ])))
        [ W.Snapshot "s0"; W.Rollback "s0" ])
    prefixes

(* {2 Full sweeps} *)

(* fewer images per fence than the CLI default: same coverage shape,
   faster test wall clock *)
let test_cfg = { E.default_cfg with E.max_images = 4 }

let test_clean_sweep () =
  let r = E.run test_cfg in
  Alcotest.(check bool) "reconciles" true (E.reconciles r);
  Alcotest.(check int) "alphabet" (List.length W.alphabet) r.E.e_alphabet;
  let n = r.E.e_alphabet in
  Alcotest.(check int) "seq-1 + seq-2 closed form" (n + (n * n)) r.E.e_total;
  Alcotest.(check int) "executed = enumerated" r.E.e_enumerated r.E.e_executed;
  Alcotest.(check bool) "dedup non-negative" true (r.E.e_deduped >= 0);
  Alcotest.(check int) "every sequence SSU-checked" r.E.e_executed r.E.e_ssu_checked;
  Alcotest.(check int) "oracle quiet" 0 (List.length r.E.e_found);
  Alcotest.(check int) "trace checker quiet" 0 (List.length r.E.e_ssu_found);
  Alcotest.(check int) "no harness violations" 0
    (List.length r.E.e_harness.Crashcheck.Harness.violations)

(* [fuzz --enum --expect-buggy]'s leg *)
let test_mutant_rediscovery () =
  let cfg = { E.default_cfg with E.buggy = true } in
  let r = E.run cfg in
  Alcotest.(check bool) "reconciles" true (E.reconciles r);
  Alcotest.(check int) "alphabet gains a mutant per kind" (List.length W.alphabet + 4)
    r.E.e_alphabet;
  List.iter
    (fun f ->
      Alcotest.(check bool) "reproducer at most 3 ops" true (List.length f.Fuzzer.fd_min <= 3);
      Alcotest.(check bool)
        "reproducer contains a mutant op" true
        (List.exists (fun op -> Fuzzer.buggy_kind_of_op op <> None) f.Fuzzer.fd_min))
    r.E.e_found;
  let a = E.account cfg r in
  Alcotest.(check (list string)) "no reproducer breaks the rules" [] a.Fuzzer.a_faults;
  let flagged pick =
    List.filter_map
      (fun v -> if pick v then Some (Fuzzer.buggy_kind_name v.Fuzzer.k_kind) else None)
      a.Fuzzer.a_rows
  in
  let all = [ "create"; "unlink"; "write"; "snap" ] in
  Alcotest.(check (list string)) "oracle rediscovers all mutants" all
    (flagged (fun v -> v.Fuzzer.k_oracle));
  Alcotest.(check (list string)) "trace checker rediscovers all mutants" all
    (flagged (fun v -> v.Fuzzer.k_trace))

(* {2 Sharding determinism} *)

let prop_jobs_identity =
  let reference = lazy (E.run ~jobs:1 test_cfg) in
  QCheck.Test.make ~name:"enum -j N bit-identical to -j 1" ~count:3
    (QCheck.make ~print:(Printf.sprintf "jobs=%d") QCheck.Gen.(int_range 2 4))
    (fun jobs -> E.run ~jobs test_cfg = Lazy.force reference)

let test_depth_guard () =
  List.iter
    (fun depth ->
      Alcotest.check_raises
        (Printf.sprintf "depth %d refused" depth)
        (Invalid_argument "Fuzzer.Enum: depth must be 2 or 3")
        (fun () -> ignore (E.run { test_cfg with E.depth })))
    [ 0; 1; 4 ]

let () =
  Alcotest.run "enum"
    [
      ( "universe",
        [
          Alcotest.test_case "old alphabet pinned as prefix" `Quick test_old_alphabet_pinned;
          Alcotest.test_case "old pair set covered" `Quick test_old_pairs_subset;
          QCheck_alcotest.to_alcotest prop_worklist;
          Alcotest.test_case "seq-3 complete over feasible prefixes" `Quick
            test_seq3_complete;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "clean seq-2 sweep quiet" `Quick test_clean_sweep;
          Alcotest.test_case "mutants rediscovered, <=3-op reproducers" `Quick
            test_mutant_rediscovery;
        ] );
      ("sharding", [ QCheck_alcotest.to_alcotest prop_jobs_identity ]);
      ("depth", [ Alcotest.test_case "depth other than 2 or 3 refused" `Quick test_depth_guard ]);
    ]
