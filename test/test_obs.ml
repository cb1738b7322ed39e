(* Observability layer: golden persist traces for the four core ops
   (pinned canonical event streams, accepted by the trace-driven SSU
   checker), metrics-registry algebra, and QCheck properties tying the
   whole layer together: tracing is deterministic and outcome-invisible,
   metrics merge is associative/commutative, and the SSU checker rejects
   every Buggy_* mutant from the trace alone while accepting every clean
   workload. *)

module W = Crashcheck.Workload
module F = Fuzzer
module Sq = Squirrelfs
module Device = Pmem.Device

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected %s" (Vfs.Errno.to_string e)

(* {1 Golden traces}

   One op traced on a fixed 256 KiB volume, the setup ops running
   untraced first so each golden stream is just the snapshot preamble
   plus that op's persist activity. Canonical lines are timestamp-free
   ({!Obs.Event.canonical}), so the pin survives latency-model changes
   but breaks on any reordering, added store, or dropped flush. *)

let golden name ~setup ~op ~expect () =
  let dev = Device.create ~size:(256 * 1024) () in
  Sq.mkfs dev;
  let fs = ok (Sq.mount dev) in
  List.iter (fun o -> ignore (F.Exec.apply_sq fs o : (unit, _) result)) setup;
  let r = Obs.Recorder.create () in
  Sq.Tracing.attach fs r;
  op fs;
  Sq.Tracing.detach fs;
  let events = Obs.Recorder.to_list r in
  (match Obs.Ssu.check events with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "%s: SSU checker rejected a legal trace: %a" name
        (fun ppf -> Obs.Ssu.pp_violation ppf)
        v);
  let got = List.map Obs.Event.canonical events in
  if got <> expect then begin
    (* print the actual stream so a legitimate change can be re-pinned *)
    Format.eprintf "=== %s: actual canonical trace ===@." name;
    List.iter (fun l -> Format.eprintf "%s@." l) got;
    let rec first_diff i = function
      | [], [] -> ()
      | g :: gs, e :: es when g = e -> first_diff (i + 1) (gs, es)
      | g :: _, e :: _ ->
          Alcotest.failf "%s: line %d differs:@.got      %s@.expected %s" name i g e
      | g :: _, [] -> Alcotest.failf "%s: extra line %d: %s" name i g
      | [], e :: _ -> Alcotest.failf "%s: missing line %d: %s" name i e
    in
    first_diff 0 (got, expect);
    Alcotest.failf "%s: traces differ" name
  end

let golden_create = Golden_traces.create
let golden_write = Golden_traces.write
let golden_fsync = Golden_traces.fsync
let golden_rename = Golden_traces.rename

let golden_cases =
  [
    Alcotest.test_case "create" `Quick
      (golden "create" ~setup:[]
         ~op:(fun fs -> ok (Sq.create fs "/a"))
         ~expect:golden_create);
    Alcotest.test_case "write" `Quick
      (golden "write" ~setup:[ W.Create "/a" ]
         ~op:(fun fs -> ignore (ok (Sq.write fs "/a" ~off:0 "hello") : int))
         ~expect:golden_write);
    Alcotest.test_case "fsync" `Quick
      (golden "fsync"
         ~setup:[ W.Create "/a"; W.Write ("/a", 0, "hello") ]
         ~op:(fun fs -> ok (Sq.fsync fs "/a"))
         ~expect:golden_fsync);
    Alcotest.test_case "rename" `Quick
      (golden "rename" ~setup:[ W.Create "/a" ]
         ~op:(fun fs -> ok (Sq.rename fs "/a" "/b"))
         ~expect:golden_rename);
  ]

(* {1 Metrics registry} *)

let test_metrics_basic () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "c" 1;
  Obs.Metrics.incr m "c" 2;
  Alcotest.(check int) "counter" 3 (Obs.Metrics.counter m "c");
  Alcotest.(check int) "absent counter" 0 (Obs.Metrics.counter m "nope");
  List.iter (fun v -> Obs.Metrics.observe m "lat" v) [ 1; 2; 4; 100; 10_000 ];
  match Obs.Metrics.hist m "lat" with
  | None -> Alcotest.fail "hist missing"
  | Some h ->
      Alcotest.(check int) "count" 5 h.Obs.Metrics.h_count;
      Alcotest.(check int) "min" 1 h.Obs.Metrics.h_min;
      Alcotest.(check int) "max" 10_000 h.Obs.Metrics.h_max;
      Alcotest.(check int) "sum" 10_107 h.Obs.Metrics.h_sum;
      let p100 = Obs.Metrics.quantile h 1.0 in
      Alcotest.(check bool) "p100 upper-bounds max" true (p100 >= 10_000)

let test_metrics_merge_identity () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "c" 7;
  Obs.Metrics.observe m "h" 42;
  let empty = Obs.Metrics.create () in
  Alcotest.(check bool) "m + 0 = m" true
    (Obs.Metrics.equal (Obs.Metrics.merge m empty) m);
  Alcotest.(check bool) "0 + m = m" true
    (Obs.Metrics.equal (Obs.Metrics.merge empty m) m)

let metrics_cases =
  [
    Alcotest.test_case "counters and histograms" `Quick test_metrics_basic;
    Alcotest.test_case "merge identity" `Quick test_metrics_merge_identity;
  ]

(* {1 QCheck properties} *)

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 10_000)

let gen_ops ?(buggy_rate = 0.2) seed =
  let rng = Random.State.make [| 0xB5; seed |] in
  F.Gen.sequence rng { F.Gen.op_budget = 6; buggy_rate }

let traced_run ?metrics ops =
  let r = Obs.Recorder.create () in
  let out = F.Exec.run ~trace:r ?metrics ops in
  (out, Obs.Recorder.to_list r)

(* Same seed, two traced runs: byte-identical event streams (timestamps
   included — nothing in the stack reads a wall clock). *)
let prop_trace_deterministic =
  QCheck.Test.make ~count:30 ~name:"trace is deterministic" seed_arb (fun seed ->
      let ops = gen_ops seed in
      let _, e1 = traced_run ops in
      let _, e2 = traced_run ops in
      List.length e1 = List.length e2 && List.for_all2 Obs.Event.equal e1 e2)

(* Tracing and metrics must be invisible: the outcome of a traced +
   metered run is structurally identical to the bare run's. *)
let prop_observation_invisible =
  QCheck.Test.make ~count:30 ~name:"tracing/metrics don't perturb outcomes"
    seed_arb (fun seed ->
      let ops = gen_ops seed in
      let bare = F.Exec.run ops in
      let seen, _ = traced_run ~metrics:(Obs.Metrics.create ()) ops in
      bare = seen)

(* Random registries via random counter/observation programs. *)
let metrics_arb =
  let gen =
    QCheck.Gen.(
      list_size (0 -- 40)
        (pair (int_bound 2) (pair (int_bound 3) (1 -- 100_000)))
      >|= fun prog ->
      let m = Obs.Metrics.create () in
      List.iter
        (fun (kind, (name, v)) ->
          let name = Printf.sprintf "n%d" name in
          if kind = 0 then Obs.Metrics.incr m name v else Obs.Metrics.observe m name v)
        prog;
      m)
  in
  QCheck.make ~print:(fun m -> Format.asprintf "%a" Obs.Metrics.pp m) gen

let prop_merge_assoc =
  QCheck.Test.make ~count:100 ~name:"metrics merge is associative"
    QCheck.(triple metrics_arb metrics_arb metrics_arb)
    (fun (a, b, c) ->
      Obs.Metrics.equal
        (Obs.Metrics.merge a (Obs.Metrics.merge b c))
        (Obs.Metrics.merge (Obs.Metrics.merge a b) c))

let prop_merge_comm =
  QCheck.Test.make ~count:100 ~name:"metrics merge is commutative"
    QCheck.(pair metrics_arb metrics_arb)
    (fun (a, b) ->
      Obs.Metrics.equal (Obs.Metrics.merge a b) (Obs.Metrics.merge b a))

(* Each Buggy_* mutant, embedded in a minimal randomized context, must be
   flagged by the SSU checker from the trace alone — no oracle, no crash
   images. *)
let name_arb =
  QCheck.make ~print:Fun.id
    QCheck.Gen.(
      string_size ~gen:(char_range 'a' 'z') (1 -- 8) >|= fun s -> "/" ^ s)

let prop_checker_rejects_buggy =
  QCheck.Test.make ~count:25 ~name:"SSU checker rejects every Buggy_* mutant"
    QCheck.(pair name_arb (QCheck.make QCheck.Gen.(1 -- 300)))
    (fun (p, n) ->
      let case : W.buggy_kind -> W.op list = function
        (* the create mutant needs an existing root dirpage: the very
           first create allocates one with enough fencing to be
           accidentally correct, and the crash oracle agrees a lone
           Buggy_create on an empty volume is clean *)
        | `Create -> [ W.Create "/Z"; W.Buggy_create p ]
        | `Unlink -> [ W.Create p; W.Buggy_unlink p ]
        | `Write -> [ W.Create p; W.Buggy_write (p, String.make n 'z') ]
        (* R-snap needs no second cache line: any name will do *)
        | `Snap -> [ W.Buggy_snap (String.sub p 1 (String.length p - 1)) ]
      in
      List.for_all
        (fun k ->
          let _, events = traced_run (case k) in
          Result.is_error (Obs.Ssu.check events))
        W.all_buggy_kinds)

(* Dually: clean workloads (buggy_rate 0) must always be accepted. *)
let prop_checker_accepts_clean =
  QCheck.Test.make ~count:40 ~name:"SSU checker accepts clean workloads" seed_arb
    (fun seed ->
      let ops = gen_ops ~buggy_rate:0. seed in
      let _, events = traced_run ops in
      match Obs.Ssu.check events with
      | Ok () -> true
      | Error v ->
          QCheck.Test.fail_reportf "clean trace rejected: %a ops:%a"
            Obs.Ssu.pp_violation v W.pp ops)

(* {1 R-unlink scope}

   R-unlink guards "links >= references" in every crash state, so it
   judges a link-count drop only on an inode that some dentry references,
   durably or through a stored but undrained commit. *)

(* Rollback's recovery reclaims the inode of a tmpfile that was anonymous
   at capture: its links drop 1 -> 0 with no dentry ever naming it. *)
let test_rollback_reclaims_anon_inode () =
  let _, events =
    traced_run (W.setup @ [ W.Tmpfile "t0"; W.Snapshot "s0"; W.Rollback "s0" ])
  in
  match Obs.Ssu.check events with
  | Ok () -> ()
  | Error v -> Alcotest.failf "rollback trace rejected: %a" Obs.Ssu.pp_violation v

(* A hand-built trace on a tiny geometry: root dir (ino 1) with its
   dirpage (page 0), and an initialized file inode 2 with one link. *)
let ev k = { Obs.Event.ts = 0; k }

let u64 v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Bytes.to_string b

let store off v = ev (Obs.Event.Store { off; data = u64 v; nt = false; coarse = false })
let links_off ino = 4096 + ((ino - 1) * 128) + 16
let dentry_ino_off slot = 16384 + (slot * 128) + 112

let preamble =
  List.map ev
    Obs.Event.
      [
        Meta
          [
            ("inode_table_off", 4096);
            ("inode_count", 8);
            ("page_desc_off", 8192);
            ("page_count", 4);
            ("data_off", 16384);
          ];
        Snap_inode { ino = 1; kind = 2; links = 2; size = 0 };
        Snap_page { page = 0; ino = 1; kind = 2; offset = 0 };
        Snap_inode { ino = 2; kind = 1; links = 1; size = 0 };
      ]

let rule events =
  match Obs.Ssu.check events with Ok () -> "ok" | Error v -> v.Obs.Ssu.v_rule

let test_unlink_synthetic () =
  let drop = store (links_off 2) 0 in
  Alcotest.(check string) "unreferenced inode: drop allowed" "ok" (rule (preamble @ [ drop ]));
  Alcotest.(check string) "only reference stored, not drained" "R-unlink"
    (rule
       (preamble
       @ [
           store (dentry_ino_off 0) 2;
           ev (Obs.Event.Flush { off = dentry_ino_off 0; len = 8 });
           drop;
         ]));
  Alcotest.(check string) "durably referenced (Buggy_unlink shape)" "R-unlink"
    (rule (preamble @ [ ev (Obs.Event.Snap_dentry { page = 0; slot = 0; ino = 2 }); drop ]))

let unlink_scope_cases =
  [
    Alcotest.test_case "rollback reclaims an anonymous inode" `Quick
      test_rollback_reclaims_anon_inode;
    Alcotest.test_case "synthetic link-count drops" `Quick test_unlink_synthetic;
  ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_trace_deterministic;
      prop_observation_invisible;
      prop_merge_assoc;
      prop_merge_comm;
      prop_checker_rejects_buggy;
      prop_checker_accepts_clean;
    ]

let () =
  Alcotest.run "obs"
    [
      ("golden traces", golden_cases);
      ("metrics", metrics_cases);
      ("R-unlink", unlink_scope_cases);
      ("properties", qcheck_cases);
    ]
