(* Tests of the benchmark's own arithmetic: the tail-percentile rule,
   the geomean, the failure taxonomy, and exact additivity of the
   simulated-time split on a fixed op sequence. *)

open Perfbench

let sorted n = Array.init n (fun i -> i + 1)

let test_percentile () =
  Alcotest.(check int) "median of 1..100" 50 (Stats.percentile (sorted 100) 50.);
  Alcotest.(check int) "p99 of 1..1000" 990 (Stats.percentile (sorted 1000) 99.);
  Alcotest.(check int) "p100 is the max" 7 (Stats.percentile (sorted 7) 100.);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Stats.beyond 1000 99.);
  let tail n = Stats.tail_percentile n in
  Alcotest.(check (option (float 0.))) "1000 samples support p99" (Some 99.) (tail 1000);
  Alcotest.(check (option (float 0.))) "999 samples fall back to p95" (Some 95.) (tail 999);
  Alcotest.(check (option (float 0.))) "200 samples support p95" (Some 95.) (tail 200);
  Alcotest.(check (option (float 0.))) "100 samples support p90" (Some 90.) (tail 100);
  Alcotest.(check (option (float 0.))) "20 samples support the median" (Some 50.) (tail 20);
  Alcotest.(check (option (float 0.))) "19 samples support nothing" None (tail 19);
  Alcotest.(check (option (float 0.))) "cap holds p99.9 back" (Some 99.) (tail 100_000);
  Alcotest.(check (option (float 0.)))
    "raised cap allows p99.9" (Some 99.9)
    (Stats.tail_percentile ~cap:99.9 100_000);
  Alcotest.(check (option (float 0.)))
    "cap at p95" (Some 95.)
    (Stats.tail_percentile ~cap:95. 100_000)

(* Repetitions whose host was fast (100) for some of their samples and
   slow (200) for the rest: with [over] low, the percentile reads the
   quiet repetitions, even when most of the run was slow. *)
let test_repeated_percentile () =
  let rep fast = Array.init 1000 (fun i -> if i < fast then 100 else 200) in
  Alcotest.(check (float 1e-9)) "median of each, median over them" 200.
    (Stats.repeated_percentile [ rep 1000; rep 0; rep 0 ] 50.);
  Alcotest.(check (float 1e-9)) "quiet repetitions, one in three" 100.
    (Stats.repeated_percentile ~over:25. [ rep 1000; rep 0; rep 0 ] 50.);
  Alcotest.(check (float 1e-9)) "a repetition's own percentile" 100.
    (Stats.repeated_percentile ~over:10. [ rep 600; rep 400 ] 50.);
  Alcotest.(check (float 1e-9)) "no quiet repetition" 200.
    (Stats.repeated_percentile ~over:10. [ rep 0; rep 400 ] 50.);
  Alcotest.(check (float 1e-9)) "p50 of floats" 2. (Stats.percentile_f [ 3.; 1.; 2.; 4. ] 50.)

(* Repeated work: each segment counts at its quiet repetitions' time,
   even when no single repetition was quiet throughout. *)
let test_repeated_rate () =
  let ms = 1_000_000 in
  let reps = [ [| ms; ms; 3 * ms; 3 * ms |]; [| 3 * ms; 3 * ms; ms; ms |] ] in
  Alcotest.(check (float 1e-6)) "best of each segment" 1000.
    (Stats.repeated_rate ~q:50. ~seg:2 reps);
  Alcotest.(check (float 1e-6)) "the time it sums" (float_of_int (4 * ms))
    (Stats.repeated_ns ~q:50. ~seg:1 reps);
  Alcotest.(check (float 1e-6)) "one segment: the better repetition" 500.
    (Stats.repeated_rate ~q:50. ~seg:4 reps);
  Alcotest.(check (float 1e-6)) "a short last segment" 1000.
    (Stats.repeated_rate ~q:50. ~seg:2 [ [| ms; ms; ms |]; [| 2 * ms; 2 * ms; ms |] ]);
  Alcotest.check_raises "lengths differ"
    (Invalid_argument "Stats.repeated_rate: repetitions differ in length") (fun () ->
      ignore (Stats.repeated_rate ~seg:1 [ [| 1 |]; [| 1; 1 |] ]))

let test_geomean () =
  Alcotest.(check (float 1e-9)) "geomean 1 4 16" 4. (Stats.geomean [ 1.; 4.; 16. ]);
  Alcotest.(check (float 1e-9)) "geomean of one" 3.5 (Stats.geomean [ 3.5 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.geomean: needs positive values")
    (fun () -> ignore (Stats.geomean []));
  Alcotest.check_raises "zero" (Invalid_argument "Stats.geomean: needs positive values")
    (fun () -> ignore (Stats.geomean [ 1.; 0. ]));
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Stats.median_f [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 1e-9)) "median odd" 3. (Stats.median_f [ 5.; 1.; 3. ])

let test_taxonomy () =
  let o = Outcome.create () in
  List.iter (Outcome.record o)
    [ Ok (); Ok (); Error Vfs.Errno.ENOENT; Error Vfs.Errno.EEXIST; Error Vfs.Errno.EBADF;
      Error Vfs.Errno.ENOSPC; Error Vfs.Errno.EIO; Error Vfs.Errno.EIO ];
  Outcome.raised o (Failure "allocator raced");
  Alcotest.(check int) "ok" 2 o.Outcome.ok;
  Alcotest.(check int) "semantic" 3 o.Outcome.semantic;
  Alcotest.(check int) "failed" 4 o.Outcome.failed;
  Alcotest.(check int) "attempted" 9 (Outcome.attempted o);
  Alcotest.(check (list (pair string int)))
    "reasons" [ ("EIO", 2); ("ENOSPC", 1); ("raised Failure(\"allocator raced\")", 1) ]
    (Outcome.reasons o)

(* A fixed op sequence's Optane cost equals its charge-only cost plus
   each single-term profile's excess over it, to the nanosecond. *)
let test_additive_split () =
  let ops fs =
    let ok = function Ok _ -> () | Error e -> failwith (Vfs.Errno.to_string e) in
    ok (Squirrelfs.mkdir fs "/d");
    ok (Squirrelfs.create fs "/d/a");
    ok (Squirrelfs.write fs "/d/a" ~off:0 (String.make 5000 'x'));
    ok (Squirrelfs.read fs "/d/a" ~off:0 ~len:5000);
    ok (Squirrelfs.open_file fs "h" "/d/a");
    ok (Squirrelfs.write_h fs "h" ~off:5000 (String.make 100 'y'));
    ok (Squirrelfs.rename fs "/d/a" "/d/b");
    ok (Squirrelfs.stat fs "/d/b");
    ok (Squirrelfs.unlink fs "/d/b")
  in
  let cost latency =
    let dev = Pmem.Device.create ~latency ~size:(4 * 1024 * 1024) () in
    Squirrelfs.mkfs dev;
    match Squirrelfs.mount dev with
    | Error _ -> Alcotest.fail "mount"
    | Ok fs ->
        let t0 = Pmem.Device.now_ns dev in
        ops fs;
        Pmem.Device.now_ns dev - t0
  in
  let zero = cost Pmem.Latency.zero in
  let parts = List.map (fun (_, l) -> cost l - zero) Wl_paper.profiles in
  Alcotest.(check bool) "every term costs something" true (List.for_all (fun p -> p > 0) parts);
  Alcotest.(check int) "parts sum to the Optane total" (cost Pmem.Latency.optane)
    (List.fold_left ( + ) zero parts)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_percentile;
          Alcotest.test_case "repeated percentile" `Quick test_repeated_percentile;
          Alcotest.test_case "repeated rate" `Quick test_repeated_rate;
          Alcotest.test_case "geomean and median" `Quick test_geomean;
        ] );
      ("outcome", [ Alcotest.test_case "failure taxonomy" `Quick test_taxonomy ]);
      ("split", [ Alcotest.test_case "simulated split is additive" `Quick test_additive_split ]);
    ]
