(* The concurrent request frontend: sharded lock-table units, the
   engine's lock protocol under real domain parallelism (linearizability
   spot-check, cross-directory rename deadlock regression), load-
   generator determinism, and the interleaved 2-op fuzz mode. *)

module Device = Pmem.Device
module Sq = Squirrelfs
module Locks = Squirrelfs.Locks
module Logical = Vfs.Logical

let ok = function
  | Ok v -> v
  | Error e -> failwith ("test_serve: " ^ Vfs.Errno.to_string e)

(* submit a request that must succeed, discarding the payload *)
let ok_ r = ignore (ok r)

(* {1 Lock table} *)

let test_locks_shards () =
  let t = Locks.create ~shards:48 () in
  (* rounded up to a power of two *)
  Alcotest.(check int) "pow2 shard count" 64 (Locks.shard_count t);
  for key = 0 to 10_000 do
    let s = Locks.shard_of t key in
    Alcotest.(check bool) "shard in range" true (s >= 0 && s < 64)
  done;
  (* shard sets are ascending and deduplicated *)
  let set = Locks.shard_set t [ 3; 77; 3; 12; 77; 9000 ] in
  Alcotest.(check bool) "sorted" true (List.sort compare set = set);
  Alcotest.(check bool) "unique" true (List.sort_uniq compare set = set)

let test_locks_with_keys () =
  let t = Locks.create ~shards:8 () in
  let hits = ref 0 in
  Locks.with_keys t [ 1; 2; 3 ] (fun () -> incr hits);
  (* same key twice: must not self-deadlock (dedup) *)
  Locks.with_keys t [ 5; 5; 5 ] (fun () -> incr hits);
  (* colliding keys (same shard): ditto *)
  let k1 = 1 in
  let collide =
    let rec find k =
      if k > 1 && Locks.shard_of t k = Locks.shard_of t k1 then k
      else find (k + 1)
    in
    find 2
  in
  Locks.with_keys t [ k1; collide ] (fun () -> incr hits);
  Locks.with_all t (fun () -> incr hits);
  Alcotest.(check int) "all sections entered" 4 !hits;
  (* reentry after release works (nothing left locked) *)
  Locks.with_all t (fun () -> ());
  Locks.with_keys t [ 1 ] (fun () -> ())

(* {1 Engine fixtures} *)

let mk_engine ?(mb = 8) () =
  let dev = Device.create ~size:(mb * 1024 * 1024) () in
  Sq.mkfs dev;
  let ctx = ok (Sq.mount dev) in
  (dev, ctx, Serve.Engine.create ctx)

let submit eng r =
  (Serve.Engine.submit eng ~client:0 ~seq:0 r).Serve.Req.rp_result

(* {1 Engine basics (single domain)} *)

let test_engine_ops () =
  let _, _, eng = mk_engine () in
  ok_ (submit eng (Serve.Req.Mkdir "/d"));
  ok_ (submit eng (Serve.Req.Create "/d/f"));
  (match submit eng (Serve.Req.Write ("/d/f", 0, "hello")) with
  | Ok (Serve.Req.Wrote 5) -> ()
  | _ -> Alcotest.fail "write reply");
  (match submit eng (Serve.Req.Read ("/d/f", 0, 5)) with
  | Ok (Serve.Req.Data "hello") -> ()
  | _ -> Alcotest.fail "read reply");
  (match submit eng (Serve.Req.Stat "/d/f") with
  | Ok (Serve.Req.Attr st) ->
      Alcotest.(check bool) "file kind" true (st.Vfs.Fs.kind = Vfs.Fs.File)
  | _ -> Alcotest.fail "stat reply");
  (match submit eng (Serve.Req.Readdir "/d") with
  | Ok (Serve.Req.Names [ "f" ]) -> ()
  | _ -> Alcotest.fail "readdir reply");
  (* errors come back as errnos, not exceptions *)
  (match submit eng (Serve.Req.Unlink "/d/missing") with
  | Error Vfs.Errno.ENOENT -> ()
  | _ -> Alcotest.fail "unlink missing");
  (* dangling-path requests take the whole-FS fallback and still fail
     with the right errno; with the index unchanged since the walk, a
     retry would walk to the same dangling component, so none is made *)
  (match submit eng (Serve.Req.Create "/nosuch/deep/f") with
  | Error Vfs.Errno.ENOENT -> ()
  | _ -> Alcotest.fail "create under missing dir");
  Alcotest.(check (pair int int)) "retries, fallbacks" (0, 1)
    (Serve.Engine.retry_count eng, Serve.Engine.fallback_count eng);
  Alcotest.(check bool) "stamps issued" true (Serve.Engine.stamps_issued eng >= 8)

let test_engine_stamps_monotone () =
  let _, _, eng = mk_engine () in
  ok_ (submit eng (Serve.Req.Mkdir "/d"));
  let stamps =
    List.map
      (fun i ->
        (Serve.Engine.submit eng ~client:1 ~seq:i
           (Serve.Req.Create (Printf.sprintf "/d/f%d" i)))
          .Serve.Req.rp_stamp)
      (List.init 20 Fun.id)
  in
  Alcotest.(check bool) "strictly increasing" true
    (List.for_all2 (fun a b -> a < b)
       (List.filteri (fun i _ -> i < 19) stamps)
       (List.tl stamps))

(* {1 Linearizability spot-check}

   Two domains apply op batches on disjoint inode sets (each its own
   directory). Disjoint ops commute, so every serialization the lock
   table could produce yields the same final tree — the durable result
   must equal [Ref_fs] applying domain 0's batch then domain 1's. *)

type lop = Lcreate of int | Lwrite of int * string | Lunlink of int | Lmkdir of int

let lop_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Lcreate i) (0 -- 7);
        map2 (fun i c -> Lwrite (i, String.make (1 + (c mod 60)) 'w')) (0 -- 7) (0 -- 255);
        map (fun i -> Lunlink i) (0 -- 7);
        map (fun i -> Lmkdir i) (0 -- 3);
      ])

let pp_lop = function
  | Lcreate i -> Printf.sprintf "create f%d" i
  | Lwrite (i, d) -> Printf.sprintf "write f%d [%d]" i (String.length d)
  | Lunlink i -> Printf.sprintf "unlink f%d" i
  | Lmkdir i -> Printf.sprintf "mkdir s%d" i

let lops_arb =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "[%s] || [%s]"
        (String.concat "; " (List.map pp_lop a))
        (String.concat "; " (List.map pp_lop b)))
    QCheck.Gen.(pair (list_size (1 -- 12) lop_gen) (list_size (1 -- 12) lop_gen))

let req_of_lop ~dir = function
  | Lcreate i -> Serve.Req.Create (Printf.sprintf "%s/f%d" dir i)
  | Lwrite (i, d) -> Serve.Req.Write (Printf.sprintf "%s/f%d" dir i, 0, d)
  | Lunlink i -> Serve.Req.Unlink (Printf.sprintf "%s/f%d" dir i)
  | Lmkdir i -> Serve.Req.Mkdir (Printf.sprintf "%s/s%d" dir i)

let wop_of_lop ~dir lop : Crashcheck.Workload.op =
  match lop with
  | Lcreate i -> Crashcheck.Workload.Create (Printf.sprintf "%s/f%d" dir i)
  | Lwrite (i, d) -> Crashcheck.Workload.Write (Printf.sprintf "%s/f%d" dir i, 0, d)
  | Lunlink i -> Crashcheck.Workload.Unlink (Printf.sprintf "%s/f%d" dir i)
  | Lmkdir i -> Crashcheck.Workload.Mkdir (Printf.sprintf "%s/s%d" dir i)

let prop_linearizable =
  QCheck.Test.make ~count:30
    ~name:"disjoint-inode batches linearize to a sequential Ref_fs order"
    lops_arb
    (fun (batch0, batch1) ->
      let dev, ctx, eng = mk_engine () in
      ok_ (submit eng (Serve.Req.Mkdir "/w0"));
      ok_ (submit eng (Serve.Req.Mkdir "/w1"));
      Device.set_shared dev true;
      let worker dir batch () =
        List.iteri
          (fun i lop ->
            ignore (Serve.Engine.submit eng ~client:0 ~seq:i (req_of_lop ~dir lop)))
          batch
      in
      let d1 = Domain.spawn (worker "/w1" batch1) in
      worker "/w0" batch0 ();
      Domain.join d1;
      Device.set_shared dev false;
      let got = Logical.capture (module Squirrelfs) ctx in
      (* expected: domain 0's batch then domain 1's, sequentially *)
      let m = ref Fuzzer.Ref_fs.empty in
      let apply op = m := fst (Fuzzer.Ref_fs.apply !m op) in
      apply (Crashcheck.Workload.Mkdir "/w0");
      apply (Crashcheck.Workload.Mkdir "/w1");
      List.iter (fun l -> apply (wop_of_lop ~dir:"/w0" l)) batch0;
      List.iter (fun l -> apply (wop_of_lop ~dir:"/w1" l)) batch1;
      let want = Fuzzer.Ref_fs.capture !m in
      if not (Logical.equal ~compare_data:true got want) then
        QCheck.Test.fail_reportf "diverged:@.got  %a@.want %a" Logical.pp got
          Logical.pp want
      else true)

(* {1 Deadlock regression}

   Cross-directory renames acquiring their two directories in opposite
   path order: /d -> /e on one domain, /e -> /d on the other, in a
   tight loop. Path-order acquisition would deadlock almost instantly;
   ascending-shard-order acquisition (plus the whole-FS fallback) must
   complete every iteration. *)

let test_rename_deadlock_regression () =
  let dev, _, eng = mk_engine () in
  ok_ (submit eng (Serve.Req.Mkdir "/d"));
  ok_ (submit eng (Serve.Req.Mkdir "/e"));
  for i = 0 to 9 do
    ok_ (submit eng (Serve.Req.Create (Printf.sprintf "/d/a%d" i)));
    ok_ (submit eng (Serve.Req.Create (Printf.sprintf "/e/b%d" i)))
  done;
  Device.set_shared dev true;
  let spin src dst tag () =
    for i = 0 to 199 do
      let n = i mod 10 in
      (* rename away and back: d->e then e->d on this domain, while the
         other domain does e->d then d->e *)
      ignore
        (Serve.Engine.submit eng ~client:0 ~seq:i
           (Serve.Req.Rename
              ( Printf.sprintf "%s/%s%d" src tag n,
                Printf.sprintf "%s/%s%d" dst tag n )));
      ignore
        (Serve.Engine.submit eng ~client:0 ~seq:i
           (Serve.Req.Rename
              ( Printf.sprintf "%s/%s%d" dst tag n,
                Printf.sprintf "%s/%s%d" src tag n )))
    done
  in
  let d1 = Domain.spawn (spin "/e" "/d" "b") in
  spin "/d" "/e" "a" ();
  Domain.join d1;
  Device.set_shared dev false;
  (* both domains completed: no deadlock; tree still sane *)
  Alcotest.(check (list string)) "fsck clean" [] (Sq.Fsck.check (Serve.Engine.(fun t -> t.ctx) eng))

(* {1 Requests that wait on a changing directory}

   One domain holds a directory's shard through the engine's own lock
   table and changes the directory through [Squirrelfs] directly, while
   the other domain's request waits for that shard (or, if it starts
   late, walks the changed directory). Either ordering must give the
   request the answer and the locks of the directory it finds. *)

let ino_of ctx ~dir name =
  match Sq.Index.lookup ctx.Sq.Fsctx.index ~dir name with
  | Some (ino, _) -> ino
  | None -> Alcotest.failf "no %s in %d" name dir

(* Run [req] on a second domain while this one holds [dir]'s shard and
   runs [change]; the request's reply. *)
let race_shard eng ~dir req change =
  let waiter =
    Locks.with_keys eng.Serve.Engine.locks [ dir ] (fun () ->
        let d = Domain.spawn (fun () -> submit eng req) in
        Unix.sleepf 0.05;
        change ();
        d)
  in
  Domain.join waiter

(* The source of a rename is replaced by a directory while the rename
   waits for its parent's shard: the ancestor-chain check needs the
   whole-FS lock, so the rename must take it. *)
let test_rename_source_turns_dir () =
  let dev, ctx, eng = mk_engine () in
  List.iter (fun r -> ok_ (submit eng r))
    Serve.Req.[ Mkdir "/p"; Mkdir "/q"; Create "/p/s" ];
  let p = ino_of ctx ~dir:Layout.Geometry.root_ino "p" in
  let before = Serve.Engine.fallback_count eng in
  Device.set_shared dev true;
  let reply =
    race_shard eng ~dir:p (Serve.Req.Rename ("/p/s", "/q/s")) (fun () ->
        ok (Sq.unlink ctx "/p/s");
        ok (Sq.mkdir ctx "/p/s"))
  in
  Device.set_shared dev false;
  ok_ reply;
  Alcotest.(check int) "took the whole-FS lock" (before + 1) (Serve.Engine.fallback_count eng);
  Alcotest.(check bool) "moved the directory" true
    (Sq.Index.is_dir ctx.Sq.Fsctx.index (ino_of ctx ~dir:(ino_of ctx ~dir:Layout.Geometry.root_ino "q") "s"))

(* A stat waits for its directory's shard while the file is unlinked. *)
let test_stat_waits_for_unlink () =
  let dev, ctx, eng = mk_engine () in
  List.iter (fun r -> ok_ (submit eng r)) Serve.Req.[ Mkdir "/d"; Create "/d/f" ];
  let d = ino_of ctx ~dir:Layout.Geometry.root_ino "d" in
  Device.set_shared dev true;
  let reply = race_shard eng ~dir:d (Serve.Req.Stat "/d/f") (fun () -> ok (Sq.unlink ctx "/d/f")) in
  Device.set_shared dev false;
  match reply with
  | Error Vfs.Errno.ENOENT -> ()
  | Ok _ -> Alcotest.fail "stat of an unlinked file succeeded"
  | Error e -> Alcotest.failf "stat replied %s" (Vfs.Errno.to_string e)

(* {1 Token cells across domains}

   Transitions read and bump per-object token cells without a lock: the
   shard locks hand each object to one domain at a time. Two domains
   churning creates, extending writes and unlinks in their own
   directories on one shared device must never see a [Stale_handle]
   (it would escape [submit], or [Domain.join]), and the remounted
   volume must fsck clean. *)

let test_token_cells_two_domains () =
  let dev, ctx, eng = mk_engine () in
  ok_ (submit eng (Serve.Req.Mkdir "/w0"));
  ok_ (submit eng (Serve.Req.Mkdir "/w1"));
  Device.set_shared dev true;
  let churn dir () =
    let file k = Printf.sprintf "%s/f%d" dir (k mod 8) and done_ = ref 0 in
    for i = 0 to 299 do
      let go r =
        match (Serve.Engine.submit eng ~client:0 ~seq:i r).Serve.Req.rp_result with
        | Ok _ -> incr done_
        | Error _ -> ()
      in
      go (Serve.Req.Create (file i));
      go (Serve.Req.Write (file i, i mod 3 * 4096, String.make 5000 'x'));
      go (Serve.Req.Unlink (file (i + 3)))
    done;
    !done_
  in
  let d1 = Domain.spawn (churn "/w1") in
  let done0 = churn "/w0" () in
  let done1 = Domain.join d1 in
  Device.set_shared dev false;
  (* all but the first five unlinks, which find no file yet, succeed *)
  Alcotest.(check (pair int int)) "requests served" (895, 895) (done0, done1);
  Sq.unmount ctx;
  Alcotest.(check (list string)) "fsck clean" [] (Sq.Fsck.check (ok (Sq.mount dev)))

(* {1 Load generator} *)

let test_loadgen_deterministic_j1 () =
  let cfg =
    { Serve.Loadgen.default with Serve.Loadgen.clients = 30; ops_per_client = 20; seed = 5 }
  in
  let a = Serve.Loadgen.run cfg in
  let b = Serve.Loadgen.run cfg in
  Alcotest.(check int64) "durable hash" a.Serve.Loadgen.r_durable_hash
    b.Serve.Loadgen.r_durable_hash;
  Alcotest.(check int) "oks" a.Serve.Loadgen.r_oks b.Serve.Loadgen.r_oks;
  Alcotest.(check bool) "errnos" true
    (a.Serve.Loadgen.r_errs = b.Serve.Loadgen.r_errs);
  Alcotest.(check bool) "latency histograms" true
    (Obs.Metrics.equal a.Serve.Loadgen.r_metrics b.Serve.Loadgen.r_metrics);
  Alcotest.(check int) "every op got a stamp" a.Serve.Loadgen.r_ops
    a.Serve.Loadgen.r_stamps

let test_loadgen_multidomain () =
  let cfg =
    {
      Serve.Loadgen.default with
      Serve.Loadgen.clients = 24;
      ops_per_client = 15;
      jobs = 3;
      seed = 2;
    }
  in
  let r = Serve.Loadgen.run cfg in
  Alcotest.(check int) "all ops replied" (24 * 15) r.Serve.Loadgen.r_ops;
  Alcotest.(check int) "all stamped" r.Serve.Loadgen.r_ops r.Serve.Loadgen.r_stamps;
  Alcotest.(check bool) "work spread over workers" true
    (r.Serve.Loadgen.r_fair_min > 0)

(* Two domains running a 2 MiB volume out of pages: a write whose
   free-page count passes but whose allocation then loses the race to
   the other domain must reply ENOSPC like any full-volume write, not
   raise out of the worker. *)
let test_loadgen_exhaustion_multidomain () =
  let cfg =
    {
      Serve.Loadgen.default with
      Serve.Loadgen.clients = 500;
      ops_per_client = 100;
      jobs = 2;
      device_mb = 2;
    }
  in
  let r = Serve.Loadgen.run cfg in
  Alcotest.(check int) "all ops replied" (500 * 100) r.Serve.Loadgen.r_ops;
  Alcotest.(check bool) "volume ran out of space" true
    (List.mem_assoc "ENOSPC" r.Serve.Loadgen.r_errs)

(* {1 Interleaved fuzz mode} *)

let test_interleave_clean () =
  let r = Fuzzer.Interleave.run ~seed:3 ~pairs:8 ~max_interleavings:24 () in
  Alcotest.(check int) "pairs" 8 r.Fuzzer.Interleave.i_pairs;
  Alcotest.(check int) "pair kinds partition" 8
    (r.Fuzzer.Interleave.i_disjoint + r.Fuzzer.Interleave.i_overlapping);
  Alcotest.(check bool) "schedules explored" true
    (r.Fuzzer.Interleave.i_schedules >= 16);
  Alcotest.(check bool) "crash states probed" true
    (r.Fuzzer.Interleave.i_states > 0);
  (match r.Fuzzer.Interleave.i_failures with
  | [] -> ()
  | p :: _ ->
      Alcotest.failf "clean interleaving flagged: %s"
        (match (p.Fuzzer.Interleave.pr_oracle_fail, p.Fuzzer.Interleave.pr_ssu_fail) with
        | Some d, _ | _, Some d -> d
        | None, None -> "?"))

let test_interleave_deterministic () =
  let strip r = Fuzzer.Interleave.(r.i_schedules, r.i_skipped, r.i_states, r.i_deduped) in
  let a = Fuzzer.Interleave.run ~seed:9 ~pairs:5 ~max_interleavings:16 () in
  let b = Fuzzer.Interleave.run ~seed:9 ~pairs:5 ~max_interleavings:16 () in
  Alcotest.(check bool) "identical counts" true (strip a = strip b)

let test_interleave_flags_mutants () =
  let a = Fuzzer.Interleave.run_buggy ~max_interleavings:24 () in
  Alcotest.(check int) "four mutants" 4 (List.length a.Fuzzer.a_rows);
  List.iter
    (fun v ->
      let name = Fuzzer.buggy_kind_name v.Fuzzer.k_kind in
      Alcotest.(check bool) (name ^ " flagged by crash oracle") true v.Fuzzer.k_oracle;
      Alcotest.(check bool) (name ^ " flagged by SSU trace checker") true v.Fuzzer.k_trace)
    a.Fuzzer.a_rows

(* A schedule's closing probe compares file contents: one disjoint
   schedule closed against an A∘B state with the same tree but other
   bytes in /a is flagged, and the true A∘B state passes. *)
let test_interleave_close_compares_data () =
  let module W = Crashcheck.Workload in
  let module I = Fuzzer.Interleave in
  let a = W.Write ("/a", 0, "xy") and b = W.Create "/e/n" in
  let cap ops = Fuzzer.Ref_fs.capture (fst (I.model_after (Fuzzer.Gen.setup @ ops))) in
  let final = cap [ a; b ] in
  let legal = [ cap []; cap [ a ]; cap [ b ]; final ] in
  let wrong = cap [ W.Write ("/a", 0, "zz"); b ] in
  Alcotest.(check bool) "same tree" true (Logical.equal ~compare_data:false final wrong);
  let schedule final =
    (I.run_schedule (Fuzzer.Exec.Pool.create ()) ~legal ~final ~ops:[| a; b |] ~prefix:[])
      .I.so_fail
  in
  Alcotest.(check (option string)) "true A∘B passes" None (schedule final);
  match schedule wrong with
  | None -> Alcotest.fail "other bytes in /a passed the closing probe"
  | Some detail ->
      Alcotest.(check bool) detail true
        (String.starts_with ~prefix:"recovered state has file contents differing from" detail)

(* An overlapping pair runs its two serial orders, and its dedup count
   is theirs: the run-local duplicate states of both legs. *)
let test_interleave_serial_dedup () =
  let module W = Crashcheck.Workload in
  let module I = Fuzzer.Interleave in
  let a = W.Write ("/a", 0, "xy") and b = W.Unlink "/a" in
  let pr =
    I.check_pair
      ~pools:(Fuzzer.Exec.Pool.create (), Fuzzer.Exec.Pool.create ())
      ~max_interleavings:64 ~index:0 (a, b)
  in
  Alcotest.(check bool) "overlapping" true (pr.I.pr_kind = I.Overlapping);
  let leg ops =
    (Fuzzer.Exec.run ~max_images_per_fence:64 (Fuzzer.Gen.setup @ ops))
      .Fuzzer.Exec.o_report.Crashcheck.Harness.states_deduped
  in
  Alcotest.(check int) "both legs' duplicates" (leg [ a; b ] + leg [ b; a ])
    pr.I.pr_deduped;
  Alcotest.(check int) "pinned" 70 pr.I.pr_deduped

let () =
  Alcotest.run "serve"
    [
      ( "locks",
        [
          ("shard mapping", `Quick, test_locks_shards);
          ("with_keys/with_all", `Quick, test_locks_with_keys);
        ] );
      ( "engine",
        [
          ("op surface round-trips", `Quick, test_engine_ops);
          ("stamps monotone", `Quick, test_engine_stamps_monotone);
          ("rename deadlock regression", `Quick, test_rename_deadlock_regression);
          ("rename source turns into a directory", `Quick, test_rename_source_turns_dir);
          ("stat waits for an unlink", `Quick, test_stat_waits_for_unlink);
          ("token cells across two domains", `Quick, test_token_cells_two_domains);
          QCheck_alcotest.to_alcotest prop_linearizable;
        ] );
      ( "loadgen",
        [
          ("-j 1 deterministic", `Quick, test_loadgen_deterministic_j1);
          ("multi-domain completes", `Quick, test_loadgen_multidomain);
          ( "multi-domain exhaustion replies ENOSPC",
            `Quick,
            test_loadgen_exhaustion_multidomain );
        ] );
      ( "interleave",
        [
          ("clean pairs quiet", `Quick, test_interleave_clean);
          ("deterministic", `Quick, test_interleave_deterministic);
          ("flags all mutants", `Quick, test_interleave_flags_mutants);
          ("close compares file contents", `Quick, test_interleave_close_compares_data);
          ("serial legs count duplicates", `Quick, test_interleave_serial_dedup);
        ] );
    ]
