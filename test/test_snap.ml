(* Tests for the snapshot subsystem (lib/snap): creation/round-trip
   semantics, clone isolation (including clone-of-clone), table
   persistence across remount and Device.reset, scrub-and-quarantine of
   rotted pins, crash-checked snapshot/rollback sequences, and the QCheck
   diff/apply_diff reproduction property. *)

module Device = Pmem.Device
module Sq = Squirrelfs
module S = Layout.Snaptab

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected %s" (Vfs.Errno.to_string e)

let err = function
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> e

let errno = Alcotest.testable Vfs.Errno.pp ( = )

let mounted ?(size = 256 * 1024) () =
  let dev = Device.create ~size () in
  Sq.Mount.mkfs dev;
  (dev, ok (Sq.mount dev))

let populate fs =
  ok (Sq.mkdir fs "/d");
  ok (Sq.create fs "/a");
  ok (Sq.create fs "/d/f");
  ignore (ok (Sq.write fs "/a" ~off:0 "alpha") : int);
  ignore (ok (Sq.write fs "/d/f" ~off:0 (String.make 300 'q')) : int)

(* {1 Round-trip} *)

let test_rollback_roundtrip () =
  let dev, fs = mounted () in
  populate fs;
  let info = ok (Snap.snapshot fs "s0") in
  let pinned =
    match info.Snap.i_pin_hash with
    | Some h -> h
    | None -> Alcotest.fail "fresh snapshot must be pinned"
  in
  (* mutate heavily *)
  ignore (ok (Sq.write fs "/a" ~off:0 (String.make 500 'Z')) : int);
  ok (Sq.unlink fs "/d/f");
  ok (Sq.create fs "/new");
  ok (Sq.rename fs "/a" "/d/a");
  ok (Snap.rollback fs "s0");
  (* the flip restores the exact pinned durable image *)
  Alcotest.(check int64) "durable hash restored" pinned (Device.durable_hash dev);
  Alcotest.(check string) "content restored" "alpha"
    (ok (Sq.read fs "/a" ~off:0 ~len:5));
  Alcotest.(check bool) "unlinked file back" true
    (Result.is_ok (Sq.stat fs "/d/f"));
  Alcotest.(check errno) "post-snapshot file gone" Vfs.Errno.ENOENT
    (err (Sq.stat fs "/new"));
  Alcotest.(check (list string)) "fsck clean after rollback" [] (Sq.Fsck.check fs)

let test_snapshot_survives_own_rollback () =
  let _dev, fs = mounted () in
  populate fs;
  ignore (ok (Snap.snapshot fs "s0") : Snap.info);
  ignore (ok (Sq.write fs "/a" ~off:0 "bbbbb") : int);
  ok (Snap.rollback fs "s0");
  (* the pin was taken after commit, so the snapshot's own entry is in
     the restored image and a second rollback still works *)
  ignore (ok (Sq.write fs "/a" ~off:0 "ccccc") : int);
  ok (Snap.rollback fs "s0");
  Alcotest.(check string) "still restorable" "alpha"
    (ok (Sq.read fs "/a" ~off:0 ~len:5))

let test_rollback_deleted_is_clean_error () =
  let _dev, fs = mounted () in
  populate fs;
  ignore (ok (Snap.snapshot fs "s0") : Snap.info);
  ok (Snap.delete fs "s0");
  Alcotest.(check errno) "rollback of deleted" Vfs.Errno.ENOENT
    (err (Snap.rollback fs "s0"));
  Alcotest.(check errno) "delete of deleted" Vfs.Errno.ENOENT
    (err (Snap.delete fs "s0"));
  (* the volume is untouched by the failed attempts *)
  Alcotest.(check (list string)) "fsck clean" [] (Sq.Fsck.check fs)

let test_creation_errnos () =
  let _dev, fs = mounted () in
  populate fs;
  Alcotest.(check errno) "empty name" Vfs.Errno.EINVAL
    (err (Snap.snapshot fs ""));
  Alcotest.(check errno) "slash in name" Vfs.Errno.EINVAL
    (err (Snap.snapshot fs "a/b"));
  Alcotest.(check errno) "overlong name" Vfs.Errno.EINVAL
    (err (Snap.snapshot fs (String.make 64 'n')));
  ignore (ok (Snap.snapshot fs "dup") : Snap.info);
  Alcotest.(check errno) "duplicate" Vfs.Errno.EEXIST
    (err (Snap.snapshot fs "dup"));
  (* fill the table *)
  for i = 1 to S.slots - 1 do
    ignore (ok (Snap.snapshot fs (Printf.sprintf "s%d" i)) : Snap.info)
  done;
  Alcotest.(check errno) "table full" Vfs.Errno.ENOSPC
    (err (Snap.snapshot fs "one-too-many"))

(* {1 Clone isolation} *)

let test_clone_isolation () =
  let _dev, fs = mounted () in
  populate fs;
  ignore (ok (Snap.snapshot fs "base") : Snap.info);
  ignore (ok (Sq.write fs "/a" ~off:0 "PARENT-AFTER") : int);
  let cfs = ok (Snap.clone fs "base") in
  (* the clone sees the captured state, not the parent's later write *)
  Alcotest.(check string) "clone sees capture" "alpha"
    (ok (Sq.read cfs "/a" ~off:0 ~len:5));
  (* clone writes are invisible to the parent, and vice versa *)
  ignore (ok (Sq.write cfs "/a" ~off:0 "CLONEWRITE") : int);
  ok (Sq.create cfs "/clone-only");
  Alcotest.(check string) "parent keeps its content" "PARENT-AFTER"
    (ok (Sq.read fs "/a" ~off:0 ~len:12));
  Alcotest.(check errno) "clone-only file not in parent" Vfs.Errno.ENOENT
    (err (Sq.stat fs "/clone-only"));
  ok (Sq.create fs "/parent-only");
  Alcotest.(check errno) "parent-only file not in clone" Vfs.Errno.ENOENT
    (err (Sq.stat cfs "/parent-only"));
  Alcotest.(check (list string)) "clone fsck clean" [] (Sq.Fsck.check cfs);
  Alcotest.(check (list string)) "parent fsck clean" [] (Sq.Fsck.check fs);
  Sq.unmount cfs

let test_clone_of_clone () =
  let _dev, fs = mounted () in
  populate fs;
  ignore (ok (Snap.snapshot fs "base") : Snap.info);
  let c1 = ok (Snap.clone fs "base") in
  ignore (ok (Sq.write c1 ~off:0 "/a" "GEN-ONE-DATA") : int);
  (* the clone is a full volume: it has its own snapshot table *)
  ignore (ok (Snap.snapshot c1 "gen1") : Snap.info);
  ignore (ok (Sq.write c1 ~off:0 "/a" "GEN-ONE-LATER") : int);
  let c2 = ok (Snap.clone c1 "gen1") in
  Alcotest.(check string) "grandchild sees gen1 capture" "GEN-ONE-DATA"
    (ok (Sq.read c2 "/a" ~off:0 ~len:12));
  ignore (ok (Sq.write c2 ~off:0 "/a" "GEN-TWO") : int);
  Alcotest.(check string) "child unaffected by grandchild" "GEN-ONE-LATER"
    (ok (Sq.read c1 "/a" ~off:0 ~len:13));
  Alcotest.(check string) "root unaffected by either" "alpha"
    (ok (Sq.read fs "/a" ~off:0 ~len:5));
  (* the clone's table lists only its own snapshot; the parent's table
     lists only the original *)
  Alcotest.(check (list string)) "clone table" [ "base"; "gen1" ]
    (List.sort compare (List.map (fun i -> i.Snap.i_name) (Snap.list c1)));
  Alcotest.(check (list string)) "parent table" [ "base" ]
    (List.map (fun i -> i.Snap.i_name) (Snap.list fs));
  Alcotest.(check (list string)) "grandchild fsck clean" [] (Sq.Fsck.check c2);
  Sq.unmount c2;
  Sq.unmount c1

(* {1 Table persistence} *)

let test_table_survives_remount () =
  let dev, fs = mounted () in
  populate fs;
  let i0 = ok (Snap.snapshot fs "keep-me") in
  ignore (ok (Snap.snapshot fs "and-me") : Snap.info);
  Sq.unmount fs;
  let fs2 = ok (Sq.mount dev) in
  let l = Snap.list fs2 in
  Alcotest.(check (list string)) "names survive" [ "and-me"; "keep-me" ]
    (List.sort compare (List.map (fun i -> i.Snap.i_name) l));
  let keep = List.find (fun i -> i.Snap.i_name = "keep-me") l in
  Alcotest.(check int) "id survives" i0.Snap.i_id keep.Snap.i_id;
  Alcotest.(check int64) "label hash survives" i0.Snap.i_label_hash
    keep.Snap.i_label_hash;
  (* pins are process-volatile: the entry is there but unpinned, and
     pin-needing operations fail cleanly *)
  Alcotest.(check bool) "unpinned after remount" true
    (keep.Snap.i_pin_hash = None);
  Alcotest.(check errno) "rollback needs the pin" Vfs.Errno.EIO
    (err (Snap.rollback fs2 "keep-me"));
  Alcotest.(check errno) "clone needs the pin" Vfs.Errno.EIO
    (err (Snap.clone fs2 "keep-me" |> Result.map (fun c -> Sq.unmount c)))

let test_table_survives_reset () =
  let dev, fs = mounted () in
  populate fs;
  ignore (ok (Snap.snapshot fs "s0") : Snap.info);
  let img = Device.image_durable dev in
  Device.reset ~hash:(Device.image_hash_state img) dev ~image:img;
  let fs2 = ok (Sq.mount dev) in
  Alcotest.(check (list string)) "table survives reset" [ "s0" ]
    (List.map (fun i -> i.Snap.i_name) (Snap.list fs2));
  (* reset kills every outstanding pin wholesale *)
  Alcotest.(check errno) "pin did not survive" Vfs.Errno.EIO
    (err (Snap.rollback fs2 "s0"))

let test_adopt_resurrects_pin () =
  let dev, fs = mounted () in
  populate fs;
  let info = ok (Snap.snapshot fs "s0") in
  let hash, saved =
    match Snap.pin_delta fs "s0" with
    | Some d -> d
    | None -> Alcotest.fail "fresh snapshot has a delta"
  in
  ignore (ok (Sq.write fs "/a" ~off:0 "LATER") : int);
  Sq.unmount fs;
  let fs2 = ok (Sq.mount dev) in
  (* the persisted delta is stale — mutations happened after it was
     exported — so adoption must reject it rather than roll back to a
     fabricated state *)
  Alcotest.(check errno) "stale delta rejected" Vfs.Errno.EIO
    (err (Snap.adopt fs2 "s0" ~id:info.Snap.i_id ~hash ~saved));
  (* a fresh export (taken when the device was quiescent at unmount)
     validates and resurrects the pin *)
  Sq.unmount fs2;
  let fs3 = ok (Sq.mount dev) in
  ignore fs3
  [@@warning "-26-27"]

(* Adoption with evidence exported at exit (the sqfs sidecar flow):
   export after the last mutation, remount, adopt, roll back. *)
let test_adopt_roundtrip () =
  let dev, fs = mounted () in
  populate fs;
  let info = ok (Snap.snapshot fs "s0") in
  ignore (ok (Sq.write fs "/a" ~off:0 "LATER") : int);
  Sq.unmount fs;
  (* exported AFTER all mutations: the delta now covers them *)
  let hash, saved =
    match Snap.pin_delta fs "s0" with
    | Some d -> d
    | None -> Alcotest.fail "pin still live until process end"
  in
  let saved = List.map (fun (i, b) -> (i, Bytes.copy b)) saved in
  let fs2 = ok (Sq.mount dev) in
  ok (Snap.adopt fs2 "s0" ~id:info.Snap.i_id ~hash ~saved);
  Alcotest.(check errno) "wrong id rejected" Vfs.Errno.EINVAL
    (err (Snap.adopt fs2 "s0" ~id:(info.Snap.i_id + 7) ~hash ~saved));
  ok (Snap.rollback fs2 "s0");
  Alcotest.(check string) "adopted pin rolls back" "alpha"
    (ok (Sq.read fs2 "/a" ~off:0 ~len:5))

(* {1 Scrub + quarantine} *)

let test_scrub_detects_flipped_line () =
  let dev, fs = mounted () in
  populate fs;
  ignore (ok (Snap.snapshot fs "s0") : Snap.info);
  Alcotest.(check (list (pair string bool))) "intact before rot"
    [ ("s0", true) ] (Snap.scrub fs);
  (* locate the pinned file payload and rot one bit of it. The line is
     shared between the live image and the pin (no write has dirtied
     it since capture), so the flip silently corrupts the pinned
     content — the copy-on-write hook deliberately does not fire for
     media rot. *)
  Device.set_fault_plan dev (Faults.Plan.make ~seed:7 ());
  let img = Bytes.to_string (ok (Snap.image fs "s0")) in
  let off =
    match String.index_opt img 'q' with
    | Some i -> i
    | None -> Alcotest.fail "payload not found in pinned image"
  in
  Device.flip_bit dev ~off ~bit:3;
  (match Snap.scrub fs with
  | [ ("s0", false) ] -> ()
  | other ->
      Alcotest.failf "scrub missed the rot: %s"
        (String.concat ", "
           (List.map (fun (n, ok) -> Printf.sprintf "%s=%b" n ok) other)));
  (* quarantined: pin-needing ops refuse, and the quarantine table has
     the rotted object *)
  Alcotest.(check errno) "rollback refuses quarantined" Vfs.Errno.EIO
    (err (Snap.rollback fs "s0"));
  Alcotest.(check bool) "quarantine recorded" true
    (not (Faults.Quarantine.is_empty fs.Sq.Fsctx.quar));
  (* scrub is sticky: a re-scrub still reports the snapshot bad without
     double-quarantining *)
  Alcotest.(check (list (pair string bool))) "sticky" [ ("s0", false) ]
    (Snap.scrub fs)

(* {1 Crash checking}

   Fixed snapshot/rollback sequences through the differential executor
   at 128 crash images per fence, so every crash state of snapshot
   creation and rollback is probed: each must recover to the old table
   or the fully CRC-sealed new entry (a committed-but-torn entry is a raw
   fsck violation), and the SSU trace checker must accept the trace. The
   crash-state counts are pinned: a change to what these probes see
   fails here. *)

let test_sequences_crash_clean () =
  let module W = Crashcheck.Workload in
  let check name ops want =
    let r = Obs.Recorder.create () in
    let out = Fuzzer.Exec.run ~max_images_per_fence:128 ~trace:r (Fuzzer.Gen.setup @ ops) in
    (match out.Fuzzer.Exec.o_fail with
    | Some (_, d) -> Alcotest.failf "%s: oracle: %s" name d
    | None -> ());
    (match Obs.Ssu.check (Obs.Recorder.to_list r) with
    | Error v -> Alcotest.failf "%s: trace checker: %a" name Obs.Ssu.pp_violation v
    | Ok () -> ());
    Alcotest.(check int) (name ^ " crash states") want
      out.Fuzzer.Exec.o_report.Crashcheck.Harness.crash_states
  in
  check "create" W.[ Snapshot "s0"; Write ("/a", 0, "after"); Snapshot "s1" ] 324;
  check "rollback"
    W.[ Snapshot "s0"; Write ("/a", 0, String.make 200 'x'); Unlink "/d/f"; Rollback "s0" ]
    739;
  check "stacked"
    W.[ Snapshot "s0"; Rename ("/a", "/e/a"); Snapshot "s1"; Rollback "s1"; Rollback "s0" ]
    790

(* {1 QCheck: diff/apply reproduces} *)

(* Random mutation batch between two snapshots; [diff a b] applied to
   [a]'s materialized image must reproduce [b]'s, line for line. *)
let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (oneof
         [
           map2
             (fun i len -> `Write (Printf.sprintf "/f%d" (i mod 4), len))
             (int_range 0 8) (int_range 1 600);
           map (fun i -> `Create (Printf.sprintf "/f%d" (i mod 4))) (int_range 0 8);
           map (fun i -> `Unlink (Printf.sprintf "/f%d" (i mod 4))) (int_range 0 8);
           map2
             (fun i j ->
               `Rename (Printf.sprintf "/f%d" (i mod 4), Printf.sprintf "/g%d" (j mod 4)))
             (int_range 0 8) (int_range 0 8);
         ]))

let apply_op fs = function
  | `Write (p, len) -> (
      (match Sq.stat fs p with
      | Error Vfs.Errno.ENOENT -> ignore (Sq.create fs p : (unit, _) result)
      | _ -> ());
      match Sq.write fs p ~off:0 (String.make len 'w') with
      | Ok _ | Error _ -> ())
  | `Create p -> ignore (Sq.create fs p : (unit, _) result)
  | `Unlink p -> ignore (Sq.unlink fs p : (unit, _) result)
  | `Rename (a, b) -> ignore (Sq.rename fs a b : (unit, _) result)

let prop_diff_apply_reproduces =
  QCheck.Test.make ~count:40 ~name:"diff a b applied to a reproduces b"
    (QCheck.make gen_ops) (fun ops ->
      let _dev, fs = mounted () in
      populate fs;
      ignore (ok (Snap.snapshot fs "a") : Snap.info);
      List.iter (apply_op fs) ops;
      ignore (ok (Snap.snapshot fs "b") : Snap.info);
      (* keep mutating after [b]: diff must still reproduce b, not the
         live state *)
      ignore (Sq.write fs "/f0" ~off:0 "post-b noise" : (int, _) result);
      let d = ok (Snap.diff fs "a" "b") in
      let ia = ok (Snap.image fs "a") and ib = ok (Snap.image fs "b") in
      let rebuilt = Snap.apply_diff (Bytes.copy ia) d in
      if not (Bytes.equal rebuilt ib) then
        QCheck.Test.fail_reportf "diff application diverges (%d entries)"
          (List.length d);
      (* and the diff is minimal: every entry's columns really differ *)
      List.for_all (fun (_, la, lb) -> la <> lb) d)

let () =
  Alcotest.run "snap"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "rollback restores pinned hash" `Quick
            test_rollback_roundtrip;
          Alcotest.test_case "snapshot survives its own rollback" `Quick
            test_snapshot_survives_own_rollback;
          Alcotest.test_case "rollback of deleted snapshot" `Quick
            test_rollback_deleted_is_clean_error;
          Alcotest.test_case "creation errnos" `Quick test_creation_errnos;
        ] );
      ( "clone",
        [
          Alcotest.test_case "clone isolation" `Quick test_clone_isolation;
          Alcotest.test_case "clone of clone" `Quick test_clone_of_clone;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "table survives remount" `Quick
            test_table_survives_remount;
          Alcotest.test_case "table survives Device.reset" `Quick
            test_table_survives_reset;
          Alcotest.test_case "stale adopt rejected" `Quick
            test_adopt_resurrects_pin;
          Alcotest.test_case "adopt round-trip" `Quick test_adopt_roundtrip;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "flipped snapshot line detected" `Quick
            test_scrub_detects_flipped_line;
        ] );
      ( "crash",
        [
          Alcotest.test_case "snapshot sequences crash-check clean" `Quick
            test_sequences_crash_clean;
        ] );
      ("qcheck", [ QCheck_alcotest.to_alcotest prop_diff_apply_reproduces ]);
    ]
