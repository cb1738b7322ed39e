(* xfstests-style "generic" scenarios: small scripted edge-case scripts
   run against BOTH SquirrelFS and the fuzzer's reference model, op by op
   (same return values), with the final trees compared structurally. The
   table cases additionally run under the full differential crash oracle
   (crash-image enumeration + fsck at every fence) via Fuzzer.Exec;
   bespoke cases cover ENOSPC on a tiny volume and EIO after quarantine,
   which have no counterpart in the unlimited / un-corruptible model. *)

module W = Crashcheck.Workload
module F = Fuzzer
module Sq = Squirrelfs
module Device = Pmem.Device

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected %s" (Vfs.Errno.to_string e)

(* Apply [ops] to a fresh SquirrelFS and to the reference model in
   lockstep, requiring identical return values, then identical trees
   (data compared too: no crashes are involved here). Returns both for
   scenario-specific assertions. *)
let dual ?(size = 512 * 1024) ops =
  let dev = Device.create ~size () in
  Sq.mkfs dev;
  let fs = ok (Sq.mount dev) in
  let model = ref F.Ref_fs.empty in
  List.iteri
    (fun i op ->
      let m, r1 = F.Ref_fs.apply !model op in
      let r2 = F.Exec.apply_sq fs op in
      (match (r1, r2) with
      | Ok (), Ok () -> model := m
      | Error a, Error b when a = b -> ()
      | Ok (), Error (Vfs.Errno.ENOSPC | Vfs.Errno.EMLINK) ->
          (* capacity divergence: the unlimited model rolls the op back,
             mirroring the fuzzer's executor *)
          ()
      | _ ->
          Alcotest.failf "op %d %s: model %s, squirrelfs %s" i
            (Format.asprintf "%a" W.pp_op op)
            (match r1 with Ok () -> "ok" | Error e -> Vfs.Errno.to_string e)
            (match r2 with Ok () -> "ok" | Error e -> Vfs.Errno.to_string e))
      )
    ops;
  let got = Vfs.Logical.capture (module Squirrelfs) fs in
  let want = F.Ref_fs.capture !model in
  if not (Vfs.Logical.equal ~compare_data:true got want) then
    Alcotest.failf "final trees differ:@.squirrelfs %a@.model %a" Vfs.Logical.pp
      got Vfs.Logical.pp want;
  (fs, !model)

(* Same script under the crash oracle: every persist point's crash images
   must recover to a prefix-consistent state. *)
let crash_oracle name ?(size = 512 * 1024) ops =
  match (F.Exec.run ~device_size:size ops).F.Exec.o_fail with
  | None -> ()
  | Some (cp, detail) ->
      Alcotest.failf "%s: crash oracle violation at op %d: %s" name cp.F.Exec.cp_op
        detail

(* The corpus itself lives in {!Scenarios}, shared with test_baselines. *)
let scenario (s : Scenarios.t) () =
  ignore (dual ~size:s.Scenarios.sc_size s.Scenarios.sc_ops);
  crash_oracle s.Scenarios.sc_name ~size:s.Scenarios.sc_size s.Scenarios.sc_ops

(* {1 Bespoke: ENOSPC on a tiny volume} *)

(* On a 128 KiB volume a large write must refuse with a clean ENOSPC,
   leave the file system consistent, and keep the tree equal to the model
   that never attempted the doomed write. *)
let test_enospc_tiny_volume () =
  let dev = Device.create ~size:(128 * 1024) () in
  Sq.mkfs dev;
  let fs = ok (Sq.mount dev) in
  ok (Sq.create fs "/a");
  (match Sq.write fs "/a" ~off:0 (String.make (256 * 1024) 'x') with
  | Error Vfs.Errno.ENOSPC -> ()
  | Ok n -> Alcotest.failf "write of 256 KiB on 128 KiB volume returned %d" n
  | Error e -> Alcotest.failf "expected ENOSPC, got %s" (Vfs.Errno.to_string e));
  (* metadata untouched by the failed write *)
  let st = ok (Sq.stat fs "/a") in
  Alcotest.(check int) "size still 0" 0 st.Vfs.Fs.size;
  Alcotest.(check (list string)) "fsck clean" [] (Sq.Fsck.check fs);
  (* filling with small files eventually hits ENOSPC without corruption *)
  let refused = ref false in
  (try
     for i = 0 to 999 do
       match Sq.create fs (Printf.sprintf "/f%d" i) with
       | Ok () -> (
           match Sq.write fs (Printf.sprintf "/f%d" i) ~off:0 (String.make 4096 'y') with
           | Ok _ -> ()
           | Error Vfs.Errno.ENOSPC ->
               refused := true;
               raise Exit
           | Error e -> Alcotest.failf "fill write: %s" (Vfs.Errno.to_string e))
       | Error Vfs.Errno.ENOSPC ->
           refused := true;
           raise Exit
       | Error e -> Alcotest.failf "fill create: %s" (Vfs.Errno.to_string e)
     done
   with Exit -> ());
  Alcotest.(check bool) "volume filled up" true !refused;
  Alcotest.(check (list string)) "fsck clean after fill" [] (Sq.Fsck.check fs);
  (* and the ENOSPC-heavy script is still crash-consistent end to end *)
  match
    (F.Exec.run ~device_size:(128 * 1024)
       W.
         [
           Create "/a";
           Write ("/a", 0, String.make 50000 'x');
           Write ("/a", 50000, String.make 50000 'x');
           Write ("/a", 100000, String.make 50000 'x');
           Create "/b";
           Rename ("/a", "/b");
         ])
      .F.Exec.o_fail
  with
  | None -> ()
  | Some (_, d) -> Alcotest.failf "crash oracle under ENOSPC: %s" d

(* {1 Bespoke: EIO after quarantine} *)

(* Corrupt one committed inode record on a csum volume: the remount comes
   up degraded, the damaged path returns clean EIO everywhere, and the
   rest of the tree behaves exactly like the reference model with the
   quarantined subtree still listed but inaccessible. *)
let test_eio_after_quarantine () =
  let dev = Device.create ~size:(512 * 1024) () in
  Sq.Mount.mkfs ~csum:true dev;
  let fs = ok (Sq.mount dev) in
  ok (Sq.create fs "/victim");
  ignore (ok (Sq.write fs "/victim" ~off:0 "doomed") : int);
  ok (Sq.create fs "/ok");
  ignore (ok (Sq.write fs "/ok" ~off:0 "fine") : int);
  let vino = (ok (Sq.stat fs "/victim")).Vfs.Fs.ino in
  Sq.unmount fs;
  (* flip a bit inside the sealed region of the committed record *)
  Device.set_fault_plan dev (Faults.Plan.make ~seed:1 ());
  Device.flip_bit dev ~off:(Layout.Geometry.inode_off fs.Sq.Fsctx.geo ~ino:vino + 1) ~bit:3;
  let fs = ok (Sq.mount dev) in
  Alcotest.(check bool) "mount degraded" true (Sq.Mount.degraded fs);
  (* quarantined path: clean EIO on every class of operation *)
  let expect_eio what = function
    | Error Vfs.Errno.EIO -> ()
    | Ok _ -> Alcotest.failf "%s: expected EIO, got success" what
    | Error e -> Alcotest.failf "%s: expected EIO, got %s" what (Vfs.Errno.to_string e)
  in
  expect_eio "stat" (Sq.stat fs "/victim");
  expect_eio "read" (Sq.read fs "/victim" ~off:0 ~len:6);
  expect_eio "write" (Sq.write fs "/victim" ~off:0 "x");
  expect_eio "unlink" (Sq.unlink fs "/victim");
  expect_eio "rename away" (Sq.rename fs "/victim" "/elsewhere");
  expect_eio "rename onto" (Sq.rename fs "/ok" "/victim");
  expect_eio "link from" (Sq.link fs "/victim" "/copy");
  (* the healthy file and directory listing still match the model *)
  let model =
    List.fold_left
      (fun m op -> fst (F.Ref_fs.apply m op))
      F.Ref_fs.empty
      W.[ Create "/victim"; Write ("/victim", 0, "doomed"); Create "/ok"; Write ("/ok", 0, "fine") ]
  in
  Alcotest.(check string) "healthy data" (ok (F.Ref_fs.read model "/ok" ~off:0 ~len:4))
    (ok (Sq.read fs "/ok" ~off:0 ~len:4));
  Alcotest.(check (list string)) "readdir still lists both"
    (ok (F.Ref_fs.readdir model "/"))
    (List.sort compare (ok (Sq.readdir fs "/")));
  Alcotest.(check (list string)) "fsck understands quarantine" [] (Sq.Fsck.check fs)

let () =
  Alcotest.run "generic"
    (List.map
       (fun s ->
         (s.Scenarios.sc_name, [ Alcotest.test_case "script" `Quick (scenario s) ]))
       Scenarios.all
    @ [
        ( "enospc tiny volume",
          [ Alcotest.test_case "clean refusal + consistency" `Quick test_enospc_tiny_volume ]
        );
        ( "eio after quarantine",
          [ Alcotest.test_case "degraded tree vs model" `Quick test_eio_after_quarantine ]
        );
      ])
