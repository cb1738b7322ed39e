(* SquirrelFS: VFS conformance plus SquirrelFS-specific behaviour —
   typestate/linearity enforcement, mount-time rebuild, recovery. *)

module Device = Pmem.Device
module Sq = Squirrelfs
module Token = Typestate.Token

let device () = Device.create ~size:(4 * 1024 * 1024) ()

let conformance =
  List.map
    (fun (name, fn) -> Alcotest.test_case name `Quick fn)
    (Vfs.Conformance.cases (module Squirrelfs) ~device)

let fresh () =
  let dev = device () in
  Sq.mkfs dev;
  match Sq.mount dev with
  | Ok fs -> (dev, fs)
  | Error e -> Alcotest.failf "mount: %s" (Vfs.Errno.to_string e)

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Vfs.Errno.to_string e)

(* {1 Typestate / linearity} *)

let test_stale_handle_detected () =
  let _dev, ctx = fresh () in
  let ih = ok "alloc" (Sq.Objects.Inode.alloc ctx) in
  let _ih2 = Sq.Objects.Inode.init_file ctx ih ~mode:0 ~uid:0 ~gid:0 in
  (* Reusing the consumed handle must raise. *)
  Alcotest.(check bool) "stale handle raises" true
    (try
       ignore (Sq.Objects.Inode.init_file ctx ih ~mode:0 ~uid:0 ~gid:0);
       false
     with Token.Stale_handle _ -> true)

let test_fence_required_before_clean () =
  let _dev, ctx = fresh () in
  let ih = ok "alloc" (Sq.Objects.Inode.alloc ctx) in
  let ih = Sq.Objects.Inode.init_file ctx ih ~mode:0 ~uid:0 ~gid:0 in
  let ih = Sq.Objects.Inode.flush ctx ih in
  (* No fence has been issued since the flush: after_fence must refuse. *)
  Alcotest.(check bool) "after_fence without fence raises" true
    (try
       ignore (Sq.Objects.Inode.after_fence ctx ih);
       false
     with Token.Stale_handle _ -> true)

let test_shared_fence_allows_after_fence () =
  let _dev, ctx = fresh () in
  let ih = ok "alloc" (Sq.Objects.Inode.alloc ctx) in
  let ih = Sq.Objects.Inode.init_file ctx ih ~mode:0 ~uid:0 ~gid:0 in
  let ih = Sq.Objects.Inode.flush ctx ih in
  Sq.Fsctx.fence ctx;
  let _ih = Sq.Objects.Inode.after_fence ctx ih in
  ()

let test_evidence_single_use () =
  let _dev, ctx = fresh () in
  let ino = ok "create" (Sq.Ops.create_file ctx ~dir:1 ~name:"a") in
  ignore (ok "link" (Sq.Ops.link ctx ~dir:1 ~name:"b" ~target_ino:ino));
  let dh = ok "get" (Sq.Objects.Dentry.get ctx ~dir:1 ~name:"a") in
  let dh = Sq.Objects.Dentry.clear_ino ctx dh in
  let dh = Sq.Objects.Dentry.fence ctx (Sq.Objects.Dentry.flush ctx dh) in
  let _dh, ev = Sq.Objects.Dentry.cleared_evidence ctx dh in
  let ih = Sq.Objects.Inode.get ctx ino in
  let ih = Sq.Objects.Inode.dec_link ctx ih ~cleared:ev in
  let ih = Sq.Objects.Inode.fence ctx (Sq.Objects.Inode.flush ctx ih) in
  ignore ih;
  let ih2 = Sq.Objects.Inode.get ctx ino in
  Alcotest.(check bool) "evidence reuse fails" true
    (try
       ignore (Sq.Objects.Inode.dec_link ctx ih2 ~cleared:ev);
       false
     with Failure _ -> true)

let test_set_size_requires_owned_pages () =
  let _dev, ctx = fresh () in
  let ino = ok "create" (Sq.Ops.create_file ctx ~dir:1 ~name:"f") in
  let ih = Sq.Objects.Inode.get ctx ino in
  Alcotest.(check bool) "size beyond owned pages fails" true
    (try
       ignore
         (Sq.Objects.Inode.set_size ctx ih ~size:10_000 ~owned:None ());
       false
     with Failure _ -> true)

(* {1 Fence accounting (paper §3.3: ops share fences)} *)

let fences dev = (Device.stats dev).Pmem.Stats.fences

(* The one persistence protocol, for every object kind: each entry
   flushes a fresh handle of that kind and returns a thunk running its
   [after_fence]. *)
let flushed =
  let module O = Sq.Objects in
  [
    ( "inode",
      fun ctx ->
        let ih = ok "alloc" (O.Inode.alloc ctx) in
        let ih = O.Inode.init_file ctx ih ~mode:0 ~uid:0 ~gid:0 in
        let ih = O.Inode.flush ctx ih in
        fun () -> ignore (O.Inode.after_fence ctx ih) );
    ( "prange",
      fun ctx ->
        let r =
          ok "alloc"
            (O.Prange.alloc ctx ~ino:1 ~kind:Layout.Records.Desc.Data
               ~offsets:[ 0 ])
        in
        let r = O.Prange.flush ctx (O.Prange.fill ctx r ~off:0 ~data:"x") in
        fun () -> ignore (O.Prange.after_fence ctx r) );
    ( "dentry",
      fun ctx ->
        let dh = ok "alloc" (O.Dentry.alloc ctx ~dir:1) in
        let dh = O.Dentry.flush ctx (O.Dentry.set_name ctx dh "n") in
        fun () -> ignore (O.Dentry.after_fence ctx dh) );
    ( "preplace",
      fun ctx ->
        let ino = ok "create" (Sq.Ops.create_file ctx ~dir:1 ~name:"f") in
        ignore (ok "write" (Sq.Ops.write ctx ~ino ~off:0 "old"));
        let old_page =
          match Sq.Index.file_pages ctx.Sq.Fsctx.index ~ino with
          | (_, page) :: _ -> page
          | [] -> Alcotest.fail "written file owns no page"
        in
        let ph =
          ok "stage"
            (O.Preplace.stage ctx ~ino ~offset:0 ~old_page ~content:"new")
        in
        let ph = O.Preplace.flush ctx ph in
        fun () -> ignore (O.Preplace.after_fence ctx ph) );
  ]

let test_after_fence_needs_a_fence () =
  List.iter
    (fun (kind, flushed) ->
      let _dev, ctx = fresh () in
      let after_fence = flushed ctx in
      Alcotest.(check bool) (kind ^ ": no fence since the flush raises") true
        (try
           after_fence ();
           false
         with Token.Stale_handle _ -> true))
    flushed

let test_after_fence_shares_a_fence () =
  List.iter
    (fun (kind, flushed) ->
      let dev, ctx = fresh () in
      let after_fence = flushed ctx in
      Sq.Fsctx.fence ctx;
      let before = fences dev in
      after_fence ();
      Alcotest.(check int) (kind ^ ": no sfence of its own") 0
        (fences dev - before))
    flushed

let test_after_fence_unshared () =
  List.iter
    (fun (kind, flushed) ->
      let dev, ctx = fresh () in
      ctx.Sq.Fsctx.share_fences <- false;
      let after_fence = flushed ctx in
      let before = fences dev in
      after_fence ();
      Alcotest.(check int) (kind ^ ": exactly one sfence") 1
        (fences dev - before))
    flushed

let test_create_uses_two_fences () =
  let dev, ctx = fresh () in
  (* warm up: the first op in a fresh root allocates the first dir page *)
  ignore (ok "warm" (Sq.Ops.create_file ctx ~dir:1 ~name:"w"));
  let before = fences dev in
  ignore (ok "create" (Sq.Ops.create_file ctx ~dir:1 ~name:"x"));
  Alcotest.(check int) "create = 2 fences" 2 (fences dev - before)

let test_mkdir_uses_two_fences () =
  let dev, ctx = fresh () in
  (* warm up: first op in a fresh root may allocate the first dir page *)
  ignore (ok "warm" (Sq.Ops.create_file ctx ~dir:1 ~name:"w"));
  let before = fences dev in
  ignore (ok "mkdir" (Sq.Ops.mkdir ctx ~dir:1 ~name:"d"));
  Alcotest.(check int) "mkdir = 2 fences" 2 (fences dev - before)

let test_append_small_uses_one_fence () =
  let dev, ctx = fresh () in
  let ino = ok "create" (Sq.Ops.create_file ctx ~dir:1 ~name:"x") in
  ignore (ok "w0" (Sq.Ops.write ctx ~ino ~off:0 "seed"));
  let before = fences dev in
  ignore (ok "append" (Sq.Ops.write ctx ~ino ~off:4 "more"));
  (* in-place write: data and inode drain under one fence *)
  Alcotest.(check int) "small append = 1 fence" 1 (fences dev - before)

let test_allocating_write_uses_two_fences () =
  let dev, ctx = fresh () in
  let ino = ok "create" (Sq.Ops.create_file ctx ~dir:1 ~name:"x") in
  let before = fences dev in
  ignore (ok "write" (Sq.Ops.write ctx ~ino ~off:0 (String.make 4096 'a')));
  (* staged relink commit: fill+backptr flip under one fence, size under
     the second *)
  Alcotest.(check int) "allocating write = 2 fences" 2 (fences dev - before)

(* {1 Mount rebuild} *)

let test_mount_rebuilds_indexes () =
  let dev, fs = fresh () in
  ignore (ok "mkdir" (Sq.mkdir fs "/d"));
  ignore (ok "create" (Sq.create fs "/d/f"));
  ignore (ok "write" (Sq.write fs "/d/f" ~off:0 "hello"));
  let before = Vfs.Logical.capture (module Squirrelfs) fs in
  Sq.unmount fs;
  let fs2 = ok "remount" (Sq.mount dev) in
  let after = Vfs.Logical.capture (module Squirrelfs) fs2 in
  Alcotest.(check bool) "same logical tree" true
    (Vfs.Logical.equal before after)

let test_mount_garbage_fails () =
  let dev = device () in
  Alcotest.(check bool) "garbage mount fails" true
    (match Sq.mount dev with Error Vfs.Errno.EINVAL -> true | _ -> false)

let test_allocators_rebuilt () =
  let dev, fs = fresh () in
  ignore (ok "create" (Sq.create fs "/a"));
  ignore (ok "write" (Sq.write fs "/a" ~off:0 (String.make 8192 'x')));
  let free_inodes = Sq.Alloc.free_inode_count fs.Sq.Fsctx.alloc in
  let free_pages = Sq.Alloc.free_page_count fs.Sq.Fsctx.alloc in
  Sq.unmount fs;
  let fs2 = ok "remount" (Sq.mount dev) in
  Alcotest.(check int) "free inodes preserved" free_inodes
    (Sq.Alloc.free_inode_count fs2.Sq.Fsctx.alloc);
  Alcotest.(check int) "free pages preserved" free_pages
    (Sq.Alloc.free_page_count fs2.Sq.Fsctx.alloc)

let test_unlink_returns_resources () =
  let _dev, fs = fresh () in
  ignore (ok "warm" (Sq.create fs "/warm"));
  let free_inodes = Sq.Alloc.free_inode_count fs.Sq.Fsctx.alloc in
  let free_pages = Sq.Alloc.free_page_count fs.Sq.Fsctx.alloc in
  ignore (ok "create" (Sq.create fs "/a"));
  ignore (ok "write" (Sq.write fs "/a" ~off:0 (String.make 12288 'x')));
  ignore (ok "unlink" (Sq.unlink fs "/a"));
  Alcotest.(check int) "inodes back" free_inodes
    (Sq.Alloc.free_inode_count fs.Sq.Fsctx.alloc);
  Alcotest.(check int) "pages back" free_pages
    (Sq.Alloc.free_page_count fs.Sq.Fsctx.alloc)

(* {1 Recovery} *)

(* Crash the file system by taking the durable image mid-operation and
   remounting it. *)
let crash_image dev = Device.image_durable dev

let test_recovery_mount_clean_volume () =
  let dev, fs = fresh () in
  ignore (ok "create" (Sq.create fs "/a"));
  Sq.unmount fs;
  let fs2 = ok "recovery mount" (Sq.Mount.mount_recover dev) in
  let st = fs2.Sq.Fsctx.recovery in
  Alcotest.(check bool) "recovery ran" true st.Sq.Fsctx.recovered;
  Alcotest.(check int) "no orphans on clean volume" 0 st.Sq.Fsctx.orphan_inodes;
  ignore (ok "still works" (Sq.stat fs2 "/a"))

let test_crash_no_unmount_triggers_recovery () =
  let dev, fs = fresh () in
  ignore (ok "create" (Sq.create fs "/a"));
  (* no unmount: clean flag still 0 *)
  let img = crash_image dev in
  let dev2 = Device.of_image img in
  let fs2 = ok "mount" (Sq.mount dev2) in
  Alcotest.(check bool) "recovery ran" true fs2.Sq.Fsctx.recovery.Sq.Fsctx.recovered

let test_recovery_frees_orphan_inode () =
  let dev, ctx = fresh () in
  (* simulate a crash after inode init but before dentry commit: allocate
     and initialize an inode, persist it, and never link it *)
  let ih = ok "alloc" (Sq.Objects.Inode.alloc ctx) in
  let ih = Sq.Objects.Inode.init_file ctx ih ~mode:0o644 ~uid:0 ~gid:0 in
  let _ih = Sq.Objects.Inode.fence ctx (Sq.Objects.Inode.flush ctx ih) in
  let dev2 = Device.of_image (crash_image dev) in
  let fs2 = ok "mount" (Sq.mount dev2) in
  Alcotest.(check int) "orphan freed" 1 fs2.Sq.Fsctx.recovery.Sq.Fsctx.orphan_inodes;
  (* the slot is reusable again *)
  ignore (ok "create" (Sq.create fs2 "/new"));
  ignore (ok "stat" (Sq.stat fs2 "/new"))

let test_recovery_fixes_link_count () =
  let dev, ctx = fresh () in
  let ino = ok "create" (Sq.Ops.create_file ctx ~dir:1 ~name:"a") in
  (* corrupt: bump the link count without a second dentry *)
  let geo = ctx.Sq.Fsctx.geo in
  let base = Layout.Geometry.inode_off geo ~ino in
  Device.store_u64 dev (base + Layout.Records.Inode.f_links) 7;
  Device.persist dev ~off:base ~len:8;
  let dev2 = Device.of_image (crash_image dev) in
  let fs2 = ok "mount" (Sq.mount dev2) in
  Alcotest.(check int) "one fixed link count" 1
    fs2.Sq.Fsctx.recovery.Sq.Fsctx.fixed_link_counts;
  let s = ok "stat" (Sq.stat fs2 "/a") in
  Alcotest.(check int) "links corrected" 1 s.Vfs.Fs.links

let test_mem_footprint_reported () =
  let _dev, fs = fresh () in
  ignore (ok "create" (Sq.create fs "/a"));
  ignore (ok "write" (Sq.write fs "/a" ~off:0 (String.make 4096 'x')));
  let bytes = Sq.Index.footprint_bytes fs.Sq.Fsctx.index in
  Alcotest.(check bool) "non-trivial footprint" true (bytes > 250)

(* Page-range handles take fresh token cells that never enter the
   registry's table: after many allocating writes and freeing truncates
   it holds one cell per object minted by id, here the root and the two
   files' inodes and their two dentry slots, not one per range. *)
let test_token_table_bounded () =
  let _dev, fs = fresh () in
  let files = [ "/a"; "/b" ] in
  List.iter (fun f -> ok "create" (Sq.create fs f)) files;
  for i = 1 to 1_000 do
    let f = List.nth files (i mod 2) in
    if i mod 10 = 0 then ok "truncate" (Sq.truncate fs f (i mod 3 * 100))
    else begin
      let size = (ok "stat" (Sq.stat fs f)).Vfs.Fs.size in
      ignore (ok "write" (Sq.write fs f ~off:size (String.make 1500 'x')) : int)
    end
  done;
  let touched = 3 (* inodes *) + 2 (* dentry slots *) in
  let tracked = Token.tracked fs.Sq.Fsctx.reg in
  if tracked > touched then
    Alcotest.failf "token table holds %d cells, want at most %d" tracked
      touched;
  Alcotest.(check (list string)) "fsck clean" [] (Sq.Fsck.check fs)

(* A size or write end past the volume's data pages is ENOSPC before any
   store: no overflowing page count, no per-page list up to the target,
   and the file keeps its size. *)
let test_oversized_sizes_enospc () =
  let _dev, fs = fresh () in
  ok "create" (Sq.create fs "/f");
  let size () = (ok "stat" (Sq.stat fs "/f")).Vfs.Fs.size in
  let enospc what = function
    | Error Vfs.Errno.ENOSPC -> ()
    | Error e -> Alcotest.failf "%s: %s, want ENOSPC" what (Vfs.Errno.to_string e)
    | Ok _ -> Alcotest.failf "%s succeeded, want ENOSPC" what
  in
  let probe want =
    List.iter
      (fun n -> enospc (Printf.sprintf "truncate %d" n) (Sq.truncate fs "/f" n))
      [ max_int; 1 lsl 40; 1 lsl 30 ];
    List.iter
      (fun off ->
        enospc (Printf.sprintf "write at %d" off) (Sq.write fs "/f" ~off "abc"))
      [ 1 lsl 40; max_int - 10 ];
    Alcotest.(check int) "size unchanged" want (size ());
    Alcotest.(check (list string)) "fsck clean" [] (Sq.Fsck.check fs)
  in
  probe 0;
  ignore (ok "write" (Sq.write fs "/f" ~off:0 "abc") : int);
  probe 3;
  Alcotest.(check string) "content kept" "abc"
    (ok "read" (Sq.read fs "/f" ~off:0 ~len:10))

let squirrelfs_tests =
  [
    ("stale handle detected", `Quick, test_stale_handle_detected);
    ("fence required before clean", `Quick, test_fence_required_before_clean);
    ("shared fence allows after_fence", `Quick, test_shared_fence_allows_after_fence);
    ("evidence single use", `Quick, test_evidence_single_use);
    ("set_size requires owned pages", `Quick, test_set_size_requires_owned_pages);
    ("create = 2 fences", `Quick, test_create_uses_two_fences);
    ("mkdir = 2 fences", `Quick, test_mkdir_uses_two_fences);
    ("small append = 1 fence", `Quick, test_append_small_uses_one_fence);
    ("allocating write = 2 fences", `Quick, test_allocating_write_uses_two_fences);
    ("mount rebuilds indexes", `Quick, test_mount_rebuilds_indexes);
    ("mount of garbage fails", `Quick, test_mount_garbage_fails);
    ("allocators rebuilt", `Quick, test_allocators_rebuilt);
    ("unlink returns resources", `Quick, test_unlink_returns_resources);
    ("recovery mount on clean volume", `Quick, test_recovery_mount_clean_volume);
    ("missing unmount triggers recovery", `Quick, test_crash_no_unmount_triggers_recovery);
    ("recovery frees orphan inode", `Quick, test_recovery_frees_orphan_inode);
    ("recovery fixes link count", `Quick, test_recovery_fixes_link_count);
    ("memory footprint reported", `Quick, test_mem_footprint_reported);
    ("after_fence needs a fence, every kind", `Quick, test_after_fence_needs_a_fence);
    ("after_fence shares a fence, every kind", `Quick, test_after_fence_shares_a_fence);
    ("unshared after_fence fences once, every kind", `Quick, test_after_fence_unshared);
    ("token table bounded by objects", `Quick, test_token_table_bounded);
    ("oversized truncate and write are ENOSPC", `Quick, test_oversized_sizes_enospc);
  ]

let () =
  Alcotest.run "squirrelfs"
    [ ("conformance", conformance); ("squirrelfs", squirrelfs_tests) ]
