(* Audit of device statistics and allocator state across repeated mount
   cycles (ISSUE 2 satellite: the fuzzer remounts thousands of times and
   would amplify any drift).

   Audit findings, pinned as regressions here:

   - [Pmem.Stats] counters are DEVICE-lifetime, not mount-lifetime:
     nothing resets them on mount/unmount (by design — simulated time and
     traffic are properties of the medium). [Stats.reset] exists for
     explicit use, and every [Device.of_image] starts a fresh device with
     zeroed counters, which is what gives each crash-image probe its own
     clean accounting.
   - The volatile allocator rebuilt by each mount agrees exactly with the
     allocator state the previous mount reached, and with what Fsck
     derives, across arbitrarily many cycles: no free-inode or free-page
     drift, in either direction. *)

module Device = Pmem.Device
module Sq = Squirrelfs
module Alloc = Squirrelfs.Alloc

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected %s" (Vfs.Errno.to_string e)

(* One busy cycle: churn the namespace, record free counts, unmount,
   remount, and require the rebuilt allocator to agree. *)
let test_free_lists_agree_across_cycles () =
  let dev = Device.create ~size:(512 * 1024) () in
  Sq.mkfs dev;
  let fs = ref (ok (Sq.mount dev)) in
  let baseline_inodes = Alloc.free_inode_count (!fs).Sq.Fsctx.alloc in
  let baseline_pages = Alloc.free_page_count (!fs).Sq.Fsctx.alloc in
  for cycle = 0 to 24 do
    let fs0 = !fs in
    let p = Printf.sprintf "/f%d" cycle in
    ok (Sq.create fs0 p);
    ignore (ok (Sq.write fs0 p ~off:0 (String.make 5000 'x')) : int);
    ok (Sq.mkdir fs0 (Printf.sprintf "/d%d" cycle));
    if cycle mod 2 = 1 then begin
      (* delete the previous cycle's file on odd cycles: both grow-only
         and shrink paths cross remounts *)
      ok (Sq.unlink fs0 (Printf.sprintf "/f%d" (cycle - 1)));
      ok (Sq.rmdir fs0 (Printf.sprintf "/d%d" (cycle - 1)))
    end;
    let live_inodes = Alloc.free_inode_count fs0.Sq.Fsctx.alloc in
    let live_pages = Alloc.free_page_count fs0.Sq.Fsctx.alloc in
    Sq.unmount fs0;
    let fs1 = ok (Sq.mount dev) in
    let rebuilt_inodes = Alloc.free_inode_count fs1.Sq.Fsctx.alloc in
    let rebuilt_pages = Alloc.free_page_count fs1.Sq.Fsctx.alloc in
    if rebuilt_inodes <> live_inodes then
      Alcotest.failf "cycle %d: free inodes drifted: live %d, rebuilt %d" cycle
        live_inodes rebuilt_inodes;
    if rebuilt_pages <> live_pages then
      Alcotest.failf "cycle %d: free pages drifted: live %d, rebuilt %d" cycle
        live_pages rebuilt_pages;
    Alcotest.(check (list string))
      (Printf.sprintf "cycle %d: fsck clean" cycle)
      [] (Sq.Fsck.check fs1);
    fs := fs1
  done;
  (* Delete everything: inodes return exactly to the baseline; pages
     return to the baseline minus the dir pages the root directory
     allocated and retains (directories keep their dentry pages once
     allocated — only rmdir of the directory itself frees them, and "/"
     is never removed). The retained amount must be tiny and stable. *)
  let fs0 = !fs in
  List.iter
    (fun name ->
      let p = "/" ^ name in
      let st = ok (Sq.stat fs0 p) in
      if st.Vfs.Fs.kind = Vfs.Fs.Dir then ok (Sq.rmdir fs0 p)
      else ok (Sq.unlink fs0 p))
    (ok (Sq.readdir fs0 "/"));
  Sq.unmount fs0;
  let fs1 = ok (Sq.mount dev) in
  Alcotest.(check int) "free inodes back to baseline" baseline_inodes
    (Alloc.free_inode_count fs1.Sq.Fsctx.alloc);
  let end_pages = Alloc.free_page_count fs1.Sq.Fsctx.alloc in
  if end_pages > baseline_pages || baseline_pages - end_pages > 2 then
    Alcotest.failf "free pages drifted: baseline %d, end %d (expected at most \
                    2 root dir pages retained)" baseline_pages end_pages;
  Alcotest.(check (list string)) "fsck clean at the end" [] (Sq.Fsck.check fs1);
  (* further empty remounts: no progressive drift *)
  Sq.unmount fs1;
  let fs2 = ok (Sq.mount dev) in
  Alcotest.(check int) "stable across empty remounts" end_pages
    (Alloc.free_page_count fs2.Sq.Fsctx.alloc)

(* Stats audit finding 1: counters accumulate across mounts — a remount
   ADDS its rebuild-scan traffic; nothing silently resets. *)
let test_stats_accumulate_across_mounts () =
  let dev = Device.create ~size:(256 * 1024) () in
  Sq.mkfs dev;
  let reads_after_mkfs = (Device.stats dev).Pmem.Stats.reads in
  let fs = ok (Sq.mount dev) in
  let reads_after_mount = (Device.stats dev).Pmem.Stats.reads in
  Alcotest.(check bool) "mount scan adds reads" true
    (reads_after_mount > reads_after_mkfs);
  ok (Sq.create fs "/a");
  Sq.unmount fs;
  let before = (Device.stats dev).Pmem.Stats.reads in
  let fs = ok (Sq.mount dev) in
  Alcotest.(check bool) "remount does not reset counters" true
    ((Device.stats dev).Pmem.Stats.reads > before);
  Sq.unmount fs;
  (* explicit reset is available and total *)
  Pmem.Stats.reset (Device.stats dev);
  Alcotest.(check int) "explicit reset zeroes reads" 0
    (Device.stats dev).Pmem.Stats.reads;
  Alcotest.(check int) "explicit reset zeroes stores" 0
    (Device.stats dev).Pmem.Stats.stores

(* Stats audit finding 2: crash-image devices ([Device.of_image]) start
   with fresh zeroed counters and do not alias the source device's — this
   is what keeps per-probe accounting in the fuzzer independent. *)
let test_of_image_stats_fresh () =
  let dev = Device.create ~size:(256 * 1024) () in
  Sq.mkfs dev;
  let fs = ok (Sq.mount dev) in
  ok (Sq.create fs "/a");
  let src_stores = (Device.stats dev).Pmem.Stats.stores in
  Alcotest.(check bool) "source saw stores" true (src_stores > 0);
  let d2 = Device.of_image (Device.image_durable dev) in
  Alcotest.(check int) "fresh device: zero stores" 0 (Device.stats d2).Pmem.Stats.stores;
  Alcotest.(check int) "fresh device: zero reads" 0 (Device.stats d2).Pmem.Stats.reads;
  let _ = ok (Sq.mount d2) in
  Alcotest.(check bool) "probe traffic lands on the copy" true
    ((Device.stats d2).Pmem.Stats.reads > 0);
  Alcotest.(check int) "source unchanged by the probe" src_stores
    (Device.stats dev).Pmem.Stats.stores

(* {1 Mount's simulated charges}

   Mount charges simulated reads for the records it decodes. The figures
   below were measured on the Table 2 scenario ([bench tab2]: a 64 MiB
   Optane volume, empty and then filled with 12 KiB files in 500-entry
   directories until an allocator runs out) and on a checksummed volume
   whose media pre-pass runs every ledger branch, including the
   suspect-inode reference scan a corrupt inode triggers. Any change to
   how mount reads the tables must keep every delta exact: Table 2 is
   computed from them. *)

type charge = { ns : int; reads : int; bytes : int }

let measure dev f =
  let st = Device.stats dev in
  let ns0 = Device.now_ns dev and r0 = st.Pmem.Stats.reads
  and b0 = st.Pmem.Stats.bytes_read in
  let fs = ok (f dev) in
  ( fs,
    {
      ns = Device.now_ns dev - ns0;
      reads = st.Pmem.Stats.reads - r0;
      bytes = st.Pmem.Stats.bytes_read - b0;
    } )

let check_charge what want got =
  if got <> want then
    Alcotest.failf "%s: got %d ns, %d reads, %d bytes; want %d ns, %d reads, %d bytes"
      what got.ns got.reads got.bytes want.ns want.reads want.bytes

(* [bench tab2]'s fill: 12 KiB files, 500 entries per directory, until
   the volume is out of inodes or pages. *)
let fill fs ~max_files =
  let files = ref 0 and dir = ref 0 in
  let data = String.make 12288 'f' in
  ok (Sq.mkdir fs "/d0");
  (try
     while !files < max_files do
       if !files mod 500 = 499 then begin
         incr dir;
         ok (Sq.mkdir fs (Printf.sprintf "/d%d" !dir))
       end;
       let p = Printf.sprintf "/d%d/f%d" !dir !files in
       (match Sq.create fs p with Ok () -> () | Error _ -> raise Exit);
       (match Sq.write fs p ~off:0 data with Ok _ -> () | Error _ -> raise Exit);
       incr files
     done
   with Exit -> ());
  !files

let test_tab2_mount_charges () =
  let dev = Device.create ~latency:Pmem.Latency.optane ~size:(64 lsl 20) () in
  Sq.mkfs dev;
  let fs, c = measure dev Sq.Mount.mount in
  check_charge "normal, empty" { ns = 10_483; reads = 112; bytes = 8_336 } c;
  Sq.unmount fs;
  let fs, c = measure dev Sq.Mount.mount_recover in
  check_charge "recovery, empty" { ns = 14_983; reads = 162; bytes = 11_736 } c;
  Alcotest.(check int) "files" 3_992 (fill fs ~max_files:max_int);
  Sq.unmount fs;
  let fs, c = measure dev Sq.Mount.mount in
  check_charge "normal, full"
    { ns = 22_809_255; reads = 132_936; bytes = 3_811_512 } c;
  Sq.unmount fs;
  let _, c = measure dev Sq.Mount.mount_recover in
  check_charge "recovery, full"
    { ns = 26_178_875; reads = 137_114; bytes = 3_847_936 } c

let test_csum_mount_charges () =
  let dev = Device.create ~latency:Pmem.Latency.optane ~size:(64 lsl 20) () in
  Sq.Mount.mkfs ~csum:true dev;
  let fs, c = measure dev Sq.Mount.mount in
  check_charge "csum normal, empty"
    { ns = 15_183; reads = 151; bytes = 12_596 } c;
  Alcotest.(check int) "files" 600 (fill fs ~max_files:600);
  ok (Sq.rename fs "/d0/f0" "/d1/g0");
  Sq.unmount fs;
  let fs, c = measure dev Sq.Mount.mount in
  check_charge "csum normal, filled"
    { ns = 4_615_239; reads = 32_324; bytes = 819_848 } c;
  Sq.unmount fs;
  let fs, c = measure dev Sq.Mount.mount_recover in
  check_charge "csum recovery, filled"
    { ns = 5_128_219; reads = 33_046; bytes = 828_624 } c;
  (* Rot one sealed field of a referenced inode: the pre-pass scans the
     directory pages for references and the mount comes up degraded. *)
  let ino = (ok (Sq.stat fs "/d1/f550")).Vfs.Fs.ino in
  Sq.unmount fs;
  Device.flip_bit dev
    ~off:(Layout.Geometry.inode_off fs.Sq.Fsctx.geo ~ino + Layout.Records.Inode.f_mode)
    ~bit:1;
  let fs, c = measure dev Sq.Mount.mount in
  Alcotest.(check bool) "degraded" true (Sq.Mount.degraded fs);
  check_charge "csum degraded"
    { ns = 5_209_491; reads = 43_955; bytes = 1_014_872 } c

(* A data-page descriptor whose replace word reads out of range — -1,
   or the most negative word — is a pointer to no page: a recovering
   mount leaves it set, as it leaves a word past the volume, and fsck
   reports it. The file keeps its page. *)
let test_replace_word_out_of_range () =
  List.iter
    (fun (what, word) ->
      let dev = Device.create ~size:(256 * 1024) () in
      Sq.mkfs dev;
      let fs = ok (Sq.mount dev) in
      ok (Sq.create fs "/a");
      ignore (ok (Sq.write fs "/a" ~off:0 "data") : int);
      let ino = (ok (Sq.stat fs "/a")).Vfs.Fs.ino in
      let page =
        match Sq.Index.file_pages fs.Sq.Fsctx.index ~ino with
        | [ (0, page) ] -> page
        | _ -> Alcotest.fail "one data page"
      in
      let off = Layout.Geometry.desc_off fs.Sq.Fsctx.geo ~page + Layout.Records.Desc.f_replaces in
      Device.store_u64 dev off word;
      Device.persist dev ~off ~len:8;
      match Sq.Mount.mount_recover dev with
      | Error e -> Alcotest.failf "%s: mount refused: %s" what (Vfs.Errno.to_string e)
      | Ok fs ->
          Alcotest.(check (list string))
            (what ^ ": fsck reports the pointer")
            [ Printf.sprintf "page %d: replace pointer still set (interrupted COW write)" page ]
            (Sq.Fsck.check fs);
          Alcotest.(check string) (what ^ ": the file reads") "data"
            (ok (Sq.read fs "/a" ~off:0 ~len:4)))
    [ ("-1", -1); ("min_int", min_int) ]

let () =
  Alcotest.run "remount"
    [
      ( "alloc",
        [
          Alcotest.test_case "free lists agree across 25 cycles" `Quick
            test_free_lists_agree_across_cycles;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters accumulate (no reset on remount)" `Quick
            test_stats_accumulate_across_mounts;
          Alcotest.test_case "of_image starts fresh" `Quick test_of_image_stats_fresh;
        ] );
      ( "charges",
        [
          Alcotest.test_case "Table 2 mount charges" `Quick test_tab2_mount_charges;
          Alcotest.test_case "csum mount charges" `Quick test_csum_mount_charges;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "replace word out of range" `Quick
            test_replace_word_out_of_range;
        ] );
    ]
