(* Tests for the fault-injection & media-reliability subsystem: CRC32,
   seeded determinism of the fault stream, checksum detection of metadata
   corruption, degraded-mount quarantine semantics, and clean EIO (never
   an exception) through the VFS API. *)

module Device = Pmem.Device
module G = Layout.Geometry
module R = Layout.Records
module Sq = Squirrelfs
module Plan = Faults.Plan
module Crc32 = Faults.Crc32

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected %s" (Vfs.Errno.to_string e)

let mkfs_csum_mounted ?(size = 512 * 1024) () =
  let dev = Device.create ~size () in
  Sq.Mount.mkfs ~csum:true dev;
  (dev, ok (Sq.mount dev))

(* {1 CRC32} *)

let test_crc32_known () =
  (* IEEE CRC32 of "123456789" is the classic check value. *)
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.digest "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.digest "");
  (* Chaining: digest of a concatenation equals chained digests. *)
  let a = "squirrel" and b = "fs" in
  Alcotest.(check int) "chained"
    (Crc32.digest (a ^ b))
    (Crc32.digest ~crc:(Crc32.digest a) b)

let test_crc32_bit_sensitivity () =
  let base = Bytes.of_string (String.init 64 Char.chr) in
  let c0 = Crc32.digest_bytes base ~off:0 ~len:64 in
  for byte = 0 to 63 do
    for bit = 0 to 7 do
      let b = Bytes.copy base in
      Bytes.set b byte
        (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
      if Crc32.digest_bytes b ~off:0 ~len:64 = c0 then
        Alcotest.failf "flip of byte %d bit %d not detected" byte bit
    done
  done

(* {1 Seeded determinism} *)

(* The same plan on the same workload must produce the identical fault
   trace, event for event. *)
let run_traced seed =
  let dev = Device.create ~size:(256 * 1024) () in
  Sq.Mount.mkfs ~csum:true dev;
  let fs = ok (Sq.mount dev) in
  Device.set_fault_plan dev
    (Plan.make ~seed ~bit_flips:4 ~read_error_rate:0.01 ());
  ok (Sq.create fs "/a");
  ok (Sq.mkdir fs "/d");
  (match Sq.write fs "/a" ~off:0 (String.make 200 'x') with
  | Ok _ | Error _ -> ());
  ignore (Device.inject_flips dev : int);
  Device.fault_events dev

let test_trace_deterministic () =
  let t1 = run_traced 7 and t2 = run_traced 7 and t3 = run_traced 8 in
  Alcotest.(check int) "same length" (List.length t1) (List.length t2);
  List.iter2
    (fun a b ->
      if not (Faults.Trace.equal_event a b) then
        Alcotest.failf "traces diverge: %s vs %s"
          (Format.asprintf "%a" Faults.Trace.pp_event a)
          (Format.asprintf "%a" Faults.Trace.pp_event b))
    t1 t2;
  Alcotest.(check bool) "flips injected" true (List.length t1 >= 4);
  Alcotest.(check bool) "different seed, different trace" true
    (t1 <> t3)

(* {1 Checksum detection} *)

(* Every single-bit flip anywhere in the sealed region of a committed
   inode record must flip its verify result. *)
let test_inode_checksum_detects_all_flips () =
  let dev, fs = mkfs_csum_mounted () in
  ok (Sq.create fs "/victim");
  let st = ok (Sq.stat fs "/victim") in
  let base = G.inode_off fs.Sq.Fsctx.geo ~ino:st.Vfs.Fs.ino in
  Alcotest.(check bool) "committed record verifies" true
    (R.Inode.verify dev ~base);
  Device.set_fault_plan dev (Plan.make ~seed:1 ());
  List.iter
    (fun (off, len) ->
      for i = 0 to len - 1 do
        for bit = 0 to 7 do
          let abs = base + off + i in
          Device.flip_bit dev ~off:abs ~bit;
          if R.Inode.verify dev ~base then
            Alcotest.failf "flip at +%d bit %d not detected" (off + i) bit;
          Device.flip_bit dev ~off:abs ~bit (* restore *)
        done
      done)
    R.Inode.sealed_ranges;
  Alcotest.(check bool) "restored record verifies" true
    (R.Inode.verify dev ~base)

(* The scrubber's line ECC catches flips even in fields the record CRC
   does not cover (mutable fields like sizes and link counts). *)
let test_scrub_catches_mutable_field_flip () =
  let dev, fs = mkfs_csum_mounted () in
  ok (Sq.create fs "/f");
  let st = ok (Sq.stat fs "/f") in
  let base = G.inode_off fs.Sq.Fsctx.geo ~ino:st.Vfs.Fs.ino in
  Device.set_fault_plan dev (Plan.make ~seed:1 ());
  Alcotest.(check (list int)) "clean scrub" [] (Device.scrub dev);
  Device.flip_bit dev ~off:(base + R.Inode.f_size) ~bit:3;
  let bad = Device.scrub dev in
  let line = base + R.Inode.f_size in
  let line = line - (line mod Device.line_size) in
  Alcotest.(check bool) "flipped line flagged" true (List.mem line bad)

(* {1 Degraded mount, quarantine, EIO} *)

let test_degraded_mount_quarantine () =
  let dev, fs = mkfs_csum_mounted () in
  ok (Sq.create fs "/good");
  ignore (ok (Sq.write fs "/good" ~off:0 "intact") : int);
  ok (Sq.create fs "/bad");
  ignore (ok (Sq.write fs "/bad" ~off:0 "doomed") : int);
  let bad_ino = (ok (Sq.stat fs "/bad")).Vfs.Fs.ino in
  let base = G.inode_off fs.Sq.Fsctx.geo ~ino:bad_ino in
  Device.set_fault_plan dev (Plan.make ~seed:1 ());
  (* Corrupt the sealed kind field of the committed /bad inode. *)
  Device.flip_bit dev ~off:(base + R.Inode.f_kind) ~bit:0;
  let d2 = Device.of_image (Device.image_durable dev) in
  let fs2 = ok (Sq.mount d2) in
  Alcotest.(check bool) "degraded" true (Sq.Mount.degraded fs2);
  Alcotest.(check int) "one inode quarantined" 1 (fst (Sq.Mount.quarantined fs2));
  Alcotest.(check bool) "quarantine table has it" true
    (Faults.Quarantine.mem_ino fs2.Sq.Fsctx.quar bad_ino);
  (* EIO as a clean result, never an exception, via the VFS API. *)
  (match Sq.stat fs2 "/bad" with
  | Error Vfs.Errno.EIO -> ()
  | Error e -> Alcotest.failf "stat /bad: %s, want EIO" (Vfs.Errno.to_string e)
  | Ok _ -> Alcotest.fail "stat /bad succeeded on quarantined inode");
  (match Sq.read fs2 "/bad" ~off:0 ~len:6 with
  | Error Vfs.Errno.EIO -> ()
  | Error e -> Alcotest.failf "read /bad: %s, want EIO" (Vfs.Errno.to_string e)
  | Ok _ -> Alcotest.fail "read /bad succeeded on quarantined inode");
  (match Sq.write fs2 "/bad" ~off:0 "nope" with
  | Error Vfs.Errno.EIO -> ()
  | Error e -> Alcotest.failf "write /bad: %s, want EIO" (Vfs.Errno.to_string e)
  | Ok _ -> Alcotest.fail "write /bad succeeded on quarantined inode");
  (match Sq.unlink fs2 "/bad" with
  | Error Vfs.Errno.EIO -> ()
  | Error e ->
      Alcotest.failf "unlink /bad: %s, want EIO" (Vfs.Errno.to_string e)
  | Ok _ -> Alcotest.fail "unlink /bad succeeded on quarantined inode");
  (* The rest of the volume stays fully readable. *)
  Alcotest.(check string) "intact file reads" "intact"
    (ok (Sq.read fs2 "/good" ~off:0 ~len:6));
  Alcotest.(check bool) "/ lists both names" true
    (List.sort compare (ok (Sq.readdir fs2 "/")) = [ "bad"; "good" ]);
  (* Degraded fsck accepts the quarantined volume. *)
  Alcotest.(check (list string)) "fsck clean (degraded)" [] (Sq.Fsck.check fs2)

(* Recovery stats belong to the mounted context: a snapshot rollback's
   rebuild on a degraded volume skips recovery, as the degraded mount
   did, and the degraded verdict still reads the quarantine the mount
   left in place. *)
let test_rollback_keeps_degraded () =
  let dev, fs = mkfs_csum_mounted () in
  ok (Sq.create fs "/bad");
  ignore (ok (Sq.write fs "/bad" ~off:0 "doomed") : int);
  let bad_ino = (ok (Sq.stat fs "/bad")).Vfs.Fs.ino in
  Device.set_fault_plan dev (Plan.make ~seed:1 ());
  Device.flip_bit dev
    ~off:(G.inode_off fs.Sq.Fsctx.geo ~ino:bad_ino + R.Inode.f_kind)
    ~bit:0;
  let fs2 = ok (Sq.mount (Device.of_image (Device.image_durable dev))) in
  Alcotest.(check bool) "degraded mount skips recovery" false
    fs2.Sq.Fsctx.recovery.Sq.Fsctx.recovered;
  ok (Sq.create fs2 "/later");
  ignore (ok (Snap.snapshot fs2 "s0") : Snap.info);
  ok (Snap.rollback fs2 "s0");
  Alcotest.(check bool) "rollback ran recovery" false
    fs2.Sq.Fsctx.recovery.Sq.Fsctx.recovered;
  Alcotest.(check bool) "still degraded" true (Sq.Mount.degraded fs2);
  Alcotest.(check (pair int int)) "quarantine kept" (1, 0)
    (Sq.Mount.quarantined fs2)

(* A corrupt superblock is refused outright with EIO. *)
let test_superblock_corruption_refuses_mount () =
  let dev, _fs = mkfs_csum_mounted () in
  Device.set_fault_plan dev (Plan.make ~seed:1 ());
  Device.flip_bit dev ~off:8 ~bit:2;
  (* geometry field: sealed *)
  match Sq.mount (Device.of_image (Device.image_durable dev)) with
  | Error Vfs.Errno.EIO -> ()
  | Error e -> Alcotest.failf "mount: %s, want EIO" (Vfs.Errno.to_string e)
  | Ok _ -> Alcotest.fail "mount of corrupt superblock succeeded"

(* {1 Transient read errors} *)

let test_read_errors_surface_as_eio () =
  let dev, fs = mkfs_csum_mounted () in
  ok (Sq.create fs "/f");
  ignore (ok (Sq.write fs "/f" ~off:0 (String.make 4096 'q')) : int);
  (* Rate 1.0: every bulk read faults, the data path's single retry also
     faults, so reads must surface EIO — as a result, not an exception. *)
  Device.set_fault_plan dev (Plan.make ~seed:3 ~read_error_rate:1.0 ());
  (match Sq.read fs "/f" ~off:0 ~len:16 with
  | Error Vfs.Errno.EIO -> ()
  | Error e -> Alcotest.failf "read: %s, want EIO" (Vfs.Errno.to_string e)
  | Ok _ -> Alcotest.fail "read succeeded under total read failure");
  (* Metadata still works: stat goes through the fault-free meta path. *)
  ignore (ok (Sq.stat fs "/f") : Vfs.Fs.stat);
  Device.set_fault_plan dev Faults.none;
  Alcotest.(check string) "recovers once faults clear" "qqqq"
    (ok (Sq.read fs "/f" ~off:0 ~len:4))

(* Mount and fsck read metadata only, and metadata reads never draw a
   transient fault: under read errors a volume that was not unmounted
   (so mount runs snapshot recovery) mounts on every seed, checks
   without raising, and serves operations that answer with results. *)
let test_read_errors_spare_mount_and_fsck () =
  List.iter
    (fun csum ->
      let dev = Device.create ~size:(256 * 1024) () in
      Sq.Mount.mkfs ~csum dev;
      let fs = ok (Sq.mount dev) in
      ok (Sq.create fs "/a");
      ignore (ok (Sq.write fs "/a" ~off:0 (String.make 5000 'a')) : int);
      ok (Sq.mkdir fs "/d");
      let image = Device.image_durable dev in
      let mounted ~seed ~rate =
        let d = Device.of_image image in
        Device.set_fault_plan d (Plan.make ~seed ~read_error_rate:rate ());
        let what = Printf.sprintf "csum=%b seed %d rate %g" csum seed rate in
        match Sq.mount d with
        | exception e -> Alcotest.failf "%s: mount raised %s" what (Printexc.to_string e)
        | Error e -> Alcotest.failf "%s: mount %s" what (Vfs.Errno.to_string e)
        | Ok fs -> (
            match Sq.Fsck.check fs with
            | exception e -> Alcotest.failf "%s: fsck raised %s" what (Printexc.to_string e)
            | errs ->
                Alcotest.(check (list string)) (what ^ ": fsck") [] errs;
                (what, fs))
      in
      for seed = 1 to 30 do
        let what, fs = mounted ~seed ~rate:0.05 in
        let step name f =
          match f () with
          | exception e -> Alcotest.failf "%s: %s raised %s" what name (Printexc.to_string e)
          | () -> ()
        in
        step "stat" (fun () -> ignore (Sq.stat fs "/a"));
        step "read" (fun () -> ignore (Sq.read fs "/a" ~off:0 ~len:5000));
        step "readdir" (fun () -> ignore (Sq.readdir fs "/"));
        step "create" (fun () -> ignore (Sq.create fs "/b"));
        step "write" (fun () -> ignore (Sq.write fs "/b" ~off:0 (String.make 300 'b')));
        step "unlink" (fun () -> ignore (Sq.unlink fs "/a"));
        step "capture" (fun () ->
            ignore (Vfs.Logical.capture (module Squirrelfs) fs : Vfs.Logical.t))
      done;
      ignore (mounted ~seed:1 ~rate:1.0))
    [ false; true ]

(* A faulted read models the controller aborting before any data moves:
   no latency charged, no reads/bytes_read counted — only read_faults.
   read_meta never faults and charges in full. Pins the accounting
   contract documented in device.mli. *)
let test_read_fault_accounting () =
  let dev = Device.create ~latency:Pmem.Latency.optane ~size:4096 () in
  Device.store dev ~off:0 "abcdefgh";
  Device.persist dev ~off:0 ~len:8;
  Device.set_fault_plan dev (Plan.make ~seed:9 ~read_error_rate:1.0 ());
  let st0 = Pmem.Stats.copy (Device.stats dev) in
  let t0 = Device.now_ns dev in
  (match Device.read dev ~off:0 ~len:8 with
  | exception Device.Media_error _ -> ()
  | _ -> Alcotest.fail "read succeeded under read_error_rate=1.0");
  let st1 = Pmem.Stats.copy (Device.stats dev) in
  Alcotest.(check int) "faulted read counts no read" st0.Pmem.Stats.reads
    st1.Pmem.Stats.reads;
  Alcotest.(check int) "faulted read moves no bytes" st0.Pmem.Stats.bytes_read
    st1.Pmem.Stats.bytes_read;
  Alcotest.(check int) "one read fault recorded"
    (st0.Pmem.Stats.read_faults + 1)
    st1.Pmem.Stats.read_faults;
  Alcotest.(check int) "faulted read charges no latency" t0 (Device.now_ns dev);
  (* read_meta bypasses injection and charges/counts in full. *)
  let b = Device.read_meta dev ~off:0 ~len:8 in
  Alcotest.(check string) "read_meta still works" "abcdefgh" (Bytes.to_string b);
  let st2 = Pmem.Stats.copy (Device.stats dev) in
  Alcotest.(check int) "read_meta counts" (st1.Pmem.Stats.reads + 1)
    st2.Pmem.Stats.reads;
  Alcotest.(check int) "read_meta moves bytes" (st1.Pmem.Stats.bytes_read + 8)
    st2.Pmem.Stats.bytes_read;
  Alcotest.(check int) "no extra fault" st1.Pmem.Stats.read_faults
    st2.Pmem.Stats.read_faults;
  Alcotest.(check bool) "read_meta charges latency" true (Device.now_ns dev > t0)

(* {1 Fault runs through the crash oracle ([Fuzzer.Exec.run])} *)

module H = Crashcheck.Harness

(* Same plan, same outcome — fault counters and media states included —
   and Phase B detects and EIO-checks both flips. *)
let test_harness_fault_run_deterministic () =
  let plan = Plan.make ~seed:11 ~bit_flips:2 ~torn_line_rate:0.2 () in
  let w = Crashcheck.Workload.[ Create "/a"; Write ("/a", 0, "data"); Mkdir "/d" ] in
  let o1 = Fuzzer.Exec.run ~faults:plan w and o2 = Fuzzer.Exec.run ~faults:plan w in
  Alcotest.(check bool) "identical outcomes" true (o1 = o2);
  let r = o1.Fuzzer.Exec.o_report in
  Alcotest.(check int) "no violations" 0 (List.length r.H.violations);
  Alcotest.(check int) "both flips detected" 2 r.H.faults_detected;
  Alcotest.(check int) "both flips EIO-checked" 2 r.H.eio_checks;
  Alcotest.(check bool) "media images probed" true (r.H.media_states > 0)

(* The reinjected ordering bugs must still be caught when the volume
   carries checksums (any non-trivial plan formats csum). *)
let test_buggy_still_caught_under_csum () =
  let plan = Plan.make ~seed:5 () in
  List.iter
    (fun w ->
      Alcotest.(check bool) "caught" true
        ((Fuzzer.Exec.run ~faults:plan w).Fuzzer.Exec.o_fail <> None))
    Crashcheck.Workload.
      [
        [ Mkdir "/d"; Buggy_create "/b" ];
        [ Create "/a"; Write ("/a", 0, "xy"); Buggy_unlink "/a" ];
      ]

(* Without a plan: plain volume, zero fault counters. *)
let test_harness_no_faults_zero_counters () =
  let o = Fuzzer.Exec.run Crashcheck.Workload.[ Create "/a"; Mkdir "/d" ] in
  let r = o.Fuzzer.Exec.o_report in
  Alcotest.(check int) "no violations" 0 (List.length r.H.violations);
  Alcotest.(check int) "no media states" 0 r.H.media_states;
  Alcotest.(check int) "no injected" 0 r.H.faults_injected;
  Alcotest.(check int) "no detected" 0 r.H.faults_detected;
  Alcotest.(check int) "no eio checks" 0 r.H.eio_checks

(* {1 Property-style cases shared with the fuzzer} *)

(* CRC32 chaining is associative with concatenation for arbitrary inputs,
   not just the fixed vector above: the checksum layer seals records in
   field-sized pieces and relies on this identity. *)
let prop_crc32_chain =
  QCheck.Test.make ~count:300 ~name:"crc32 chained == one-shot over concat"
    QCheck.(pair string string)
    (fun (a, b) -> Crc32.digest (a ^ b) = Crc32.digest ~crc:(Crc32.digest a) b)

(* Scrub-after-inject_flips finds 100% of the seeded flips on committed
   records: every line whose injected-flip parity is odd must appear in
   the scrub report (a line flipped an even number of times is byte-
   identical again and correctly reported clean). With this seed all
   flips land on distinct (offset, bit) pairs, so the check degenerates
   to "every flipped line is reported". *)
let test_scrub_detects_all_injected_flips () =
  let dev, fs = mkfs_csum_mounted () in
  let inos =
    List.init 8 (fun i ->
        let p = Printf.sprintf "/f%d" i in
        ok (Sq.create fs p);
        ignore (ok (Sq.write fs p ~off:0 "payload") : int);
        (ok (Sq.stat fs p)).Vfs.Fs.ino)
  in
  let geo = fs.Sq.Fsctx.geo in
  let regions =
    List.map
      (fun ino -> { Plan.off = G.inode_off geo ~ino; len = G.inode_size })
      inos
  in
  Device.set_fault_plan dev (Plan.make ~seed:5 ~bit_flips:12 ~regions ());
  Alcotest.(check int) "all flips injected" 12 (Device.inject_flips dev);
  let flips =
    List.filter_map
      (fun e ->
        match e.Faults.Trace.kind with
        | Faults.Trace.Bit_flip -> Some (e.Faults.Trace.off, e.Faults.Trace.bit)
        | _ -> None)
      (Device.fault_events dev)
  in
  Alcotest.(check int) "all flips traced" 12 (List.length flips);
  Alcotest.(check int) "flips distinct (no self-cancellation)" 12
    (List.length (List.sort_uniq compare flips));
  let bad = Device.scrub dev in
  List.iter
    (fun (off, bit) ->
      let line = off - (off mod Device.line_size) in
      if not (List.mem line bad) then
        Alcotest.failf "flip at off %d bit %d (line %d) not detected by scrub"
          off bit line)
    flips

(* {1 A root that is not a directory}

   Mount refuses a volume whose root inode does not decode as a
   directory with ino 1, before recovery touches the media; a root the
   checksum pre-pass quarantined mounts degraded instead, and root-level
   operations answer EIO. No VFS operation may raise on any of these. *)

let root_images () =
  let populated ~csum ~clean =
    let dev = Device.create ~size:(1024 * 1024) () in
    Sq.Mount.mkfs ~csum dev;
    let fs = ok (Sq.mount dev) in
    ok (Sq.create fs "/a");
    ignore (ok (Sq.write fs "/a" ~off:0 "data") : int);
    ok (Sq.mkdir fs "/d");
    ok (Sq.create fs "/d/f");
    if clean then Sq.unmount fs;
    (dev, G.inode_off fs.Sq.Fsctx.geo ~ino:G.root_ino)
  in
  let word ~clean field v () =
    let dev, root = populated ~csum:false ~clean in
    Device.store_u64 dev (root + field) v;
    Device.persist dev ~off:(root + field) ~len:8;
    dev
  in
  let rotted_mode () =
    let dev, root = populated ~csum:true ~clean:true in
    Device.flip_bit dev ~off:(root + R.Inode.f_mode) ~bit:1;
    dev
  in
  [
    ("kind file", word ~clean:true R.Inode.f_kind 1, `Einval);
    ("kind symlink", word ~clean:true R.Inode.f_kind 3, `Einval);
    ("kind 9", word ~clean:true R.Inode.f_kind 9, `Einval);
    ("ino 7", word ~clean:true R.Inode.f_ino 7, `Einval);
    ("ino 0", word ~clean:true R.Inode.f_ino 0, `Einval);
    ("csum: rotted mode", rotted_mode, `Degraded);
    ("unclean: ino 7", word ~clean:false R.Inode.f_ino 7, `Einval);
  ]

let test_root_not_a_directory () =
  List.iter
    (fun (what, image, want) ->
      let dev = image () in
      let before = Device.image_durable dev in
      match (Sq.mount dev, want) with
      | Error Vfs.Errno.EINVAL, `Einval ->
          if not (Bytes.equal before (Device.image_durable dev)) then
            Alcotest.failf "%s: refused mount wrote the media" what
      | Ok fs, `Degraded ->
          Alcotest.(check bool) (what ^ ": degraded") true
            (Sq.Mount.degraded fs);
          let ops =
            [
              ("create /b", fun () -> Sq.create fs "/b");
              ("mkdir /c", fun () -> Sq.mkdir fs "/c");
              ("symlink /s", fun () -> Sq.symlink fs "/a" "/s");
              ("link /l", fun () -> Sq.link fs "/a" "/l");
              ("unlink /a", fun () -> Sq.unlink fs "/a");
              ("rmdir /d", fun () -> Sq.rmdir fs "/d");
              ("rename /a /z", fun () -> Sq.rename fs "/a" "/z");
              ("write /a", fun () -> Result.map ignore (Sq.write fs "/a" ~off:0 "x"));
              ("read /a", fun () -> Result.map ignore (Sq.read fs "/a" ~off:0 ~len:4));
              ("stat /", fun () -> Result.map ignore (Sq.stat fs "/"));
              ("readdir /", fun () -> Result.map ignore (Sq.readdir fs "/"));
            ]
          in
          List.iter
            (fun (op, f) ->
              match f () with
              | exception e ->
                  Alcotest.failf "%s: %s raised %s" what op (Printexc.to_string e)
              | Ok () | Error _ -> ())
            ops;
          List.iter
            (fun (op, f) ->
              match f () with
              | Error Vfs.Errno.EIO -> ()
              | Ok () -> Alcotest.failf "%s: %s succeeded" what op
              | Error e ->
                  Alcotest.failf "%s: %s: %s, want EIO" what op (Vfs.Errno.to_string e))
            [
              ("create /b", fun () -> Sq.create fs "/b");
              ("mkdir /c", fun () -> Sq.mkdir fs "/c");
            ]
      | Ok _, `Einval -> Alcotest.failf "%s: mounted, want EINVAL" what
      | Error e, _ -> Alcotest.failf "%s: mount %s" what (Vfs.Errno.to_string e)
      | exception e -> Alcotest.failf "%s: mount raised %s" what (Printexc.to_string e))
    (root_images ())

let () =
  Alcotest.run "faults"
    [
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_known;
          Alcotest.test_case "bit sensitivity" `Quick
            test_crc32_bit_sensitivity;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seeded trace" `Quick test_trace_deterministic;
          Alcotest.test_case "harness fault run" `Quick
            test_harness_fault_run_deterministic;
        ] );
      ( "detection",
        [
          Alcotest.test_case "inode checksum" `Quick
            test_inode_checksum_detects_all_flips;
          Alcotest.test_case "scrub mutable fields" `Quick
            test_scrub_catches_mutable_field_flip;
          QCheck_alcotest.to_alcotest prop_crc32_chain;
          Alcotest.test_case "scrub finds all injected flips" `Quick
            test_scrub_detects_all_injected_flips;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "quarantine + EIO" `Quick
            test_degraded_mount_quarantine;
          Alcotest.test_case "superblock refusal" `Quick
            test_superblock_corruption_refuses_mount;
          Alcotest.test_case "transient read EIO" `Quick
            test_read_errors_surface_as_eio;
          Alcotest.test_case "read-fault accounting" `Quick
            test_read_fault_accounting;
          Alcotest.test_case "read errors spare mount and fsck" `Quick
            test_read_errors_spare_mount_and_fsck;
          Alcotest.test_case "root not a directory" `Quick
            test_root_not_a_directory;
          Alcotest.test_case "rollback keeps the degraded verdict" `Quick
            test_rollback_keeps_degraded;
        ] );
      ( "harness",
        [
          Alcotest.test_case "buggy caught under csum" `Quick
            test_buggy_still_caught_under_csum;
          Alcotest.test_case "no faults, zero counters" `Quick
            test_harness_no_faults_zero_counters;
        ] );
    ]
