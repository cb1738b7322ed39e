(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) against the four file systems, and holds the repo's
   own performance gates. Times are simulated nanoseconds from the PM
   device model (deterministic, machine-independent) unless a section
   says wall. Output is plain text; the exit code is the only
   machine-readable result: 0 pass, 2 a failed gate or an unknown
   section name, 3 a parallel slowdown (scaling only).

   Usage: main.exe [section ...] [--trace FILE]
   Sections run by default (or by `all`): fig5a fig5b fig5c fig5d git
             tab2 tab3 model crash bugs mem ablate datapath faults fuzz
   Sections run only when named: largevol largevol-full scaling snap
             trace *)

module Device = Pmem.Device
module Latency = Pmem.Latency
module W = Workloads

let fss : (module Vfs.Fs.S) list =
  [
    (module Baselines.Ext4_dax_sim);
    (module Baselines.Nova_sim);
    (module Baselines.Winefs_sim);
    (module Squirrelfs);
  ]

let device ?(mb = 32) () =
  Device.create ~latency:Latency.optane ~size:(mb * 1024 * 1024) ()

let section title = Printf.printf "\n==== %s ====\n%!" title

let ok = function
  | Ok v -> v
  | Error e -> failwith ("bench: " ^ Vfs.Errno.to_string e)

(* [f ()] and its host wall time in seconds *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* {1 Figure 5(a): microbenchmark latency} *)

let fig5a () =
  section "Figure 5(a): operation latency (us, simulated; min/max over trials)";
  let results =
    List.map
      (fun (module F : Vfs.Fs.S) ->
        (F.flavor, W.Micro.run (module F) ~device ~trials:5 ~reps:24 ()))
      fss
  in
  Printf.printf "%-12s" "op";
  List.iter (fun (name, _) -> Printf.printf " %22s" name) results;
  Printf.printf "\n";
  List.iter
    (fun op ->
      Printf.printf "%-12s" op;
      List.iter
        (fun (_, rs) ->
          let r = List.find (fun r -> r.W.Micro.op = op) rs in
          Printf.printf "  %6.2f [%5.2f-%6.2f]" (r.W.Micro.avg_ns /. 1000.)
            (float_of_int r.W.Micro.min_ns /. 1000.)
            (float_of_int r.W.Micro.max_ns /. 1000.))
        results;
      Printf.printf "\n")
    W.Micro.ops;
  Printf.printf
    "(expected shape: lowest latency is WineFS or SquirrelFS on every op;\n\
    \ Ext4-DAX worst on allocating ops; NOVA high on mkdir/rename)\n"

(* {1 Relative-throughput tables} *)

let relative_table title rows =
  (* rows : (workload, (fs, kops) list) list *)
  section title;
  let fs_names =
    match rows with (_, cells) :: _ -> List.map fst cells | [] -> []
  in
  Printf.printf "%-14s" "workload";
  List.iter (fun n -> Printf.printf " %10s" n) fs_names;
  Printf.printf "   (relative to ext4-dax)\n";
  List.iter
    (fun (w, cells) ->
      Printf.printf "%-14s" w;
      List.iter (fun (_, k) -> Printf.printf " %10.1f" k) cells;
      (match List.assoc_opt "ext4-dax" cells with
      | Some base when base > 0. ->
          Printf.printf "   ";
          List.iter (fun (_, k) -> Printf.printf " %5.2fx" (k /. base)) cells
      | Some _ | None -> ());
      Printf.printf "\n%!")
    rows

let fig5b () =
  let rows =
    List.map
      (fun p ->
        ( W.Filebench.name p,
          List.map
            (fun (module F : Vfs.Fs.S) ->
              let r =
                W.Filebench.run (module F) ~device ~nfiles:120 ~ops:2500 p
              in
              (F.flavor, r.W.Filebench.kops_per_sec))
            fss ))
      W.Filebench.all
  in
  relative_table "Figure 5(b): Filebench throughput (kops/s, simulated)" rows;
  Printf.printf
    "(expected shape: SquirrelFS best on fileserver/varmail; all systems\n\
    \ comparable on the read-heavy webserver/webproxy)\n"

let fig5c () =
  let rows =
    List.map
      (fun w ->
        ( W.Ycsb.name w,
          List.map
            (fun (module F : Vfs.Fs.S) ->
              let r =
                W.Ycsb.run (module F) ~device ~records:1500 ~operations:1500 w
              in
              (F.flavor, r.W.Ycsb.kops_per_sec))
            fss ))
      W.Ycsb.all
  in
  relative_table "Figure 5(c): YCSB over the LSM key-value store (kops/s)"
    rows;
  Printf.printf
    "(expected shape: SquirrelFS best on insert-heavy Loads A/E and on\n\
    \ Runs A/F; reads B/C/D close; Ext4-DAX best on the scan-heavy Run E)\n"

let fig5d () =
  let rows =
    List.map
      (fun w ->
        ( w,
          List.map
            (fun (module F : Vfs.Fs.S) ->
              let r = W.Lmdb_sim.run (module F) ~device ~keys:2000 w in
              (F.flavor, r.W.Lmdb_sim.kops_per_sec))
            fss ))
      W.Lmdb_sim.workloads
  in
  relative_table "Figure 5(d): memory-mapped COW B-tree (LMDB; kops/s)" rows;
  Printf.printf
    "(expected shape: all four file systems close together: mmap updates\n\
    \ bypass most of the file system)\n"

(* {1 git checkout} *)

let git () =
  section "git checkout (sec 5.4): synthetic kernel-tree version switches";
  let results =
    List.map
      (fun (module F : Vfs.Fs.S) ->
        (F.flavor, W.Gitbench.run (module F) ~device ~files:300 ~versions:4 ()))
      fss
  in
  Printf.printf "%-12s %14s %14s\n" "fs" "sim ms total" "ms/checkout";
  List.iter
    (fun (name, r) ->
      let ms = r.W.Gitbench.sim_seconds *. 1000. in
      Printf.printf "%-12s %14.2f %14.2f\n" name ms
        (ms /. float_of_int r.W.Gitbench.checkouts))
    results;
  let times = List.map (fun (_, r) -> r.W.Gitbench.sim_seconds) results in
  let worst = List.fold_left max 0. times
  and best = List.fold_left min infinity times in
  Printf.printf "(paper: all within 8%%; measured spread: %.1f%%)\n"
    ((worst -. best) /. best *. 100.)

(* {1 Table 2: mount time} *)

let tab2 () =
  section "Table 2: SquirrelFS mount time (ms, simulated; 64 MiB device)";
  let dev = device ~mb:64 () in
  let t0 = Device.now_ns dev in
  Squirrelfs.mkfs dev;
  let mkfs_ms = float_of_int (Device.now_ns dev - t0) /. 1e6 in
  let time_mount f =
    let t0 = Device.now_ns dev in
    let fs = ok (f dev) in
    let ms = float_of_int (Device.now_ns dev - t0) /. 1e6 in
    (fs, ms)
  in
  let fs, empty_ms = time_mount Squirrelfs.Mount.mount in
  Squirrelfs.unmount fs;
  let fs, rec_empty_ms = time_mount Squirrelfs.Mount.mount_recover in
  (* fill to 100% inode or page utilization *)
  let files = ref 0 in
  let data = String.make 12288 'f' in
  (try
     let dir = ref 0 in
     ok (Squirrelfs.mkdir fs "/d0");
     while true do
       if !files mod 500 = 499 then begin
         incr dir;
         ok (Squirrelfs.mkdir fs (Printf.sprintf "/d%d" !dir))
       end;
       let p = Printf.sprintf "/d%d/f%d" !dir !files in
       (match Squirrelfs.create fs p with
       | Ok () -> ()
       | Error _ -> raise Exit);
       (match Squirrelfs.write fs p ~off:0 data with
       | Ok _ -> ()
       | Error _ -> raise Exit);
       incr files
     done
   with Exit -> ());
  Squirrelfs.unmount fs;
  let fs, full_ms = time_mount Squirrelfs.Mount.mount in
  Squirrelfs.unmount fs;
  let _, rec_full_ms = time_mount Squirrelfs.Mount.mount_recover in
  Printf.printf "%-22s %10s\n" "state" "mount ms";
  Printf.printf "%-22s %10.2f\n" "mkfs" mkfs_ms;
  Printf.printf "%-22s %10.2f\n" "normal mount, empty" empty_ms;
  Printf.printf "%-22s %10.2f   (%d files)\n" "normal mount, full" full_ms
    !files;
  Printf.printf "%-22s %10.2f\n" "recovery mount, empty" rec_empty_ms;
  Printf.printf "%-22s %10.2f\n" "recovery mount, full" rec_full_ms;
  Printf.printf
    "(paper shape: full >> empty; recovery > normal at the same utilization)\n";
  (* The shape gate: a full volume costs more than twice an empty one to
     mount, and recovery costs more than a normal mount when full. *)
  if not (full_ms > 2. *. empty_ms && rec_full_ms > full_ms) then begin
    Printf.printf "TABLE 2 SHAPE REGRESSION\n";
    exit 2
  end

(* {1 Table 3: LoC and static checking} *)

let rec find_root dir =
  if
    Sys.file_exists (Filename.concat dir "dune-project")
    && Sys.file_exists (Filename.concat dir "DESIGN.md")
  then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_root parent

let count_lines file =
  let ic = open_in file in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let loc_of_dir root rel =
  let dir = Filename.concat root rel in
  if not (Sys.file_exists dir) then 0
  else
    Array.fold_left
      (fun acc f ->
        if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
        then acc + count_lines (Filename.concat dir f)
        else acc)
      0 (Sys.readdir dir)

let tab3 () =
  section "Table 3: implementation size and static-check time";
  match find_root (Sys.getcwd ()) with
  | None -> Printf.printf "(source tree not found; skipping LoC count)\n"
  | Some root ->
      let sq =
        loc_of_dir root "lib/core"
        + loc_of_dir root "lib/typestate"
        + loc_of_dir root "lib/layout"
      in
      let shared = loc_of_dir root "lib/baselines" in
      Printf.printf "%-12s %8s %34s\n" "system" "LoC" "static checking";
      let t0 = Unix.gettimeofday () in
      let states =
        List.fold_left
          (fun acc sc ->
            acc + (Model.Explore.run sc).Model.Explore.states_explored)
          0 Model.Scenarios.correct
      in
      let model_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      Printf.printf "%-12s %8d %22.0f ms (model: %d states)\n" "squirrelfs" sq
        model_ms states;
      List.iter
        (fun name ->
          Printf.printf "%-12s %8d %34s\n" name shared
            "none (journaling, unchecked)")
        [ "ext4-dax"; "nova"; "winefs" ];
      Printf.printf
        "(the paper's point: typestate checking happens inside an ordinary\n\
        \ compile; `dune build` typechecks the %d-line typestate-enforcing\n\
        \ core in seconds, the same order as the baselines)\n"
        sq

(* {1 Model checking (§5.7)} *)

let model () =
  section "Model checking (sec 5.7): SSU invariants over all crash states";
  Printf.printf "%-20s %10s %14s %10s\n" "scenario" "states" "crash states"
    "violations";
  List.iter
    (fun sc ->
      let o = Model.Explore.run sc in
      Printf.printf "%-20s %10d %14d %10d\n" sc.Model.Explore.sc_name
        o.Model.Explore.states_explored o.Model.Explore.crash_states_checked
        (List.length o.Model.Explore.violations))
    Model.Scenarios.correct

let bugs () =
  section "Bug reinjection (sec 4.2): mis-ordered variants must be caught";
  Printf.printf "-- model checker counterexamples --\n";
  List.iter
    (fun sc ->
      let o = Model.Explore.run sc in
      match o.Model.Explore.violations with
      | [] ->
          Printf.printf "%-16s NOT DETECTED (unexpected!)\n"
            sc.Model.Explore.sc_name
      | v :: _ ->
          Printf.printf "%-16s detected: %s\n" sc.Model.Explore.sc_name
            (String.concat " -> "
               (List.map
                  (fun s ->
                    Format.asprintf "%a" Model.Progs.pp_micro
                      s.Model.Explore.s_micro)
                  v.Model.Explore.v_trace)))
    Model.Scenarios.buggy;
  Printf.printf "-- crash oracle on raw mis-ordered implementations --\n";
  List.iter
    (fun (name, w) ->
      let o = Fuzzer.Exec.run ~max_images_per_fence:12 w in
      Printf.printf "%-16s %d crash states -> %s\n" name
        o.Fuzzer.Exec.o_report.Crashcheck.Harness.crash_states
        (match o.Fuzzer.Exec.o_fail with
        | Some (_, detail) -> "detected: " ^ detail
        | None -> "NOT DETECTED (unexpected!)"))
    [
      ("buggy-create", Crashcheck.Workload.[ Mkdir "/d"; Buggy_create "/b" ]);
      ( "buggy-unlink",
        Crashcheck.Workload.
          [ Create "/a"; Write ("/a", 0, "xy"); Buggy_unlink "/a" ] );
      ( "buggy-write",
        Crashcheck.Workload.
          [ Create "/a"; Buggy_write ("/a", String.make 256 'z') ] );
    ]

(* {1 Crash-consistency testing (§5.7)} *)

let crash () =
  section "Crash-consistency testing (sec 5.7, Chipmunk substitute)";
  let t0 = Unix.gettimeofday () in
  (* the seq-1 + seq-2 sweep over the canonical universe (its seq-2 tier
     is [Workload.systematic_pairs]) plus clean random sequences, all at
     12 crash images per fence *)
  let e = Fuzzer.Enum.run { Fuzzer.Enum.default_cfg with Fuzzer.Enum.max_images = 12 } in
  let f =
    Fuzzer.run
      { Fuzzer.default_cfg with Fuzzer.seed = 2024; iters = 50; buggy_rate = 0.; max_images = 12 }
  in
  let r = Crashcheck.Harness.merge e.Fuzzer.Enum.e_harness f.Fuzzer.r_harness in
  Printf.printf "systematic: %d sequences; fuzz: %d sequences (%.1f s wall)\n"
    e.Fuzzer.Enum.e_executed f.Fuzzer.r_iters
    (Unix.gettimeofday () -. t0);
  Format.printf "%a@." Crashcheck.Harness.pp_report r;
  if r.Crashcheck.Harness.violations = [] && e.Fuzzer.Enum.e_ssu_found = [] then
    Printf.printf
      "no ordering-related crash-consistency bugs found (paper: Chipmunk\n\
       found none in typestate-checked SSU either)\n"

(* {1 Memory (§5.6)} *)

let mem () =
  section "Memory (sec 5.6): DRAM index footprint";
  let dev = device () in
  Squirrelfs.mkfs dev;
  let fs = ok (Squirrelfs.mount dev) in
  ok (Squirrelfs.create fs "/megafile");
  let chunk = String.make 65536 'm' in
  for i = 0 to 15 do
    ignore (ok (Squirrelfs.write fs "/megafile" ~off:(i * 65536) chunk))
  done;
  let after_file = Squirrelfs.Index.footprint_bytes fs.Squirrelfs.Fsctx.index in
  ok (Squirrelfs.mkdir fs "/dir");
  for i = 0 to 99 do
    ok (Squirrelfs.create fs (Printf.sprintf "/dir/entry%02d" i))
  done;
  let after_dir = Squirrelfs.Index.footprint_bytes fs.Squirrelfs.Fsctx.index in
  Printf.printf "1 MiB file index: %d bytes (paper: ~4 KiB per 1 MiB file)\n"
    after_file;
  Printf.printf
    "100-entry directory: +%d bytes (~%d per dentry; paper: ~250 B)\n"
    (after_dir - after_file)
    ((after_dir - after_file) / 100)

(* {1 Ablation: fence sharing} *)

let ablate () =
  section "Ablation: shared fences vs one fence per object (sec 3.2/4.1)";
  let run ~share =
    let dev = device () in
    Squirrelfs.mkfs dev;
    let fs = ok (Squirrelfs.mount dev) in
    fs.Squirrelfs.Fsctx.share_fences <- share;
    ok (Squirrelfs.create fs "/warm");
    let f0 = (Device.stats dev).Pmem.Stats.fences in
    let t0 = Device.now_ns dev in
    for i = 0 to 199 do
      ok (Squirrelfs.create fs (Printf.sprintf "/f%d" i));
      ignore
        (ok
           (Squirrelfs.write fs
              (Printf.sprintf "/f%d" i)
              ~off:0 (String.make 1024 'a')));
      ok (Squirrelfs.mkdir fs (Printf.sprintf "/d%d" i))
    done;
    ( float_of_int (Device.now_ns dev - t0) /. 1e6,
      (Device.stats dev).Pmem.Stats.fences - f0 )
  in
  let shared_ms, shared_f = run ~share:true in
  let solo_ms, solo_f = run ~share:false in
  Printf.printf "shared fences:    %8.2f ms, %6d sfences\n" shared_ms shared_f;
  Printf.printf "fence-per-object: %8.2f ms, %6d sfences (+%.0f%% time)\n"
    solo_ms solo_f
    ((solo_ms -. shared_ms) /. shared_ms *. 100.);
  (* COW data writes (sec 3.4 extension): price of data-level atomicity *)
  let dev = device () in
  Squirrelfs.mkfs dev;
  let fs = ok (Squirrelfs.mount dev) in
  ok (Squirrelfs.create fs "/f");
  let ino = (ok (Squirrelfs.stat fs "/f")).Vfs.Fs.ino in
  let page = String.make 4096 'p' in
  ignore (ok (Squirrelfs.Ops.write fs ~ino ~off:0 page));
  let time_n n f =
    let t0 = Device.now_ns dev in
    for _ = 1 to n do
      f ()
    done;
    float_of_int (Device.now_ns dev - t0) /. float_of_int n /. 1000.
  in
  let plain =
    time_n 100 (fun () -> ignore (ok (Squirrelfs.Ops.write fs ~ino ~off:0 page)))
  in
  let cow =
    time_n 100 (fun () ->
        ignore (ok (Squirrelfs.Ops.write_atomic fs ~ino ~off:0 page)))
  in
  Printf.printf
    "COW data writes:  plain 4K overwrite %.2f us; crash-atomic (COW) %.2f \
     us (+%.0f%%)\n"
    plain cow
    ((cow -. plain) /. plain *. 100.)

(* {1 Split data path: fence schedule and open-handle throughput}

   Measures the two halves of the SplitFS-style datapath work: the
   coalesced fence schedule (in-place write = 1 sfence, extending
   append = 2) and the open-handle ops against their path-resolving
   equivalents on a deep path. Everything is simulated time and exact
   fence counts, so the numbers are deterministic and gate-able. *)

let datapath () =
  section "Split data path: fence schedule and open-handle throughput";
  let fences_per_op ~inplace =
    let dev = device ~mb:8 () in
    Squirrelfs.mkfs dev;
    let fs = ok (Squirrelfs.mount dev) in
    ok (Squirrelfs.create fs "/f");
    let page = String.make 4096 'p' in
    ignore (ok (Squirrelfs.write fs "/f" ~off:0 page));
    let n = 50 in
    let f0 = (Device.stats dev).Pmem.Stats.fences in
    for i = 1 to n do
      let off = if inplace then 0 else i * 4096 in
      ignore (ok (Squirrelfs.write fs "/f" ~off page))
    done;
    float_of_int ((Device.stats dev).Pmem.Stats.fences - f0)
    /. float_of_int n
  in
  let inplace = fences_per_op ~inplace:true in
  let extend = fences_per_op ~inplace:false in
  (* handle vs path ops on a deep path: the handle pays neither the
     per-component resolution charge nor per-page index queries *)
  let dev = device ~mb:8 () in
  Squirrelfs.mkfs dev;
  let fs = ok (Squirrelfs.mount dev) in
  ok (Squirrelfs.mkdir fs "/d1");
  ok (Squirrelfs.mkdir fs "/d1/d2");
  ok (Squirrelfs.mkdir fs "/d1/d2/d3");
  let p = "/d1/d2/d3/f" in
  ok (Squirrelfs.create fs p);
  ignore (ok (Squirrelfs.write fs p ~off:0 (String.make 4096 'w')));
  ok (Squirrelfs.open_file fs "h" p);
  let rate f =
    let n = 200 in
    let t0 = Device.now_ns dev in
    for _ = 1 to n do
      f ()
    done;
    float_of_int n *. 1e9 /. float_of_int (Device.now_ns dev - t0)
  in
  let data = String.make 1024 'd' in
  let append_path =
    rate (fun () -> ignore (ok (Squirrelfs.write fs p ~off:0 data)))
  in
  let append_h =
    rate (fun () -> ignore (ok (Squirrelfs.write_h fs "h" ~off:0 data)))
  in
  let read_path =
    rate (fun () -> ignore (ok (Squirrelfs.read fs p ~off:0 ~len:1024)))
  in
  let read_h =
    rate (fun () -> ignore (ok (Squirrelfs.read_h fs "h" ~off:0 ~len:1024)))
  in
  Printf.printf "fences/op:   in-place %.2f, extend %.2f\n" inplace extend;
  Printf.printf
    "appends/sim-s: path %.0f, handle %.0f (%.2fx); reads/sim-s: path %.0f, \
     handle %.0f (%.2fx)\n"
    append_path append_h (append_h /. append_path) read_path read_h
    (read_h /. read_path);
  (* The acceptance bar: in-place = exactly 1 fence, extending append
     within 2; handle ops at least match their path equivalents. *)
  if
    not
      (inplace = 1.0 && extend <= 2.0 && append_h >= append_path
     && read_h >= read_path)
  then begin
    Printf.printf "DATAPATH REGRESSION\n";
    exit 2
  end

(* {1 Fault subsystem: checksum overhead, scrub throughput, detection} *)

let faults () =
  section "Fault subsystem: csum overhead / scrub throughput / detection";
  (* Metadata checksum overhead: the same op sequence on a plain volume
     and on a csum volume, in simulated time. *)
  let run_meta ~csum =
    let dev = device ~mb:4 () in
    Squirrelfs.Mount.mkfs ~csum dev;
    let fs = ok (Squirrelfs.mount dev) in
    let t0 = Device.now_ns dev in
    for i = 0 to 99 do
      let p = Printf.sprintf "/f%d" i in
      ignore (ok (Squirrelfs.create fs p) : unit);
      ignore (ok (Squirrelfs.write fs p ~off:0 "payload") : int)
    done;
    for i = 0 to 99 do
      ignore (ok (Squirrelfs.unlink fs (Printf.sprintf "/f%d" i)) : unit)
    done;
    float_of_int (Device.now_ns dev - t0) /. 1000.
  in
  let plain = run_meta ~csum:false and csum = run_meta ~csum:true in
  Printf.printf
    "metadata csum:    100x create+write+unlink: plain %.1f us, csum %.1f \
     us (+%.2f%%)\n"
    plain csum
    ((csum -. plain) /. plain *. 100.);
  (* Scrub throughput over the whole device, simulated. *)
  let dev = device ~mb:4 () in
  Squirrelfs.Mount.mkfs ~csum:true dev;
  let fs = ok (Squirrelfs.mount dev) in
  Device.set_fault_plan dev (Faults.Plan.make ~seed:42 ());
  let t0 = Device.now_ns dev in
  let bad = Device.scrub dev in
  let dt = Device.now_ns dev - t0 in
  let mb = 4.0 in
  Printf.printf
    "scrub:            %.0f MiB in %.2f ms simulated (%.2f GiB/s), %d bad \
     lines\n"
    mb
    (float_of_int dt /. 1e6)
    (mb /. 1024. /. (float_of_int dt /. 1e9))
    (List.length bad);
  (* Detection pipeline: seeded flips -> scrub -> degraded remount. *)
  List.iter
    (fun p -> ignore (ok (Squirrelfs.create fs p) : unit))
    [ "/a"; "/b"; "/c" ];
  let flips = 3 in
  List.iteri
    (fun i p ->
      if i < flips then begin
        let ino = (ok (Squirrelfs.stat fs p)).Vfs.Fs.ino in
        let base = Layout.Geometry.inode_off fs.Squirrelfs.Fsctx.geo ~ino in
        Device.flip_bit dev ~off:(base + Layout.Records.Inode.f_kind) ~bit:1
      end)
    [ "/a"; "/b"; "/c" ];
  let caught = List.length (Device.scrub dev) in
  (match Squirrelfs.mount (Device.of_image (Device.image_durable dev)) with
  | Ok fs2 ->
      let ms = Squirrelfs.Mount.last_stats () in
      let eio =
        List.length
          (List.filter
             (fun p -> Squirrelfs.stat fs2 p = Error Vfs.Errno.EIO)
             [ "/a"; "/b"; "/c" ])
      in
      Printf.printf
        "detection:        %d/%d flips scrub-flagged; remount degraded=%b, \
         %d inodes quarantined, %d/%d paths EIO\n"
        caught flips ms.Squirrelfs.Mount.degraded
        ms.Squirrelfs.Mount.quarantined_inodes eio flips
  | Error e ->
      Printf.printf "detection:        degraded remount failed: %s\n"
        (Vfs.Errno.to_string e))

(* {1 Large volumes: mkfs/mount/create scaling}

   A multi-GB simulated volume must cost what is *touched*, not what is
   formatted: mkfs and an empty mount are near-constant (lazy chunk
   backing plus the run allocator, populated from geometry in
   O(1)), a populated mount scans only backed spans, and resident
   memory tracks touched lines rather than volume size. The section
   times a sharded create/stat sweep on a multi-GB volume and gates on
   (a) near-constant mkfs + empty mount and (b) residency staying a
   small fraction of the volume. Wall-clock numbers, deliberately: the
   claim under test is host cost, not simulated PM latency. *)

let largevol_run ~size ~files () =
  let wall_ms f =
    let v, s = timed f in
    (v, s *. 1000.)
  in
  let dev = Device.create ~size () in
  let (), mkfs_ms = wall_ms (fun () -> Squirrelfs.mkfs dev) in
  let fs, mount_empty_ms = wall_ms (fun () -> ok (Squirrelfs.mount dev)) in
  (* ~500 files per directory: keeps dentry pages per dir bounded so the
     sweep measures create cost, not directory scans *)
  let per_dir = 500 in
  let path i = Printf.sprintf "/d%d/f%d" (i / per_dir) i in
  let (), create_ms =
    wall_ms (fun () ->
        for i = 0 to files - 1 do
          if i mod per_dir = 0 then
            ok (Squirrelfs.mkdir fs (Printf.sprintf "/d%d" (i / per_dir)));
          ok (Squirrelfs.create fs (path i))
        done)
  in
  let (), stat_ms =
    wall_ms (fun () ->
        for i = 0 to files - 1 do
          ignore (ok (Squirrelfs.stat fs (path i)))
        done)
  in
  Squirrelfs.unmount fs;
  let fs, mount_full_ms = wall_ms (fun () -> ok (Squirrelfs.mount dev)) in
  Squirrelfs.unmount fs;
  let resident = Device.resident_bytes dev in
  Printf.printf "volume: %d MiB, %d files\n" (size / 1024 / 1024) files;
  Printf.printf "mkfs %.1f ms; mount empty %.1f ms; remount full %.1f ms\n"
    mkfs_ms mount_empty_ms mount_full_ms;
  Printf.printf "creates/s %.0f; stats/s %.0f\n"
    (float_of_int files /. create_ms *. 1000.)
    (float_of_int files /. stat_ms *. 1000.);
  Printf.printf "resident %.1f MiB (%.2f%% of volume)\n"
    (float_of_int resident /. 1024. /. 1024.)
    (float_of_int resident /. float_of_int size *. 100.);
  (* The acceptance bar. mkfs and the empty mount must not scale with the
     volume (generous absolute bounds — CI hosts vary), and resident bytes
     must stay under a quarter of the volume even after the sweep (in
     practice it is a few percent). *)
  if not (mkfs_ms < 2000. && mount_empty_ms < 2000. && resident < size / 4)
  then begin
    Printf.printf "LARGEVOL REGRESSION (cost scales with volume size)\n";
    exit 2
  end

(* [largevol]: the smoke gate (wired into `make largevol-smoke`).
   [largevol-full]: the EXPERIMENTS.md headline run — 1M files on a
   volume sized to hold them (one inode per 16.4 KiB group). *)
let largevol () =
  section "Large volume: 4 GiB, 100k files";
  largevol_run ~size:(4 * 1024 * 1024 * 1024) ~files:100_000 ()

let largevol_full () =
  section "Large volume (full): 18 GiB, 1M files";
  largevol_run ~size:(18 * 1024 * 1024 * 1024) ~files:1_000_000 ()

(* {1 Crash-state fuzzer throughput (the Chipmunk role, §5.7)}

   States/sec is the fuzzing north-star metric: how fast the differential
   oracle explores recovered crash states (views patched into one scratch
   buffer, [of_view] mounts, memoized fsck verdicts) — measured on a
   32 MB volume, where any per-state whole-device copy would show. *)

let fuzz_cfg ?(seed = 7) ?(buggy_rate = 0.) ~mb ~iters ~op_budget () =
  {
    Fuzzer.default_cfg with
    seed;
    iters;
    op_budget;
    buggy_rate;
    device_size = mb * 1024 * 1024;
    latency = Some Pmem.Latency.optane;
    shrink = false;
  }

let fuzz () =
  section "Crash-state fuzzer throughput (32 MB volume)";
  let r, wall =
    timed (fun () ->
        Fuzzer.Parallel.run (fuzz_cfg ~mb:32 ~iters:2 ~op_budget:5 ()))
  in
  let h = r.Fuzzer.r_harness in
  let states =
    h.Crashcheck.Harness.crash_states + h.Crashcheck.Harness.media_states
  in
  Printf.printf "%12s %9s %9s %16s\n" "crash-states" "deduped" "wall (s)" "states/wall-sec";
  Printf.printf "%12d %9d %9.2f %16.0f\n" states
    h.Crashcheck.Harness.states_deduped wall
    (if wall > 0. then float_of_int states /. wall else 0.);
  let r =
    Fuzzer.Parallel.run
      { (fuzz_cfg ~mb:0 ~iters:12 ~op_budget:6 ()) with
        Fuzzer.device_size = Fuzzer.default_cfg.Fuzzer.device_size;
        shrink = true;
      }
  in
  let h = r.Fuzzer.r_harness in
  Printf.printf
    "default volume: sequences=%d ops=%d fences=%d crash-states=%d deduped=%d \
     violations=%d\n"
    r.Fuzzer.r_iters h.Crashcheck.Harness.ops_run
    h.Crashcheck.Harness.fences_probed h.Crashcheck.Harness.crash_states
    h.Crashcheck.Harness.states_deduped
    (List.length h.Crashcheck.Harness.violations);
  (match Fuzzer.states_per_sim_sec r with
  | Some s -> Printf.printf "crash states / simulated second:  %.0f\n" s
  | None -> ())

(* {1 Parallel scaling: the fuzzer and the server at -j N against -j 1}

   Each leg runs the same work at -j 1 and at -j N. The fuzz leg runs
   mutants with shrinking on the default volume, 6 iterations per job so
   that every domain has real work; -j N must reproduce the
   canonicalized -j 1 report bit-for-bit. The serve leg replays the same
   Zipf sessions; two -j 1 runs must agree on the durable hash, replies
   and latency histograms (its determinism witness). Exit 2 on either
   mismatch. Only then, exit 3 if either -j N leg is slower than its
   -j 1 run on a host with more than one core: domains that time-slice
   a single core cannot show a speedup. *)

let scaling () =
  let host_cores = Domain.recommended_domain_count () in
  let one_core =
    if host_cores <= 1 then
      Printf.sprintf " [host has %d core: parallel speedup impossible]"
        host_cores
    else ""
  in
  (* more domains than cores only time-slice, so the fuzz leg runs at
     most one domain per core *)
  let jobs = min 4 host_cores in
  section
    (Printf.sprintf "Scaling: fuzz -j %d vs -j 1 (%d sequences, %d host cores)"
       jobs (6 * jobs) host_cores);
  let cfg =
    {
      (fuzz_cfg ~seed:1 ~buggy_rate:0.15 ~mb:0 ~iters:(6 * jobs) ~op_budget:6
         ())
      with
      Fuzzer.device_size = Fuzzer.default_cfg.Fuzzer.device_size;
      shrink = true;
    }
  in
  let f1, f1_wall = timed (fun () -> Fuzzer.Parallel.run ~jobs:1 cfg) in
  let fn, fn_wall = timed (fun () -> Fuzzer.Parallel.run ~jobs cfg) in
  let reports_equal = f1 = fn in
  Printf.printf "-j 1 %.3f s; -j %d %.3f s (%.2fx); reports %s\n" f1_wall jobs
    fn_wall
    (if fn_wall > 0. then f1_wall /. fn_wall else 0.)
    (if reports_equal then "identical" else "DIFFER");
  let serve_jobs = 4 in
  section
    (Printf.sprintf "Scaling: serve 1000 clients x 50 ops, -j %d vs -j 1"
       serve_jobs);
  let serve jobs =
    Serve.Loadgen.run
      {
        Serve.Loadgen.default with
        Serve.Loadgen.clients = 1000;
        ops_per_client = 50;
        jobs;
        seed = 1;
      }
  in
  let s1 = serve 1 in
  let s1b = serve 1 in
  let deterministic =
    s1.Serve.Loadgen.r_durable_hash = s1b.Serve.Loadgen.r_durable_hash
    && s1.Serve.Loadgen.r_oks = s1b.Serve.Loadgen.r_oks
    && s1.Serve.Loadgen.r_errs = s1b.Serve.Loadgen.r_errs
    && Obs.Metrics.equal s1.Serve.Loadgen.r_metrics s1b.Serve.Loadgen.r_metrics
  in
  let sn = serve serve_jobs in
  let speedup =
    if s1.Serve.Loadgen.r_ops_per_sec > 0. then
      sn.Serve.Loadgen.r_ops_per_sec /. s1.Serve.Loadgen.r_ops_per_sec
    else 0.
  in
  Format.printf "@[<v>%a@,%a@]@." Serve.Loadgen.pp_report s1
    Serve.Loadgen.pp_report sn;
  Printf.printf "-j %d throughput %.2fx -j 1; -j 1 runs %s\n" serve_jobs
    speedup
    (if deterministic then "deterministic" else "DIFFER");
  if not reports_equal then begin
    Printf.printf "SCALING: FUZZ -j %d REPORT DIFFERS FROM -j 1\n" jobs;
    exit 2
  end;
  if not deterministic then begin
    Printf.printf "SCALING: SERVE -j 1 NON-DETERMINISTIC\n";
    exit 2
  end;
  let fuzz_slow = fn_wall > f1_wall and serve_slow = speedup < 1.0 in
  if fuzz_slow then
    Printf.printf
      "SCALING: WARNING: fuzz -j %d wall (%.3fs) exceeds -j 1 wall (%.3fs)%s\n"
      jobs fn_wall f1_wall one_core;
  if serve_slow then
    Printf.printf
      "SCALING: WARNING: serve -j %d throughput (%.0f ops/s) below -j 1 \
       (%.0f ops/s)%s\n"
      serve_jobs sn.Serve.Loadgen.r_ops_per_sec s1.Serve.Loadgen.r_ops_per_sec
      one_core;
  if (fuzz_slow || serve_slow) && host_cores > 1 then begin
    Printf.printf "SCALING: PARALLEL SCALING REGRESSION\n";
    exit 3
  end

(* {1 Snapshot path: create, clone and scrub latency}

   Snapshot-create latency on a 64 MiB volume and on a 4 GiB one,
   clone-mount latency, and scrub throughput, in wall time. The exit-2
   gates hold the claim that creation cost is O(dirty lines), not
   O(volume): the 4 GiB create must stay under 10 ms absolute and
   within a small factor of the 64 MiB create, and the pin must retain
   only the delta (0 lines immediately after a quiesced capture). *)

let time_ns f =
  let r, s = timed f in
  (r, int_of_float (s *. 1e9))

let median l =
  let a = List.sort compare l in
  List.nth a (List.length a / 2)

let snap_volume size =
  let dev = Device.create ~size () in
  Squirrelfs.mkfs dev;
  let fs = ok (Squirrelfs.mount dev) in
  ok (Squirrelfs.create fs "/f");
  ignore (ok (Squirrelfs.write fs "/f" ~off:0 (String.make 8192 'd')) : int);
  (* warm-up capture: the first [durable_hash] is the one O(backed)
     pass that enables content hashing — charge it here, not to the
     timed creates *)
  ignore (ok (Snap.snapshot fs "warmup") : Snap.info);
  fs

let creates_ns fs =
  List.init 8 (fun i ->
      ignore
        (ok (Squirrelfs.write fs "/f" ~off:(i * 64) (String.make 64 'x')) : int);
      let _, ns =
        time_ns (fun () -> ok (Snap.snapshot fs (Printf.sprintf "t%d" i)))
      in
      ns)

let snap () =
  section "Snapshots: create, clone and scrub latency (wall)";
  let small = snap_volume (64 * 1024 * 1024) in
  let small_ns = median (creates_ns small) in
  let big = snap_volume (4 * 1024 * 1024 * 1024) in
  let big_ns = median (creates_ns big) in
  let delta_lines =
    (* immediately after a quiesced capture the pin holds no pre-images
       at all: memory and capture cost are O(dirty lines since), never
       O(volume) *)
    match Snap.pin_delta big "t7" with
    | Some (_, saved) -> List.length saved
    | None -> -1
  in
  let clone_fs, clone_ns =
    time_ns (fun () -> ok (Snap.clone big "t7"))
  in
  Squirrelfs.unmount clone_fs;
  (* scrub throughput: dirty a known volume of data past the capture so
     every pin verification patches that many saved lines *)
  let dirty_mb = 2 in
  for i = 0 to dirty_mb - 1 do
    ignore
      (ok
         (Squirrelfs.write big "/f"
            ~off:(i * 1024 * 1024 / 8)
            (String.make (64 * 1024) 's'))
      : int)
  done;
  let scrub_res, scrub_ns = time_ns (fun () -> Snap.scrub big) in
  let scrub_ok = List.for_all snd scrub_res in
  let scrub_mb_s =
    if scrub_ns > 0 then
      float_of_int dirty_mb *. float_of_int (List.length scrub_res)
      /. (float_of_int scrub_ns /. 1e9)
    else 0.
  in
  Printf.printf "create: 64 MiB %d ns, 4 GiB %d ns (%.2fx)\n" small_ns big_ns
    (if small_ns > 0 then float_of_int big_ns /. float_of_int small_ns
     else 0.);
  Printf.printf "pin delta lines at capture: %d\n" delta_lines;
  Printf.printf "clone mount: %d ns\n" clone_ns;
  Printf.printf "scrub: %.1f MB/s over %d pins, intact=%b\n" scrub_mb_s
    (List.length scrub_res) scrub_ok;
  if big_ns > 10_000_000 then begin
    Printf.printf
      "SNAP: SNAPSHOT CREATE NOT O(dirty): %.3f ms on 4 GiB (gate: 10 ms)\n"
      (float_of_int big_ns /. 1e6);
    exit 2
  end;
  if delta_lines <> 0 then begin
    Printf.printf
      "SNAP: PIN RETAINS %d LINES AT CAPTURE (gate: 0 — delta only)\n"
      delta_lines;
    exit 2
  end;
  if small_ns > 0 && big_ns > 64 * small_ns then begin
    (* a volume-proportional implementation would be ~64x slower on the
       64x larger volume; an O(dirty) one is scale-free (the factor
       allows 1-CPU container timing noise) *)
    Printf.printf
      "SNAP: CREATE SCALES WITH VOLUME (%.2fx from 64 MiB to 4 GiB)\n"
      (float_of_int big_ns /. float_of_int small_ns);
    exit 2
  end;
  if not scrub_ok then begin
    Printf.printf "SNAP: SCRUB REPORTS CORRUPTION ON A CLEAN VOLUME\n";
    exit 2
  end

(* {1 Trace section: chrome://tracing dump of a small fixed workload} *)

let trace_file = ref "BENCH_trace.json"

let trace_section () =
  section "trace: create/write/fsync/rename persist stream";
  let dev = Device.create ~latency:Latency.optane ~size:(1024 * 1024) () in
  Squirrelfs.mkfs dev;
  match Squirrelfs.mount dev with
  | Error e -> failwith ("trace: mount: " ^ Vfs.Errno.to_string e)
  | Ok fs ->
      let r = Obs.Recorder.create () in
      Squirrelfs.Tracing.attach fs r;
      ok (Squirrelfs.create fs "/a");
      ignore (ok (Squirrelfs.write fs "/a" ~off:0 "hello, tracing"));
      ok (Squirrelfs.fsync fs "/a");
      ok (Squirrelfs.rename fs "/a" "/b");
      Squirrelfs.Tracing.detach fs;
      Squirrelfs.unmount fs;
      let events = Obs.Recorder.to_list r in
      Obs.Chrome.to_file !trace_file events;
      Printf.printf "trace: %d events -> %s (%s)\n" (List.length events)
        !trace_file
        (match Obs.Ssu.check events with
        | Ok () -> "SSU checker: clean"
        | Error v -> Format.asprintf "SSU checker: %a" Obs.Ssu.pp_violation v)


let sections =
  [
    ("fig5a", fig5a);
    ("fig5b", fig5b);
    ("fig5c", fig5c);
    ("fig5d", fig5d);
    ("git", git);
    ("tab2", tab2);
    ("tab3", tab3);
    ("model", model);
    ("crash", crash);
    ("bugs", bugs);
    ("mem", mem);
    ("ablate", ablate);
    ("datapath", datapath);
    ("faults", faults);
    ("fuzz", fuzz);
    ("largevol", largevol);
    ("largevol-full", largevol_full);
    ("scaling", scaling);
    ("snap", snap);
    ("trace", trace_section);
  ]

(* Sections that run only when named: they gate on host wall time or
   take long (largevol*, scaling, snap), or write a file (trace). *)
let named_only = [ "largevol"; "largevol-full"; "scaling"; "snap"; "trace" ]

let () =
  (* [--trace FILE] selects the trace section and redirects its output *)
  let rec parse_trace acc = function
    | "--trace" :: file :: rest ->
        trace_file := file;
        parse_trace ("trace" :: acc) rest
    | x :: rest -> parse_trace (x :: acc) rest
    | [] -> List.rev acc
  in
  let args =
    match parse_trace [] (Array.to_list Sys.argv) with
    | _ :: [] | [ _; "all" ] ->
        List.filter
          (fun n -> not (List.mem n named_only))
          (List.map fst sections)
    | _ :: rest -> rest
    | [] -> []
  in
  (* a misspelt or deleted section name must fail before anything runs,
     not pass as a no-op *)
  (match List.filter (fun n -> not (List.mem_assoc n sections)) args with
  | [] -> ()
  | unknown ->
      Printf.printf "unknown section %s (have: %s)\n"
        (String.concat " " unknown)
        (String.concat " " (List.map fst sections));
      exit 2);
  Printf.printf
    "SquirrelFS reproduction benchmarks (simulated Optane latencies)\n";
  List.iter (fun name -> (List.assoc name sections) ()) args
