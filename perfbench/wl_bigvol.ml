(* bigvol: a 4 GiB sparse volume. Creates 100k files in directories of
   about 500 entries, three times over on fresh volumes, then cycles
   unmount, remount and a stat sweep over every created path in a
   seeded order, a fixed number of times for the requested seconds. No other workload measures the mount-time rebuild
   ([Core.Scan]) at scale or the device's resident memory. The volume
   holds a fixed number of files so that every run remounts the same
   amount of metadata; the cycles give the stat sweep the length it
   needs to be steady. *)

module Device = Pmem.Device
module Sq = Squirrelfs

let size = 4 * 1024 * 1024 * 1024
let files = 100_000

(* About 500 entries per directory; the seed picks the exact fan-out,
   which moves where directory pages fill and so the simulated cost. *)
let per_dir seed = 450 + (seed land 0xffff mod 101)

(* Cycles per requested second, sized so that a run takes about that
   long on a 2-core host. A fixed count, not a deadline: every run of a
   seed then does the same creates and stats. *)
let cycles seconds = max 3 (int_of_float (0.6 *. seconds))

(* Create phases per run: the creates run once per volume, so they are
   repeated on fresh volumes to give each stretch of them more than one
   try. *)
let passes = 3

let ok_or what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Vfs.Errno.to_string e)

(* Seeded names of varying length, and a seeded sweep order. *)
let inputs seed =
  let rng = Random.State.make [| 0xB16; seed |] in
  let paths =
    Array.init files (fun i ->
        let tag = String.init (Random.State.int rng 12) (fun _ -> Char.chr (97 + Random.State.int rng 26)) in
        Printf.sprintf "/d%d/f%d%s" (i / per_dir seed) i tag)
  in
  let order = Array.init files Fun.id in
  for i = files - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  (paths, order)

let setup () =
  let dev = Device.create ~latency:Pmem.Latency.optane ~size () in
  Sq.mkfs dev;
  (dev, ok_or "mount" (Sq.mount dev))

type result = {
  creates : int array;  (** wall ns per create, the last pass *)
  create_passes : int array list;  (** wall ns per create, every pass *)
  create_wall_ns : int;
  create_sim_ns : int;
  create_fences : int;
  create_minor : float;
  remounts : float list;  (** ms *)
  stats : Samples.t;  (** wall ns per stat *)
  stat_wall_ns : int;
  dev : Device.t;
  outcome : Outcome.t;
  errors : string list;
}

(* One create phase on a fresh volume. *)
type pass = {
  dev : Device.t;
  fs : Sq.t;
  times : int array;  (** wall ns per create *)
  wall_ns : int;
  sim_ns : int;
  fences : int;
  minor : float;
}

let create_pass ~seed outcome paths =
  let dev, fs = setup () in
  let creates = Samples.create () in
  let st = Device.stats dev in
  let sim0 = Device.now_ns dev and fences0 = st.Pmem.Stats.fences in
  let minor0 = Gc.minor_words () in
  let (), wall_ns =
    Clock.time (fun () ->
        Array.iteri
          (fun i p ->
            if i mod per_dir seed = 0 then
              Outcome.record outcome (Sq.mkdir fs (Printf.sprintf "/d%d" (i / per_dir seed)));
            let r, dt = Clock.time (fun () -> Sq.create fs p) in
            Samples.add creates dt;
            Outcome.record outcome r)
          paths)
  in
  {
    dev;
    fs;
    times = Samples.to_array creates;
    wall_ns;
    sim_ns = Device.now_ns dev - sim0;
    fences = st.Pmem.Stats.fences - fences0;
    minor = Gc.minor_words () -. minor0;
  }

(* The workload: [passes] create phases, each on a fresh volume, then
   [cycles] cycles on the last one, with [pause] running, untimed,
   before each pass after the first and each cycle. Only the last
   pass's volume is kept. *)
let volume ~seed ~passes ~cycles ~pause =
  let paths, order = inputs seed in
  let outcome = Outcome.create () in
  let times =
    List.init (passes - 1) (fun k ->
        if k > 0 then pause ();
        (create_pass ~seed outcome paths).times)
  in
  if passes > 1 then pause ();
  (* taken apart, so that the first mount of the volume is garbage once
     the first cycle remounts it *)
  let { dev; fs; times = last; wall_ns; sim_ns; fences; minor } = create_pass ~seed outcome paths in
  let stats = Samples.create () and missing = ref 0 in
  let remounts = ref [] and stat_wall_ns = ref 0 and fs = ref fs in
  for _ = 1 to cycles do
    pause ();
    Sq.unmount !fs;
    let fs', s = Clock.settled (fun () -> ok_or "remount" (Sq.mount dev)) in
    fs := fs';
    remounts := (s *. 1e3) :: !remounts;
    let (), sweep =
      Clock.time (fun () ->
          Array.iter
            (fun i ->
              let r, dt = Clock.time (fun () -> Sq.stat fs' paths.(i)) in
              Samples.add stats dt;
              Outcome.record outcome r;
              if Result.is_error r then incr missing)
            order)
    in
    stat_wall_ns := !stat_wall_ns + sweep
  done;
  Sq.unmount !fs;
  let errors =
    (if !missing > 0 then
       [ Printf.sprintf "%d stats of created paths failed after remount" !missing ]
     else [])
    @ if Device.is_sparse dev then [] else [ "4 GiB volume is not sparse" ]
  in
  {
    creates = last;
    create_passes = times @ [ last ];
    create_wall_ns = wall_ns;
    create_sim_ns = sim_ns;
    create_fences = fences;
    create_minor = minor;
    remounts = !remounts;
    stats;
    stat_wall_ns = !stat_wall_ns;
    dev;
    outcome;
    errors;
  }

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let per_s n ns = float_of_int n /. (float_of_int ns /. 1e9)
let mib b = float_of_int b /. 1048576.

(* Namespace ops of the create phase: the files and their directories. *)
let namespace_ops seed = files + ((files + per_dir seed - 1) / per_dir seed)

(* One stat sweep's wall ns per call, for each cycle: every sweep stats
   the same paths in the same order. *)
let sweeps r =
  let a = Samples.to_array r.stats in
  List.init (Array.length a / files) (fun c -> Array.sub a (c * files) files)

(* Creates and stats per second at their quiet speed, weighted by the
   fixed number of each: each stretch of 1000 creates at its best time
   of the create passes, each stretch of 5000 stats at its third-best
   time of the sweeps ([Stats.repeated_rate]). *)
let blended_rate r sweeps =
  let c = Stats.repeated_rate ~q:10. ~seg:1000 r.create_passes
  and s = Stats.repeated_rate ~seg:5000 sweeps in
  let n_s = float_of_int (Samples.length r.stats) in
  (float_of_int files +. n_s) /. ((float_of_int files /. c) +. (n_s /. s))

(* Set-up is timed five times before the run and three times before
   every later create pass and every cycle, so its samples cover the
   whole run rather than one spell of the shared host. *)
let e2e ~seed ~seconds =
  let setups = ref [] in
  let sample () = setups := snd (Clock.settled setup) :: !setups in
  for _ = 1 to 5 do
    sample ()
  done;
  let r =
    volume ~seed ~passes ~cycles:(cycles seconds) ~pause:(fun () -> sample (); sample (); sample ())
  in
  let sweeps = sweeps r in
  let creates = sorted r.creates and stats = Samples.sorted [ r.stats ] in
  let us a p = float_of_int (Stats.percentile a p) /. 1e3 in
  Printf.printf
    "bigvol: closed loop, 1 client (one domain), %d files created at %.0f/s, %d \
     remounts (median %.1f ms), %d stats at %.0f/s, resident %.1f MiB\n"
    files
    (per_s files r.create_wall_ns)
    (List.length r.remounts) (Stats.median_f r.remounts) (Samples.length r.stats)
    (per_s (Samples.length r.stats) r.stat_wall_ns)
    (mib (Device.resident_bytes r.dev));
  Printf.printf
    "bigvol: create p50 %.2f us, p99 %.2f us of %d; stat p50 %.2f us, p99 %.2f us of %d\n"
    (us creates 50.) (us creates 99.) (Array.length creates) (us stats 50.) (us stats 99.)
    (Array.length stats);
  {
    Outcome.metrics =
      [
        ("setup_s", Stats.median_f !setups);
        ("ops_per_s", blended_rate r sweeps);
        ("lat_p50_us", Stats.repeated_percentile ~over:10. sweeps 50. /. 1e3);
        ("sim_ns_per_op", Stats.ratio r.create_sim_ns (namespace_ops seed));
      ];
    outcome = r.outcome;
    errors = r.errors;
  }

(* Traced: three cycles, one pass. Every sample and counter is already
   read at the call boundary or around whole phases, so a traced pass
   would run the same code as an untraced one: the tracing overhead is
   0 by construction. *)
let traced ~seed ~seconds:_ =
  let r = volume ~seed ~passes:1 ~cycles:3 ~pause:ignore in
  let pct a p = float_of_int (Stats.percentile a p) in
  let creates = sorted r.creates and stats = Samples.sorted [ r.stats ] in
  Printf.printf "bigvol traced: %d files, 3 cycles\n" files;
  {
    Outcome.metrics =
      [
        ("core.create_ns.p50", pct creates 50.);
        ("core.create_ns.p99", pct creates 99.);
        ("core.stat_ns.p50", pct stats 50.);
        ("core.stat_ns.p99", pct stats 99.);
        ("core.mount_ms", Stats.median_f r.remounts);
        ("vol.creates_per_s", per_s files r.create_wall_ns);
        ("vol.stats_per_s", per_s (Samples.length r.stats) r.stat_wall_ns);
        ("pmem.backed_spans", float_of_int (List.length (Device.backed_spans r.dev)));
        ("pmem.resident_bytes_per_file", Stats.ratio (Device.resident_bytes r.dev) files);
        ("pmem.fences_per_create", Stats.ratio r.create_fences files);
        ("ocaml.minor_words_per_create", r.create_minor /. float_of_int files);
        ("trace.overhead_frac", 0.);
      ];
    outcome = r.outcome;
    errors = r.errors;
  }

let run ~seed ~seconds ~trace =
  if trace then traced ~seed ~seconds else e2e ~seed ~seconds
