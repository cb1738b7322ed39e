(* paper-fs: the paper's evaluation path, in one domain. Each round
   runs every Figure 5(a) micro op (24 reps each) and the Filebench
   fileserver (write- and fsync-heavy) and webserver (90% reads) mixes,
   each on its own fresh 32 MiB dense device with Optane latencies, as
   the paper's benchmark does. SquirrelFS is handed to Micro and
   Filebench as [Timed_fs], so every call is timed and classified from
   outside.

   Simulated costs are a function of the seed alone: every round of a
   run must reproduce the first round's exactly, and the traced run
   splits them per latency term (store, flush, fence, read, software
   charge) by rerunning the round under single-term latency profiles;
   the parts must add up to the Optane total exactly. *)

module Device = Pmem.Device
module Latency = Pmem.Latency
module Micro = Workloads.Micro
module Filebench = Workloads.Filebench
module Sq = Squirrelfs

let size = 32 * 1024 * 1024
let reps = 24
let meta_ops = [ "create"; "mkdir"; "rename-dir"; "unlink-16k" ]

let data_ops =
  [ "append-1k"; "append-16k"; "append-64k"; "read-1k"; "read-16k"; "append-1k-h";
    "append-16k-h"; "read-1k-h" ]

let mixes = [ Filebench.Fileserver; Filebench.Webserver ]

(* Simulated ns and op count per fig5a op and per mix, in a fixed
   order, and the counters of every device the round created. *)
type round = { cost : (string * (int * int)) list; stats : Pmem.Stats.t list }

let round ~latency seed =
  (* a generator is done with its device once it asks for the next one:
     keep only its counters and collect the image, so dead 32 MiB
     images (the generator's, or a set-up sample's) do not pile up
     between major collections and the heap peak does not depend on
     when they would have run *)
  let stats = ref [] and last = ref None in
  let retire () =
    Option.iter
      (fun d ->
        stats := Pmem.Stats.copy (Device.stats d) :: !stats;
        last := None)
      !last;
    Gc.full_major ()
  in
  let device () =
    retire ();
    let d = Device.create ~latency ~size () in
    last := Some d;
    d
  in
  let micro op =
    let lat = Micro.measure (module Timed_fs) ~device ~reps op in
    (op, (Array.fold_left ( + ) 0 lat, reps))
  in
  let mix p =
    let r = Filebench.run (module Timed_fs) ~device ~seed p in
    (* [sim_seconds] is the device's integer ns count over 1e9 *)
    ( Filebench.name p,
      (Float.to_int (Float.round (r.Filebench.sim_seconds *. 1e9)), r.Filebench.ops) )
  in
  let cost = List.map micro (meta_ops @ data_ops) @ List.map mix mixes in
  retire ();
  { cost; stats = !stats }

let per_op (ns, n) = float_of_int ns /. float_of_int n

(* Geomean over every fig5a op and mix of the simulated ns per op. *)
let sim_ns_per_op r = Stats.geomean (List.map (fun (_, c) -> per_op c) r.cost)

let geomean_us r ops =
  Stats.geomean (List.map (fun op -> per_op (List.assoc op r.cost) /. 1e3) ops)

let kops r p =
  let ns, n = List.assoc (Filebench.name p) r.cost in
  float_of_int n /. (float_of_int ns /. 1e9) /. 1e3

(* Set-up of one Filebench instance: device, mkfs, mount, populate.
   Returns the mounted context and the device-create seconds. *)
let setup () =
  let dev, create_ns =
    Clock.time (fun () -> Device.create ~latency:Latency.optane ~size ())
  in
  Sq.mkfs dev;
  match Sq.mount dev with
  | Error e -> failwith ("mount: " ^ Vfs.Errno.to_string e)
  | Ok fs ->
      Filebench.populate (module Sq) fs ~dirs:10 ~nfiles:150 ~fsize:8192;
      (fs, float_of_int create_ns /. 1e9)

(* Latency is summarized per call kind, then across kinds: the stream
   mixes sub-microsecond stats with 100 us renames, so a percentile of
   the pooled calls lands on a cliff between kinds and jumps run to
   run. These five kinds make up over 95% of the calls of a round. *)
let lat_kinds = [ "create"; "unlink"; "write"; "read"; "stat" ]

(* Pooled percentile over the run of each kind's calls, geomean over
   the kinds. *)
let lat_us p =
  Stats.geomean
    (List.map
       (fun k -> float_of_int (Stats.percentile (Samples.sorted [ Timed_fs.samples k ]) p) /. 1e3)
       lat_kinds)

(* Rounds per requested second, sized so that a run takes about that
   long on a 2-core host: a fixed count, so every run of a seed does the
   same work. *)
let rounds seconds = max 3 (int_of_float (0.8 *. seconds))

(* The wall ns of one round's calls, all of them in call order and by
   latency kind. Every round makes the same calls. *)
type round_ns = { all : int array; kinds : int array list }

let round_ns f =
  let mark () = List.map (fun k -> Samples.length (Timed_fs.samples k)) lat_kinds in
  let all0 = Timed_fs.calls () and kinds0 = mark () in
  let r = f () in
  ( r,
    {
      all = Samples.since Timed_fs.every all0;
      kinds = List.map2 (fun k n -> Samples.since (Timed_fs.samples k) n) lat_kinds kinds0;
    } )

(* The rate counts SquirrelFS calls over the wall time spent inside
   them: device creation and the collections that free dead devices
   are the benchmark's own work, not SquirrelFS's. Since every round
   makes the same calls, each stretch of [seg] calls counts at its time
   in the quiet tenth of the rounds ([Stats.repeated_rate]), and each
   latency kind's p50 at its quiet rounds' p50. Set-up is timed three
   times first and once after each round, so it is sampled across the
   whole run rather than in one spell of the shared host. *)
let seg = 100
let q = 10.

let e2e ~seed ~seconds =
  let setups = ref [] in
  let sample_setup () = setups := snd (Clock.settled setup) :: !setups in
  for _ = 1 to 3 do
    sample_setup ()
  done;
  Timed_fs.reset ();
  let work =
    List.init (rounds seconds) (fun _ ->
        let rw = round_ns (fun () -> round ~latency:Latency.optane seed) in
        sample_setup ();
        rw)
  in
  let first = fst (List.hd work) and ns = List.map snd work in
  let errors =
    if List.exists (fun (r, _) -> r.cost <> first.cost) work then
      [ "simulated costs differ between rounds of one seed" ]
    else []
  in
  let calls = Timed_fs.calls () in
  let wall = float_of_int (Array.fold_left ( + ) 0 (Samples.to_array Timed_fs.every)) /. 1e9 in
  let fewest =
    List.fold_left min max_int (List.map (fun k -> Samples.length (Timed_fs.samples k)) lat_kinds)
  in
  let tail = Option.value ~default:50. (Stats.tail_percentile fewest) in
  let quiet_p50_us =
    Stats.geomean
      (List.mapi
         (fun i _ ->
           Stats.repeated_percentile ~over:q (List.map (fun r -> List.nth r.kinds i) ns) 50.
           /. 1e3)
         lat_kinds)
  in
  Printf.printf
    "paper-fs: closed loop, 1 client (one domain), %d rounds, %d SquirrelFS calls \
     in %.3f s\n"
    (List.length work) calls wall;
  Printf.printf
    "paper-fs: sim meta %.3f us, data %.3f us, fileserver %.1f kops/s, webserver \
     %.1f kops/s\n"
    (geomean_us first meta_ops) (geomean_us first data_ops)
    (kops first Filebench.Fileserver) (kops first Filebench.Webserver);
  Printf.printf
    "paper-fs: latency is the geomean over %s of each call's percentile; p50 %.2f us, \
     p%g %.2f us, at least %d samples per call\n"
    (String.concat "/" lat_kinds) (lat_us 50.) tail (lat_us tail) fewest;
  {
    Outcome.metrics =
      [
        ("setup_s", Stats.median_f !setups);
        ("ops_per_s", Stats.repeated_rate ~q ~seg (List.map (fun r -> r.all) ns));
        ("lat_p50_us", quiet_p50_us);
        ("sim_ns_per_op", sim_ns_per_op first);
      ];
    outcome = !Timed_fs.outcome;
    errors;
  }

(* {1 Traced run} *)

let profiles =
  let z = Latency.zero and o = Latency.optane in
  [
    ("store", { z with Latency.store_ns = o.Latency.store_ns; nt_store_ns = o.nt_store_ns });
    ("flush", { z with Latency.flush_ns = o.Latency.flush_ns });
    ( "fence",
      { z with Latency.fence_base_ns = o.Latency.fence_base_ns; fence_line_ns = o.fence_line_ns }
    );
    ( "read",
      {
        z with
        Latency.read_base_ns = o.Latency.read_base_ns;
        read_line_ns = o.read_line_ns;
        read_meta_ns = o.read_meta_ns;
      } );
  ]

(* Exact split of each fig5a op's and mix's Optane cost: the charge-only
   cost (zero latency) plus, per term, that term's single-term cost
   minus the charge-only cost. Returns the errors for any entry whose
   parts do not add up to its Optane cost. *)
let split ~optane seed =
  let zero = round ~latency:Latency.zero seed in
  let terms = List.map (fun (name, latency) -> (name, round ~latency seed)) profiles in
  let part r key = fst (List.assoc key r.cost) - fst (List.assoc key zero.cost) in
  let errors =
    List.filter_map
      (fun (key, (total, _)) ->
        let sum = fst (List.assoc key zero.cost) + List.fold_left (fun a (_, r) -> a + part r key) 0 terms in
        if sum = total then None
        else Some (Printf.sprintf "sim split of %s sums to %d ns, Optane total %d ns" key sum total))
      optane.cost
  in
  Printf.printf "paper-fs split (ns/op):  %-12s %9s %9s %9s %9s %9s %9s\n" "" "total" "store"
    "flush" "fence" "read" "charge";
  List.iter
    (fun (key, (total, n)) ->
      Printf.printf "paper-fs split (ns/op):  %-12s %9.1f" key (per_op (total, n));
      List.iter (fun (_, r) -> Printf.printf " %9.1f" (per_op (part r key, n))) terms;
      Printf.printf " %9.1f\n" (per_op (List.assoc key zero.cost)))
    optane.cost;
  let groups =
    [ ("meta", meta_ops); ("data", data_ops) ]
    @ List.map (fun p -> (Filebench.name p, [ Filebench.name p ])) mixes
  in
  let metrics =
    List.concat_map
      (fun (g, keys) ->
        let n = List.fold_left (fun a k -> a + snd (List.assoc k optane.cost)) 0 keys in
        let sum f = List.fold_left (fun a k -> a + f k) 0 keys in
        List.map
          (fun (term, r) ->
            (Printf.sprintf "pmem.sim_%s_ns_per_op.%s" term g, Stats.ratio (sum (part r)) n))
          terms
        @ [
            ( "core.sim_charge_ns_per_op." ^ g,
              Stats.ratio (sum (fun k -> fst (List.assoc k zero.cost))) n );
          ])
      groups
  in
  (metrics, errors)

let wall_ops = [ "create"; "mkdir"; "rename"; "unlink"; "write"; "read"; "stat"; "open"; "write_h"; "read_h" ]

let traced ~seed ~seconds =
  let rounds = max 1 (int_of_float (seconds /. 4.)) in
  let device_create_s =
    Stats.median_f (List.init 5 (fun _ -> snd (fst (Clock.settled setup))))
  in
  (* Every call is timed in the end-to-end run too, so a traced pass
     would run the same code as an untraced one: one pass, and the
     tracing overhead is 0 by construction. *)
  Timed_fs.reset ();
  let rs = List.init rounds (fun _ -> round ~latency:Latency.optane seed) in
  let calls = Timed_fs.calls () and user_bytes = !Timed_fs.user_bytes in
  let wall_p50 op =
    let s = Timed_fs.samples op in
    if Samples.length s = 0 then 0. else float_of_int (Stats.percentile (Samples.sorted [ s ]) 50.)
  in
  let total f =
    List.fold_left (fun a r -> List.fold_left (fun a s -> a + f s) a r.stats) 0 rs
  in
  let optane = List.hd rs in
  let split_metrics, errors = split ~optane seed in
  let errors =
    if List.exists (fun r -> r.cost <> optane.cost) rs then
      "simulated costs differ between rounds of one seed" :: errors
    else errors
  in
  let outcome = !Timed_fs.outcome in
  Printf.printf "paper-fs traced: %d rounds, %d calls\n" rounds calls;
  {
    Outcome.metrics =
      split_metrics
      @ [
          ("pmem.stores_per_op", Stats.ratio (total (fun s -> s.Pmem.Stats.stores)) calls);
          ("pmem.flushes_per_op", Stats.ratio (total (fun s -> s.Pmem.Stats.flushes)) calls);
          ("pmem.fences_per_op", Stats.ratio (total (fun s -> s.Pmem.Stats.fences)) calls);
          ( "pmem.lines_drained_per_op",
            Stats.ratio (total (fun s -> s.Pmem.Stats.lines_drained)) calls );
          ( "pmem.bytes_stored_per_user_byte",
            Stats.ratio (total (fun s -> s.Pmem.Stats.bytes_stored)) user_bytes );
        ]
      @ List.map (fun op -> ("core.wall_ns." ^ op, wall_p50 op)) wall_ops
      @ [
          ("pmem.device_create_s", device_create_s);
          ("fs.sim_meta_us", geomean_us optane meta_ops);
          ("fs.sim_data_us", geomean_us optane data_ops);
          ("fs.sim_fileserver_kops", kops optane Filebench.Fileserver);
          ("fs.sim_webserver_kops", kops optane Filebench.Webserver);
          ("trace.overhead_frac", 0.);
        ];
    outcome;
    errors;
  }

let run ~seed ~seconds ~trace =
  if trace then traced ~seed ~seconds else e2e ~seed ~seconds
