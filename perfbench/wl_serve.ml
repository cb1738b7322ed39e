(* serve-zipf: a closed loop of whole client sessions. One worker
   replays session after session, 100 requests each, through
   [Serve.Engine.submit] on a device in shared mode, so the lock table
   and the device's shared-mode locking are on its path. Runs serve the
   same sessions a fixed number of times. The 1 GiB volume keeps inodes from running
   out (the loadgen's 32 MiB default answers ENOSPC to a few percent of
   requests), so it also runs on sparse backing and the indexed
   allocator.

   One domain: with two on a 2-core shared host, throughput fell from
   about 45k to 10k requests/s whenever a neighbour took a core (each
   minor collection waits for the descheduled domain), and ten runs
   spread by 82%. *)

module Device = Pmem.Device
module Sq = Squirrelfs
module E = Serve.Engine
module Session = Serve.Session
module Req = Serve.Req

let device_mb = 1024
let ops_per_client = 100
let lcfg seed = { Serve.Loadgen.default with Serve.Loadgen.seed; device_mb }

let scfg seed =
  let c = lcfg seed in
  { Session.dirs = c.Serve.Loadgen.dirs; files = c.files; theta = c.theta; seed }

let ok_or what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Vfs.Errno.to_string e)

let setup seed =
  let dev =
    Device.create ~latency:Pmem.Latency.optane ~size:(device_mb * 1024 * 1024) ()
  in
  Sq.mkfs dev;
  let ctx = ok_or "mount" (Sq.mount dev) in
  Serve.Loadgen.populate ctx (lcfg seed);
  (dev, ctx)

(* The worker's tallies. *)
type worker = {
  outcome : Outcome.t;
  lat : Samples.t;  (** wall ns per request *)
  mutable busy_ns : int;
  mutable ops : int;
  mutable minor : float;
  mutable wall_ns : int;
  keys : Samples.t;  (** traced: [lock_keys] ns *)
  wait : Samples.t;  (** traced: ns under [with_op_locks] outside [exec] *)
  exec : (string, Samples.t) Hashtbl.t;  (** traced: [exec] ns by request kind *)
}

let fresh () =
  {
    outcome = Outcome.create ();
    lat = Samples.create ();
    busy_ns = 0;
    ops = 0;
    minor = 0.;
    wall_ns = 0;
    keys = Samples.create ();
    wait = Samples.create ();
    exec = Hashtbl.create 16;
  }

let exec_samples w name =
  match Hashtbl.find_opt w.exec name with
  | Some s -> s
  | None ->
      let s = Samples.create () in
      Hashtbl.replace w.exec name s;
      s

(* [Engine.submit] with its parts timed: key resolution once on its own,
   then the lock protocol around a timed [exec]. *)
let submit_traced w eng ~client ~seq r =
  let t0 = Clock.now_ns () in
  ignore (E.lock_keys eng r);
  let t1 = Clock.now_ns () in
  Samples.add w.keys (t1 - t0);
  let ex = ref 0 in
  let reply =
    E.with_op_locks eng r (fun () ->
        let rp_result, dt = Clock.time (fun () -> E.exec eng r) in
        ex := dt;
        let rp_stamp = Atomic.fetch_and_add eng.E.stamp 1 in
        { Req.rp_client = client; rp_seq = seq; rp_stamp; rp_result })
  in
  Samples.add w.wait (Clock.now_ns () - t1 - !ex);
  Samples.add (exec_samples w (Req.name r)) !ex;
  reply

(* Sessions [0, sessions), in order. A raise is not caught here: it
   ends the run, and main.ml reports it as a failed, incorrect run. *)
let drive ~traced ~seed ~sessions w eng =
  let m0 = Gc.minor_words () and start = Clock.now_ns () in
  for c = 0 to sessions - 1 do
    let sess = Session.create (scfg seed) ~id:c in
    for _ = 1 to ops_per_client do
      let seq = Session.seq sess and r = Session.next sess in
      let t0 = Clock.now_ns () in
      let reply =
        if traced then submit_traced w eng ~client:c ~seq r
        else E.submit eng ~client:c ~seq r
      in
      let dt = Clock.now_ns () - t0 in
      Samples.add w.lat dt;
      w.busy_ns <- w.busy_ns + dt;
      w.ops <- w.ops + 1;
      Outcome.record w.outcome reply.Req.rp_result
    done
  done;
  w.minor <- w.minor +. (Gc.minor_words () -. m0);
  w.wall_ns <- w.wall_ns + (Clock.now_ns () - start)

type run = { w : worker; serve_ns : int; sim_ns : int; eng : E.t; dev : Device.t; ctx : Sq.Fsctx.t }

(* [sessions] sessions by [w] on a fresh volume, whose set-up is timed
   from a collected heap. *)
let serve ?(w = fresh ()) ~traced ~seed ~sessions () =
  let (dev, ctx), setup_s = Clock.settled (fun () -> setup seed) in
  let eng = E.create ctx in
  Device.set_shared dev true;
  let sim0 = Device.now_ns dev in
  let (), serve_ns = Clock.time (fun () -> drive ~traced ~seed ~sessions w eng) in
  Device.set_shared dev false;
  ({ w; serve_ns; sim_ns = Device.now_ns dev - sim0; eng; dev; ctx }, setup_s)

(* The served volume must remount cleanly and fsck empty. *)
let final_check r =
  Sq.unmount r.ctx;
  let fs = ok_or "remount" (Sq.mount r.dev) in
  let errs = Sq.Fsck.check fs in
  Sq.unmount fs;
  List.map (fun e -> "fsck after serving: " ^ e) errs

(* The same [sessions] sessions are served again and again, each time
   on a fresh volume, a fixed number of times for the requested seconds,
   so every run of a seed serves the same work, and every repetition
   must cost the same simulated time. A repetition's volume, and the
   heap that holds it, stay small: the hot files of a volume keep
   growing, and with 1000 sessions per volume a neighbour copying
   memory on the host cut the rate by 37%; with 200, by 2%. Since the
   repetitions are identical, each stretch of [seg] requests counts at
   its [q]-th percentile time over them ([Stats.repeated_rate]), and the
   latency at the [q]-th percentile over the repetitions of each one's
   p50. Each repetition's set-up is timed from a collected heap. *)
let sessions = 200
let reps seconds = max 3 (int_of_float (4. *. seconds))
let seg = 1000
let q = 10.

(* What a repetition leaves once its volume is checked and dropped. *)
type rep = { setup_s : float; sim_ns : int; serve_ns : int; lat : int array; errs : string list }

let e2e ~seed ~seconds =
  let w = fresh () in
  let runs =
    List.init (reps seconds) (fun _ ->
        let from = Samples.length w.lat in
        let r, setup_s = serve ~w ~traced:false ~seed ~sessions () in
        let errs = final_check r in
        { setup_s; sim_ns = r.sim_ns; serve_ns = r.serve_ns; lat = Samples.since w.lat from; errs })
  in
  let first = List.hd runs in
  let errors =
    List.concat_map (fun r -> r.errs) runs
    @
    if List.exists (fun r -> r.sim_ns <> first.sim_ns) runs then
      [ "simulated time differs between repetitions of the same sessions" ]
    else []
  in
  let lats = List.map (fun r -> r.lat) runs in
  let sorted = Samples.sorted [ w.lat ] in
  let tail = Option.value ~default:50. (Stats.tail_percentile (Array.length sorted)) in
  Printf.printf
    "serve-zipf: closed loop, 1 client in flight (one domain), %d sessions of %d requests, \
     served %d times, %d requests in %.3f s\n"
    sessions ops_per_client (List.length runs) w.ops
    (float_of_int (List.fold_left (fun a r -> a + r.serve_ns) 0 runs) /. 1e9);
  Printf.printf "serve-zipf: latency per request; p50 %.2f us, p%g %.2f us of %d samples\n"
    (float_of_int (Stats.percentile sorted 50.) /. 1e3)
    tail
    (float_of_int (Stats.percentile sorted tail) /. 1e3)
    (Array.length sorted);
  {
    Outcome.metrics =
      [
        ("setup_s", Stats.median_f (List.map (fun r -> r.setup_s) runs));
        ("ops_per_s", Stats.repeated_rate ~q ~seg lats);
        ("lat_p50_us", Stats.repeated_percentile ~over:q lats 50. /. 1e3);
        ("sim_ns_per_op", Stats.ratio first.sim_ns (sessions * ops_per_client));
      ];
    outcome = w.outcome;
    errors;
  }

let exec_kinds = [ "write"; "write-h"; "read"; "read-h"; "stat"; "create"; "unlink"; "rename" ]

(* Traced: [traced_reps] repetitions of the end-to-end work, each on a
   fresh volume, served once traced and once not, after an untraced
   warm-up. *)
let traced_reps = 10

let traced ~seed ~seconds:_ =
  let pass traced () =
    let w = fresh () in
    List.init traced_reps (fun _ -> fst (serve ~w ~traced ~seed ~sessions ()))
  in
  let rs, a, overhead = Clock.traced_vs_untraced ~untraced:(pass false) ~traced:(pass true) in
  let errors = List.concat_map final_check rs in
  let w = (List.hd rs).w and a = (List.hd a).w in
  let total f = List.fold_left (fun n r -> n + f r) 0 rs in
  let stat f = total (fun r -> f (Device.stats r.dev)) in
  let p50 s = float_of_int (Stats.percentile (Samples.sorted [ s ]) 50.) in
  let exec_p50 kind = Option.fold ~none:0. ~some:p50 (Hashtbl.find_opt w.exec kind) in
  let waits = Samples.sorted [ w.wait ] in
  let per_kop n = 1000. *. Stats.ratio n w.ops in
  Printf.printf
    "serve-zipf traced: %d sessions served %d times, %d requests, tracing overhead %+.3f\n"
    sessions traced_reps w.ops overhead;
  {
    Outcome.metrics =
      [
        ("server.lock_keys_ns", p50 w.keys);
        ("server.lock_wait_ns.p50", float_of_int (Stats.percentile waits 50.));
        ("server.lock_wait_ns.p99", float_of_int (Stats.percentile waits 99.));
      ]
      @ List.map (fun k -> ("core.exec_ns." ^ k, exec_p50 k)) exec_kinds
      @ [
          ("server.retries_per_kop", per_kop (total (fun r -> E.retry_count r.eng)));
          ("server.fallbacks_per_kop", per_kop (total (fun r -> E.fallback_count r.eng)));
          ("server.domain_busy_frac", Stats.ratio w.busy_ns w.wall_ns);
          ("pmem.fences_per_op", Stats.ratio (stat (fun s -> s.Pmem.Stats.fences)) w.ops);
          ("pmem.lines_drained_per_op", Stats.ratio (stat (fun s -> s.Pmem.Stats.lines_drained)) w.ops);
          ("ocaml.minor_words_per_op", a.minor /. float_of_int a.ops);
          ("trace.overhead_frac", overhead);
        ];
    outcome = w.outcome;
    errors;
  }

let run ~seed ~seconds ~trace =
  if trace then traced ~seed ~seconds else e2e ~seed ~seconds
