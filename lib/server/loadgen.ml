(** Synthetic traffic driver: replays thousands of simulated client
    sessions against one [Engine] over a shared device.

    Parallel model (mirrors [Fuzzer.sweep]): worker domains claim
    whole sessions from an atomic cursor and run each claimed session's
    request stream in batches through {!Engine.submit_batch}. Because
    each session's stream depends only on [(seed, client id)] and the
    merged metrics are associative/commutative, a [-j 1] run is
    bit-deterministic per seed (including the final durable image hash,
    which the report carries as the determinism witness). Multi-domain
    runs interleave ops between sessions, so the durable image differs
    run to run — throughput scales, the witness is [-j 1]'s.

    Latencies are in simulated nanoseconds from the device clock: exact
    per-op at [-j 1]; at [-j N] concurrent domains advance the shared
    clock between a worker's two reads, so per-op figures are
    approximate (throughput and counters remain exact). *)

module Sq = Squirrelfs
module Device = Pmem.Device

type cfg = {
  clients : int;
  ops_per_client : int;
  batch : int;  (** requests per submitted batch *)
  jobs : int;  (** worker domains *)
  seed : int;
  dirs : int;
  files : int;
  theta : float;
  device_mb : int;
}

let default =
  {
    clients = 100;
    ops_per_client = 50;
    batch = 8;
    jobs = 1;
    seed = 1;
    dirs = 8;
    files = 64;
    theta = 0.99;
    device_mb = 32;
  }

type report = {
  r_cfg : cfg;
  r_ops : int;  (** replies received *)
  r_oks : int;
  r_errs : (string * int) list;  (** errno -> count, sorted by name *)
  r_stamps : int;  (** server stamps issued (= r_ops) *)
  r_wall_s : float;  (** host wall-clock (observability only) *)
  r_ops_per_sec : float;
  r_sim_ns : int;  (** simulated time consumed on the device *)
  r_retries : int;  (** engine revalidation misses *)
  r_fallbacks : int;  (** whole-FS-lock fallbacks *)
  r_fair_min : int;  (** fewest ops run by any worker *)
  r_fair_max : int;  (** most ops run by any worker *)
  r_metrics : Obs.Metrics.t;  (** per-op latency histograms ("srv.<op>") *)
  r_durable_hash : int64;  (** determinism witness (see above) *)
}

(* Per-worker accumulator, merged after join. *)
type acc = {
  mutable a_ops : int;
  mutable a_oks : int;
  a_errs : (Vfs.Errno.t, int) Hashtbl.t;
  a_metrics : Obs.Metrics.t;
}

let fresh_acc () =
  {
    a_ops = 0;
    a_oks = 0;
    a_errs = Hashtbl.create 8;
    a_metrics = Obs.Metrics.create ();
  }

let tally tbl k n =
  Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* Run one whole session to completion. *)
let run_session (eng : Engine.t) (acc : acc) (sess : Session.t) ~batch
    ~ops =
  let dev = eng.Engine.ctx.Sq.Fsctx.dev in
  let remaining = ref ops in
  while !remaining > 0 do
    let n = min batch !remaining in
    remaining := !remaining - n;
    let seq0 = Session.seq sess in
    let reqs = Session.next_batch sess n in
    List.iter
      (fun r ->
        let t0 = Device.now_ns dev in
        let reply =
          Engine.submit eng ~client:(Session.id sess) ~seq:seq0 r
        in
        Obs.Metrics.observe acc.a_metrics
          ("srv." ^ Req.name r)
          (Device.now_ns dev - t0);
        acc.a_ops <- acc.a_ops + 1;
        match reply.Req.rp_result with
        | Ok _ -> acc.a_oks <- acc.a_oks + 1
        | Error e -> tally acc.a_errs e 1)
      reqs
  done

(* Pre-create the Zipf universe single-threaded, before any worker
   domain exists: /d<i> directories plus every universe file, so data
   ops on hot paths hit real files from the first request. *)
let populate (ctx : Sq.Fsctx.t) (cfg : cfg) =
  let scfg =
    { Session.dirs = cfg.dirs; files = cfg.files; theta = cfg.theta;
      seed = cfg.seed }
  in
  for i = 0 to cfg.dirs - 1 do
    match Sq.mkdir ctx (Session.path_of_dir i) with
    | Ok () -> ()
    | Error e ->
        failwith
          (Printf.sprintf "loadgen populate: mkdir /d%d: %s" i
             (Vfs.Errno.to_string e))
  done;
  for k = 0 to cfg.files - 1 do
    match Sq.create ctx (Session.path_of_file scfg k) with
    | Ok () -> ()
    | Error e ->
        failwith
          (Printf.sprintf "loadgen populate: create f%d: %s" k
             (Vfs.Errno.to_string e))
  done

let run (cfg : cfg) : report =
  let dev =
    Device.create ~latency:Pmem.Latency.optane
      ~size:(cfg.device_mb * 1024 * 1024)
      ()
  in
  Sq.mkfs dev;
  let ctx =
    match Sq.mount dev with
    | Ok ctx -> ctx
    | Error e -> failwith ("loadgen: mount: " ^ Vfs.Errno.to_string e)
  in
  populate ctx cfg;
  let eng = Engine.create ctx in
  let scfg =
    { Session.dirs = cfg.dirs; files = cfg.files; theta = cfg.theta;
      seed = cfg.seed }
  in
  let jobs = max 1 cfg.jobs in
  if jobs > 1 then Device.set_shared dev true;
  let sim0 = Device.now_ns dev in
  let wall0 = Unix.gettimeofday () in
  (* Worker [i] runs client [i] first and then claims the rest one at a
     time, so every worker gets a client even when the others would
     drain the cursor before the OS first schedules it. One worker runs
     the clients in order. *)
  let cursor = Atomic.make jobs in
  let worker i () =
    let acc = fresh_acc () in
    let rec loop c =
      if c < cfg.clients then begin
        run_session eng acc
          (Session.create scfg ~id:c)
          ~batch:cfg.batch ~ops:cfg.ops_per_client;
        loop (Atomic.fetch_and_add cursor 1)
      end
    in
    loop i;
    acc
  in
  let accs =
    if jobs = 1 then [ worker 0 () ]
    else
      Array.to_list
        (Array.map Domain.join
           (Array.init jobs (fun i -> Domain.spawn (worker i))))
  in
  let wall_s = Unix.gettimeofday () -. wall0 in
  Device.set_shared dev false;
  Sq.unmount ctx;
  (* merge (associative/commutative: order independent) *)
  let ops = List.fold_left (fun a c -> a + c.a_ops) 0 accs in
  let oks = List.fold_left (fun a c -> a + c.a_oks) 0 accs in
  let errs = Hashtbl.create 8 in
  List.iter
    (fun c ->
      Hashtbl.iter (fun e n -> tally errs (Vfs.Errno.to_string e) n) c.a_errs)
    accs;
  let metrics =
    List.fold_left
      (fun m c -> Obs.Metrics.merge m c.a_metrics)
      (Obs.Metrics.create ()) accs
  in
  let per_worker = List.map (fun c -> c.a_ops) accs in
  {
    r_cfg = cfg;
    r_ops = ops;
    r_oks = oks;
    r_errs =
      List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) errs []);
    r_stamps = Engine.stamps_issued eng;
    r_wall_s = wall_s;
    r_ops_per_sec = (if wall_s > 0.0 then float_of_int ops /. wall_s else 0.0);
    r_sim_ns = Device.now_ns dev - sim0;
    r_retries = Engine.retry_count eng;
    r_fallbacks = Engine.fallback_count eng;
    r_fair_min = List.fold_left min max_int per_worker;
    r_fair_max = List.fold_left max 0 per_worker;
    r_metrics = metrics;
    r_durable_hash = Device.durable_hash dev;
  }

let pp_report ppf (r : report) =
  Fmt.pf ppf
    "clients=%d ops=%d ok=%d stamps=%d jobs=%d@,\
     wall=%.3fs ops/s=%.0f sim=%dms@,\
     retries=%d fallbacks=%d fairness=[%d..%d] ops/worker@,\
     durable_hash=%Lx@,"
    r.r_cfg.clients r.r_ops r.r_oks r.r_stamps r.r_cfg.jobs r.r_wall_s
    r.r_ops_per_sec
    (r.r_sim_ns / 1_000_000)
    r.r_retries r.r_fallbacks r.r_fair_min r.r_fair_max r.r_durable_hash;
  List.iter (fun (e, n) -> Fmt.pf ppf "err %-12s %d@," e n) r.r_errs;
  List.iter
    (fun (name, h) ->
      if String.length name > 4 && String.sub name 0 4 = "srv." then
        Fmt.pf ppf "lat %-14s p50<=%dns p99<=%dns@," name
          (Obs.Metrics.quantile h 0.5)
          (Obs.Metrics.quantile h 0.99))
    (let m = r.r_metrics in
     List.filter_map
       (fun (k, _) ->
         Option.map (fun h -> (k, h)) (Obs.Metrics.hist m k))
       (Obs.Metrics.hists_list m))
