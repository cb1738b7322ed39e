(* crash-fuzz: the clean delta-engine fuzzer ([buggy_rate 0], op budget
   8, default 256 KiB dense volume, one domain) over a fixed number of
   generated sequences. This is the checker's hot loop: view
   enumeration, apply_view, mount of a view, fsck and capture, with no
   server and no sparse volume on the path.

   Untraced, sequences run through [Fuzzer.Exec.run] on one device pool,
   as the library's scheduler runs them. Traced, the same sequences are
   replayed through a copy of the probe assembled from public calls,
   each call timed: that copy must count exactly the states and fences
   the library counted, or the trace does not describe the measured
   run. *)

module Device = Pmem.Device
module Sq = Squirrelfs
module H = Crashcheck.Harness
module Logical = Vfs.Logical
module Errno = Vfs.Errno
module Ref_fs = Fuzzer.Ref_fs

let device_size = 256 * 1024
let max_images = 8

(* Sequences checked for determinism: this prefix of the timed run is
   run again from scratch and must reproduce its counts exactly. *)
let check_iters = 64

let cfg seed =
  {
    Fuzzer.default_cfg with
    Fuzzer.seed;
    buggy_rate = 0.;
    op_budget = 8;
    device_size;
    max_images;
    shrink = false;
  }

(* The sequence the fuzzer generates for iteration [iter]: the same
   seeding as [Fuzzer.run_sched]. *)
let sequence seed iter =
  Fuzzer.Gen.sequence
    (Random.State.make [| 0x5EED; seed; iter |])
    { Fuzzer.Gen.op_budget = 8; buggy_rate = 0. }

(* What the fuzzer's device pool pays on first use: a formatted device,
   its template image and content hashes, and the scratch buffer. *)
type pool = {
  dev : Device.t;
  tmpl : Bytes.t;
  hash : int64 array * int64;
  scratch : Device.scratch;
  memo : (int64, (Logical.t, string) result) Hashtbl.t;
}

let setup () =
  let dev = Device.create ~size:device_size () in
  Sq.Mount.mkfs dev;
  let tmpl = Device.image_durable dev in
  let hash = Device.image_hash_state tmpl in
  let scratch = Device.scratch dev in
  { dev; tmpl; hash; scratch; memo = Hashtbl.create 1024 }

let ok_or what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Errno.to_string e)

let counts (r : Fuzzer.report) =
  let h = r.Fuzzer.r_harness in
  (h.H.crash_states, h.H.fences_probed, h.H.ops_run, h.H.states_deduped)

let violations (r : Fuzzer.report) =
  List.map (fun v -> v.H.v_detail) r.Fuzzer.r_harness.H.violations

(* Replies the reference model gives the generated ops: errnos here are
   the mix's intended ones (the differential oracle holds SquirrelFS to
   the same reply, so they are SquirrelFS's replies too). *)
let tally_replies seed iters (o : Outcome.t) =
  for iter = 0 to iters - 1 do
    ignore
      (List.fold_left
         (fun m op ->
           let m', r = Ref_fs.apply m op in
           Outcome.record o r;
           m')
         Ref_fs.empty (sequence seed iter))
  done

(* {1 End-to-end run}

   The loop of [Fuzzer.run_sched] (generate, then [Exec.run] on one
   device pool) over the first [per_rep] sequences of the seed, run
   again on a fresh pool in each of a fixed number of repetitions, about
   [seconds] of work on a 2-core host. Every repetition checks the same
   states, so every run of a seed does the same work, and it must count
   them identically. A fresh pool also starts each repetition with an
   empty verdict memo, so the heap holds one repetition's memo, not a
   whole run's.

   Since the repetitions are identical, each sequence counts at its
   [q]-th percentile time over them, the second-best of 16
   ([Stats.repeated_ns]): a spell of
   contention on the shared host has to cover that sequence in nearly
   every repetition to move the figure, while a change to the program
   moves every repetition alike. The latency sample of a sequence is its
   wall time per crash state at the same rank. One pool set-up is timed
   before the run and two after every repetition, outside the measured
   time. *)

let per_rep = 100
let reps seconds = max 3 (int_of_float (0.8 *. seconds))
let q = 10.

(* One repetition: each sequence's outcome, wall ns, and wall ns inside
   [Exec.run]. *)
let repetition seed =
  let pool = Fuzzer.Exec.Pool.create () in
  let runs =
    Array.init per_rep (fun iter ->
        let (o, run_ns), dt =
          Clock.time (fun () ->
              let ops = sequence seed iter in
              Clock.time (fun () -> Fuzzer.Exec.run ~pool ops))
        in
        (o, dt, run_ns))
  in
  (Array.map (fun (o, _, _) -> o) runs, Array.map (fun (_, dt, _) -> dt) runs,
   Array.map (fun (_, _, r) -> r) runs)

let states (o : Fuzzer.Exec.outcome) =
  let h = o.Fuzzer.Exec.o_report in
  h.H.crash_states + h.H.media_states

let e2e ~seed ~seconds =
  let setups = ref [] in
  let sample () = setups := snd (Clock.settled setup) :: !setups in
  sample ();
  let runs =
    List.init (reps seconds) (fun _ ->
        let r = repetition seed in
        sample ();
        sample ();
        r)
  in
  let outs, _, _ = List.hd runs in
  let sum f = Array.fold_left (fun a o -> a + f o) 0 outs in
  let hsum f = sum (fun o -> f o.Fuzzer.Exec.o_report) in
  let st = sum states and ops = hsum (fun h -> h.H.ops_run) in
  let again = Fuzzer.run { (cfg seed) with Fuzzer.iters = check_iters } in
  let psum f =
    let a = ref 0 in
    for i = 0 to check_iters - 1 do
      a := !a + f outs.(i).Fuzzer.Exec.o_report
    done;
    !a
  in
  let outcome = Outcome.create () in
  List.iter (fun _ -> tally_replies seed per_rep outcome) runs;
  for _ = 1 to sum (fun o -> o.Fuzzer.Exec.o_divergences) do
    Outcome.fail outcome "ENOSPC (capacity divergence)"
  done;
  let report (o : Fuzzer.Exec.outcome) = (o.o_report, o.o_state_sig, o.o_sim_ns) in
  let errors =
    List.concat_map
      (fun (os, _, _) -> List.filter_map (fun o -> Option.map snd o.Fuzzer.Exec.o_fail) (Array.to_list os))
      runs
    @ (if
         counts again
         <> ( psum (fun h -> h.H.crash_states),
              psum (fun h -> h.H.fences_probed),
              psum (fun h -> h.H.ops_run),
              psum (fun h -> h.H.states_deduped) )
       then [ "crash-state counts differ between two runs of the same sequences" ]
       else [])
    @
    if List.exists (fun (os, _, _) -> Array.map report os <> Array.map report outs) runs then
      [ "repetitions of the same sequences probed different crash states" ]
    else []
  in
  let times = List.map (fun (_, dt, _) -> dt) runs in
  (* each sequence's wall ns per crash state at its rank over the
     repetitions, for the sequences that reached a crash state *)
  let per_state =
    List.init per_rep Fun.id
    |> List.filter (fun i -> states outs.(i) > 0)
    |> List.map (fun i ->
           let r = Stats.percentile_f (List.map (fun (_, _, r) -> float_of_int r.(i)) runs) q in
           int_of_float r / states outs.(i))
    |> Array.of_list
  in
  Array.sort compare per_state;
  let tail = Option.value ~default:50. (Stats.tail_percentile ~cap:95. (Array.length per_state)) in
  let wall = float_of_int (List.fold_left (fun a t -> a + Array.fold_left ( + ) 0 t) 0 times) /. 1e9 in
  Printf.printf
    "crash-fuzz: closed loop, 1 client (one domain), %d sequences run %d times, each \
     time %d ops, %d crash states (%d deduped), %d fences; %.3f s in all\n"
    per_rep (List.length runs) ops st (hsum (fun h -> h.H.states_deduped))
    (hsum (fun h -> h.H.fences_probed)) wall;
  Printf.printf
    "crash-fuzz: latency is wall time per crash state within each sequence, at its \
     p%g over the repetitions; p50 %.1f us, p%g %.1f us of %d sequences\n"
    q
    (float_of_int (Stats.percentile per_state 50.) /. 1e3)
    tail
    (float_of_int (Stats.percentile per_state tail) /. 1e3)
    (Array.length per_state);
  {
    Outcome.metrics =
      [
        ("setup_s", Stats.median_f !setups);
        ("ops_per_s", float_of_int st /. (Stats.repeated_ns ~q ~seg:1 times /. 1e9));
        ("lat_p50_us", float_of_int (Stats.percentile per_state 50.) /. 1e3);
        ("sim_ns_per_op", Stats.ratio (sum (fun o -> o.Fuzzer.Exec.o_sim_ns)) ops);
      ];
    outcome;
    errors;
  }

(* {1 Traced run: the probe, call by call} *)

let layers =
  [| "fuzzer.gen_s"; "core.op_s"; "fuzzer.ref_fs_s"; "pmem.crash_views_s";
     "pmem.view_hash_s"; "pmem.apply_view_s"; "pmem.of_view_s"; "pmem.reset_s";
     "core.mount_s"; "core.fsck_raw_s"; "core.fsck_s"; "vfs.capture_s";
     "vfs.compare_s" |]

let l_gen = 0 and l_op = 1 and l_ref = 2 and l_views = 3 and l_hash = 4
and l_apply = 5 and l_of_view = 6 and l_reset = 7 and l_mount = 8
and l_fsck_raw = 9 and l_fsck = 10 and l_capture = 11 and l_compare = 12

type probe = {
  spent : int array;  (** ns per layer *)
  mutable in_hook : int;  (** ns inside fence hooks (nested in ops) *)
  mutable p_states : int;
  mutable p_fences : int;
  mutable p_views : int;
  mutable p_patches : int;
  mutable p_deduped : int;
  mutable p_violations : string list;
}

exception Abort

let span p l f =
  let t0 = Clock.now_ns () in
  let v = f () in
  p.spent.(l) <- p.spent.(l) + (Clock.now_ns () - t0);
  v

(* Mirrors [Fuzzer.Exec.run] on the delta engine without faults: pool
   reset, mount, then per op the model step and the SquirrelFS step with
   every fence probed (views, hash, memoized verdict of apply_view +
   of_view + raw fsck + mount + fsck + capture, oracle comparison). *)
let replay p (pool : pool) ops =
  let dev = pool.dev in
  span p l_reset (fun () -> Device.reset ~hash:pool.hash dev ~image:pool.tmpl);
  let fs = span p l_mount (fun () -> ok_or "mount" (Sq.mount dev)) in
  let legal = ref [ Ref_fs.capture Ref_fs.empty ] in
  let seen = Hashtbl.create 256 in
  let violate d =
    p.p_violations <- d :: p.p_violations;
    raise Abort
  in
  let check_state v =
    span p l_apply (fun () -> Device.apply_view pool.scratch v);
    let d2 = span p l_of_view (fun () -> Device.of_view pool.scratch) in
    let raw =
      span p l_fsck_raw (fun () ->
          match Layout.Records.Superblock.read d2 with
          | None -> [ "no superblock" ]
          | Some sb -> Sq.Fsck.check_raw d2 sb.Layout.Records.Superblock.geometry)
    in
    if raw <> [] then Error (String.concat " | " raw)
    else
      match span p l_mount (fun () -> Sq.mount d2) with
      | Error e -> Error ("mount: " ^ Errno.to_string e)
      | Ok fs2 -> (
          match span p l_fsck (fun () -> Sq.Fsck.check fs2) with
          | _ :: _ as errs -> Error (String.concat " | " errs)
          | [] ->
              span p l_capture (fun () ->
                  match Logical.capture (module Sq) fs2 with
                  | got -> Ok got
                  | exception Failure m -> Error m))
  in
  let check_image v =
    p.p_states <- p.p_states + 1;
    p.p_patches <- p.p_patches + Device.view_patch_count v;
    let h = span p l_hash (fun () -> Device.view_hash dev v) in
    if Hashtbl.mem seen h then p.p_deduped <- p.p_deduped + 1
    else Hashtbl.replace seen h ();
    let verdict =
      match Hashtbl.find_opt pool.memo h with
      | Some v -> v
      | None ->
          let v' = check_state v in
          Hashtbl.replace pool.memo h v';
          v'
    in
    match verdict with
    | Error d -> violate d
    | Ok got ->
        if
          not
            (span p l_compare (fun () ->
                 List.exists (fun s -> Logical.equal ~compare_data:false got s) !legal))
        then violate "recovered state not prefix-consistent"
  in
  let probe d =
    let t0 = Clock.now_ns () in
    p.p_fences <- p.p_fences + 1;
    let views = span p l_views (fun () -> Device.crash_views ~max_images d) in
    p.p_views <- p.p_views + List.length views;
    Fun.protect
      ~finally:(fun () -> p.in_hook <- p.in_hook + (Clock.now_ns () - t0))
      (fun () -> List.iter check_image views)
  in
  (try
     Device.set_fence_hook dev (Some probe);
     let model = ref Ref_fs.empty and cap_prev = ref (Ref_fs.capture Ref_fs.empty) in
     List.iter
       (fun op ->
         let m_next, m_res = span p l_ref (fun () -> Ref_fs.apply !model op) in
         let cap_next =
           if m_res = Ok () then span p l_ref (fun () -> Ref_fs.capture m_next)
           else !cap_prev
         in
         legal := if m_res = Ok () then [ !cap_prev; cap_next ] else [ !cap_prev ];
         let hook0 = p.in_hook in
         let sq_res, dt = Clock.time (fun () -> Fuzzer.Exec.apply_sq fs op) in
         p.spent.(l_op) <- p.spent.(l_op) + dt - (p.in_hook - hook0);
         match (sq_res, m_res) with
         | Ok (), Ok () ->
             model := m_next;
             cap_prev := cap_next
         | Error a, Error b when a = b -> ()
         | Error (Errno.ENOSPC | Errno.EMLINK), Ok () -> ()
         | _ -> violate "differential: SquirrelFS and the model disagree")
       ops;
     legal := [ !cap_prev ];
     probe dev;
     Device.set_fence_hook dev None;
     if span p l_fsck (fun () -> Sq.Fsck.check fs) <> [] then violate "live fsck"
   with Abort -> Device.set_fence_hook dev None)

(* Traced: one repetition's sequences, on a fresh pool as in the
   end-to-end run. *)
let traced ~seed ~seconds:_ =
  let iters = per_rep in
  let pool = setup () in
  let p =
    {
      spent = Array.make (Array.length layers) 0;
      in_hook = 0;
      p_states = 0;
      p_fences = 0;
      p_views = 0;
      p_patches = 0;
      p_deduped = 0;
      p_violations = [];
    }
  in
  let untraced () =
    let minor0 = Gc.minor_words () in
    let r = Fuzzer.run { (cfg seed) with Fuzzer.iters } in
    (r, Gc.minor_words () -. minor0)
  in
  let traced () =
    Clock.time (fun () ->
        for iter = 0 to iters - 1 do
          replay p pool (span p l_gen (fun () -> sequence seed iter))
        done)
  in
  let ((), wall_b), (a, minor_a), overhead = Clock.traced_vs_untraced ~untraced ~traced in
  let a_states, a_fences, _, a_deduped = counts a in
  let errors =
    violations a @ p.p_violations
    @
    if (p.p_states, p.p_fences, p.p_deduped) <> (a_states, a_fences, a_deduped) then
      [ "traced probe counted other states than the fuzzer" ]
    else []
  in
  let outcome = Outcome.create () in
  tally_replies seed iters outcome;
  let s ns = float_of_int ns /. 1e9 in
  let attributed = Array.fold_left ( + ) 0 p.spent in
  Printf.printf "crash-fuzz traced: %d sequences, %d states, tracing overhead %+.3f\n"
    iters p.p_states overhead;
  {
    Outcome.metrics =
      Array.to_list (Array.mapi (fun i name -> (name, s p.spent.(i))) layers)
      @ [
          ("probe.unattributed_s", s (wall_b - attributed));
          ("probe.states", float_of_int p.p_states);
          ("probe.memo_hit_ratio", Stats.ratio a_deduped a_states);
          ("pmem.views_per_fence", Stats.ratio p.p_views p.p_fences);
          ("pmem.view_patches_per_state", Stats.ratio p.p_patches p.p_states);
          ("ocaml.minor_words_per_state", minor_a /. float_of_int a_states);
          ("trace.overhead_frac", overhead);
        ];
    outcome;
    errors;
  }

let run ~seed ~seconds ~trace =
  if trace then traced ~seed ~seconds else e2e ~seed ~seconds
