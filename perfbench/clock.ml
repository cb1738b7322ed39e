(* Host monotonic clock in nanoseconds. Each domain reads it directly,
   so a latency sample never mixes another domain's progress into it. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* [time f] is [f ()] and its wall time in nanoseconds. *)
let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () - t0)

(* [f] timed from a collected heap, so that earlier garbage does not
   land in its time: the result and the seconds taken. *)
let settled f =
  Gc.full_major ();
  let v, dt = time f in
  (v, float_of_int dt /. 1e9)

(* A traced pass and an untraced pass of the same work, after one
   untraced pass that warms the heap and caches so neither timed pass
   pays for being first: the two results and the tracing overhead as a
   fraction of the untraced wall time. *)
let traced_vs_untraced ~untraced ~traced =
  ignore (untraced ());
  let t, wall_t = time traced in
  let u, wall_u = time untraced in
  (t, u, float_of_int (wall_t - wall_u) /. float_of_int wall_u)
