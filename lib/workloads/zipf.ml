(** Zipfian key distribution (YCSB's default request distribution),
    using the Gray et al. quick approximation with theta = 0.99. *)

type t = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  rng : Random.State.t;
}

(* The O(n) harmonic sum, uncached. Exposed for the memoization test:
   [zeta] below must return bit-identical floats. *)
let zeta_uncached n theta =
  let s = ref 0.0 in
  for i = 1 to n do
    s := !s +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !s

(* {2 Memoized zeta}

   [Serve.Loadgen] builds one generator per simulated client session —
   thousands of them, all over the same key space — and the O(n) zeta
   scan per generator dominated setup. The cache keeps, per theta, the
   largest prefix sum computed so far plus a table of exact values by
   [n]; a larger [n] extends the running sum incrementally from the
   cached point (the partial sums are prefixes of the same
   left-to-right summation, so extension is bit-identical to the fresh
   loop), and any previously seen [n] is O(1). Guarded by a mutex:
   loadgen workers create sessions from several domains. *)

type zcache = {
  mutable zc_n : int; (* largest n summed so far *)
  mutable zc_sum : float; (* zeta zc_n theta *)
  exact : (int, float) Hashtbl.t; (* every n handed out *)
}

let zeta_lock = Mutex.create ()
let zeta_by_theta : (float, zcache) Hashtbl.t = Hashtbl.create 4

let zeta n theta =
  Mutex.lock zeta_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock zeta_lock)
    (fun () ->
      let c =
        match Hashtbl.find_opt zeta_by_theta theta with
        | Some c -> c
        | None ->
            let c = { zc_n = 0; zc_sum = 0.0; exact = Hashtbl.create 8 } in
            Hashtbl.replace zeta_by_theta theta c;
            c
      in
      match Hashtbl.find_opt c.exact n with
      | Some z -> z
      | None ->
          let z =
            if n >= c.zc_n then begin
              (* extend the running prefix sum: identical float result to
                 summing 1..n from scratch *)
              let s = ref c.zc_sum in
              for i = c.zc_n + 1 to n do
                s := !s +. (1.0 /. Float.pow (float_of_int i) theta)
              done;
              c.zc_n <- n;
              c.zc_sum <- !s;
              !s
            end
            else
              (* smaller than the cached prefix: a fresh scan (prefix sums
                 are not invertible in float); still cached in [exact] *)
              zeta_uncached n theta
          in
          Hashtbl.replace c.exact n z;
          z)

let create ?(theta = 0.99) ~n rng =
  let zetan = zeta n theta in
  let zeta2 = zeta 2 theta in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
    /. (1.0 -. (zeta2 /. zetan))
  in
  { n; theta; alpha; zetan; eta; rng }

let next t =
  let u = Random.State.float t.rng 1.0 in
  let uz = u *. t.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. Float.pow 0.5 t.theta then 1
  else
    let v =
      float_of_int t.n
      *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha
    in
    min (t.n - 1) (int_of_float v)
