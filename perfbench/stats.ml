(* Summary statistics used by every workload. *)

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p]% of the samples at or below it. *)
let rank n p = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted.(rank n p - 1)

(* Samples strictly beyond the [p]-th percentile's rank. *)
let beyond n p = n - rank n p

(* The tail percentile to report: the highest of the standard ones, up
   to [cap], that still has at least 10 samples beyond it. A percentile
   with fewer samples behind it is a single outlier, not a tail. [None]
   when even the median lacks them. *)
let tail_percentile ?(cap = 99.) n =
  List.find_opt
    (fun p -> p <= cap && beyond n p >= 10)
    [ 99.9; 99.; 95.; 90.; 75.; 50. ]

let median_f l =
  match List.sort compare l with
  | [] -> invalid_arg "Stats.median_f: empty"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a list of floats. *)
let percentile_f l p =
  let a = Array.of_list l in
  if a = [||] then invalid_arg "Stats.percentile_f: empty";
  Array.sort compare a;
  a.(rank (Array.length a) p - 1)

(* The shared host's speed changes in spells of seconds to minutes. The
   summaries below therefore take work that is repeated identically and
   report its quiet repetitions: for each stretch of the work, a low
   percentile of its time over the repetitions. A change to the program
   moves every repetition alike, so it moves these figures in full; a
   spell of contention moves them only if it covers a stretch in nearly
   every repetition. *)

(* The [p]-th percentile of each repetition's samples, and the
   [over]-th percentile of those over the repetitions: with [over] low,
   the [p]-th percentile of the run's quiet repetitions. *)
let repeated_percentile ?(over = 50.) reps p =
  percentile_f
    (List.map
       (fun a ->
         let s = Array.copy a in
         Array.sort compare s;
         float_of_int (percentile s p))
       reps)
    over

(* Work that is repeated identically: [reps] holds, for each
   repetition, the ns of every unit in order. Each repetition is cut
   into segments of [seg] units; [repeated_ns] is the sum over segments
   of each one's [q]-th percentile time over the repetitions. *)
let repeated_ns ?(q = 25.) ~seg reps =
  match reps with
  | [] -> invalid_arg "Stats.repeated_rate: no repetitions"
  | r0 :: _ ->
      let n = Array.length r0 in
      if List.exists (fun r -> Array.length r <> n) reps then
        invalid_arg "Stats.repeated_rate: repetitions differ in length";
      let total = ref 0. in
      let lo = ref 0 in
      while !lo < n do
        let len = min seg (n - !lo) in
        let time r = float_of_int (Array.fold_left ( + ) 0 (Array.sub r !lo len)) in
        total := !total +. percentile_f (List.map time reps) q;
        lo := !lo + len
      done;
      !total

(* Units per second of repeated work, at [repeated_ns]. *)
let repeated_rate ?q ~seg reps =
  let ns = repeated_ns ?q ~seg reps in
  float_of_int (Array.length (List.hd reps)) /. (ns /. 1e9)

(* Geometric mean of positive values: the summary of per-op costs that
   no single expensive op dominates. *)
let geomean l =
  if l = [] || List.exists (fun x -> not (x > 0.)) l then
    invalid_arg "Stats.geomean: needs positive values";
  exp (List.fold_left (fun a x -> a +. log x) 0. l /. float_of_int (List.length l))

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
