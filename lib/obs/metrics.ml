(* Metrics registry: named counters and log2-bucketed latency histograms.

   [merge] is pure, associative and commutative, so per-shard registries
   from the fuzz sweep ([Fuzzer.sweep]) combine into the same totals
   regardless of how its domains carved up the sequences. *)

let nbuckets = 64

type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  h_buckets : int array; (* bucket i counts values v with 2^(i-1) < v <= 2^i-ish *)
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 16; hists = Hashtbl.create 16 }

let incr t name n =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace t.counters name (ref n)

(* index = number of significant bits of [v], i.e. bucket b holds values in
   [2^(b-1), 2^b).  Bucket 0 holds v <= 0 (shouldn't happen for latencies). *)
let bucket_of v =
  let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
  if v <= 0 then 0 else min (nbuckets - 1) (bits v 0)

let fresh_hist () =
  { h_count = 0; h_sum = 0; h_min = max_int; h_max = min_int;
    h_buckets = Array.make nbuckets 0 }

let observe t name v =
  let h =
    match Hashtbl.find_opt t.hists name with
    | Some h -> h
    | None ->
        let h = fresh_hist () in
        Hashtbl.replace t.hists name h;
        h
  in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let hist t name = Hashtbl.find_opt t.hists name

let copy_hist h =
  { h with h_buckets = Array.copy h.h_buckets }

(* Pure merge: neither argument is mutated. *)
let merge a b =
  let t = create () in
  let add_counters src =
    Hashtbl.iter (fun k r -> incr t k !r) src.counters
  in
  add_counters a;
  add_counters b;
  let add_hists src =
    Hashtbl.iter
      (fun k h ->
        match Hashtbl.find_opt t.hists k with
        | None -> Hashtbl.replace t.hists k (copy_hist h)
        | Some acc ->
            acc.h_count <- acc.h_count + h.h_count;
            acc.h_sum <- acc.h_sum + h.h_sum;
            acc.h_min <- min acc.h_min h.h_min;
            acc.h_max <- max acc.h_max h.h_max;
            Array.iteri
              (fun i n -> acc.h_buckets.(i) <- acc.h_buckets.(i) + n)
              h.h_buckets)
      src.hists
  in
  add_hists a;
  add_hists b;
  t

(* Deterministic snapshots (sorted by name) for printing and comparison. *)
let counters_list t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort compare

let hists_list t =
  Hashtbl.fold
    (fun k h acc ->
      (k, (h.h_count, h.h_sum, h.h_min, h.h_max, Array.to_list h.h_buckets))
      :: acc)
    t.hists []
  |> List.sort compare

let equal a b = counters_list a = counters_list b && hists_list a = hists_list b

let quantile h q =
  (* upper edge of the bucket holding the q-quantile observation *)
  if h.h_count = 0 then 0
  else begin
    let target = int_of_float (ceil (q *. float_of_int h.h_count)) in
    let target = max 1 (min h.h_count target) in
    let seen = ref 0 and res = ref h.h_max in
    (try
       Array.iteri
         (fun i n ->
           seen := !seen + n;
           if !seen >= target then begin
             res := (1 lsl i) - 1;
             raise Exit
           end)
         h.h_buckets
     with Exit -> ());
    min !res h.h_max
  end

(* {2 Derived datapath gauges}

   The file-system layer records one [op.<name>] latency observation per
   VFS call and, alongside it, [fences.<name>] and [bytes.<name>]
   observations carrying that call's sfence count and stored-byte count.
   The gauges below are pure ratios over those series — nothing extra is
   recorded, so shard merges keep them exact. *)

let hist_totals t name =
  match Hashtbl.find_opt t.hists name with
  | None -> (0, 0)
  | Some h -> (h.h_count, h.h_sum)

(* Mean sfences issued per <op> call, [None] if the op never ran. *)
let fences_per_op t op =
  let count, sum = hist_totals t ("fences." ^ op) in
  if count = 0 then None else Some (float_of_int sum /. float_of_int count)

(* Mean bytes stored per sfence within <op> calls, [None] if the op
   never fenced (e.g. reads). *)
let bytes_per_fence t op =
  let _, fences = hist_totals t ("fences." ^ op) in
  let _, bytes = hist_totals t ("bytes." ^ op) in
  if fences = 0 then None else Some (float_of_int bytes /. float_of_int fences)

(* Every op kind with a recorded [fences.*] series, sorted. *)
let datapath_ops t =
  Hashtbl.fold
    (fun k _ acc ->
      match String.index_opt k '.' with
      | Some i when String.sub k 0 i = "fences" ->
          String.sub k (i + 1) (String.length k - i - 1) :: acc
      | _ -> acc)
    t.hists []
  |> List.sort compare

let pp_datapath ppf t =
  List.iter
    (fun op ->
      let fpo = Option.value ~default:0. (fences_per_op t op) in
      let bpf = Option.value ~default:0. (bytes_per_fence t op) in
      Format.fprintf ppf "datapath %-24s fences/op=%.3f bytes/fence=%.1f@." op
        fpo bpf)
    (datapath_ops t)

let pp ppf t =
  List.iter
    (fun (k, v) -> Format.fprintf ppf "counter %-32s %d@." k v)
    (counters_list t);
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.hists []
  |> List.sort compare
  |> List.iter (fun (k, h) ->
         Format.fprintf ppf
           "hist    %-32s count=%d mean=%dns min=%d max=%d p50<=%d p99<=%d@." k
           h.h_count
           (if h.h_count = 0 then 0 else h.h_sum / h.h_count)
           (if h.h_count = 0 then 0 else h.h_min)
           (if h.h_count = 0 then 0 else h.h_max)
           (quantile h 0.5) (quantile h 0.99))
