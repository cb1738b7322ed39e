(* Delta-debugging shrinker: given a failing sequence and a [fails]
   predicate (re-running the executor), minimize to a smallest still-
   failing reproducer. Deterministic executor + pure passes = the same
   input always shrinks to the same output. *)

module W = Crashcheck.Workload

let remove_at i l = List.filteri (fun j _ -> j <> i) l

(* Payload simplifications tried per op, most aggressive first. Data is
   length-preserving-irrelevant to the oracle (contents are not compared),
   so a 1-byte write is the canonical minimum. *)
let candidates = function
  | W.Write (p, off, d) ->
      (if String.length d > 1 then [ W.Write (p, off, "z") ] else [])
      @ if off > 0 then [ W.Write (p, 0, "z") ] else []
  | W.Write_atomic (p, off, d) ->
      (if String.length d > 1 then [ W.Write_atomic (p, off, "z") ] else [])
      @ if off > 0 then [ W.Write_atomic (p, 0, "z") ] else []
  | W.Buggy_write (p, d) when String.length d > 1 -> [ W.Buggy_write (p, "z") ]
  | W.Truncate (p, n) when n > 1 -> [ W.Truncate (p, 1) ]
  | _ -> []

(* Minimize [ops] under [fails]. [max_runs] bounds predicate evaluations;
   when exhausted the current (already-failing) candidate is returned.
   Returns the minimized sequence and the number of runs used. *)
let minimize ~fails ?(max_runs = 400) ops =
  let runs = ref 0 in
  let fails l =
    if !runs >= max_runs then false
    else begin
      incr runs;
      fails l
    end
  in
  (* pass 1: drop whole ops, last-to-first, to a fixpoint *)
  let drop_one l =
    let n = List.length l in
    let rec go i =
      if i < 0 then None
      else
        let cand = remove_at i l in
        if cand <> [] && fails cand then Some cand else go (i - 1)
    in
    go (n - 1)
  in
  let rec fix l = match drop_one l with Some l' -> fix l' | None -> l in
  let ops = fix ops in
  (* pass 2: simplify surviving ops' payloads in place *)
  let arr = Array.of_list ops in
  Array.iteri
    (fun i op ->
      List.iter
        (fun rep ->
          if arr.(i) <> rep then begin
            let save = arr.(i) in
            arr.(i) <- rep;
            if not (fails (Array.to_list arr)) then arr.(i) <- save
          end)
        (candidates op))
    arr;
  (* pass 3: payload changes can unlock further drops *)
  let ops = fix (Array.to_list arr) in
  (ops, !runs)

(* Turn a failing run into a reproducer: ops after the crash point cannot
   contribute, so start from the failing prefix if it still fails on its
   own, minimize, then re-run the result to pin its crash point. Returns
   (reproducer, detail, crash point, executor runs used). *)
let reproduce ~(exec : W.op list -> Exec.outcome) ops (cp, detail) =
  let runs = ref 0 in
  let fails l =
    incr runs;
    (exec l).Exec.o_fail <> None
  in
  let prefix = List.filteri (fun i _ -> i <= cp.Exec.cp_op) ops in
  let start = if fails prefix then prefix else ops in
  let m, _ = minimize ~fails start in
  match (exec m).Exec.o_fail with
  | Some (mcp, mdet) -> (m, mdet, mcp, !runs + 1)
  | None -> (start, detail, cp, !runs + 1)
