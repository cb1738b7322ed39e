exception Stale_handle of string

(* One cell per object, shared by every handle on it: the current
   generation and the fence epoch of the object's last flush (0 = never
   flushed; epochs start at 1). *)
type cell = { mutable cur : int; mutable flush_epoch : int }

module Itbl = Hashtbl.Make (Int)

type registry = {
  cells : cell Itbl.t; (* minted ids only; [fresh] cells never enter it *)
  epoch : int Atomic.t;
  mutable obs : Obs.Metrics.t option;
  lock : Mutex.t; (* guards [cells]; taken by [mint] and [tracked] only *)
}

type t = { oid : int; gen : int; cell : cell }

let create_registry () =
  {
    cells = Itbl.create 16; (* only counted, never folded *)
    epoch = Atomic.make 1;
    obs = None;
    lock = Mutex.create ();
  }

let set_metrics reg m = reg.obs <- m

let tick reg name =
  match reg.obs with None -> () | Some m -> Obs.Metrics.incr m name 1

(* Advance [cell] and return the token of its new generation. *)
let next reg oid cell =
  tick reg "token.mints";
  let g = cell.cur + 1 in
  cell.cur <- g;
  { oid; gen = g; cell }

(* The table lookup is the only step that needs the lock: the shard
   locks hand each object to one domain at a time (DESIGN.md,
   "Shared-fence soundness"), so its cell is never touched concurrently. *)
let mint reg ~id =
  Mutex.lock reg.lock;
  let cell =
    match Itbl.find_opt reg.cells id with
    | Some c -> c
    | None ->
        let c = { cur = 0; flush_epoch = 0 } in
        Itbl.add reg.cells id c;
        c
  in
  Mutex.unlock reg.lock;
  next reg id cell

let fresh reg ~id = next reg id { cur = 0; flush_epoch = 0 }

let tracked reg =
  Mutex.lock reg.lock;
  let n = Itbl.length reg.cells in
  Mutex.unlock reg.lock;
  n

let validate t =
  if t.cell.cur <> t.gen then
    raise
      (Stale_handle
         (Printf.sprintf
            "object %d: handle generation %d is stale (current %d)" t.oid
            t.gen t.cell.cur))

let use reg t =
  tick reg "token.uses";
  validate t;
  next reg t.oid t.cell

let check _reg t = validate t

let release reg t =
  tick reg "token.releases";
  validate t;
  ignore (next reg t.oid t.cell)

let id t = t.oid

let epoch reg = Atomic.get reg.epoch

let bump_epoch reg =
  tick reg "token.fence_epochs";
  Atomic.incr reg.epoch

let flushed_at reg t =
  let t' = use reg t in
  t.cell.flush_epoch <- Atomic.get reg.epoch;
  t'

let assert_fenced reg t =
  validate t;
  let fe = t.cell.flush_epoch and cur = Atomic.get reg.epoch in
  if fe = 0 then
    raise
      (Stale_handle
         (Printf.sprintf "object %d: fenced without a recorded flush" t.oid));
  if fe >= cur then
    raise
      (Stale_handle
         (Printf.sprintf
            "object %d: no fence since flush (flush epoch %d, current %d)"
            t.oid fe cur));
  use reg t
