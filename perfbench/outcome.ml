(* Failure taxonomy. Every operation a workload issues ends in one of:
   - ok: it succeeded;
   - semantic: it returned an errno the workload's mix asks for on
     purpose (ENOENT on a name another request removed, EEXIST on a
     name already taken, EBADF on a closed handle, ...);
   - failed: it returned EIO or ENOSPC (the volume broke or ran out),
     or it raised. A raise also ends the run: main.ml catches it and
     reports instead of dying. *)

let is_failure = function Vfs.Errno.EIO | Vfs.Errno.ENOSPC -> true | _ -> false

type t = {
  mutable ok : int;
  mutable semantic : int;
  mutable failed : int;
  reasons : (string, int) Hashtbl.t;  (** failed ops by errno or exception *)
}

let create () = { ok = 0; semantic = 0; failed = 0; reasons = Hashtbl.create 4 }
let attempted t = t.ok + t.semantic + t.failed

let add_reason t reason n =
  Hashtbl.replace t.reasons reason
    (n + Option.value ~default:0 (Hashtbl.find_opt t.reasons reason))

let fail t reason =
  t.failed <- t.failed + 1;
  add_reason t reason 1

let record t = function
  | Ok _ -> t.ok <- t.ok + 1
  | Error e when is_failure e -> fail t (Vfs.Errno.to_string e)
  | Error _ -> t.semantic <- t.semantic + 1

let raised t exn = fail t ("raised " ^ Printexc.to_string exn)

let reasons t =
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.reasons [])

(* What one workload run hands back to main.ml: metric values by
   name, the operation tally, and every failed correctness check. *)
type report = {
  metrics : (string * float) list;
  outcome : t;
  errors : string list;
}
