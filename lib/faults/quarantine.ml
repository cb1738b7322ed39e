(* Registry of objects whose metadata failed a media check. A mount
   that finds corruption quarantines the object instead of aborting:
   the volume comes up degraded, reads of quarantined objects return
   EIO, and nothing destructive (recovery, GC) runs near them. *)

type obj = Ino of int | Page of int | Superblock

type entry = { obj : obj; reason : string }

type t = { tbl : (obj, entry) Hashtbl.t; mutable order : obj list }

let create () = { tbl = Hashtbl.create 16; order = [] }

let mem t obj = Hashtbl.mem t.tbl obj
let count t = Hashtbl.length t.tbl
let is_empty t = count t = 0

(* asked on every data op: with nothing quarantined, no key is built *)
let mem_ino t ino = (not (is_empty t)) && mem t (Ino ino)
let mem_page t pg = (not (is_empty t)) && mem t (Page pg)

let add t ?(reason = "checksum mismatch") obj =
  if not (mem t obj) then begin
    Hashtbl.replace t.tbl obj { obj; reason };
    t.order <- obj :: t.order
  end

let to_list t =
  List.rev_map (fun obj -> Hashtbl.find t.tbl obj) t.order

let clear t =
  Hashtbl.reset t.tbl;
  t.order <- []

let pp_obj ppf = function
  | Ino i -> Fmt.pf ppf "ino:%d" i
  | Page p -> Fmt.pf ppf "page:%d" p
  | Superblock -> Fmt.string ppf "superblock"

let pp ppf t =
  if is_empty t then Fmt.string ppf "(empty)"
  else
    Fmt.(list ~sep:comma (fun ppf e -> Fmt.pf ppf "%a (%s)" pp_obj e.obj e.reason))
      ppf (to_list t)
