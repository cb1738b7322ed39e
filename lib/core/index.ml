type dentry_loc = { page : int; slot : int }

(* [Int.hash] is [Hashtbl.hash]: these tables fold in the polymorphic
   tables' order, which page numbers depend on (see index.mli). *)
module Itbl = Hashtbl.Make (Int)

type dir_index = {
  names : (string, int * dentry_loc) Hashtbl.t;
  mutable pages : int list;
}

(* A file's offset -> page table is made at its first page. *)
type file_map = No_pages | Pages of int Itbl.t

type t = {
  dirs : dir_index Itbl.t;
  files : file_map Itbl.t; (* ino -> offset -> page *)
  slots : int Itbl.t; (* dir page -> mask of used slots; absent = none *)
  versions : int Itbl.t; (* ino -> extent-map version *)
  deaths : int Itbl.t; (* ino -> #times removed as a file *)
  generation : int Atomic.t; (* bumped by every change [lookup]/[is_dir] see *)
  lock : Mutex.t; (* guards the tables; see the wrappers below *)
}

(* The top-level tables start small (every crash view's mount makes
   an index); only [footprint_bytes] folds them, into a sum, so their
   sizes decide no order. *)
let create () =
  {
    dirs = Itbl.create 16;
    files = Itbl.create 16;
    slots = Itbl.create 16;
    versions = Itbl.create 16;
    deaths = Itbl.create 16;
    generation = Atomic.make 0;
    lock = Mutex.create ();
  }

let per_page = Layout.Geometry.dentries_per_page
let full_mask = (1 lsl per_page) - 1
let () = assert (per_page < Sys.int_size)

let slot_mask t page =
  match Itbl.find_opt t.slots page with Some m -> m | None -> 0

let slot_add t page slot =
  Itbl.replace t.slots page (slot_mask t page lor (1 lsl slot))

let slot_remove t page slot =
  match Itbl.find_opt t.slots page with
  | None -> ()
  | Some m ->
      let m = m land lnot (1 lsl slot) in
      if m = 0 then Itbl.remove t.slots page else Itbl.replace t.slots page m

let dir_exn t ino =
  match Itbl.find_opt t.dirs ino with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Index: %d is not an indexed dir" ino)

(* Only [add_dir], [insert_dentry], [remove_dentry] and [remove_dir]
   change what [lookup] or [is_dir] answer: each bumps the generation
   after its change, inside its wrapper's critical section. *)
let bump t = Atomic.incr t.generation

let add_dir t ino =
  if not (Itbl.mem t.dirs ino) then begin
    Itbl.add t.dirs ino { names = Hashtbl.create 8; pages = [] };
    bump t
  end

let add_dir_page t ~dir page =
  let d = dir_exn t dir in
  if not (List.mem page d.pages) then d.pages <- page :: d.pages

let remove_dir_page t ~dir page =
  let d = dir_exn t dir in
  d.pages <- List.filter (fun p -> p <> page) d.pages

let dir_pages t ~dir = (dir_exn t dir).pages

let insert_dentry t ~dir name ~ino loc =
  Hashtbl.replace (dir_exn t dir).names name (ino, loc);
  slot_add t loc.page loc.slot;
  bump t

let remove_dentry t ~dir name =
  let d = dir_exn t dir in
  match Hashtbl.find_opt d.names name with
  | Some (_, loc) ->
      slot_remove t loc.page loc.slot;
      Hashtbl.remove d.names name;
      bump t
  | None -> ()

let lookup t ~dir name =
  match Itbl.find_opt t.dirs dir with
  | None -> None
  | Some d -> Hashtbl.find_opt d.names name

let dentries t ~dir =
  Hashtbl.fold (fun name (ino, _) acc -> (name, ino) :: acc)
    (dir_exn t dir).names []

let dentry_count t ~dir = Hashtbl.length (dir_exn t dir).names
let is_dir t ino = Itbl.mem t.dirs ino
let generation t = Atomic.get t.generation

let mark_slot_used t loc = slot_add t loc.page loc.slot
let mark_slot_free t loc = slot_remove t loc.page loc.slot

let rec lowest_clear mask slot =
  if mask land (1 lsl slot) = 0 then slot else lowest_clear mask (slot + 1)

(* The lowest free slot of the first page in [pages] with one. *)
let rec first_free t = function
  | [] -> None
  | page :: rest ->
      let used = slot_mask t page in
      if used = full_mask then first_free t rest
      else Some { page; slot = lowest_clear used 0 }

let free_slot t ~dir = first_free t (dir_exn t dir).pages

let remove_dir t ino =
  if Itbl.mem t.dirs ino then begin
    Itbl.remove t.dirs ino;
    bump t
  end

let file_exn t ino =
  match Itbl.find_opt t.files ino with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Index: %d is not an indexed file" ino)

let add_file t ino =
  if not (Itbl.mem t.files ino) then Itbl.add t.files ino No_pages

(* Extent-map version: bumped on every change to a file's offset->page
   map (and on the file's removal), so open handles can validate a
   cached extent snapshot with one volatile read instead of a per-page
   query. Versions start at 0 for never-indexed inos and never reset —
   inode numbers are reused, so a handle holding a version from a dead
   file's lifetime must still see a mismatch against the new file. *)
let file_version t ino =
  match Itbl.find_opt t.versions ino with Some v -> v | None -> 0

let bump_version t ino = Itbl.replace t.versions ino (1 + file_version t ino)

let add_file_page t ~ino ~offset page =
  (match file_exn t ino with
  | Pages f -> Itbl.replace f offset page
  | No_pages ->
      let f = Itbl.create 8 in
      Itbl.replace f offset page;
      Itbl.replace t.files ino (Pages f));
  bump_version t ino

let remove_file_page t ~ino ~offset =
  (match file_exn t ino with Pages f -> Itbl.remove f offset | No_pages -> ());
  bump_version t ino

let file_page t ~ino ~offset =
  match Itbl.find_opt t.files ino with
  | Some (Pages f) -> Itbl.find_opt f offset
  | Some No_pages | None -> None

let file_pages t ~ino =
  match Itbl.find_opt t.files ino with
  | Some (Pages f) -> Itbl.fold (fun off page acc -> (off, page) :: acc) f []
  | Some No_pages | None -> []

(* Death counter: how many times [ino] has stopped being a file. Open
   handles capture it at open time; inode numbers are reused, so
   [is_file] alone cannot tell "the file I opened" from "a new file on
   the same number" — a changed death count can. *)
let file_deaths t ino =
  match Itbl.find_opt t.deaths ino with Some n -> n | None -> 0

let remove_file t ino =
  Itbl.remove t.files ino;
  Itbl.replace t.deaths ino (1 + file_deaths t ino);
  bump_version t ino

let is_file t ino = Itbl.mem t.files ino

let footprint_bytes t =
  let file_bytes =
    Itbl.fold
      (fun _ f acc ->
        acc + 8 + (24 * match f with Pages f -> Itbl.length f | No_pages -> 0))
      t.files 0
  in
  let dir_bytes =
    Itbl.fold
      (fun _ d acc ->
        acc + 8
        + (24 * List.length d.pages)
        + (250 * Hashtbl.length d.names))
      t.dirs 0
  in
  file_bytes + dir_bytes


(* {1 Concurrency}

   The index is shared by every domain executing ops under the [Serve]
   engine: the per-inode shard locks serialize ops that touch the same
   directory or file, but ops on disjoint inodes still land concurrent
   [Hashtbl] calls on the shared [dirs]/[files]/[slots] tables, which is
   unsafe (resizes race). Each public entry point therefore takes one
   short critical section on the instance's own lock; an uncontended
   lock/unlock is a few tens of nanoseconds, invisible next to the
   simulated-device work around it, and independent mounts (e.g.
   parallel fuzzer shards) never contend. The wrappers shadow the
   lock-free bodies above, which keep calling each other directly (no
   nesting, so a plain [Mutex] is enough). *)

let locked t f = Mutex.protect t.lock f

module Load = struct
  let add_dir = add_dir
  let add_dir_page = add_dir_page
  let add_file = add_file
  let add_file_page = add_file_page
  let insert_dentry = insert_dentry
end

let load = locked

let add_dir t ino = locked t (fun () -> add_dir t ino)
let add_dir_page t ~dir page = locked t (fun () -> add_dir_page t ~dir page)
let remove_dir_page t ~dir page = locked t (fun () -> remove_dir_page t ~dir page)
let dir_pages t ~dir = locked t (fun () -> dir_pages t ~dir)
let insert_dentry t ~dir name ~ino loc = locked t (fun () -> insert_dentry t ~dir name ~ino loc)
let remove_dentry t ~dir name = locked t (fun () -> remove_dentry t ~dir name)
let lookup t ~dir name = locked t (fun () -> lookup t ~dir name)
let dentries t ~dir = locked t (fun () -> dentries t ~dir)
let dentry_count t ~dir = locked t (fun () -> dentry_count t ~dir)
let is_dir t ino = locked t (fun () -> is_dir t ino)
let mark_slot_used t loc = locked t (fun () -> mark_slot_used t loc)
let mark_slot_free t loc = locked t (fun () -> mark_slot_free t loc)
let free_slot t ~dir = locked t (fun () -> free_slot t ~dir)
let remove_dir t ino = locked t (fun () -> remove_dir t ino)
let add_file t ino = locked t (fun () -> add_file t ino)
let add_file_page t ~ino ~offset page = locked t (fun () -> add_file_page t ~ino ~offset page)
let remove_file_page t ~ino ~offset = locked t (fun () -> remove_file_page t ~ino ~offset)
let file_page t ~ino ~offset = locked t (fun () -> file_page t ~ino ~offset)
let file_pages t ~ino = locked t (fun () -> file_pages t ~ino)
let remove_file t ino = locked t (fun () -> remove_file t ino)
let is_file t ino = locked t (fun () -> is_file t ino)
let file_version t ino = locked t (fun () -> file_version t ino)
let file_deaths t ino = locked t (fun () -> file_deaths t ino)
let footprint_bytes t = locked t (fun () -> footprint_bytes t)
