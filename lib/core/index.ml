type dentry_loc = { page : int; slot : int }

type dir_index = {
  names : (string, int * dentry_loc) Hashtbl.t;
  mutable pages : int list;
}

type t = {
  dirs : (int, dir_index) Hashtbl.t;
  files : (int, (int, int) Hashtbl.t) Hashtbl.t; (* ino -> offset -> page *)
  used_slots : (int * int, unit) Hashtbl.t; (* (page, slot) *)
  page_used : (int, int) Hashtbl.t; (* page -> #used slots, for free_slot *)
  versions : (int, int) Hashtbl.t; (* ino -> extent-map version *)
  deaths : (int, int) Hashtbl.t; (* ino -> #times removed as a file *)
  lock : Mutex.t; (* guards the tables; see the wrappers below *)
}

let create () =
  {
    dirs = Hashtbl.create 64;
    files = Hashtbl.create 64;
    used_slots = Hashtbl.create 256;
    page_used = Hashtbl.create 256;
    versions = Hashtbl.create 64;
    deaths = Hashtbl.create 64;
    lock = Mutex.create ();
  }

(* [used_slots] maintenance goes through these so the per-page counters
   stay in sync: [free_slot] uses them to skip full pages in O(1)
   instead of probing every slot. *)
let slot_add t page slot =
  if not (Hashtbl.mem t.used_slots (page, slot)) then begin
    Hashtbl.replace t.used_slots (page, slot) ();
    Hashtbl.replace t.page_used page
      (1 + (match Hashtbl.find_opt t.page_used page with Some n -> n | None -> 0))
  end

let slot_remove t page slot =
  if Hashtbl.mem t.used_slots (page, slot) then begin
    Hashtbl.remove t.used_slots (page, slot);
    match Hashtbl.find_opt t.page_used page with
    | Some 1 -> Hashtbl.remove t.page_used page
    | Some n -> Hashtbl.replace t.page_used page (n - 1)
    | None -> ()
  end

let dir_exn t ino =
  match Hashtbl.find_opt t.dirs ino with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Index: %d is not an indexed dir" ino)

let add_dir t ino =
  if not (Hashtbl.mem t.dirs ino) then
    Hashtbl.replace t.dirs ino { names = Hashtbl.create 8; pages = [] }

let add_dir_page t ~dir page =
  let d = dir_exn t dir in
  if not (List.mem page d.pages) then d.pages <- page :: d.pages

let remove_dir_page t ~dir page =
  let d = dir_exn t dir in
  d.pages <- List.filter (fun p -> p <> page) d.pages

let dir_pages t ~dir = (dir_exn t dir).pages

let insert_dentry t ~dir name ~ino loc =
  Hashtbl.replace (dir_exn t dir).names name (ino, loc);
  slot_add t loc.page loc.slot

let remove_dentry t ~dir name =
  let d = dir_exn t dir in
  (match Hashtbl.find_opt d.names name with
  | Some (_, loc) -> slot_remove t loc.page loc.slot
  | None -> ());
  Hashtbl.remove d.names name

let lookup t ~dir name =
  match Hashtbl.find_opt t.dirs dir with
  | None -> None
  | Some d -> Hashtbl.find_opt d.names name

let dentries t ~dir =
  Hashtbl.fold (fun name (ino, _) acc -> (name, ino) :: acc)
    (dir_exn t dir).names []

let dentry_count t ~dir = Hashtbl.length (dir_exn t dir).names
let is_dir t ino = Hashtbl.mem t.dirs ino

let mark_slot_used t loc = slot_add t loc.page loc.slot
let mark_slot_free t loc = slot_remove t loc.page loc.slot

let free_slot t ~dir =
  let d = dir_exn t dir in
  let per_page = Layout.Geometry.dentries_per_page in
  let page_full page =
    match Hashtbl.find_opt t.page_used page with
    | Some n -> n >= per_page
    | None -> false
  in
  let rec scan_pages = function
    | [] -> None
    | page :: rest when page_full page -> scan_pages rest
    | page :: rest ->
        let rec scan_slots slot =
          if slot = per_page then None
          else if not (Hashtbl.mem t.used_slots (page, slot)) then
            Some { page; slot }
          else scan_slots (slot + 1)
        in
        (match scan_slots 0 with Some loc -> Some loc | None -> scan_pages rest)
  in
  scan_pages d.pages

let remove_dir t ino = Hashtbl.remove t.dirs ino

let file_exn t ino =
  match Hashtbl.find_opt t.files ino with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Index: %d is not an indexed file" ino)

let add_file t ino =
  if not (Hashtbl.mem t.files ino) then
    Hashtbl.replace t.files ino (Hashtbl.create 8)

(* Extent-map version: bumped on every change to a file's offset->page
   map (and on the file's removal), so open handles can validate a
   cached extent snapshot with one volatile read instead of a per-page
   query. Versions start at 0 for never-indexed inos and never reset —
   inode numbers are reused, so a handle holding a version from a dead
   file's lifetime must still see a mismatch against the new file. *)
let bump_version t ino =
  Hashtbl.replace t.versions ino
    (1 + (match Hashtbl.find_opt t.versions ino with Some v -> v | None -> 0))

let file_version t ino =
  match Hashtbl.find_opt t.versions ino with Some v -> v | None -> 0

let add_file_page t ~ino ~offset page =
  Hashtbl.replace (file_exn t ino) offset page;
  bump_version t ino

let remove_file_page t ~ino ~offset =
  Hashtbl.remove (file_exn t ino) offset;
  bump_version t ino

let file_page t ~ino ~offset =
  match Hashtbl.find_opt t.files ino with
  | None -> None
  | Some f -> Hashtbl.find_opt f offset

let file_pages t ~ino =
  match Hashtbl.find_opt t.files ino with
  | None -> []
  | Some f -> Hashtbl.fold (fun off page acc -> (off, page) :: acc) f []

(* Death counter: how many times [ino] has stopped being a file. Open
   handles capture it at open time; inode numbers are reused, so
   [is_file] alone cannot tell "the file I opened" from "a new file on
   the same number" — a changed death count can. *)
let file_deaths t ino =
  match Hashtbl.find_opt t.deaths ino with Some n -> n | None -> 0

let remove_file t ino =
  Hashtbl.remove t.files ino;
  Hashtbl.replace t.deaths ino (1 + file_deaths t ino);
  bump_version t ino

let is_file t ino = Hashtbl.mem t.files ino

let footprint_bytes t =
  let file_bytes =
    Hashtbl.fold (fun _ f acc -> acc + 8 + (24 * Hashtbl.length f)) t.files 0
  in
  let dir_bytes =
    Hashtbl.fold
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
   [Hashtbl] calls on the shared [dirs]/[files]/[used_slots] tables,
   which is unsafe (resizes race). Each public entry point therefore
   takes one short critical section on the instance's own lock; an
   uncontended lock/unlock is a few tens of nanoseconds, invisible next
   to the simulated-device work around it, and independent mounts (e.g.
   parallel fuzzer shards) never contend. The wrappers shadow the
   lock-free bodies above, which keep calling each other directly (no
   nesting, so a plain [Mutex] is enough). *)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

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
