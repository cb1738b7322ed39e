(* Trivial in-memory reference file system: the differential oracle's
   "obviously correct" side. Immutable (persistent maps), so the executor
   snapshots states for free and rolls back refused operations trivially.

   The errno behaviour deliberately mirrors [Squirrelfs.Fs_impl] check for
   check, in the same precedence order — any observable divergence from
   SquirrelFS (other than resource exhaustion, which this model does not
   have) is a bug in one of the two. *)

module Errno = Vfs.Errno
module SMap = Map.Make (String)
module IMap = Map.Make (Int)

type file = { size : int; data : string }  (** [String.length data = size] *)

type obj =
  | File of file
  | Dir of { entries : int SMap.t }
  | Symlink of { target : string }

type snap = { s_objs : obj IMap.t; s_table : (string * int) list }
(** A pinned snapshot: the whole tree at capture plus the snapshot
    {e table} as captured (name, id) — rolling back restores both, which
    is how a snapshot survives its own rollback and how entries created
    after the capture vanish under it. *)

type snap_entry = { e_id : int; e_pin : snap option }
(** One live snapshot-table entry. [e_pin = None] models a table entry
    whose in-DRAM pin is gone (a snapshot deleted and then resurrected
    by rolling back past its deletion): the entry lists, but using it
    yields [EIO] — mirroring [Snap]'s volatile retained views. *)

type t = {
  objs : obj IMap.t;
  tmps : int SMap.t;
  ofds : int SMap.t;
  next : int;
  snaps : snap_entry SMap.t;
  snap_next : int;
}
(** [tmps]: volatile O_TMPFILE tag → object id for anonymous files
    awaiting [linkat]. These objects live in [objs] but are reachable
    from no directory; [capture] walks from the root, so they are
    invisible to state comparison — exactly matching SquirrelFS, where a
    crash drops the volatile tag registry and recovery reclaims the
    orphaned inode.

    [ofds]: volatile open-handle tag → object id. Object ids are never
    reused, so a handle is stale exactly when its id has left [objs] —
    the model-side mirror of the implementations' death/free-generation
    counters. Stale handles stay bound (tag busy) until [close_file].

    [snaps]: the snapshot table, name → entry; [snap_next] mirrors the
    monotone on-volume id counter (never reused, even across rollback).
    Snapshots are invisible to [capture] (tree-only), matching the
    implementation where the table lives in the superblock page. *)

let root = 0

let empty =
  {
    objs = IMap.singleton root (Dir { entries = SMap.empty });
    tmps = SMap.empty;
    ofds = SMap.empty;
    next = 1;
    snaps = SMap.empty;
    snap_next = 1;
  }
let ( let* ) = Result.bind
let obj t id = IMap.find id t.objs

let entries_of t id =
  match obj t id with Dir d -> d.entries | _ -> assert false

let is_dir t id = match obj t id with Dir _ -> true | _ -> false

(* Number of dentries referencing [id]: the link count of a file. *)
let refs t id =
  IMap.fold
    (fun _ o acc ->
      match o with
      | Dir d ->
          SMap.fold (fun _ tid acc -> if tid = id then acc + 1 else acc) d.entries acc
      | File _ | Symlink _ -> acc)
    t.objs 0

let rec walk_dir t dir = function
  | [] -> Ok dir
  | c :: rest -> (
      match SMap.find_opt c (entries_of t dir) with
      | None -> Error Errno.ENOENT
      | Some id -> if is_dir t id then walk_dir t id rest else Error Errno.ENOTDIR)

let resolve_any t path =
  let* parts = Vfs.Path.split path in
  match List.rev parts with
  | [] -> Ok root
  | last :: rev_parents -> (
      let* dir = walk_dir t root (List.rev rev_parents) in
      match SMap.find_opt last (entries_of t dir) with
      | None -> Error Errno.ENOENT
      | Some id -> Ok id)

let resolve_parent t path =
  let* parents, name = Vfs.Path.parent_base path in
  let* dir = walk_dir t root parents in
  Ok (dir, name)

let parent_chain t path =
  let* parents, _ = Vfs.Path.parent_base path in
  let rec go dir acc = function
    | [] -> Ok (List.rev (dir :: acc))
    | c :: rest -> (
        match SMap.find_opt c (entries_of t dir) with
        | None -> Error Errno.ENOENT
        | Some id -> if is_dir t id then go id (dir :: acc) rest else Error Errno.ENOTDIR)
  in
  go root [] parents

(* Same checks as [Squirrelfs.Ops.check_name], same order. *)
let check_name name =
  if String.length name > Layout.Geometry.name_max then Error Errno.ENAMETOOLONG
  else if not (Vfs.Path.valid_name name) then Error Errno.EINVAL
  else Ok ()

let set_entries t dir entries = { t with objs = IMap.add dir (Dir { entries }) t.objs }

let add_entry t dir name id = set_entries t dir (SMap.add name id (entries_of t dir))

(* Drop [id] from the object table once no dentry references it. *)
let gc t id = if id <> root && refs t id = 0 then { t with objs = IMap.remove id t.objs } else t

let new_obj t o =
  let id = t.next in
  (id, { t with objs = IMap.add id o t.objs; next = id + 1 })

let create_kind t path o =
  let* dir, name = resolve_parent t path in
  match SMap.find_opt name (entries_of t dir) with
  | Some _ -> Error Errno.EEXIST
  | None ->
      let* () = check_name name in
      let id, t = new_obj t o in
      Ok (add_entry t dir name id)

let create t path = create_kind t path (File { size = 0; data = "" })
let mkdir t path = create_kind t path (Dir { entries = SMap.empty })

let symlink t target path =
  let* dir, name = resolve_parent t path in
  match SMap.find_opt name (entries_of t dir) with
  | Some _ -> Error Errno.EEXIST
  | None ->
      let* () = check_name name in
      if String.length target > Layout.Geometry.page_size then Error Errno.ENAMETOOLONG
      else
        let id, t = new_obj t (Symlink { target }) in
        Ok (add_entry t dir name id)

let link t existing path =
  let* target = resolve_any t existing in
  if is_dir t target then Error Errno.EPERM
  else
    let* dir, name = resolve_parent t path in
    match SMap.find_opt name (entries_of t dir) with
    | Some _ -> Error Errno.EEXIST
    | None ->
        let* () = check_name name in
        Ok (add_entry t dir name target)

let unlink t path =
  let* dir, name = resolve_parent t path in
  match SMap.find_opt name (entries_of t dir) with
  | None -> Error Errno.ENOENT
  | Some id ->
      if is_dir t id then Error Errno.EISDIR
      else
        let t = set_entries t dir (SMap.remove name (entries_of t dir)) in
        Ok (gc t id)

let rmdir t path =
  let* parts = Vfs.Path.split path in
  if parts = [] then Error Errno.EINVAL
  else
    let* parent, name = resolve_parent t path in
    match SMap.find_opt name (entries_of t parent) with
    | None -> Error Errno.ENOENT
    | Some id ->
        if not (is_dir t id) then Error Errno.ENOTDIR
        else if not (SMap.is_empty (entries_of t id)) then Error Errno.ENOTEMPTY
        else
          let t = set_entries t parent (SMap.remove name (entries_of t parent)) in
          Ok { t with objs = IMap.remove id t.objs }

let rename t src dst =
  let* src_dir, src_name = resolve_parent t src in
  match SMap.find_opt src_name (entries_of t src_dir) with
  | None -> Error Errno.ENOENT
  | Some sid -> (
      let* dst_dir, dst_name = resolve_parent t dst in
      let src_is_dir = is_dir t sid in
      let* () =
        if not src_is_dir then Ok ()
        else
          let* chain = parent_chain t dst in
          if List.mem sid chain then Error Errno.EINVAL else Ok ()
      in
      let perform t =
        let* () = check_name dst_name in
        let old = SMap.find_opt dst_name (entries_of t dst_dir) in
        let t = set_entries t src_dir (SMap.remove src_name (entries_of t src_dir)) in
        let t = add_entry t dst_dir dst_name sid in
        match old with
        | Some oid when oid <> sid ->
            if is_dir t oid then Ok { t with objs = IMap.remove oid t.objs }
            else Ok (gc t oid)
        | Some _ | None -> Ok t
      in
      match SMap.find_opt dst_name (entries_of t dst_dir) with
      | Some dino when dino = sid -> Ok t (* same file: no-op *)
      | Some dino ->
          let dst_is_dir = is_dir t dino in
          if src_is_dir && not dst_is_dir then Error Errno.ENOTDIR
          else if (not src_is_dir) && dst_is_dir then Error Errno.EISDIR
          else if dst_is_dir && not (SMap.is_empty (entries_of t dino)) then
            Error Errno.ENOTEMPTY
          else if src_dir = dst_dir && src_name = dst_name then Ok t
          else perform t
      | None -> if src_dir = dst_dir && src_name = dst_name then Ok t else perform t)

let pad s n =
  if String.length s >= n then String.sub s 0 n
  else s ^ String.make (n - String.length s) '\000'

let with_file t path f =
  let* id = resolve_any t path in
  match obj t id with
  | Dir _ -> Error Errno.EISDIR
  | Symlink _ -> Error Errno.EINVAL
  | File file ->
      let* o = f file in
      Ok { t with objs = IMap.add id (File o) t.objs }

let write t path ~off data =
  with_file t path (fun f ->
      if off < 0 then Error Errno.EINVAL
      else if String.length data = 0 then Ok f
      else begin
        let len = String.length data in
        let size = max f.size (off + len) in
        let b = Bytes.of_string (pad f.data size) in
        Bytes.blit_string data 0 b off len;
        Ok { size; data = Bytes.to_string b }
      end)

let truncate t path n =
  with_file t path (fun f ->
      if n < 0 then Error Errno.EINVAL else Ok { size = n; data = pad f.data n })

(* Persistence points: everything is already durable on the synchronous
   side, so these only mirror the resolution errno. *)
let fsync t path =
  let* _id = resolve_any t path in
  Ok t

let fdatasync t path = fsync t path

(* Same precedence as [Fs_impl.tmpfile]/[Fs_impl.linkat]: duplicate tag
   first, then path resolution, then destination-exists, then name. *)
let tmpfile t tag =
  if SMap.mem tag t.tmps then Error Errno.EEXIST
  else
    let id, t = new_obj t (File { size = 0; data = "" }) in
    Ok { t with tmps = SMap.add tag id t.tmps }

let linkat t tag path =
  match SMap.find_opt tag t.tmps with
  | None -> Error Errno.ENOENT
  | Some id -> (
      let* dir, name = resolve_parent t path in
      match SMap.find_opt name (entries_of t dir) with
      | Some _ -> Error Errno.EEXIST
      | None ->
          let* () = check_name name in
          let t = add_entry t dir name id in
          Ok { t with tmps = SMap.remove tag t.tmps })

(* Open handles: same errno precedence as [Fs_impl.open_file]
   (resolution, then kind, then duplicate tag). *)
let open_file t tag path =
  let* id = resolve_any t path in
  match obj t id with
  | Dir _ -> Error Errno.EISDIR
  | Symlink _ -> Error Errno.EINVAL
  | File _ ->
      if SMap.mem tag t.ofds then Error Errno.EEXIST
      else Ok { t with ofds = SMap.add tag id t.ofds }

let close_file t tag =
  if SMap.mem tag t.ofds then Ok { t with ofds = SMap.remove tag t.ofds }
  else Error Errno.EBADF

(* The object behind a handle, [EBADF] when unbound or destroyed (ids
   are never reused, so membership in [objs] is exact staleness). *)
let handle_id t tag =
  match SMap.find_opt tag t.ofds with
  | None -> Error Errno.EBADF
  | Some id -> if IMap.mem id t.objs then Ok id else Error Errno.EBADF

let write_h t tag ~off data =
  let* id = handle_id t tag in
  match obj t id with
  | Dir _ | Symlink _ -> assert false (* only files are ever opened *)
  | File f ->
      if off < 0 then Error Errno.EINVAL
      else if String.length data = 0 then Ok t
      else begin
        let len = String.length data in
        let size = max f.size (off + len) in
        let b = Bytes.of_string (pad f.data size) in
        Bytes.blit_string data 0 b off len;
        Ok { t with objs = IMap.add id (File { size; data = Bytes.to_string b }) t.objs }
      end

let read_h t tag ~off ~len =
  let* id = handle_id t tag in
  match obj t id with
  | Dir _ | Symlink _ -> assert false
  | File f ->
      if off < 0 || len < 0 then Error Errno.EINVAL
      else if off >= f.size then Ok ""
      else Ok (String.sub f.data off (min len (f.size - off)))

(* Correct-semantics counterpart of [Crashcheck.Buggy.write_append]: a
   page-aligned append (same placement arithmetic as the mutant). *)
let buggy_append t path data =
  with_file t path (fun f ->
      let ps = Layout.Geometry.page_size in
      let len = String.length data in
      if len = 0 || len > ps then Error Errno.EINVAL
      else begin
        let off = (f.size + ps - 1) / ps * ps in
        let size = off + len in
        let b = Bytes.of_string (pad f.data size) in
        Bytes.blit_string data 0 b off len;
        Ok { size; data = Bytes.to_string b }
      end)

(* {2 Snapshot model: the oracle side of [Snap]}

   Same errno precedence as [Snap.snapshot]/[Snap.rollback]: name
   validity, then duplicate, then table capacity; resolution, then pin
   presence. Capacity is deterministic ([Layout.Snaptab.slots] named
   entries), so ENOSPC here is an exact mirror, not the probabilistic
   page-pool kind the executor exempts. *)

let snapshot t name =
  if not (Layout.Snaptab.valid_name name) then Error Errno.EINVAL
  else if SMap.mem name t.snaps then Error Errno.EEXIST
  else if SMap.cardinal t.snaps >= Layout.Snaptab.slots then Error Errno.ENOSPC
  else
    let id = t.snap_next in
    (* The slot is committed before the view is pinned, so the captured
       table contains the new entry itself. *)
    let table =
      (name, id) :: SMap.fold (fun n e acc -> (n, e.e_id) :: acc) t.snaps []
    in
    let pin = { s_objs = t.objs; s_table = table } in
    Ok
      {
        t with
        snaps = SMap.add name { e_id = id; e_pin = Some pin } t.snaps;
        snap_next = id + 1;
      }

let rollback t name =
  match SMap.find_opt name t.snaps with
  | None -> Error Errno.ENOENT
  | Some { e_pin = None; _ } -> Error Errno.EIO
  | Some { e_pin = Some s; _ } ->
      (* The flip restores the captured table; a captured entry keeps
         its pin only if the same (name, id) is still live now —
         otherwise it resurrects unpinned. Volatile tag registries die
         with the flip, exactly like a remount. *)
      let snaps =
        List.fold_left
          (fun acc (n, id) ->
            let pin =
              match SMap.find_opt n t.snaps with
              | Some e when e.e_id = id -> e.e_pin
              | _ -> None
            in
            SMap.add n { e_id = id; e_pin = pin } acc)
          SMap.empty s.s_table
      in
      Ok
        {
          objs = s.s_objs;
          tmps = SMap.empty;
          ofds = SMap.empty;
          next = t.next;
          snaps;
          snap_next = t.snap_next;
        }

let snap_list t =
  List.map
    (fun (n, e) -> (n, e.e_id, e.e_pin <> None))
    (SMap.bindings t.snaps)

let apply t (op : Crashcheck.Workload.op) =
  let r = function Ok t' -> (t', Ok ()) | Error e -> (t, Error e) in
  match op with
  | Create p | Buggy_create p -> r (create t p)
  | Mkdir p -> r (mkdir t p)
  | Unlink p | Buggy_unlink p -> r (unlink t p)
  | Rmdir p -> r (rmdir t p)
  | Rename (a, b) -> r (rename t a b)
  | Link (a, b) -> r (link t a b)
  | Symlink (target, p) -> r (symlink t target p)
  | Write (p, off, d) | Write_atomic (p, off, d) -> r (write t p ~off d)
  | Truncate (p, n) -> r (truncate t p n)
  | Fsync p -> r (fsync t p)
  | Fdatasync p -> r (fdatasync t p)
  | Tmpfile tag -> r (tmpfile t tag)
  | Linkat (tag, p) -> r (linkat t tag p)
  | Open (tag, p) -> r (open_file t tag p)
  | Close tag -> r (close_file t tag)
  | Write_h (tag, off, d) -> r (write_h t tag ~off d)
  | Read_h (tag, off, len) -> (
      match read_h t tag ~off ~len with
      | Ok _ -> (t, Ok ())
      | Error e -> (t, Error e))
  | Buggy_write (p, d) -> r (buggy_append t p d)
  | Snapshot n | Buggy_snap n -> r (snapshot t n)
  | Rollback n -> r (rollback t n)

(* Same canonicalization as [Vfs.Logical.capture]: canonical inode
   numbers are assigned in sorted-DFS preorder at first visit, so
   hardlinks share the id assigned when the walk first reaches them. *)
let capture t : Vfs.Logical.t =
  let canon = Hashtbl.create 16 in
  let next = ref 0 in
  let canon_of id =
    match Hashtbl.find_opt canon id with
    | Some c -> c
    | None ->
        incr next;
        Hashtbl.replace canon id !next;
        !next
  in
  let rec walk id =
    match obj t id with
    | File f ->
        Vfs.Logical.File { cino = canon_of id; links = refs t id; size = f.size; data = f.data }
    | Symlink s -> Vfs.Logical.Symlink { cino = canon_of id; target = s.target }
    | Dir d ->
        let cino = canon_of id in
        let subdirs =
          SMap.fold (fun _ cid acc -> if is_dir t cid then acc + 1 else acc) d.entries 0
        in
        let entries = List.map (fun (n, cid) -> (n, walk cid)) (SMap.bindings d.entries) in
        Vfs.Logical.Dir { cino; links = 2 + subdirs; entries }
  in
  walk root

(* {2 Read-side helpers for the generator and the generic tests} *)

let kind t path =
  match resolve_any t path with
  | Error _ -> None
  | Ok id -> (
      match obj t id with
      | File _ -> Some `File
      | Dir _ -> Some `Dir
      | Symlink _ -> Some `Symlink)

let size t path =
  match resolve_any t path with
  | Ok id -> ( match obj t id with File f -> Some f.size | _ -> None)
  | Error _ -> None

let read t path ~off ~len =
  let* id = resolve_any t path in
  match obj t id with
  | Dir _ -> Error Errno.EISDIR
  | Symlink _ -> Error Errno.EINVAL
  | File f ->
      if off < 0 || len < 0 then Error Errno.EINVAL
      else if off >= f.size then Ok ""
      else Ok (String.sub f.data off (min len (f.size - off)))

let readdir t path =
  let* id = resolve_any t path in
  if not (is_dir t id) then Error Errno.ENOTDIR
  else Ok (List.map fst (SMap.bindings (entries_of t id)))

(* All live paths except "/", each tagged with its kind, sorted. *)
let paths t =
  let out = ref [] in
  let rec walk prefix id =
    match obj t id with
    | File _ | Symlink _ -> ()
    | Dir d ->
        SMap.iter
          (fun name cid ->
            let p = prefix ^ "/" ^ name in
            let k =
              match obj t cid with
              | File _ -> `File
              | Dir _ -> `Dir
              | Symlink _ -> `Symlink
            in
            out := (p, k) :: !out;
            walk p cid)
          d.entries
  in
  walk "" root;
  List.sort compare !out
