(** SquirrelFS's implementation of the common VFS interface: path
    resolution over the volatile indexes, POSIX error discipline, and
    dispatch into {!Ops}. Plays the role of the Rust-for-Linux VFS glue in
    the paper's implementation (§3.4). *)

module Device = Pmem.Device
module Geometry = Layout.Geometry
module R = Layout.Records
module Errno = Vfs.Errno
module Fs = Vfs.Fs

type t = Fsctx.t

let flavor = "squirrelfs"

(* Software overhead of the VFS entry path and of each component lookup in
   the DRAM index, charged to the simulated clock. *)
let vfs_base_ns = 350
let component_ns = 80

let ( let* ) = Result.bind

let mkfs dev = Mount.mkfs dev

let mount dev =
  match Mount.mount dev with Ok ctx -> Ok ctx | Error e -> Error e

let unmount ctx = Mount.unmount ctx
let device (ctx : Fsctx.t) = ctx.Fsctx.dev

let charge_op (ctx : Fsctx.t) parts =
  Device.charge ctx.dev (vfs_base_ns + (component_ns * List.length parts))

(* Observability wrapper: bracket an operation with trace spans and record
   its simulated latency in the metrics registry. With neither attached
   (the default) the only cost is one branch per VFS call. *)
let observed (ctx : Fsctx.t) name f =
  let dev = ctx.Fsctx.dev in
  match (Device.tracer dev, Device.metrics dev) with
  | None, None -> f ()
  | tr, m ->
      let t0 = Device.now_ns dev in
      let st = Device.stats dev in
      let fences0 = st.Pmem.Stats.fences and bytes0 = st.Pmem.Stats.bytes_stored in
      if tr <> None then Device.emit dev (Obs.Event.Span_begin name);
      Fun.protect
        ~finally:(fun () ->
          if tr <> None then Device.emit dev (Obs.Event.Span_end name);
          match m with
          | Some m ->
              Obs.Metrics.observe m ("op." ^ name) (Device.now_ns dev - t0);
              (* per-op persistence traffic: the [fences.*]/[bytes.*]
                 series feed the {!Obs.Metrics.fences_per_op} and
                 {!Obs.Metrics.bytes_per_fence} derived gauges *)
              Obs.Metrics.observe m ("fences." ^ name)
                (st.Pmem.Stats.fences - fences0);
              Obs.Metrics.observe m ("bytes." ^ name)
                (st.Pmem.Stats.bytes_stored - bytes0)
          | None -> ())
        f

(* Walk directory components. Symlinks are not followed (SquirrelFS's VFS
   layer would resolve them above the file system). Quarantined objects
   (metadata corrupt, degraded mount) surface as a clean [EIO] at
   resolution time, never as an exception. *)
let rec walk_dir (ctx : Fsctx.t) dir = function
  | [] -> Ok dir
  | c :: rest -> (
      match Index.lookup ctx.index ~dir c with
      | None -> Error Errno.ENOENT
      | Some (ino, _) ->
          if Ops.quarantined ctx ino then Error Errno.EIO
          else if Index.is_dir ctx.index ino then walk_dir ctx ino rest
          else Error Errno.ENOTDIR)

let resolve_any (ctx : Fsctx.t) path =
  let* parts = Vfs.Path.split path in
  charge_op ctx parts;
  let* ino =
    match List.rev parts with
    | [] -> Ok Geometry.root_ino
    | last :: rev_parents -> (
        let* dir = walk_dir ctx Geometry.root_ino (List.rev rev_parents) in
        match Index.lookup ctx.index ~dir last with
        | None -> Error Errno.ENOENT
        | Some (ino, _) -> Ok ino)
  in
  if Ops.quarantined ctx ino then Error Errno.EIO else Ok ino

(* Parent directory + final name, with the parent fully resolved. The
   walk vets every component but its start, so a quarantined root is
   caught here. *)
let resolve_parent (ctx : Fsctx.t) path =
  let* parents, name = Vfs.Path.parent_base path in
  charge_op ctx (parents @ [ name ]);
  let* dir = walk_dir ctx Geometry.root_ino parents in
  if Ops.quarantined ctx dir then Error Errno.EIO else Ok (dir, name)

(* Inode numbers on the path from the root to the parent of [path]
   (inclusive): used for the rename-into-own-subtree check. *)
let parent_chain (ctx : Fsctx.t) path =
  let* parents, _ = Vfs.Path.parent_base path in
  let rec go dir acc = function
    | [] -> Ok (List.rev (dir :: acc))
    | c :: rest -> (
        match Index.lookup ctx.index ~dir c with
        | None -> Error Errno.ENOENT
        | Some (ino, _) ->
            if Ops.quarantined ctx ino then Error Errno.EIO
            else if Index.is_dir ctx.index ino then go ino (dir :: acc) rest
            else Error Errno.ENOTDIR)
  in
  go Geometry.root_ino [] parents

let create (ctx : t) path =
  observed ctx "create" @@ fun () ->
  let* dir, name = resolve_parent ctx path in
  match Index.lookup ctx.index ~dir name with
  | Some _ -> Error Errno.EEXIST
  | None ->
      let* _ino = Ops.create_file ctx ~dir ~name in
      Ok ()

let mkdir (ctx : t) path =
  observed ctx "mkdir" @@ fun () ->
  let* dir, name = resolve_parent ctx path in
  match Index.lookup ctx.index ~dir name with
  | Some _ -> Error Errno.EEXIST
  | None ->
      let* _ino = Ops.mkdir ctx ~dir ~name in
      Ok ()

let symlink (ctx : t) target path =
  observed ctx "symlink" @@ fun () ->
  let* dir, name = resolve_parent ctx path in
  match Index.lookup ctx.index ~dir name with
  | Some _ -> Error Errno.EEXIST
  | None ->
      let* _ino = Ops.symlink ctx ~dir ~name ~target in
      Ok ()

let link (ctx : t) existing path =
  observed ctx "link" @@ fun () ->
  let* target_ino = resolve_any ctx existing in
  if Index.is_dir ctx.index target_ino then Error Errno.EPERM
  else
    let* dir, name = resolve_parent ctx path in
    match Index.lookup ctx.index ~dir name with
    | Some _ -> Error Errno.EEXIST
    | None -> Ops.link ctx ~dir ~name ~target_ino

let unlink (ctx : t) path =
  observed ctx "unlink" @@ fun () ->
  let* dir, name = resolve_parent ctx path in
  match Index.lookup ctx.index ~dir name with
  | None -> Error Errno.ENOENT
  | Some (ino, _) ->
      if Ops.quarantined ctx ino then Error Errno.EIO
      else if Index.is_dir ctx.index ino then Error Errno.EISDIR
      else Ops.unlink ctx ~dir ~name

let rmdir (ctx : t) path =
  observed ctx "rmdir" @@ fun () ->
  let* parts = Vfs.Path.split path in
  if parts = [] then Error Errno.EINVAL
  else
    let* parent, name = resolve_parent ctx path in
    match Index.lookup ctx.index ~dir:parent name with
    | None -> Error Errno.ENOENT
    | Some (ino, _) ->
        if Ops.quarantined ctx ino then Error Errno.EIO
        else if not (Index.is_dir ctx.index ino) then Error Errno.ENOTDIR
        else Ops.rmdir ctx ~parent ~name

let rename (ctx : t) src dst =
  observed ctx "rename" @@ fun () ->
  let* src_dir, src_name = resolve_parent ctx src in
  match Index.lookup ctx.index ~dir:src_dir src_name with
  | None -> Error Errno.ENOENT
  | Some (sino, _) when Ops.quarantined ctx sino -> Error Errno.EIO
  | Some (sino, _) -> (
      let* dst_dir, dst_name = resolve_parent ctx dst in
      let src_is_dir = Index.is_dir ctx.index sino in
      let* () =
        if not src_is_dir then Ok ()
        else
          (* a directory cannot be moved into its own subtree *)
          let* chain = parent_chain ctx dst in
          if List.mem sino chain then Error Errno.EINVAL else Ok ()
      in
      match Index.lookup ctx.index ~dir:dst_dir dst_name with
      | Some (dino, _) when dino = sino -> Ok () (* same file: no-op *)
      | Some (dino, _) when Ops.quarantined ctx dino -> Error Errno.EIO
      | Some (dino, _) ->
          let dst_is_dir = Index.is_dir ctx.index dino in
          if src_is_dir && not dst_is_dir then Error Errno.ENOTDIR
          else if (not src_is_dir) && dst_is_dir then Error Errno.EISDIR
          else if dst_is_dir && Index.dentry_count ctx.index ~dir:dino > 0
          then Error Errno.ENOTEMPTY
          else if src_dir = dst_dir && src_name = dst_name then Ok ()
          else Ops.rename ctx ~src_dir ~src_name ~dst_dir ~dst_name
      | None ->
          if src_dir = dst_dir && src_name = dst_name then Ok ()
          else Ops.rename ctx ~src_dir ~src_name ~dst_dir ~dst_name)

let kind_of (ctx : t) ino =
  if Index.is_dir ctx.index ino then R.Kind.Dir
  else
    let base = Geometry.inode_off ctx.geo ~ino in
    match
      R.Kind.of_int (Device.read_u64 ctx.dev (base + R.Inode.f_kind))
    with
    | Some k -> k
    | None -> R.Kind.File

(* Data-plane calls address regular files only: a symlink cannot be
   opened for I/O (the VFS would have followed it). *)
let resolve_file (ctx : t) path =
  match resolve_any ctx path with
  | Error _ as e -> e
  | Ok ino as file -> (
      match kind_of ctx ino with
      | R.Kind.File -> file
      | R.Kind.Dir -> Error Errno.EISDIR
      | R.Kind.Symlink -> Error Errno.EINVAL)

let write (ctx : t) path ~off data =
  observed ctx "write" @@ fun () ->
  let* ino = resolve_file ctx path in
  Ops.write ctx ~ino ~off data

let read (ctx : t) path ~off ~len =
  observed ctx "read" @@ fun () ->
  let* ino = resolve_file ctx path in
  Ops.read ctx ~ino ~off ~len

let truncate (ctx : t) path len =
  observed ctx "truncate" @@ fun () ->
  let* ino = resolve_file ctx path in
  Ops.truncate ctx ~ino len

let readlink (ctx : t) path =
  observed ctx "readlink" @@ fun () ->
  let* ino = resolve_any ctx path in
  match kind_of ctx ino with
  | R.Kind.Symlink -> Ops.readlink ctx ~ino
  | R.Kind.File | R.Kind.Dir -> Error Errno.EINVAL

let stat (ctx : t) path =
  observed ctx "stat" @@ fun () ->
  let* ino = resolve_any ctx path in
  let base = Geometry.inode_off ctx.geo ~ino in
  match R.Inode.decode ctx.dev ~base with
  | None -> Error Errno.ENOENT
  | Some r ->
      Ok
        {
          Fs.ino = r.ino;
          kind =
            (match r.kind with
            | R.Kind.File -> Fs.File
            | R.Kind.Dir -> Fs.Dir
            | R.Kind.Symlink -> Fs.Symlink);
          links = r.links;
          size = r.size;
          atime = r.atime;
          mtime = r.mtime;
          ctime = r.ctime;
          mode = r.mode;
          uid = r.uid;
          gid = r.gid;
        }

let block_offset (ctx : t) path i =
  let* ino = resolve_any ctx path in
  match Index.file_page ctx.index ~ino ~offset:i with
  | Some page -> Ok (Geometry.page_off ctx.geo ~page)
  | None -> Error Errno.EINVAL

let readdir (ctx : t) path =
  observed ctx "readdir" @@ fun () ->
  let* ino = resolve_any ctx path in
  if not (Index.is_dir ctx.index ino) then Error Errno.ENOTDIR
  else Ok (List.map fst (Index.dentries ctx.index ~dir:ino))

(* All operations are synchronous: everything is already durable. *)
let fsync (ctx : t) path =
  observed ctx "fsync" @@ fun () ->
  let* _ino = resolve_any ctx path in
  Ok ()

let fdatasync (ctx : t) path =
  observed ctx "fdatasync" @@ fun () ->
  let* _ino = resolve_any ctx path in
  Ok ()

let tmpfile (ctx : t) tag =
  observed ctx "tmpfile" @@ fun () ->
  if Hashtbl.mem ctx.Fsctx.anon tag then Error Errno.EEXIST
  else
    let* ino = Ops.tmpfile ctx in
    Hashtbl.replace ctx.Fsctx.anon tag ino;
    Ok ()

(* {1 Split data path}

   [open_file] pays path resolution once; the handle ops charge only the
   VFS base cost — no per-component lookup charge, which is the point of
   the split data path. *)

let open_file (ctx : t) tag path =
  observed ctx "open" @@ fun () ->
  let* ino = resolve_file ctx path in
  Fsctx.oft_open ctx tag ino

let close_file (ctx : t) tag =
  observed ctx "close" @@ fun () ->
  Device.charge ctx.dev vfs_base_ns;
  Fsctx.oft_close ctx tag

let read_h (ctx : t) tag ~off ~len =
  observed ctx "read_h" @@ fun () ->
  Device.charge ctx.dev vfs_base_ns;
  Ops.read_h ctx ~tag ~off ~len

let write_h (ctx : t) tag ~off data =
  observed ctx "write_h" @@ fun () ->
  Device.charge ctx.dev vfs_base_ns;
  Ops.write_h ctx ~tag ~off data

let linkat (ctx : t) tag path =
  observed ctx "linkat" @@ fun () ->
  match Hashtbl.find_opt ctx.Fsctx.anon tag with
  | None -> Error Errno.ENOENT
  | Some ino -> (
      let* dir, name = resolve_parent ctx path in
      match Index.lookup ctx.index ~dir name with
      | Some _ -> Error Errno.EEXIST
      | None ->
          let* () = Ops.linkat ctx ~dir ~name ~ino in
          Hashtbl.remove ctx.Fsctx.anon tag;
          Ok ())
