(** Request dispatch over the sharded per-inode lock table.

    Lock protocol (see DESIGN.md, "Concurrent serving"):

    + {e resolve} — read the volatile index's generation
      ({!Squirrelfs.Index.generation}) and the [Index.t] itself, then,
      without holding any shard, walk the index once to collect the
      inode numbers the request touches (each [Index] call is
      individually atomic, so the walk reads consistent entries that
      may nonetheless be stale by the time locks are taken);
    + {e lock} — take the shards those keys map to, in ascending shard
      order ({!Squirrelfs.Locks.with_shards} — deadlock-free by the
      total order);
    + {e validate} — under the shards, the same index at the same
      generation means no change a lookup could see has completed since
      the walk began, so the keys are what a re-walk would return: a
      complete resolution executes at once, and an incomplete one (a
      dangling component) would stay incomplete on every retry, so it
      drops the shards and takes {!Squirrelfs.Locks.with_all} at once.
      Only a moved generation or a swapped index re-walks, under the
      locks: if the fresh key set is complete and maps inside the held
      shard set, the index entries the op depends on cannot change
      until release, so execute; otherwise drop the shards and retry
      with a fresh walk;
    + after [max_retries] failed validations, fall back to
      {!Squirrelfs.Locks.with_all} (the whole-FS lock), which trivially
      validates.

    Directory renames take [with_all]: the into-own-subtree check walks
    the destination's whole ancestor chain, which per-inode keys cannot
    name in advance (the VFS [s_vfs_rename_mutex] analogue). Whether a
    rename's source is a directory is read from the resolution that
    validates its keys, so a source re-pointed at a directory while the
    rename waits for its shards sends it to [with_all] too. Snapshots
    always take it (see [resolution]).

    Shared-fence soundness under domains: the simulated device's
    [sfence] drains {e all} pending lines device-wide (unlike a real
    CPU's per-core store buffer), so a fence issued by any domain
    covers stores from every domain and the token registry's global
    fence epoch remains a sound witness. *)

module Sq = Squirrelfs
module Errno = Vfs.Errno

type t = {
  ctx : Sq.Fsctx.t;
  locks : Sq.Locks.t;
  stamp : int Atomic.t;  (** next reply stamp *)
  retries : int Atomic.t;  (** revalidation misses (observability) *)
  fallbacks : int Atomic.t;  (** whole-FS-lock fallbacks *)
}

let max_retries = 3

let create ?shards (ctx : Sq.Fsctx.t) =
  {
    ctx;
    locks = Sq.Locks.create ?shards ();
    stamp = Atomic.make 0;
    retries = Atomic.make 0;
    fallbacks = Atomic.make 0;
  }

let stamps_issued t = Atomic.get t.stamp
let retry_count t = Atomic.get t.retries
let fallback_count t = Atomic.get t.fallbacks

(* {2 Lock-key resolution}

   Best-effort: resolution failure (dangling component, invalid path)
   yields the keys of whatever prefix resolved — the op itself will
   return the proper errno under those locks. Missing final components
   are fine: creation only mutates the parent, and the parent is
   keyed. *)

let walk (t : t) parts =
  let index = t.ctx.Sq.Fsctx.index in
  let rec go dir = function
    | [] -> Some dir
    | c :: rest -> (
        match Sq.Index.lookup index ~dir c with
        | Some (ino, _) when Sq.Index.is_dir index ino -> go ino rest
        | Some _ | None -> None)
  in
  go Layout.Geometry.root_ino parts

(* (target ino if it exists, lock keys). Only the final parent and the
   target are keyed — like the VFS, which locks the last component's
   parent, not the whole walked prefix. Intermediate directories are
   merely read (each [Index] call is atomic); a prefix going stale
   between resolution and execution is exactly what validation catches,
   and an op that needs prefix stability (directory rename) takes the
   whole-FS lock instead. *)
let resolve t path =
  match Vfs.Path.parent_base path with
  | Error _ ->
      (* invalid path: the op will fail without reading the index *)
      (None, ([], true))
  | Ok (parents, name) -> (
      match walk t parents with
      | None -> (None, ([], false))
      | Some dir -> (
          match Sq.Index.lookup t.ctx.Sq.Fsctx.index ~dir name with
          | Some (ino, _) -> (Some ino, ([ dir; ino ], true))
          | None -> (None, ([ dir ], true))))

let resolve_keys t path = snd (resolve t path)

let merge (k1, c1) (k2, c2) = (k1 @ k2, c1 && c2)

(* Keys a request depends on, plus whether resolution was [complete]
   (every named path's parent directory reached). An incomplete
   resolution cannot be validated — the dangling component could appear
   concurrently after we decide not to lock it — so completeness is part
   of the validation check, and an incomplete request whose index has
   not changed since its walk falls back to the whole-FS lock at once,
   where it fails with the right errno race-free. A missing {e final}
   component is fine: the op only needs its (keyed) parent. *)
let lock_keys t (r : Req.req) : int list * bool =
  match r with
  | Req.Create p | Req.Mkdir p | Req.Symlink (_, p) -> resolve_keys t p
  | Req.Unlink p | Req.Rmdir p | Req.Truncate (p, _) | Req.Readlink p
  | Req.Stat p | Req.Readdir p | Req.Fsync p | Req.Write (p, _, _)
  | Req.Read (p, _, _) ->
      resolve_keys t p
  | Req.Link (existing, newpath) ->
      merge (resolve_keys t existing) (resolve_keys t newpath)
  | Req.Rename (src, dst) -> merge (resolve_keys t src) (resolve_keys t dst)
  (* Handle ops skip path resolution by design (the split data path):
     the lock key is the bound inode, read from the open-file table.
     The binding is immutable for the tag's lifetime (only close drops
     it, and tags are client-namespaced), so the key cannot go stale
     between resolution and revalidation; an unbound tag needs no inode
     lock — the op fails EBADF against the OFT's own lock. *)
  | Req.Open (_, p) -> resolve_keys t p
  | Req.Close _ -> ([], true)
  | Req.Write_h (tag, _, _) | Req.Read_h (tag, _, _) -> (
      match Sq.Fsctx.oft_ino t.ctx tag with
      | Some ino -> ([ ino ], true)
      | None -> ([], true))
  (* Snapshot quiesces the whole volume (see [resolution]); no per-inode
     keys can name "everything". *)
  | Req.Snapshot _ -> ([], true)

(* [lock_keys], plus whether the request must take the whole-FS lock:
   a rename whose source resolves to a directory, for the ancestor-chain
   check, and a snapshot, because creation quiesces to a fence epoch —
   the captured delta view must not race any in-flight mutation, so the
   quiescent point is "all shards held". A rename's source is walked
   once, for its keys and its kind. *)
let resolution t (r : Req.req) =
  match r with
  | Req.Rename (src, dst) ->
      let target, src_keys = resolve t src in
      let dir =
        match target with
        | Some ino -> Sq.Index.is_dir t.ctx.Sq.Fsctx.index ino
        | None -> false (* will fail ENOENT; per-inode keys suffice *)
      in
      (merge src_keys (resolve_keys t dst), dir)
  | Req.Snapshot _ -> (([], true), true)
  | _ -> (lock_keys t r, false)

(* {2 Execution} *)

let exec (t : t) (r : Req.req) : (Req.payload, Errno.t) result =
  let ctx = t.ctx in
  let unit_ = Result.map (fun () -> Req.Unit) in
  match r with
  | Req.Create p -> unit_ (Sq.create ctx p)
  | Req.Mkdir p -> unit_ (Sq.mkdir ctx p)
  | Req.Symlink (target, p) -> unit_ (Sq.symlink ctx target p)
  | Req.Link (existing, p) -> unit_ (Sq.link ctx existing p)
  | Req.Unlink p -> unit_ (Sq.unlink ctx p)
  | Req.Rmdir p -> unit_ (Sq.rmdir ctx p)
  | Req.Rename (src, dst) -> unit_ (Sq.rename ctx src dst)
  | Req.Write (p, off, data) ->
      Result.map (fun n -> Req.Wrote n) (Sq.write ctx p ~off data)
  | Req.Read (p, off, len) ->
      Result.map (fun s -> Req.Data s) (Sq.read ctx p ~off ~len)
  | Req.Truncate (p, n) -> unit_ (Sq.truncate ctx p n)
  | Req.Readlink p -> Result.map (fun s -> Req.Data s) (Sq.readlink ctx p)
  | Req.Stat p -> Result.map (fun st -> Req.Attr st) (Sq.stat ctx p)
  | Req.Readdir p -> Result.map (fun l -> Req.Names l) (Sq.readdir ctx p)
  | Req.Fsync p -> unit_ (Sq.fsync ctx p)
  | Req.Open (tag, p) -> unit_ (Sq.open_file ctx tag p)
  | Req.Close tag -> unit_ (Sq.close_file ctx tag)
  | Req.Write_h (tag, off, data) ->
      Result.map (fun n -> Req.Wrote n) (Sq.write_h ctx tag ~off data)
  | Req.Read_h (tag, off, len) ->
      Result.map (fun s -> Req.Data s) (Sq.read_h ctx tag ~off ~len)
  | Req.Snapshot name ->
      Result.map (fun (i : Snap.info) -> Req.Wrote i.Snap.i_id) (Snap.snapshot ctx name)

let subset need held = List.for_all (fun s -> List.mem s held) need

(* Run [f] with the request's locks held, per the protocol above. *)
let with_op_locks t r f =
  let global () =
    Atomic.incr t.fallbacks;
    Sq.Locks.with_all t.locks f
  in
  let rec attempt n =
    if n >= max_retries then global ()
    else
      let index = t.ctx.Sq.Fsctx.index in
      let gen = Sq.Index.generation index in
      let (keys, complete), dir = resolution t r in
      if dir then global ()
      else
        let held = Sq.Locks.shard_set t.locks keys in
        let outcome =
          Sq.Locks.with_shards t.locks held (fun () ->
              if t.ctx.Sq.Fsctx.index == index && Sq.Index.generation index = gen
              then if complete then `Ran (f ()) else `Global
              else
                let (need, complete), dir = resolution t r in
                if dir then `Global
                else if complete && subset (Sq.Locks.shard_set t.locks need) held
                then `Ran (f ())
                else `Retry)
        in
        match outcome with
        | `Ran v -> v
        | `Global -> global ()
        | `Retry ->
            Atomic.incr t.retries;
            attempt (n + 1)
  in
  attempt 0

let submit t ~client ~seq (r : Req.req) : Req.reply =
  with_op_locks t r (fun () ->
      let rp_result = exec t r in
      (* stamped before release: stamp order is consistent with the
         per-inode linearization (header comment in req.ml) *)
      let rp_stamp = Atomic.fetch_and_add t.stamp 1 in
      { Req.rp_client = client; rp_seq = seq; rp_stamp; rp_result })

(* Batched submission: one client's pipelined requests, executed in
   order. Locks are per-request — a batch is a queue, not a
   transaction. *)
let submit_batch t ~client ~seq0 (rs : Req.req list) : Req.reply list =
  List.mapi (fun i r -> submit t ~client ~seq:(seq0 + i) r) rs
