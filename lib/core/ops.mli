(** SquirrelFS system-call bodies.

    Each operation is a Synchronous Soft Updates sequence: one or more
    groups of independent updates, each group flushed and closed by a
    single shared store fence, with all cross-group ordering expressed
    through the typestate transitions of {!Objects} (paper §3.3). Every
    operation is durable when it returns, and all metadata operations are
    crash-atomic.

    Callers resolve paths to inode numbers first (see {!Squirrelfs});
    these functions take directory inodes and names. *)

type 'a r = ('a, Vfs.Errno.t) result

val create_file : Fsctx.t -> dir:int -> name:string -> int r
(** Returns the new file's inode number. Fence schedule: (inode init +
    dentry name + parent mtime) fence; (dentry commit) fence. *)

val mkdir : Fsctx.t -> dir:int -> name:string -> int r
(** Fig. 3: (inode init + dentry name + parent link inc) fence; (commit)
    fence. *)

val symlink : Fsctx.t -> dir:int -> name:string -> target:string -> int r
val link : Fsctx.t -> dir:int -> name:string -> target_ino:int -> unit r

val tmpfile : Fsctx.t -> int r
(** Allocate and durably initialize an anonymous ([O_TMPFILE]-style)
    file inode: init group, flush, fence — no dentry. Returns the inode
    number; the caller records it in the volatile tag registry
    ([Fsctx.anon]). A crash leaves an unreachable inode that mount-time
    recovery frees. *)

val linkat : Fsctx.t -> dir:int -> name:string -> ino:int -> unit r
(** Materialize the anonymous inode [ino] (durably initialized by
    {!tmpfile}, never yet committed) at [dir]/[name]: dentry name +
    parent-times group, fence; dentry commit against the re-opened
    [(clean, init)] inode handle, fence. Link count stays 1. *)

val unlink : Fsctx.t -> dir:int -> name:string -> unit r
val rmdir : Fsctx.t -> parent:int -> name:string -> unit r

val rename :
  Fsctx.t -> src_dir:int -> src_name:string -> dst_dir:int -> dst_name:string ->
  unit r
(** Atomic rename via the rename pointer (fig. 2). Handles file and
    directory sources, fresh and existing destinations, and cross-parent
    directory moves with their link-count updates. *)

val write : Fsctx.t -> ino:int -> off:int -> string -> int r
(** [ENOSPC] is decided before any store: every fresh page the write
    needs is taken first, so a failed write leaves the volume untouched.
    A write that starts past EOF zeroes the stale bytes a shrink may have
    left between the size and the write, so they read back as zeroes.
    Fence schedule: in-place writes issue one fence (the coarse data
    stores drain in the final inode group); extending writes issue two
    (relink group — fill and backpointers flushed and fenced together —
    then the size group gated on the post-fence ownership evidence). *)

val write_atomic : Fsctx.t -> ino:int -> off:int -> string -> int r
(** Copy-on-write data write (the paper's §3.4 extension): overwrites of
    existing pages go through {!Objects.Preplace}, so each page's update
    is crash-atomic (old or new content, never torn); writes that only
    touch fresh pages are atomic already via the backpointer-commit order.
    Writes contained in one page are therefore fully atomic. Shares
    {!write}'s body: [ENOSPC] is decided before any store, counting one
    replacement page per overwritten page, and stale bytes past EOF are
    zeroed — inside the replacement page when the write starts in the
    old boundary page, so the zeroing adds no store. *)

val quarantined : Fsctx.t -> int -> bool
(** Whether the inode is quarantined (its metadata known corrupt, see
    {!Mount}): every operation on it fails with [EIO]. *)

val read : Fsctx.t -> ino:int -> off:int -> len:int -> string r
val readlink : Fsctx.t -> ino:int -> string r
val truncate : Fsctx.t -> ino:int -> int -> unit r

(** {1 Split data path (open handles)}

    SplitFS-style fast path over the open-file table ({!Fsctx.oft_open}):
    reads resolve pages through the handle's dense extent snapshot (no
    index queries), and appends land in the handle's pre-allocated
    staging reserve and commit via the single-fence relink group. Both
    return [EBADF] for an unbound tag or a handle whose file has been
    destroyed. *)

val read_h : Fsctx.t -> tag:string -> off:int -> len:int -> string r

val write_h : Fsctx.t -> tag:string -> off:int -> string -> int r
(** {!write}'s body, fence schedule and durability contract ([ENOSPC]
    before any store, stale bytes past EOF zeroed); pages are found in
    the handle's extent snapshot, and fresh pages come from its staging
    reserve (topped up from the volatile allocator in batches) instead
    of a per-call allocation. *)
