(** Typestate-checked persistent objects (paper §3.2–§3.4).

    Each persistent object — inode, directory entry, page range — is
    manipulated through a handle type [('p, 's) t] carrying two phantom
    parameters: the {e persistence} state ['p] ({!Typestate.States.dirty},
    [in_flight] or [clean]) and the {e operational} state ['s]. Transition
    functions are defined only at their legal source states, so an
    out-of-order sequence of updates — committing a dentry to an unfenced
    inode, deallocating an inode whose pages still carry backpointers — is
    a compile-time type error, exactly as in the paper's Rust
    implementation (Listing 2).

    Two mechanisms compensate for OCaml features Rust has:

    - {b Linearity}: handles carry {!Typestate.Token} generation tokens;
      every transition consumes the token, so reusing a superseded handle
      raises [Stale_handle] (dynamic, where Rust's is static).
    - {b Cross-object ordering evidence}: where one object's transition
      requires another object's durable state (e.g. a link count may only
      be decremented after the dentry clear is durable), the prerequisite
      object mints an unforgeable single-use evidence value, obtainable
      only from a [clean] handle in the right state.

    Fences: every object kind follows one persistence protocol, written
    once in the implementation, over the byte ranges the handle covers.
    [flush] writes them back and records the token registry's fence
    epoch; [fence] runs a real [sfence]; [after_fence] re-types an
    [in_flight] handle whose flush is covered by a fence issued through
    {e some} other handle since — the paper's "multiple updates share a
    single fence" optimization. Both raise [Stale_handle] unless the
    epoch moved past the flush. With [Fsctx.share_fences] off (the
    fence-sharing ablation) [after_fence] runs its own [sfence]. *)

open Typestate.States

type dentry_cleared_ev
(** Evidence that a directory entry pointing at some inode was durably
    invalidated (its ino field zeroed or overwritten). Single use. *)

type range_owned_ev
(** Evidence that a page range is durably owned (backpointers set). *)

type range_freed_ev
(** Evidence that a page range's descriptors are durably zeroed. *)

module Prange : sig
  (** A range of pages sharing one piece of typestate (paper §4.3: per-page
      typestate cannot express "all pages of this file", so ranges carry a
      single state and transitions apply to every page in the range). *)

  type free
  type dataful (* contents and descriptor metadata written, not owned *)
  type owned (* descriptor backpointers set: visible to scans *)
  type cleared (* backpointers zeroed *)
  type freed (* descriptors fully zeroed: reusable *)

  type ('p, 's) t

  val pages : (_, _) t -> (int * int) list
  (** (page, file-page-offset) pairs. *)

  val ino : (_, _) t -> int

  val alloc :
    Fsctx.t ->
    ino:int ->
    kind:Layout.Records.Desc.page_kind ->
    offsets:int list ->
    ((clean, free) t, Vfs.Errno.t) result
  (** Take [List.length offsets] pages from the volatile allocator; the
      pages will belong to [ino] at the given file-page offsets. *)

  val fill :
    Fsctx.t -> (clean, free) t -> off:int -> data:string -> (dirty, dataful) t
  (** Write each page's initial contents and the descriptor's kind and
      offset fields. A page at file-page offset [o] receives the bytes of
      [data], written at file byte offset [off], that fall inside
      [[o * page_size, (o + 1) * page_size)], stored straight from [data]
      behind explicit zeroes from the page start; the rest of the page is
      zeroed. [~off:0 ~data:""] zero-fills. The descriptor's ino field —
      the commit point — is {e not} written. *)

  val adopt :
    Fsctx.t ->
    ino:int ->
    kind:Layout.Records.Desc.page_kind ->
    pages:(int * int) list ->
    (clean, free) t
  (** Handle on pages already taken from the volatile allocator (an open
      handle's pre-allocated staging reserve). Device-side they are
      indistinguishable from pages [alloc] just returned — descriptors
      fully zero — so the handle starts in the same state. *)

  val set_backptrs : Fsctx.t -> (clean, dataful) t -> (dirty, owned) t
  (** The 8-byte atomic commits: each page's descriptor ino is set,
      making the page reachable by the mount scan. *)

  val relink : Fsctx.t -> (dirty, dataful) t -> (dirty, owned) t
  (** SplitFS-style staged-append commit: set the backpointers {e in the
      same flush+fence group as the fill}, straight from the dirty
      dataful state — the fill itself needs zero fences. Crash-safe
      because a descriptor is a single cache line persisted in store
      order, so a crash can expose [f_ino] only together with the kind
      and offset stored before it; an image taken before the group's
      fence shows unowned dataful descriptors, which recovery reclaims.
      The size store is still gated on {!owned_evidence}, mintable only
      after the fence — the irreducible ordering point. *)

  val get_owned :
    ?kind:Layout.Records.Desc.page_kind ->
    Fsctx.t -> ino:int -> pages:(int * int) list -> (clean, owned) t
  (** Handle on pages already durably owned by [ino] (from the index).
      [kind] defaults to [Data]. *)

  val clear_backptrs : Fsctx.t -> (clean, owned) t -> (dirty, cleared) t
  val dealloc : Fsctx.t -> (clean, cleared) t -> (dirty, freed) t

  val flush : Fsctx.t -> (dirty, 's) t -> (in_flight, 's) t
  val fence : Fsctx.t -> (in_flight, 's) t -> (clean, 's) t
  val after_fence : Fsctx.t -> (in_flight, 's) t -> (clean, 's) t

  val owned_evidence : Fsctx.t -> (clean, owned) t -> (clean, owned) t * range_owned_ev
  val freed_evidence : Fsctx.t -> (clean, freed) t -> range_freed_ev
  (** Consumes the handle: the range is gone; return its pages to the
      allocator afterwards. *)

  val no_pages_evidence : Fsctx.t -> ino:int -> range_freed_ev
  (** Trivial evidence for inodes that own no pages (checked against the
      index). *)
end

module Inode : sig
  type free
  type init (* fields initialized; not yet linked into the tree *)
  type complete (* linked and live *)
  type inc_link (* link count raised, awaiting the dependent commit *)
  type dec_link (* link count lowered after a durable dentry clear *)

  type ('p, 's) t

  val ino : (_, _) t -> int

  val alloc : Fsctx.t -> ((clean, free) t, Vfs.Errno.t) result
  val get : Fsctx.t -> int -> (clean, complete) t
  (** Handle on a live inode (the VFS-lock analogue; invalidates any
      previous handle on the same inode). *)

  val get_init : Fsctx.t -> int -> (clean, init) t
  (** Handle on a durably {e initialized but never committed} inode: an
      [O_TMPFILE]-style anonymous file whose init group was fenced in an
      earlier operation and which no dentry references yet. This is
      exactly the handle shape {!Dentry.commit} demands, so [linkat]
      materialization re-uses the create commit unchanged. Callers must
      only pass inode numbers from the mount context's anonymous-file
      registry ([Fsctx.anon]) — committed inodes go through {!get}. *)

  val init_file :
    Fsctx.t -> (clean, free) t -> mode:int -> uid:int -> gid:int -> (dirty, init) t

  val init_dir :
    Fsctx.t -> (clean, free) t -> mode:int -> uid:int -> gid:int -> (dirty, init) t

  val init_symlink :
    Fsctx.t -> (clean, free) t -> mode:int -> uid:int -> gid:int ->
    target_len:int -> (dirty, init) t
  (** Symlinks record their target length as the size at initialization so
      the whole symlink operation is crash-atomic at the dentry commit. *)

  val inc_link : Fsctx.t -> (clean, complete) t -> (dirty, inc_link) t

  val dec_link :
    Fsctx.t -> (clean, complete) t -> cleared:dentry_cleared_ev -> (dirty, dec_link) t
  (** Requires durable evidence that a dentry referencing this inode was
      invalidated first (soft-updates rule: a link count must never be
      lower than the number of reachable links). *)

  val dec_link_parent :
    Fsctx.t -> (clean, complete) t -> cleared:dentry_cleared_ev -> (dirty, dec_link) t
  (** rmdir / directory-move path: the handle is the {e parent} whose
      subdirectory count dropped; the evidence must come from a dentry
      cleared in that parent. *)

  val settle_dec : Fsctx.t -> (clean, dec_link) t -> (clean, complete) t
  (** Pure re-labelling once the dependent operation is finished. *)

  val links : Fsctx.t -> (clean, 's) t -> int
  val size : Fsctx.t -> (clean, 's) t -> int

  val set_size :
    Fsctx.t -> (clean, complete) t -> size:int -> ?mtime:int ->
    owned:range_owned_ev option -> unit -> (dirty, complete) t
  (** Update the file size. Growing the size into freshly allocated pages
      requires the [owned] evidence minted after their backpointers were
      fenced — the ordering whose absence the paper's compiler caught in
      its write path (§4.2). Checked against the page index: every page
      the new size covers must be durably owned. *)

  val set_times : Fsctx.t -> (clean, complete) t -> ?atime:int -> ?mtime:int ->
    ?ctime:int -> unit -> (dirty, complete) t

  val dealloc_file :
    Fsctx.t -> (clean, dec_link) t -> pages:range_freed_ev -> (dirty, free) t
  (** Zero the inode record. Requires the link count to have reached zero
      (checked) and all the file's pages to be durably freed. *)

  val dealloc_dir :
    Fsctx.t -> (clean, complete) t -> cleared:dentry_cleared_ev ->
    pages:range_freed_ev -> (dirty, free) t
  (** rmdir path: the directory's own dentry was durably invalidated, it
      is empty (checked against the index), and its dir pages are freed. *)

  val flush : Fsctx.t -> (dirty, 's) t -> (in_flight, 's) t
  val fence : Fsctx.t -> (in_flight, 's) t -> (clean, 's) t
  val after_fence : Fsctx.t -> (in_flight, 's) t -> (clean, 's) t
end

module Dentry : sig
  type free
  type named (* name written; invisible (ino still zero) *)
  type committed (* ino set: live *)
  type rptr_set (* fresh dst with rename pointer set (fig. 2 step 2) *)
  type rptr_over (* existing dst with rename pointer set *)
  type renamed (* committed dst whose rename pointer is still set *)
  type doomed (* src after the rename commit: logically invalid *)
  type cleared (* ino zeroed *)

  type ('p, 's) t

  val loc : (_, _) t -> Index.dentry_loc
  val dir : (_, _) t -> int

  val alloc : Fsctx.t -> dir:int -> ((clean, free) t, Vfs.Errno.t) result
  (** A free 128-byte slot in one of the directory's pages, allocating and
      committing a fresh directory page (a complete sub-operation with its
      own fences) when none is free. *)

  val set_name : Fsctx.t -> (clean, free) t -> string -> (dirty, named) t
  (** Raises [Invalid_argument] on names over
      {!Layout.Geometry.name_max}; callers validate first. *)

  val get : Fsctx.t -> dir:int -> name:string -> ((clean, committed) t, Vfs.Errno.t) result

  val target_ino : Fsctx.t -> (clean, committed) t -> int

  val commit :
    Fsctx.t -> (clean, named) t -> inode:(clean, Inode.init) Inode.t ->
    (dirty, committed) t * (clean, Inode.complete) Inode.t
  (** The 8-byte atomic store of the inode number — only accepted for an
      inode that is durably initialized (paper Listing 1/2). *)

  val commit_dir :
    Fsctx.t -> (clean, named) t -> inode:(clean, Inode.init) Inode.t ->
    parent:(clean, Inode.inc_link) Inode.t ->
    (dirty, committed) t * (clean, Inode.complete) Inode.t
    * (clean, Inode.complete) Inode.t
  (** mkdir commit (paper fig. 3): additionally requires the parent's link
      increment to be durable. Returns (dentry, new dir, parent). *)

  val commit_link :
    Fsctx.t -> (clean, named) t -> inode:(clean, Inode.inc_link) Inode.t ->
    (dirty, committed) t * (clean, Inode.complete) Inode.t
  (** Hard link: the target's raised link count must be durable before the
      new name becomes visible. *)

  val clear_ino : Fsctx.t -> (clean, committed) t -> (dirty, cleared) t
  val cleared_evidence : Fsctx.t -> (clean, cleared) t -> (clean, cleared) t * dentry_cleared_ev

  val dealloc : Fsctx.t -> (clean, cleared) t -> (dirty, free) t
  (** Zero the whole slot, making it reusable (soft-updates rule 2). *)

  (** {1 Atomic rename (paper §3.1, fig. 2)} *)

  val set_rptr :
    Fsctx.t -> (clean, named) t -> src:(clean, committed) t ->
    (dirty, rptr_set) t * (clean, committed) t

  val set_rptr_over :
    Fsctx.t -> (clean, committed) t -> src:(clean, committed) t ->
    (dirty, rptr_over) t * (clean, committed) t

  val commit_rename :
    Fsctx.t -> (clean, rptr_set) t -> src:(clean, committed) t ->
    (dirty, renamed) t * (clean, doomed) t
  (** The atomic point: dst.ino := src's inode. After this persists, the
      rename always completes. *)

  val commit_rename_dir :
    Fsctx.t -> (clean, rptr_set) t -> src:(clean, committed) t ->
    newparent:(clean, Inode.inc_link) Inode.t ->
    (dirty, renamed) t * (clean, doomed) t * (clean, Inode.complete) Inode.t
  (** Moving a directory under a new parent: the new parent's link
      increment must be durable first. *)

  val commit_rename_over :
    Fsctx.t -> (clean, rptr_over) t -> src:(clean, committed) t ->
    (dirty, renamed) t * (clean, doomed) t
  (** Replacing an existing destination: the old target inode's link can
      be decremented once this commit is durable, via
      [replaced_evidence]. *)

  val replaced_evidence : Fsctx.t -> (clean, renamed) t -> (clean, renamed) t * dentry_cleared_ev option
  (** Evidence that the old destination target lost a link (None if the
      rename did not replace anything). *)

  val clear_ino_doomed : Fsctx.t -> (clean, doomed) t -> (dirty, cleared) t
  (** Fig. 2 step 4: physically invalidate src. *)

  val clear_rptr :
    Fsctx.t -> dst:(clean, renamed) t -> src:(clean, cleared) t ->
    (dirty, committed) t * (clean, cleared) t
  (** Fig. 2 step 5: only after src is durably invalid. *)

  val flush : Fsctx.t -> (dirty, 's) t -> (in_flight, 's) t
  val fence : Fsctx.t -> (in_flight, 's) t -> (clean, 's) t
  val after_fence : Fsctx.t -> (in_flight, 's) t -> (clean, 's) t
end

module Preplace : sig
  (** Copy-on-write replacement of a single data page: the paper's
      suggested extension for crash-atomic data operations (§3.4 "These
      operations could be made atomic by using copy-on-write"). The
      mechanism mirrors atomic rename: the fresh page's descriptor carries
      a {e replace pointer} to the page it supersedes, and the 8-byte
      backpointer commit is the atomic point; recovery completes or rolls
      back half-done replacements found via the pointer. *)

  type staged (* new page written, replace pointer set, not visible *)
  type committed (* backpointer set: the atomic point has passed *)
  type old_cleared (* superseded page's backpointer zeroed *)
  type old_freed (* superseded descriptor fully zeroed *)
  type settled (* replace pointer cleared: an ordinary owned page *)

  type ('p, 's) t

  val new_page : (_, _) t -> int
  val old_page : (_, _) t -> int

  val stage :
    Fsctx.t ->
    ino:int ->
    offset:int ->
    old_page:int ->
    content:string ->
    ((dirty, staged) t, Vfs.Errno.t) result
  (** Allocate a fresh page, write the full replacement content, and set
      the descriptor's kind, offset and replace pointer — everything but
      the backpointer. *)

  val commit : Fsctx.t -> (clean, staged) t -> (dirty, committed) t
  val clear_old : Fsctx.t -> (clean, committed) t -> (dirty, old_cleared) t
  val free_old : Fsctx.t -> (clean, old_cleared) t -> (dirty, old_freed) t
  val settle : Fsctx.t -> (clean, old_freed) t -> (dirty, settled) t

  val flush : Fsctx.t -> (dirty, 's) t -> (in_flight, 's) t
  val fence : Fsctx.t -> (in_flight, 's) t -> (clean, 's) t
  val after_fence : Fsctx.t -> (in_flight, 's) t -> (clean, 's) t
end
