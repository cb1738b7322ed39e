(** Trivial in-memory reference file system: the "obviously correct" side
    of the fuzzer's differential oracle.

    Immutable — every operation returns a new value, so the executor keeps
    snapshots for free and a refused operation is "rolled back" by simply
    keeping the old value. Errno results mirror [Squirrelfs.Fs_impl]'s
    checks in the same precedence order; the model has no resource limits,
    so [ENOSPC]/[EMLINK] never occur here (the executor treats those as
    benign capacity divergence). *)

type t

val empty : t
(** Just the root directory. *)

val apply : t -> Crashcheck.Workload.op -> t * (unit, Vfs.Errno.t) result
(** Apply one op with its {e correct} semantics (the [Buggy_*] variants
    map to create/unlink/page-aligned-append). On error the returned [t]
    is unchanged. *)

val capture : t -> Vfs.Logical.t
(** Logical snapshot with the same canonical inode numbering as
    [Vfs.Logical.capture] (sorted-DFS preorder, first visit). *)

(** {2 Read-side helpers (generator and generic tests)} *)

val snap_list : t -> (string * int * bool) list
(** Modelled snapshot table: (name, id, pinned), sorted by name. An
    unpinned entry is one resurrected by rolling back past its deletion
    — it lists, but rolling back to it yields [EIO]. *)

val kind : t -> string -> [ `File | `Dir | `Symlink ] option
val size : t -> string -> int option
val read : t -> string -> off:int -> len:int -> (string, Vfs.Errno.t) result
val readdir : t -> string -> (string list, Vfs.Errno.t) result

val paths : t -> (string * [ `File | `Dir | `Symlink ]) list
(** All live paths except ["/"], sorted; hardlinked files appear once per
    path. *)
