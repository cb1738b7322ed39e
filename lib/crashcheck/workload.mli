(** Syscall workloads for crash-consistency testing (the role of
    Chipmunk/ACE's systematically generated tests, §5.7). *)

type op =
  | Create of string
  | Mkdir of string
  | Unlink of string
  | Rmdir of string
  | Rename of string * string
  | Link of string * string
  | Symlink of string * string  (** target, linkpath *)
  | Write of string * int * string  (** path, offset, data *)
  | Write_atomic of string * int * string
      (** COW data write (the §3.4 extension): crash-atomic per page *)
  | Truncate of string * int
  | Fsync of string
  | Fdatasync of string
      (** distinct persistence points: no-ops on a synchronous PM file
          system, but enumerated as separate sequence elements so an
          implementation whose sync path skipped a fence would diverge *)
  | Tmpfile of string  (** tag: O_TMPFILE-style anonymous file *)
  | Linkat of string * string  (** tag, path: materialize the tmpfile *)
  | Open of string * string
      (** tag, path: bind an open handle (SplitFS-style split data path) *)
  | Close of string
  | Write_h of string * int * string  (** tag, offset, data — via handle *)
  | Read_h of string * int * int  (** tag, offset, len — via handle *)
  | Buggy_create of string
      (** deliberately mis-ordered variants, §4.2 bug reinjection *)
  | Buggy_unlink of string
  | Buggy_write of string * string
  | Snapshot of string  (** named crash-consistent snapshot ([Snap]) *)
  | Rollback of string  (** whole-volume flip back to a snapshot *)
  | Buggy_snap of string
      (** mis-ordered snapshot creation: table entry published before the
          record (and the quiesced base hash) is fenced *)

val pp_op : Format.formatter -> op -> unit

val pp : Format.formatter -> op list -> unit

type buggy_kind = [ `Create | `Unlink | `Write | `Snap ]
(** The mutant kinds, one per [Buggy_*] constructor. *)

val all_buggy_kinds : buggy_kind list
val buggy_kind_name : buggy_kind -> string
val buggy_kind_of_op : op -> buggy_kind option

val buggy_snap_name : string
(** The name every snapshot mutant is created under: over 24 bytes, so
    the slot's record spans two cache lines and a crash can drain the
    commit word's line without the name tail. *)

val setup : op list
(** Common prefix establishing a small namespace. *)

val alphabet : op list
(** The canonical B3-style enumeration universe over the [setup]
    namespace: 2 dirs × 2 files × 1 symlink target × 1 anonymous-file
    tag. Single source of truth for [systematic_pairs] and
    [Fuzzer.Enum]'s bounded sweeps. *)

val systematic_pairs : unit -> op list list
(** Every ordered pair from [alphabet], each prefixed with [setup]:
    |alphabet|² workloads — i.e. [Fuzzer.Enum]'s seq-2 tier, expressed
    as concrete workloads. *)
