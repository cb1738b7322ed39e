(** Volatile indexes (paper §3.4).

    SquirrelFS's persistent layout (backpointers, flat tables) is not
    amenable to fast lookup, so DRAM indexes are built at mount: per
    directory, a name -> dentry map and the list of directory pages it
    owns; per directory page, one bitmask of the dentry slots in use; per
    file, an offset -> page map, made at the file's first page.

    The int-keyed tables are [Hashtbl.Make (Int)], whose hash is
    [Hashtbl.hash]: they fold in the order the polymorphic tables did,
    and that order matters — {!file_pages} feeds the allocator's
    free-page stack through truncate and unlink, so a different hash
    would move every later page number, crash image and pinned report.
    Every entry point but {!generation} takes the instance's lock for one
    short critical section. *)

type dentry_loc = { page : int; slot : int }

type t

val create : unit -> t

(** {1 Directories} *)

val add_dir : t -> int -> unit
(** Register a directory inode with an empty index. *)

val add_dir_page : t -> dir:int -> int -> unit
val remove_dir_page : t -> dir:int -> int -> unit
val dir_pages : t -> dir:int -> int list

val insert_dentry : t -> dir:int -> string -> ino:int -> dentry_loc -> unit
val remove_dentry : t -> dir:int -> string -> unit
val lookup : t -> dir:int -> string -> (int * dentry_loc) option
val dentries : t -> dir:int -> (string * int) list
val dentry_count : t -> dir:int -> int
val is_dir : t -> int -> bool

val generation : t -> int
(** A counter that {!add_dir}, {!remove_dir}, {!insert_dentry} and
    {!remove_dentry} bump inside their critical sections, after their
    change: every change that {!lookup} or {!is_dir} can see moves it,
    and no other call does (file pages, directory pages and slot marks
    leave it alone). Read without the lock. A caller that reads it
    before a series of lookups and reads the same value afterwards knows
    that no such change completed in between, so the index still
    answers every lookup of the series as it did. Generations of two
    instances are unrelated: compare them on one [t] only. *)

val free_slot : t -> dir:int -> dentry_loc option
(** A dir page slot not currently holding an allocated dentry, if any of
    the directory's pages has one: the lowest clear bit of the first
    page, in {!dir_pages} order, whose mask is not full. *)

val mark_slot_used : t -> dentry_loc -> unit
val mark_slot_free : t -> dentry_loc -> unit

val remove_dir : t -> int -> unit

(** {1 Files} *)

val add_file : t -> int -> unit
val add_file_page : t -> ino:int -> offset:int -> int -> unit
(** [offset] in page units within the file. *)

val remove_file_page : t -> ino:int -> offset:int -> unit
val file_page : t -> ino:int -> offset:int -> int option
val file_pages : t -> ino:int -> (int * int) list
(** (offset, page) pairs, unordered. *)

val remove_file : t -> int -> unit
val is_file : t -> int -> bool

val file_version : t -> int -> int
(** Monotone version of a file's extent map: bumped by every
    {!add_file_page}/{!remove_file_page}/{!remove_file}. Open handles
    compare it against the version captured when they snapshotted the
    map; a mismatch means the snapshot must be rebuilt. 0 for inos never
    indexed; never resets across inode reuse. *)

val file_deaths : t -> int -> int
(** How many times [ino] has been removed as a file ({!remove_file}).
    Open handles capture it at open: a changed count means the opened
    file was destroyed, even if the inode number has since been reused
    by a new file ([is_file] alone cannot tell the two apart). *)

(** {1 Memory accounting (paper §5.6)} *)

val footprint_bytes : t -> int
(** Approximate DRAM footprint using the paper's accounting: 24 bytes per
    file page entry, ~250 bytes per directory entry. *)

(** {1 Loading}

    A mount fills a fresh index with one critical section: [load t f]
    runs [f] holding the instance's lock, and [f] calls the entry points
    of {!Load}, which take no lock. Nothing else may call those. *)

val load : t -> (unit -> 'a) -> 'a

module Load : sig
  val add_dir : t -> int -> unit
  val add_dir_page : t -> dir:int -> int -> unit
  val add_file : t -> int -> unit
  val add_file_page : t -> ino:int -> offset:int -> int -> unit
  val insert_dentry : t -> dir:int -> string -> ino:int -> dentry_loc -> unit
end
