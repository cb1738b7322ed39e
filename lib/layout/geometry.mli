(** On-device geometry of a SquirrelFS volume (paper §3.4).

    The device is split into four sections: superblock, inode table, page
    descriptor table, and data/directory pages. Space is reserved for one
    inode per 16 KB of data (four 4 KB pages), the ext4 ratio the paper
    uses. Page descriptors carry a backpointer to their owning inode
    rather than inodes pointing at pages. *)

val sb_size : int (* 4096 *)
val page_size : int (* 4096 *)
val inode_size : int (* 128 *)
val desc_size : int (* 64 *)
val dentry_size : int (* 128 *)
val name_max : int (* 110 *)
val dentries_per_page : int

type t = {
  device_size : int;
  inode_count : int;  (** inodes are numbered 1..inode_count *)
  page_count : int;  (** pages are numbered 0..page_count-1 *)
  inode_table_off : int;
  page_desc_off : int;
  data_off : int;
}

val compute : device_size:int -> t
(** Raises [Invalid_argument] if the device is too small for at least the
    root inode and a handful of pages. *)

val inode_off : t -> ino:int -> int
(** Byte offset of inode [ino] (1-based). *)

val desc_off : t -> page:int -> int
val page_off : t -> page:int -> int

val dentry_off : t -> page:int -> slot:int -> int
(** Byte offset of directory-entry [slot] within directory page [page]. *)

val dentry_loc_of_off : t -> int -> int * int
(** Inverse of [dentry_off]: page and slot of a dentry's byte offset (used
    to follow rename pointers). *)

val dentry_loc_opt : t -> int -> (int * int) option
(** [dentry_loc_of_off] for a rename pointer read from a possibly torn or
    corrupt record: [None] unless the offset is a dentry boundary inside
    the data area, so a bad pointer is reported or repaired, never
    dereferenced. *)

val root_ino : int
(** The root directory inode number (1). *)
