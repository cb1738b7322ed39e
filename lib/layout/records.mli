(** Field offsets and decoders for SquirrelFS's persistent records.

    Writes to these records are performed by the typestate transition
    functions in the core library; this module only fixes the binary
    format and provides read-side decoding. An object is {e allocated} iff
    any of its bytes is non-zero; dentries and page descriptors are
    {e valid} iff their inode-number field is non-zero (paper §3.4).

    When a volume is made with [mkfs ~csum:true], inode and descriptor
    records additionally carry a CRC32 over their {e sealed}
    (immutable-after-init) fields, written by [seal] during
    initialization. Because SSU ordering makes the whole init group —
    including the CRC — durable before the record is committed, [verify]
    failing on a committed record can only mean media corruption, never a
    legal crash state. Mutable fields (links, sizes, times, commit
    backpointers, dentries) are excluded and covered by the device-level
    line ECC instead. *)

module Kind : sig
  type t = File | Dir | Symlink

  val to_int : t -> int
  val of_int : int -> t option
  val pp : Format.formatter -> t -> unit
end

val any_nonzero : Pmem.Device.t -> int -> int -> bool
(** [any_nonzero dev base len]: is any byte of [base, base+len) nonzero
    (i.e. is a record at [base] allocated)? {!Pmem.Device.read_nonzero}:
    billed as one read, never faulted, never copied. *)

(** {1 Record windows}

    Parsers over a zero-copy window [(buf, pos)] on a record (see
    {!Pmem.Device.record_view}): each [of_window] decodes exactly what
    the matching [decode] reads from the device, but touches no device
    and charges nothing. *)

val word : Bytes.t -> int -> int
(** The little-endian u64 at [pos], as {!Pmem.Device.read_u64} reads it. *)

val window_nonzero : Bytes.t -> int -> int -> bool
(** [window_nonzero buf pos len]: is any byte of the [len]-byte record at
    [pos] nonzero? [len] must be a multiple of 8. Raises
    [Invalid_argument] if it is not, or if the window leaves [buf]. *)

val crc_ns : int
(** Simulated software cost of computing one record checksum. *)

module Inode : sig
  (* Field byte offsets within a 128-byte inode record. *)
  val f_ino : int (* u64; non-zero = allocated *)
  val f_kind : int (* u64 *)
  val f_links : int (* u64 *)
  val f_size : int (* u64, bytes *)
  val f_atime : int (* u64 ns *)
  val f_mtime : int (* u64 ns *)
  val f_ctime : int (* u64 ns *)
  val f_mode : int (* u64 *)
  val f_uid : int (* u64 *)
  val f_gid : int (* u64 *)
  val f_crc : int (* u32 over [sealed_ranges] *)

  val sealed_ranges : (int * int) list
  (** [(off, len)] pairs, relative to the record base, covered by the
      CRC: ino, kind, mode, uid, gid and the zero padding. *)

  type t = {
    ino : int;
    kind : Kind.t;
    links : int;
    size : int;
    atime : int;
    mtime : int;
    ctime : int;
    mode : int;
    uid : int;
    gid : int;
  }

  val decode : Pmem.Device.t -> base:int -> t option
  (** [None] if the record is free (ino field zero) or malformed. Reads
      the record through one {!Pmem.Device.record_view} window and bills
      it with one {!Pmem.Device.charge_reads} as the field reads it
      stands for: one {!Pmem.Device.read_u64} for a free record, two for
      an invalid kind, ten for a decoded one. *)

  val of_window : Bytes.t -> int -> t option
  (** {!decode} over a record window. *)

  val is_allocated : Pmem.Device.t -> base:int -> bool
  (** Any byte non-zero. *)

  val seal : Pmem.Device.t -> base:int -> unit
  (** Store the CRC of the sealed fields (plain store; the caller's init
      flush + fence makes it durable with the rest of the init group). *)

  val verify : Pmem.Device.t -> base:int -> bool
  (** Recompute and compare; [false] also on a persistent
      {!Pmem.Device.Media_error}. Only meaningful on csum volumes. *)
end

module Dentry : sig
  val f_name : int (* 110-byte NUL-padded name *)
  val f_ino : int (* u64; non-zero = valid *)
  val f_rename_ptr : int (* u64 byte offset of source dentry, 0 = none *)

  type t = { name : string; ino : int; rename_ptr : int }

  val decode : Pmem.Device.t -> base:int -> t option
  (** [None] if the record is entirely free (all bytes zero); otherwise
      the decoded entry, which may still be invalid ([ino = 0]). *)

  val name_of_window : Bytes.t -> int -> string
  (** The [name] {!decode} reads, over the window of an allocated
      record. *)

  val is_allocated : Pmem.Device.t -> base:int -> bool
end

module Desc : sig
  (* Page descriptor: 64 bytes. Ordering rule: [kind] and [offset] are set
     while the descriptor is invisible; setting [ino] (the backpointer) is
     the 8-byte atomic commit that makes the page owned. *)
  val f_ino : int (* u64 backpointer; non-zero = owned *)
  val f_kind : int (* u64: 1 data, 2 dir *)
  val f_offset : int (* u64 page index within the file *)
  val f_replaces : int
  (* u64: 1 + page this one atomically replaces (COW data writes), 0 = none *)
  val f_crc : int (* u32 over [sealed_ranges] *)

  val sealed_ranges : (int * int) list
  (** kind and offset plus zero padding; the ino backpointer and
      [replaces] are mutable and excluded. *)

  type page_kind = Data | Dirpage

  type t = { ino : int; kind : page_kind; offset : int; replaces : int }

  val decode : Pmem.Device.t -> base:int -> t option
  (** [None] if free; entries with [ino = 0] but non-zero metadata decode
      to [Some { ino = 0; _ }] so the mount scan can treat them as
      allocated-but-invalid. *)

  val of_window : Bytes.t -> int -> t option
  (** {!decode} over a record window. *)

  val replaced : Geometry.t -> t -> int option
  (** The page whose contents this descriptor's replace word says it
      replaces: [Some (replaces - 1)] when [1 <= replaces <= page_count],
      else [None] — no pointer, or one out of range (negative or past
      the volume), which recovery leaves set and [Fsck.check] reports.
      The one reading of the word for mount, raw fsck and fsck. *)

  val is_allocated : Pmem.Device.t -> base:int -> bool
  val kind_to_int : page_kind -> int
  val kind_of_int : int -> page_kind option

  val seal : Pmem.Device.t -> base:int -> unit
  val verify : Pmem.Device.t -> base:int -> bool
end

module Superblock : sig
  val magic : int

  val f_magic : int
  val f_version : int
  val f_device_size : int
  val f_inode_count : int
  val f_page_count : int
  val f_inode_table_off : int
  val f_page_desc_off : int
  val f_data_off : int
  val f_clean : int (* u64: 1 = cleanly unmounted *)
  val f_flags : int (* u64: bit 0 = metadata checksums enabled *)
  val f_crc : int (* u32 over [sealed_ranges] *)

  val sealed_ranges : (int * int) list

  type t = { geometry : Geometry.t; clean : bool; csum : bool }

  val write : ?csum:bool -> Pmem.Device.t -> Geometry.t -> clean:bool -> unit
  (** Persist a fresh superblock (mkfs path): non-temporal stores plus a
      fence. With [~csum:true] (default false) the checksum flag and the
      superblock's own CRC are also written; with the default the byte
      image and store sequence are identical to pre-checksum builds. *)

  val read : Pmem.Device.t -> t option
  (** [None] if the magic does not match. *)

  val verify : Pmem.Device.t -> bool
  (** Check the superblock CRC (meaningful only when [csum] is set). *)

  val set_clean : Pmem.Device.t -> bool -> unit
  (** Atomically update the clean-unmount flag and persist it. *)
end
