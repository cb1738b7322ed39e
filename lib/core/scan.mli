(** The one decoder of the on-PM object tables.

    [decode] reads every backed inode record, page descriptor and
    committed directory page once, through uncharged zero-copy windows
    on the device's visible image ({!Pmem.Device.record_view}), and
    returns the typed records with their slot indices. Offsets outside
    {!Pmem.Device.backed_spans} are durably zero, so a decode costs
    O(backed records), not O(volume size).

    One decode per crash view, plus updates. Each consumer
    ([Fsck.check_raw], [Mount.media_prepass], [Mount.rebuild],
    [Fsck.check]) calls [decode] and keeps its own logic, but [decode]
    remembers, per domain, its last decode of a borrowed
    ({!Pmem.Device.of_view}) device, keyed by the device itself ([==])
    and the geometry (compared structurally), with the
    {!Pmem.Device.content_version} it saw. At that version it returns
    the decode as it is, so a crash view's [check_raw] and mount share
    one decode of the pre-recovery bytes. After a store (a recovery
    write, mount's closing clean-flag store) it re-decodes only the
    records on the lines stored since
    ({!Pmem.Device.lines_stored_since}) and keeps the rest, so
    [Fsck.check] derives its state from the post-recovery media without
    a second full decode. A full decode is the same update, from
    {!empty}, over every backed span. A remembered decode is shared by
    its consumers: its arrays must not be mutated, and an update builds
    new arrays for each table it changes and shares the others. Live
    volumes are never remembered, since their decode would outlive the
    mount that indexed it (on a large volume, tens of MiB of names).

    A decode zero-tests each slot it reads once and charges no simulated
    time: mount bills the reads it models with
    {!Pmem.Device.charge_reads}. *)

type t = {
  inode_runs : int array;
      (** backed inode slots as ascending [lo; hi] pairs of inode numbers *)
  inos : int array;
      (** inode number of every nonzero (allocated) backed inode record,
          ascending *)
  ino_words : int array;  (** its raw [f_ino] word *)
  inodes : Layout.Records.Inode.t array;
      (** its decoded fields, or {!undecodable_inode} when [f_ino] is
          zero or [f_kind] names no kind *)
  page_runs : int array;  (** backed descriptor slots, like [inode_runs] *)
  pages : int array;
      (** page index of every nonzero backed descriptor, ascending *)
  desc_words : int array;  (** its raw [f_ino] word *)
  descs : Layout.Records.Desc.t array;
      (** its decoded fields, or {!undecodable_desc} when [f_kind] names
          no page kind *)
  dent_pages : int array;
      (** page of every nonzero dentry in a directory page — one whose
          descriptor decodes as a [Dirpage] with nonzero [ino] — ascending
          by page, then slot *)
  dent_slots : int array;  (** its slot within the page *)
  dent_names : string array;
  dent_inos : int array;
  dent_rptrs : int array;
      (** its decoded {!Layout.Records.Dentry.t} fields, as parallel
          arrays: a decode keeps no per-dentry block, so on a large
          volume the names that mount hands to the index are all that
          outlives it *)
  dent_ino_pos : int array;
      (** the position in [inos] of each dentry's [ino], or -1 when no
          record of that number is allocated *)
  desc_ino_pos : int array;
      (** the position in [inos] of each descriptor's [f_ino] word (its
          owner), or -1 *)
}

val decode : Pmem.Device.t -> Layout.Geometry.t -> t
(** Never raises on any table contents; charges nothing. On a borrowed
    device, returns the remembered decode ([==]) while the device,
    geometry and content version match, and updates it over the lines
    stored since while only the version moved. *)

val decode_media : Pmem.Device.t -> Layout.Geometry.t -> t
(** A full decode of the visible image, remembered nowhere: what
    [decode] answers, field by field. *)

val empty : t
(** The decode of a volume with no backed span. *)

type counts = { full_decodes : int; line_updates : int }

val counts : unit -> counts
(** The full decodes and the updates of a remembered decode that this
    domain has made so far. *)

val undecodable_inode : Layout.Records.Inode.t
(** Placeholder, compared with [==], for a nonzero inode record that
    does not decode. Its [ino] is 0, so it matches no slot. *)

val undecodable_desc : Layout.Records.Desc.t
(** Placeholder, compared with [==], for a nonzero descriptor that does
    not decode. Its [ino] is 0, so it owns nothing. *)

val inode_slots : t -> int
(** Backed inode slots, allocated or not. *)

val desc_slots : t -> int
(** Backed descriptor slots, allocated or not. *)

val inode_backed : t -> int -> bool
(** Does the slot of this inode number lie in a backed span? *)

val page_backed : t -> int -> bool

val inode_allocated : t -> int -> bool
(** Is this inode number's record nonzero (listed in [inos])? *)

val page_allocated : t -> int -> bool

val ino_index : t -> int -> int
(** The position of an allocated inode number in [inos], or -1. *)

val page_index : t -> int -> int
(** The position of a nonzero descriptor's page in [pages], or -1. *)

val dentry_index : t -> page:int -> slot:int -> int
(** The index of the decoded dentry at this page and slot, or -1. *)

val iter_dentries : t -> page:int -> (int -> unit) -> unit
(** [f k] for the index [k] of every decoded dentry of [page], by
    ascending slot. *)

val table_order : size:int -> int list -> int list
(** [keys] in the order a polymorphic hash table made with
    [Hashtbl.create size], into which they were added in this order,
    lists them. Recovery's stores and fsck's reports keep the orders
    such tables once gave them; the sets that decide them are arrays
    over the decode's positions. *)

val in_table_order : size:int -> int list -> (int * 'a) list -> (int * 'a) list
(** [items] stably sorted by the {!table_order} of [keys] of their
    keys (a key not in [keys] sorts last); the table is made only for
    two items or more. *)

val word : Pmem.Device.t -> int -> int
(** One u64 of the visible image, read through a window: uncharged. *)
