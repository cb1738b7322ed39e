(** Span-driven scans of the on-PM object tables.

    Offsets outside {!Pmem.Device.backed_spans} are durably zero, so
    records there can be skipped by any scan looking for allocated
    state. The cost is proportional to backed (touched) space, not
    volume size. *)

val iter_objects :
  Pmem.Device.t ->
  table_off:int ->
  obj_size:int ->
  first:int ->
  last:int ->
  (int -> unit) ->
  unit
(** Visit, ascending and exactly once, every index [i] in
    [first..last] whose record at [table_off + (i - first) * obj_size]
    intersects a backed span. Records must not straddle backing
    chunks (all table record sizes divide {!Pmem.Sbuf.chunk_bytes}). *)

val inodes : Pmem.Device.t -> Layout.Geometry.t -> (int -> unit) -> unit
(** Backed inode indices [1..inode_count]. *)

val pages : Pmem.Device.t -> Layout.Geometry.t -> (int -> unit) -> unit
(** Backed page indices [0..page_count-1]. *)
