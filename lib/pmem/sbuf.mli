(** Chunked storage buffer backing the simulated device images.

    A two-level chunk table at every size: chunks are backed on first
    store, unbacked chunks read as zero, and resident memory tracks
    touched chunks rather than volume size. Every access is two array
    loads. Aliasing a value shares the table, like aliasing a
    [Bytes.t]. *)

type t

val chunk_bytes : int
(** Chunk granularity; a multiple of the 64-byte device line size, so a
    cache line never straddles two chunks. *)

val create : size:int -> t
(** All-zero buffer with nothing backed: O(size / 1 MiB). *)

val length : t -> int

val get : t -> int -> char
val set : t -> int -> char -> unit

val get_int64_le : t -> int -> int64
val get_int32_le : t -> int -> int32

val sub : t -> off:int -> len:int -> Bytes.t
(** Fresh dense copy of the range (unbacked gaps read as zero). *)

val blit_to_bytes : t -> off:int -> len:int -> Bytes.t -> int -> unit
(** [blit_to_bytes t ~off ~len dst pos] copies the range into [dst] from
    [pos], as {!sub} would have returned it. *)

val range_nonzero : t -> off:int -> len:int -> bool
(** Does the range hold a nonzero byte? Tested in place, chunk by
    chunk, with no copy; an unbacked chunk counts as zero. *)

val blit_string : string -> pos:int -> len:int -> t -> int -> unit
(** [blit_string src ~pos ~len t off] stores the [len] bytes of [src]
    from [pos] at [off], backing chunks as needed. *)

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Buffer-to-buffer copy between distinct buffers; where [src] is
    unbacked the destination range is zeroed (without backing fresh
    destination chunks). *)

val sync : src:t -> dst:t -> unit
(** Make [dst] content-equal to [src], with the same backed chunks, in
    place (the table object survives, so aliases remain valid).
    O(size / 1 MiB + backed chunks). *)

val load_bytes : t -> Bytes.t -> unit
(** Reload from a dense image of the same size, backing exactly the
    chunks that hold a nonzero byte. *)

val copy : t -> t
(** Deep copy with the same backed chunks. *)

val to_bytes : t -> Bytes.t
(** Materialize as a fresh dense image — O(size). *)

val line_view : t -> off:int -> len:int -> (Bytes.t * int) option
(** Zero-copy window over a range that must not straddle chunks (device
    cache lines). [Some (buf, off)] gives the backing bytes and the
    range's offset within them; [None] means unbacked, i.e. the range
    is provably all-zero. *)

val chunk_unbacked : t -> int -> bool
(** Is the chunk containing this offset unbacked (provably zero)? *)

val backed_spans : t -> (int * int) list
(** Merged ascending [(off, len)] byte spans of backed chunks. *)

val resident_bytes : t -> int
(** Resident payload: backed chunks times [chunk_bytes]. *)
