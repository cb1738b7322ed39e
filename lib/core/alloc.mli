(** Volatile allocators (paper §3.4).

    Allocation state is not persisted: it is rebuilt from the on-PM
    tables at mount. One page allocator and one inode allocator serve
    the whole volume; the paper's per-CPU page allocators are not
    modelled.

    Free space is kept as maximal runs with a by-length index:
    population is O(1) from geometry, single-page allocation is
    O(log runs), a mount's {!reserve} one pass, and contiguous
    (optionally aligned) extents are carved directly from the run
    index. Freed pages go to one LIFO stack, freed inode numbers to
    another. *)

type t

val populated : Layout.Geometry.t -> t
(** Allocator with every inode (except the root) and every page free,
    in O(1): one run each. Carve out live objects with {!reserve}. *)

val reserve : t -> inos:int list -> pages:int list -> unit
(** Remove currently-free inode numbers and pages, each list ascending
    and distinct, from the allocator (the mount rebuild: start fully
    free, reserve what the scan finds live), in one pass over the run
    maps: O(runs + objects). Raises [Invalid_argument] if one is not
    free in the runs, or if freed inode numbers are stacked. *)

val alloc_inode : t -> int option
(** Freed numbers first (LIFO), then the never-used ones ascending. *)

val free_inode : t -> int -> unit

val alloc_page : t -> int option
(** Takes the most recently freed page, then the lowest free page of
    the run map. *)

val alloc_pages : t -> int -> int list option
(** [n] pages or nothing (no partial allocation). Prefers one
    physically contiguous ascending extent, falling back to
    page-at-a-time under fragmentation. *)

val free_page : t -> int -> unit

val hugepage_pages : int
(** Pages per 2 MiB hugepage — the alignment {!alloc_pages} requests
    for allocations at least this large. *)

val alloc_extent : ?align:int -> t -> int -> (int * int) option
(** [alloc_extent ?align t n] carves a physically contiguous run of [n]
    pages whose start is a multiple of [align] (WineFS-style hugepage
    placement), returning [(start, n)]. Smallest fitting run wins,
    lowest start among equals. [None] when no contiguous fit exists. *)

val free_inode_count : t -> int
val free_page_count : t -> int
