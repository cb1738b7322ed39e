(* Volatile allocators (paper §3.4).

   Free space is a map of maximal runs (start -> len) with a by-length
   index, one LIFO stack for freed singles, and the same run structure
   for inode numbers. Population is O(1) from geometry (one run covering
   everything), single-page alloc and reservation are O(log runs), and
   contiguous extents — optionally alignment-constrained, WineFS-style —
   are carved straight from the run index. Mount rebuild starts from the
   fully-free state and *reserves* the allocated objects it discovers,
   so its allocator cost is proportional to live data, never to volume
   size. *)

module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

type t = {
  (* inode space: freed numbers reallocate LIFO, then the untouched
     run-set ascending *)
  mutable ino_stack : int list;
  mutable ino_runs : int Imap.t; (* start -> len, never-reused inodes *)
  mutable ino_free : int; (* stack + runs *)
  (* page space *)
  mutable runs : int Imap.t; (* start -> len, maximal free runs *)
  mutable by_len : Iset.t Imap.t; (* len -> set of run starts *)
  mutable run_pages : int;
  mutable stack : int list; (* freed singles, LIFO *)
  mutable stack_size : int;
  lock : Mutex.t;
}

(* Fully-free allocator in O(1): one inode run [2, inode_count], one
   page run [0, page_count). The mount rebuild starts here and carves
   out the live objects it discovers with [reserve_*]. *)
let populated (g : Layout.Geometry.t) =
  let n_ino = max 0 (g.inode_count - 1) and n_pages = g.page_count in
  {
    ino_stack = [];
    ino_runs = (if n_ino > 0 then Imap.singleton 2 n_ino else Imap.empty);
    ino_free = n_ino;
    runs = (if n_pages > 0 then Imap.singleton 0 n_pages else Imap.empty);
    by_len =
      (if n_pages > 0 then Imap.singleton n_pages (Iset.singleton 0)
       else Imap.empty);
    run_pages = n_pages;
    stack = [];
    stack_size = 0;
    lock = Mutex.create ();
  }

(* {1 Run-map primitives} *)

let by_len_add t ~start ~len =
  t.by_len <-
    Imap.update len
      (function
        | None -> Some (Iset.singleton start)
        | Some s -> Some (Iset.add start s))
      t.by_len

let by_len_remove t ~start ~len =
  t.by_len <-
    Imap.update len
      (function
        | None -> None
        | Some s ->
            let s = Iset.remove start s in
            if Iset.is_empty s then None else Some s)
      t.by_len

let run_insert t ~start ~len =
  t.runs <- Imap.add start len t.runs;
  by_len_add t ~start ~len

(* Carve [want, want+n) out of the run starting at [start]. *)
let run_carve t ~start ~len ~want ~n =
  t.runs <- Imap.remove start t.runs;
  by_len_remove t ~start ~len;
  if want > start then run_insert t ~start ~len:(want - start);
  let tail = start + len - (want + n) in
  if tail > 0 then run_insert t ~start:(want + n) ~len:tail;
  t.run_pages <- t.run_pages - n

(* {1 Inodes} *)

let alloc_inode t =
  match t.ino_stack with
  | ino :: rest ->
      t.ino_stack <- rest;
      t.ino_free <- t.ino_free - 1;
      Some ino
  | [] -> (
      match Imap.min_binding_opt t.ino_runs with
      | None -> None
      | Some (s, l) ->
          t.ino_runs <- Imap.remove s t.ino_runs;
          if l > 1 then t.ino_runs <- Imap.add (s + 1) (l - 1) t.ino_runs;
          t.ino_free <- t.ino_free - 1;
          Some s)

let free_inode t ino =
  t.ino_stack <- ino :: t.ino_stack;
  t.ino_free <- t.ino_free + 1

(* The runs of [runs] with ascending, distinct [items] carved out, as
   carving each in turn leaves them. *)
let carve_ascending what runs items =
  let rec go acc runs items =
    match (runs, items) with
    | _, [] -> List.rev_append acc runs
    | (s, l) :: rest, i :: items' ->
        if i >= s + l then go ((s, l) :: acc) rest items
        else if i < s then invalid_arg what
        else
          let acc = if i > s then (s, i - s) :: acc else acc in
          if s + l > i + 1 then go acc ((i + 1, s + l - (i + 1)) :: rest) items'
          else go acc rest items'
    | [], _ :: _ -> invalid_arg what
  in
  go [] (Imap.bindings runs) items

(* Carve the live objects a mount finds out of the run maps, in one
   pass over each: [inos] and [pages] ascending and distinct. The stack
   of freed inodes must be empty, as it is while a mount rebuilds. *)
let reserve t ~inos ~pages =
  if t.ino_stack <> [] then invalid_arg "Core.Alloc.reserve: freed inodes";
  let ino_runs = carve_ascending "Core.Alloc.reserve: inode is not free" t.ino_runs inos in
  t.ino_runs <- Imap.of_seq (List.to_seq ino_runs);
  t.ino_free <- t.ino_free - List.length inos;
  let runs = carve_ascending "Core.Alloc.reserve: page is not free" t.runs pages in
  t.runs <- Imap.of_seq (List.to_seq runs);
  t.by_len <- Imap.empty;
  List.iter (fun (start, len) -> by_len_add t ~start ~len) runs;
  t.run_pages <- t.run_pages - List.length pages

(* {1 Pages} *)

(* Freed pages first (LIFO), then the lowest page of the run map. *)
let alloc_page t =
  match t.stack with
  | p :: rest ->
      t.stack <- rest;
      t.stack_size <- t.stack_size - 1;
      Some p
  | [] ->
      if t.run_pages = 0 then None
      else begin
        let start, len = Imap.min_binding t.runs in
        run_carve t ~start ~len ~want:start ~n:1;
        Some start
      end

let free_page t page =
  t.stack <- page :: t.stack;
  t.stack_size <- t.stack_size + 1

(* Remove one specific page from whatever run contains it. *)
let free_page_count t = t.run_pages + t.stack_size
let free_inode_count t = t.ino_free

(* 2 MiB of 4 KiB pages: the alignment unit for huge allocations. *)
let hugepage_pages = 512

(* Contiguous extent of [n] pages, optionally at an [align]-page
   boundary (WineFS-style hugepage placement). Carved from the run
   index: smallest run that fits wins, smallest start among equals.
   [None] when fragmentation leaves no contiguous fit. *)
let alloc_extent ?(align = 1) t n =
  if n <= 0 || align <= 0 then invalid_arg "Core.Alloc.alloc_extent";
  let aligned_want start = (start + align - 1) / align * align in
  let fit (start, len) =
    let w = aligned_want start in
    if w + n <= start + len then Some (start, len, w) else None
  in
  let pick need =
    match Imap.find_first_opt (fun l -> l >= need) t.by_len with
    | None -> None
    | Some (len, starts) -> fit (Iset.min_elt starts, len)
  in
  let choice =
    match pick n with
    | Some _ as c -> c
    | None ->
        (* alignment didn't fit the tightest run: a run of
           n + align - 1 pages always contains an aligned window *)
        if align > 1 then pick (n + align - 1) else None
  in
  match choice with
  | None -> None
  | Some (start, len, want) ->
      run_carve t ~start ~len ~want ~n;
      Some (want, n)

let alloc_pages t n =
  if free_page_count t < n then None
  else begin
    (* Prefer one contiguous extent — ascending physical pages, so large
       files lay out sequentially and the split data path can relink
       whole extents. Hugepage-sized allocations also try for a
       hugepage-aligned start first (WineFS-style placement). Fragmented
       volumes fall back to page-at-a-time. *)
    let extent =
      if n >= 2 then
        let aligned =
          if n >= hugepage_pages then alloc_extent ~align:hugepage_pages t n
          else None
        in
        match (match aligned with Some _ as e -> e | None -> alloc_extent t n)
        with
        | Some (start, len) -> Some (List.init len (fun i -> start + i))
        | None -> None
      else None
    in
    match extent with
    | Some pages -> Some pages
    | None -> (
        let rec go acc k =
          if k = 0 then Some acc
          else
            match alloc_page t with
            | Some p -> go (p :: acc) (k - 1)
            | None -> (* cannot happen: we checked the total *) None
        in
        match go [] n with
        | Some pages -> Some (List.rev pages)
        | None -> None)
  end

(* {1 Concurrency}

   The inode free structures and the page stack/runs are shared by
   every domain executing ops under the [Serve] engine. Each public
   entry point takes one short critical section on the instance's own
   lock; the wrappers shadow the lock-free bodies above, which keep
   calling each other directly ([alloc_pages] -> [alloc_page] stays on
   the unlocked bodies, so a plain [Mutex] is enough), and independent
   mounts never contend. *)

let locked t f = Mutex.protect t.lock f

let alloc_inode t = locked t (fun () -> alloc_inode t)
let free_inode t ino = locked t (fun () -> free_inode t ino)
let reserve t ~inos ~pages = locked t (fun () -> reserve t ~inos ~pages)
let alloc_page t = locked t (fun () -> alloc_page t)
let free_page t page = locked t (fun () -> free_page t page)
let alloc_extent ?align t n = locked t (fun () -> alloc_extent ?align t n)
let free_page_count t = locked t (fun () -> free_page_count t)
let free_inode_count t = locked t (fun () -> free_inode_count t)
let alloc_pages t n = locked t (fun () -> alloc_pages t n)
