(* Unit and property tests for the volatile run-index allocator:
   O(1) population, reservation, contiguous/aligned extents, the
   per-CPU freed-page stacks (with the floor-mod cpu-hint and
   steal-rotation fixes) and domain-safety. *)

module Alloc = Squirrelfs.Alloc
module Geometry = Layout.Geometry

let geo_small = Geometry.compute ~device_size:(2 * 1024 * 1024)
let geo_big = Geometry.compute ~device_size:(8 * 1024 * 1024)

(* An allocator whose run map is used up: every later allocation comes
   from the per-CPU freed-page stacks, so the steal path runs. *)
let exhausted ~cpus =
  let t = Alloc.populated ~cpus geo_small in
  let rec drain () =
    match Alloc.alloc_page t with Some _ -> drain () | None -> ()
  in
  drain ();
  t

(* {1 cpu-hint normalization (regression: negative hints raised)} *)

let test_negative_cpu_hint () =
  let t = Alloc.populated ~cpus:4 geo_small in
  (match Alloc.alloc_page ~cpu:(-1) t with
  | Some p -> Alloc.free_page ~cpu:(-5) t p
  | None -> Alcotest.fail "alloc_page ~cpu:(-1) returned None");
  match Alloc.alloc_page ~cpu:(-7) t with
  | Some _ -> ()
  | None -> Alcotest.fail "alloc_page ~cpu:(-7) returned None"

let test_negative_hint_floor_mod () =
  (* -1 mod 4 must select stack 3 (floor), not stack -1 (truncation). *)
  let t = exhausted ~cpus:4 in
  List.iter (fun c -> Alloc.free_page ~cpu:c t c) [ 0; 1; 2; 3 ];
  Alcotest.(check (option int)) "cpu -1 is stack 3" (Some 3)
    (Alloc.alloc_page ~cpu:(-1) t);
  Alloc.free_page ~cpu:(-5) t 9;
  Alcotest.(check (option int)) "free to cpu -5 lands on stack 3" (Some 9)
    (Alloc.alloc_page ~cpu:3 t)

(* {1 Steal rotation (regression: steals always drained stack 0 first)} *)

let test_steal_starts_after_requester () =
  let t = exhausted ~cpus:3 in
  (* stacks: 0 -> [10], 1 -> [11], 2 -> [12] *)
  List.iteri (fun c p -> Alloc.free_page ~cpu:c t p) [ 10; 11; 12 ];
  Alcotest.(check (option int)) "own stack first" (Some 11)
    (Alloc.alloc_page ~cpu:1 t);
  Alcotest.(check (option int)) "steal from the stack after the requester"
    (Some 12)
    (Alloc.alloc_page ~cpu:1 t);
  Alcotest.(check (option int)) "then wrap around" (Some 10)
    (Alloc.alloc_page ~cpu:1 t);
  Alcotest.(check (option int)) "exhausted" None (Alloc.alloc_page ~cpu:1 t)

let test_steal_fairness () =
  let cpus = 4 in
  let t = exhausted ~cpus in
  (* one page per stack: every CPU is served from its own stack first *)
  for c = 0 to cpus - 1 do
    Alloc.free_page ~cpu:c t (100 + c)
  done;
  Alcotest.(check (list (option int))) "own stacks served first"
    (List.init cpus (fun c -> Some (100 + c)))
    (List.init cpus (fun c -> Alloc.alloc_page ~cpu:c t));
  (* With its own stack empty and every other stack holding one page,
     requester c steals from (c+1) mod cpus first and then rotates — no
     stack is systematically drained before the others. *)
  for c = 0 to cpus - 1 do
    for d = 0 to cpus - 1 do
      if d <> c then Alloc.free_page ~cpu:d t (200 + d)
    done;
    Alcotest.(check (list (option int)))
      (Printf.sprintf "requester %d rotates from its successor" c)
      (List.init (cpus - 1) (fun k -> Some (200 + ((c + 1 + k) mod cpus))))
      (List.init (cpus - 1) (fun _ -> Alloc.alloc_page ~cpu:c t));
    Alcotest.(check int) "empty again" 0 (Alloc.free_page_count t)
  done

(* {1 Population, reservation, extents} *)

let test_counts_match_geometry () =
  let t = Alloc.populated ~cpus:4 geo_big in
  Alcotest.(check int) "every inode but the root" (geo_big.inode_count - 1)
    (Alloc.free_inode_count t);
  Alcotest.(check int) "every page" geo_big.page_count
    (Alloc.free_page_count t)

let test_indexed_inode_order () =
  (* ascending from 2 (root excluded) *)
  let t = Alloc.populated ~cpus:2 geo_small in
  Alcotest.(check (option int)) "first" (Some 2) (Alloc.alloc_inode t);
  Alcotest.(check (option int)) "second" (Some 3) (Alloc.alloc_inode t);
  Alloc.free_inode t 2;
  Alcotest.(check (option int)) "freed numbers reallocate LIFO" (Some 2)
    (Alloc.alloc_inode t)

let test_reserve_splits_runs () =
  let t = Alloc.populated ~cpus:2 geo_small in
  let n0 = Alloc.free_page_count t in
  Alloc.reserve_page t 10;
  Alcotest.(check int) "one fewer" (n0 - 1) (Alloc.free_page_count t);
  Alcotest.check_raises "double reserve raises"
    (Invalid_argument "Core.Alloc.reserve_page: page is not free") (fun () ->
      Alloc.reserve_page t 10);
  (* the split runs still hand out everything around the hole *)
  Alloc.free_page t 10;
  Alcotest.(check int) "returned" n0 (Alloc.free_page_count t);
  Alloc.reserve_inode t 5;
  Alcotest.check_raises "double inode reserve raises"
    (Invalid_argument "Core.Alloc.reserve_inode: inode is not free") (fun () ->
      Alloc.reserve_inode t 5)

let test_extent_contiguous_and_aligned () =
  let t = Alloc.populated ~cpus:2 geo_big in
  (match Alloc.alloc_extent t 8 with
  | Some (start, len) ->
      Alcotest.(check int) "length as asked" 8 len;
      ignore start
  | None -> Alcotest.fail "extent on a fresh allocator");
  match Alloc.alloc_extent ~align:16 t 8 with
  | Some (start, _) -> Alcotest.(check int) "aligned start" 0 (start mod 16)
  | None -> Alcotest.fail "aligned extent"

let test_alloc_pages_hugepage_alignment () =
  let t = Alloc.populated ~cpus:2 geo_big in
  (* skew the run map so an unaligned prefix exists *)
  Alloc.reserve_page t 0;
  let n = Alloc.hugepage_pages in
  match Alloc.alloc_pages t n with
  | None -> Alcotest.fail "hugepage-sized alloc failed"
  | Some pages ->
      let first = List.hd pages in
      Alcotest.(check int) "hugepage aligned" 0 (first mod n);
      Alcotest.(check int) "count" n (List.length pages);
      List.iteri
        (fun i p -> Alcotest.(check int) "ascending contiguous" (first + i) p)
        pages

(* {1 Domain-parallel properties} *)

let prop_parallel_conserves =
  QCheck.Test.make ~count:15
    ~name:"parallel alloc/free: conserved count, no double allocation"
    QCheck.(pair (int_range 1 48) (int_range 2 4))
    (fun (per_domain, nd) ->
      let t = Alloc.populated ~cpus:nd geo_big in
      let total = Alloc.free_page_count t in
      let worker id =
        Domain.spawn (fun () ->
            let singles = ref [] in
            for _ = 1 to per_domain do
              match Alloc.alloc_page ~cpu:id t with
              | Some p -> singles := p :: !singles
              | None -> ()
            done;
            let ext = Alloc.alloc_extent ~align:8 t 8 in
            (!singles, ext))
      in
      let results = List.init nd worker |> List.map Domain.join in
      let all_pages =
        List.concat_map
          (fun (singles, ext) ->
            singles
            @
            match ext with
            | Some (s, l) -> List.init l (fun i -> s + i)
            | None -> [])
          results
      in
      let distinct = List.sort_uniq compare all_pages in
      let no_dups = List.length distinct = List.length all_pages in
      let count_ok =
        Alloc.free_page_count t = total - List.length all_pages
      in
      (* return everything; the allocator must account back to full *)
      List.iter
        (fun (singles, ext) ->
          List.iter (Alloc.free_page t) singles;
          match ext with
          | Some (s, l) ->
              for p = s to s + l - 1 do
                Alloc.free_page t p
              done
          | None -> ())
        results;
      no_dups && count_ok && Alloc.free_page_count t = total)

let prop_extents_disjoint =
  QCheck.Test.make ~count:25 ~name:"extent allocations are pairwise disjoint"
    QCheck.(list_of_size Gen.(1 -- 12) (int_range 1 32))
    (fun sizes ->
      let t = Alloc.populated ~cpus:2 geo_big in
      let exts = List.filter_map (fun n -> Alloc.alloc_extent t n) sizes in
      let pages =
        List.concat_map (fun (s, l) -> List.init l (fun i -> s + i)) exts
      in
      List.length (List.sort_uniq compare pages) = List.length pages)

let unit_tests =
  [
    ("negative cpu hints accepted", `Quick, test_negative_cpu_hint);
    ("negative hint is floor-mod", `Quick, test_negative_hint_floor_mod);
    ("steal starts after requester", `Quick, test_steal_starts_after_requester);
    ("steal rotation fairness", `Quick, test_steal_fairness);
    ("counts match geometry", `Quick, test_counts_match_geometry);
    ("indexed inode order", `Quick, test_indexed_inode_order);
    ("reserve splits runs", `Quick, test_reserve_splits_runs);
    ("extents contiguous and aligned", `Quick, test_extent_contiguous_and_aligned);
    ("hugepage-aligned alloc_pages", `Quick, test_alloc_pages_hugepage_alignment);
  ]

let prop_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_parallel_conserves; prop_extents_disjoint ]

let () =
  Alcotest.run "alloc" [ ("alloc", unit_tests); ("alloc-props", prop_tests) ]
