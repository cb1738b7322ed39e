(* Unit and property tests for the volatile run-index allocator:
   O(1) population, reservation, contiguous/aligned extents, the LIFO
   freed-page stack and domain-safety. *)

module Alloc = Squirrelfs.Alloc
module Geometry = Layout.Geometry

let geo_small = Geometry.compute ~device_size:(2 * 1024 * 1024)
let geo_big = Geometry.compute ~device_size:(8 * 1024 * 1024)

(* {1 Freed pages} *)

let test_freed_pages_lifo () =
  let t = Alloc.populated geo_small in
  let take () = Alloc.alloc_page t in
  let first = take () in
  let second = take () in
  let third = take () in
  Alcotest.(check (list (option int))) "run map carves lowest first"
    [ Some 0; Some 1; Some 2 ] [ first; second; third ];
  Alloc.free_page t 0;
  Alloc.free_page t 2;
  Alcotest.(check (option int)) "last freed first" (Some 2) (take ());
  Alcotest.(check (option int)) "then the one before" (Some 0) (take ());
  Alcotest.(check (option int)) "then the run map again" (Some 3) (take ())

(* {1 Population, reservation, extents} *)

let test_counts_match_geometry () =
  let t = Alloc.populated geo_big in
  Alcotest.(check int) "every inode but the root" (geo_big.inode_count - 1)
    (Alloc.free_inode_count t);
  Alcotest.(check int) "every page" geo_big.page_count
    (Alloc.free_page_count t)

let test_indexed_inode_order () =
  (* ascending from 2 (root excluded) *)
  let t = Alloc.populated geo_small in
  Alcotest.(check (option int)) "first" (Some 2) (Alloc.alloc_inode t);
  Alcotest.(check (option int)) "second" (Some 3) (Alloc.alloc_inode t);
  Alloc.free_inode t 2;
  Alcotest.(check (option int)) "freed numbers reallocate LIFO" (Some 2)
    (Alloc.alloc_inode t)

let test_reserve_splits_runs () =
  let t = Alloc.populated geo_small in
  let n0 = Alloc.free_page_count t in
  Alloc.reserve t ~inos:[] ~pages:[ 10 ];
  Alcotest.(check int) "one fewer" (n0 - 1) (Alloc.free_page_count t);
  Alcotest.check_raises "double reserve raises"
    (Invalid_argument "Core.Alloc.reserve: page is not free") (fun () ->
      Alloc.reserve t ~inos:[] ~pages:[ 10 ]);
  (* the split runs still hand out everything around the hole *)
  Alloc.free_page t 10;
  Alcotest.(check int) "returned" n0 (Alloc.free_page_count t);
  Alloc.reserve t ~inos:[ 5 ] ~pages:[];
  Alcotest.check_raises "double inode reserve raises"
    (Invalid_argument "Core.Alloc.reserve: inode is not free") (fun () ->
      Alloc.reserve t ~inos:[ 5 ] ~pages:[])

let test_extent_contiguous_and_aligned () =
  let t = Alloc.populated geo_big in
  (match Alloc.alloc_extent t 8 with
  | Some (start, len) ->
      Alcotest.(check int) "length as asked" 8 len;
      ignore start
  | None -> Alcotest.fail "extent on a fresh allocator");
  match Alloc.alloc_extent ~align:16 t 8 with
  | Some (start, _) -> Alcotest.(check int) "aligned start" 0 (start mod 16)
  | None -> Alcotest.fail "aligned extent"

let test_alloc_pages_hugepage_alignment () =
  let t = Alloc.populated geo_big in
  (* skew the run map so an unaligned prefix exists *)
  Alloc.reserve t ~inos:[] ~pages:[ 0 ];
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
      let t = Alloc.populated geo_big in
      let total = Alloc.free_page_count t in
      let worker _ =
        Domain.spawn (fun () ->
            let singles = ref [] in
            for _ = 1 to per_domain do
              match Alloc.alloc_page t with
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
      let t = Alloc.populated geo_big in
      let exts = List.filter_map (fun n -> Alloc.alloc_extent t n) sizes in
      let pages =
        List.concat_map (fun (s, l) -> List.init l (fun i -> s + i)) exts
      in
      List.length (List.sort_uniq compare pages) = List.length pages)

let unit_tests =
  [
    ("freed pages LIFO before the run map", `Quick, test_freed_pages_lifo);
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
