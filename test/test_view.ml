(* Delta-view crash-state engine: equivalence with the legacy
   materialized path, scratch apply/revert round-trips, content-hash
   canonicality, and the zero-copy of_view borrow discipline. *)

module Device = Pmem.Device

let size = 1024

let sorted_strings imgs =
  List.sort compare (List.map Bytes.to_string imgs)

(* Random store/flush/fence programs over a small device. *)
type op = Store of int * string | Flush of int * int | Fence

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map2
            (fun off s -> Store (off mod (size - 16), s))
            (int_bound (size - 17))
            (string_size ~gen:(char_range 'a' 'z') (1 -- 12)) );
        ( 3,
          map2
            (fun off len ->
              let off = off mod (size - 16) in
              Flush (off, min (1 + (len mod 80)) (size - off)))
            (int_bound (size - 17))
            (int_bound 79) );
        (1, return Fence);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Store (off, s) -> Printf.sprintf "store %d %S" off s
             | Flush (off, len) -> Printf.sprintf "flush %d %d" off len
             | Fence -> "fence")
           ops))
    QCheck.Gen.(list_size (1 -- 25) op_gen)

let apply_op dev = function
  | Store (off, s) -> Device.store dev ~off s
  | Flush (off, len) -> Device.flush dev ~off ~len
  | Fence -> Device.fence dev

(* The satellite property: crash_views materialized through apply_view
   (one shared scratch, interleaved with fences that resync it) is
   set-equal as byte images to [materialize] over the same views, and
   every apply_view + revert_view round-trips the scratch back to the
   durable base bit-identically. *)
let prop_views_equal_images =
  QCheck.Test.make ~count:200 ~name:"views via scratch == legacy images; revert round-trips"
    ops_arb (fun ops ->
      let dev = Device.create ~size () in
      let s = Device.scratch dev in
      let ok = ref true in
      let probe () =
        let legacy = sorted_strings (Images.crash_images ~max_images:64 dev) in
        let via_scratch =
          List.map
            (fun v ->
              Device.apply_view s v;
              let img = Device.scratch_image s in
              Device.revert_view s;
              if not (Bytes.equal (Device.scratch_image s) (Device.image_durable dev))
              then ok := false;
              img)
            (Device.crash_views ~max_images:64 dev)
        in
        if sorted_strings via_scratch <> legacy then ok := false
      in
      List.iter
        (fun op ->
          apply_op dev op;
          probe ())
        ops;
      !ok)

(* view_hash is content-canonical: equal hash <-> equal materialized
   image (collisions in 64 bits would need ~2^32 states to matter). *)
let prop_view_hash_canonical =
  QCheck.Test.make ~count:100 ~name:"view_hash equal iff image equal" ops_arb
    (fun ops ->
      let dev = Device.create ~size () in
      List.iter (apply_op dev) ops;
      let views = Device.crash_views ~max_images:32 dev in
      let tagged =
        List.map
          (fun v -> (Device.view_hash dev v, Bytes.to_string (Device.materialize dev v)))
          views
      in
      List.for_all
        (fun (h1, i1) ->
          List.for_all
            (fun (h2, i2) -> Int64.equal h1 h2 = (String.equal i1 i2))
            tagged)
        tagged)

(* Cross-fence canonicality — the soundness of memoizing by view_hash:
   the hash of a pending state's view equals the durable hash after that
   same state drains, whatever the base was when it was hashed. *)
let test_hash_stable_across_fence () =
  let dev = Device.create ~size () in
  Device.store_u64 dev 128 0xFEED;
  Device.store_u64 dev 320 0xBEEF;
  Device.flush dev ~off:128 ~len:8;
  Device.flush dev ~off:320 ~len:8;
  let views = Device.crash_views dev in
  (* the all-applied view: both lines patched *)
  let all =
    List.find (fun v -> Device.view_patch_count v = 2) views
  in
  let h_before = Device.view_hash dev all in
  Device.fence dev;
  Alcotest.(check bool) "drained" true (Device.is_quiescent dev);
  Alcotest.(check int64) "view hash == durable hash after drain" h_before
    (Device.durable_hash dev);
  (* and the empty view of the quiescent device hashes the same *)
  match Device.crash_views dev with
  | [ v0 ] ->
      Alcotest.(check int64) "empty view hash" h_before (Device.view_hash dev v0)
  | l -> Alcotest.failf "expected 1 quiescent view, got %d" (List.length l)

(* Unchanged-content canonicalization: a view that patches a line with
   bytes identical to the durable base must hash like one that does not
   patch it at all. *)
let test_hash_ignores_noop_patches () =
  let dev = Device.create ~size () in
  Device.store_u64 dev 0 0x1234;
  Device.persist dev ~off:0 ~len:8;
  let h0 = Device.durable_hash dev in
  (* re-store the same value: pending record, content unchanged *)
  Device.store_u64 dev 0 0x1234;
  let views = Device.crash_views dev in
  Alcotest.(check int) "two views" 2 (List.length views);
  List.iter
    (fun v ->
      Alcotest.(check int64) "no-op patch hashes like base" h0
        (Device.view_hash dev v))
    views

let test_of_view_zero_copy_and_revert () =
  let dev = Device.create ~size () in
  Device.store_u64 dev 64 0xAB;
  Device.persist dev ~off:64 ~len:8;
  Device.store_u64 dev 192 0xCD;
  let s = Device.scratch dev in
  let v = List.find (fun v -> Device.view_patch_count v = 1) (Device.crash_views dev) in
  Device.apply_view s v;
  let d2 = Device.of_view s in
  Alcotest.(check int) "borrow sees base content" 0xAB (Device.read_u64 d2 64);
  Alcotest.(check int) "borrow sees the patch" 0xCD (Device.read_u64 d2 192);
  (* mutate through the borrow (a recovery would): must be reverted *)
  Device.store_u64 d2 448 0x77;
  Device.persist d2 ~off:448 ~len:8;
  Alcotest.(check int) "borrow wrote the shared buffer" 0x77
    (Int64.to_int (Bytes.get_int64_le (Device.scratch_image s) 448));
  Device.revert_view s;
  Alcotest.(check bool) "revert undoes patch and borrow writes" true
    (Bytes.equal (Device.scratch_image s) (Device.image_durable dev));
  Alcotest.(check int) "owner durable untouched by borrow" 0
    (Int64.to_int (Bytes.get_int64_le (Device.image_durable dev) 448))

let test_fence_resyncs_scratch () =
  let dev = Device.create ~size () in
  let s = Device.scratch dev in
  Device.store_u64 dev 0 0x11;
  Device.apply_view s
    (List.find (fun v -> Device.view_patch_count v = 1) (Device.crash_views dev));
  (* fence drains the flushed store and must leave the scratch mirroring
     the *new* durable base with the view implicitly reverted *)
  Device.persist dev ~off:0 ~len:8;
  Alcotest.(check bool) "scratch mirrors post-fence durable" true
    (Bytes.equal (Device.scratch_image s) (Device.image_durable dev));
  Alcotest.(check int) "drained value visible in scratch" 0x11
    (Int64.to_int (Bytes.get_int64_le (Device.scratch_image s) 0))

let test_faulty_views_match_faulty_images () =
  (* crash_views_faulty consumes the plan RNG identically on two devices
     running the same program, so they give the same sampled sets. *)
  let mk () =
    let dev = Device.create ~size () in
    Device.store_u64 dev 0 0x1111;
    Device.store dev ~off:100 "hello world";
    Device.store_u64 dev 512 0x2222;
    Device.flush dev ~off:0 ~len:8;
    Device.set_fault_plan dev
      (Faults.Plan.make ~seed:42 ~torn_line_rate:0.5 ~stuck_line_rate:0.3 ());
    dev
  in
  let d1 = mk () and d2 = mk () in
  let imgs = Images.crash_images_faulty ~max_images:12 d1 in
  let via_views =
    List.map (Device.materialize d2) (Device.crash_views_faulty ~max_images:12 d2)
  in
  Alcotest.(check (list string))
    "identical faulty state sets"
    (List.map Bytes.to_string imgs)
    (List.map Bytes.to_string via_views)

let unit_tests =
  [
    ("hash stable across fence", `Quick, test_hash_stable_across_fence);
    ("hash ignores no-op patches", `Quick, test_hash_ignores_noop_patches);
    ("of_view zero-copy + revert", `Quick, test_of_view_zero_copy_and_revert);
    ("fence resyncs scratch", `Quick, test_fence_resyncs_scratch);
    ("faulty views == faulty images", `Quick, test_faulty_views_match_faulty_images);
  ]

let prop_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_views_equal_images; prop_view_hash_canonical ]

let () =
  Alcotest.run "view" [ ("scratch", unit_tests); ("props", prop_tests) ]
