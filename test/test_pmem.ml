(* Unit and property tests for the PM device simulator: visibility,
   durability, atomicity and crash-image semantics. *)

module Device = Pmem.Device
module Latency = Pmem.Latency
module Sbuf = Pmem.Sbuf

let bytes_eq = Alcotest.testable (fun ppf b -> Fmt.string ppf (Bytes.to_string b |> String.escaped)) Bytes.equal

let mk ?(size = 4096) () = Device.create ~size ()

let read_str dev off len = Bytes.to_string (Device.read dev ~off ~len)

let test_store_visible () =
  let dev = mk () in
  Device.store dev ~off:100 "hello";
  Alcotest.(check string) "latest sees store" "hello" (read_str dev 100 5)

let test_store_not_durable () =
  let dev = mk () in
  Device.store dev ~off:0 "abc";
  let img = Device.image_durable dev in
  Alcotest.(check string) "durable unchanged" "\000\000\000"
    (Bytes.sub_string img 0 3)

let test_flush_alone_not_durable () =
  let dev = mk () in
  Device.store dev ~off:0 "abc";
  Device.flush dev ~off:0 ~len:3;
  let img = Device.image_durable dev in
  Alcotest.(check string) "flush without fence not durable" "\000\000\000"
    (Bytes.sub_string img 0 3)

let test_fence_alone_not_durable () =
  let dev = mk () in
  Device.store dev ~off:0 "abc";
  Device.fence dev;
  let img = Device.image_durable dev in
  Alcotest.(check string) "fence without flush not durable" "\000\000\000"
    (Bytes.sub_string img 0 3)

let test_persist_durable () =
  let dev = mk () in
  Device.store dev ~off:0 "abc";
  Device.persist dev ~off:0 ~len:3;
  let img = Device.image_durable dev in
  Alcotest.(check string) "persist makes durable" "abc"
    (Bytes.sub_string img 0 3);
  Alcotest.(check bool) "quiescent" true (Device.is_quiescent dev)

let test_store_after_flush_stays_pending () =
  let dev = mk () in
  Device.store dev ~off:0 "aaaa";
  Device.flush dev ~off:0 ~len:4;
  Device.store dev ~off:64 "bbbb";
  (* second store is in a different line and was never flushed *)
  Device.fence dev;
  let img = Device.image_durable dev in
  Alcotest.(check string) "flushed store durable" "aaaa"
    (Bytes.sub_string img 0 4);
  Alcotest.(check string) "unflushed store not durable" "\000\000\000\000"
    (Bytes.sub_string img 64 4)

let test_same_line_partial_flush () =
  let dev = mk () in
  Device.store dev ~off:0 "aaaa";
  Device.flush dev ~off:0 ~len:4;
  (* store to the same line after the clwb: not covered by it *)
  Device.store dev ~off:8 "bbbb";
  Device.fence dev;
  let img = Device.image_durable dev in
  Alcotest.(check string) "pre-clwb store durable" "aaaa"
    (Bytes.sub_string img 0 4);
  Alcotest.(check string) "post-clwb store pending" "\000\000\000\000"
    (Bytes.sub_string img 8 4);
  Alcotest.(check bool) "still dirty" false (Device.is_quiescent dev)

let test_u64_roundtrip () =
  let dev = mk () in
  let v = 0x1234_5678_9abc_def in
  Device.store_u64 dev 512 v;
  Alcotest.(check int) "u64 roundtrip" v (Device.read_u64 dev 512)

let test_u64_atomic_in_crash () =
  let dev = mk () in
  Device.store_u64 dev 0 0x1111111111111111;
  Device.persist dev ~off:0 ~len:8;
  Device.store_u64 dev 0 0x2222222222222222;
  let images = Images.crash_images dev in
  List.iter
    (fun img ->
      let d = Device.of_image img in
      let v = Device.read_u64 d 0 in
      Alcotest.(check bool) "either old or new, never torn" true
        (v = 0x1111111111111111 || v = 0x2222222222222222))
    images;
  Alcotest.(check int) "two crash states" 2 (List.length images)

let test_unaligned_u64_rejected () =
  let dev = mk () in
  Alcotest.check_raises "unaligned store_u64"
    (Invalid_argument "Pmem.Device.store_u64: unaligned") (fun () ->
      Device.store_u64 dev 4 1)

let test_large_store_can_tear () =
  let dev = mk () in
  (* A 16-byte store spans two 8-byte words: it may tear between them. *)
  Device.store dev ~off:0 "AAAAAAAABBBBBBBB";
  let images = Images.crash_images dev in
  Alcotest.(check int) "three crash states (0, 1 or 2 words)" 3
    (List.length images);
  let strings =
    List.map (fun img -> Bytes.sub_string img 0 16) images
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "torn states"
    (List.sort compare
       [
         String.make 16 '\000';
         "AAAAAAAA" ^ String.make 8 '\000';
         "AAAAAAAABBBBBBBB";
       ])
    strings

let test_cross_line_independent () =
  let dev = mk () in
  (* Two stores to different lines may persist in either order. *)
  Device.store_u64 dev 0 1;
  Device.store_u64 dev 64 2;
  let images = Images.crash_images dev in
  Alcotest.(check int) "2x2 crash states" 4 (List.length images);
  let exists f = List.exists f images in
  let v img off = Int64.to_int (Bytes.get_int64_le img off) in
  Alcotest.(check bool) "second without first possible" true
    (exists (fun img -> v img 0 = 0 && v img 64 = 2))

let test_same_word_ordered () =
  let dev = mk () in
  (* Two stores to the same word drain in order: the second cannot persist
     "without" the first (it overwrites it). Prefixes: none, first, both. *)
  Device.store_u64 dev 0 1;
  Device.store_u64 dev 0 2;
  let images = Images.crash_images dev in
  let vals =
    List.map (fun img -> Int64.to_int (Bytes.get_int64_le img 0)) images
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "prefix values" [ 0; 1; 2 ] vals

let test_of_image_quiescent () =
  let dev = mk () in
  Device.store dev ~off:0 "xyz";
  Device.persist dev ~off:0 ~len:3;
  let img = Device.image_durable dev in
  let dev2 = Device.of_image img in
  Alcotest.(check bool) "quiescent" true (Device.is_quiescent dev2);
  Alcotest.(check string) "content preserved" "xyz" (read_str dev2 0 3)

let test_zero_latency_clock () =
  let dev = mk () in
  Device.store dev ~off:0 "abcd";
  Device.persist dev ~off:0 ~len:4;
  Alcotest.(check int) "zero profile costs nothing" 0 (Device.now_ns dev)

let test_optane_latency_clock () =
  let dev = Device.create ~latency:Latency.optane ~size:4096 () in
  Device.store_u64 dev 0 42;
  let after_store = Device.now_ns dev in
  Alcotest.(check int) "store cost" Latency.optane.store_ns after_store;
  Device.flush dev ~off:0 ~len:8;
  Device.fence dev;
  let expected =
    Latency.optane.store_ns + Latency.optane.flush_ns
    + Latency.optane.fence_base_ns + Latency.optane.fence_line_ns
  in
  Alcotest.(check int) "persist cost" expected (Device.now_ns dev)

let test_charge () =
  let dev = mk () in
  Device.charge dev 500;
  Alcotest.(check int) "charged" 500 (Device.now_ns dev)

let test_fence_hook_runs () =
  let dev = mk () in
  let calls = ref 0 in
  Device.set_fence_hook dev (Some (fun _ -> incr calls));
  Device.store dev ~off:0 "a";
  Device.persist dev ~off:0 ~len:1;
  Device.fence dev;
  Alcotest.(check int) "hook per fence" 2 !calls

let test_fence_hook_sees_pending () =
  let dev = mk () in
  let seen = ref (-1) in
  Device.set_fence_hook dev
    (Some (fun d -> seen := Device.pending_line_count d));
  Device.store dev ~off:0 "a";
  Device.persist dev ~off:0 ~len:1;
  Alcotest.(check int) "pending visible at fence entry" 1 !seen

let test_nt_store () =
  let dev = mk () in
  Device.store_nt dev ~off:0 "hello";
  Alcotest.(check bool) "not yet durable" false
    (Bytes.sub_string (Device.image_durable dev) 0 5 = "hello");
  Device.fence dev;
  Alcotest.(check string) "durable after fence" "hello"
    (Bytes.sub_string (Device.image_durable dev) 0 5)

let test_image_latest_includes_pending () =
  let dev = mk () in
  Device.store dev ~off:0 "zz";
  let img = Device.image_latest dev in
  Alcotest.(check string) "latest image has pending store" "zz"
    (Bytes.sub_string img 0 2)

let test_bounds_checked () =
  let dev = mk ~size:128 () in
  Alcotest.(check bool) "oob store raises" true
    (try
       Device.store dev ~off:120 "123456789";
       false
     with Invalid_argument _ -> true)

let test_crash_image_count_quiescent () =
  let dev = mk () in
  Alcotest.(check int) "quiescent: one image" 1 (Device.crash_image_count dev);
  Alcotest.(check int) "one image returned" 1
    (List.length (Images.crash_images dev))

let test_sampling_cap () =
  let dev = mk ~size:8192 () in
  (* 64 independent words -> 2^64 images; sampling must cap. *)
  for i = 0 to 63 do
    Device.store_u64 dev (i * 64) (i + 1)
  done;
  let images = Images.crash_images ~max_images:10 dev in
  Alcotest.(check int) "capped" 10 (List.length images);
  (* extremes present: all-zero and all-applied *)
  let zero = Bytes.make 8192 '\000' in
  Alcotest.(check bool) "durable extreme included" true
    (List.exists (Bytes.equal zero) images);
  Alcotest.(check bool) "latest extreme included" true
    (List.exists (Bytes.equal (Device.image_latest dev)) images)

let test_sampling_distinct () =
  let dev = mk ~size:1024 () in
  (* 7 independent words -> 128 images > max_images=8: the sampler must
     top up to 8 *distinct* states (RNG collisions with each other or
     with the two extremes must not shrink coverage). *)
  for i = 0 to 6 do
    Device.store_u64 dev (i * 64) (i + 1)
  done;
  let images = Images.crash_images ~max_images:8 dev in
  Alcotest.(check int) "exactly max_images" 8 (List.length images);
  let distinct =
    List.sort_uniq compare (List.map Bytes.to_string images) |> List.length
  in
  Alcotest.(check int) "all distinct" 8 distinct

let test_enumeration_sorted () =
  let dev = mk () in
  (* Stores issued high-line-first: enumeration must still be by
     ascending line index (first odometer coordinate = lowest line), not
     by pending-table insertion/hash order. The odometer emits results
     newest-combination-first, so with one record per line the result is
     [(both); (high only); (low only); (none)]. *)
  Device.store_u64 dev 512 0xBB;
  Device.store_u64 dev 64 0xAA;
  let images = Images.crash_images dev in
  Alcotest.(check int) "2x2 states" 4 (List.length images);
  let v img off = Int64.to_int (Bytes.get_int64_le img off) in
  let nth n = List.nth images n in
  Alcotest.(check (pair int int)) "images[1] = high line only" (0, 0xBB)
    (v (nth 1) 64, v (nth 1) 512);
  Alcotest.(check (pair int int)) "images[2] = low line only" (0xAA, 0)
    (v (nth 2) 64, v (nth 2) 512)

(* Device.reset — the pool contract: a device dirtied by one workload
   and then template-reset must be indistinguishable from a fresh
   [of_image] of the same template — same stats, clock, durable hash and
   crash-state enumeration — when the same op sequence runs on both. *)
let test_reset_indistinguishable_from_fresh () =
  let template =
    let d = Device.create ~size:4096 () in
    Device.store d ~off:0 "template";
    Device.persist d ~off:0 ~len:8;
    Device.image_durable d
  in
  let ops dev =
    Device.store_u64 dev 128 0xAB;
    Device.persist dev ~off:128 ~len:8;
    Device.store dev ~off:256 "pending";
    (* left pending: both devices must enumerate the same crash states *)
    Device.store_u64 dev 320 0xCD
  in
  let pooled = Device.of_image ~latency:Latency.optane template in
  Device.store pooled ~off:512 "garbage";
  Device.persist pooled ~off:512 ~len:7;
  Device.store pooled ~off:1024 "dangling";
  Device.charge pooled 999;
  let hash = Device.image_hash_state template in
  Device.reset ~hash pooled ~image:template;
  ops pooled;
  let fresh = Device.of_image ~latency:Latency.optane template in
  ops fresh;
  Alcotest.(check bool) "stats equal" true
    (Device.stats pooled = Device.stats fresh);
  Alcotest.(check int) "clock equal" (Device.now_ns fresh)
    (Device.now_ns pooled);
  Alcotest.(check bool) "durable hash equal" true
    (Device.durable_hash pooled = Device.durable_hash fresh);
  let imgs d = List.map Bytes.to_string (Images.crash_images d) in
  Alcotest.(check (list string)) "same crash-state enumeration" (imgs fresh)
    (imgs pooled)

(* The fence/flush odometer after [reset] must match [of_image]'s: both
   start from a zeroed stats record, and the reset itself performs no
   stores, flushes or fences — pinned explicitly (zero, not "equal to
   something") because the fuzzer's per-iteration accounting subtracts a
   post-mkfs baseline, and any skew here would silently bias every
   pooled-device report. The same contract covers observability: reset
   must drop an attached tracer and metrics registry so a pooled device
   never leaks one iteration's observation into the next. *)
let test_reset_stats_pinned_and_observers_dropped () =
  let template =
    let d = Device.create ~size:4096 () in
    Device.store d ~off:0 "template";
    Device.persist d ~off:0 ~len:8;
    Device.image_durable d
  in
  let pooled = Device.of_image ~latency:Latency.optane template in
  let r = Obs.Recorder.create () and m = Obs.Metrics.create () in
  Device.set_tracer pooled (Some r);
  Device.set_metrics pooled (Some m);
  Device.store_u64 pooled 128 0xAB;
  Device.persist pooled ~off:128 ~len:8;
  let st = Device.stats pooled in
  Alcotest.(check bool) "workload counted" true
    (st.Pmem.Stats.fences > 0 && st.Pmem.Stats.flushes > 0);
  let traced = Obs.Recorder.length r in
  Alcotest.(check bool) "workload traced" true (traced > 0);
  Alcotest.(check bool) "workload metered" true
    (Obs.Metrics.counter m "pm.fences" > 0);
  let hash = Device.image_hash_state template in
  Device.reset ~hash pooled ~image:template;
  let st = Device.stats pooled in
  Alcotest.(check int) "stores zeroed" 0 st.Pmem.Stats.stores;
  Alcotest.(check int) "flushes zeroed" 0 st.Pmem.Stats.flushes;
  Alcotest.(check int) "fences zeroed" 0 st.Pmem.Stats.fences;
  Alcotest.(check int) "lines_drained zeroed" 0 st.Pmem.Stats.lines_drained;
  let fresh = Device.of_image ~latency:Latency.optane template in
  Alcotest.(check bool) "reset stats = of_image stats" true
    (Device.stats pooled = Device.stats fresh);
  Alcotest.(check bool) "tracer dropped" true (Device.tracer pooled = None);
  Alcotest.(check bool) "metrics dropped" true (Device.metrics pooled = None);
  (* post-reset traffic must not reach the detached observers *)
  Device.store_u64 pooled 128 0xCD;
  Device.persist pooled ~off:128 ~len:8;
  Alcotest.(check int) "no events after reset" traced (Obs.Recorder.length r);
  (* and an identical workload on both counts identically from there *)
  Device.store_u64 fresh 128 0xCD;
  Device.persist fresh ~off:128 ~len:8;
  Alcotest.(check bool) "stats equal after same workload" true
    (Device.stats pooled = Device.stats fresh)

(* Lines flushed but not yet fenced when [reset] runs belong to the old
   image: the next fence must drain nothing and leave the template
   durable, exactly like a fence on a fresh [of_image] device. *)
let test_reset_drops_undrained_flushes () =
  let template = Bytes.make 4096 '\000' in
  Bytes.blit_string "template" 0 template 0 8;
  let dev = Device.of_image template in
  Device.store dev ~off:0 "stale";
  Device.store dev ~off:1024 "stale";
  Device.flush dev ~off:0 ~len:2048;
  Device.reset dev ~image:template;
  Device.fence dev;
  let st = Device.stats dev in
  Alcotest.(check int) "one fence" 1 st.Pmem.Stats.fences;
  Alcotest.(check int) "nothing drained" 0 st.Pmem.Stats.lines_drained;
  Alcotest.(check bytes_eq) "template still durable" template
    (Device.image_durable dev);
  Alcotest.(check bool) "quiescent" true (Device.is_quiescent dev)

(* {1 Lazy backing}

   Every device backs its images with the [Sbuf] chunk table: a chunk is
   backed on first store and an unbacked chunk is durably zero. The
   tests below check devices against plain [Bytes.t] references. The one
   sanctioned divergence from a store-by-store model: [zero] over chunks
   no store ever touched emits no line records at all (they are durably
   zero with nothing in flight), so the store and drain counters count
   only records over touched chunks. *)

(* Zero-filled image of [size] bytes with [stores] applied in order. *)
let bytes_image size stores =
  let b = Bytes.make size '\000' in
  List.iter
    (fun (off, s) -> Bytes.blit_string s 0 b off (String.length s))
    stores;
  b

(* Merged ascending spans of the chunks [backed] marks, clipped to
   [size]: what [backed_spans] must report for that chunk set. *)
let chunk_spans ~size backed =
  let spans = ref [] in
  Array.iteri
    (fun ci b ->
      if b then begin
        let off = ci * Sbuf.chunk_bytes in
        let stop = min size (off + Sbuf.chunk_bytes) in
        spans :=
          match !spans with
          | (o, l) :: rest when o + l = off -> (o, stop - o) :: rest
          | sp -> (off, stop - off) :: sp
      end)
    backed;
  List.rev !spans

(* The chunks of [img] holding a nonzero byte. *)
let nonzero_chunks img =
  let size = Bytes.length img in
  Array.init
    ((size + Sbuf.chunk_bytes - 1) / Sbuf.chunk_bytes)
    (fun ci ->
      let off = ci * Sbuf.chunk_bytes in
      let len = min Sbuf.chunk_bytes (size - off) in
      not (Bytes.equal (Bytes.sub img off len) (Bytes.make len '\000')))

let test_matches_bytes_reference () =
  let size = 16384 in
  let dev = Device.create ~size () in
  Device.store dev ~off:100 "hello";
  Device.persist dev ~off:100 ~len:5;
  Device.store_u64 dev 8192 0xAB;
  (* two records in one line: "pend" up to the word boundary, "ing" *)
  Device.store dev ~off:12300 "pending";
  let u64 = "\xab\000\000\000\000\000\000\000" in
  let durable = bytes_image size [ (100, "hello") ] in
  let latest = bytes_image size [ (100, "hello"); (8192, u64); (12300, "pending") ] in
  Alcotest.(check bytes_eq) "durable image" durable (Device.image_durable dev);
  Alcotest.(check bytes_eq) "latest image" latest (Device.image_latest dev);
  Alcotest.(check bytes_eq) "read across a chunk boundary"
    (Bytes.sub latest 8000 600)
    (Device.read dev ~off:8000 ~len:600);
  Alcotest.(check bool) "durable hash = whole-image fold" true
    (Device.durable_hash dev = snd (Device.image_hash_state durable));
  (* every per-line prefix combination over the durable reference *)
  let expected =
    List.concat_map
      (fun k1 ->
        List.map
          (fun k2 ->
            let stores =
              (if k1 then [ (8192, u64) ] else [])
              @ (if k2 >= 1 then [ (12300, "pend") ] else [])
              @ if k2 >= 2 then [ (12304, "ing") ] else []
            in
            Bytes.to_string (bytes_image size ((100, "hello") :: stores)))
          [ 0; 1; 2 ])
      [ false; true ]
  in
  Alcotest.(check (list string)) "crash states = reference prefixes"
    (List.sort compare expected)
    (List.sort compare (List.map Bytes.to_string (Images.crash_images dev)))

let test_of_spans_matches_of_image () =
  let size = 16384 in
  let spans = [ (100, "hello"); (8192, "world") ] in
  let img = bytes_image size spans in
  let a = Device.of_spans ~size spans in
  let b = Device.of_image img in
  Alcotest.(check bytes_eq) "durable images equal" (Device.image_durable b)
    (Device.image_durable a);
  Alcotest.(check bool) "durable hash equal" true
    (Device.durable_hash a = Device.durable_hash b);
  Alcotest.(check bool) "quiescent" true (Device.is_quiescent a)

let test_lazily_backed_at_every_size () =
  List.iter
    (fun size ->
      let dev = Device.create ~size () in
      Alcotest.(check int) "fresh: nothing resident" 0
        (Device.resident_bytes dev);
      Alcotest.(check (list (pair int int))) "fresh: no spans" []
        (Device.backed_spans dev);
      Device.store dev ~off:(size - 1) "x";
      Device.persist dev ~off:(size - 1) ~len:1;
      Alcotest.(check int) "one chunk per image" (2 * Sbuf.chunk_bytes)
        (Device.resident_bytes dev);
      let last = (size - 1) / Sbuf.chunk_bytes * Sbuf.chunk_bytes in
      Alcotest.(check (list (pair int int))) "last chunk, clipped to size"
        [ (last, size - last) ]
        (Device.backed_spans dev))
    [ 4096; 16384 + 100; (64 * 1024 * 1024) + 4096; 1 lsl 30 ]

let test_backed_spans () =
  let dev = Device.create ~size:16384 () in
  Alcotest.(check (list (pair int int))) "untouched: no spans" []
    (Device.backed_spans dev);
  Device.store dev ~off:5000 "x";
  Alcotest.(check (list (pair int int))) "store backs its chunk"
    [ (4096, 4096) ]
    (Device.backed_spans dev);
  Device.store dev ~off:0 "y";
  Alcotest.(check (list (pair int int))) "adjacent chunks merge, ascending"
    [ (0, 8192) ]
    (Device.backed_spans dev);
  (* loading a Bytes reference backs exactly its nonzero chunks: the
     zero store at 9000 leaves chunk 2 unbacked *)
  let img = bytes_image 16384 [ (5000, "x"); (9000, "\000"); (16000, "z") ] in
  Alcotest.(check (list (pair int int))) "of_image: nonzero chunks only"
    (chunk_spans ~size:16384 (nonzero_chunks img))
    (Device.backed_spans (Device.of_image img))

let test_range_overflow_rejected () =
  let dev = mk () in
  let rejects name prefix f =
    Alcotest.(check bool) name true
      (try
         f ();
         false
       with Invalid_argument msg -> String.starts_with ~prefix msg)
  in
  let dev_range = "Pmem.Device: range" in
  rejects "read" dev_range (fun () ->
      ignore (Device.read dev ~off:8 ~len:max_int));
  rejects "flush" dev_range (fun () -> Device.flush dev ~off:8 ~len:max_int);
  rejects "zero" dev_range (fun () -> Device.zero dev ~off:8 ~len:max_int);
  rejects "persist" dev_range (fun () ->
      Device.persist dev ~off:8 ~len:max_int);
  rejects "sbuf sub" "Pmem.Sbuf: range" (fun () ->
      ignore (Sbuf.sub (Sbuf.create ~size:4096) ~off:8 ~len:max_int))

let test_sparse_zero_untouched_is_free () =
  let dev = Device.create ~size:65536 () in
  Device.zero dev ~off:0 ~len:65536;
  (* no chunk was ever backed: the zero leaves nothing in flight and
     allocates nothing *)
  Alcotest.(check bool) "quiescent" true (Device.is_quiescent dev);
  Alcotest.(check int) "nothing resident" 0 (Device.resident_bytes dev);
  (* a touched chunk still gets its records: the zero must overwrite *)
  Device.store dev ~off:128 "dirty";
  Device.persist dev ~off:128 ~len:5;
  Device.zero dev ~off:0 ~len:65536;
  Device.fence dev;
  Alcotest.(check string) "touched chunk really zeroed" "\000\000\000\000\000"
    (Bytes.sub_string (Device.image_durable dev) 128 5)

let test_sparse_resident_tracks_touch () =
  let dev = Device.create ~size:(1024 * 1024) () in
  Alcotest.(check int) "fresh: zero resident" 0 (Device.resident_bytes dev);
  Device.store dev ~off:0 "a";
  Device.persist dev ~off:0 ~len:1;
  let r1 = Device.resident_bytes dev in
  Alcotest.(check bool) "one touched chunk resident" true
    (r1 > 0 && r1 <= 4 * Sbuf.chunk_bytes);
  Device.store dev ~off:(512 * 1024) "b";
  Device.persist dev ~off:(512 * 1024) ~len:1;
  let r2 = Device.resident_bytes dev in
  Alcotest.(check bool) "residency grows with touch, not size" true
    (r2 > r1 && r2 < 1024 * 1024 / 4)

(* The pool contract over lazy backing: a [create]d device dirtied and
   template-reset must be indistinguishable from a fresh [of_image] of
   the same template under the same subsequent ops. *)
let test_sparse_reset_indistinguishable_from_fresh () =
  let template =
    let d = Device.create ~size:4096 () in
    Device.store d ~off:0 "template";
    Device.persist d ~off:0 ~len:8;
    Device.image_durable d
  in
  let ops dev =
    Device.store_u64 dev 128 0xAB;
    (* rewrite the template's one nonzero line: its hash entry must come
       from the [?hash] state [reset] was given *)
    Device.store dev ~off:0 "TEMPLATE";
    Device.persist dev ~off:0 ~len:136;
    Device.store dev ~off:256 "pending";
    Device.store_u64 dev 320 0xCD
  in
  let pooled = Device.create ~latency:Latency.optane ~size:4096 () in
  Device.store pooled ~off:512 "garbage";
  Device.persist pooled ~off:512 ~len:7;
  Device.store pooled ~off:1024 "dangling";
  Device.charge pooled 999;
  let hash = Device.image_hash_state template in
  Device.reset ~hash pooled ~image:template;
  ops pooled;
  let fresh = Device.of_image ~latency:Latency.optane template in
  ops fresh;
  Alcotest.(check bool) "stats equal" true
    (Device.stats pooled = Device.stats fresh);
  Alcotest.(check int) "clock equal" (Device.now_ns fresh)
    (Device.now_ns pooled);
  Alcotest.(check bool) "durable hash equal" true
    (Device.durable_hash pooled = Device.durable_hash fresh);
  let imgs d = List.map Bytes.to_string (Images.crash_images d) in
  Alcotest.(check (list string)) "same crash-state enumeration" (imgs fresh)
    (imgs pooled)

(* Property tests *)

let prop_persist_all_makes_durable =
  QCheck.Test.make ~count:100 ~name:"random ops then full persist: durable = latest"
    QCheck.(list (pair (int_bound 1000) (string_of_size Gen.(1 -- 16))))
    (fun ops ->
      let dev = mk ~size:2048 () in
      List.iter
        (fun (off, data) ->
          let off = off mod (2048 - 16) in
          Device.store dev ~off data)
        ops;
      Device.persist dev ~off:0 ~len:2048;
      Bytes.equal (Device.image_durable dev) (Device.image_latest dev)
      && Device.is_quiescent dev)

let prop_crash_images_bounded_by_latest_and_durable =
  QCheck.Test.make ~count:50
    ~name:"every crash image word is some store prefix of that word"
    QCheck.(list (pair (int_bound 15) small_int))
    (fun ops ->
      let dev = mk ~size:256 () in
      (* Record per-word history of values. *)
      let history = Array.make 32 [ 0 ] in
      List.iter
        (fun (word, v) ->
          let v = abs v in
          Device.store_u64 dev (word * 8) v;
          history.(word) <- v :: history.(word))
        ops;
      let images = Images.crash_images ~max_images:128 dev in
      List.for_all
        (fun img ->
          let ok = ref true in
          for w = 0 to 31 do
            let v = Int64.to_int (Bytes.get_int64_le img (w * 8)) in
            if not (List.mem v history.(w)) then ok := false
          done;
          !ok)
        images)

let prop_matches_bytes_model =
  QCheck.Test.make ~count:100
    ~name:"device agrees with a Bytes model under random store traffic"
    QCheck.(list (pair (int_bound 2000) (string_of_size Gen.(1 -- 16))))
    (fun ops ->
      let size = 16384 in
      let stores = List.map (fun (off, data) -> (off mod (size - 16), data)) ops in
      let dev = Device.create ~size () in
      List.iter (fun (off, data) -> Device.store dev ~off data) stores;
      let latest = bytes_image size stores in
      let before = Device.image_latest dev in
      Device.persist dev ~off:0 ~len:size;
      Bytes.equal before latest
      && Bytes.equal (Device.image_durable dev) latest
      && Device.durable_hash dev = snd (Device.image_hash_state latest)
      && (Device.stats dev).Pmem.Stats.stores
         = List.fold_left
             (fun n (off, data) ->
               (* one record per 8-byte word the store touches *)
               n + ((off + String.length data - 1) / 8) - (off / 8) + 1)
             0 stores)

(* {2 [Sbuf] against a [Bytes.t] model}

   Two buffers and their plain-[Bytes] models under random traffic. The
   size crosses two 1 MiB leaf boundaries and ends in a partial chunk.
   Besides content, the model tracks which chunks each buffer backs —
   stores back what they touch, [blit] backs a destination chunk only
   where the source is backed, [sync] and [copy] carry the source's
   backing, and [load_bytes] backs exactly the chunks holding a nonzero
   byte (zero pruning relies on that for a pooled reset to match a fresh
   [of_image]) — and checks it through [backed_spans] and
   [resident_bytes] after every op. *)

let sb_size = (2 * 1024 * 1024) + 4096 + 100

type sop =
  | S_set of int * int * char (* buffer, offset, value *)
  | S_blit_string of int * int * string
  | S_get of int * int
  | S_get64 of int * int
  | S_sub of int * int * int
  | S_blit of int * int * int * int (* source buffer, src off, dst off, len *)
  | S_sync of int (* source buffer; the other is the destination *)
  | S_load of int (* reload this buffer from the other's content *)
  | S_copy of int (* replace the other buffer by a copy of this one *)

let pp_sop = function
  | S_set (w, o, c) -> Printf.sprintf "set %d %d %C" w o c
  | S_blit_string (w, o, s) ->
      Printf.sprintf "blit_string %d %d [%d]" w o (String.length s)
  | S_get (w, o) -> Printf.sprintf "get %d %d" w o
  | S_get64 (w, o) -> Printf.sprintf "get64 %d %d" w o
  | S_sub (w, o, n) -> Printf.sprintf "sub %d %d+%d" w o n
  | S_blit (w, so, d, n) -> Printf.sprintf "blit %d %d -> %d+%d" w so d n
  | S_sync w -> Printf.sprintf "sync from %d" w
  | S_load w -> Printf.sprintf "load %d" w
  | S_copy w -> Printf.sprintf "copy %d" w

let sop_gen =
  let open QCheck.Gen in
  (* offsets cluster around chunk, leaf and end-of-buffer boundaries *)
  let off room =
    let hi = sb_size - room in
    map
      (fun o -> max 0 (min hi o))
      (frequency
         [
           (1, int_bound hi);
           ( 3,
             map2 ( + )
               (oneofl [ 0; 4096; 1 lsl 20; 2 lsl 20; sb_size - 100; sb_size ])
               (int_range (-40) 40) );
         ])
  in
  let len = frequency [ (3, 0 -- 64); (1, 4000 -- 9000) ] in
  let w = int_bound 1 in
  frequency
    [
      (3, map3 (fun w o c -> S_set (w, o, c)) w (off 1)
            (frequency [ (1, return '\000'); (2, char_range 'a' 'z') ]));
      ( 3,
        w >>= fun w ->
        len >>= fun n ->
        map2 (fun o s -> S_blit_string (w, o, s)) (off n)
          (string_size ~gen:(char_range 'a' 'z') (return n)) );
      (2, map2 (fun w o -> S_get (w, o)) w (off 1));
      (2, map2 (fun w o -> S_get64 (w, o)) w (off 8));
      (1, w >>= fun w -> len >>= fun n -> map (fun o -> S_sub (w, o, n)) (off n));
      ( 2,
        w >>= fun w ->
        len >>= fun n -> map2 (fun so d -> S_blit (w, so, d, n)) (off n) (off n) );
      (1, map (fun w -> S_sync w) w);
      (1, map (fun w -> S_load w) w);
      (1, map (fun w -> S_copy w) w);
    ]

let prop_sbuf_matches_bytes_model =
  QCheck.Test.make ~count:100
    ~name:"Sbuf agrees with a Bytes model, backing included"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_sop ops))
       QCheck.Gen.(list_size (1 -- 30) sop_gen))
    (fun ops ->
      let chunks = (sb_size + Sbuf.chunk_bytes - 1) / Sbuf.chunk_bytes in
      let bufs = Array.init 2 (fun _ -> Sbuf.create ~size:sb_size) in
      let imgs = Array.init 2 (fun _ -> Bytes.make sb_size '\000') in
      let backed = Array.init 2 (fun _ -> Array.make chunks false) in
      let back w off len =
        if len > 0 then
        for ci = off / Sbuf.chunk_bytes to (off + len - 1) / Sbuf.chunk_bytes do
          backed.(w).(ci) <- true
        done
      in
      let fail i what =
        QCheck.Test.fail_reportf "after op %d (%s): %s diverges" i
          (pp_sop (List.nth ops i)) what
      in
      List.iteri
        (fun i op ->
          (match op with
          | S_set (w, o, c) ->
              Sbuf.set bufs.(w) o c;
              Bytes.set imgs.(w) o c;
              back w o 1
          | S_blit_string (w, o, s) ->
              Sbuf.blit_string s bufs.(w) o;
              Bytes.blit_string s 0 imgs.(w) o (String.length s);
              back w o (String.length s)
          | S_get (w, o) ->
              if Sbuf.get bufs.(w) o <> Bytes.get imgs.(w) o then fail i "get"
          | S_get64 (w, o) ->
              if Sbuf.get_int64_le bufs.(w) o <> Bytes.get_int64_le imgs.(w) o
              then fail i "get_int64_le"
          | S_sub (w, o, n) ->
              let got = Sbuf.sub bufs.(w) ~off:o ~len:n in
              if not (Bytes.equal got (Bytes.sub imgs.(w) o n)) then fail i "sub"
          | S_blit (w, so, d, n) ->
              let v = 1 - w in
              Sbuf.blit ~src:bufs.(w) ~src_off:so ~dst:bufs.(v) ~dst_off:d ~len:n;
              Bytes.blit imgs.(w) so imgs.(v) d n;
              for k = 0 to n - 1 do
                if backed.(w).((so + k) / Sbuf.chunk_bytes) then
                  backed.(v).((d + k) / Sbuf.chunk_bytes) <- true
              done
          | S_sync w ->
              let v = 1 - w in
              Sbuf.sync ~src:bufs.(w) ~dst:bufs.(v);
              imgs.(v) <- Bytes.copy imgs.(w);
              backed.(v) <- Array.copy backed.(w)
          | S_load w ->
              let img = Bytes.copy imgs.(1 - w) in
              Sbuf.load_bytes bufs.(w) img;
              imgs.(w) <- img;
              backed.(w) <- nonzero_chunks img
          | S_copy w ->
              let v = 1 - w in
              bufs.(v) <- Sbuf.copy bufs.(w);
              imgs.(v) <- Bytes.copy imgs.(w);
              backed.(v) <- Array.copy backed.(w));
          for w = 0 to 1 do
            if Sbuf.backed_spans bufs.(w) <> chunk_spans ~size:sb_size backed.(w)
            then fail i (Printf.sprintf "buffer %d backed_spans" w);
            let n = Array.fold_left (fun n b -> if b then n + 1 else n) 0 backed.(w) in
            if Sbuf.resident_bytes bufs.(w) <> n * Sbuf.chunk_bytes then
              fail i (Printf.sprintf "buffer %d resident_bytes" w)
          done)
        ops;
      Array.for_all2 (fun b img -> Bytes.equal (Sbuf.to_bytes b) img) bufs imgs)

(* {2 Fence drain against a per-line reference model}

   The device drains only the lines [flush] queued since the last fence.
   The model below keeps every line's pending records and flushed count
   in plain arrays and drains by scanning all of them, so any line the
   device's queue misses or repeats shows up as a divergence in the
   durable image, the content hash, the counters or the crash-state
   count. *)

type dop =
  | D_store of int * string
  | D_flush of int * int
  | D_zero of int * int
  | D_fence

let pp_dop = function
  | D_store (off, s) -> Printf.sprintf "store %d [%d]" off (String.length s)
  | D_flush (off, len) -> Printf.sprintf "flush %d+%d" off len
  | D_zero (off, len) -> Printf.sprintf "zero %d+%d" off len
  | D_fence -> "fence"

type model = {
  m_durable : Bytes.t;
  m_pending : (int * string) list array; (* per line, oldest first *)
  m_flushed : int array;
  m_touched : (int, unit) Hashtbl.t; (* chunks holding a record *)
  m_stats : Pmem.Stats.t;
}

let model_create ~size =
  let lines = size / Device.line_size in
  {
    m_durable = Bytes.make size '\000';
    m_pending = Array.make lines [];
    m_flushed = Array.make lines 0;
    m_touched = Hashtbl.create 8;
    m_stats = Pmem.Stats.create ();
  }

let model_record m off data =
  let idx = off / Device.line_size in
  m.m_pending.(idx) <- m.m_pending.(idx) @ [ (off, data) ];
  Hashtbl.replace m.m_touched (off / Sbuf.chunk_bytes) ();
  m.m_stats.stores <- m.m_stats.stores + 1;
  m.m_stats.bytes_stored <- m.m_stats.bytes_stored + String.length data

(* regular stores split at 8-byte boundaries *)
let model_store m off data =
  let len = String.length data in
  let pos = ref 0 in
  while !pos < len do
    let chunk = min (8 - ((off + !pos) mod 8)) (len - !pos) in
    model_record m (off + !pos) (String.sub data !pos chunk);
    pos := !pos + chunk
  done

let model_flush m off len =
  if len > 0 then
    for idx = off / Device.line_size to (off + len - 1) / Device.line_size do
      if m.m_pending.(idx) <> [] then begin
        m.m_flushed.(idx) <- List.length m.m_pending.(idx);
        m.m_stats.flushes <- m.m_stats.flushes + 1
      end
    done

(* line-sized zero records, none in a chunk no record ever touched (it
   is durably zero with nothing in flight), then a flush *)
let model_zero m off len =
  let stop = off + len in
  let pos = ref off in
  while !pos < stop do
    let ci = !pos / Sbuf.chunk_bytes in
    let chunk_end = min stop ((ci + 1) * Sbuf.chunk_bytes) in
    if not (Hashtbl.mem m.m_touched ci) then pos := chunk_end
    else
      while !pos < chunk_end do
        let room = Device.line_size - (!pos mod Device.line_size) in
        let c = min room (chunk_end - !pos) in
        model_record m !pos (String.make c '\000');
        pos := !pos + c
      done
  done;
  model_flush m off len

let model_fence m =
  Array.iteri
    (fun idx k ->
      if k > 0 then begin
        let applied = List.filteri (fun i _ -> i < k) m.m_pending.(idx) in
        List.iter
          (fun (off, data) ->
            Bytes.blit_string data 0 m.m_durable off (String.length data))
          applied;
        m.m_pending.(idx) <- List.filteri (fun i _ -> i >= k) m.m_pending.(idx);
        m.m_flushed.(idx) <- 0;
        m.m_stats.lines_drained <- m.m_stats.lines_drained + 1
      end)
    m.m_flushed;
  m.m_stats.fences <- m.m_stats.fences + 1

(* saturating at [max_int], like the device *)
let model_crash_images m =
  Array.fold_left
    (fun acc p ->
      let n = List.length p + 1 in
      if acc > max_int / n then max_int else acc * n)
    1 m.m_pending

let dop_gen ~size =
  let open QCheck.Gen in
  (* most traffic lands on the first eight lines, so stores after a
     flush, re-flushes and partially drained lines are common *)
  let off = frequency [ (3, int_bound 511); (1, int_bound (size - 320)) ] in
  frequency
    [
      ( 4,
        map2
          (fun o s -> D_store (o, s))
          off
          (string_size ~gen:(char_range 'a' 'z') (1 -- 16)) );
      (3, map2 (fun o n -> D_flush (o, n)) off (1 -- 256));
      (1, map2 (fun o n -> D_zero (o, n)) off (1 -- 300));
      (2, return D_fence);
    ]

let prop_drain_matches_model =
  QCheck.Test.make ~count:200
    ~name:"fence drain matches a per-line model, zero pruning included"
    (QCheck.make
       ~print:(fun (size, ops) ->
         Printf.sprintf "%d B: %s" size
           (String.concat "; " (List.map pp_dop ops)))
       QCheck.Gen.(
         oneofl [ 2048; 16384 ] >>= fun size ->
         map (fun ops -> (size, ops)) (list_size (1 -- 60) (dop_gen ~size))))
    (fun (size, ops) ->
      let dev = Device.create ~size () in
      (* hash from the start, so every drain updates it incrementally *)
      ignore (Device.durable_hash dev);
      let m = model_create ~size in
      let check_after_fence i =
        let expect what ok =
          if not ok then
            QCheck.Test.fail_reportf "after op %d (fence): %s diverges" i what
        in
        expect "durable image"
          (Bytes.equal (Device.image_durable dev) m.m_durable);
        (* a whole-image fold, sharing no state with the incremental hash *)
        expect "durable hash"
          (Device.durable_hash dev
          = snd (Device.image_hash_state m.m_durable));
        expect "stats" (Device.stats dev = m.m_stats);
        expect "crash image count"
          (Device.crash_image_count dev = model_crash_images m);
        expect "quiescence"
          (Device.is_quiescent dev
          = Array.for_all (fun p -> p = []) m.m_pending)
      in
      List.iteri
        (fun i op ->
          match op with
          | D_store (off, data) ->
              Device.store dev ~off data;
              model_store m off data
          | D_flush (off, len) ->
              Device.flush dev ~off ~len;
              model_flush m off len
          | D_zero (off, len) ->
              Device.zero dev ~off ~len;
              model_zero m off len
          | D_fence ->
              Device.fence dev;
              model_fence m;
              check_after_fence i)
        (ops @ [ D_fence ]);
      true)

let prop_store_read_roundtrip =
  QCheck.Test.make ~count:200 ~name:"store/read roundtrip"
    QCheck.(pair (int_bound 1000) (string_of_size Gen.(1 -- 64)))
    (fun (off, data) ->
      let dev = mk ~size:2048 () in
      let off = off mod (2048 - 64) in
      Device.store dev ~off data;
      Bytes.to_string (Device.read dev ~off ~len:(String.length data)) = data)

let unit_tests =
  [
    ("store visible", `Quick, test_store_visible);
    ("store not durable", `Quick, test_store_not_durable);
    ("flush alone not durable", `Quick, test_flush_alone_not_durable);
    ("fence alone not durable", `Quick, test_fence_alone_not_durable);
    ("persist durable", `Quick, test_persist_durable);
    ("unflushed line survives fence", `Quick, test_store_after_flush_stays_pending);
    ("same line partial flush", `Quick, test_same_line_partial_flush);
    ("u64 roundtrip", `Quick, test_u64_roundtrip);
    ("u64 atomic in crash", `Quick, test_u64_atomic_in_crash);
    ("unaligned u64 rejected", `Quick, test_unaligned_u64_rejected);
    ("large store can tear", `Quick, test_large_store_can_tear);
    ("cross-line reorder", `Quick, test_cross_line_independent);
    ("same-word ordered", `Quick, test_same_word_ordered);
    ("of_image quiescent", `Quick, test_of_image_quiescent);
    ("zero latency clock", `Quick, test_zero_latency_clock);
    ("optane latency clock", `Quick, test_optane_latency_clock);
    ("charge", `Quick, test_charge);
    ("fence hook runs", `Quick, test_fence_hook_runs);
    ("fence hook sees pending", `Quick, test_fence_hook_sees_pending);
    ("nt store", `Quick, test_nt_store);
    ("image_latest includes pending", `Quick, test_image_latest_includes_pending);
    ("bounds checked", `Quick, test_bounds_checked);
    ("quiescent crash count", `Quick, test_crash_image_count_quiescent);
    ("sampling cap", `Quick, test_sampling_cap);
    ("sampling distinct", `Quick, test_sampling_distinct);
    ("enumeration sorted by line", `Quick, test_enumeration_sorted);
    ( "reset indistinguishable from fresh",
      `Quick,
      test_reset_indistinguishable_from_fresh );
    ( "reset stats pinned, observers dropped",
      `Quick,
      test_reset_stats_pinned_and_observers_dropped );
    ( "reset drops flushed, undrained lines",
      `Quick,
      test_reset_drops_undrained_flushes );
    ("matches a Bytes reference", `Quick, test_matches_bytes_reference);
    ("of_spans matches of_image", `Quick, test_of_spans_matches_of_image);
    ("lazily backed at every size", `Quick, test_lazily_backed_at_every_size);
    ("backed spans", `Quick, test_backed_spans);
    ("range overflow rejected", `Quick, test_range_overflow_rejected);
    ( "sparse zero of untouched space is free",
      `Quick,
      test_sparse_zero_untouched_is_free );
    ( "sparse residency tracks touch",
      `Quick,
      test_sparse_resident_tracks_touch );
    ( "sparse reset indistinguishable from fresh",
      `Quick,
      test_sparse_reset_indistinguishable_from_fresh );
  ]

let prop_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_persist_all_makes_durable;
      prop_crash_images_bounded_by_latest_and_durable;
      prop_matches_bytes_model;
      prop_sbuf_matches_bytes_model;
      prop_drain_matches_model;
      prop_store_read_roundtrip;
    ]

let () =
  ignore bytes_eq;
  Alcotest.run "pmem" [ ("device", unit_tests); ("device-props", prop_tests) ]
