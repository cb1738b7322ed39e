(* Unit and property tests for the small substrates: paths, layout
   geometry, record formats, linearity tokens. *)

module G = Layout.Geometry
module R = Layout.Records
module Token = Typestate.Token

(* {1 Path} *)

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected %s" (Vfs.Errno.to_string e)

let test_path_split () =
  Alcotest.(check (list string)) "root" [] (ok (Vfs.Path.split "/"));
  Alcotest.(check (list string)) "simple" [ "a"; "b" ] (ok (Vfs.Path.split "/a/b"));
  Alcotest.(check (list string)) "trailing slash" [ "a" ] (ok (Vfs.Path.split "/a/"));
  Alcotest.(check bool) "relative rejected" true
    (Result.is_error (Vfs.Path.split "a/b"));
  Alcotest.(check bool) "empty rejected" true (Result.is_error (Vfs.Path.split ""));
  Alcotest.(check bool) "dot rejected" true (Result.is_error (Vfs.Path.split "/a/./b"));
  Alcotest.(check bool) "dotdot rejected" true
    (Result.is_error (Vfs.Path.split "/a/../b"));
  Alcotest.(check bool) "double slash rejected" true
    (Result.is_error (Vfs.Path.split "/a//b"))

let test_parent_base () =
  let p, b = ok (Vfs.Path.parent_base "/a/b/c") in
  Alcotest.(check (list string)) "parents" [ "a"; "b" ] p;
  Alcotest.(check string) "base" "c" b;
  let p, b = ok (Vfs.Path.parent_base "/top") in
  Alcotest.(check (list string)) "root parent" [] p;
  Alcotest.(check string) "base at root" "top" b;
  Alcotest.(check bool) "root has no base" true
    (Result.is_error (Vfs.Path.parent_base "/"))

let test_valid_name () =
  Alcotest.(check bool) "plain" true (Vfs.Path.valid_name "hello.txt");
  Alcotest.(check bool) "empty" false (Vfs.Path.valid_name "");
  Alcotest.(check bool) "slash" false (Vfs.Path.valid_name "a/b");
  Alcotest.(check bool) "nul" false (Vfs.Path.valid_name "a\000b");
  Alcotest.(check bool) "dot" false (Vfs.Path.valid_name ".");
  Alcotest.(check bool) "dotdot" false (Vfs.Path.valid_name "..")

(* {1 Geometry} *)

let test_geometry_partition () =
  let g = G.compute ~device_size:(8 * 1024 * 1024) in
  Alcotest.(check bool) "inode table after sb" true (g.G.inode_table_off >= G.sb_size);
  Alcotest.(check bool) "descs after inodes" true
    (g.G.page_desc_off >= g.G.inode_table_off + (g.G.inode_count * G.inode_size));
  Alcotest.(check bool) "data after descs" true
    (g.G.data_off >= g.G.page_desc_off + (g.G.page_count * G.desc_size));
  Alcotest.(check int) "data page aligned" 0 (g.G.data_off mod G.page_size);
  Alcotest.(check bool) "fits" true
    (g.G.data_off + (g.G.page_count * G.page_size) <= 8 * 1024 * 1024);
  Alcotest.(check int) "4 pages per inode" (g.G.inode_count * 4) g.G.page_count

let prop_geometry_any_size =
  QCheck.Test.make ~count:200 ~name:"geometry fits any device size"
    QCheck.(int_range (128 * 1024) (64 * 1024 * 1024))
    (fun size ->
      let g = G.compute ~device_size:size in
      g.G.data_off + (g.G.page_count * G.page_size) <= size
      && g.G.inode_count >= 2)

let test_dentry_loc_roundtrip () =
  let g = G.compute ~device_size:(4 * 1024 * 1024) in
  for page = 0 to 3 do
    for slot = 0 to G.dentries_per_page - 1 do
      let off = G.dentry_off g ~page ~slot in
      Alcotest.(check (pair int int)) "roundtrip" (page, slot)
        (G.dentry_loc_of_off g off)
    done
  done

let test_geometry_too_small () =
  Alcotest.(check bool) "tiny device rejected" true
    (try ignore (G.compute ~device_size:1024); false
     with Invalid_argument _ -> true)

(* {1 Records} *)

let test_inode_record_roundtrip () =
  let dev = Pmem.Device.create ~size:(1024 * 1024) () in
  let g = G.compute ~device_size:(1024 * 1024) in
  let base = G.inode_off g ~ino:3 in
  let put f v = Pmem.Device.store_u64 dev (base + f) v in
  put R.Inode.f_ino 3;
  put R.Inode.f_kind (R.Kind.to_int R.Kind.Dir);
  put R.Inode.f_links 5;
  put R.Inode.f_size 12345;
  put R.Inode.f_mode 0o700;
  (match R.Inode.decode dev ~base with
  | None -> Alcotest.fail "decode failed"
  | Some r ->
      Alcotest.(check int) "ino" 3 r.R.Inode.ino;
      Alcotest.(check bool) "kind" true (r.R.Inode.kind = R.Kind.Dir);
      Alcotest.(check int) "links" 5 r.R.Inode.links;
      Alcotest.(check int) "size" 12345 r.R.Inode.size;
      Alcotest.(check int) "mode" 0o700 r.R.Inode.mode);
  Alcotest.(check bool) "allocated" true (R.Inode.is_allocated dev ~base);
  let free_base = G.inode_off g ~ino:4 in
  Alcotest.(check bool) "free not allocated" false
    (R.Inode.is_allocated dev ~base:free_base);
  Alcotest.(check bool) "free decodes to None" true
    (R.Inode.decode dev ~base:free_base = None)

let test_dentry_record_roundtrip () =
  let dev = Pmem.Device.create ~size:(1024 * 1024) () in
  let g = G.compute ~device_size:(1024 * 1024) in
  let base = G.dentry_off g ~page:0 ~slot:3 in
  Pmem.Device.store dev ~off:(base + R.Dentry.f_name)
    ("hello.txt" ^ String.make (G.name_max - 9) '\000');
  Pmem.Device.store_u64 dev (base + R.Dentry.f_ino) 7;
  Pmem.Device.store_u64 dev (base + R.Dentry.f_rename_ptr) 4096;
  match R.Dentry.decode dev ~base with
  | None -> Alcotest.fail "decode failed"
  | Some d ->
      Alcotest.(check string) "name" "hello.txt" d.R.Dentry.name;
      Alcotest.(check int) "ino" 7 d.R.Dentry.ino;
      Alcotest.(check int) "rptr" 4096 d.R.Dentry.rename_ptr

let test_superblock_roundtrip () =
  let dev = Pmem.Device.create ~size:(1024 * 1024) () in
  let g = G.compute ~device_size:(1024 * 1024) in
  R.Superblock.write dev g ~clean:true;
  (match R.Superblock.read dev with
  | None -> Alcotest.fail "read failed"
  | Some sb ->
      Alcotest.(check bool) "clean" true sb.R.Superblock.clean;
      Alcotest.(check int) "inode count" g.G.inode_count
        sb.R.Superblock.geometry.G.inode_count);
  R.Superblock.set_clean dev false;
  match R.Superblock.read dev with
  | Some sb -> Alcotest.(check bool) "dirty" false sb.R.Superblock.clean
  | None -> Alcotest.fail "read failed"

(* {1 Tokens} *)

let test_token_lifecycle () =
  let reg = Token.create_registry () in
  let t = Token.mint reg ~id:1 in
  Token.check reg t;
  let t2 = Token.use reg t in
  Alcotest.(check bool) "old token stale" true
    (try Token.check reg t; false with Token.Stale_handle _ -> true);
  Token.check reg t2;
  Token.release reg t2;
  Alcotest.(check bool) "released token stale" true
    (try Token.check reg t2; false with Token.Stale_handle _ -> true)

let test_token_mint_invalidates () =
  let reg = Token.create_registry () in
  let t1 = Token.mint reg ~id:9 in
  let _t2 = Token.mint reg ~id:9 in
  Alcotest.(check bool) "re-mint invalidates" true
    (try Token.check reg t1; false with Token.Stale_handle _ -> true)

let test_token_fence_epochs () =
  let reg = Token.create_registry () in
  let t = Token.mint reg ~id:2 in
  let t = Token.flushed_at reg t in
  Alcotest.(check bool) "no fence yet" true
    (try ignore (Token.assert_fenced reg t); false
     with Token.Stale_handle _ -> true);
  (* the failed assert consumed nothing; bump the epoch and retry *)
  Token.bump_epoch reg;
  ignore (Token.assert_fenced reg t)

let prop_token_distinct_ids_independent =
  QCheck.Test.make ~count:100 ~name:"tokens of distinct objects are independent"
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let reg = Token.create_registry () in
      let ta = Token.mint reg ~id:a in
      let tb = Token.mint reg ~id:b in
      let _ta' = Token.use reg ta in
      (* consuming a must not affect b *)
      Token.check reg tb;
      true)

(* Per-object cells against the table semantics they replace: a
   generation table and a flush-epoch table keyed by object id, every
   entry point reading them afresh. Random sequences over four minted
   ids plus fresh range ids (never minted twice, so a fresh cell is the
   first mint of a new id in the reference) must give the same outcome
   and the same [Stale_handle] message at every step. *)
module Ref_token = struct
  type reg = {
    gens : (int, int) Hashtbl.t;
    flush_epochs : (int, int) Hashtbl.t;
    mutable epoch : int;
  }

  type t = { oid : int; gen : int }

  let create () =
    { gens = Hashtbl.create 8; flush_epochs = Hashtbl.create 8; epoch = 1 }

  let current r oid = Option.value (Hashtbl.find_opt r.gens oid) ~default:0

  let mint r ~id =
    let g = current r id + 1 in
    Hashtbl.replace r.gens id g;
    { oid = id; gen = g }

  let validate r t =
    if current r t.oid <> t.gen then
      raise
        (Token.Stale_handle
           (Printf.sprintf
              "object %d: handle generation %d is stale (current %d)" t.oid
              t.gen (current r t.oid)))

  let use r t =
    validate r t;
    mint r ~id:t.oid

  let release r t = ignore (use r t)

  let flushed_at r t =
    let t' = use r t in
    Hashtbl.replace r.flush_epochs t.oid r.epoch;
    t'

  let assert_fenced r t =
    validate r t;
    (match Hashtbl.find_opt r.flush_epochs t.oid with
    | None ->
        raise
          (Token.Stale_handle
             (Printf.sprintf "object %d: fenced without a recorded flush"
                t.oid))
    | Some fe ->
        if fe >= r.epoch then
          raise
            (Token.Stale_handle
               (Printf.sprintf
                  "object %d: no fence since flush (flush epoch %d, current %d)"
                  t.oid fe r.epoch)));
    use r t
end

type token_step =
  | Mint of int
  | Fresh
  | Use of int
  | Check of int
  | Release of int
  | Flushed_at of int
  | Bump_epoch
  | Assert_fenced of int

let pp_token_step = function
  | Mint id -> Printf.sprintf "mint %d" id
  | Fresh -> "fresh"
  | Use k -> Printf.sprintf "use #%d" k
  | Check k -> Printf.sprintf "check #%d" k
  | Release k -> Printf.sprintf "release #%d" k
  | Flushed_at k -> Printf.sprintf "flushed_at #%d" k
  | Bump_epoch -> "bump_epoch"
  | Assert_fenced k -> Printf.sprintf "assert_fenced #%d" k

let token_steps =
  let open QCheck.Gen in
  let k = int_bound 15 in
  let step =
    frequency
      [
        (3, map (fun id -> Mint id) (int_bound 3));
        (1, return Fresh);
        (4, map (fun k -> Use k) k);
        (2, map (fun k -> Check k) k);
        (1, map (fun k -> Release k) k);
        (3, map (fun k -> Flushed_at k) k);
        (2, return Bump_epoch);
        (3, map (fun k -> Assert_fenced k) k);
      ]
  in
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map pp_token_step l))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 1 60) step)

let prop_token_cells_match_tables =
  QCheck.Test.make ~count:500 ~name:"token cells match the table semantics"
    token_steps (fun steps ->
      let reg = Token.create_registry () and r = Ref_token.create () in
      (* every token either side handed out, newest first, in step *)
      let pool = ref [] and next_fresh = ref 100 in
      let outcome f =
        match f () with
        | v -> Ok v
        | exception Token.Stale_handle msg -> Error msg
      in
      let nth k = List.nth_opt !pool (k mod max 1 (List.length !pool)) in
      let agree what got want =
        match (got, want) with
        | Ok t, Ok rt ->
            if Token.id t <> rt.Ref_token.oid then
              QCheck.Test.fail_reportf "%s: id %d, want %d" what (Token.id t)
                rt.Ref_token.oid;
            pool := (t, rt) :: !pool
        | Error m, Error m' when m = m' -> ()
        | _ ->
            let show = function Ok _ -> "ok" | Error m -> m in
            QCheck.Test.fail_reportf "%s: %s, want %s" what (show got)
              (show want)
      in
      let on k what f g =
        match nth k with
        | None -> ()
        | Some (t, rt) ->
            agree what (outcome (fun () -> f t)) (outcome (fun () -> g rt))
      in
      let unit f t = f t; t in
      List.iter
        (fun step ->
          let what = pp_token_step step in
          match step with
          | Mint id ->
              agree what
                (outcome (fun () -> Token.mint reg ~id))
                (outcome (fun () -> Ref_token.mint r ~id))
          | Fresh ->
              let id = !next_fresh in
              incr next_fresh;
              agree what
                (outcome (fun () -> Token.fresh reg ~id))
                (outcome (fun () -> Ref_token.mint r ~id))
          | Use k -> on k what (Token.use reg) (Ref_token.use r)
          | Check k ->
              on k what
                (unit (Token.check reg))
                (unit (Ref_token.validate r))
          | Release k ->
              on k what
                (unit (Token.release reg))
                (unit (Ref_token.release r))
          | Flushed_at k ->
              on k what (Token.flushed_at reg) (Ref_token.flushed_at r)
          | Assert_fenced k ->
              on k what (Token.assert_fenced reg) (Ref_token.assert_fenced r)
          | Bump_epoch ->
              Token.bump_epoch reg;
              r.Ref_token.epoch <- r.Ref_token.epoch + 1;
              if Token.epoch reg <> r.Ref_token.epoch then
                QCheck.Test.fail_reportf "epoch %d, want %d" (Token.epoch reg)
                  r.Ref_token.epoch)
        steps;
      (* only minted ids have a table entry *)
      let minted =
        List.sort_uniq Int.compare
          (List.filter_map (function Mint id -> Some id | _ -> None) steps)
      in
      Token.tracked reg = List.length minted)

(* {1 The volatile index's slot masks}

   Directory-page slot bookkeeping against a model that is a set of
   (page, slot) pairs: [free_slot] must name the model's lowest free
   slot on the first page, in [dir_pages] order, that has one. *)

module Index = Squirrelfs.Index

type index_step =
  | Add_page of int * int (* dir, page *)
  | Remove_page of int * int
  | Insert of int * string * int * int (* dir, name, page, slot *)
  | Remove of int * string
  | Mark_used of int * int (* page, slot *)
  | Mark_free of int * int
  | Fill of int (* every slot of a page, through [mark_slot_used] *)

let pp_index_step = function
  | Add_page (d, p) -> Printf.sprintf "add_dir_page %d %d" d p
  | Remove_page (d, p) -> Printf.sprintf "remove_dir_page %d %d" d p
  | Insert (d, n, p, s) -> Printf.sprintf "insert_dentry %d %s (%d,%d)" d n p s
  | Remove (d, n) -> Printf.sprintf "remove_dentry %d %s" d n
  | Mark_used (p, s) -> Printf.sprintf "mark_slot_used (%d,%d)" p s
  | Mark_free (p, s) -> Printf.sprintf "mark_slot_free (%d,%d)" p s
  | Fill p -> Printf.sprintf "fill %d" p

let index_steps =
  let open QCheck.Gen in
  let dir = int_range 1 2 and page = int_bound 4 in
  (* slots cluster low, so pages fill up and free slots sit mid-page *)
  let slot =
    frequency [ (3, int_bound 3); (1, int_bound (G.dentries_per_page - 1)) ]
  in
  let name = map (Printf.sprintf "n%d") (int_bound 5) in
  let step =
    frequency
      [
        (2, map2 (fun d p -> Add_page (d, p)) dir page);
        (1, map2 (fun d p -> Remove_page (d, p)) dir page);
        ( 4,
          map2
            (fun (d, n) (p, s) -> Insert (d, n, p, s))
            (pair dir name) (pair page slot) );
        (2, map2 (fun d n -> Remove (d, n)) dir name);
        (3, map2 (fun p s -> Mark_used (p, s)) page slot);
        (3, map2 (fun p s -> Mark_free (p, s)) page slot);
        (1, map (fun p -> Fill p) page);
      ]
  in
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map pp_index_step l))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 1 80) step)

let prop_index_free_slot_matches_model =
  QCheck.Test.make ~count:500 ~name:"free_slot matches a (page, slot) set model"
    index_steps (fun steps ->
      let idx = Index.create () in
      Index.add_dir idx 1;
      Index.add_dir idx 2;
      let used = Hashtbl.create 64 and names = Hashtbl.create 16 in
      let expected dir =
        List.find_map
          (fun page ->
            List.find_map
              (fun slot ->
                if Hashtbl.mem used (page, slot) then None
                else Some { Index.page; slot })
              (List.init G.dentries_per_page Fun.id))
          (Index.dir_pages idx ~dir)
      in
      let mark_used page slot =
        Index.mark_slot_used idx { Index.page; slot };
        Hashtbl.replace used (page, slot) ()
      in
      List.iter
        (fun step ->
          (match step with
          | Add_page (dir, page) -> Index.add_dir_page idx ~dir page
          | Remove_page (dir, page) -> Index.remove_dir_page idx ~dir page
          | Insert (dir, name, page, slot) ->
              Index.insert_dentry idx ~dir name ~ino:7 { Index.page; slot };
              Hashtbl.replace names (dir, name) (page, slot);
              Hashtbl.replace used (page, slot) ()
          | Remove (dir, name) ->
              Index.remove_dentry idx ~dir name;
              Option.iter (Hashtbl.remove used)
                (Hashtbl.find_opt names (dir, name));
              Hashtbl.remove names (dir, name)
          | Mark_used (page, slot) -> mark_used page slot
          | Mark_free (page, slot) ->
              Index.mark_slot_free idx { Index.page; slot };
              Hashtbl.remove used (page, slot)
          | Fill page ->
              for slot = 0 to G.dentries_per_page - 1 do
                mark_used page slot
              done);
          List.iter
            (fun dir ->
              let got = Index.free_slot idx ~dir and want = expected dir in
              if got <> want then
                let show = function
                  | None -> "none"
                  | Some l -> Printf.sprintf "(%d,%d)" l.Index.page l.Index.slot
                in
                QCheck.Test.fail_reportf "after %s: dir %d free_slot %s, want %s"
                  (pp_index_step step) dir (show got) (show want))
            [ 1; 2 ])
        steps;
      true)

(* {1 Index generation}

   The server's lock protocol trusts keys walked at an unchanged
   generation, so every change a [lookup] or [is_dir] answer can show
   must move it; file-page, directory-page and slot changes must not,
   so data writes never force a re-walk. Each step is applied (a step on
   an unindexed directory or file raises and changes nothing), then
   every lookup over a fixed universe of directories and names and
   every [is_dir] over a fixed range of inode numbers is probed. *)

type gen_step =
  | Add_dir of int
  | Remove_dir of int
  | Insert_dentry of int * string * int * int (* dir, name, ino, slot *)
  | Remove_dentry of int * string
  | Add_dir_page of int * int (* dir, page *)
  | Slot_used of int * int (* page, slot *)
  | Slot_free of int * int
  | Add_file of int
  | Add_file_page of int * int * int (* ino, offset, page *)
  | Remove_file_page of int * int
  | Remove_file of int

let pp_gen_step = function
  | Add_dir d -> Printf.sprintf "add_dir %d" d
  | Remove_dir d -> Printf.sprintf "remove_dir %d" d
  | Insert_dentry (d, n, i, s) -> Printf.sprintf "insert_dentry %d %s ino %d slot %d" d n i s
  | Remove_dentry (d, n) -> Printf.sprintf "remove_dentry %d %s" d n
  | Add_dir_page (d, p) -> Printf.sprintf "add_dir_page %d %d" d p
  | Slot_used (p, s) -> Printf.sprintf "mark_slot_used (%d,%d)" p s
  | Slot_free (p, s) -> Printf.sprintf "mark_slot_free (%d,%d)" p s
  | Add_file i -> Printf.sprintf "add_file %d" i
  | Add_file_page (i, o, p) -> Printf.sprintf "add_file_page %d @%d = %d" i o p
  | Remove_file_page (i, o) -> Printf.sprintf "remove_file_page %d @%d" i o
  | Remove_file i -> Printf.sprintf "remove_file %d" i

let gen_inos = List.init 6 (fun i -> i + 1)
let gen_names = [ "n0"; "n1"; "n2" ]

let gen_steps =
  let open QCheck.Gen in
  let ino = int_range 1 6 and name = oneofl gen_names and small = int_bound 3 in
  let step =
    frequency
      [
        (2, map (fun d -> Add_dir d) ino);
        (1, map (fun d -> Remove_dir d) ino);
        (4, map2 (fun (d, n) (i, s) -> Insert_dentry (d, n, i, s)) (pair ino name) (pair ino small));
        (2, map2 (fun d n -> Remove_dentry (d, n)) ino name);
        (1, map2 (fun d p -> Add_dir_page (d, p)) ino small);
        (1, map2 (fun p s -> Slot_used (p, s)) small small);
        (1, map2 (fun p s -> Slot_free (p, s)) small small);
        (1, map (fun i -> Add_file i) ino);
        (2, map3 (fun i o p -> Add_file_page (i, o, p)) ino small small);
        (1, map2 (fun i o -> Remove_file_page (i, o)) ino small);
        (1, map (fun i -> Remove_file i) ino);
      ]
  in
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map pp_gen_step l))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 1 60) step)

let prop_index_generation =
  QCheck.Test.make ~count:500 ~name:"generation moves with every lookup or is_dir change"
    gen_steps (fun steps ->
      let idx = Index.create () in
      let probe () =
        ( List.concat_map
            (fun dir -> List.map (fun name -> Index.lookup idx ~dir name) gen_names)
            gen_inos,
          List.map (Index.is_dir idx) gen_inos )
      in
      let apply = function
        | Add_dir d -> Index.add_dir idx d
        | Remove_dir d -> Index.remove_dir idx d
        | Insert_dentry (dir, name, ino, slot) ->
            Index.insert_dentry idx ~dir name ~ino { Index.page = ino; slot }
        | Remove_dentry (dir, name) -> Index.remove_dentry idx ~dir name
        | Add_dir_page (dir, page) -> Index.add_dir_page idx ~dir page
        | Slot_used (page, slot) -> Index.mark_slot_used idx { Index.page; slot }
        | Slot_free (page, slot) -> Index.mark_slot_free idx { Index.page; slot }
        | Add_file ino -> Index.add_file idx ino
        | Add_file_page (ino, offset, page) -> Index.add_file_page idx ~ino ~offset page
        | Remove_file_page (ino, offset) -> Index.remove_file_page idx ~ino ~offset
        | Remove_file ino -> Index.remove_file idx ino
      in
      let invisible = function
        | Add_dir _ | Remove_dir _ | Insert_dentry _ | Remove_dentry _ -> false
        | Add_dir_page _ | Slot_used _ | Slot_free _ | Add_file _ | Add_file_page _
        | Remove_file_page _ | Remove_file _ ->
            true
      in
      ignore
        (List.fold_left
           (fun (seen, gen) step ->
             (try apply step with Invalid_argument _ -> ());
             let now = probe () and gen' = Index.generation idx in
             if now <> seen && gen' = gen then
               QCheck.Test.fail_reportf "after %s: an answer changed, generation stayed %d"
                 (pp_gen_step step) gen;
             if invisible step && gen' <> gen then
               QCheck.Test.fail_reportf "after %s: generation moved %d -> %d" (pp_gen_step step)
                 gen gen';
             (now, gen'))
           (probe (), Index.generation idx)
           steps);
      true)

(* {1 The table decoder}

   [Scan.decode] must agree, on every backed slot, with the per-field
   device readers it replaces: [Inode.decode]/[is_allocated],
   [Desc.decode]/[is_allocated] and [Dentry.decode]. Inputs are crash
   images of short op sequences, then random overwrites of their table
   records, biased towards what a hostile or torn image holds: ino/slot
   mismatches, invalid kinds, names with no NUL in all 110 bytes. *)

module Device = Pmem.Device
module Scan = Squirrelfs.Scan

let decoder_images =
  lazy
    (let images = ref [] in
     List.iter
       (fun ops ->
         let dev = Device.create ~size:(256 * 1024) () in
         Squirrelfs.Mount.mkfs dev;
         let fs = ok (Squirrelfs.mount dev) in
         Device.set_fence_hook dev
           (Some (fun d -> images := Images.crash_images ~max_images:4 d @ !images));
         List.iter (fun op -> ignore (op fs : (unit, Vfs.Errno.t) result)) ops;
         Device.set_fence_hook dev None)
       [
         [
           (fun fs -> Squirrelfs.mkdir fs "/d");
           (fun fs -> Squirrelfs.create fs "/d/f");
           (fun fs -> Result.map ignore (Squirrelfs.write fs "/d/f" ~off:0 (String.make 5000 'x')));
           (fun fs -> Squirrelfs.rename fs "/d/f" "/g");
         ];
         [
           (fun fs -> Squirrelfs.create fs "/a");
           (fun fs -> Squirrelfs.link fs "/a" "/b");
           (fun fs -> Squirrelfs.unlink fs "/a");
           (fun fs -> Squirrelfs.mkdir fs "/e");
           (fun fs -> Squirrelfs.rmdir fs "/e");
         ];
       ];
     Array.of_list !images)

(* Overwrite [n] table records of [img] in place, drawing from [rng]. *)
let scribble rng (g : G.t) img n =
  let set64 off v = Bytes.set_int64_le img off (Int64.of_int v) in
  let int = Random.State.int rng in
  for _ = 1 to n do
    let inode = G.inode_off g ~ino:(1 + int g.inode_count) in
    let desc = G.desc_off g ~page:(int (min 16 g.page_count)) in
    let dentry = G.dentry_off g ~page:(int (min 16 g.page_count)) ~slot:(int 32) in
    match int 8 with
    | 0 -> set64 (inode + R.Inode.f_ino) (int 24)
    | 1 -> set64 (inode + R.Inode.f_kind) (int 6)
    | 2 -> set64 (desc + R.Desc.f_kind) (int 4)
    | 3 -> set64 (desc + R.Desc.f_ino) (int 24)
    | 4 -> Bytes.fill img (dentry + R.Dentry.f_name) G.name_max 'n'
    | 5 -> set64 (dentry + R.Dentry.f_ino) (int 24)
    | _ ->
        let base = [| inode; desc; dentry |].(int 3) in
        for _ = 1 to 1 + int 8 do
          Bytes.set img (base + int 64) (Char.chr (int 256))
        done
  done

(* The field-by-field inode reader that [R.Inode.decode]'s one window
   replaced: ten [read_u64]s for a decoded record, fewer for a free one
   or an invalid kind. The reference for [Scan.decode]'s inode fields
   and for [R.Inode.decode]'s value and bill. *)
let inode_by_fields dev ~base =
  let field f = Device.read_u64 dev (base + f) in
  let ino = field R.Inode.f_ino in
  if ino = 0 then None
  else
    match R.Kind.of_int (field R.Inode.f_kind) with
    | None -> None
    | Some kind ->
        Some
          {
            R.Inode.ino;
            kind;
            links = field R.Inode.f_links;
            size = field R.Inode.f_size;
            atime = field R.Inode.f_atime;
            mtime = field R.Inode.f_mtime;
            ctime = field R.Inode.f_ctime;
            mode = field R.Inode.f_mode;
            uid = field R.Inode.f_uid;
            gid = field R.Inode.f_gid;
          }

let decoder_agrees dev =
  let g = (Option.get (R.Superblock.read dev)).R.Superblock.geometry in
  let dec = Scan.decode dev g in
  let backed off len =
    List.exists (fun (o, l) -> off >= o && off + len <= o + l) (Device.backed_spans dev)
  in
  let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
  let k = ref 0 in
  for ino = 1 to g.inode_count do
    let base = G.inode_off g ~ino in
    if backed base G.inode_size <> Scan.inode_backed dec ino then fail "inode %d: backed" ino;
    if backed base G.inode_size && R.Inode.is_allocated dev ~base then begin
      if !k >= Array.length dec.inos || dec.inos.(!k) <> ino then fail "inode %d: not listed" ino;
      let got = dec.inodes.(!k) in
      (match inode_by_fields dev ~base with
      | Some r -> if got <> r then fail "inode %d: fields differ" ino
      | None -> if got != Scan.undecodable_inode then fail "inode %d: decoded" ino);
      if dec.ino_words.(!k) <> Device.read_u64 dev (base + R.Inode.f_ino) then
        fail "inode %d: ino word" ino;
      incr k
    end
  done;
  if !k <> Array.length dec.inos then fail "extra inode records";
  let k = ref 0 and dentries = ref 0 in
  for page = 0 to g.page_count - 1 do
    let base = G.desc_off g ~page in
    if backed base G.desc_size <> Scan.page_backed dec page then fail "page %d: backed" page;
    if backed base G.desc_size && R.Desc.is_allocated dev ~base then begin
      if !k >= Array.length dec.pages || dec.pages.(!k) <> page then fail "page %d: not listed" page;
      let got = dec.descs.(!k) in
      (match R.Desc.decode dev ~base with
      | Some d -> (
          if got <> d then fail "page %d: fields differ" page;
          if d.ino <> 0 && d.kind = R.Desc.Dirpage then
            let listed = ref [] in
            Scan.iter_dentries dec ~page (fun j -> listed := j :: !listed);
            let listed = List.rev !listed in
            dentries := !dentries + List.length listed;
            let want =
              List.filter_map
                (fun slot ->
                  Option.map (fun e -> (slot, e))
                    (R.Dentry.decode dev ~base:(G.dentry_off g ~page ~slot)))
                (List.init G.dentries_per_page Fun.id)
            in
            let got j =
              ( dec.dent_slots.(j),
                { R.Dentry.name = dec.dent_names.(j); ino = dec.dent_inos.(j);
                  rename_ptr = dec.dent_rptrs.(j) } )
            in
            if List.map got listed <> want
            then fail "page %d: dentries differ" page)
      | None -> if got != Scan.undecodable_desc then fail "page %d: decoded" page);
      if dec.desc_words.(!k) <> Device.read_u64 dev (base + R.Desc.f_ino) then
        fail "page %d: ino word" page;
      incr k
    end
  done;
  if !k <> Array.length dec.pages then fail "extra descriptors";
  !dentries = Array.length dec.dent_inos || fail "extra dentries"

let prop_decoder_matches_readers =
  QCheck.Test.make ~count:300 ~name:"Scan.decode agrees with the field readers"
    QCheck.(pair small_nat (int_bound 6))
    (fun (seed, n) ->
      let images = Lazy.force decoder_images in
      let img = Bytes.copy images.(seed mod Array.length images) in
      let rng = Random.State.make [| seed; n |] in
      let g = G.compute ~device_size:(Bytes.length img) in
      scribble rng g img n;
      decoder_agrees (Device.of_image img))

(* [R.Inode.decode] reads one window and bills it in one call: on an
   allocated record, a free one, an invalid kind and an unbacked chunk
   it answers what the field-by-field reader answers, and moves the
   clock, [reads] and [bytes_read] exactly as far. *)
let test_inode_decode_matches_fields () =
  let dev = Device.create ~latency:Pmem.Latency.optane ~size:(1024 * 1024) () in
  let g = G.compute ~device_size:(1024 * 1024) in
  let put ino f v = Device.store_u64 dev (G.inode_off g ~ino + f) v in
  List.iteri (fun i f -> put 3 f (100 + i))
    R.Inode.[ f_links; f_size; f_atime; f_mtime; f_ctime; f_mode; f_uid; f_gid ];
  put 3 R.Inode.f_ino 3;
  put 3 R.Inode.f_kind (R.Kind.to_int R.Kind.File);
  put 5 R.Inode.f_ino 5;
  put 5 R.Inode.f_kind 7;
  put 5 R.Inode.f_links 1;
  let unbacked = g.G.inode_count in
  let base ino = G.inode_off g ~ino in
  Alcotest.(check bool) "the last inode's chunk is unbacked" true
    (Device.record_view dev ~off:(base unbacked) ~len:G.inode_size = None);
  let billed decode ino =
    let st = Device.stats dev in
    let t0 = Device.now_ns dev and r0 = st.reads and b0 = st.bytes_read in
    let r = decode dev ~base:(base ino) in
    (r, (Device.now_ns dev - t0, st.reads - r0, st.bytes_read - b0))
  in
  List.iter
    (fun (what, ino) ->
      let want, want_bill = billed inode_by_fields ino in
      let got, got_bill = billed R.Inode.decode ino in
      Alcotest.(check bool) (what ^ ": value") true (got = want);
      Alcotest.(check (triple int int int)) (what ^ ": ns, reads, bytes") want_bill got_bill)
    [ ("allocated", 3); ("free", 4); ("invalid kind", 5); ("unbacked", unbacked) ];
  Alcotest.(check bool) "the allocated record decodes" true
    (Option.is_some (R.Inode.decode dev ~base:(base 3)))

(* A borrowed device's decode is remembered until its content changes;
   a live device's never is. *)
let test_decode_shared_on_views () =
  let dev = Device.create ~size:(256 * 1024) () in
  Squirrelfs.Mount.mkfs dev;
  let g = (Option.get (R.Superblock.read dev)).R.Superblock.geometry in
  let s = Device.scratch dev in
  Device.apply_view s (List.hd (Device.crash_views dev));
  let d = Device.of_view s in
  let first = Scan.decode d g in
  Alcotest.(check bool) "no store between: the same decode" true (Scan.decode d g == first);
  Device.store_u64 d (G.inode_off g ~ino:5 + R.Inode.f_ino) 5;
  let after = Scan.decode d g in
  Alcotest.(check bool) "after a store: a fresh decode" true (after != first);
  Alcotest.(check (pair bool bool)) "the fresh decode shows the store" (false, true)
    (Scan.inode_allocated first 5, Scan.inode_allocated after 5);
  Alcotest.(check bool) "another borrow: a fresh decode" true
    (Scan.decode (Device.of_view s) g != after);
  Alcotest.(check bool) "a live device: never shared" true
    (Scan.decode dev g != Scan.decode dev g)

(* {2 One decode per crash view}

   A crash view's raw fsck, recovering mount and fsck read one decode:
   the first is full, the others update it over the lines recovery
   stored. Whatever the updates skipped, each must equal a fresh full
   decode of the same bytes, field by field. *)

let same_decode (a : Scan.t) (b : Scan.t) =
  let same_recs none x y =
    Array.length x = Array.length y
    && Array.for_all2 (fun r s -> r = s && (r == none) = (s == none)) x y
  in
  a.inode_runs = b.inode_runs && a.inos = b.inos && a.ino_words = b.ino_words
  && same_recs Scan.undecodable_inode a.inodes b.inodes
  && a.page_runs = b.page_runs && a.pages = b.pages && a.desc_words = b.desc_words
  && same_recs Scan.undecodable_desc a.descs b.descs
  && a.dent_pages = b.dent_pages && a.dent_slots = b.dent_slots
  && a.dent_names = b.dent_names && a.dent_inos = b.dent_inos
  && a.dent_rptrs = b.dent_rptrs && a.dent_ino_pos = b.dent_ino_pos
  && a.desc_ino_pos = b.desc_ino_pos

let prop_view_decodes_fresh =
  QCheck.Test.make ~count:30 ~name:"crash-view decodes equal fresh full decodes"
    QCheck.small_nat (fun seed ->
      let rng = Random.State.make [| 0xDEC0DE; seed |] in
      let ops = Fuzzer.Gen.sequence rng { Fuzzer.Gen.op_budget = 10; buggy_rate = 0.3 } in
      let dev = Device.create ~size:(256 * 1024) () in
      Squirrelfs.Mount.mkfs dev;
      let fs = ok (Squirrelfs.mount dev) in
      let s = Device.scratch dev in
      let fail = ref None in
      let same what d g =
        if !fail = None && not (same_decode (Scan.decode d g) (Scan.decode_media d g)) then
          fail :=
            Some
              (Format.asprintf "%s differs after %a" what Crashcheck.Workload.pp ops)
      in
      let probe d =
        List.iter
          (fun v ->
            Device.apply_view s v;
            let d2 = Device.of_view s in
            match R.Superblock.read d2 with
            | None -> ()
            | Some sb -> (
                let g = sb.R.Superblock.geometry in
                ignore (Squirrelfs.Fsck.check_raw d2 g : string list);
                same "raw fsck's decode" d2 g;
                match Squirrelfs.mount d2 with
                | Error _ -> ()
                | Ok fs2 ->
                    same "the recovered mount's decode" d2 g;
                    ignore (Squirrelfs.Fsck.check fs2 : string list);
                    same "fsck's decode" d2 g))
          (Device.crash_views ~max_images:8 d)
      in
      Device.set_fence_hook dev (Some probe);
      List.iter (fun op -> ignore (Fuzzer.Exec.apply_sq fs op)) ops;
      Device.set_fence_hook dev None;
      match !fail with None -> true | Some msg -> QCheck.Test.fail_report msg)

(* A verdict makes one full decode: [Exec.run] of a sequence whose crash
   views recover (renames, links and orphans to repair) makes one per
   distinct crash state, and two for the live volume (its mount and its
   closing fsck). Each verdict's fsck updates the decode once, over what
   the recovering mount stored. *)
let test_one_full_decode_per_verdict () =
  let ops =
    Crashcheck.Workload.
      [
        Mkdir "/d";
        Create "/d/a";
        Write ("/d/a", 0, String.make 5000 'w');
        Link ("/d/a", "/b");
        Rename ("/d/a", "/c");
        Unlink "/b";
      ]
  in
  let before = Scan.counts () in
  let o = Fuzzer.Exec.run ops in
  let after = Scan.counts () in
  let h = o.Fuzzer.Exec.o_report in
  Alcotest.(check bool) "the run is clean" true (o.Fuzzer.Exec.o_fail = None);
  Alcotest.(check int) "full decodes: one per distinct crash state, two live"
    (h.Crashcheck.Harness.crash_states - h.Crashcheck.Harness.states_deduped + 2)
    (after.full_decodes - before.full_decodes);
  Alcotest.(check int) "one update per verdict: fsck's, after the mount's stores"
    (h.Crashcheck.Harness.crash_states - h.Crashcheck.Harness.states_deduped)
    (after.line_updates - before.line_updates)

(* {2 The snapshot table's bill}

   The snapshot table is read from one window; its readers bill the
   per-record reads they stand for. The references are those reads:
   [check_raw]'s, [check]'s and [snap_recover]'s, the latter with its
   stores. *)

module S = Layout.Snaptab

let raw_reads dev =
  if not (S.Intent.state dev = 1 && S.Intent.verify dev) then begin
    if S.Intent.state dev = 1 then ignore (S.Intent.verify dev : bool);
    for slot = 0 to S.slots - 1 do
      if S.Slot.state dev ~slot = 1 && S.Slot.verify dev ~slot then
        ignore (S.Slot.decode dev ~slot : S.Slot.t option)
    done
  end

let check_reads dev =
  ignore (S.Intent.is_free dev : bool);
  for slot = 0 to S.slots - 1 do
    match S.Slot.state dev ~slot with
    | 1 -> if S.Slot.verify dev ~slot then ignore (S.Slot.decode dev ~slot : S.Slot.t option)
    | 0 -> ignore (S.Slot.is_free dev ~slot : bool)
    | _ -> ()
  done

let recover_by_slots dev (geo : G.t) =
  (match S.Intent.decode dev with
  | Some { slot = _; log_page; count } when S.Intent.verify dev ->
      let entries = ref [] in
      let page = ref log_page and remaining = ref count in
      while !page >= 0 && !page < geo.page_count && !remaining > 0 do
        let base = G.page_off geo ~page:!page in
        let n = min (Device.read_u64 dev (base + S.Log.f_count)) !remaining in
        for i = 0 to n - 1 do
          entries := S.Log.read_entry dev ~page_base:base i :: !entries
        done;
        remaining := !remaining - n;
        page := Device.read_u64 dev (base + S.Log.f_next) - 1
      done;
      List.iter
        (fun (off, data) ->
          Device.store dev ~off data;
          Device.flush dev ~off ~len:(String.length data))
        !entries;
      Device.fence dev;
      S.Intent.clear dev;
      Device.fence dev
  | Some _ ->
      S.Intent.clear dev;
      Device.fence dev
  | None ->
      if not (S.Intent.is_free dev) then begin
        S.Intent.clear dev;
        Device.fence dev
      end);
  let cleared = ref false in
  for slot = 0 to S.slots - 1 do
    if S.Slot.state dev ~slot <> 1 && not (S.Slot.is_free dev ~slot) then begin
      S.Slot.clear dev ~slot;
      cleared := true
    end
  done;
  if !cleared then Device.fence dev

let bill dev f =
  let st = Device.stats dev in
  let t0 = Device.now_ns dev and r0 = st.reads and b0 = st.bytes_read in
  let s0 = st.stores and fl0 = st.flushes and fe0 = st.fences in
  f ();
  ( (Device.now_ns dev - t0, st.reads - r0, st.bytes_read - b0),
    (st.stores - s0, st.flushes - fl0, st.fences - fe0) )

let test_snaptab_bills () =
  (* crash images of a fresh volume, of snapshots being taken and
     deleted over files, and of a rollback under way *)
  let dev = Device.create ~size:(256 * 1024) () in
  Squirrelfs.Mount.mkfs dev;
  let fresh = Device.image_durable dev in
  let fs = ok (Squirrelfs.mount dev) in
  let images = ref [ fresh ] in
  Device.set_fence_hook dev (Some (fun d -> images := Images.crash_images ~max_images:8 d @ !images));
  ok (Squirrelfs.create fs "/a");
  ignore (ok (Squirrelfs.write fs "/a" ~off:0 "v1") : int);
  ignore (ok (Snap.snapshot fs "s0") : Snap.info);
  ignore (ok (Squirrelfs.write fs "/a" ~off:0 "v2") : int);
  ignore (ok (Snap.snapshot fs "a-longer-snapshot-name-1") : Snap.info);
  ok (Snap.rollback fs "s0");
  Device.set_fence_hook dev None;
  let geo = fs.Squirrelfs.Fsctx.geo in
  let of_image img = Device.of_image ~latency:Pmem.Latency.optane img in
  let mid_rollback = ref 0 and remnants = ref 0 and committed = ref 0 in
  List.iteri
    (fun i img ->
      let what k = Printf.sprintf "image %d: %s" i k in
      let d = of_image img in
      if S.Intent.state d = 1 then incr mid_rollback;
      for slot = 0 to S.slots - 1 do
        if S.Slot.state d ~slot = 1 then incr committed
        else if not (S.Slot.is_free d ~slot) then incr remnants
      done;
      let d = of_image img in
      let want = fst (bill d (fun () -> raw_reads d)) in
      let got = fst (bill d (fun () -> ignore (Squirrelfs.Fsck.check_raw d geo : string list))) in
      Alcotest.(check (triple int int int)) (what "raw fsck: ns, reads, bytes") want got;
      let a = of_image img and b = of_image img in
      let want = bill a (fun () -> recover_by_slots a geo) in
      let got = bill b (fun () -> Squirrelfs.Mount.snap_recover b geo) in
      Alcotest.(check (pair (triple int int int) (triple int int int)))
        (what "recovery: bill and stores, flushes, fences") want got;
      Alcotest.(check bool) (what "recovery: the same image") true
        (Bytes.equal (Device.image_latest a) (Device.image_latest b));
      match Squirrelfs.Mount.mount_recover (of_image img) with
      | Error _ -> ()
      | Ok ctx ->
          let d = ctx.Squirrelfs.Fsctx.dev in
          let got = fst (bill d (fun () -> ignore (Squirrelfs.Fsck.check ctx : string list))) in
          let want = fst (bill d (fun () -> check_reads d)) in
          Alcotest.(check (triple int int int)) (what "fsck: ns, reads, bytes") want got)
    !images;
  Alcotest.(check bool) "a committed rollback intent, an uncommitted slot and a committed one"
    true
    (!mid_rollback > 0 && !remnants > 0 && !committed > 0)

let prop_window_nonzero =
  let gen =
    QCheck.Gen.(
      int_range 8 256 >>= fun size ->
      list_size (int_bound 3) (pair (int_bound (size - 1)) (int_range 1 255)) >>= fun sets ->
      int_bound size >>= fun pos ->
      int_bound ((size - pos) / 8) >>= fun words -> return (size, sets, pos, 8 * words))
  in
  let print (size, sets, pos, len) =
    Printf.sprintf "size %d, nonzero at [%s], window %d+%d" size
      (String.concat "; " (List.map (fun (i, c) -> Printf.sprintf "%d=%d" i c) sets))
      pos len
  in
  QCheck.Test.make ~count:1000 ~name:"window_nonzero agrees with a byte loop"
    (QCheck.make ~print gen)
    (fun (size, sets, pos, len) ->
      let buf = Bytes.make size '\000' in
      List.iter (fun (i, c) -> Bytes.set buf i (Char.chr c)) sets;
      let want = ref false in
      for i = pos to pos + len - 1 do
        if Bytes.get buf i <> '\000' then want := true
      done;
      R.window_nonzero buf pos len = !want)

let test_window_nonzero_bounds () =
  let buf = Bytes.make 64 '\001' in
  List.iter
    (fun (what, pos, len) ->
      Alcotest.check_raises what (Invalid_argument "Layout.Records.window_nonzero")
        (fun () -> ignore (R.window_nonzero buf pos len : bool)))
    [ ("past the end", 8, 64); ("negative offset", -8, 8); ("not whole words", 0, 12) ]

let () =
  Alcotest.run "units"
    [
      ( "path",
        [
          ("split", `Quick, test_path_split);
          ("parent/base", `Quick, test_parent_base);
          ("valid names", `Quick, test_valid_name);
        ] );
      ( "geometry",
        [
          ("partition", `Quick, test_geometry_partition);
          ("dentry loc roundtrip", `Quick, test_dentry_loc_roundtrip);
          ("too small", `Quick, test_geometry_too_small);
          QCheck_alcotest.to_alcotest prop_geometry_any_size;
        ] );
      ( "records",
        [
          ("inode roundtrip", `Quick, test_inode_record_roundtrip);
          ("dentry roundtrip", `Quick, test_dentry_record_roundtrip);
          ("superblock roundtrip", `Quick, test_superblock_roundtrip);
          QCheck_alcotest.to_alcotest prop_decoder_matches_readers;
          ("inode decode bills as its field reads", `Quick, test_inode_decode_matches_fields);
          ("decode shared on views", `Quick, test_decode_shared_on_views);
          QCheck_alcotest.to_alcotest prop_view_decodes_fresh;
          ("one full decode per verdict", `Quick, test_one_full_decode_per_verdict);
          ("snapshot table bills as its record reads", `Quick, test_snaptab_bills);
          QCheck_alcotest.to_alcotest prop_window_nonzero;
          ("window_nonzero bounds", `Quick, test_window_nonzero_bounds);
        ] );
      ( "tokens",
        [
          ("lifecycle", `Quick, test_token_lifecycle);
          ("re-mint invalidates", `Quick, test_token_mint_invalidates);
          ("fence epochs", `Quick, test_token_fence_epochs);
          QCheck_alcotest.to_alcotest prop_token_distinct_ids_independent;
          QCheck_alcotest.to_alcotest prop_token_cells_match_tables;
        ] );
      ( "index",
        [
          QCheck_alcotest.to_alcotest prop_index_free_slot_matches_model;
          QCheck_alcotest.to_alcotest prop_index_generation;
        ] );
    ]
