(* Trace-driven SSU ordering checker.

   A pure function over a recorded event stream that re-verifies, from the
   trace alone, the ordering discipline the typestate layer enforces
   statically:

   Local (per cache line) rules
     L1  no regular store may land on a line that still holds flushed
         ("in-flight") regular records — mutation must wait for the fence.
         Non-temporal/coarse stores are exempt on both sides: the device
         flushes them eagerly and the superblock writer legitimately
         streams sequential nt stores into one line.
     L2  a [Claim_clean] (a typestate [fence]/[after_fence] transition)
         requires every covered line to be fully drained: no dirty and no
         in-flight records.
     L3  stores that carry a commit field (dentry/desc inode backpointers,
         link counts, sizes) must cover the 8-byte field entirely so the
         device's record split keeps them crash-atomic.

   Ordering (Soft Updates) rules, checked against a durable shadow of the
   file system that only advances when records drain at a fence:
     R-create  a dentry commit (store of a nonzero inode number into a
               dentry) requires the referenced inode to be durably
               initialized, its lines quiescent, and — for files and
               symlinks — every page implied by its durable size durably
               owned.  This catches [Buggy_create].
     R-unlink  lowering a durable link count consumes one piece of
               durable "dentry cleared/replaced" evidence for that inode
               (plus one for the owning directory when a directory entry
               vanishes).  The rule guards "links >= references" in every
               crash state, so a drop with no evidence left is a
               violation only on an inode some dentry references —
               durably, or through a stored but undrained dentry commit a
               crash may drain.  An inode no crash state references (an
               anonymous tmpfile's, reclaimed by recovery) cannot break
               that invariant whatever its count.  This catches
               [Buggy_unlink].
     R-write   growing the durable-reachable size of a file requires every
               implied page offset to be durably owned by that inode
               first.  This catches [Buggy_write].

   The checker assumes a fault-free trace ([Flip] events are ignored) and
   a preamble of [Meta] + [Snap_*] events describing the durable state at
   the point recording began. *)

type violation = {
  v_index : int; (* position of the offending event in the stream *)
  v_ts : int;
  v_rule : string;
  v_detail : string;
}

let pp_violation ppf v =
  Format.fprintf ppf "event #%d at %dns violates %s: %s" v.v_index v.v_ts
    v.v_rule v.v_detail

let line_size = 64

type geo = {
  g_itab : int;
  g_icount : int;
  g_dtab : int;
  g_pcount : int;
  g_data : int;
  g_root : int;
  g_isize : int;
  g_dsize : int;
  g_psize : int;
  g_desize : int;
  (* snapshot-table geometry; 0 in traces predating snapshots = the
     R-snap rule and the rollback suspension window are disabled *)
  g_snap_tab : int;
  g_snap_slots : int;
  g_snap_ssize : int;
  g_snap_intent : int;
}

let geo_of_meta kvs =
  let f k = List.assoc_opt k kvs in
  match (f "inode_table_off", f "page_desc_off", f "data_off") with
  | Some itab, Some dtab, Some data ->
      let d k v = Option.value (f k) ~default:v in
      Some
        {
          g_itab = itab;
          g_icount = d "inode_count" 0;
          g_dtab = dtab;
          g_pcount = d "page_count" 0;
          g_data = data;
          g_root = d "root_ino" 1;
          g_isize = d "inode_size" 128;
          g_dsize = d "desc_size" 64;
          g_psize = d "page_size" 4096;
          g_desize = d "dentry_size" 128;
          g_snap_tab = d "snap_table_off" 0;
          g_snap_slots = d "snap_slots" 0;
          g_snap_ssize = d "snap_slot_size" 128;
          g_snap_intent = d "snap_intent_off" 0;
        }
  | _ -> None

(* kind codes, mirroring Layout.Records *)
let k_file = 1
let k_dir = 2
let k_symlink = 3
let dk_data = 1
let dk_dirpage = 2

(* Semantic updates decoded from a store, applied to the durable shadow
   when the carrying record drains at a fence. *)
type sem =
  | I_ino of int * int (* ino slot, stored value *)
  | I_kind of int * int
  | I_links of int * int
  | I_size of int * int
  | D_ino of int * int (* page, value *)
  | D_kind of int * int
  | D_off of int * int
  | De_ino of int * int * int (* page, slot, value *)

type lrec = { r_nt : bool; r_sems : sem list }

type lstate = {
  mutable l_recs : lrec list; (* oldest first *)
  mutable l_nflushed : int;
}

type st = {
  mutable geo : geo option;
  lines : (int, lstate) Hashtbl.t;
  (* durable shadow *)
  init_durable : (int, unit) Hashtbl.t; (* inos with durable nonzero f_ino *)
  i_kind : (int, int) Hashtbl.t;
  i_links : (int, int) Hashtbl.t;
  i_size : (int, int) Hashtbl.t;
  ref_by : (int * int, int) Hashtbl.t; (* (page, slot) -> durable referent *)
  nrefs : (int, int) Hashtbl.t; (* durable dentry references per ino *)
  d_ino : (int, int) Hashtbl.t; (* durable desc backpointer per page *)
  d_kind : (int, int) Hashtbl.t;
  d_kind_latest : (int, int) Hashtbl.t; (* latest stored, for classification *)
  d_off : (int, int) Hashtbl.t;
  clear_ev : (int, int) Hashtbl.t; (* durable dentry-clear evidence tokens *)
  mutable in_rollback : bool;
      (* between a committed rollback intent and its full-record
         zeroing: redo-log replay restores lines wholesale, its own
         commit discipline (the intent) replaces the semantic rules *)
  mutable viols : violation list; (* newest first *)
  mutable limit : int;
}

exception Done

let mk limit =
  {
    geo = None;
    lines = Hashtbl.create 256;
    init_durable = Hashtbl.create 64;
    i_kind = Hashtbl.create 64;
    i_links = Hashtbl.create 64;
    i_size = Hashtbl.create 64;
    ref_by = Hashtbl.create 64;
    nrefs = Hashtbl.create 64;
    d_ino = Hashtbl.create 64;
    d_kind = Hashtbl.create 64;
    d_kind_latest = Hashtbl.create 64;
    d_off = Hashtbl.create 64;
    clear_ev = Hashtbl.create 16;
    in_rollback = false;
    viols = [];
    limit;
  }

let geti tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0

let violate st ~index ~ts rule detail =
  st.viols <- { v_index = index; v_ts = ts; v_rule = rule; v_detail = detail } :: st.viols;
  if List.length st.viols >= st.limit then raise Done

let lstate st l =
  match Hashtbl.find_opt st.lines l with
  | Some s -> s
  | None ->
      let s = { l_recs = []; l_nflushed = 0 } in
      Hashtbl.replace st.lines l s;
      s

(* little-endian u64 decode, truncated to OCaml int (values are small) *)
let u64_at data i =
  let v = ref 0L in
  for j = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code data.[i + j]))
  done;
  Int64.to_int !v

(* -- durable shadow updates (at fence drain) ---------------------------- *)

let apply_sem st = function
  | I_ino (i, v) ->
      if v <> 0 then Hashtbl.replace st.init_durable i ()
      else Hashtbl.remove st.init_durable i
  | I_kind (i, v) -> Hashtbl.replace st.i_kind i v
  | I_links (i, v) -> Hashtbl.replace st.i_links i v
  | I_size (i, v) -> Hashtbl.replace st.i_size i v
  | D_ino (p, v) -> Hashtbl.replace st.d_ino p v
  | D_kind (p, v) -> Hashtbl.replace st.d_kind p v
  | D_off (p, v) -> Hashtbl.replace st.d_off p v
  | De_ino (p, s, v) ->
      let old = geti st.ref_by (p, s) in
      if old <> 0 && old <> v then begin
        (* a durable dentry stopped referencing [old]: evidence that a
           link count may now drop — for the referent, and for the owning
           directory when the referent is itself a directory *)
        Hashtbl.replace st.clear_ev old (geti st.clear_ev old + 1);
        if geti st.i_kind old = k_dir then begin
          let owner = geti st.d_ino p in
          if owner <> 0 then
            Hashtbl.replace st.clear_ev owner (geti st.clear_ev owner + 1)
        end
      end;
      if old <> 0 then Hashtbl.replace st.nrefs old (geti st.nrefs old - 1);
      if v <> 0 then Hashtbl.replace st.nrefs v (geti st.nrefs v + 1);
      Hashtbl.replace st.ref_by (p, s) v

(* -- offset classification ---------------------------------------------- *)

(* every durably-owned data page offset of [ino] *)
let owned_offsets st g ino =
  let owned = Hashtbl.create 16 in
  for p = 0 to g.g_pcount - 1 do
    if geti st.d_ino p = ino && geti st.d_kind p = dk_data then
      Hashtbl.replace owned (geti st.d_off p) ()
  done;
  owned

let pages_needed g size = (size + g.g_psize - 1) / g.g_psize

(* lines covered by the inode record of [ino] *)
let inode_lines g ino =
  let base = g.g_itab + ((ino - 1) * g.g_isize) in
  let first = base / line_size and last = (base + g.g_isize - 1) / line_size in
  (first, last)

let inode_quiescent st g ino =
  let first, last = inode_lines g ino in
  let ok = ref true in
  for l = first to last do
    match Hashtbl.find_opt st.lines l with
    | Some s when s.l_recs <> [] -> ok := false
    | _ -> ()
  done;
  !ok

(* -- semantic checks at store time -------------------------------------- *)

let check_commit st g ~index ~ts ~page ~slot v =
  if v <> 0 then begin
    if not (Hashtbl.mem st.init_durable v) then
      violate st ~index ~ts "R-create"
        (Printf.sprintf
           "dentry (page %d, slot %d) commits inode %d before its \
            initialization is durable"
           page slot v)
    else if not (inode_quiescent st g v) then
      violate st ~index ~ts "R-create"
        (Printf.sprintf
           "dentry (page %d, slot %d) commits inode %d while its record \
            still has undrained stores"
           page slot v)
    else begin
      let kind = geti st.i_kind v in
      if kind = k_file || kind = k_symlink then begin
        let size = geti st.i_size v in
        let needed = pages_needed g size in
        if needed > 0 then begin
          let owned = owned_offsets st g v in
          try
            for o = 0 to needed - 1 do
              if not (Hashtbl.mem owned o) then begin
                violate st ~index ~ts "R-create"
                  (Printf.sprintf
                     "commit of inode %d with durable size %d but page \
                      offset %d not durably owned"
                     v size o);
                raise Exit
              end
            done
          with Exit -> ()
        end
      end
    end
  end

(* Some stored but undrained dentry commit references [ino]. *)
let pending_ref st ino =
  Seq.exists
    (fun s ->
      List.exists
        (fun r -> List.exists (function De_ino (_, _, v) -> v = ino | _ -> false) r.r_sems)
        s.l_recs)
    (Hashtbl.to_seq_values st.lines)

(* Every drop consumes a token when one is there, so the evidence
   account is the same whether or not the drop is judged; only a drop on
   a referenced inode is a violation without one. *)
let check_links st ~index ~ts i v =
  if Hashtbl.mem st.init_durable i then begin
    let cur = geti st.i_links i in
    if v < cur then begin
      let ev = geti st.clear_ev i in
      if ev > 0 then Hashtbl.replace st.clear_ev i (ev - 1)
      else if geti st.nrefs i > 0 || pending_ref st i then
        violate st ~index ~ts "R-unlink"
          (Printf.sprintf
             "link count of inode %d lowered %d -> %d with no durable \
              dentry-clear evidence"
             i cur v)
    end
  end

let check_size st g ~index ~ts i v =
  if
    Hashtbl.mem st.init_durable i
    && geti st.nrefs i > 0
    &&
    let k = geti st.i_kind i in
    k = k_file || k = k_symlink
  then begin
    let needed = pages_needed g v in
    if needed > 0 then begin
      let owned = owned_offsets st g i in
      try
        for o = 0 to needed - 1 do
          if not (Hashtbl.mem owned o) then begin
            violate st ~index ~ts "R-write"
              (Printf.sprintf
                 "size of reachable inode %d set to %d before page offset \
                  %d is durably owned"
                 i v o);
            raise Exit
          end
        done
      with Exit -> ()
    end
  end

(* Decode the tracked fields covered by a store and run the store-time
   ordering checks.  Returns the semantic updates, each with its field's
   byte offset, to be queued on the covering lines until they drain. *)
let sems_of_store st ~index ~ts ~off ~data ~coarse =
  match st.geo with
  | None -> []
  | Some g ->
      let len = String.length data in
      let sems = ref [] in
      (* [fields] lists (absolute offset, make-sem) for one record *)
      let record base fields =
        List.iter
          (fun (fo, mk) ->
            if fo + 8 <= off + len && fo >= off then begin
              let v = u64_at data (fo - off) in
              sems := (fo, mk v) :: !sems
            end
            else if fo < off + len && fo + 8 > off then
              (* partial coverage of a tracked 8-byte field *)
              violate st ~index ~ts "L3"
                (Printf.sprintf
                   "store [%d,%d) partially covers the atomic field at %d \
                    (record base %d)"
                   off (off + len) fo base))
          fields
      in
      (* inode table *)
      let itab_end = g.g_itab + (g.g_icount * g.g_isize) in
      if off < itab_end && off + len > g.g_itab then begin
        let first = max 0 ((off - g.g_itab) / g.g_isize)
        and last = min (g.g_icount - 1) ((off + len - 1 - g.g_itab) / g.g_isize) in
        for s = first to last do
          let base = g.g_itab + (s * g.g_isize) in
          let ino = s + 1 in
          record base
            [
              (base + 0, fun v -> I_ino (ino, v));
              (base + 8, fun v -> I_kind (ino, v));
              (base + 16, fun v -> I_links (ino, v));
              (base + 24, fun v -> I_size (ino, v));
            ]
        done
      end;
      (* page descriptor table *)
      let dtab_end = g.g_dtab + (g.g_pcount * g.g_dsize) in
      if off < dtab_end && off + len > g.g_dtab then begin
        let first = max 0 ((off - g.g_dtab) / g.g_dsize)
        and last = min (g.g_pcount - 1) ((off + len - 1 - g.g_dtab) / g.g_dsize) in
        for p = first to last do
          let base = g.g_dtab + (p * g.g_dsize) in
          record base
            [
              (base + 0, fun v -> D_ino (p, v));
              (base + 8, fun v -> D_kind (p, v));
              (base + 16, fun v -> D_off (p, v));
            ]
        done
      end;
      (* dentries inside dirpage-classified data pages.  Only regular
         stores carry dentry semantics: every real commit/clear is an
         8-byte [store_u64], while coarse streams into the data region are
         page (re)fills whose bytes must not be misread as dentries. *)
      let data_end = g.g_data + (g.g_pcount * g.g_psize) in
      if (not coarse) && off < data_end && off + len > g.g_data then begin
        let firstp = max 0 ((off - g.g_data) / g.g_psize)
        and lastp =
          min (g.g_pcount - 1) ((off + len - 1 - g.g_data) / g.g_psize)
        in
        for p = firstp to lastp do
          if geti st.d_kind_latest p = dk_dirpage then begin
            let pbase = g.g_data + (p * g.g_psize) in
            let nslots = g.g_psize / g.g_desize in
            for s = 0 to nslots - 1 do
              let base = pbase + (s * g.g_desize) in
              record base [ (base + 112, fun v -> De_ino (p, s, v)) ]
            done
          end
        done
      end;
      (* store-time ordering checks, oldest field first for determinism.
         Inside a rollback window the redo-log replay restores lines
         wholesale in no semantic order — the committed intent is its
         own commit discipline — so the checks are suspended, but the
         decoded updates still queue so the durable shadow tracks the
         restored state. *)
      let sems = List.sort compare !sems in
      List.iter
        (fun (_, sem) ->
          match sem with
          | D_kind (p, v) -> Hashtbl.replace st.d_kind_latest p v
          | _ when st.in_rollback -> ()
          | De_ino (p, s, v) -> check_commit st g ~index ~ts ~page:p ~slot:s v
          | I_links (i, v) -> check_links st ~index ~ts i v
          | I_size (i, v) -> check_size st g ~index ~ts i v
          | _ -> ())
        sems;
      sems

(* -- event dispatch ------------------------------------------------------ *)

(* R-snap: a snapshot slot (or the rollback intent) is published by a
   nonzero store to its state word; SSU demands the record's init group
   be durably fenced first, so at publish time no line of the record may
   hold undrained stores. Catches [Buggy_snap] (init + commit in one
   flush group). Also maintains the rollback suspension window: a
   committed intent state word opens it, and the full-record zeroing of
   the intent (rollback phase C / recovery) closes it. *)
let on_snap_store st ~index ~ts ~off ~data =
  match st.geo with
  | Some g when g.g_snap_tab > 0 ->
      let len = String.length data in
      let covered w = off <= w && w + 8 <= off + len in
      let record_quiescent base size =
        let ok = ref true in
        for l = base / line_size to (base + size - 1) / line_size do
          match Hashtbl.find_opt st.lines l with
          | Some s when s.l_recs <> [] -> ok := false
          | _ -> ()
        done;
        !ok
      in
      (* rollback window: intent state-word transitions *)
      (if g.g_snap_intent > 0 && covered g.g_snap_intent then begin
         let v = u64_at data (g.g_snap_intent - off) in
         if v <> 0 then begin
           if
             (not st.in_rollback)
             && not (record_quiescent g.g_snap_intent g.g_snap_ssize)
           then
             violate st ~index ~ts "R-snap"
               "rollback intent committed while its record still has \
                undrained stores";
           st.in_rollback <- true
         end
         else if len > 8 then begin
           (* full-record zeroing, not just the phase-B state-word
              store: the intent is gone and ordinary rules resume.
              Dentry-clear evidence must not survive the flip. *)
           st.in_rollback <- false;
           Hashtbl.reset st.clear_ev
         end
       end);
      if not st.in_rollback then
        for slot = 0 to g.g_snap_slots - 1 do
          let w = g.g_snap_tab + (slot * g.g_snap_ssize) in
          if covered w && u64_at data (w - off) <> 0 then
            if not (record_quiescent w g.g_snap_ssize) then
              violate st ~index ~ts "R-snap"
                (Printf.sprintf
                   "snapshot slot %d committed while its record still has \
                    undrained stores"
                   slot)
        done
  | Some _ | None -> ()

let on_store st ~index ~ts ~off ~data ~nt ~coarse =
  let len = String.length data in
  if len > 0 then begin
    on_snap_store st ~index ~ts ~off ~data;
    let sems = sems_of_store st ~index ~ts ~off ~data ~coarse in
    let nt = nt || coarse in
    let first = off / line_size and last = (off + len - 1) / line_size in
    for l = first to last do
      let s = lstate st l in
      (* L1: regular store onto a line with in-flight regular records *)
      if not nt then begin
        let flushed_regular = ref false in
        List.iteri
          (fun i r -> if i < s.l_nflushed && not r.r_nt then flushed_regular := true)
          s.l_recs;
        if !flushed_regular then
          violate st ~index ~ts "L1"
            (Printf.sprintf
               "store [%d,%d) hits line %d which still has flushed \
                (in-flight) stores awaiting a fence"
               off (off + len) l)
      end;
      let lo = l * line_size and hi = (l + 1) * line_size in
      let here =
        List.filter_map (fun (fo, sem) -> if fo >= lo && fo < hi then Some sem else None) sems
      in
      s.l_recs <- s.l_recs @ [ { r_nt = nt; r_sems = here } ]
    done
  end

let on_flush st ~off ~len =
  if len > 0 then begin
    let first = off / line_size and last = (off + len - 1) / line_size in
    for l = first to last do
      match Hashtbl.find_opt st.lines l with
      | Some s -> s.l_nflushed <- List.length s.l_recs
      | None -> ()
    done
  end

let on_fence st =
  Hashtbl.iter
    (fun _ s ->
      if s.l_nflushed > 0 then begin
        let rec split n = function
          | rest when n = 0 -> ([], rest)
          | [] -> ([], [])
          | r :: rest ->
              let d, keep = split (n - 1) rest in
              (r :: d, keep)
        in
        let drained, keep = split s.l_nflushed s.l_recs in
        List.iter (fun r -> List.iter (apply_sem st) r.r_sems) drained;
        s.l_recs <- keep;
        s.l_nflushed <- 0
      end)
    st.lines

let on_claim st ~index ~ts ~what ~off ~len =
  if len > 0 then begin
    let first = off / line_size and last = (off + len - 1) / line_size in
    for l = first to last do
      match Hashtbl.find_opt st.lines l with
      | Some s when s.l_recs <> [] ->
          violate st ~index ~ts "L2"
            (Printf.sprintf
               "%s claims clean [%d,%d) but line %d has %d undrained \
                store(s)%s"
               what off (off + len) l (List.length s.l_recs)
               (if s.l_nflushed < List.length s.l_recs then
                  " (some not even flushed)"
                else ""))
      | _ -> ()
    done
  end

let on_event st index (e : Event.t) =
  let ts = e.Event.ts in
  match e.Event.k with
  | Event.Meta kvs ->
      st.geo <- geo_of_meta kvs;
      (* the root directory is always reachable *)
      (match st.geo with
      | Some g -> Hashtbl.replace st.nrefs g.g_root 1
      | None -> ())
  | Event.Snap_inode { ino; kind; links; size } ->
      Hashtbl.replace st.init_durable ino ();
      Hashtbl.replace st.i_kind ino kind;
      Hashtbl.replace st.i_links ino links;
      Hashtbl.replace st.i_size ino size
  | Event.Snap_page { page; ino; kind; offset } ->
      Hashtbl.replace st.d_ino page ino;
      Hashtbl.replace st.d_kind page kind;
      Hashtbl.replace st.d_kind_latest page kind;
      Hashtbl.replace st.d_off page offset
  | Event.Snap_dentry { page; slot; ino } ->
      Hashtbl.replace st.ref_by (page, slot) ino;
      Hashtbl.replace st.nrefs ino (geti st.nrefs ino + 1)
  | Event.Store { off; data; nt; coarse } ->
      on_store st ~index ~ts ~off ~data ~nt ~coarse
  | Event.Flush { off; len } -> on_flush st ~off ~len
  | Event.Fence -> on_fence st
  | Event.Claim_clean { what; off; len } -> on_claim st ~index ~ts ~what ~off ~len
  | Event.Flip _ | Event.Span_begin _ | Event.Span_end _ -> ()

let check_all ?(limit = 32) events =
  let st = mk limit in
  (try List.iteri (fun i e -> on_event st i e) events with Done -> ());
  List.rev st.viols

let check events =
  match check_all ~limit:1 events with [] -> Ok () | v :: _ -> Error v
