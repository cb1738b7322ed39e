module Device = Pmem.Device
module Geometry = Layout.Geometry
module R = Layout.Records

(* The one reader of the on-PM object tables.

   [Device.backed_spans] lists the byte ranges a store has ever touched;
   everything outside them is durably zero with nothing in flight, so a
   record there is neither allocated nor garbage and the decoder skips
   it. Table records never straddle a backing chunk (the record sizes
   divide the chunk size and both tables start record-aligned), so each
   record lies inside exactly one span, one window per chunk
   (uncharged, zero-copy) serves every record in it, and a run of zero
   records is skipped a group at a time. A decode therefore costs
   O(backed records) at every volume size, and charges no simulated
   time: callers that model reads bill them with [Device.charge_reads].

   A full decode is an update of the empty decode over every backed
   table slot; an update reads again only the records on the lines
   given, and keeps the rest. *)

type t = {
  inode_runs : int array;
  inos : int array;
  ino_words : int array;
  inodes : R.Inode.t array;
  page_runs : int array;
  pages : int array;
  desc_words : int array;
  descs : R.Desc.t array;
  dent_pages : int array;
  dent_slots : int array;
  dent_names : string array;
  dent_inos : int array;
  dent_rptrs : int array;
  dent_ino_pos : int array;
  desc_ino_pos : int array;
}

let undecodable_inode =
  {
    R.Inode.ino = 0;
    kind = R.Kind.File;
    links = 0;
    size = 0;
    atime = 0;
    mtime = 0;
    ctime = 0;
    mode = 0;
    uid = 0;
    gid = 0;
  }

let undecodable_desc = { R.Desc.ino = 0; kind = R.Desc.Data; offset = 0; replaces = 0 }

let empty =
  {
    inode_runs = [||];
    inos = [||];
    ino_words = [||];
    inodes = [||];
    page_runs = [||];
    pages = [||];
    desc_words = [||];
    descs = [||];
    dent_pages = [||];
    dent_slots = [||];
    dent_names = [||];
    dent_inos = [||];
    dent_rptrs = [||];
    dent_ino_pos = [||];
    desc_ino_pos = [||];
  }

(* What this domain's decodes did: full decodes, and updates of a
   remembered decode over the lines stored since. *)
type counts = { full_decodes : int; line_updates : int }

let counts_key : (int ref * int ref) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (ref 0, ref 0))

let counts () =
  let full, upd = Domain.DLS.get counts_key in
  { full_decodes = !full; line_updates = !upd }

(* The slots of one table that ascending byte spans touch, as ascending
   [lo; hi] pairs; pairs that overlap are merged. *)
let runs spans ~table_off ~size ~first ~last =
  let table_end = table_off + ((last - first + 1) * size) in
  List.fold_left
    (fun acc (off, len) ->
      let hi = off + len - 1 in
      if last >= first && hi >= table_off && off < table_end then
        let lo = first + ((max off table_off - table_off) / size)
        and hi = first + ((min hi (table_end - 1) - table_off) / size) in
        match acc with
        | h :: l :: acc when lo <= h -> max h hi :: l :: acc
        | acc -> hi :: lo :: acc
      else acc)
    [] spans
  |> List.rev |> Array.of_list

let slots runs =
  let n = ref 0 in
  for r = 0 to (Array.length runs / 2) - 1 do
    n := !n + runs.((2 * r) + 1) - runs.(2 * r) + 1
  done;
  !n

let in_runs runs i =
  let rec go r =
    r < Array.length runs && ((runs.(r) <= i && i <= runs.(r + 1)) || go (r + 2))
  in
  go 0

let chunk_window dev off =
  let c = off - (off mod Pmem.Sbuf.chunk_bytes) in
  Device.record_view dev ~off:c ~len:(min Pmem.Sbuf.chunk_bytes (Device.size dev - c))

(* A run of zero records is skipped a group at a time: one test of up
   to this many bytes, then one per record only in a nonzero group. *)
let group_bytes = 512

(* [f i buf pos] for every nonzero record among slots [lo, hi] of a
   table, ascending, with its window. One window per chunk (a record
   never straddles one); the slots of a chunk unbacked in the visible
   image are zero. *)
let iter_nonzero dev ~table_off ~size ~first lo hi f =
  let chunk = Pmem.Sbuf.chunk_bytes and group = max 1 (group_bytes / size) in
  let i = ref lo in
  while !i <= hi do
    let off = table_off + ((!i - first) * size) in
    let in_chunk = chunk - (off mod chunk) in
    let last = min hi (!i + (in_chunk / size) - 1) in
    (match chunk_window dev off with
    | None -> ()
    | Some (buf, base) ->
        let p0 = base + (off mod chunk) and s = ref !i in
        while !s <= last do
          let g = min group (last - !s + 1) and p = p0 + ((!s - !i) * size) in
          if R.window_nonzero buf p (g * size) then
            for t = 0 to g - 1 do
              if R.window_nonzero buf (p + (t * size)) size then f (!s + t) buf (p + (t * size))
            done;
          s := !s + g
        done);
    i := last + 1
  done

(* One table after re-reading the slots in [aff]: the old records
   outside [aff] are kept, and [aff]'s nonzero slots are decoded afresh,
   in slot order. Two passes, one to count and one to fill, so the
   result holds no list or option boxes. Nothing to re-read shares the
   old arrays. *)
let table dev aff ~table_off ~size ~first ~none parse (okeys, owords, orecs) =
  if Array.length aff = 0 then (okeys, owords, orecs)
  else begin
    let nold = Array.length okeys in
    let n = ref 0 and i = ref 0 in
    (* old records below a run are kept, those inside it replaced *)
    for r = 0 to (Array.length aff / 2) - 1 do
      let lo = aff.(2 * r) and hi = aff.((2 * r) + 1) in
      while !i < nold && okeys.(!i) < lo do
        incr n;
        incr i
      done;
      while !i < nold && okeys.(!i) <= hi do
        incr i
      done;
      iter_nonzero dev ~table_off ~size ~first lo hi (fun _ _ _ -> incr n)
    done;
    let n = !n + nold - !i in
    let keys = Array.make n 0 and words = Array.make n 0 in
    let recs = Array.make n none and k = ref 0 in
    let keep_below x =
      while !i < nold && okeys.(!i) < x do
        keys.(!k) <- okeys.(!i);
        words.(!k) <- owords.(!i);
        recs.(!k) <- orecs.(!i);
        incr k;
        incr i
      done
    in
    i := 0;
    for r = 0 to (Array.length aff / 2) - 1 do
      let lo = aff.(2 * r) and hi = aff.((2 * r) + 1) in
      keep_below lo;
      while !i < nold && okeys.(!i) <= hi do
        incr i
      done;
      iter_nonzero dev ~table_off ~size ~first lo hi (fun slot buf pos ->
          keys.(!k) <- slot;
          (* [f_ino] is the first word of both table records *)
          words.(!k) <- R.word buf pos;
          (match parse buf pos with Some r -> recs.(!k) <- r | None -> ());
          incr k)
    done;
    keep_below max_int;
    (keys, words, recs)
  end

(* First index of an ascending array whose element is >= [x]. *)
let rec lower_in a x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if a.(mid) < x then lower_in a x (mid + 1) hi else lower_in a x lo mid

let lower a x = lower_in a x 0 (Array.length a)

let index a x =
  let k = lower a x in
  if k < Array.length a && a.(k) = x then k else -1

(* Is [x] in ascending [lo; hi] pairs, for ascending [x] across calls?
   [r] is the caller's cursor. *)
let in_runs_from runs r x =
  while !r < Array.length runs && runs.(!r + 1) < x do
    r := !r + 2
  done;
  !r < Array.length runs && runs.(!r) <= x

(* The mask of [page]'s dentry slots that ascending [lo; hi] pairs of
   dentry numbers ([page * dentries_per_page + slot]) cover, for
   ascending pages across calls; [r] is the caller's cursor. *)
let touched runs r page =
  let per = Geometry.dentries_per_page in
  let lo = page * per and hi = (page * per) + per - 1 in
  while !r < Array.length runs && runs.(!r + 1) < lo do
    r := !r + 2
  done;
  let m = ref 0 and q = ref !r in
  while !q < Array.length runs && runs.(!q) <= hi do
    let a = max lo runs.(!q) and b = min hi runs.(!q + 1) in
    m := !m lor (((1 lsl (b - a + 1)) - 1) lsl (a - lo));
    q := !q + 2
  done;
  !m

(* The backed slots of both tables, as runs: [Device.backed_spans]
   lists every byte range a store ever touched, entering only the
   allocated leaves of the chunk table. *)
let table_runs dev (geo : Geometry.t) =
  let spans = Device.backed_spans dev in
  ( runs spans ~table_off:geo.inode_table_off ~size:Geometry.inode_size ~first:1
      ~last:geo.inode_count,
    runs spans ~table_off:geo.page_desc_off ~size:Geometry.desc_size ~first:0
      ~last:(geo.page_count - 1) )

(* [dec] with the inode slots [ino_aff], the descriptor slots [desc_aff]
   and the dentries [data_aff] (numbered [page * dentries_per_page +
   slot]) read again from the visible image (ascending [lo; hi] pairs
   each), over the backed slots [runs]. A committed directory page whose
   descriptor was read again is read whole; every other keeps its old
   dentries but those [data_aff] names. *)
let refresh dec dev (geo : Geometry.t) ~runs:(inode_runs, page_runs) ~ino_aff ~desc_aff
    ~data_aff =
  let inos, ino_words, inodes =
    table dev ino_aff ~table_off:geo.inode_table_off ~size:Geometry.inode_size ~first:1
      ~none:undecodable_inode R.Inode.of_window
      (dec.inos, dec.ino_words, dec.inodes)
  in
  let pages, desc_words, descs =
    table dev desc_aff ~table_off:geo.page_desc_off ~size:Geometry.desc_size ~first:0
      ~none:undecodable_desc R.Desc.of_window
      (dec.pages, dec.desc_words, dec.descs)
  in
  let dentries =
    if Array.length desc_aff = 0 && Array.length data_aff = 0 then
      (dec.dent_pages, dec.dent_slots, dec.dent_names, dec.dent_inos, dec.dent_rptrs)
    else begin
      (* Per committed directory page (the undecodable placeholder has
         ino 0): [fresh.(k)], the mask of its nonzero slots read again,
         and [keep.(k)], the mask of the slots whose old dentries stand.
         A page whose descriptor was read again is read whole; any other
         page only in the slots [data_aff] names. *)
      let per = Geometry.dentries_per_page in
      let full = (1 lsl per) - 1 in
      let fresh = Array.make (Array.length pages) 0 and keep = Array.make (Array.length pages) 0 in
      let n = ref 0 and rd = ref 0 and rp = ref 0 and j = ref 0 in
      let old_n = Array.length dec.dent_pages in
      let olds page f =
        while !j < old_n && dec.dent_pages.(!j) < page do
          incr j
        done;
        while !j < old_n && dec.dent_pages.(!j) = page do
          f !j;
          incr j
        done
      in
      Array.iteri
        (fun k page ->
          if descs.(k).ino <> 0 && descs.(k).kind = R.Desc.Dirpage then begin
            let touched = if in_runs_from desc_aff rd page then full else touched data_aff rp page in
            let m = ref 0 in
            let read lo hi =
              iter_nonzero dev ~table_off:(Geometry.page_off geo ~page) ~size:Geometry.dentry_size
                ~first:0 lo hi (fun slot _ _ ->
                  m := !m lor (1 lsl slot);
                  incr n)
            in
            let s = ref 0 in
            while !s < per do
              if touched land (1 lsl !s) = 0 then incr s
              else begin
                let lo = !s in
                while !s < per && touched land (1 lsl !s) <> 0 do
                  incr s
                done;
                read lo (!s - 1)
              end
            done;
            fresh.(k) <- !m;
            keep.(k) <- full land lnot touched;
            olds page (fun o -> if keep.(k) land (1 lsl dec.dent_slots.(o)) <> 0 then incr n)
          end)
        pages;
      let dent_pages = Array.make !n 0 and dent_slots = Array.make !n 0 in
      let dent_names = Array.make !n "" and dent_inos = Array.make !n 0 in
      let dent_rptrs = Array.make !n 0 and d = ref 0 in
      let put page slot name ino rptr =
        dent_pages.(!d) <- page;
        dent_slots.(!d) <- slot;
        dent_names.(!d) <- name;
        dent_inos.(!d) <- ino;
        dent_rptrs.(!d) <- rptr;
        incr d
      in
      j := 0;
      Array.iteri
        (fun k page ->
          let m = fresh.(k) and kept = keep.(k) in
          if m <> 0 || kept <> 0 then begin
            let win = if m <> 0 then chunk_window dev (Geometry.page_off geo ~page) else None in
            while !j < old_n && dec.dent_pages.(!j) < page do
              incr j
            done;
            (* fresh and kept slots are disjoint: merge them by slot *)
            for slot = 0 to per - 1 do
              let bit = 1 lsl slot in
              if m land bit <> 0 then (
                match win with
                | Some (buf, base) ->
                    let pos = base + (slot * Geometry.dentry_size) in
                    put page slot (R.Dentry.name_of_window buf pos)
                      (R.word buf (pos + R.Dentry.f_ino))
                      (R.word buf (pos + R.Dentry.f_rename_ptr))
                | None -> ())
              else if kept land bit <> 0 then begin
                while !j < old_n && dec.dent_pages.(!j) = page && dec.dent_slots.(!j) < slot do
                  incr j
                done;
                if !j < old_n && dec.dent_pages.(!j) = page && dec.dent_slots.(!j) = slot then
                  put page slot dec.dent_names.(!j) dec.dent_inos.(!j) dec.dent_rptrs.(!j)
              end
            done
          end)
        pages;
      (dent_pages, dent_slots, dent_names, dent_inos, dent_rptrs)
    end
  in
  let dent_pages, dent_slots, dent_names, dent_inos, dent_rptrs = dentries in
  (* positions move only with [inos] *)
  let ino_pos a ~old ~old_pos =
    if inos == dec.inos && a == old then old_pos else Array.map (index inos) a
  in
  {
    inode_runs;
    inos;
    ino_words;
    inodes;
    page_runs;
    pages;
    desc_words;
    descs;
    dent_pages;
    dent_slots;
    dent_names;
    dent_inos;
    dent_rptrs;
    dent_ino_pos = ino_pos dent_inos ~old:dec.dent_inos ~old_pos:dec.dent_ino_pos;
    desc_ino_pos = ino_pos desc_words ~old:dec.desc_words ~old_pos:dec.desc_ino_pos;
  }

(* [dec] with every record that the ascending byte [spans] touch read
   again. Only a store can back a chunk, and the tables' chunks hold
   nothing else (data pages start on a chunk), so the backed slots are
   read again only when a span falls on them. *)
let update dec dev (geo : Geometry.t) spans =
  let ino_aff =
    runs spans ~table_off:geo.inode_table_off ~size:Geometry.inode_size ~first:1
      ~last:geo.inode_count
  in
  let desc_aff =
    runs spans ~table_off:geo.page_desc_off ~size:Geometry.desc_size ~first:0
      ~last:(geo.page_count - 1)
  in
  let backed =
    if List.exists (fun (off, len) -> off < geo.data_off && off + len > geo.inode_table_off) spans
    then table_runs dev geo
    else (dec.inode_runs, dec.page_runs)
  in
  refresh dec dev geo ~runs:backed ~ino_aff ~desc_aff
    ~data_aff:
      (runs spans ~table_off:geo.data_off ~size:Geometry.dentry_size ~first:0
         ~last:((geo.page_count * Geometry.dentries_per_page) - 1))

(* A full decode: the empty decode with every backed table slot and
   every directory page read. *)
let decode_media dev (geo : Geometry.t) =
  let full, _ = Domain.DLS.get counts_key in
  incr full;
  let ((inode_runs, page_runs) as runs) = table_runs dev geo in
  refresh empty dev geo ~runs ~ino_aff:inode_runs ~desc_aff:page_runs ~data_aff:[||]

(* Ascending line indexes as merged byte spans. *)
let line_spans lines =
  List.fold_right
    (fun idx acc ->
      let off = idx * Device.line_size in
      match acc with
      | (o, len) :: rest when o = off + Device.line_size -> (off, len + Device.line_size) :: rest
      | acc -> (off, Device.line_size) :: acc)
    lines []

(* The last decode of a borrowed ([of_view]) device, per domain: the
   crash prober's [check_raw], mount and [check] read one view. The key
   is the device itself and the geometry; at the same content version
   the decode is served as it is, and at a later one it is updated over
   the lines the device stored since (recovery's stores), which the
   device lists from its taint table. A live volume is never
   remembered: its decode would outlive the mount that built its index
   (on a large volume, tens of MiB of names). *)
type last = { l_dev : Device.t; l_version : int; l_geo : Geometry.t; l_dec : t }

let last_key : last option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let decode dev geo =
  if not (Device.is_view dev) then decode_media dev geo
  else
    let last = Domain.DLS.get last_key and version = Device.content_version dev in
    match !last with
    | Some l when l.l_dev == dev && l.l_version = version && l.l_geo = geo -> l.l_dec
    | l ->
        let stored =
          match l with
          | Some l when l.l_dev == dev && l.l_geo = geo ->
              Option.map (fun lines -> (l.l_dec, lines))
                (Device.lines_stored_since dev ~version:l.l_version)
          | Some _ | None -> None
        in
        let dec =
          match stored with
          | Some (old, lines) ->
              let _, upd = Domain.DLS.get counts_key in
              incr upd;
              update old dev geo (line_spans lines)
          | None -> decode_media dev geo
        in
        last := Some { l_dev = dev; l_version = version; l_geo = geo; l_dec = dec };
        dec

let ino_index t ino = index t.inos ino
let page_index t page = index t.pages page

let dentry_index t ~page ~slot =
  let k = ref (lower t.dent_pages page) in
  while !k < Array.length t.dent_pages && t.dent_pages.(!k) = page && t.dent_slots.(!k) < slot do
    incr k
  done;
  if !k < Array.length t.dent_pages && t.dent_pages.(!k) = page && t.dent_slots.(!k) = slot
  then !k
  else -1

let inode_slots t = slots t.inode_runs
let desc_slots t = slots t.page_runs
let inode_backed t ino = in_runs t.inode_runs ino
let page_backed t page = in_runs t.page_runs page
let inode_allocated t ino = ino_index t ino >= 0
let page_allocated t page = page_index t page >= 0

let iter_dentries t ~page f =
  let k = ref (lower t.dent_pages page) in
  while !k < Array.length t.dent_pages && t.dent_pages.(!k) = page do
    f !k;
    incr k
  done

let table_order ~size keys =
  let t = Hashtbl.create size in
  List.iter (fun k -> Hashtbl.replace t k ()) keys;
  List.rev (Hashtbl.fold (fun k () acc -> k :: acc) t [])

let in_table_order ~size keys items =
  match items with
  | [] | [ _ ] -> items
  | _ ->
      let rank = Hashtbl.create 16 in
      List.iteri (fun i k -> Hashtbl.replace rank k i) (table_order ~size keys);
      let r k = Option.value ~default:max_int (Hashtbl.find_opt rank k) in
      List.stable_sort (fun (a, _) (b, _) -> Int.compare (r a) (r b)) items

let word dev off =
  match Device.record_view dev ~off ~len:8 with
  | Some (buf, pos) -> R.word buf pos
  | None -> 0
