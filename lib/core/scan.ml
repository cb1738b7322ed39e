module Device = Pmem.Device
module Geometry = Layout.Geometry
module R = Layout.Records

(* The one reader of the on-PM object tables.

   [Device.backed_spans] lists the byte ranges a store has ever touched;
   everything outside them is durably zero with nothing in flight, so a
   record there is neither allocated nor garbage and the decoder skips
   it. Table records never straddle a backing chunk (the record sizes
   divide the chunk size and both tables start record-aligned), so each
   record lies inside exactly one span, and one window per chunk
   (uncharged, zero-copy) serves every record in it. A decode therefore
   costs O(backed records) at every volume size, and charges no
   simulated time: callers that model reads bill them with
   [Device.charge_reads]. *)

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

(* Backed slots of one table as [lo; hi] pairs, ascending. *)
let runs spans ~table_off ~size ~first ~last =
  let table_end = table_off + ((last - first + 1) * size) in
  List.fold_left
    (fun acc (off, len) ->
      let hi = off + len - 1 in
      if last >= first && hi >= table_off && off < table_end then
        (first + ((min hi (table_end - 1) - table_off) / size))
        :: (first + ((max off table_off - table_off) / size))
        :: acc
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

(* [f s i buf pos] for the [s]-th slot in [runs], numbered [i], with
   its record's window. One window per chunk; the slots of a chunk
   unbacked in the visible image are zero, and skipped. *)
let iter_slots dev runs ~table_off ~size ~first f =
  let cur = ref (-1) and win = ref None and s = ref 0 in
  for r = 0 to (Array.length runs / 2) - 1 do
    for i = runs.(2 * r) to runs.((2 * r) + 1) do
      let off = table_off + ((i - first) * size) in
      let c = off / Pmem.Sbuf.chunk_bytes in
      if c <> !cur then begin
        cur := c;
        win := chunk_window dev off
      end;
      (match !win with
      | Some (buf, base) -> f !s i buf (base + (off mod Pmem.Sbuf.chunk_bytes))
      | None -> ());
      incr s
    done
  done

let decode_media dev (geo : Geometry.t) =
  let spans = Device.backed_spans dev in
  (* each table is read twice: once to zero-test every slot and size
     the arrays, once to fill them from the slots that test nonzero, so
     the result holds no list or option boxes *)
  let table runs ~table_off ~size ~first ~none parse =
    let nonzero = Bytes.make (slots runs) '\000' and n = ref 0 in
    iter_slots dev runs ~table_off ~size ~first (fun s _ buf pos ->
        if R.window_nonzero buf pos size then begin
          Bytes.set nonzero s '\001';
          incr n
        end);
    let slot = Array.make !n 0 and word = Array.make !n 0 in
    let recs = Array.make !n none and k = ref 0 in
    iter_slots dev runs ~table_off ~size ~first (fun s i buf pos ->
        if Bytes.get nonzero s <> '\000' then begin
          slot.(!k) <- i;
          (* [f_ino] is the first word of both table records *)
          word.(!k) <- R.word buf pos;
          (match parse buf pos with Some r -> recs.(!k) <- r | None -> ());
          incr k
        end);
    (slot, word, recs)
  in
  let inode_runs =
    runs spans ~table_off:geo.inode_table_off ~size:Geometry.inode_size ~first:1
      ~last:geo.inode_count
  in
  let inos, ino_words, inodes =
    table inode_runs ~table_off:geo.inode_table_off ~size:Geometry.inode_size
      ~first:1 ~none:undecodable_inode R.Inode.of_window
  in
  let page_runs =
    runs spans ~table_off:geo.page_desc_off ~size:Geometry.desc_size ~first:0
      ~last:(geo.page_count - 1)
  in
  let pages, desc_words, descs =
    table page_runs ~table_off:geo.page_desc_off ~size:Geometry.desc_size
      ~first:0 ~none:undecodable_desc R.Desc.of_window
  in
  (* dentries of every committed directory page (the undecodable
     placeholder has ino 0): each slot is zero-tested once, into a mask
     of the page's nonzero slots, and the fill pass parses the set bits *)
  let masks = Array.make (Array.length pages) 0 and n = ref 0 in
  Array.iteri
    (fun k page ->
      if descs.(k).ino <> 0 && descs.(k).kind = R.Desc.Dirpage then
        match chunk_window dev (Geometry.page_off geo ~page) with
        | Some (buf, base) ->
            let m = ref 0 in
            for slot = 0 to Geometry.dentries_per_page - 1 do
              let pos = base + (slot * Geometry.dentry_size) in
              if R.window_nonzero buf pos Geometry.dentry_size then begin
                m := !m lor (1 lsl slot);
                incr n
              end
            done;
            masks.(k) <- !m
        | None -> ())
    pages;
  let dent_pages = Array.make !n 0 and dent_slots = Array.make !n 0 in
  let dent_names = Array.make !n "" and dent_inos = Array.make !n 0 in
  let dent_rptrs = Array.make !n 0 and j = ref 0 in
  Array.iteri
    (fun k page ->
      let m = masks.(k) in
      if m <> 0 then
        match chunk_window dev (Geometry.page_off geo ~page) with
        | Some (buf, base) ->
            for slot = 0 to Geometry.dentries_per_page - 1 do
              if m land (1 lsl slot) <> 0 then begin
                let pos = base + (slot * Geometry.dentry_size) in
                dent_pages.(!j) <- page;
                dent_slots.(!j) <- slot;
                dent_names.(!j) <- R.Dentry.name_of_window buf pos;
                dent_inos.(!j) <- R.word buf (pos + R.Dentry.f_ino);
                dent_rptrs.(!j) <- R.word buf (pos + R.Dentry.f_rename_ptr);
                incr j
              end
            done
        | None -> ())
    pages;
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
  }

(* The last decode of a borrowed ([of_view]) device, per domain: the
   crash prober's [check_raw] and mount decode the same pre-recovery
   view, and the second is served from here. The key is the device
   itself, its content version (any store, such as recovery's, misses)
   and the geometry. A live volume is never remembered: its decode
   would outlive the mount that built its index (on a large volume,
   tens of MiB of names). *)
type last = { l_dev : Device.t; l_version : int; l_geo : Geometry.t; l_dec : t }

let last_key : last option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let decode dev geo =
  if not (Device.is_view dev) then decode_media dev geo
  else
    let last = Domain.DLS.get last_key and version = Device.content_version dev in
    match !last with
    | Some l when l.l_dev == dev && l.l_version = version && l.l_geo = geo -> l.l_dec
    | Some _ | None ->
        let dec = decode_media dev geo in
        last := Some { l_dev = dev; l_version = version; l_geo = geo; l_dec = dec };
        dec

(* First index of an ascending array whose element is >= [x]. *)
let lower a x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let mem a x =
  let k = lower a x in
  k < Array.length a && a.(k) = x

let inode_slots t = slots t.inode_runs
let desc_slots t = slots t.page_runs
let inode_backed t ino = in_runs t.inode_runs ino
let page_backed t page = in_runs t.page_runs page
let inode_allocated t ino = mem t.inos ino
let page_allocated t page = mem t.pages page

let iter_dentries t ~page f =
  let k = ref (lower t.dent_pages page) in
  while !k < Array.length t.dent_pages && t.dent_pages.(!k) = page do
    f !k;
    incr k
  done

let word dev off =
  match Device.record_view dev ~off ~len:8 with
  | Some (buf, pos) -> R.word buf pos
  | None -> 0
