module Device = Pmem.Device
module Geometry = Layout.Geometry
module R = Layout.Records

(* Reports about an inode or a page owner are made as the checks meet
   them, keyed by the inode, and put in the order hash tables of them
   once listed them: inodes as the table lists them, owners as their
   first pages are met ([Scan.in_table_order], 64 buckets). The sets and
   maps over inodes are arrays indexed by their positions in the
   decode. *)
let table_size = 64

let check (ctx : Fsctx.t) =
  let dev = ctx.dev and geo = ctx.geo in
  let quar = ctx.quar in
  let module Q = Faults.Quarantine in
  let degraded = not (Q.is_empty quar) in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let keyed = ref [] in
  let kerr key fmt = Printf.ksprintf (fun s -> keyed := (key, s) :: !keyed) fmt in
  let flush keys =
    List.iter
      (fun (_, s) -> errs := s :: !errs)
      (Scan.in_table_order ~size:table_size keys (List.rev !keyed));
    keyed := []
  in
  let dec = Scan.decode dev geo in
  let n = Array.length dec.inos in
  let marked set k = k >= 0 && Bytes.get set k <> '\000' in

  (* Inode table. Quarantined objects are excluded from every invariant:
     their persistent metadata is known-corrupt, so nothing useful can be
     checked against it. [live] holds the inodes checked below. *)
  let live = Bytes.make n '\000' and inode_keys = ref [] in
  Array.iteri
    (fun k ino ->
      if not (Q.mem_ino quar ino) then
        let r = dec.inodes.(k) in
        if r == Scan.undecodable_inode then
          err "inode %d: allocated but undecodable (partial init?)" ino
        else if r.ino <> ino then err "inode %d: ino field says %d" ino r.ino
        else begin
          Bytes.set live k '\001';
          inode_keys := ino :: !inode_keys
        end)
    dec.inos;
  let inode_keys = List.rev !inode_keys in
  let pos ino =
    let k = Scan.ino_index dec ino in
    if marked live k then k else -1
  in
  (let k = pos Geometry.root_ino in
   if k < 0 then (
     if not (Q.mem_ino quar Geometry.root_ino) then err "root inode missing")
   else if dec.inodes.(k).kind <> R.Kind.Dir then err "root inode is not a directory");

  (* Page descriptors. [pages_of.(k)] lists what a live inode owns, as
     (kind, offset, page), newest first. *)
  let pages_of = Array.make n [] and owner_keys = ref [] and dead_owners = ref [] in
  Array.iteri
    (fun k page ->
      if not (Q.mem_page quar page) then
        match dec.descs.(k) with
        | d when d == Scan.undecodable_desc ->
            err "page %d: descriptor allocated but undecodable" page
        | { ino; kind; offset; replaces } when ino <> 0 ->
            if replaces <> 0 then
              err "page %d: replace pointer still set (interrupted COW write)"
                page;
            let o =
              let o = dec.desc_ino_pos.(k) in
              if marked live o then o else -1
            in
            if o < 0 then begin
              if not (Q.mem_ino quar ino) then
                err "page %d: backpointer to free/invalid inode %d" page ino;
              if not (List.mem ino !dead_owners) then begin
                dead_owners := ino :: !dead_owners;
                owner_keys := ino :: !owner_keys
              end
            end
            else begin
              (match (kind, dec.inodes.(o).kind) with
              | R.Desc.Dirpage, R.Kind.Dir | R.Desc.Data, R.Kind.File
              | R.Desc.Data, R.Kind.Symlink ->
                  ()
              | R.Desc.Dirpage, (R.Kind.File | R.Kind.Symlink) ->
                  err "page %d: dir page owned by non-directory %d" page ino
              | R.Desc.Data, R.Kind.Dir ->
                  err "page %d: data page owned by directory %d" page ino);
              if pages_of.(o) = [] then owner_keys := ino :: !owner_keys;
              pages_of.(o) <- (kind, offset, page) :: pages_of.(o)
            end
        | _ -> err "page %d: descriptor allocated but unowned" page)
    dec.pages;
  let owner_keys = List.rev !owner_keys in

  (* File sizes must be fully covered by owned pages (a size made visible
     before its pages' backpointers were fenced is the §4.2 write bug). *)
  for k = 0 to n - 1 do
    let r = dec.inodes.(k) in
    if marked live k && r.kind <> R.Kind.Dir && r.size > 0 then begin
      (* clamp: a torn/corrupt size field must not explode the loop *)
      let keep =
        min geo.page_count ((r.size + Geometry.page_size - 1) / Geometry.page_size)
      in
      let covered = Bytes.make keep '\000' in
      List.iter
        (function
          | R.Desc.Data, offset, _ when offset >= 0 && offset < keep ->
              Bytes.set covered offset '\001'
          | R.Desc.Data, _, _ | R.Desc.Dirpage, _, _ -> ())
        pages_of.(k);
      for o = 0 to keep - 1 do
        if Bytes.get covered o = '\000' then
          kerr r.ino "inode %d: size %d covers unowned page offset %d" r.ino r.size o
      done
    end
  done;
  flush inode_keys;

  (* Data page offsets must be unique and within the size. *)
  for k = 0 to n - 1 do
    let r = dec.inodes.(k) and ino = dec.inos.(k) in
    if marked live k && r.kind <> R.Kind.Dir then begin
      let keep = (r.size + Geometry.page_size - 1) / Geometry.page_size in
      (* offsets seen so far: a bitset below the clamped size, a list
         for the rest *)
      let seen = Bytes.make (max 0 (min keep geo.page_count)) '\000' in
      let seen_out = ref [] in
      let repeat o =
        if o >= 0 && o < Bytes.length seen then
          Bytes.get seen o <> '\000' || (Bytes.set seen o '\001'; false)
        else List.mem o !seen_out || (seen_out := o :: !seen_out; false)
      in
      List.iter
        (function
          | R.Desc.Data, offset, page ->
              if repeat offset then
                kerr ino "inode %d: duplicate page offset %d (page %d)" ino offset page;
              if offset >= keep then
                kerr ino "inode %d: page %d at offset %d beyond size %d" ino page offset
                  r.size
          | R.Desc.Dirpage, _, page -> kerr ino "inode %d: dir page %d on a file" ino page)
        pages_of.(k)
    end
  done;
  flush owner_keys;

  (* Dentries. A name is a duplicate within its directory, whose pages
     are all met in one turn, so [entries] answers the same in any
     order of directories. *)
  let entries : (int * string, int) Hashtbl.t = Hashtbl.create 16 in
  (* [entries] maps (directory, name) to positions in the decode *)
  let children = Array.make n [] in
  for k = 0 to n - 1 do
    let dir = dec.inos.(k) in
    if marked live k && dec.inodes.(k).kind = R.Kind.Dir then
      List.iter
        (function
          | R.Desc.Dirpage, _, page ->
              Scan.iter_dentries dec ~page (fun j ->
                  let slot = dec.dent_slots.(j) and name = dec.dent_names.(j) in
                  let ino = dec.dent_inos.(j) and t = dec.dent_ino_pos.(j) in
                  if dec.dent_rptrs.(j) <> 0 then
                    kerr dir "dentry %s (page %d slot %d): rename pointer set" name page slot;
                  if ino <> 0 then begin
                    if not (Vfs.Path.valid_name name) then
                      kerr dir "dir %d: committed dentry with invalid name %S" dir name;
                    if not (marked live t) then begin
                      if not (Q.mem_ino quar ino) then
                        kerr dir "dentry %s: points at free inode %d" name ino
                    end
                    else begin
                      if Hashtbl.mem entries (k, name) then
                        kerr dir "dir %d: duplicate name %s" dir name;
                      Hashtbl.replace entries (k, name) t;
                      children.(k) <- t :: children.(k)
                    end
                  end
                  else
                    kerr dir "dir %d: allocated but uncommitted dentry (page %d slot %d)" dir
                      page slot)
          | R.Desc.Data, _, _ -> ())
        pages_of.(k)
  done;
  flush owner_keys;

  (* Reachability. *)
  let reachable = Bytes.make n '\000' in
  let q = Queue.create () in
  (let k = pos Geometry.root_ino in
   if k >= 0 then Bytes.set reachable k '\001');
  Queue.push Geometry.root_ino q;
  while not (Queue.is_empty q) do
    let k = pos (Queue.pop q) in
    if k >= 0 then
      List.iter
        (fun c ->
          if not (marked reachable c) then begin
            Bytes.set reachable c '\001';
            if dec.inodes.(c).kind = R.Kind.Dir then Queue.push dec.inos.(c) q
          end)
        children.(k)
  done;
  (* In degraded mode reachability and link counts are unreliable: a
     quarantined directory hides its subtree and its dentries no longer
     count, so only report these on healthy volumes. Anonymous tmpfile
     inodes are unreachable by design while their volatile tag is live:
     the registry only ever holds them in the current mount (it is
     rebuilt empty on every mount, so post-crash orphans are still
     reported — and reclaimed by recovery before this check runs). *)
  let anon_live = Hashtbl.fold (fun _ ino acc -> ino :: acc) ctx.anon [] in
  if not degraded then begin
    for k = 0 to n - 1 do
      let ino = dec.inos.(k) in
      if marked live k && (not (marked reachable k)) && not (List.mem ino anon_live) then
        kerr ino "inode %d: allocated but unreachable from root" ino
    done;
    flush inode_keys
  end;

  (* Link counts. *)
  let want = Array.make n 0 in
  (let k = pos Geometry.root_ino in
   if k >= 0 then want.(k) <- 2);
  Hashtbl.iter
    (fun (dir, _) t ->
      match dec.inodes.(t).kind with
      | R.Kind.Dir ->
          want.(t) <- want.(t) + 2;
          want.(dir) <- want.(dir) + 1
      | R.Kind.File | R.Kind.Symlink -> want.(t) <- want.(t) + 1)
    entries;
  if not degraded then begin
    for k = 0 to n - 1 do
      let r = dec.inodes.(k) in
      if marked live k && r.links <> want.(k) && marked reachable k then
        kerr r.ino "inode %d: link count %d, expected %d" r.ino r.links want.(k)
    done;
    flush inode_keys
  end;

  (* Snapshot table, post-mount: recovery has run, so the table must be
     fully settled — no rollback intent, no uncommitted remnants, every
     committed slot sealed and uniquely named. *)
  let module S = Layout.Snaptab in
  let tab = S.read dev and bill = S.bill () in
  S.bill_free bill;
  if not tab.intent.free then
    err "snapshot rollback intent still present after mount";
  let snap_names = ref [] in
  for slot = 0 to S.slots - 1 do
    let e = tab.slot.(slot) in
    S.bill_state bill;
    match e.state with
    | 1 -> (
        S.bill_verify bill S.Slot.sealed_ranges;
        if not e.sealed then err "snapshot slot %d: sealed-field CRC mismatch" slot
        else begin
          S.bill_slot_decode bill e;
          match tab.slot_rec.(slot) with
          | Some { name; _ } ->
              if not (S.valid_name name) then
                err "snapshot slot %d: invalid name %S" slot name
              else if List.mem name !snap_names then
                err "snapshot slot %d: duplicate name %S" slot name
              else snap_names := name :: !snap_names
          | None -> err "snapshot slot %d: committed but undecodable" slot
        end)
    | 0 ->
        S.bill_free bill;
        if not e.free then
          err "snapshot slot %d: allocated but uncommitted after mount" slot
    | st -> err "snapshot slot %d: impossible state word %d" slot st
  done;
  S.settle dev bill;

  List.rev !errs

(* {1 Pre-recovery invariant check}

   Sets and counts over the decode's inodes, descriptors and dentries
   are arrays indexed by their positions in it; the reports about
   inodes keep the order of a table of the initialized inodes. *)

let check_raw_body dev (geo : Geometry.t) (tab : Layout.Snaptab.table) bill =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let keyed = ref [] in
  let kerr key fmt = Printf.ksprintf (fun s -> keyed := (key, s) :: !keyed) fmt in
  let dec = Scan.decode dev geo in
  let n = Array.length dec.inos in
  (* the initialized inodes: those that decode with their own ino *)
  let inode_keys = ref [] in
  for k = n - 1 downto 0 do
    if dec.inodes.(k).ino = dec.inos.(k) then inode_keys := dec.inos.(k) :: !inode_keys
  done;
  let inode_keys = !inode_keys in
  let flush () =
    List.iter
      (fun (_, s) -> errs := s :: !errs)
      (Scan.in_table_order ~size:table_size inode_keys (List.rev !keyed));
    keyed := []
  in
  (* the position of an initialized inode, from a position in the decode *)
  let init k = if k >= 0 && dec.inodes.(k).ino = dec.inos.(k) then k else -1 in
  (* by position in [dec.inos]: the (kind, offset) of the pages an
     initialized inode owns *)
  let pages_of = Array.make n [] in
  (* committed COW replacements supersede the pages they point at (an
     undecodable descriptor reads as ino 0 and owns nothing) *)
  let superseded = Bytes.make (Array.length dec.pages) '\000' in
  Array.iter
    (fun (d : R.Desc.t) ->
      if d.ino <> 0 then
        match R.Desc.replaced geo d with
        | Some old ->
            let k = Scan.page_index dec old in
            if k >= 0 then Bytes.set superseded k '\001'
        | None -> ())
    dec.descs;
  Array.iteri
    (fun k page ->
      match dec.descs.(k) with
      | { ino; kind; offset; replaces = _ }
        when ino <> 0 && Bytes.get superseded k = '\000' ->
          let i = init dec.desc_ino_pos.(k) in
          if i < 0 then err "page %d: backpointer to uninitialized inode %d" page ino
          else pages_of.(i) <- (kind, offset) :: pages_of.(i)
      | _ -> ())
    dec.pages;
  (* dentries: every directory page's, superseded or not, that names an
     inode or holds a rename pointer; [dir_of.(j)] is the directory of
     such a dentry [j], else -1. They are checked by descending [j]. *)
  let dir_of = Array.make (Array.length dec.dent_inos) (-1) in
  let dir_pos = Array.make (Array.length dec.dent_inos) (-1) in
  Array.iteri
    (fun k page ->
      match dec.descs.(k) with
      | { ino = dir; kind = R.Desc.Dirpage; _ } when dir <> 0 ->
          Scan.iter_dentries dec ~page (fun j ->
              if dec.dent_inos.(j) <> 0 || dec.dent_rptrs.(j) <> 0 then begin
                dir_of.(j) <- dir;
                dir_pos.(j) <- dec.desc_ino_pos.(k)
              end)
      | _ -> ())
    dec.pages;
  let iter_raw f =
    for j = Array.length dir_of - 1 downto 0 do
      if dir_of.(j) >= 0 then f j
    done
  in
  (* rename-pointer discipline: at most one pointer per target, no
     cycles; a committed destination's source is logically dead *)
  let killed = Bytes.make (Array.length dir_of) '\000' in
  let rptr_targets = ref [] in
  iter_raw (fun j ->
      let page = dec.dent_pages.(j) and slot = dec.dent_slots.(j) in
      let rptr = dec.dent_rptrs.(j) in
      if rptr <> 0 then
        (* validated before dereferencing: a torn/corrupt pointer must
           produce a report, not an exception *)
        match Geometry.dentry_loc_opt geo rptr with
        | None ->
            err "dentry (page %d, slot %d): garbage rename pointer %#x" page slot rptr
        | Some ((sp, ss) as target) ->
            if List.mem target !rptr_targets then
              err "dentry (page %d, slot %d) targeted by two rename pointers"
                sp ss;
            rptr_targets := target :: !rptr_targets;
            let t = Scan.dentry_index dec ~page:sp ~slot:ss in
            (if dec.dent_inos.(j) <> 0 then
               let sbase = Geometry.dentry_off geo ~page:sp ~slot:ss in
               let src_ino = Scan.word dev (sbase + R.Dentry.f_ino) in
               if (src_ino = dec.dent_inos.(j) || src_ino = 0) && t >= 0 then
                 Bytes.set killed t '\001');
            (* cycle: the target points back *)
            if t >= 0 && dir_of.(t) >= 0 && dec.dent_rptrs.(t) <> 0 then
              match Geometry.dentry_loc_opt geo dec.dent_rptrs.(t) with
              | Some (tp, ts) when tp = page && ts = slot ->
                  err
                    "rename pointer cycle between (page %d slot %d) and \
                     (page %d slot %d)" page slot sp ss
              | Some _ | None -> ());
  let iter_live f =
    iter_raw (fun j -> if dec.dent_inos.(j) <> 0 && Bytes.get killed j = '\000' then f j)
  in
  (* rule 1: committed dentries point at initialized inodes *)
  iter_live (fun j ->
      if init dec.dent_ino_pos.(j) < 0 then
        err "dentry %S (page %d slot %d): points at uninitialized inode %d"
          dec.dent_names.(j) dec.dent_pages.(j) dec.dent_slots.(j) dec.dent_inos.(j));
  (* link counts never below live references; by position in [dec.inos] *)
  let refs = Array.make n 0 and subdirs = Array.make n 0 in
  let bump counts k = if k >= 0 then counts.(k) <- counts.(k) + 1 in
  iter_live (fun j ->
      bump refs dec.dent_ino_pos.(j);
      let k = init dec.dent_ino_pos.(j) in
      if k >= 0 && dec.inodes.(k).kind = R.Kind.Dir then bump subdirs dir_pos.(j));
  (* sizes of referenced files covered by owned pages at every instant
     (orphans mid-teardown may transiently have size > pages) *)
  for k = 0 to n - 1 do
    let r = dec.inodes.(k) in
    if r.ino = dec.inos.(k) && r.kind <> R.Kind.Dir && r.size > 0 && refs.(k) > 0 then begin
      let keep =
        min geo.page_count ((r.size + Geometry.page_size - 1) / Geometry.page_size)
      in
      let covered = Bytes.make keep '\000' in
      List.iter
        (function
          | R.Desc.Data, offset when offset >= 0 && offset < keep ->
              Bytes.set covered offset '\001'
          | R.Desc.Data, _ | R.Desc.Dirpage, _ -> ())
        pages_of.(k);
      for o = 0 to keep - 1 do
        if Bytes.get covered o = '\000' then
          kerr r.ino "inode %d: size %d beyond owned pages (offset %d missing)" r.ino r.size o
      done
    end
  done;
  flush ();
  for k = 0 to n - 1 do
    let r = dec.inodes.(k) and nrefs = refs.(k) in
    if r.ino = dec.inos.(k) then
      match r.kind with
      | R.Kind.Dir ->
          let nsub = subdirs.(k) in
          let floor = if nrefs > 0 || r.ino = Geometry.root_ino then 2 + nsub else 0 in
          if r.links < floor then
            kerr r.ino "dir inode %d: links %d below 2 + %d subdirs" r.ino r.links nsub
      | R.Kind.File | R.Kind.Symlink ->
          if r.links < nrefs then
            kerr r.ino "inode %d: links %d below %d live references" r.ino r.links nrefs
  done;
  flush ();

  (* Snapshot table, at an arbitrary crash point: a nonzero uncommitted
     slot (or a partial intent) is a legal mid-creation remnant recovery
     rolls back, but SSU commit discipline promises that a {e committed}
     slot or intent always carries its full init group — CRC valid, name
     valid, no duplicates. A committed entry failing that is exactly the
     torn-table state the Buggy_snap mutant publishes. *)
  let module S = Layout.Snaptab in
  S.bill_state bill;
  (match tab.intent.state with
  | 0 -> ()
  | 1 ->
      S.bill_verify bill S.Intent.sealed_ranges;
      if not tab.intent.sealed then
        err "snapshot intent: committed with CRC mismatch (torn commit)"
  | st -> err "snapshot intent: impossible state word %d" st);
  let snap_names = ref [] in
  for slot = 0 to S.slots - 1 do
    let e = tab.slot.(slot) in
    S.bill_state bill;
    match e.state with
    | 0 -> ()
    | 1 -> (
        S.bill_verify bill S.Slot.sealed_ranges;
        if not e.sealed then
          err "snapshot slot %d: committed with CRC mismatch (torn commit)"
            slot
        else begin
          S.bill_slot_decode bill e;
          match tab.slot_rec.(slot) with
          | Some { name; _ } ->
              if not (S.valid_name name) then
                err "snapshot slot %d: committed with invalid name %S" slot
                  name
              else if List.mem name !snap_names then
                err "snapshot slot %d: duplicate committed name %S" slot name
              else snap_names := name :: !snap_names
          | None -> err "snapshot slot %d: committed but undecodable" slot
        end)
    | st -> err "snapshot slot %d: impossible state word %d" slot st
  done;
  List.rev !errs

let check_raw dev (geo : Geometry.t) =
  let module S = Layout.Snaptab in
  let tab = S.read dev and bill = S.bill () in
  S.bill_state bill;
  if tab.intent.state = 1 then S.bill_verify bill S.Intent.sealed_ranges;
  let errs =
    if tab.intent.sealed then
      (* A committed rollback intent supersedes everything else on the
         volume: recovery ignores the current (possibly half-restored)
         state and replays the redo log, so no structural invariant needs
         to hold at this crash point. *)
      []
    else check_raw_body dev geo tab bill
  in
  S.settle dev bill;
  errs
