module Device = Pmem.Device
module Geometry = Layout.Geometry
module R = Layout.Records

(* DRAM-index maintenance cost per inserted entry (RB-tree/hashtable
   insert plus allocation), charged to the simulated clock so mount time
   scales with utilization — the paper attributes most of a full mount to
   "allocating space for and managing the volatile indexes" (§5.5). *)
let index_insert_ns = 700

(* Recovery bookkeeping per scanned object: orphan tracking and true
   link-count accounting (§5.5 "constructs additional structures"). *)
let recovery_obj_ns = 400

let mkfs ?(csum = false) dev =
  let geo = Geometry.compute ~device_size:(Device.size dev) in
  (* Zero the metadata tables so everything reads as free. *)
  Device.zero dev ~off:geo.inode_table_off
    ~len:(geo.inode_count * Geometry.inode_size);
  Device.zero dev ~off:geo.page_desc_off
    ~len:(geo.page_count * Geometry.desc_size);
  Device.fence dev;
  (* Root directory inode. *)
  let b = Geometry.inode_off geo ~ino:Geometry.root_ino in
  Device.store_u64 dev (b + R.Inode.f_ino) Geometry.root_ino;
  Device.store_u64 dev (b + R.Inode.f_kind) (R.Kind.to_int R.Kind.Dir);
  Device.store_u64 dev (b + R.Inode.f_links) 2;
  Device.store_u64 dev (b + R.Inode.f_mode) 0o755;
  if csum then R.Inode.seal dev ~base:b;
  Device.persist dev ~off:b ~len:Geometry.inode_size;
  R.Superblock.write ~csum dev geo ~clean:true

let dentry_base geo ~page ~slot = Geometry.dentry_off geo ~page ~slot
let page_units size = (size + Geometry.page_size - 1) / Geometry.page_size

let persist_u64 dev off v =
  Device.store_u64 dev off v;
  Device.persist dev ~off ~len:8

let zero_persist dev ~off ~len =
  Device.zero dev ~off ~len;
  Device.fence dev

module Q = Faults.Quarantine

(* {1 Read ledger}

   Mount reads the tables through one uncharged decode ([Scan.decode])
   but bills the simulated reads of a record-at-a-time scan, in closed
   form: per record, a u64 read of each field word it inspects, a
   whole-record read for each allocation test, a name read per dentry.
   Each pass charges where it runs. Table 2 is computed from these
   figures, and test_remount pins them. *)

(* [meta] u64 reads plus, for each [(n, len)], [n] reads of [len]-byte
   records that start on a cache line. *)
let bill dev ~meta records =
  let bulk, lines, bytes =
    List.fold_left
      (fun (b, l, y) (n, len) ->
        (b + n, l + (n * ((len + Device.line_size - 1) / Device.line_size)), y + (n * len)))
      (0, 0, 0) records
  in
  Device.charge_reads dev ~meta ~bulk ~lines ~bytes

(* Quarantined slots that are backed but all zero (a snapshot scrub can
   quarantine any line): the scan visits them, the decoder lists only
   nonzero records. *)
let quarantined_free (quar : Q.t) (dec : Scan.t) =
  List.fold_left
    (fun (inos, pages) (e : Q.entry) ->
      match e.obj with
      | Q.Ino i when Scan.inode_backed dec i && not (Scan.inode_allocated dec i) ->
          (i :: inos, pages)
      | Q.Page p when Scan.page_backed dec p && not (Scan.page_allocated dec p) ->
          (inos, pages + 1)
      | Q.Ino _ | Q.Page _ | Q.Superblock -> (inos, pages))
    ([], 0) (Q.to_list quar)

(* Rebuild all volatile state from one decode; if [recover], also repair
   the volume. *)
let rebuild_decoded (ctx : Fsctx.t) (dec : Scan.t) ~recover =
  let dev = ctx.dev and geo = ctx.geo in
  let st = ref Fsctx.{ no_recovery with recovered = recover } in
  let bump f = st := f !st in
  (* what the allocator pass at the end needs, so that the decode itself
     is garbage once the index is built *)
  let inos = dec.inos and pages = dec.pages in
  let inode_slots = Scan.inode_slots dec and desc_slots = Scan.desc_slots dec in
  let root_backed = Scan.inode_backed dec Geometry.root_ino in
  let q_free_inos, q_free_pages = quarantined_free ctx.quar dec in
  (* Recovery's frees, remembered so the allocator pass reserves what is
     still allocated without reading the tables again. *)
  let freed_inodes = Hashtbl.create 8 and freed_pages = Hashtbl.create 8 in
  let zero_inode ino =
    zero_persist dev ~off:(Geometry.inode_off geo ~ino) ~len:Geometry.inode_size;
    Hashtbl.replace freed_inodes ino ();
    bump (fun s -> Fsctx.{ s with orphan_inodes = s.orphan_inodes + 1 })
  in
  let zero_desc page =
    zero_persist dev ~off:(Geometry.desc_off geo ~page) ~len:Geometry.desc_size;
    Hashtbl.replace freed_pages page ();
    bump (fun s -> Fsctx.{ s with orphan_pages = s.orphan_pages + 1 })
  in

  (* Pass 1: inode table. A quarantined inode's record is untrustworthy:
     keep it visible (so lookups resolve and return EIO) but never treat
     it as garbage; synthesize attrs if the record no longer decodes.
     Ledger: every backed slot's ino word, its kind word when the ino is
     nonzero, its 8 other fields when it decodes, and an allocation test
     unless it decodes with its own ino or is quarantined. *)
  let attrs : (int, R.Inode.t) Hashtbl.t = Hashtbl.create (Array.length inos) in
  let synthesized ino =
    {
      R.Inode.ino;
      kind = R.Kind.File;
      links = 1;
      size = 0;
      atime = 0;
      mtime = 0;
      ctime = 0;
      mode = 0o644;
      uid = 0;
      gid = 0;
    }
  in
  let garbage_inodes = ref [] in
  let meta = ref inode_slots and tests = ref inode_slots in
  Array.iteri
    (fun k ino ->
      let r = dec.inodes.(k) in
      if dec.ino_words.(k) <> 0 then incr meta;
      if r != Scan.undecodable_inode then meta := !meta + 8;
      if r.ino = ino then begin
        Hashtbl.replace attrs ino r;
        decr tests
      end
      else if Q.mem_ino ctx.quar ino then begin
        Hashtbl.replace attrs ino (synthesized ino);
        decr tests
      end
      else garbage_inodes := ino :: !garbage_inodes)
    inos;
  List.iter
    (fun ino ->
      Hashtbl.replace attrs ino (synthesized ino);
      decr tests)
    q_free_inos;
  bill dev ~meta:!meta [ (!tests, Geometry.inode_size) ];

  (* Pass 2: page descriptor table. Ledger: every backed slot's
     allocation test; its kind word, and its other three when it
     decodes; and a second allocation test of every slot that does not
     decode, unless quarantined. *)
  let meta = ref 0 and retests = ref (desc_slots - Array.length pages - q_free_pages) in
  Array.iteri
    (fun k page ->
      if dec.descs.(k) == Scan.undecodable_desc then begin
        incr meta;
        if not (Q.mem_page ctx.quar page) then incr retests
      end
      else meta := !meta + 4)
    pages;
  bill dev ~meta:!meta [ (desc_slots, Geometry.desc_size) ];
  (* Resolve replace pointers (crash-atomic COW data writes): a committed
     replacement supersedes the page it points at; recovery frees the old
     page and clears the pointer. An uncommitted replacement (ino = 0)
     falls into the garbage path below and is rolled back. An
     undecodable descriptor reads as ino 0. *)
  let killed_pages : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun k page ->
      match dec.descs.(k) with
      | { R.Desc.ino; replaces; _ }
        when ino <> 0
             && replaces <> 0
             && replaces - 1 < geo.page_count
             && not (Q.mem_page ctx.quar page) ->
          let old = replaces - 1 in
          Hashtbl.replace killed_pages old ();
          if recover then begin
            zero_desc old;
            persist_u64 dev
              (Geometry.desc_off geo ~page + R.Desc.f_replaces)
              0
          end
      | _ -> ())
    pages;
  bill dev ~meta:0 [ (!retests, Geometry.desc_size) ];
  let owned : (int, (R.Desc.page_kind * int * int) list ref) Hashtbl.t =
    Hashtbl.create (Array.length inos)
  in
  (* owner ino -> (kind, offset, page) list *)
  let garbage_descs = ref [] in
  Array.iteri
    (fun k page ->
      if Q.mem_page ctx.quar page then () (* neither owned nor garbage *)
      else
        match dec.descs.(k) with
        | d when d == Scan.undecodable_desc ->
            (* garbage, unless the replacement pass just zeroed it *)
            if not (Hashtbl.mem freed_pages page) then
              garbage_descs := page :: !garbage_descs
        | { ino; kind; offset; replaces = _ }
          when ino <> 0 && not (Hashtbl.mem killed_pages page) ->
            let l =
              match Hashtbl.find_opt owned ino with
              | Some l -> l
              | None ->
                  let l = ref [] in
                  Hashtbl.replace owned ino l;
                  l
            in
            l := (kind, offset, page) :: !l
        | { ino; _ } when ino <> 0 -> () (* superseded by a replacer *)
        | _ -> garbage_descs := page :: !garbage_descs)
    pages;

  (* Pass 3: directory pages -> raw dentries. A raw dentry is an index
     [j] into the decode; [dir_of.(j)] is its directory, or -1 if its
     page is not a directory page of a valid, unquarantined directory.
     Ledger: every slot of every page read, and each nonzero slot's name
     and two words. *)
  let dir_of = Array.make (Array.length dec.dent_inos) (-1) in
  let dir_pages_of : (int, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
  (* dir ino -> (offset, page) list *)
  let pages_read = ref 0 and names_read = ref 0 in
  Hashtbl.iter
    (fun ino l ->
      match Hashtbl.find_opt attrs ino with
      | Some r when r.kind = R.Kind.Dir && not (Q.mem_ino ctx.quar ino) ->
          let pages =
            List.filter_map
              (function
                | R.Desc.Dirpage, offset, page -> Some (offset, page)
                | R.Desc.Data, _, _ -> None)
              !l
          in
          Hashtbl.replace dir_pages_of ino pages;
          List.iter
            (fun (_, page) ->
              incr pages_read;
              Scan.iter_dentries dec ~page (fun j ->
                  incr names_read;
                  dir_of.(j) <- ino))
            pages
      | Some _ | None -> ())
    owned;
  bill dev ~meta:(2 * !names_read)
    [
      (Geometry.dentries_per_page * !pages_read, Geometry.dentry_size);
      (!names_read, Geometry.name_max);
    ];
  let base j = dentry_base geo ~page:dec.dent_pages.(j) ~slot:dec.dent_slots.(j) in
  (* Raw dentries in the order the index receives them: pages
     ascending, slots descending within a page (readdir lists a hash
     bucket in reverse insertion order, so this keeps listings stable
     across remounts). *)
  let iter_raw f =
    let n = Array.length dir_of in
    let j = ref 0 in
    while !j < n do
      let hi = ref !j in
      while !hi + 1 < n && dec.dent_pages.(!hi + 1) = dec.dent_pages.(!j) do
        incr hi
      done;
      for k = !hi downto !j do
        if dir_of.(k) >= 0 then f k
      done;
      j := !hi + 1
    done
  in

  if recover then begin
    (* orphan-tracking and link-count structures (§5.5) *)
    Device.charge dev (Hashtbl.length attrs * recovery_obj_ns);
    Device.charge dev (!names_read * recovery_obj_ns);
    (* an extra scan pass over directory pages looking for rename
       pointers (Table 2 attributes recovery-mount cost partly to this) *)
    bill dev ~meta:(Geometry.dentries_per_page * !pages_read) []
  end;

  (* Pass 3b: resolve rename pointers. A committed dentry with a rename
     pointer logically invalidates the source it points at; recovery
     completes the rename physically. An uncommitted dentry is rolled
     back. The source is read from the device: recovery may already
     have written it. *)
  let killed : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  iter_raw (fun j ->
      let ino = dec.dent_inos.(j) and rptr = dec.dent_rptrs.(j) in
      if ino <> 0 && rptr <> 0 then begin
        match Geometry.dentry_loc_opt geo rptr with
        | None ->
            (* garbage pointer (torn/corrupt record): never a legal crash
               state, so just clear it when repairing *)
            if recover then persist_u64 dev (base j + R.Dentry.f_rename_ptr) 0
        | Some (sp, ss) ->
        let sbase = dentry_base geo ~page:sp ~slot:ss in
        let src_ino = Device.read_u64 dev (sbase + R.Dentry.f_ino) in
        let committed = src_ino = ino || src_ino = 0 in
        (* For a destination replacing an existing entry, the atomic point
           is its ino changing to the source's: before that it still holds
           the old target and the source stays live. *)
        if committed then Hashtbl.replace killed (sp, ss) ();
        if recover then
          if committed then begin
            (* complete: invalidate + zero src, then clear the pointer *)
            if src_ino <> 0 then persist_u64 dev (sbase + R.Dentry.f_ino) 0;
            zero_persist dev ~off:sbase ~len:Geometry.dentry_size;
            persist_u64 dev (base j + R.Dentry.f_rename_ptr) 0;
            bump (fun s ->
                Fsctx.{ s with completed_renames = s.completed_renames + 1 })
          end
          else begin
            (* pre-commit overwrite: roll back by clearing the pointer *)
            persist_u64 dev (base j + R.Dentry.f_rename_ptr) 0;
            bump (fun s ->
                Fsctx.{ s with rolled_back_renames = s.rolled_back_renames + 1 })
          end
      end);
  (* A raw dentry is committed if it names an inode with a valid name
     and no committed rename killed it; the others are crash remnants. *)
  let committed = Bytes.make (Array.length dir_of) '\000' in
  iter_raw (fun j ->
      if dec.dent_inos.(j) = 0 || not (Vfs.Path.valid_name dec.dent_names.(j)) then begin
        if recover then begin
          (* crash mid-create or a rolled-back rename destination *)
          zero_persist dev ~off:(base j) ~len:Geometry.dentry_size;
          if dec.dent_rptrs.(j) <> 0 then
            bump (fun s ->
                Fsctx.{ s with rolled_back_renames = s.rolled_back_renames + 1 })
          else
            bump (fun s -> Fsctx.{ s with orphan_dentries = s.orphan_dentries + 1 })
        end
      end
      else if not (Hashtbl.mem killed (dec.dent_pages.(j), dec.dent_slots.(j)))
      then Bytes.set committed j '\001');
  let iter_committed f = iter_raw (fun j -> if Bytes.get committed j <> '\000' then f j) in

  (* Pass 3c: reachability from the root. *)
  let reachable : (int, unit) Hashtbl.t = Hashtbl.create (Hashtbl.length attrs) in
  let queue = Queue.create () in
  if Hashtbl.mem attrs Geometry.root_ino then begin
    Hashtbl.replace reachable Geometry.root_ino ();
    Queue.push Geometry.root_ino queue
  end;
  while not (Queue.is_empty queue) do
    let dir = Queue.pop queue in
    match Hashtbl.find_opt dir_pages_of dir with
    | None -> ()
    | Some pages ->
        List.iter
          (fun (_, page) ->
            Scan.iter_dentries dec ~page (fun j ->
                if Bytes.get committed j <> '\000' then
                  let ino = dec.dent_inos.(j) in
                  match Hashtbl.find_opt attrs ino with
                  | None -> () (* dangling: recovery's link fix won't index it *)
                  | Some r ->
                      if not (Hashtbl.mem reachable ino) then begin
                        Hashtbl.replace reachable ino ();
                        if r.kind = R.Kind.Dir then Queue.push ino queue
                      end))
          pages
  done;

  (* Trim pages owned by reachable files beyond their size (space leaked
     by a crash between backpointer commit and size update). *)
  let trimmed : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  if recover then
    Hashtbl.iter
      (fun ino r ->
        if Hashtbl.mem reachable ino && r.R.Inode.kind <> R.Kind.Dir then
          match Hashtbl.find_opt owned ino with
          | None -> ()
          | Some l ->
              let keep = page_units r.R.Inode.size in
              let seen : (int, unit) Hashtbl.t = Hashtbl.create 8 in
              List.iter
                (function
                  | R.Desc.Data, offset, page
                    when offset >= keep || Hashtbl.mem seen offset ->
                      zero_desc page;
                      Hashtbl.replace trimmed (ino, page) ()
                  | R.Desc.Data, offset, _ -> Hashtbl.replace seen offset ()
                  | R.Desc.Dirpage, _, _ -> ())
                (List.sort compare !l))
      attrs;

  (* Recovery: free orphans. *)
  if recover then begin
    List.iter zero_inode !garbage_inodes;
    List.iter zero_desc !garbage_descs;
    let unreachable =
      Hashtbl.fold
        (fun ino _ acc ->
          if Hashtbl.mem reachable ino then acc else ino :: acc)
        attrs []
    in
    List.iter
      (fun ino ->
        (* unreachable inode: free it and everything it owns *)
        (match Hashtbl.find_opt owned ino with
        | None -> ()
        | Some l -> List.iter (fun (_, _, page) -> zero_desc page) !l);
        zero_inode ino;
        Hashtbl.remove attrs ino)
      unreachable;
    (* pages owned by inos that are not valid at all; read from the
       device, since the frees above may have zeroed them already *)
    Hashtbl.iter
      (fun ino l ->
        if not (Hashtbl.mem attrs ino) || not (Hashtbl.mem reachable ino) then
          List.iter
            (fun (_, _, page) ->
              if
                Device.read_u64 dev
                  (Geometry.desc_off geo ~page + R.Desc.f_ino)
                <> 0
              then zero_desc page)
            !l)
      owned
  end;

  (* Recovery: recompute link counts. *)
  if recover then begin
    let true_links : (int, int) Hashtbl.t =
      Hashtbl.create (Hashtbl.length reachable)
    in
    let add ino n =
      Hashtbl.replace true_links ino
        ((match Hashtbl.find_opt true_links ino with Some c -> c | None -> 0)
        + n)
    in
    Hashtbl.iter (fun ino _ -> add ino 0) reachable;
    add Geometry.root_ino 2;
    iter_committed (fun j ->
        let ino = dec.dent_inos.(j) in
        if Hashtbl.mem reachable ino then
          match Hashtbl.find_opt attrs ino with
          | Some r when r.kind = R.Kind.Dir ->
              add ino 2;
              add dir_of.(j) 1
          | Some _ -> add ino 1
          | None -> ());
    Hashtbl.iter
      (fun ino want ->
        match Hashtbl.find_opt attrs ino with
        | Some r when Hashtbl.mem reachable ino && r.links <> want ->
            persist_u64 dev
              (Geometry.inode_off geo ~ino + R.Inode.f_links)
              want;
            bump (fun s ->
                Fsctx.{ s with fixed_link_counts = s.fixed_link_counts + 1 })
        | Some _ | None -> ())
      true_links
  end;

  (* Build the volatile index from the (possibly repaired) state. *)
  let inserts = ref 0 in
  Hashtbl.iter
    (fun ino r ->
      if Hashtbl.mem reachable ino then begin
        incr inserts;
        if Q.mem_ino ctx.quar ino then
          (* resolvable so that operations can answer EIO; no pages *)
          Index.add_file ctx.index ino
        else
        match r.R.Inode.kind with
        | R.Kind.Dir ->
            Index.add_dir ctx.index ino;
            (match Hashtbl.find_opt dir_pages_of ino with
            | None -> ()
            | Some pages ->
                List.iter
                  (fun (_, page) ->
                    incr inserts;
                    Index.add_dir_page ctx.index ~dir:ino page)
                  (List.sort compare pages))
        | R.Kind.File | R.Kind.Symlink -> (
            Index.add_file ctx.index ino;
            match Hashtbl.find_opt owned ino with
            | None -> ()
            | Some l ->
                List.iter
                  (function
                    | R.Desc.Data, offset, page ->
                        if not (Hashtbl.mem trimmed (ino, page)) then begin
                          incr inserts;
                          Index.add_file_page ctx.index ~ino ~offset page
                        end
                    | R.Desc.Dirpage, _, _ -> ())
                  !l)
      end)
    attrs;
  iter_committed (fun j ->
      let ino = dec.dent_inos.(j) in
      if Hashtbl.mem reachable dir_of.(j) && Hashtbl.mem reachable ino then begin
        incr inserts;
        Index.insert_dentry ctx.index ~dir:dir_of.(j) dec.dent_names.(j) ~ino
          { Index.page = dec.dent_pages.(j); slot = dec.dent_slots.(j) }
      end);
  Device.charge dev (!inserts * index_insert_ns);

  (* Allocators: anything with a fully-zero record is free. The
     allocator starts fully free (one run, O(1)) and {e reserves} the
     decoded records recovery left allocated, so this step — like the
     passes above — costs time proportional to utilization, not volume
     size (the paper's §5 near-constant mount). Ledger: the allocation
     test of every backed slot but the root's. *)
  bill dev ~meta:0
    [
      (inode_slots - Bool.to_int root_backed, Geometry.inode_size);
      (desc_slots, Geometry.desc_size);
    ];
  let reserved = ref 0 in
  Array.iter
    (fun ino ->
      if ino <> Geometry.root_ino && not (Hashtbl.mem freed_inodes ino) then begin
        Alloc.reserve_inode ctx.alloc ino;
        incr reserved
      end)
    inos;
  Array.iter
    (fun page ->
      if not (Hashtbl.mem freed_pages page) then begin
        Alloc.reserve_page ctx.alloc page;
        incr reserved
      end)
    pages;
  Device.charge dev (!reserved * 40);
  ctx.recovery <- !st

let rebuild (ctx : Fsctx.t) ~recover =
  rebuild_decoded ctx (Scan.decode ctx.dev ctx.geo) ~recover

(* {1 Snapshot recovery}

   Two jobs, both before any other recovery decision:

   - A {e committed} rollback intent means a crash interrupted an atomic
     rollback after its commit point: replay the redo log (idempotent —
     a crash during replay just replays again on the next mount), then
     clear the intent. The whole chain is read into memory first because
     log entries may target the log pages' own lines.
   - Nonzero but {e uncommitted} snapshot slots (or intent) are crash
     remnants of an interrupted creation: roll them back by zeroing, so
     every surviving slot is committed with a valid CRC — "the old table
     or the new entry, never a torn one". *)
let snap_recover dev geo =
  let module S = Layout.Snaptab in
  (match S.Intent.decode dev with
  | Some { slot = _; log_page; count } when S.Intent.verify dev ->
      let entries = ref [] in
      let page = ref log_page and remaining = ref count in
      while !page >= 0 && !page < geo.Geometry.page_count && !remaining > 0 do
        let base = Geometry.page_off geo ~page:!page in
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
      (* committed but CRC-corrupt: never a legal crash state (media
         damage); replay would restore garbage, so drop the intent *)
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

(* Media pre-pass (csum volumes only): verify record checksums before
   any recovery decision. Corrupt committed records are quarantined; the
   volume then mounts degraded, meaning {e no} destructive recovery runs
   — a repair pass working from corrupt metadata could free live data.
   The CRC checks read the device; the reads that find the records are
   billed through the ledger. *)
let media_prepass (ctx : Fsctx.t) =
  let dev = ctx.dev and geo = ctx.geo in
  let dec = Scan.decode dev geo in
  (* Inode suspects: allocated records whose sealed-field CRC fails.
     Ledger: an allocation test per backed slot. *)
  bill dev ~meta:0 [ (Scan.inode_slots dec, Geometry.inode_size) ];
  let suspects = ref [] in
  Array.iter
    (fun ino ->
      if not (R.Inode.verify dev ~base:(Geometry.inode_off geo ~ino)) then
        suspects := ino :: !suspects)
    dec.inos;
  (* Committed page descriptors with a bad CRC: kind/offset can no longer
     be trusted, so quarantine the page and the file that owns it.
     Ledger: the ino word of every backed slot. *)
  bill dev ~meta:(Scan.desc_slots dec) [];
  Array.iteri
    (fun k page ->
      let ino = dec.desc_words.(k) in
      if ino <> 0 && not (R.Desc.verify dev ~base:(Geometry.desc_off geo ~page))
      then begin
        Q.add ctx.quar ~reason:"page descriptor CRC mismatch" (Q.Page page);
        if ino >= 1 && ino <= geo.inode_count then
          Q.add ctx.quar ~reason:"owns page with corrupt descriptor" (Q.Ino ino)
      end)
    dec.pages;
  (* A suspect inode is quarantined only if a committed dentry (or being
     the root) references it: an unreferenced suspect is indistinguishable
     from a half-initialized crash orphan, and the ordinary garbage path
     already handles those without data loss. Ledger: the ino word of
     every backed descriptor; each committed, unquarantined one read and
     decoded; and the ino word of every slot of its page if it is a
     directory page. *)
  match !suspects with
  | [] -> ()
  | suspects ->
      let suspect = Hashtbl.create 8 in
      List.iter (fun i -> Hashtbl.replace suspect i ()) suspects;
      let referenced = Hashtbl.create 8 in
      let meta = ref (Scan.desc_slots dec) and reads = ref 0 in
      Array.iteri
        (fun k page ->
          if dec.desc_words.(k) <> 0 && not (Q.mem_page ctx.quar page) then begin
            incr reads;
            match dec.descs.(k) with
            | d when d == Scan.undecodable_desc -> incr meta
            | { kind = R.Desc.Dirpage; _ } ->
                meta := !meta + 4 + Geometry.dentries_per_page;
                Scan.iter_dentries dec ~page (fun j ->
                    let target = dec.dent_inos.(j) in
                    if Hashtbl.mem suspect target then
                      Hashtbl.replace referenced target ())
            | { kind = R.Desc.Data; _ } -> meta := !meta + 4
          end)
        dec.pages;
      bill dev ~meta:!meta [ (!reads, Geometry.desc_size) ];
      List.iter
        (fun ino ->
          if ino = Geometry.root_ino || Hashtbl.mem referenced ino then
            Q.add ctx.quar ~reason:"inode CRC mismatch" (Q.Ino ino))
        suspects

(* The root must decode as a directory with its own ino, or the index
   has nothing to hang the tree on; a root the media pre-pass
   quarantined is the exception (the degraded mount answers EIO). *)
let root_ok (ctx : Fsctx.t) (dec : Scan.t) =
  Q.mem_ino ctx.quar Geometry.root_ino
  || Array.length dec.inos > 0
     && dec.inos.(0) = Geometry.root_ino
     && dec.inodes.(0).ino = Geometry.root_ino
     && dec.inodes.(0).kind = R.Kind.Dir

let degraded (ctx : Fsctx.t) = not (Q.is_empty ctx.quar)

let quarantined (ctx : Fsctx.t) =
  List.fold_left
    (fun (i, p) (e : Q.entry) ->
      match e.obj with
      | Q.Ino _ -> (i + 1, p)
      | Q.Page _ -> (i, p + 1)
      | Q.Superblock -> (i, p))
    (0, 0) (Q.to_list ctx.quar)

let do_mount ~force_recover dev =
  match R.Superblock.read dev with
  | None -> Error Vfs.Errno.EINVAL
  | Some { geometry = geo; clean; csum } ->
      if csum && not (R.Superblock.verify dev) then Error Vfs.Errno.EIO
      else begin
        let ctx = Fsctx.make ~csum ~dev ~geo () in
        if (not clean) || force_recover then snap_recover dev geo;
        if csum then media_prepass ctx;
        let dec = Scan.decode dev geo in
        if not (root_ok ctx dec) then Error Vfs.Errno.EINVAL
        else begin
          rebuild_decoded ctx dec
            ~recover:(((not clean) || force_recover) && not (degraded ctx));
          R.Superblock.set_clean dev false;
          Ok ctx
        end
      end

let mount dev = do_mount ~force_recover:false dev
let mount_recover dev = do_mount ~force_recover:true dev

let unmount (ctx : Fsctx.t) = R.Superblock.set_clean ctx.dev true
