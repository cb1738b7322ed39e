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
   the volume. Inodes are numbered by their positions in the decode
   ([dec.inos], then the quarantine's free slots), descriptors and
   dentries by theirs, and every set and map over them is an array.
   Where recovery stores for several inodes or owners in turn, it stores
   in the order hash tables of them once listed them ([Scan.table_order]
   of the inodes as pass 1 found them, of the owners as their pages were
   met), so every device sees the same stores in the same order. *)
let rebuild_decoded (ctx : Fsctx.t) (dec : Scan.t) ~recover =
  let dev = ctx.dev and geo = ctx.geo in
  let st = ref Fsctx.{ no_recovery with recovered = recover } in
  let bump f = st := f !st in
  let inos = dec.inos and pages = dec.pages in
  let n = Array.length inos in
  let inode_slots = Scan.inode_slots dec and desc_slots = Scan.desc_slots dec in
  let root_backed = Scan.inode_backed dec Geometry.root_ino in
  let q_free_inos, q_free_pages = quarantined_free ctx.quar dec in
  let q_free = Array.of_list q_free_inos in
  let npos = n + Array.length q_free in
  let ino_at k = if k < n then inos.(k) else q_free.(k - n) in
  (* the position of an inode number the decode did not place *)
  let qpos ino =
    let rec find i =
      if i >= Array.length q_free then -1 else if q_free.(i) = ino then n + i else find (i + 1)
    in
    find 0
  in
  let pos ino =
    let k = Scan.ino_index dec ino in
    if k >= 0 then k else qpos ino
  in
  (* the position of dentry [j]'s inode *)
  let tpos j =
    let k = dec.dent_ino_pos.(j) in
    if k >= 0 then k else qpos dec.dent_inos.(j)
  in
  let mark set k = if k >= 0 then Bytes.set set k '\001' in
  let marked set k = k >= 0 && Bytes.get set k <> '\000' in
  (* Recovery's frees, remembered so the allocator pass reserves what is
     still allocated without reading the tables again. *)
  let freed_inodes = Bytes.make n '\000' and freed_pages = Bytes.make (Array.length pages) '\000' in
  let zero_inode ino =
    zero_persist dev ~off:(Geometry.inode_off geo ~ino) ~len:Geometry.inode_size;
    mark freed_inodes (Scan.ino_index dec ino);
    bump (fun s -> Fsctx.{ s with orphan_inodes = s.orphan_inodes + 1 })
  in
  let zero_desc page =
    zero_persist dev ~off:(Geometry.desc_off geo ~page) ~len:Geometry.desc_size;
    mark freed_pages (Scan.page_index dec page);
    bump (fun s -> Fsctx.{ s with orphan_pages = s.orphan_pages + 1 })
  in

  (* Pass 1: inode table. A quarantined inode's record is untrustworthy:
     keep it visible (so lookups resolve and return EIO) but never treat
     it as garbage; synthesize attrs if the record no longer decodes.
     Ledger: every backed slot's ino word, its kind word when the ino is
     nonzero, its 8 other fields when it decodes, and an allocation test
     unless it decodes with its own ino or is quarantined. *)
  let attr = Array.make npos Scan.undecodable_inode and has_attr = Bytes.make npos '\000' in
  let attr_keys = ref [] in
  let set_attr k r =
    attr.(k) <- r;
    mark has_attr k;
    attr_keys := ino_at k :: !attr_keys
  in
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
        set_attr k r;
        decr tests
      end
      else if Q.mem_ino ctx.quar ino then begin
        set_attr k (synthesized ino);
        decr tests
      end
      else garbage_inodes := ino :: !garbage_inodes)
    inos;
  Array.iteri
    (fun i ino ->
      set_attr (n + i) (synthesized ino);
      decr tests)
    q_free;
  bill dev ~meta:!meta [ (!tests, Geometry.inode_size) ];
  let attr_keys = List.rev !attr_keys in
  (* the order a table of [attr_keys] made with [n] buckets listed *)
  let in_attrs_order items = Scan.in_table_order ~size:n attr_keys items in
  let attr_of ino =
    let k = pos ino in
    if marked has_attr k then Some attr.(k) else None
  in

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
     undecodable descriptor reads as ino 0. A pointer out of range is
     left set. *)
  let killed_pages = Bytes.make (Array.length pages) '\000' in
  Array.iteri
    (fun k page ->
      let d = dec.descs.(k) in
      if d.ino <> 0 && not (Q.mem_page ctx.quar page) then
        match R.Desc.replaced geo d with
        | Some old ->
            mark killed_pages (Scan.page_index dec old);
            if recover then begin
              zero_desc old;
              persist_u64 dev
                (Geometry.desc_off geo ~page + R.Desc.f_replaces)
                0
            end
        | None -> ())
    pages;
  bill dev ~meta:0 [ (!retests, Geometry.desc_size) ];
  (* What each owner owns, as (kind, offset, position in [pages]), newest
     first: by position for the inodes numbered above, in [foreign] for
     any other backpointer. [owner_keys] lists every owner as its first
     page was met. *)
  let owned = Array.make npos [] and foreign = ref [] and owner_keys = ref [] in
  let garbage_descs = ref [] in
  Array.iteri
    (fun k page ->
      if Q.mem_page ctx.quar page then () (* neither owned nor garbage *)
      else
        match dec.descs.(k) with
        | d when d == Scan.undecodable_desc ->
            (* garbage, unless the replacement pass just zeroed it *)
            if not (marked freed_pages k) then
              garbage_descs := page :: !garbage_descs
        | { ino; kind; offset; replaces = _ }
          when ino <> 0 && not (marked killed_pages k) -> (
            let o =
              let o = dec.desc_ino_pos.(k) in
              if o >= 0 then o else qpos ino
            in
            if o >= 0 then begin
              if owned.(o) = [] then owner_keys := ino :: !owner_keys;
              owned.(o) <- (kind, offset, k) :: owned.(o)
            end
            else
              match List.assoc_opt ino !foreign with
              | Some l -> l := (kind, offset, k) :: !l
              | None ->
                  owner_keys := ino :: !owner_keys;
                  foreign := (ino, ref [ (kind, offset, k) ]) :: !foreign)
        | { ino; _ } when ino <> 0 -> () (* superseded by a replacer *)
        | _ -> garbage_descs := page :: !garbage_descs)
    pages;
  let owner_keys = List.rev !owner_keys in
  let owned_by ino =
    let o = pos ino in
    if o >= 0 then owned.(o)
    else match List.assoc_opt ino !foreign with Some l -> !l | None -> []
  in

  (* Pass 3: directory pages -> raw dentries. A raw dentry is an index
     [j] into the decode; [dir_of.(j)] is its directory, or -1 if its
     page is not a directory page of a valid, unquarantined directory.
     [dir_pages.(k)] is such a directory's (offset, page position) list.
     Ledger: every slot of every page read, and each nonzero slot's name
     and two words. *)
  let dir_of = Array.make (Array.length dec.dent_inos) (-1) in
  let dir_at = Array.make (Array.length dec.dent_inos) (-1) in
  let dir_pages = Array.make npos [] in
  let pages_read = ref 0 and names_read = ref 0 in
  for k = 0 to npos - 1 do
    let ino = ino_at k in
    if
      marked has_attr k && attr.(k).kind = R.Kind.Dir && owned.(k) <> []
      && not (Q.mem_ino ctx.quar ino)
    then begin
      let dps =
        List.filter_map
          (function
            | R.Desc.Dirpage, offset, p -> Some (offset, p) | R.Desc.Data, _, _ -> None)
          owned.(k)
      in
      dir_pages.(k) <- dps;
      List.iter
        (fun (_, p) ->
          incr pages_read;
          Scan.iter_dentries dec ~page:pages.(p) (fun j ->
              incr names_read;
              dir_of.(j) <- ino;
              dir_at.(j) <- k))
        dps
    end
  done;
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
    let nd = Array.length dir_of in
    let j = ref 0 in
    while !j < nd do
      let hi = ref !j in
      while !hi + 1 < nd && dec.dent_pages.(!hi + 1) = dec.dent_pages.(!j) do
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
    Device.charge dev (List.length attr_keys * recovery_obj_ns);
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
  let killed = Bytes.make (Array.length dir_of) '\000' in
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
        if committed then mark killed (Scan.dentry_index dec ~page:sp ~slot:ss);
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
      else if not (marked killed j) then mark committed j);
  let iter_committed f = iter_raw (fun j -> if marked committed j then f j) in

  (* Pass 3c: reachability from the root. [reach_order] lists what it
     reached, in order, for the link-count pass. *)
  let reachable = Bytes.make npos '\000' in
  let reach_order = ref [] in
  let reach k =
    mark reachable k;
    reach_order := ino_at k :: !reach_order
  in
  let queue = Queue.create () in
  (let root = pos Geometry.root_ino in
   if marked has_attr root then begin
     reach root;
     Queue.push root queue
   end);
  while not (Queue.is_empty queue) do
    let dir = Queue.pop queue in
    List.iter
      (fun (_, p) ->
        Scan.iter_dentries dec ~page:pages.(p) (fun j ->
            if marked committed j then
              let t = tpos j in
              (* dangling: recovery's link fix won't index it *)
              if marked has_attr t && not (marked reachable t) then begin
                reach t;
                if attr.(t).kind = R.Kind.Dir then Queue.push t queue
              end))
      dir_pages.(dir)
  done;
  let is_reachable ino = marked reachable (pos ino) in

  (* Trim pages owned by reachable files beyond their size (space leaked
     by a crash between backpointer commit and size update), and all but
     the first page at one offset. *)
  let trimmed = Bytes.make (Array.length pages) '\000' in
  if recover then begin
    let trims = ref [] in
    for k = npos - 1 downto 0 do
      if marked has_attr k && marked reachable k && attr.(k).kind <> R.Kind.Dir then begin
        let keep = page_units attr.(k).size in
        (* sorted, a file's data pages come by offset: a repeat follows
           the page it repeats *)
        let kept = ref false and last = ref 0 and cut = ref [] in
        List.iter
          (function
            | R.Desc.Data, offset, p when offset >= keep || (!kept && offset = !last) ->
                cut := p :: !cut
            | R.Desc.Data, offset, _ ->
                kept := true;
                last := offset
            | R.Desc.Dirpage, _, _ -> ())
          (List.sort compare owned.(k));
        if !cut <> [] then trims := (ino_at k, List.rev !cut) :: !trims
      end
    done;
    List.iter
      (fun (_, cut) ->
        List.iter
          (fun p ->
            zero_desc pages.(p);
            mark trimmed p)
          cut)
      (in_attrs_order !trims)
  end;

  (* Recovery: free orphans. *)
  if recover then begin
    List.iter zero_inode !garbage_inodes;
    List.iter zero_desc !garbage_descs;
    (* unreachable inodes, in the reverse of the table's order *)
    let unreachable = ref [] in
    for k = npos - 1 downto 0 do
      if marked has_attr k && not (marked reachable k) then
        unreachable := (ino_at k, ()) :: !unreachable
    done;
    List.iter
      (fun (ino, ()) ->
        (* unreachable inode: free it and everything it owns *)
        List.iter (fun (_, _, p) -> zero_desc pages.(p)) (owned_by ino);
        zero_inode ino;
        Bytes.set has_attr (pos ino) '\000')
      (List.rev (in_attrs_order !unreachable));
    (* pages owned by inos that are not valid at all; read from the
       device, since the frees above may have zeroed them already *)
    let orphaned =
      List.filter_map
        (fun ino ->
          if Option.is_none (attr_of ino) || not (is_reachable ino) then
            Some (ino, owned_by ino)
          else None)
        owner_keys
    in
    List.iter
      (fun (_, l) ->
        List.iter
          (fun (_, _, p) ->
            let page = pages.(p) in
            if Device.read_u64 dev (Geometry.desc_off geo ~page + R.Desc.f_ino) <> 0 then
              zero_desc page)
          l)
      (Scan.in_table_order ~size:n owner_keys orphaned)
  end;

  (* Recovery: recompute link counts. They are summed by position; only
     if some count is wrong are they summed again into the table whose
     order the fixes are stored in, made from the reachable inodes in
     the order the hash table of them iterated. *)
  let iter_true_links f =
    iter_committed (fun j ->
        let t = tpos j in
        if marked reachable t && marked has_attr t then
          match attr.(t).kind with
          | R.Kind.Dir ->
              f t 2;
              f dir_at.(j) 1
          | R.Kind.File | R.Kind.Symlink -> f t 1)
  in
  if recover then begin
    let want = Array.make npos 0 in
    let add k m = if k >= 0 then want.(k) <- want.(k) + m in
    add (pos Geometry.root_ino) 2;
    iter_true_links add;
    let wrong ino =
      let k = pos ino in
      marked has_attr k && attr.(k).links <> want.(k)
    in
    if List.exists wrong !reach_order then begin
      let reachable = List.rev !reach_order in
      let true_links : (int, int) Hashtbl.t = Hashtbl.create (List.length reachable) in
      let add ino m =
        Hashtbl.replace true_links ino
          ((match Hashtbl.find_opt true_links ino with Some c -> c | None -> 0)
          + m)
      in
      List.iter
        (fun ino -> add ino 0)
        (Scan.table_order ~size:(List.length attr_keys) reachable);
      add Geometry.root_ino 2;
      iter_true_links (fun k m -> add (ino_at k) m);
      Hashtbl.iter
        (fun ino want ->
          match attr_of ino with
          | Some r when is_reachable ino && r.links <> want ->
              persist_u64 dev
                (Geometry.inode_off geo ~ino + R.Inode.f_links)
                want;
              bump (fun s ->
                  Fsctx.{ s with fixed_link_counts = s.fixed_link_counts + 1 })
          | Some _ | None -> ())
        true_links
    end
  end;

  (* Build the volatile index from the (possibly repaired) state: each
     directory's and file's own table gets its entries in their order,
     whatever the order of the inodes. *)
  let inserts = ref 0 in
  Index.load ctx.index (fun () ->
      for k = 0 to npos - 1 do
        if marked has_attr k && marked reachable k then begin
          let ino = ino_at k in
          incr inserts;
          if Q.mem_ino ctx.quar ino then
            (* resolvable so that operations can answer EIO; no pages *)
            Index.Load.add_file ctx.index ino
          else
            match attr.(k).kind with
            | R.Kind.Dir ->
                Index.Load.add_dir ctx.index ino;
                List.iter
                  (fun (_, p) ->
                    incr inserts;
                    Index.Load.add_dir_page ctx.index ~dir:ino pages.(p))
                  (List.sort compare dir_pages.(k))
            | R.Kind.File | R.Kind.Symlink ->
                Index.Load.add_file ctx.index ino;
                List.iter
                  (function
                    | R.Desc.Data, offset, p ->
                        if not (marked trimmed p) then begin
                          incr inserts;
                          Index.Load.add_file_page ctx.index ~ino ~offset pages.(p)
                        end
                    | R.Desc.Dirpage, _, _ -> ())
                  owned.(k)
        end
      done;
      iter_committed (fun j ->
          let ino = dec.dent_inos.(j) in
          if marked reachable dir_at.(j) && marked reachable (tpos j) then begin
            incr inserts;
            Index.Load.insert_dentry ctx.index ~dir:dir_of.(j) dec.dent_names.(j) ~ino
              { Index.page = dec.dent_pages.(j); slot = dec.dent_slots.(j) }
          end));
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
  let kept_inos = ref [] and kept_pages = ref [] in
  for k = n - 1 downto 0 do
    if inos.(k) <> Geometry.root_ino && not (marked freed_inodes k) then
      kept_inos := inos.(k) :: !kept_inos
  done;
  for k = Array.length pages - 1 downto 0 do
    if not (marked freed_pages k) then kept_pages := pages.(k) :: !kept_pages
  done;
  Alloc.reserve ctx.alloc ~inos:!kept_inos ~pages:!kept_pages;
  Device.charge dev ((List.length !kept_inos + List.length !kept_pages) * 40);
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
  (* the table is read from one window and its reads billed in closed
     form, each before the first store that follows it *)
  let tab = S.read dev and bill = S.bill () in
  S.bill_intent_decode bill tab.intent;
  let stored =
    match tab.intent_rec with
    | Some { slot = _; log_page; count }
      when S.bill_verify bill S.Intent.sealed_ranges;
           tab.intent.sealed ->
        S.settle dev bill;
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
        Device.fence dev;
        true
    | Some _ ->
        (* committed but CRC-corrupt: never a legal crash state (media
           damage); replay would restore garbage, so drop the intent *)
        S.settle dev bill;
        S.Intent.clear dev;
        Device.fence dev;
        true
    | None ->
        S.bill_free bill;
        if tab.intent.free then false
        else begin
          S.settle dev bill;
          S.Intent.clear dev;
          Device.fence dev;
          true
        end
  in
  (* a replayed log may have rewritten the slots *)
  let tab = if stored then S.read dev else tab in
  let cleared = ref false in
  for slot = 0 to S.slots - 1 do
    let e = tab.slot.(slot) in
    S.bill_state bill;
    if e.state <> 1 then begin
      S.bill_free bill;
      if not e.free then begin
        S.settle dev bill;
        S.Slot.clear dev ~slot;
        cleared := true
      end
    end
  done;
  S.settle dev bill;
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
