module Device = Pmem.Device
module Geometry = Layout.Geometry
module R = Layout.Records

let check (ctx : Fsctx.t) =
  let dev = ctx.dev and geo = ctx.geo in
  let quar = ctx.quar in
  let module Q = Faults.Quarantine in
  let degraded = not (Q.is_empty quar) in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let dec = Scan.decode dev geo in

  (* Inode table. Quarantined objects are excluded from every invariant:
     their persistent metadata is known-corrupt, so nothing useful can be
     checked against it. *)
  let inodes : (int, R.Inode.t) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun k ino ->
      if not (Q.mem_ino quar ino) then
        let r = dec.inodes.(k) in
        if r == Scan.undecodable_inode then
          err "inode %d: allocated but undecodable (partial init?)" ino
        else if r.ino <> ino then err "inode %d: ino field says %d" ino r.ino
        else Hashtbl.replace inodes ino r)
    dec.inos;
  (match Hashtbl.find_opt inodes Geometry.root_ino with
  | Some r when r.kind = R.Kind.Dir -> ()
  | Some _ -> err "root inode is not a directory"
  | None ->
      if not (Q.mem_ino quar Geometry.root_ino) then err "root inode missing");

  (* Page descriptors. *)
  let pages_of : (int, (R.Desc.page_kind * int * int) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
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
            (match Hashtbl.find_opt inodes ino with
            | None ->
                if not (Q.mem_ino quar ino) then
                  err "page %d: backpointer to free/invalid inode %d" page ino
            | Some r -> (
                match (kind, r.kind) with
                | R.Desc.Dirpage, R.Kind.Dir | R.Desc.Data, R.Kind.File
                | R.Desc.Data, R.Kind.Symlink ->
                    ()
                | R.Desc.Dirpage, (R.Kind.File | R.Kind.Symlink) ->
                    err "page %d: dir page owned by non-directory %d" page ino
                | R.Desc.Data, R.Kind.Dir ->
                    err "page %d: data page owned by directory %d" page ino));
            let l =
              match Hashtbl.find_opt pages_of ino with
              | Some l -> l
              | None ->
                  let l = ref [] in
                  Hashtbl.replace pages_of ino l;
                  l
            in
            l := (kind, offset, page) :: !l
        | _ -> err "page %d: descriptor allocated but unowned" page)
    dec.pages;

  (* File sizes must be fully covered by owned pages (a size made visible
     before its pages' backpointers were fenced is the §4.2 write bug). *)
  Hashtbl.iter
    (fun ino (r : R.Inode.t) ->
      if r.kind <> R.Kind.Dir && r.size > 0 then begin
        let covered = Hashtbl.create 8 in
        (match Hashtbl.find_opt pages_of ino with
        | None -> ()
        | Some l ->
            List.iter
              (function
                | R.Desc.Data, offset, _ -> Hashtbl.replace covered offset ()
                | R.Desc.Dirpage, _, _ -> ())
              !l);
        (* clamp: a torn/corrupt size field must not explode the loop *)
        let keep =
          min geo.page_count
            ((r.size + Geometry.page_size - 1) / Geometry.page_size)
        in
        for o = 0 to keep - 1 do
          if not (Hashtbl.mem covered o) then
            err "inode %d: size %d covers unowned page offset %d" ino r.size o
        done
      end)
    inodes;

  (* Data page offsets must be unique and within the size. *)
  Hashtbl.iter
    (fun ino l ->
      match Hashtbl.find_opt inodes ino with
      | None -> ()
      | Some r when r.kind = R.Kind.Dir -> ()
      | Some r ->
          let seen = Hashtbl.create 8 in
          List.iter
            (function
              | R.Desc.Data, offset, page ->
                  if Hashtbl.mem seen offset then
                    err "inode %d: duplicate page offset %d (page %d)" ino
                      offset page;
                  Hashtbl.replace seen offset ();
                  let keep =
                    (r.size + Geometry.page_size - 1) / Geometry.page_size
                  in
                  if offset >= keep then
                    err "inode %d: page %d at offset %d beyond size %d" ino
                      page offset r.size
              | R.Desc.Dirpage, _, page ->
                  err "inode %d: dir page %d on a file" ino page)
            !l)
    pages_of;

  (* Dentries. *)
  let entries : (int * string, int) Hashtbl.t = Hashtbl.create 64 in
  let children : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun dir l ->
      match Hashtbl.find_opt inodes dir with
      | Some r when r.kind = R.Kind.Dir ->
          List.iter
            (function
              | R.Desc.Dirpage, _, page ->
                  Scan.iter_dentries dec ~page (fun j ->
                      let slot = dec.dent_slots.(j) and name = dec.dent_names.(j) in
                      let ino = dec.dent_inos.(j) in
                      if dec.dent_rptrs.(j) <> 0 then
                        err "dentry %s (page %d slot %d): rename pointer set"
                          name page slot;
                      if ino <> 0 then begin
                        if not (Vfs.Path.valid_name name) then
                          err "dir %d: committed dentry with invalid name %S"
                            dir name;
                        if not (Hashtbl.mem inodes ino) then begin
                          if not (Q.mem_ino quar ino) then
                            err "dentry %s: points at free inode %d" name ino
                        end
                        else begin
                          if Hashtbl.mem entries (dir, name) then
                            err "dir %d: duplicate name %s" dir name;
                          Hashtbl.replace entries (dir, name) ino;
                          let l =
                            match Hashtbl.find_opt children dir with
                            | Some l -> l
                            | None ->
                                let l = ref [] in
                                Hashtbl.replace children dir l;
                                l
                          in
                          l := ino :: !l
                        end
                      end
                      else
                        err
                          "dir %d: allocated but uncommitted dentry (page %d \
                           slot %d)"
                          dir page slot)
              | R.Desc.Data, _, _ -> ())
            !l
      | Some _ | None -> ())
    pages_of;

  (* Reachability. *)
  let reachable = Hashtbl.create 64 in
  Hashtbl.replace reachable Geometry.root_ino ();
  let q = Queue.create () in
  Queue.push Geometry.root_ino q;
  while not (Queue.is_empty q) do
    let dir = Queue.pop q in
    match Hashtbl.find_opt children dir with
    | None -> ()
    | Some l ->
        List.iter
          (fun ino ->
            if not (Hashtbl.mem reachable ino) then begin
              Hashtbl.replace reachable ino ();
              match Hashtbl.find_opt inodes ino with
              | Some r when r.kind = R.Kind.Dir -> Queue.push ino q
              | Some _ | None -> ()
            end)
          !l
  done;
  (* In degraded mode reachability and link counts are unreliable: a
     quarantined directory hides its subtree and its dentries no longer
     count, so only report these on healthy volumes. Anonymous tmpfile
     inodes are unreachable by design while their volatile tag is live:
     the registry only ever holds them in the current mount (it is
     rebuilt empty on every mount, so post-crash orphans are still
     reported — and reclaimed by recovery before this check runs). *)
  let anon_live = Hashtbl.create 8 in
  Hashtbl.iter (fun _ ino -> Hashtbl.replace anon_live ino ()) ctx.anon;
  if not degraded then
    Hashtbl.iter
      (fun ino _ ->
        if not (Hashtbl.mem reachable ino) && not (Hashtbl.mem anon_live ino)
        then err "inode %d: allocated but unreachable from root" ino)
      inodes;

  (* Link counts. *)
  let want = Hashtbl.create 64 in
  Hashtbl.iter (fun ino _ -> Hashtbl.replace want ino 0) inodes;
  Hashtbl.replace want Geometry.root_ino 2;
  Hashtbl.iter
    (fun (dir, _) ino ->
      let add i n =
        Hashtbl.replace want i
          ((match Hashtbl.find_opt want i with Some c -> c | None -> 0) + n)
      in
      match Hashtbl.find_opt inodes ino with
      | Some r when r.kind = R.Kind.Dir ->
          add ino 2;
          add dir 1
      | Some _ -> add ino 1
      | None -> ())
    entries;
  if not degraded then
    Hashtbl.iter
      (fun ino r ->
        match Hashtbl.find_opt want ino with
        | Some w when r.R.Inode.links <> w && Hashtbl.mem reachable ino ->
            err "inode %d: link count %d, expected %d" ino r.links w
        | Some _ | None -> ())
      inodes;

  (* Snapshot table, post-mount: recovery has run, so the table must be
     fully settled — no rollback intent, no uncommitted remnants, every
     committed slot sealed and uniquely named. *)
  let module S = Layout.Snaptab in
  if not (S.Intent.is_free dev) then
    err "snapshot rollback intent still present after mount";
  let snap_names = Hashtbl.create 4 in
  for slot = 0 to S.slots - 1 do
    match S.Slot.state dev ~slot with
    | 1 -> (
        if not (S.Slot.verify dev ~slot) then
          err "snapshot slot %d: sealed-field CRC mismatch" slot
        else
          match S.Slot.decode dev ~slot with
          | Some { name; _ } ->
              if not (S.valid_name name) then
                err "snapshot slot %d: invalid name %S" slot name
              else if Hashtbl.mem snap_names name then
                err "snapshot slot %d: duplicate name %S" slot name
              else Hashtbl.replace snap_names name ()
          | None -> err "snapshot slot %d: committed but undecodable" slot)
    | 0 ->
        if not (S.Slot.is_free dev ~slot) then
          err "snapshot slot %d: allocated but uncommitted after mount" slot
    | st -> err "snapshot slot %d: impossible state word %d" slot st
  done;

  List.rev !errs

(* {1 Pre-recovery invariant check} *)

type raw_dentry = {
  rw_dir : int;
  rw_page : int;
  rw_slot : int;
  rw_ino : int;
  rw_rptr : int;
  rw_name : string;
}

let check_raw_body dev (geo : Geometry.t) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let dec = Scan.decode dev geo in
  let inodes : (int, R.Inode.t) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun k ino ->
      let r = dec.inodes.(k) in
      if r.ino = ino then Hashtbl.replace inodes ino r)
    dec.inos;
  let pages_of : (int, (R.Desc.page_kind * int) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  (* committed COW replacements supersede the pages they point at (an
     undecodable descriptor reads as ino 0 and owns nothing) *)
  let superseded : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun { R.Desc.ino; replaces; _ } ->
      if ino <> 0 && replaces <> 0 && replaces - 1 < geo.page_count then
        Hashtbl.replace superseded (replaces - 1) ())
    dec.descs;
  Array.iteri
    (fun k page ->
      match dec.descs.(k) with
      | { ino; kind; offset; replaces = _ }
        when ino <> 0 && not (Hashtbl.mem superseded page) ->
          if not (Hashtbl.mem inodes ino) then
            err "page %d: backpointer to uninitialized inode %d" page ino
          else begin
            let l =
              match Hashtbl.find_opt pages_of ino with
              | Some l -> l
              | None ->
                  let l = ref [] in
                  Hashtbl.replace pages_of ino l;
                  l
            in
            l := (kind, offset) :: !l
          end
      | _ -> ())
    dec.pages;
  (* dentries: every directory page's, superseded or not *)
  let raw = ref [] in
  Array.iteri
    (fun k page ->
      match dec.descs.(k) with
      | { ino = dir; kind = R.Desc.Dirpage; _ } when dir <> 0 ->
          Scan.iter_dentries dec ~page (fun j ->
              if dec.dent_inos.(j) <> 0 || dec.dent_rptrs.(j) <> 0 then
                raw :=
                  {
                    rw_dir = dir;
                    rw_page = page;
                    rw_slot = dec.dent_slots.(j);
                    rw_ino = dec.dent_inos.(j);
                    rw_rptr = dec.dent_rptrs.(j);
                    rw_name = dec.dent_names.(j);
                  }
                  :: !raw)
      | _ -> ())
    dec.pages;
  let raw = !raw in
  (* rename-pointer discipline: at most one pointer per target, no
     cycles; a committed destination's source is logically dead *)
  let killed : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let rptr_targets : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun d ->
      if d.rw_rptr <> 0 then
        (* validated before dereferencing: a torn/corrupt pointer must
           produce a report, not an exception *)
        match Geometry.dentry_loc_opt geo d.rw_rptr with
        | None ->
            err "dentry (page %d, slot %d): garbage rename pointer %#x"
              d.rw_page d.rw_slot d.rw_rptr
        | Some (sp, ss) ->
            if Hashtbl.mem rptr_targets (sp, ss) then
              err "dentry (page %d, slot %d) targeted by two rename pointers"
                sp ss;
            Hashtbl.replace rptr_targets (sp, ss) ();
            (if d.rw_ino <> 0 then
               let sbase = Geometry.dentry_off geo ~page:sp ~slot:ss in
               let src_ino = Scan.word dev (sbase + R.Dentry.f_ino) in
               if src_ino = d.rw_ino || src_ino = 0 then
                 Hashtbl.replace killed (sp, ss) ());
            (* cycle: the target points back *)
            List.iter
              (fun d2 ->
                if d2.rw_page = sp && d2.rw_slot = ss && d2.rw_rptr <> 0 then
                  match Geometry.dentry_loc_opt geo d2.rw_rptr with
                  | Some (tp, ts) when tp = d.rw_page && ts = d.rw_slot ->
                      err
                        "rename pointer cycle between (page %d slot %d) and \
                         (page %d slot %d)" d.rw_page d.rw_slot sp ss
                  | Some _ | None -> ())
              raw)
    raw;
  let live =
    List.filter
      (fun d -> d.rw_ino <> 0 && not (Hashtbl.mem killed (d.rw_page, d.rw_slot)))
      raw
  in
  (* rule 1: committed dentries point at initialized inodes *)
  List.iter
    (fun d ->
      match Hashtbl.find_opt inodes d.rw_ino with
      | None ->
          err "dentry %S (page %d slot %d): points at uninitialized inode %d"
            d.rw_name d.rw_page d.rw_slot d.rw_ino
      | Some _ -> ())
    live;
  (* link counts never below live references *)
  let refs = Hashtbl.create 64 in
  let subdirs = Hashtbl.create 64 in
  let bump tbl k n =
    Hashtbl.replace tbl k
      ((match Hashtbl.find_opt tbl k with Some c -> c | None -> 0) + n)
  in
  List.iter
    (fun d ->
      bump refs d.rw_ino 1;
      match Hashtbl.find_opt inodes d.rw_ino with
      | Some r when r.kind = R.Kind.Dir -> bump subdirs d.rw_dir 1
      | Some _ | None -> ())
    live;
  (* sizes of referenced files covered by owned pages at every instant
     (orphans mid-teardown may transiently have size > pages) *)
  Hashtbl.iter
    (fun ino (r : R.Inode.t) ->
      let nrefs =
        match Hashtbl.find_opt refs ino with Some c -> c | None -> 0
      in
      if r.kind <> R.Kind.Dir && r.size > 0 && nrefs > 0 then begin
        let covered = Hashtbl.create 8 in
        (match Hashtbl.find_opt pages_of ino with
        | None -> ()
        | Some l ->
            List.iter
              (function
                | R.Desc.Data, offset -> Hashtbl.replace covered offset ()
                | R.Desc.Dirpage, _ -> ())
              !l);
        let keep =
          min geo.page_count
            ((r.size + Geometry.page_size - 1) / Geometry.page_size)
        in
        for o = 0 to keep - 1 do
          if not (Hashtbl.mem covered o) then
            err "inode %d: size %d beyond owned pages (offset %d missing)"
              ino r.size o
        done
      end)
    inodes;
  Hashtbl.iter
    (fun ino (r : R.Inode.t) ->
      let nrefs =
        match Hashtbl.find_opt refs ino with Some c -> c | None -> 0
      in
      match r.kind with
      | R.Kind.Dir ->
          let nsub =
            match Hashtbl.find_opt subdirs ino with Some c -> c | None -> 0
          in
          let floor = if nrefs > 0 || ino = Geometry.root_ino then 2 + nsub else 0 in
          if r.links < floor then
            err "dir inode %d: links %d below 2 + %d subdirs" ino r.links nsub
      | R.Kind.File | R.Kind.Symlink ->
          if r.links < nrefs then
            err "inode %d: links %d below %d live references" ino r.links
              nrefs)
    inodes;

  (* Snapshot table, at an arbitrary crash point: a nonzero uncommitted
     slot (or a partial intent) is a legal mid-creation remnant recovery
     rolls back, but SSU commit discipline promises that a {e committed}
     slot or intent always carries its full init group — CRC valid, name
     valid, no duplicates. A committed entry failing that is exactly the
     torn-table state the Buggy_snap mutant publishes. *)
  let module S = Layout.Snaptab in
  (match S.Intent.state dev with
  | 0 -> ()
  | 1 ->
      if not (S.Intent.verify dev) then
        err "snapshot intent: committed with CRC mismatch (torn commit)"
  | st -> err "snapshot intent: impossible state word %d" st);
  let snap_names = Hashtbl.create 4 in
  for slot = 0 to S.slots - 1 do
    match S.Slot.state dev ~slot with
    | 0 -> ()
    | 1 -> (
        if not (S.Slot.verify dev ~slot) then
          err "snapshot slot %d: committed with CRC mismatch (torn commit)"
            slot
        else
          match S.Slot.decode dev ~slot with
          | Some { name; _ } ->
              if not (S.valid_name name) then
                err "snapshot slot %d: committed with invalid name %S" slot
                  name
              else if Hashtbl.mem snap_names name then
                err "snapshot slot %d: duplicate committed name %S" slot name
              else Hashtbl.replace snap_names name ()
          | None -> err "snapshot slot %d: committed but undecodable" slot)
    | st -> err "snapshot slot %d: impossible state word %d" slot st
  done;
  List.rev !errs

let check_raw dev (geo : Geometry.t) =
  let module S = Layout.Snaptab in
  if S.Intent.state dev = 1 && S.Intent.verify dev then
    (* A committed rollback intent supersedes everything else on the
       volume: recovery ignores the current (possibly half-restored)
       state and replays the redo log, so no structural invariant needs
       to hold at this crash point. *)
    []
  else check_raw_body dev geo
