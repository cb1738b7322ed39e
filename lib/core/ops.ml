module Device = Pmem.Device
module Geometry = Layout.Geometry
module R = Layout.Records
module Inode = Objects.Inode
module Dentry = Objects.Dentry
module Prange = Objects.Prange

type 'a r = ('a, Vfs.Errno.t) result

let ( let* ) = Result.bind
let ps = Geometry.page_size

(* Inner trace spans: nest the core persistence phase of an operation
   under its VFS span. No-op (one branch) when the device is untraced. *)
let span (ctx : Fsctx.t) name f =
  match Device.tracer ctx.Fsctx.dev with
  | None -> f ()
  | Some _ ->
      Device.emit ctx.Fsctx.dev (Obs.Event.Span_begin name);
      Fun.protect
        ~finally:(fun () ->
          Device.emit ctx.Fsctx.dev (Obs.Event.Span_end name))
        f
let default_mode_file = 0o644
let default_mode_dir = 0o755

let check_name name =
  if String.length name > Geometry.name_max then Error Vfs.Errno.ENAMETOOLONG
  else if not (Vfs.Path.valid_name name) then Error Vfs.Errno.EINVAL
  else Ok ()

(* {1 Creation} *)

let create_file (ctx : Fsctx.t) ~dir ~name =
  span ctx "core.create" @@ fun () ->
  let* () = check_name name in
  let* ih = Inode.alloc ctx in
  let ino = Inode.ino ih in
  match Dentry.alloc ctx ~dir with
  | Error e ->
      Alloc.free_inode ctx.alloc ino;
      Error e
  | Ok dh ->
      (* Group 1: inode init, dentry name, parent times — one fence. *)
      let ih = Inode.init_file ctx ih ~mode:default_mode_file ~uid:0 ~gid:0 in
      let dh = Dentry.set_name ctx dh name in
      let now = Fsctx.now ctx in
      let ph = Inode.get ctx dir in
      let ph = Inode.set_times ctx ph ~mtime:now ~ctime:now () in
      let ih = Inode.flush ctx ih in
      let ph = Inode.flush ctx ph in
      let dh = Dentry.fence ctx (Dentry.flush ctx dh) in
      let ih = Inode.after_fence ctx ih in
      let _ph : (_, _) Inode.t = Inode.after_fence ctx ph in
      (* Group 2: the commit. *)
      let dh, _ih = Dentry.commit ctx dh ~inode:ih in
      let dh = Dentry.fence ctx (Dentry.flush ctx dh) in
      Index.insert_dentry ctx.index ~dir name ~ino (Dentry.loc dh);
      Index.add_file ctx.index ino;
      Ok ino

let mkdir (ctx : Fsctx.t) ~dir ~name =
  span ctx "core.mkdir" @@ fun () ->
  let* () = check_name name in
  let* ih = Inode.alloc ctx in
  let ino = Inode.ino ih in
  match Dentry.alloc ctx ~dir with
  | Error e ->
      Alloc.free_inode ctx.alloc ino;
      Error e
  | Ok dh ->
      (* Group 1 (fig. 3): inode init, dentry name, parent link inc. *)
      let ih = Inode.init_dir ctx ih ~mode:default_mode_dir ~uid:0 ~gid:0 in
      let dh = Dentry.set_name ctx dh name in
      let ph = Inode.get ctx dir in
      let ph = Inode.inc_link ctx ph in
      let ih = Inode.flush ctx ih in
      let ph = Inode.flush ctx ph in
      let dh = Dentry.fence ctx (Dentry.flush ctx dh) in
      let ih = Inode.after_fence ctx ih in
      let ph = Inode.after_fence ctx ph in
      (* Group 2: commit, which requires the parent inc to be durable. *)
      let dh, _ih, _ph = Dentry.commit_dir ctx dh ~inode:ih ~parent:ph in
      let dh = Dentry.fence ctx (Dentry.flush ctx dh) in
      Index.insert_dentry ctx.index ~dir name ~ino (Dentry.loc dh);
      Index.add_dir ctx.index ino;
      Ok ino

let symlink (ctx : Fsctx.t) ~dir ~name ~target =
  span ctx "core.symlink" @@ fun () ->
  let* () = check_name name in
  if String.length target > ps then Error Vfs.Errno.ENAMETOOLONG
  else
    let* ih = Inode.alloc ctx in
    let ino = Inode.ino ih in
    let cleanup e =
      Alloc.free_inode ctx.alloc ino;
      Error e
    in
    match Prange.alloc ctx ~ino ~kind:R.Desc.Data ~offsets:[ 0 ] with
    | Error e -> cleanup e
    | Ok rng -> (
        match Dentry.alloc ctx ~dir with
        | Error e ->
            List.iter
              (fun (p, _) -> Alloc.free_page ctx.alloc p)
              (Prange.pages rng);
            cleanup e
        | Ok dh ->
            (* Group 1: inode init (with size), target page fill, name. *)
            let ih =
              Inode.init_symlink ctx ih ~mode:0o777 ~uid:0 ~gid:0
                ~target_len:(String.length target)
            in
            let rng = Prange.fill ctx rng ~off:0 ~data:target in
            let dh = Dentry.set_name ctx dh name in
            let ih = Inode.flush ctx ih in
            let rng = Prange.flush ctx rng in
            let dh = Dentry.fence ctx (Dentry.flush ctx dh) in
            let ih = Inode.after_fence ctx ih in
            let rng = Prange.after_fence ctx rng in
            (* Group 2: page ownership. *)
            let rng = Prange.set_backptrs ctx rng in
            let rng = Prange.fence ctx (Prange.flush ctx rng) in
            (* Group 3: commit. *)
            let dh, _ih = Dentry.commit ctx dh ~inode:ih in
            let dh = Dentry.fence ctx (Dentry.flush ctx dh) in
            Index.insert_dentry ctx.index ~dir name ~ino (Dentry.loc dh);
            Index.add_file ctx.index ino;
            List.iter
              (fun (p, off) -> Index.add_file_page ctx.index ~ino ~offset:off p)
              (Prange.pages rng);
            Ok ino)

let link (ctx : Fsctx.t) ~dir ~name ~target_ino =
  span ctx "core.link" @@ fun () ->
  let* () = check_name name in
  let* dh = Dentry.alloc ctx ~dir in
  let dh = Dentry.set_name ctx dh name in
  let ih = Inode.get ctx target_ino in
  let ih = Inode.inc_link ctx ih in
  let ih = Inode.flush ctx ih in
  let dh = Dentry.fence ctx (Dentry.flush ctx dh) in
  let ih = Inode.after_fence ctx ih in
  let dh, _ih = Dentry.commit_link ctx dh ~inode:ih in
  let dh = Dentry.fence ctx (Dentry.flush ctx dh) in
  Index.insert_dentry ctx.index ~dir name ~ino:target_ino (Dentry.loc dh);
  Ok ()

(* {1 Anonymous files (O_TMPFILE / linkat)} *)

let tmpfile (ctx : Fsctx.t) =
  span ctx "core.tmpfile" @@ fun () ->
  let* ih = Inode.alloc ctx in
  let ino = Inode.ino ih in
  (* One group: initialize the anonymous inode and make it durable. No
     dentry is ever written, so every crash state either has a free
     inode or an orphan that recovery reclaims (unreachable ⇒ freed). *)
  let ih = Inode.init_file ctx ih ~mode:default_mode_file ~uid:0 ~gid:0 in
  let _ih : (_, _) Inode.t = Inode.fence ctx (Inode.flush ctx ih) in
  Index.add_file ctx.index ino;
  Ok ino

let linkat (ctx : Fsctx.t) ~dir ~name ~ino =
  span ctx "core.linkat" @@ fun () ->
  let* () = check_name name in
  let* dh = Dentry.alloc ctx ~dir in
  (* Group 1: dentry name + parent times — one fence. The inode's init
     group was already fenced by [tmpfile]. *)
  let dh = Dentry.set_name ctx dh name in
  let now = Fsctx.now ctx in
  let ph = Inode.get ctx dir in
  let ph = Inode.set_times ctx ph ~mtime:now ~ctime:now () in
  let ph = Inode.flush ctx ph in
  let dh = Dentry.fence ctx (Dentry.flush ctx dh) in
  let _ph : (_, _) Inode.t = Inode.after_fence ctx ph in
  (* Group 2: the commit, against a re-opened handle on the durably
     initialized anonymous inode — the same (clean, init) shape the
     create commit consumes, so the SSU rules carry over unchanged.
     Links stay at 1 (set by init): the materialized file has exactly
     one name. *)
  let ih = Inode.get_init ctx ino in
  let dh, _ih = Dentry.commit ctx dh ~inode:ih in
  let dh = Dentry.fence ctx (Dentry.flush ctx dh) in
  Index.insert_dentry ctx.index ~dir name ~ino (Dentry.loc dh);
  Ok ()

(* {1 Deletion} *)

(* Free every data page of [ino] and zero its inode. [ih] must carry zero
   links. Deallocation order (soft-updates rule 2): backpointers cleared
   and fenced, descriptors zeroed and fenced, then the inode zeroed. *)
let dealloc_file_chain (ctx : Fsctx.t) ih =
  span ctx "core.dealloc-file" @@ fun () ->
  let ino = Inode.ino ih in
  let pages = Index.file_pages ctx.index ~ino in
  let freed_ev, freed_pages =
    match pages with
    | [] -> (Prange.no_pages_evidence ctx ~ino, [])
    | _ :: _ ->
        let pl = List.map (fun (off, page) -> (page, off)) pages in
        let rng = Prange.get_owned ctx ~ino ~pages:pl in
        let rng = Prange.clear_backptrs ctx rng in
        let rng = Prange.fence ctx (Prange.flush ctx rng) in
        let rng = Prange.dealloc ctx rng in
        let rng = Prange.fence ctx (Prange.flush ctx rng) in
        List.iter
          (fun (off, _) -> Index.remove_file_page ctx.index ~ino ~offset:off)
          pages;
        (Prange.freed_evidence ctx rng, List.map fst pl)
  in
  let ih = Inode.dealloc_file ctx ih ~pages:freed_ev in
  let _ih : (_, _) Inode.t = Inode.fence ctx (Inode.flush ctx ih) in
  Index.remove_file ctx.index ino;
  Alloc.free_inode ctx.alloc ino;
  List.iter (fun p -> Alloc.free_page ctx.alloc p) freed_pages

let unlink (ctx : Fsctx.t) ~dir ~name =
  span ctx "core.unlink" @@ fun () ->
  let* dh = Dentry.get ctx ~dir ~name in
  let ino = Dentry.target_ino ctx dh in
  (* Group 1: invalidate the dentry. *)
  let dh = Dentry.clear_ino ctx dh in
  let dh = Dentry.fence ctx (Dentry.flush ctx dh) in
  let dh, ev = Dentry.cleared_evidence ctx dh in
  (* Group 2: link decrement, parent times, dentry slot reclamation. *)
  let ih = Inode.get ctx ino in
  let ih = Inode.dec_link ctx ih ~cleared:ev in
  let ih = Inode.flush ctx ih in
  let now = Fsctx.now ctx in
  let ph = Inode.get ctx dir in
  let ph = Inode.set_times ctx ph ~mtime:now ~ctime:now () in
  let ph = Inode.flush ctx ph in
  let dh = Dentry.dealloc ctx dh in
  let _dh : (_, _) Dentry.t = Dentry.fence ctx (Dentry.flush ctx dh) in
  let ih = Inode.after_fence ctx ih in
  let _ph : (_, _) Inode.t = Inode.after_fence ctx ph in
  Index.remove_dentry ctx.index ~dir name;
  if Inode.links ctx ih = 0 then dealloc_file_chain ctx ih
  else ignore (Inode.settle_dec ctx ih : (_, _) Inode.t);
  Ok ()

(* Free a directory's dir pages and zero its inode. *)
let dealloc_dir_chain (ctx : Fsctx.t) ~dino ~cleared_ev =
  span ctx "core.dealloc-dir" @@ fun () ->
  let dih = Inode.get ctx dino in
  let pages = Index.dir_pages ctx.index ~dir:dino in
  let freed_ev =
    match pages with
    | [] -> Prange.no_pages_evidence ctx ~ino:dino
    | _ :: _ ->
        let pl = List.mapi (fun i p -> (p, i)) pages in
        let rng = Prange.get_owned ~kind:R.Desc.Dirpage ctx ~ino:dino ~pages:pl in
        let rng = Prange.clear_backptrs ctx rng in
        let rng = Prange.fence ctx (Prange.flush ctx rng) in
        let rng = Prange.dealloc ctx rng in
        let rng = Prange.fence ctx (Prange.flush ctx rng) in
        Prange.freed_evidence ctx rng
  in
  let dih = Inode.dealloc_dir ctx dih ~cleared:cleared_ev ~pages:freed_ev in
  let _dih : (_, _) Inode.t = Inode.fence ctx (Inode.flush ctx dih) in
  List.iter (fun p -> Index.remove_dir_page ctx.index ~dir:dino p) pages;
  Index.remove_dir ctx.index dino;
  Alloc.free_inode ctx.alloc dino;
  List.iter (fun p -> Alloc.free_page ctx.alloc p) pages

let rmdir (ctx : Fsctx.t) ~parent ~name =
  span ctx "core.rmdir" @@ fun () ->
  let* dh = Dentry.get ctx ~dir:parent ~name in
  let dino = Dentry.target_ino ctx dh in
  if Index.dentry_count ctx.index ~dir:dino > 0 then Error Vfs.Errno.ENOTEMPTY
  else begin
    (* Group 1: invalidate the dentry. *)
    let dh = Dentry.clear_ino ctx dh in
    let dh = Dentry.fence ctx (Dentry.flush ctx dh) in
    let dh, ev_parent = Dentry.cleared_evidence ctx dh in
    let dh, ev_dir = Dentry.cleared_evidence ctx dh in
    (* Group 2: parent loses a subdirectory; reclaim the slot. *)
    let ph = Inode.get ctx parent in
    let ph = Inode.dec_link_parent ctx ph ~cleared:ev_parent in
    let ph = Inode.flush ctx ph in
    let dh = Dentry.dealloc ctx dh in
    let _dh : (_, _) Dentry.t = Dentry.fence ctx (Dentry.flush ctx dh) in
    let ph = Inode.after_fence ctx ph in
    ignore (Inode.settle_dec ctx ph : (_, _) Inode.t);
    Index.remove_dentry ctx.index ~dir:parent name;
    (* Groups 3..: free the directory's pages, then its inode. *)
    dealloc_dir_chain ctx ~dino ~cleared_ev:ev_dir;
    Ok ()
  end

(* {1 Rename (fig. 2)} *)

let rename (ctx : Fsctx.t) ~src_dir ~src_name ~dst_dir ~dst_name =
  span ctx "core.rename" @@ fun () ->
  let* () = check_name dst_name in
  let* sdh = Dentry.get ctx ~dir:src_dir ~name:src_name in
  let sino = Dentry.target_ino ctx sdh in
  let moving_dir = Index.is_dir ctx.index sino in
  let cross_parent = src_dir <> dst_dir in
  let existing_dst = Index.lookup ctx.index ~dir:dst_dir dst_name in
  let old_ino = match existing_dst with Some (i, _) -> i | None -> 0 in
  let old_is_dir = old_ino <> 0 && Index.is_dir ctx.index old_ino in
  (* Phase 1-3: prepare dst, set the rename pointer, commit (atomic pt). *)
  let* ddh_renamed, sdh =
    match existing_dst with
    | None ->
        let* ddh = Dentry.alloc ctx ~dir:dst_dir in
        let ddh = Dentry.set_name ctx ddh dst_name in
        if moving_dir && cross_parent then begin
          (* new parent gains a subdirectory: inc before the commit *)
          let nph = Inode.get ctx dst_dir in
          let nph = Inode.inc_link ctx nph in
          let nph = Inode.flush ctx nph in
          let ddh = Dentry.fence ctx (Dentry.flush ctx ddh) in
          let nph = Inode.after_fence ctx nph in
          let ddh, sdh = Dentry.set_rptr ctx ddh ~src:sdh in
          let ddh = Dentry.fence ctx (Dentry.flush ctx ddh) in
          let ddh, sdh, _nph =
            Dentry.commit_rename_dir ctx ddh ~src:sdh ~newparent:nph
          in
          let ddh = Dentry.fence ctx (Dentry.flush ctx ddh) in
          Ok (ddh, sdh)
        end
        else begin
          let ddh = Dentry.fence ctx (Dentry.flush ctx ddh) in
          let ddh, sdh = Dentry.set_rptr ctx ddh ~src:sdh in
          let ddh = Dentry.fence ctx (Dentry.flush ctx ddh) in
          let ddh, sdh = Dentry.commit_rename ctx ddh ~src:sdh in
          let ddh = Dentry.fence ctx (Dentry.flush ctx ddh) in
          Ok (ddh, sdh)
        end
    | Some _ ->
        let* ddh = Dentry.get ctx ~dir:dst_dir ~name:dst_name in
        let ddh, sdh = Dentry.set_rptr_over ctx ddh ~src:sdh in
        let ddh = Dentry.fence ctx (Dentry.flush ctx ddh) in
        let ddh, sdh = Dentry.commit_rename_over ctx ddh ~src:sdh in
        let ddh = Dentry.fence ctx (Dentry.flush ctx ddh) in
        Ok (ddh, sdh)
  in
  let ddh, replaced_ev = Dentry.replaced_evidence ctx ddh_renamed in
  (* Replacing a directory destination removes a subdirectory from the
     destination parent. A cross-parent directory move onto an existing
     directory is net zero for the new parent (one subdir replaced by
     another), so only the same-parent case decrements here. *)
  let ddh, parent_dec_ev =
    if old_is_dir && not cross_parent then Dentry.replaced_evidence ctx ddh
    else (ddh, None)
  in
  (* Phase 4: physically invalidate src. *)
  let sdh = Dentry.clear_ino_doomed ctx sdh in
  let sdh = Dentry.fence ctx (Dentry.flush ctx sdh) in
  (* Phase 5 (one fence): clear the rename pointer; decrement the replaced
     target's link; decrement the old parent's link for directory moves. *)
  let pending_old_file =
    match replaced_ev with
    | Some ev when not old_is_dir ->
        let oih = Inode.get ctx old_ino in
        let oih = Inode.dec_link ctx oih ~cleared:ev in
        Some (Inode.flush ctx oih)
    | Some _ | None -> None
  in
  let dir_overwrite_ev =
    match replaced_ev with Some ev when old_is_dir -> Some ev | _ -> None
  in
  let ddh, sdh = Dentry.clear_rptr ctx ~dst:ddh ~src:sdh in
  let sdh, old_parent_pending =
    if moving_dir && cross_parent then begin
      let sdh, pev = Dentry.cleared_evidence ctx sdh in
      let oph = Inode.get ctx src_dir in
      let oph = Inode.dec_link_parent ctx oph ~cleared:pev in
      (sdh, Some (Inode.flush ctx oph))
    end
    else
      match parent_dec_ev with
      | Some ev ->
          let oph = Inode.get ctx dst_dir in
          let oph = Inode.dec_link_parent ctx oph ~cleared:ev in
          (sdh, Some (Inode.flush ctx oph))
      | None -> (sdh, None)
  in
  let ddh = Dentry.fence ctx (Dentry.flush ctx ddh) in
  let pending_old_file =
    Option.map (fun oih -> Inode.after_fence ctx oih) pending_old_file
  in
  (match old_parent_pending with
  | Some oph ->
      let oph = Inode.after_fence ctx oph in
      ignore (Inode.settle_dec ctx oph : (_, _) Inode.t)
  | None -> ());
  (* Phase 6: reclaim the src slot. *)
  let sdh = Dentry.dealloc ctx sdh in
  let _sdh : (_, _) Dentry.t = Dentry.fence ctx (Dentry.flush ctx sdh) in
  (* Volatile indexes. *)
  Index.remove_dentry ctx.index ~dir:src_dir src_name;
  (match existing_dst with
  | Some _ -> Index.remove_dentry ctx.index ~dir:dst_dir dst_name
  | None -> ());
  Index.insert_dentry ctx.index ~dir:dst_dir dst_name ~ino:sino
    (Dentry.loc ddh);
  (* Replaced target teardown. *)
  (match pending_old_file with
  | Some oih ->
      if Inode.links ctx oih = 0 then dealloc_file_chain ctx oih
      else ignore (Inode.settle_dec ctx oih : (_, _) Inode.t)
  | None -> ());
  (match dir_overwrite_ev with
  | Some ev -> dealloc_dir_chain ctx ~dino:old_ino ~cleared_ev:ev
  | None -> ());
  Ok ()

(* {1 Data plane} *)

let page_units size = (size + ps - 1) / ps

(* No file outgrows the volume: a size or a write end past every data
   page is ENOSPC before any store. [fits] compares without overflow, so
   an end near [max_int] cannot wrap into range. *)
let fits (ctx : Fsctx.t) ~off ~len = len <= (ctx.geo.page_count * ps) - off

(* Operations on a quarantined object (metadata known corrupt, see
   {!Mount}) fail cleanly with [EIO] instead of trusting its records. *)
let quarantined (ctx : Fsctx.t) ino = Faults.Quarantine.mem_ino ctx.quar ino

(* File-page lookups: the index, or an open handle's extent snapshot. *)
let index_page (ctx : Fsctx.t) ~ino o = Index.file_page ctx.index ~ino ~offset:o
let extent_page ext o =
  if o < Array.length ext && ext.(o) >= 0 then Some ext.(o) else None

exception Media_eio

(* A transient device read error is retried once; a persistent one
   surfaces as a clean [EIO] result, never as an exception. *)
let read_retry dev ~off ~len buf pos =
  try Device.read_into dev ~off ~len buf pos
  with Device.Media_error _ -> (
    try Device.read_into dev ~off ~len buf pos
    with Device.Media_error _ -> raise Media_eio)

(* Assemble [len] file bytes from [off] in one buffer: each owned page
   ([page_of] the file-page offset, or [None]) is read into place and each
   hole is zeroed there. The buffer is returned without a copy. *)
let read_pages (ctx : Fsctx.t) ~page_of ~off ~len =
  let buf = Bytes.create len in
  try
    let pos = ref off in
    while !pos < off + len do
      let in_page = !pos mod ps in
      let chunk = min (ps - in_page) (off + len - !pos) in
      (match page_of (!pos / ps) with
      | Some page ->
          read_retry ctx.dev
            ~off:(Geometry.page_off ctx.geo ~page + in_page)
            ~len:chunk buf (!pos - off)
      | None -> Bytes.fill buf (!pos - off) chunk '\000');
      pos := !pos + chunk
    done;
    Ok (Bytes.unsafe_to_string buf)
  with Media_eio -> Error Vfs.Errno.EIO

let read (ctx : Fsctx.t) ~ino ~off ~len =
  if off < 0 || len < 0 then Error Vfs.Errno.EINVAL
  else if quarantined ctx ino then Error Vfs.Errno.EIO
  else begin
    let ih = Inode.get ctx ino in
    let size = Inode.size ctx ih in
    if off >= size then Ok ""
    else
      read_pages ctx ~off ~len:(min len (size - off))
        ~page_of:(index_page ctx ~ino)
  end

let readlink (ctx : Fsctx.t) ~ino = read ctx ~ino ~off:0 ~len:ps

(* File-page offsets in [from, upto] that [page_of] finds no page for,
   ascending. *)
let missing_pages ~page_of ~from ~upto =
  let missing = ref [] in
  for o = upto downto from do
    if page_of o = None then missing := o :: !missing
  done;
  !missing

(* Zero the stale bytes a shrink may have left past the size: those of
   the page holding byte [size], from [size] up to [upto]. *)
let zero_stale_tail (ctx : Fsctx.t) ~page_of ~size ~upto =
  if size mod ps <> 0 then
    match page_of (size / ps) with
    | None -> ()
    | Some page ->
        let in_page = size mod ps in
        Device.zero ctx.dev
          ~off:(Geometry.page_off ctx.geo ~page + in_page)
          ~len:(min (ps - in_page) (upto - size))

(* Commit a freshly filled range: make the pages durably owned and mint
   the evidence that unlocks the size store. This is the SplitFS-style
   relink — backpointers set in the same flush+fence group as the fill,
   one fence total (see {!Prange.relink} for the crash argument). *)
let commit_fresh (ctx : Fsctx.t) rng =
  let rng = Prange.relink ctx rng in
  let rng = Prange.fence ctx (Prange.flush ctx rng) in
  Prange.owned_evidence ctx rng

module Preplace = Objects.Preplace

(* Copy-on-write page replacement path for crash-atomic data updates. *)
let replace_page (ctx : Fsctx.t) ~ino ~offset ~old_page ~content =
  match Preplace.stage ctx ~ino ~offset ~old_page ~content with
  | Error e -> Error e
  | Ok h ->
      let h = Preplace.fence ctx (Preplace.flush ctx h) in
      let h = Preplace.commit ctx h in
      let h = Preplace.fence ctx (Preplace.flush ctx h) in
      (* the atomic point has passed: tear down the superseded page *)
      let h = Preplace.clear_old ctx h in
      let h = Preplace.fence ctx (Preplace.flush ctx h) in
      let h = Preplace.free_old ctx h in
      let h = Preplace.fence ctx (Preplace.flush ctx h) in
      let h = Preplace.settle ctx h in
      let h = Preplace.fence ctx (Preplace.flush ctx h) in
      Index.remove_file_page ctx.index ~ino ~offset;
      Index.add_file_page ctx.index ~ino ~offset (Preplace.new_page h);
      Alloc.free_page ctx.alloc (Preplace.old_page h);
      Ok ()

(* Allocator cost charged when an open handle's staging reserve has to
   be topped up (same constant {!Prange.alloc} charges); steady-state
   appends skip it. *)
let stage_alloc_ns = 150
let reserve_batch = 8

(* Pop [n] staging pages from the handle's reserve, topping it up from
   the volatile allocator in batches of [reserve_batch] so steady-state
   appends never touch the allocator. [None] = ENOSPC (nothing taken). *)
let stage_pages (ctx : Fsctx.t) (e : Fsctx.oft_entry) n =
  if n = 0 then Some []
  else begin
    let have = List.length e.Fsctx.oh_reserve in
    let ok =
      have >= n
      || begin
           Device.charge ctx.dev stage_alloc_ns;
           match Alloc.alloc_pages ctx.alloc (n - have + reserve_batch) with
           | Some pl ->
               e.Fsctx.oh_reserve <- e.Fsctx.oh_reserve @ pl;
               true
           | None -> (
               (* batch won't fit; take exactly what this write needs *)
               match Alloc.alloc_pages ctx.alloc (n - have) with
               | Some pl ->
                   e.Fsctx.oh_reserve <- e.Fsctx.oh_reserve @ pl;
                   true
               | None -> false)
         end
    in
    if not ok then None
    else begin
      let rec take k acc rest =
        if k = 0 then (List.rev acc, rest)
        else
          match rest with
          | [] -> assert false
          | p :: tl -> take (k - 1) (p :: acc) tl
      in
      let taken, rest = take n [] e.Fsctx.oh_reserve in
      e.Fsctx.oh_reserve <- rest;
      Some taken
    end
  end

(* Where a write's fresh pages come from: the volatile allocator, or an
   open handle's staging reserve. *)
type fresh = Allocator | Reserve of Fsctx.oft_entry

(* How a write overwrites a page the file already owns: with coarse
   stores in place, or by a copy-on-write {!replace_page}, which makes
   that page's update crash-atomic. *)
type overwrite = In_place | Cow

(* Take the fresh pages for the file-page offsets [missing], or fail
   with ENOSPC having taken none. From the allocator, [spare] more pages
   must be free as well, for the COW replacements that follow. *)
let take_fresh (ctx : Fsctx.t) ~ino ~fresh ~spare missing =
  match fresh with
  | Reserve e -> (
      match stage_pages ctx e (List.length missing) with
      | None -> Error Vfs.Errno.ENOSPC
      | Some [] -> Ok None
      | Some pages ->
          let pages = List.combine pages missing in
          Ok (Some (Prange.adopt ctx ~ino ~kind:R.Desc.Data ~pages)))
  | Allocator
    when List.length missing + spare > Alloc.free_page_count ctx.alloc ->
      Error Vfs.Errno.ENOSPC
  | Allocator -> (
      match missing with
      | [] -> Ok None
      | _ :: _ -> (
          (* another domain may allocate between the count and this
             call: losing that race must store nothing *)
          match Prange.alloc ctx ~ino ~kind:R.Desc.Data ~offsets:missing with
          | Ok rng -> Ok (Some rng)
          | Error _ -> Error Vfs.Errno.ENOSPC))

(* Overwrite the owned file page [o], at [page], with the bytes of a
   write of [data] at [off] that fall in it. A COW buffer also zeroes the
   stale bytes between [size] and the write, when [o] holds both. *)
let overwrite_page (ctx : Fsctx.t) ~ino ~overwrite ~size ~off data o page =
  let pstart = o * ps in
  let lo = max pstart off and hi = min (pstart + ps) (off + String.length data) in
  match overwrite with
  | In_place ->
      Device.store_coarse ctx.dev
        ~off:(Geometry.page_off ctx.geo ~page + (lo - pstart))
        ~pos:(lo - off) ~len:(hi - lo) data;
      Ok ()
  | Cow ->
      (* the fresh buffer [Device.read] returns is patched and handed
         over as the page's content: nothing else holds it *)
      let buf =
        Device.read ctx.dev ~off:(Geometry.page_off ctx.geo ~page) ~len:ps
      in
      if pstart <= size && size < lo then
        Bytes.fill buf (size - pstart) (lo - size) '\000';
      Bytes.blit_string data (lo - off) buf (lo - pstart) (hi - lo);
      replace_page ctx ~ino ~offset:o ~old_page:page
        ~content:(Bytes.unsafe_to_string buf)

(* The one write body behind [write], [write_atomic] and [write_h]
   ([page_of] finds a page the file owns):
   - take every fresh page the write needs before the first store, so
     an ENOSPC leaves the volume untouched;
   - zero the old boundary page's stale bytes between the size and a
     write past EOF;
   - overwrite the owned pages;
   - fill the fresh pages and commit them in one relink group
     ({!commit_fresh});
   - publish the size, gated on the ownership evidence, in the final
     inode group.
   The coarse data stores drain in that last group, so an in-place
   write issues one fence and an extending write two. *)
let write_pages (ctx : Fsctx.t) ~ino ~page_of ~fresh ~overwrite ~off data =
  if quarantined ctx ino then Error Vfs.Errno.EIO
  else if String.length data = 0 then Ok 0
  else if not (fits ctx ~off ~len:(String.length data)) then
    Error Vfs.Errno.ENOSPC
  else
    let len = String.length data in
    let ih = Inode.get ctx ino in
    let cur_size = Inode.size ctx ih in
    let first = off / ps and last = (off + len - 1) / ps in
    (* Only the write range and the gap above the size can lack pages:
       everything below the size is owned by invariant. *)
    let scan_from = min first (page_units cur_size) in
    let missing = missing_pages ~page_of ~from:scan_from ~upto:last in
    (* a COW overwrite takes one replacement page per owned page *)
    let spare =
      match overwrite with
      | In_place -> 0
      | Cow -> last - scan_from + 1 - List.length missing
    in
    match take_fresh ctx ~ino ~fresh ~spare missing with
    | Error e -> Error e
    | Ok rng -> (
        (* The stale tail is zeroed in place, or, when a COW overwrite
           replaces the boundary page, in the replacement's buffer. *)
        if off > cur_size && not (overwrite = Cow && cur_size / ps = first)
        then zero_stale_tail ctx ~page_of ~size:cur_size ~upto:off;
        let overwritten = ref (Ok ()) in
        for o = first to last do
          match page_of o with
          | Some page when Result.is_ok !overwritten ->
              overwritten :=
                overwrite_page ctx ~ino ~overwrite ~size:cur_size ~off data o page
          | Some _ | None -> ()
        done;
        match !overwritten with
        | Error e ->
            (* only a COW replacement fails (an ENOSPC race lost to
               another domain); the fresh pages hold no stores yet *)
            let pages = match rng with Some r -> Prange.pages r | None -> [] in
            List.iter (fun (p, _) -> Alloc.free_page ctx.alloc p) pages;
            Error e
        | Ok () ->
            let owned_ev, new_pages =
              match rng with
              | None -> (None, [])
              | Some r ->
                  let r, ev = commit_fresh ctx (Prange.fill ctx r ~off ~data) in
                  (Some ev, Prange.pages r)
            in
            let new_size = max cur_size (off + len) in
            let now = Fsctx.now ctx in
            let ih =
              if new_size > cur_size || owned_ev <> None then
                Inode.set_size ctx ih ~size:new_size ~mtime:now ~owned:owned_ev ()
              else Inode.set_times ctx ih ~mtime:now ()
            in
            let _ih : (_, _) Inode.t = Inode.fence ctx (Inode.flush ctx ih) in
            List.iter
              (fun (page, o) -> Index.add_file_page ctx.index ~ino ~offset:o page)
              new_pages;
            (match fresh with
            | Reserve e when new_pages <> [] -> Fsctx.oft_resync ctx e
            | Reserve _ | Allocator -> ());
            Ok len)

let write (ctx : Fsctx.t) ~ino ~off data =
  span ctx "core.write" @@ fun () ->
  if off < 0 then Error Vfs.Errno.EINVAL
  else
    write_pages ctx ~ino ~page_of:(index_page ctx ~ino) ~fresh:Allocator
      ~overwrite:In_place ~off data

let write_atomic (ctx : Fsctx.t) ~ino ~off data =
  if off < 0 then Error Vfs.Errno.EINVAL
  else
    write_pages ctx ~ino ~page_of:(index_page ctx ~ino) ~fresh:Allocator
      ~overwrite:Cow ~off data

let truncate (ctx : Fsctx.t) ~ino new_size =
  span ctx "core.truncate" @@ fun () ->
  if new_size < 0 then Error Vfs.Errno.EINVAL
  else if quarantined ctx ino then Error Vfs.Errno.EIO
  else if not (fits ctx ~off:0 ~len:new_size) then Error Vfs.Errno.ENOSPC
  else begin
    let ih = Inode.get ctx ino in
    let cur_size = Inode.size ctx ih in
    let now = Fsctx.now ctx in
    if new_size = cur_size then begin
      let ih = Inode.set_times ctx ih ~mtime:now () in
      let _ih : (_, _) Inode.t = Inode.fence ctx (Inode.flush ctx ih) in
      Ok ()
    end
    else if new_size < cur_size then begin
      (* Shrink: size first (visible), then reclaim dropped pages. *)
      let ih = Inode.set_size ctx ih ~size:new_size ~mtime:now ~owned:None () in
      let _ih : (_, _) Inode.t = Inode.fence ctx (Inode.flush ctx ih) in
      let keep = page_units new_size in
      let dropped =
        List.filter (fun (o, _) -> o >= keep) (Index.file_pages ctx.index ~ino)
      in
      (match dropped with
      | [] -> ()
      | _ :: _ ->
          let pl = List.map (fun (o, p) -> (p, o)) dropped in
          let rng = Prange.get_owned ctx ~ino ~pages:pl in
          let rng = Prange.clear_backptrs ctx rng in
          let rng = Prange.fence ctx (Prange.flush ctx rng) in
          let rng = Prange.dealloc ctx rng in
          let rng = Prange.fence ctx (Prange.flush ctx rng) in
          ignore (Prange.freed_evidence ctx rng : Objects.range_freed_ev);
          List.iter
            (fun (o, p) ->
              Index.remove_file_page ctx.index ~ino ~offset:o;
              Alloc.free_page ctx.alloc p)
            dropped);
      Ok ()
    end
    else begin
      (* Grow: zero the stale tail of the current boundary page, allocate
         zero pages for the new range, then publish the size. *)
      let page_of = index_page ctx ~ino in
      zero_stale_tail ctx ~page_of ~size:cur_size ~upto:new_size;
      let missing =
        missing_pages ~page_of ~from:(page_units cur_size)
          ~upto:(page_units new_size - 1)
      in
      let* owned_ev, new_pages =
        match missing with
        | [] ->
            (* the zeroed tail drains before the size store *)
            Fsctx.fence ctx;
            Ok (None, [])
        | _ :: _ ->
            let* rng = Prange.alloc ctx ~ino ~kind:R.Desc.Data ~offsets:missing in
            let rng = Prange.fill ctx rng ~off:0 ~data:"" in
            let rng = Prange.fence ctx (Prange.flush ctx rng) in
            let rng = Prange.set_backptrs ctx rng in
            let rng = Prange.fence ctx (Prange.flush ctx rng) in
            let rng, ev = Prange.owned_evidence ctx rng in
            Ok (Some ev, Prange.pages rng)
      in
      let ih =
        Inode.set_size ctx ih ~size:new_size ~mtime:now ~owned:owned_ev ()
      in
      let _ih : (_, _) Inode.t = Inode.fence ctx (Inode.flush ctx ih) in
      List.iter
        (fun (page, o) -> Index.add_file_page ctx.index ~ino ~offset:o page)
        new_pages;
      Ok ()
    end
  end

(* {1 Split data path (open handles)}

   The SplitFS-style fast path: an open handle carries a dense extent
   snapshot ({!Fsctx.oft_entry}), so reads and writes do straight device
   copies with no path resolution and no per-page index queries, and
   appends land in the handle's pre-allocated staging reserve
   ({!stage_pages}) and commit via the relink group. The snapshot is
   kept coherent by the index's per-ino version counter; the staging
   reserve is volatile (descriptors zero), so a crash simply returns it
   through the allocator rebuild. *)

let read_h (ctx : Fsctx.t) ~tag ~off ~len =
  if off < 0 || len < 0 then Error Vfs.Errno.EINVAL
  else
    let* e = Fsctx.oft_entry ctx tag in
    let ino = e.Fsctx.oh_ino in
    if quarantined ctx ino then Error Vfs.Errno.EIO
    else begin
      let ih = Inode.get ctx ino in
      let size = Inode.size ctx ih in
      if off >= size then Ok ""
      else
        read_pages ctx ~off ~len:(min len (size - off))
          ~page_of:(extent_page e.Fsctx.oh_extents)
    end

let write_h (ctx : Fsctx.t) ~tag ~off data =
  span ctx "core.write_h" @@ fun () ->
  if off < 0 then Error Vfs.Errno.EINVAL
  else
    let* e = Fsctx.oft_entry ctx tag in
    write_pages ctx ~ino:e.Fsctx.oh_ino ~page_of:(extent_page e.Fsctx.oh_extents)
      ~fresh:(Reserve e) ~overwrite:In_place ~off data
