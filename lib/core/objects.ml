module Device = Pmem.Device
module Token = Typestate.Token
module Geometry = Layout.Geometry
module R = Layout.Records

(* Evidence values are unforgeable outside this compilation unit (their
   constructors are not exported) and single-use (the [used] flag). *)
type dentry_cleared_ev = {
  target_ino : int; (* the inode the dentry pointed at *)
  parent_dir : int; (* the directory the dentry lived in *)
  mutable dc_used : bool;
}

type range_owned_ev = {
  ro_ino : int;
  ro_pages : (int * int) list;
  mutable ro_used : bool;
}

type range_freed_ev = { rf_ino : int; mutable rf_used : bool }

let consume_dc ev =
  if ev.dc_used then failwith "Objects: dentry_cleared evidence reused";
  ev.dc_used <- true

let consume_ro ev =
  if ev.ro_used then failwith "Objects: range_owned evidence reused";
  ev.ro_used <- true

let consume_rf ev =
  if ev.rf_used then failwith "Objects: range_freed evidence reused";
  ev.rf_used <- true

(* The persistence typestate (dirty -> in_flight -> clean), written once:
   each object kind supplies only [ranges ctx h], the (offset, length)
   byte ranges handle [h] covers, and both steps consume the handle's
   token and return its successor. [flushed] writes the ranges back and
   records the flush epoch. [fenced ~sfence:true] ([fence]) runs the
   sfence itself; [~sfence:false] ([after_fence]) relies on one run
   through another handle since the flush — the paper's fence sharing —
   unless the [share_fences] ablation is off. Either way a fence must have
   followed the flush, or the token raises [Stale_handle]. Untraced
   runs compute a handle's ranges once, at the flush. *)

(* a loop: [List.iter] would allocate a closure over [dev] per flush *)
let rec flush_each dev = function
  | [] -> ()
  | (off, len) :: rest ->
      Device.flush dev ~off ~len;
      flush_each dev rest

let flushed (ctx : Fsctx.t) ranges h tok =
  flush_each ctx.dev (ranges ctx h);
  Token.flushed_at ctx.reg tok

(* Mirror the [in_flight -> clean] claim into the trace (if one is
   attached), so the trace-driven checker can re-verify it dynamically:
   every covered line must actually be drained. *)
let claim (ctx : Fsctx.t) what ranges h =
  match Device.tracer ctx.dev with
  | None -> ()
  | Some _ ->
      List.iter
        (fun (off, len) ->
          Device.emit ctx.dev (Obs.Event.Claim_clean { what; off; len }))
        (ranges ctx h)

let fenced ~sfence (ctx : Fsctx.t) what ranges h tok =
  if sfence || not ctx.share_fences then Fsctx.fence ctx;
  let tok = Token.assert_fenced ctx.reg tok in
  claim ctx what ranges h;
  tok

(* Fill the fresh page at device offset [poff]: [len] bytes of [src] from
   [pos] behind [lead] explicit zeroes, then zeroes to the page end. *)
let fill_page (ctx : Fsctx.t) ~poff ~lead ~pos ~len src =
  let stored =
    if len <= 0 then 0
    else begin
      Device.store_coarse ctx.dev ~off:poff ~lead ~pos ~len src;
      lead + len
    end
  in
  if stored < Geometry.page_size then
    Device.zero ctx.dev ~off:(poff + stored) ~len:(Geometry.page_size - stored)

(* NOTE on typing: transition functions rebuild the handle record from
   scratch ([remake]) rather than using [{ h with ... }], because a record
   update would unify the result's phantom parameters with the input's.
   The module signature (objects.mli) then pins each transition to its
   legal source and target states — also where two names share one body
   ([let relink = set_backptrs]), each typed at its own states. *)

module Prange = struct
  type free = |
  type dataful = |
  type owned = |
  type cleared = |
  type freed = |

  type ('p, 's) t = {
    rid : int;
    r_ino : int;
    kind : R.Desc.page_kind;
    r_pages : (int * int) list; (* (page, file-page-offset) *)
    tok : Token.t;
  }

  let pages h = h.r_pages
  let ino h = h.r_ino

  let remake h tok =
    { rid = h.rid; r_ino = h.r_ino; kind = h.kind; r_pages = h.r_pages; tok }

  let mk (ctx : Fsctx.t) ~ino ~kind ~pages =
    let rid = Fsctx.range_oid ctx in
    { rid; r_ino = ino; kind; r_pages = pages; tok = Token.fresh ctx.reg ~id:rid }

  (* CPU cost of the volatile allocators (free-list pop + bookkeeping) *)
  let alloc_ns = 150

  let alloc (ctx : Fsctx.t) ~ino ~kind ~offsets =
    let n = List.length offsets in
    Device.charge ctx.dev alloc_ns;
    match Alloc.alloc_pages ctx.alloc n with
    | None -> Error Vfs.Errno.ENOSPC
    | Some ps -> Ok (mk ctx ~ino ~kind ~pages:(List.combine ps offsets))

  (* Handle on pages taken from the allocator earlier (an open handle's
     pre-allocated staging reserve): device-side they are identical to
     freshly allocated pages — descriptor fully zero — so the handle
     starts in the same [free] state [alloc] produces. *)
  let adopt = mk

  let fill (ctx : Fsctx.t) h ~off ~data =
    let tok = Token.use ctx.reg h.tok in
    let ps = Geometry.page_size in
    List.iter
      (fun (page, file_off) ->
        (* The page holds [data]'s bytes in [lo, hi). *)
        let pstart = file_off * ps in
        let lo = max pstart off
        and hi = min (pstart + ps) (off + String.length data) in
        fill_page ctx
          ~poff:(Geometry.page_off ctx.geo ~page)
          ~lead:(lo - pstart) ~pos:(lo - off) ~len:(hi - lo) data;
        let d = Geometry.desc_off ctx.geo ~page in
        Device.store_u64 ctx.dev (d + R.Desc.f_kind) (R.Desc.kind_to_int h.kind);
        Device.store_u64 ctx.dev (d + R.Desc.f_offset) file_off;
        if ctx.csum then R.Desc.seal ctx.dev ~base:d)
      h.r_pages;
    remake h tok

  let store_backptrs (ctx : Fsctx.t) h v =
    let tok = Token.use ctx.reg h.tok in
    List.iter
      (fun (page, _) ->
        let d = Geometry.desc_off ctx.geo ~page in
        Device.store_u64 ctx.dev (d + R.Desc.f_ino) v)
      h.r_pages;
    remake h tok

  let set_backptrs ctx h = store_backptrs ctx h h.r_ino

  (* SplitFS-style relink commit: set the backpointers while the fill's
     descriptor stores are still dirty, so one flush+fence group makes
     fill and ownership durable together. Crash-safe because each 64-byte
     descriptor is one cache line and the device persists a line's stores
     in order: if a crash image shows [f_ino] (stored last), the kind and
     offset stored before it on the same line are present too — a page
     can never be reachable with a torn descriptor. A crash before the
     fence leaves at worst dataful-but-unowned descriptors, which
     recovery reclaims as garbage. The SSU store rules permit this: no
     rule orders descriptor fields against each other at store time, and
     the [owned] evidence that gates the size store is still only
     mintable from the post-fence [clean] handle. *)
  let relink = set_backptrs

  let get_owned ?(kind = R.Desc.Data) (ctx : Fsctx.t) ~ino ~pages =
    List.iter
      (fun (page, _) ->
        let d = Geometry.desc_off ctx.geo ~page in
        let owner = Device.read_u64 ctx.dev (d + R.Desc.f_ino) in
        if owner <> ino then
          failwith
            (Printf.sprintf "Prange.get_owned: page %d owned by %d, not %d"
               page owner ino))
      pages;
    mk ctx ~ino ~kind ~pages

  let clear_backptrs ctx h = store_backptrs ctx h 0

  let dealloc (ctx : Fsctx.t) h =
    let tok = Token.use ctx.reg h.tok in
    List.iter
      (fun (page, _) ->
        let d = Geometry.desc_off ctx.geo ~page in
        Device.zero ctx.dev ~off:d ~len:Geometry.desc_size)
      h.r_pages;
    remake h tok

  let ranges (ctx : Fsctx.t) h =
    List.map
      (fun (page, _) -> (Geometry.desc_off ctx.geo ~page, Geometry.desc_size))
      h.r_pages

  let flush ctx h = remake h (flushed ctx ranges h h.tok)
  let fence ctx h = remake h (fenced ~sfence:true ctx "prange" ranges h h.tok)
  let after_fence ctx h = remake h (fenced ~sfence:false ctx "prange" ranges h h.tok)

  let owned_evidence (ctx : Fsctx.t) h =
    let h' = remake h (Token.use ctx.reg h.tok) in
    (h', { ro_ino = h.r_ino; ro_pages = h.r_pages; ro_used = false })

  let freed_evidence (ctx : Fsctx.t) h =
    Token.release ctx.reg h.tok;
    { rf_ino = h.r_ino; rf_used = false }

  let no_pages_evidence (ctx : Fsctx.t) ~ino =
    (match Index.file_pages ctx.index ~ino with
    | [] -> ()
    | _ :: _ -> failwith "Prange.no_pages_evidence: inode still owns pages");
    { rf_ino = ino; rf_used = false }
end

module Inode = struct
  type free = |
  type init = |
  type complete = |
  type inc_link = |
  type dec_link = |

  type ('p, 's) t = { i_ino : int; tok : Token.t }

  let ino h = h.i_ino
  let remake h tok = { i_ino = h.i_ino; tok }

  let base ctx h = Geometry.inode_off ctx.Fsctx.geo ~ino:h.i_ino
  let field ctx h f = base ctx h + f

  let alloc (ctx : Fsctx.t) =
    Device.charge ctx.dev 150;
    match Alloc.alloc_inode ctx.alloc with
    | None -> Error Vfs.Errno.ENOSPC
    | Some ino ->
        Ok { i_ino = ino; tok = Token.mint ctx.reg ~id:(Fsctx.inode_oid ino) }

  let get (ctx : Fsctx.t) ino =
    let b = Geometry.inode_off ctx.geo ~ino in
    if Device.read_u64 ctx.dev (b + R.Inode.f_ino) = 0 then
      failwith (Printf.sprintf "Inode.get: inode %d is free" ino);
    { i_ino = ino; tok = Token.mint ctx.reg ~id:(Fsctx.inode_oid ino) }

  let get_init = get

  let init_common (ctx : Fsctx.t) h ~kind ~links ~mode ~uid ~gid =
    let tok = Token.use ctx.reg h.tok in
    let t = Fsctx.now ctx in
    let put f v = Device.store_u64 ctx.dev (field ctx h f) v in
    put R.Inode.f_kind (R.Kind.to_int kind);
    put R.Inode.f_links links;
    put R.Inode.f_size 0;
    put R.Inode.f_atime t;
    put R.Inode.f_mtime t;
    put R.Inode.f_ctime t;
    put R.Inode.f_mode mode;
    put R.Inode.f_uid uid;
    put R.Inode.f_gid gid;
    put R.Inode.f_ino h.i_ino;
    if ctx.csum then R.Inode.seal ctx.dev ~base:(Geometry.inode_off ctx.geo ~ino:h.i_ino);
    remake h tok

  let init_file ctx h ~mode ~uid ~gid =
    init_common ctx h ~kind:R.Kind.File ~links:1 ~mode ~uid ~gid

  let init_dir ctx h ~mode ~uid ~gid =
    init_common ctx h ~kind:R.Kind.Dir ~links:2 ~mode ~uid ~gid

  let init_symlink ctx h ~mode ~uid ~gid ~target_len =
    let h = init_common ctx h ~kind:R.Kind.Symlink ~links:1 ~mode ~uid ~gid in
    Device.store_u64 ctx.Fsctx.dev (field ctx h R.Inode.f_size) target_len;
    h

  let links (ctx : Fsctx.t) h =
    Token.check ctx.reg h.tok;
    Device.read_u64 ctx.dev (field ctx h R.Inode.f_links)

  let size (ctx : Fsctx.t) h =
    Token.check ctx.reg h.tok;
    Device.read_u64 ctx.dev (field ctx h R.Inode.f_size)

  let inc_link (ctx : Fsctx.t) h =
    let cur = Device.read_u64 ctx.dev (field ctx h R.Inode.f_links) in
    let tok = Token.use ctx.reg h.tok in
    Device.store_u64 ctx.dev (field ctx h R.Inode.f_links) (cur + 1);
    remake h tok

  (* Lower the link count on evidence whose [named] inode (the cleared
     dentry's target, or the directory it lived in) is this handle's. *)
  let drop_link what (ctx : Fsctx.t) h ~named ~cleared =
    if named <> h.i_ino then
      failwith
        (Printf.sprintf "Inode.%s: evidence names inode %d, handle is %d" what
           named h.i_ino);
    consume_dc cleared;
    let cur = Device.read_u64 ctx.dev (field ctx h R.Inode.f_links) in
    if cur = 0 then failwith ("Inode." ^ what ^ ": link count already zero");
    let tok = Token.use ctx.reg h.tok in
    Device.store_u64 ctx.dev (field ctx h R.Inode.f_links) (cur - 1);
    remake h tok

  let dec_link ctx h ~cleared =
    drop_link "dec_link" ctx h ~named:cleared.target_ino ~cleared

  let dec_link_parent ctx h ~cleared =
    drop_link "dec_link_parent" ctx h ~named:cleared.parent_dir ~cleared

  let settle_dec (ctx : Fsctx.t) h = remake h (Token.use ctx.reg h.tok)

  (* The lowest page offset, from [expect] up, that an ascending list of
     offsets lacks. *)
  let rec first_gap expect = function
    | off :: rest when off <= expect ->
        first_gap (if off = expect then expect + 1 else expect) rest
    | _ -> expect

  let set_size (ctx : Fsctx.t) h ~size ?mtime ~owned () =
    (* Every page the new size covers must be durably owned: either already
       indexed or covered by evidence minted after a fence (paper §4.2's
       write-path bug is exactly a violation of this). *)
    let covered = List.rev_map fst (Index.file_pages ctx.index ~ino:h.i_ino) in
    let covered =
      match owned with
      | None -> covered
      | Some ev ->
          if ev.ro_ino <> h.i_ino then
            failwith "Inode.set_size: owned evidence for the wrong inode";
          consume_ro ev;
          List.rev_append (List.rev_map snd ev.ro_pages) covered
    in
    let gap = first_gap 0 (List.sort Int.compare covered) in
    if gap * Geometry.page_size < size then
      failwith
        (Printf.sprintf
           "Inode.set_size: size %d covers unowned page offset %d" size gap);
    let tok = Token.use ctx.reg h.tok in
    Device.store_u64 ctx.dev (field ctx h R.Inode.f_size) size;
    (match mtime with
    | None -> ()
    | Some m -> Device.store_u64 ctx.dev (field ctx h R.Inode.f_mtime) m);
    remake h tok

  let set_times (ctx : Fsctx.t) h ?atime ?mtime ?ctime () =
    let tok = Token.use ctx.reg h.tok in
    let put f = function
      | None -> ()
      | Some v -> Device.store_u64 ctx.dev (field ctx h f) v
    in
    put R.Inode.f_atime atime;
    put R.Inode.f_mtime mtime;
    put R.Inode.f_ctime ctime;
    remake h tok

  let zero_record ctx h =
    Device.zero ctx.Fsctx.dev ~off:(base ctx h) ~len:Geometry.inode_size

  let dealloc_file (ctx : Fsctx.t) h ~pages =
    if pages.rf_ino <> h.i_ino then
      failwith "Inode.dealloc_file: freed evidence for the wrong inode";
    consume_rf pages;
    let cur = Device.read_u64 ctx.dev (field ctx h R.Inode.f_links) in
    if cur <> 0 then
      failwith
        (Printf.sprintf "Inode.dealloc_file: inode %d still has %d links"
           h.i_ino cur);
    let tok = Token.use ctx.reg h.tok in
    zero_record ctx h;
    remake h tok

  let dealloc_dir (ctx : Fsctx.t) h ~cleared ~pages =
    if cleared.target_ino <> h.i_ino then
      failwith "Inode.dealloc_dir: cleared evidence for the wrong inode";
    consume_dc cleared;
    if pages.rf_ino <> h.i_ino then
      failwith "Inode.dealloc_dir: freed evidence for the wrong inode";
    consume_rf pages;
    if
      Index.is_dir ctx.index h.i_ino
      && Index.dentry_count ctx.index ~dir:h.i_ino > 0
    then failwith "Inode.dealloc_dir: directory not empty";
    let tok = Token.use ctx.reg h.tok in
    zero_record ctx h;
    remake h tok

  let ranges ctx h = [ (base ctx h, Geometry.inode_size) ]
  let flush ctx h = remake h (flushed ctx ranges h h.tok)
  let fence ctx h = remake h (fenced ~sfence:true ctx "inode" ranges h h.tok)
  let after_fence ctx h = remake h (fenced ~sfence:false ctx "inode" ranges h h.tok)
end

module Dentry = struct
  type free = |
  type named = |
  type committed = |
  type rptr_set = |
  type rptr_over = |
  type renamed = |
  type doomed = |
  type cleared = |

  type ('p, 's) t = {
    d_dir : int;
    d_loc : Index.dentry_loc;
    tok : Token.t;
    info : int; (* stashed inode number for rename/clear bookkeeping *)
  }

  let loc h = h.d_loc
  let dir h = h.d_dir

  let remake ?info h tok =
    {
      d_dir = h.d_dir;
      d_loc = h.d_loc;
      tok;
      info = (match info with Some i -> i | None -> h.info);
    }

  let byte_off ctx (l : Index.dentry_loc) =
    Geometry.dentry_off ctx.Fsctx.geo ~page:l.page ~slot:l.slot

  let mk (ctx : Fsctx.t) ~dir ~(loc : Index.dentry_loc) ~info =
    {
      d_dir = dir;
      d_loc = loc;
      tok =
        Token.mint ctx.reg
          ~id:(Fsctx.dentry_oid ctx.geo ~page:loc.page ~slot:loc.slot);
      info;
    }

  (* Allocate and commit a fresh directory page: a self-contained
     sub-operation (the page is invisible until its backpointer commit, so
     its fences do not interact with the caller's ordering). *)
  let grow_dir (ctx : Fsctx.t) ~dir =
    let seq = List.length (Index.dir_pages ctx.index ~dir) in
    match Prange.alloc ctx ~ino:dir ~kind:R.Desc.Dirpage ~offsets:[ seq ] with
    | Error e -> Error e
    | Ok r ->
        let r = Prange.fill ctx r ~off:0 ~data:"" in
        let r = Prange.fence ctx (Prange.flush ctx r) in
        let r = Prange.set_backptrs ctx r in
        let r = Prange.fence ctx (Prange.flush ctx r) in
        (match Prange.pages r with
        | [ (page, _) ] ->
            Index.add_dir_page ctx.index ~dir page;
            Ok page
        | _ -> assert false)

  let alloc (ctx : Fsctx.t) ~dir =
    Device.charge ctx.dev 100;
    match Index.free_slot ctx.index ~dir with
    | Some loc ->
        Index.mark_slot_used ctx.index loc;
        Ok (mk ctx ~dir ~loc ~info:0)
    | None -> (
        match grow_dir ctx ~dir with
        | Error e -> Error e
        | Ok page ->
            let loc = { Index.page; slot = 0 } in
            Index.mark_slot_used ctx.index loc;
            Ok (mk ctx ~dir ~loc ~info:0))

  let set_name (ctx : Fsctx.t) h name =
    if String.length name > Geometry.name_max || name = "" then
      invalid_arg "Dentry.set_name: invalid name";
    let tok = Token.use ctx.reg h.tok in
    let padded =
      name ^ String.make (Geometry.name_max - String.length name) '\000'
    in
    Device.store ctx.dev ~off:(byte_off ctx h.d_loc + R.Dentry.f_name) padded;
    remake h tok

  let get (ctx : Fsctx.t) ~dir ~name =
    match Index.lookup ctx.index ~dir name with
    | None -> Error Vfs.Errno.ENOENT
    | Some (ino, loc) -> Ok (mk ctx ~dir ~loc ~info:ino)

  let target_ino (ctx : Fsctx.t) h =
    Token.check ctx.reg h.tok;
    Device.read_u64 ctx.dev (byte_off ctx h.d_loc + R.Dentry.f_ino)

  let store_ino ctx h v =
    Device.store_u64 ctx.Fsctx.dev (byte_off ctx h.d_loc + R.Dentry.f_ino) v

  let store_rptr ctx h v =
    Device.store_u64 ctx.Fsctx.dev
      (byte_off ctx h.d_loc + R.Dentry.f_rename_ptr)
      v

  let commit (ctx : Fsctx.t) h ~(inode : (_, _) Inode.t) =
    let tok = Token.use ctx.reg h.tok in
    let itok = Token.use ctx.reg inode.Inode.tok in
    store_ino ctx h (Inode.ino inode);
    (remake ~info:(Inode.ino inode) h tok, Inode.remake inode itok)

  let commit_dir (ctx : Fsctx.t) h ~inode ~(parent : (_, _) Inode.t) =
    let ptok = Token.use ctx.reg parent.Inode.tok in
    let d, i = commit ctx h ~inode in
    (d, i, Inode.remake parent ptok)

  let commit_link = commit

  let clear_ino (ctx : Fsctx.t) h =
    let target =
      Device.read_u64 ctx.dev (byte_off ctx h.d_loc + R.Dentry.f_ino)
    in
    let tok = Token.use ctx.reg h.tok in
    store_ino ctx h 0;
    remake ~info:target h tok

  let cleared_evidence (ctx : Fsctx.t) h =
    let tok = Token.use ctx.reg h.tok in
    (remake h tok, { target_ino = h.info; parent_dir = h.d_dir; dc_used = false })

  let dealloc (ctx : Fsctx.t) h =
    let tok = Token.use ctx.reg h.tok in
    Device.zero ctx.dev ~off:(byte_off ctx h.d_loc) ~len:Geometry.dentry_size;
    Index.mark_slot_free ctx.index h.d_loc;
    remake h tok

  let set_rptr (ctx : Fsctx.t) h ~src =
    let tok = Token.use ctx.reg h.tok in
    let stok = Token.use ctx.reg src.tok in
    store_rptr ctx h (byte_off ctx src.d_loc);
    (remake h tok, remake src stok)

  let set_rptr_over = set_rptr

  let do_commit_rename (ctx : Fsctx.t) h ~src ~old_target =
    let tok = Token.use ctx.reg h.tok in
    let stok = Token.use ctx.reg src.tok in
    let moved =
      Device.read_u64 ctx.dev (byte_off ctx src.d_loc + R.Dentry.f_ino)
    in
    store_ino ctx h moved;
    (remake ~info:old_target h tok, remake ~info:moved src stok)

  let commit_rename (ctx : Fsctx.t) h ~src =
    do_commit_rename ctx h ~src ~old_target:0

  let commit_rename_dir (ctx : Fsctx.t) h ~src
      ~(newparent : (_, _) Inode.t) =
    let ptok = Token.use ctx.reg newparent.Inode.tok in
    let d, s = do_commit_rename ctx h ~src ~old_target:0 in
    (d, s, Inode.remake newparent ptok)

  let commit_rename_over (ctx : Fsctx.t) h ~src =
    let old_target =
      Device.read_u64 ctx.dev (byte_off ctx h.d_loc + R.Dentry.f_ino)
    in
    do_commit_rename ctx h ~src ~old_target

  let replaced_evidence (ctx : Fsctx.t) h =
    let tok = Token.use ctx.reg h.tok in
    let ev =
      if h.info = 0 then None
      else Some { target_ino = h.info; parent_dir = h.d_dir; dc_used = false }
    in
    (remake h tok, ev)

  let clear_ino_doomed (ctx : Fsctx.t) h =
    let tok = Token.use ctx.reg h.tok in
    store_ino ctx h 0;
    remake h tok

  let clear_rptr (ctx : Fsctx.t) ~dst ~src =
    let tok = Token.use ctx.reg dst.tok in
    let stok = Token.use ctx.reg src.tok in
    store_rptr ctx dst 0;
    (remake dst tok, remake src stok)

  let ranges ctx h = [ (byte_off ctx h.d_loc, Geometry.dentry_size) ]
  let flush ctx h = remake h (flushed ctx ranges h h.tok)
  let fence ctx h = remake h (fenced ~sfence:true ctx "dentry" ranges h h.tok)
  let after_fence ctx h = remake h (fenced ~sfence:false ctx "dentry" ranges h h.tok)
end

module Preplace = struct
  type staged = |
  type committed = |
  type old_cleared = |
  type old_freed = |
  type settled = |

  type ('p, 's) t = {
    rid : int;
    p_ino : int;
    offset : int;
    newp : int;
    oldp : int;
    tok : Token.t;
  }

  let new_page h = h.newp
  let old_page h = h.oldp

  let remake h tok =
    {
      rid = h.rid;
      p_ino = h.p_ino;
      offset = h.offset;
      newp = h.newp;
      oldp = h.oldp;
      tok;
    }

  let stage (ctx : Fsctx.t) ~ino ~offset ~old_page ~content =
    if String.length content > Geometry.page_size then
      invalid_arg "Preplace.stage: content larger than a page";
    Device.charge ctx.dev 150;
    match Alloc.alloc_page ctx.alloc with
    | None -> Error Vfs.Errno.ENOSPC
    | Some newp ->
        let rid = Fsctx.range_oid ctx in
        fill_page ctx
          ~poff:(Geometry.page_off ctx.geo ~page:newp)
          ~lead:0 ~pos:0 ~len:(String.length content) content;
        let d = Geometry.desc_off ctx.geo ~page:newp in
        Device.store_u64 ctx.dev (d + R.Desc.f_kind)
          (R.Desc.kind_to_int R.Desc.Data);
        Device.store_u64 ctx.dev (d + R.Desc.f_offset) offset;
        Device.store_u64 ctx.dev (d + R.Desc.f_replaces) (old_page + 1);
        if ctx.csum then R.Desc.seal ctx.dev ~base:d;
        Ok
          {
            rid;
            p_ino = ino;
            offset;
            newp;
            oldp = old_page;
            tok = Token.fresh ctx.reg ~id:rid;
          }

  let store_desc (ctx : Fsctx.t) h ~page f v =
    let tok = Token.use ctx.reg h.tok in
    Device.store_u64 ctx.dev (Geometry.desc_off ctx.geo ~page + f) v;
    remake h tok

  let commit ctx h = store_desc ctx h ~page:h.newp R.Desc.f_ino h.p_ino
  let clear_old ctx h = store_desc ctx h ~page:h.oldp R.Desc.f_ino 0

  let free_old (ctx : Fsctx.t) h =
    let tok = Token.use ctx.reg h.tok in
    Device.zero ctx.dev
      ~off:(Geometry.desc_off ctx.geo ~page:h.oldp)
      ~len:Geometry.desc_size;
    remake h tok

  let settle ctx h = store_desc ctx h ~page:h.newp R.Desc.f_replaces 0

  let ranges (ctx : Fsctx.t) h =
    [
      (Geometry.desc_off ctx.geo ~page:h.newp, Geometry.desc_size);
      (Geometry.desc_off ctx.geo ~page:h.oldp, Geometry.desc_size);
    ]

  let flush ctx h = remake h (flushed ctx ranges h h.tok)
  let fence ctx h = remake h (fenced ~sfence:true ctx "preplace" ranges h h.tok)
  let after_fence ctx h = remake h (fenced ~sfence:false ctx "preplace" ranges h h.tok)
end
