(** Deliberately mis-ordered operation variants (§4.2 bug reinjection).

    Each function performs a real file-system operation with raw device
    stores in an order the typestate API of {!Squirrelfs.Objects} makes
    unwritable — the OCaml equivalents simply do not type-check (see
    [examples/typestate_tour.ml] for the rejected forms). Running them
    under the crash oracle demonstrates that the invariants they violate
    are exactly the ones the oracle (and the paper's compiler) detects.

    Volatile indexes are updated at the end of each function so the
    post-operation state matches the correct implementation's — only the
    intermediate crash states differ. *)

module Device = Pmem.Device
module Geometry = Layout.Geometry
module R = Layout.Records
module Fsctx = Squirrelfs.Fsctx
module Index = Squirrelfs.Index
module Alloc = Squirrelfs.Alloc

let persist dev ~off ~len = Device.persist dev ~off ~len

(* create with the dentry commit BEFORE the inode is durably initialized:
   a crash in between leaves a directory entry pointing at a garbage
   inode (paper Listing 1's bug). *)
let create (ctx : Fsctx.t) ~dir ~name =
  let dev = ctx.dev and geo = ctx.geo in
  let ino =
    match Alloc.alloc_inode ctx.alloc with
    | Some i -> i
    | None -> failwith "Buggy.create: no free inodes"
  in
  let loc =
    match Index.free_slot ctx.index ~dir with
    | Some l -> l
    | None -> failwith "Buggy.create: no free dentry slot"
  in
  Index.mark_slot_used ctx.index loc;
  let dbase = Geometry.dentry_off geo ~page:loc.Index.page ~slot:loc.Index.slot in
  (* name + COMMIT first... *)
  Device.store dev ~off:(dbase + R.Dentry.f_name)
    (name ^ String.make (Geometry.name_max - String.length name) '\000');
  Device.store_u64 dev (dbase + R.Dentry.f_ino) ino;
  persist dev ~off:dbase ~len:Geometry.dentry_size;
  (* ...inode initialization second: the mis-ordering *)
  let ibase = Geometry.inode_off geo ~ino in
  Device.store_u64 dev (ibase + R.Inode.f_ino) ino;
  Device.store_u64 dev (ibase + R.Inode.f_kind) (R.Kind.to_int R.Kind.File);
  Device.store_u64 dev (ibase + R.Inode.f_links) 1;
  Device.store_u64 dev (ibase + R.Inode.f_mode) 0o644;
  persist dev ~off:ibase ~len:Geometry.inode_size;
  Index.insert_dentry ctx.index ~dir name ~ino loc;
  Index.add_file ctx.index ino

(* unlink with the link decrement BEFORE the dentry clear: a crash in
   between leaves a live dentry pointing at an inode whose link count is
   lower than its true number of links (the paper's initial rename bug,
   §4.2 "Incorrect ordering"). *)
let unlink (ctx : Fsctx.t) ~dir ~name =
  let dev = ctx.dev and geo = ctx.geo in
  let ino, loc =
    match Index.lookup ctx.index ~dir name with
    | Some x -> x
    | None -> failwith "Buggy.unlink: no such entry"
  in
  let ibase = Geometry.inode_off geo ~ino in
  let links = Device.read_u64 dev (ibase + R.Inode.f_links) in
  (* decrement first... *)
  Device.store_u64 dev (ibase + R.Inode.f_links) (links - 1);
  persist dev ~off:(ibase + R.Inode.f_links) ~len:8;
  (* ...dentry clear second *)
  let dbase = Geometry.dentry_off geo ~page:loc.Index.page ~slot:loc.Index.slot in
  Device.store_u64 dev (dbase + R.Dentry.f_ino) 0;
  persist dev ~off:(dbase + R.Dentry.f_ino) ~len:8;
  Device.zero dev ~off:dbase ~len:Geometry.dentry_size;
  Device.fence dev;
  Index.remove_dentry ctx.index ~dir name;
  Index.mark_slot_free ctx.index loc;
  if links - 1 = 0 then begin
    (* reclaim pages and the inode (correct order; the bug is above) *)
    List.iter
      (fun (off, page) ->
        let dsc = Geometry.desc_off geo ~page in
        Device.store_u64 dev (dsc + R.Desc.f_ino) 0;
        persist dev ~off:dsc ~len:8;
        Device.zero dev ~off:dsc ~len:Geometry.desc_size;
        Device.fence dev;
        Index.remove_file_page ctx.index ~ino ~offset:off;
        Alloc.free_page ctx.alloc page)
      (Index.file_pages ctx.index ~ino);
    Device.zero dev ~off:ibase ~len:Geometry.inode_size;
    Device.fence dev;
    Index.remove_file ctx.index ino;
    Alloc.free_inode ctx.alloc ino
  end

(* append with the size update BEFORE the new page's backpointer is
   durable: a crash in between gives the file a size larger than its
   pages (the missing flush/fence bug of §4.2 "Missing persistence
   primitives"). *)
let write_append (ctx : Fsctx.t) ~ino data =
  let dev = ctx.dev and geo = ctx.geo in
  if String.length data > Geometry.page_size then
    invalid_arg "Buggy.write_append: at most one page";
  let ibase = Geometry.inode_off geo ~ino in
  let size = Device.read_u64 dev (ibase + R.Inode.f_size) in
  let offset = (size + Geometry.page_size - 1) / Geometry.page_size in
  let page =
    match Alloc.alloc_page ctx.alloc with
    | Some p -> p
    | None -> failwith "Buggy.write_append: no free pages"
  in
  (* size first... *)
  let new_size = (offset * Geometry.page_size) + String.length data in
  Device.store_u64 dev (ibase + R.Inode.f_size) new_size;
  persist dev ~off:(ibase + R.Inode.f_size) ~len:8;
  (* ...page contents and ownership second *)
  Device.store_coarse dev ~off:(Geometry.page_off geo ~page) ~pos:0
    ~len:(String.length data) data;
  let dsc = Geometry.desc_off geo ~page in
  Device.store_u64 dev (dsc + R.Desc.f_kind) (R.Desc.kind_to_int R.Desc.Data);
  Device.store_u64 dev (dsc + R.Desc.f_offset) offset;
  Device.store_u64 dev (dsc + R.Desc.f_ino) ino;
  persist dev ~off:dsc ~len:Geometry.desc_size;
  Index.add_file_page ctx.index ~ino ~offset page

(* snapshot creation with the table entry published in the same flush
   group as its record: nothing orders the slot's id/hash/CRC before the
   commit word, so a crash can drain the commit word first and leave a
   {e committed} entry whose record (including the quiesced base hash)
   is garbage — a torn snapshot. The correct [Snap.snapshot] fences the
   init group before flipping the state word. *)
let snap_create (ctx : Fsctx.t) ~name =
  let dev = ctx.dev in
  let module S = Layout.Snaptab in
  let slot =
    match S.free_slot dev with
    | Some s -> s
    | None -> failwith "Buggy.snap_create: snapshot table full"
  in
  Fsctx.fence ctx (* quiesce, as the correct path does *);
  let label = Device.durable_hash dev in
  let id = S.next_id dev in
  let epoch = Typestate.Token.epoch ctx.reg in
  (* init group and commit word in one unfenced burst: the mis-ordering *)
  S.Slot.write_init dev ~slot ~id ~epoch ~hash:label ~name;
  S.Slot.commit dev ~slot;
  Device.fence dev;
  (* volatile fixup: pin the durable image exactly as the correct path
     would, so post-operation state matches and only the intermediate
     crash states differ *)
  let r = Device.retain dev in
  Hashtbl.replace ctx.snaps name
    { Fsctx.sp_slot = slot; sp_id = id; sp_view = r; sp_quarantined = false }
