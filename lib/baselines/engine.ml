(** The shared block-file-system engine behind the three baselines.

    An ext2-style layout (persistent bitmaps, inode table with
    direct/indirect/double-indirect block pointers, directory blocks of
    128-byte entries) whose metadata updates are made crash-atomic by the
    profile's journal ({!Txn}). All operations are synchronous, matching
    the PM file systems evaluated in the paper (metadata consistency, no
    data journaling). *)

module Device = Pmem.Device
module Errno = Vfs.Errno
module Fs = Vfs.Fs
module L = Blayout

let bs = L.block_size
let ( let* ) = Result.bind

module Make (P : sig
  val profile : Profile.t
end) =
struct
  let prof = P.profile
  let flavor = prof.Profile.name

  type t = {
    dev : Device.t;
    lay : L.t;
    ibm : Bitmap.t;
    bbm : Bitmap.t;
    dirs : (int, (string, int) Hashtbl.t) Hashtbl.t; (* dir -> name -> ino *)
    locs : (int * string, int) Hashtbl.t; (* (dir, name) -> slot offset *)
    dblocks : (int, int list ref) Hashtbl.t; (* dir -> data blocks in order *)
    free_slots : (int, int list ref) Hashtbl.t; (* dir -> free slot offsets *)
    anon : (string, int) Hashtbl.t; (* volatile O_TMPFILE tag -> ino *)
    oft : (string, int * int) Hashtbl.t;
        (* open-handle tag -> (ino, free-generation at open) *)
    freed : (int, int) Hashtbl.t;
        (* ino -> #times freed; detects a stale handle even when the
           inode number has been reused by a new file *)
    tx : Txn.t;
  }

  let device t = t.dev
  let u64 = Txn.u64

  (* {1 Inode accessors} *)

  let ioff t ino = L.inode_off t.lay ~ino
  let iread t ino f = Device.read_u64 t.dev (ioff t ino + f)
  let ikind t ino = iread t ino L.f_kind
  let ilinks t ino = iread t ino L.f_links
  let isize t ino = iread t ino L.f_size
  let kind_dir = 2
  and kind_file = 1
  and kind_symlink = 3

  let now t = Device.now_ns t.dev + 1_000_000_000

  (* {1 Block mapping} *)

  (* Pointer cells store block+1 so that zero means "hole". *)
  let ptr_cell t ~ino ~idx =
    if idx < L.direct_count then Some (ioff t ino + L.f_direct + (idx * 8))
    else
      let idx = idx - L.direct_count in
      if idx < L.ptrs_per_block then begin
        let ind = Device.read_u64 t.dev (ioff t ino + L.f_indirect) in
        if ind = 0 then None
        else Some (L.block_off t.lay ~block:(ind - 1) + (idx * 8))
      end
      else begin
        let idx = idx - L.ptrs_per_block in
        if idx >= L.ptrs_per_block * L.ptrs_per_block then None
        else
          let d = Device.read_u64 t.dev (ioff t ino + L.f_dindirect) in
          if d = 0 then None
          else
            let l1_off =
              L.block_off t.lay ~block:(d - 1) + (idx / L.ptrs_per_block * 8)
            in
            let l1 = Device.read_u64 t.dev l1_off in
            if l1 = 0 then None
            else
              Some
                (L.block_off t.lay ~block:(l1 - 1)
                + (idx mod L.ptrs_per_block * 8))
      end

  let get_block t ~ino ~idx =
    match ptr_cell t ~ino ~idx with
    | None -> None
    | Some cell ->
        let v = Device.read_u64 t.dev cell in
        if v = 0 then None else Some (v - 1)

  let alloc_raw_block t ~near =
    match Bitmap.alloc_near t.bbm near with
    | None -> None
    | Some b ->
        let off, byte = Bitmap.set t.bbm b true in
        Txn.stage t.tx ~off byte;
        Device.charge t.dev prof.Profile.alloc_ns;
        Some b

  (* Allocate (if needed) the indirect block holding [idx]'s pointer cell
     and return the cell's offset. Fresh indirect blocks are zeroed
     directly (they are invisible until the staged parent pointer
     commits). *)
  let ensure_cell t ~ino ~idx ~near =
    if idx < L.direct_count then Some (ioff t ino + L.f_direct + (idx * 8))
    else
      let fresh_zeroed near =
        match alloc_raw_block t ~near with
        | None -> None
        | Some b ->
            Device.zero t.dev ~off:(L.block_off t.lay ~block:b) ~len:bs;
            Device.fence t.dev;
            Some b
      in
      let idx' = idx - L.direct_count in
      if idx' < L.ptrs_per_block then begin
        let ind = Device.read_u64 t.dev (ioff t ino + L.f_indirect) in
        match
          if ind <> 0 then Some (ind - 1)
          else
            match fresh_zeroed near with
            | None -> None
            | Some b ->
                Txn.stage_u64 t.tx ~off:(ioff t ino + L.f_indirect) (b + 1);
                (* make it visible to later reads within this txn *)
                Device.store_u64 t.dev (ioff t ino + L.f_indirect) (b + 1);
                Some b
        with
        | None -> None
        | Some b -> Some (L.block_off t.lay ~block:b + (idx' * 8))
      end
      else begin
        let idx'' = idx' - L.ptrs_per_block in
        if idx'' >= L.ptrs_per_block * L.ptrs_per_block then None
        else begin
          let d = Device.read_u64 t.dev (ioff t ino + L.f_dindirect) in
          match
            if d <> 0 then Some (d - 1)
            else
              match fresh_zeroed near with
              | None -> None
              | Some b ->
                  Txn.stage_u64 t.tx ~off:(ioff t ino + L.f_dindirect) (b + 1);
                  Device.store_u64 t.dev (ioff t ino + L.f_dindirect) (b + 1);
                  Some b
          with
          | None -> None
          | Some dblk ->
              let l1_off =
                L.block_off t.lay ~block:dblk + (idx'' / L.ptrs_per_block * 8)
              in
              let l1 = Device.read_u64 t.dev l1_off in
              (match
                 if l1 <> 0 then Some (l1 - 1)
                 else
                   match fresh_zeroed near with
                   | None -> None
                   | Some b ->
                       Txn.stage_u64 t.tx ~off:l1_off (b + 1);
                       Device.store_u64 t.dev l1_off (b + 1);
                       Some b
               with
              | None -> None
              | Some l1blk ->
                  Some
                    (L.block_off t.lay ~block:l1blk
                    + (idx'' mod L.ptrs_per_block * 8)))
        end
      end


  (* Stage a data-block pointer; allocates indirect structure on demand. *)
  let set_block t ~ino ~idx blk =
    match ensure_cell t ~ino ~idx ~near:blk with
    | None -> Error Errno.ENOSPC
    | Some cell ->
        Txn.stage_u64 t.tx ~off:cell (blk + 1);
        Device.store_u64 t.dev cell (blk + 1);
        Ok ()

  let clear_block_ptr t ~ino ~idx =
    match ptr_cell t ~ino ~idx with
    | None -> ()
    | Some cell ->
        Txn.stage_u64 t.tx ~off:cell 0;
        Device.store_u64 t.dev cell 0

  let free_block t b =
    let off, byte = Bitmap.set t.bbm b false in
    Txn.stage t.tx ~off byte;
    Device.charge t.dev prof.Profile.alloc_ns

  (* {1 Inode allocation} *)

  let alloc_inode t ~kind ~links ~mode =
    match Bitmap.alloc t.ibm with
    | None -> Error Errno.ENOSPC
    | Some bit ->
        let ino = bit + 1 in
        let off, byte = Bitmap.set t.ibm bit true in
        Txn.stage t.tx ~off byte;
        Device.charge t.dev prof.Profile.alloc_ns;
        let b = ioff t ino in
        (* fresh inode record, staged as one write *)
        let tm = now t in
        let rcd =
          u64 ino ^ u64 kind ^ u64 links ^ u64 0 (* size *)
          ^ u64 tm ^ u64 tm ^ u64 tm ^ u64 mode
          ^ String.make (L.inode_size - 64) '\000'
        in
        Txn.stage t.tx ~off:b rcd;
        Device.store t.dev ~off:b rcd;
        Txn.touch_inode t.tx ino;
        Ok ino

  let free_gen t ino =
    match Hashtbl.find_opt t.freed ino with Some g -> g | None -> 0

  let free_inode t ino =
    let off, byte = Bitmap.set t.ibm (ino - 1) false in
    Txn.stage t.tx ~off byte;
    Txn.stage t.tx ~off:(ioff t ino) (String.make L.inode_size '\000');
    Device.store t.dev ~off:(ioff t ino) (String.make L.inode_size '\000');
    Hashtbl.replace t.freed ino (free_gen t ino + 1)

  let stage_field t ino f v =
    Txn.stage_u64 t.tx ~off:(ioff t ino + f) v;
    Device.store_u64 t.dev (ioff t ino + f) v;
    Txn.touch_inode t.tx ino

  (* {1 Directories} *)

  let dir_tbl t dir =
    match Hashtbl.find_opt t.dirs dir with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace t.dirs dir tbl;
        tbl

  let dir_blocks t dir =
    match Hashtbl.find_opt t.dblocks dir with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace t.dblocks dir l;
        l

  let free_slot_list t dir =
    match Hashtbl.find_opt t.free_slots dir with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace t.free_slots dir l;
        l

  let find_free_slot t dir =
    match !(free_slot_list t dir) with
    | s :: rest ->
        (free_slot_list t dir) := rest;
        Some s
    | [] -> None

  let grow_dir t dir =
    let blocks = dir_blocks t dir in
    let idx = List.length !blocks in
    match alloc_raw_block t ~near:(-1) with
    | None -> Error Errno.ENOSPC
    | Some b ->
        Device.zero t.dev ~off:(L.block_off t.lay ~block:b) ~len:bs;
        Device.fence t.dev;
        let* () = set_block t ~ino:dir ~idx b in
        stage_field t dir L.f_size ((idx + 1) * bs);
        blocks := !blocks @ [ b ];
        let base = L.block_off t.lay ~block:b in
        let fl = free_slot_list t dir in
        for s = L.dentries_per_block - 1 downto 1 do
          fl := (base + (s * L.dentry_size)) :: !fl
        done;
        Ok base

  let dir_add t ~dir ~name ~ino =
    let* slot =
      match find_free_slot t dir with
      | Some s -> Ok s
      | None -> grow_dir t dir
    in
    let padded = name ^ String.make (L.name_max - String.length name) '\000' in
    Txn.stage t.tx ~off:(slot + L.d_name) padded;
    Device.store t.dev ~off:(slot + L.d_name) padded;
    Txn.stage_u64 t.tx ~off:(slot + L.d_ino) ino;
    Device.store_u64 t.dev (slot + L.d_ino) ino;
    Hashtbl.replace (dir_tbl t dir) name ino;
    Hashtbl.replace t.locs (dir, name) slot;
    Ok ()

  let dir_remove t ~dir ~name =
    match Hashtbl.find_opt t.locs (dir, name) with
    | None -> ()
    | Some slot ->
        let zero = String.make L.dentry_size '\000' in
        Txn.stage t.tx ~off:slot zero;
        Device.store t.dev ~off:slot zero;
        Hashtbl.remove (dir_tbl t dir) name;
        Hashtbl.remove t.locs (dir, name);
        let fl = free_slot_list t dir in
        fl := slot :: !fl

  (* {1 Path resolution} *)

  let charge_op t parts =
    Device.charge t.dev
      (prof.Profile.op_base_ns + (60 * List.length parts))

  let is_dir t ino = Hashtbl.mem t.dirs ino && ikind t ino = kind_dir

  let rec walk_dir t dir = function
    | [] -> Ok dir
    | c :: rest -> (
        match Hashtbl.find_opt t.dirs dir with
        | None -> Error Errno.ENOTDIR
        | Some tbl -> (
            match Hashtbl.find_opt tbl c with
            | None -> Error Errno.ENOENT
            | Some ino ->
                if ikind t ino = kind_dir then walk_dir t ino rest
                else Error Errno.ENOTDIR))

  let resolve_any t path =
    let* parts = Vfs.Path.split path in
    charge_op t parts;
    match List.rev parts with
    | [] -> Ok L.root_ino
    | last :: rev_parents -> (
        let* dir = walk_dir t L.root_ino (List.rev rev_parents) in
        match Hashtbl.find_opt (dir_tbl t dir) last with
        | None -> Error Errno.ENOENT
        | Some ino -> Ok ino)

  let resolve_parent t path =
    let* parents, name = Vfs.Path.parent_base path in
    charge_op t (parents @ [ name ]);
    let* dir = walk_dir t L.root_ino parents in
    Ok (dir, name)

  let lookup t ~dir name = Hashtbl.find_opt (dir_tbl t dir) name

  let check_name name =
    if String.length name > L.name_max then Error Errno.ENAMETOOLONG
    else Ok ()

  (* {1 mkfs / mount / unmount} *)

  let mkfs dev =
    let lay = L.compute ~device_size:(Device.size dev) in
    Device.zero dev ~off:lay.L.ibm_off ~len:((lay.L.inode_count + 7) / 8);
    Device.zero dev ~off:lay.L.bbm_off ~len:((lay.L.block_count + 7) / 8);
    Device.zero dev ~off:lay.L.journal_off ~len:64;
    (* root inode: allocated bit + record *)
    let b = L.inode_off lay ~ino:L.root_ino in
    Device.zero dev ~off:b ~len:L.inode_size;
    Device.store_u64 dev (b + L.f_ino) L.root_ino;
    Device.store_u64 dev (b + L.f_kind) kind_dir;
    Device.store_u64 dev (b + L.f_links) 2;
    Device.store_u64 dev (b + L.f_mode) 0o755;
    Device.store dev ~off:lay.L.ibm_off "\001";
    Device.flush dev ~off:lay.L.ibm_off ~len:1;
    Device.flush dev ~off:b ~len:L.inode_size;
    Device.fence dev;
    Device.store_u64 dev L.s_magic L.sb_magic;
    Device.store_u64 dev L.s_size lay.L.device_size;
    Device.store_u64 dev L.s_inode_count lay.L.inode_count;
    Device.store_u64 dev L.s_block_count lay.L.block_count;
    Device.store_u64 dev L.s_clean 1;
    Device.store_u64 dev L.s_jseq 0;
    Device.persist dev ~off:0 ~len:64

  let mount dev =
    if Device.read_u64 dev L.s_magic <> L.sb_magic then Error Errno.EINVAL
    else begin
      let lay = L.compute ~device_size:(Device.read_u64 dev L.s_size) in
      let seq = Txn.replay dev lay in
      let ibm = Bitmap.load dev ~base:lay.L.ibm_off ~count:lay.L.inode_count in
      let bbm = Bitmap.load dev ~base:lay.L.bbm_off ~count:lay.L.block_count in
      let t =
        {
          dev;
          lay;
          ibm;
          bbm;
          dirs = Hashtbl.create 64;
          locs = Hashtbl.create 256;
          dblocks = Hashtbl.create 64;
          free_slots = Hashtbl.create 64;
          anon = Hashtbl.create 8;
          oft = Hashtbl.create 8;
          freed = Hashtbl.create 8;
          tx = Txn.create dev lay prof ~seq:(seq + 1);
        }
      in
      (* walk the tree to build the name index *)
      let rec load_dir dir =
        let tbl = dir_tbl t dir in
        let blocks = dir_blocks t dir in
        let nblocks = isize t dir / bs in
        for idx = 0 to nblocks - 1 do
          match get_block t ~ino:dir ~idx with
          | None -> ()
          | Some b ->
              blocks := !blocks @ [ b ];
              let base = L.block_off t.lay ~block:b in
              for s = 0 to L.dentries_per_block - 1 do
                let slot = base + (s * L.dentry_size) in
                let ino = Device.read_u64 t.dev (slot + L.d_ino) in
                if ino = 0 then begin
                  let fl = free_slot_list t dir in
                  fl := slot :: !fl
                end;
                if ino <> 0 then begin
                  let raw =
                    Bytes.to_string
                      (Device.read t.dev ~off:(slot + L.d_name) ~len:L.name_max)
                  in
                  let name =
                    match String.index_opt raw '\000' with
                    | Some i -> String.sub raw 0 i
                    | None -> raw
                  in
                  Hashtbl.replace tbl name ino;
                  Hashtbl.replace t.locs (dir, name) slot;
                  Device.charge t.dev 120;
                  if ikind t ino = kind_dir then load_dir ino
                end
              done
        done
      in
      load_dir L.root_ino;
      Device.store_u64 dev L.s_clean 0;
      Device.persist dev ~off:L.s_clean ~len:8;
      Ok t
    end

  let unmount t =
    Device.store_u64 t.dev L.s_clean 1;
    Device.persist t.dev ~off:L.s_clean ~len:8

  (* {1 Namespace operations} *)

  let create t path =
    let* dir, name = resolve_parent t path in
    let* () = check_name name in
    match lookup t ~dir name with
    | Some _ -> Error Errno.EEXIST
    | None ->
        let* ino = alloc_inode t ~kind:kind_file ~links:1 ~mode:0o644 in
        let* () = dir_add t ~dir ~name ~ino in
        stage_field t dir L.f_mtime (now t);
        Txn.commit t.tx;
        Ok ()

  let mkdir t path =
    let* dir, name = resolve_parent t path in
    let* () = check_name name in
    match lookup t ~dir name with
    | Some _ -> Error Errno.EEXIST
    | None ->
        let* ino = alloc_inode t ~kind:kind_dir ~links:2 ~mode:0o755 in
        let* () = dir_add t ~dir ~name ~ino in
        stage_field t dir L.f_links (ilinks t dir + 1);
        stage_field t dir L.f_mtime (now t);
        Txn.commit t.tx;
        Hashtbl.replace t.dirs ino (Hashtbl.create 8);
        Ok ()

  let symlink t target path =
    let* dir, name = resolve_parent t path in
    let* () = check_name name in
    if String.length target > bs then Error Errno.ENAMETOOLONG
    else
      match lookup t ~dir name with
      | Some _ -> Error Errno.EEXIST
      | None ->
          let* ino = alloc_inode t ~kind:kind_symlink ~links:1 ~mode:0o777 in
          let* () = dir_add t ~dir ~name ~ino in
          (match alloc_raw_block t ~near:(-1) with
          | None -> Error Errno.ENOSPC
          | Some b ->
              let off = L.block_off t.lay ~block:b in
              Device.store_coarse t.dev ~off ~pos:0
                ~len:(String.length target) target;
              Device.zero t.dev
                ~off:(off + String.length target)
                ~len:(bs - String.length target);
              Device.fence t.dev;
              let* () = set_block t ~ino ~idx:0 b in
              stage_field t ino L.f_size (String.length target);
              Txn.commit t.tx;
              Ok ())

  let link t existing path =
    let* target_ino = resolve_any t existing in
    if ikind t target_ino = kind_dir then Error Errno.EPERM
    else
      let* dir, name = resolve_parent t path in
      let* () = check_name name in
      match lookup t ~dir name with
      | Some _ -> Error Errno.EEXIST
      | None ->
          let* () = dir_add t ~dir ~name ~ino:target_ino in
          stage_field t target_ino L.f_links (ilinks t target_ino + 1);
          stage_field t target_ino L.f_ctime (now t);
          Txn.commit t.tx;
          Ok ()

  (* Free every data block of [ino] (file/symlink teardown). *)
  let free_file_blocks t ino =
    let size = isize t ino in
    let nblocks = (size + bs - 1) / bs in
    for idx = 0 to nblocks - 1 do
      match get_block t ~ino ~idx with
      | None -> ()
      | Some b ->
          free_block t b;
          clear_block_ptr t ~ino ~idx
    done;
    (* free indirect structure blocks *)
    let ind = Device.read_u64 t.dev (ioff t ino + L.f_indirect) in
    if ind <> 0 then free_block t (ind - 1);
    let d = Device.read_u64 t.dev (ioff t ino + L.f_dindirect) in
    if d <> 0 then begin
      for i = 0 to L.ptrs_per_block - 1 do
        let l1 = Device.read_u64 t.dev (L.block_off t.lay ~block:(d - 1) + (i * 8)) in
        if l1 <> 0 then free_block t (l1 - 1)
      done;
      free_block t (d - 1)
    end

  let unlink t path =
    let* dir, name = resolve_parent t path in
    match lookup t ~dir name with
    | None -> Error Errno.ENOENT
    | Some ino ->
        if ikind t ino = kind_dir then Error Errno.EISDIR
        else begin
          dir_remove t ~dir ~name;
          let links = ilinks t ino in
          if links > 1 then stage_field t ino L.f_links (links - 1)
          else begin
            free_file_blocks t ino;
            free_inode t ino
          end;
          stage_field t dir L.f_mtime (now t);
          Txn.commit t.tx;
          Ok ()
        end

  let rmdir t path =
    let* parts = Vfs.Path.split path in
    if parts = [] then Error Errno.EINVAL
    else
      let* dir, name = resolve_parent t path in
      match lookup t ~dir name with
      | None -> Error Errno.ENOENT
      | Some ino ->
          if ikind t ino <> kind_dir then Error Errno.ENOTDIR
          else if Hashtbl.length (dir_tbl t ino) > 0 then
            Error Errno.ENOTEMPTY
          else begin
            dir_remove t ~dir ~name;
            (* free dir blocks *)
            List.iter
              (fun b -> free_block t b)
              !(dir_blocks t ino);
            free_inode t ino;
            stage_field t dir L.f_links (ilinks t dir - 1);
            stage_field t dir L.f_mtime (now t);
            Txn.commit t.tx;
            Hashtbl.remove t.dirs ino;
            Hashtbl.remove t.dblocks ino;
            Hashtbl.remove t.free_slots ino;
            Ok ()
          end

  let rename t src dst =
    let* src_dir, src_name = resolve_parent t src in
    match lookup t ~dir:src_dir src_name with
    | None -> Error Errno.ENOENT
    | Some sino -> (
        (* the moved inode participates in the transaction (NOVA journals
           operations that update multiple inodes) *)
        Txn.touch_inode t.tx sino;
        let* dst_dir, dst_name = resolve_parent t dst in
        let* () = check_name dst_name in
        let src_is_dir = ikind t sino = kind_dir in
        (* subtree check *)
        let* () =
          if not src_is_dir then Ok ()
          else
            let* parents, _ = Vfs.Path.parent_base dst in
            let rec chain dir acc = function
              | [] -> Ok (dir :: acc)
              | c :: rest -> (
                  match Hashtbl.find_opt (dir_tbl t dir) c with
                  | None -> Error Errno.ENOENT
                  | Some i -> chain i (dir :: acc) rest)
            in
            let* inos = chain L.root_ino [] parents in
            if List.mem sino inos then Error Errno.EINVAL else Ok ()
        in
        match lookup t ~dir:dst_dir dst_name with
        | Some dino when dino = sino -> Ok ()
        | Some dino ->
            let dst_is_dir = ikind t dino = kind_dir in
            if src_is_dir && not dst_is_dir then Error Errno.ENOTDIR
            else if (not src_is_dir) && dst_is_dir then Error Errno.EISDIR
            else if dst_is_dir && Hashtbl.length (dir_tbl t dino) > 0 then
              Error Errno.ENOTEMPTY
            else begin
              (* replace: retarget the dst dentry, drop src's *)
              (match Hashtbl.find_opt t.locs (dst_dir, dst_name) with
              | Some slot ->
                  Txn.stage_u64 t.tx ~off:(slot + L.d_ino) sino;
                  Device.store_u64 t.dev (slot + L.d_ino) sino;
                  Hashtbl.replace (dir_tbl t dst_dir) dst_name sino
              | None -> assert false);
              dir_remove t ~dir:src_dir ~name:src_name;
              (* old target teardown *)
              if dst_is_dir then begin
                List.iter (fun b -> free_block t b) !(dir_blocks t dino);
                free_inode t dino;
                Hashtbl.remove t.dirs dino;
                Hashtbl.remove t.dblocks dino;
                Hashtbl.remove t.free_slots dino;
                (* parent subdir counts *)
                if src_dir <> dst_dir then
                  stage_field t src_dir L.f_links (ilinks t src_dir - 1)
                else stage_field t dst_dir L.f_links (ilinks t dst_dir - 1)
              end
              else begin
                let links = ilinks t dino in
                if links > 1 then stage_field t dino L.f_links (links - 1)
                else begin
                  free_file_blocks t dino;
                  free_inode t dino
                end;
                if src_is_dir && src_dir <> dst_dir then begin
                  stage_field t src_dir L.f_links (ilinks t src_dir - 1);
                  stage_field t dst_dir L.f_links (ilinks t dst_dir + 1)
                end
              end;
              stage_field t src_dir L.f_mtime (now t);
              stage_field t dst_dir L.f_mtime (now t);
              Txn.commit t.tx;
              Ok ()
            end
        | None ->
            let* () = dir_add t ~dir:dst_dir ~name:dst_name ~ino:sino in
            dir_remove t ~dir:src_dir ~name:src_name;
            if src_is_dir && src_dir <> dst_dir then begin
              stage_field t src_dir L.f_links (ilinks t src_dir - 1);
              stage_field t dst_dir L.f_links (ilinks t dst_dir + 1)
            end;
            stage_field t src_dir L.f_mtime (now t);
            stage_field t dst_dir L.f_mtime (now t);
            Txn.commit t.tx;
            Ok ())

  (* {1 Data plane} *)

  let kind_check_file t path =
    let* ino = resolve_any t path in
    let k = ikind t ino in
    if k = kind_dir then Error Errno.EISDIR
    else if k = kind_symlink then Error Errno.EINVAL
    else Ok ino

  let write_ino t ino ~off data =
    if off < 0 then Error Errno.EINVAL
    else if String.length data = 0 then Ok 0
    else begin
      let len = String.length data in
      let cur = isize t ino in
      let new_size = max cur (off + len) in
      let first = off / bs and last = (off + len - 1) / bs in
      let scan_from = min first ((cur + bs - 1) / bs) in
      (* capacity pre-check over the gap + write range only *)
      let missing = ref 0 in
      for idx = scan_from to last do
        if get_block t ~ino ~idx = None then incr missing
      done;
      if !missing + 4 > Bitmap.free_count t.bbm then begin
        Txn.abort t.tx;
        Error Errno.ENOSPC
      end
      else begin
        (* zero a stale tail when writing past the size *)
        (if off > cur && cur mod bs <> 0 then
           match get_block t ~ino ~idx:(cur / bs) with
           | Some b ->
               let zlen = min (bs - (cur mod bs)) (off - cur) in
               Device.zero t.dev
                 ~off:(L.block_off t.lay ~block:b + (cur mod bs))
                 ~len:zlen
           | None -> ());
        let err = ref None in
        let prev_blk = ref (-1) in
        for idx = scan_from to last do
          if !err = None then begin
            let bstart = idx * bs in
            let lo = max bstart off and hi = min (bstart + bs) (off + len) in
            match get_block t ~ino ~idx with
            | Some b ->
                prev_blk := b;
                if hi > lo then
                  Device.store_coarse t.dev
                    ~off:(L.block_off t.lay ~block:b + (lo - bstart))
                    ~pos:(lo - off) ~len:(hi - lo) data
            | None -> (
                match alloc_raw_block t ~near:!prev_blk with
                | None -> err := Some Errno.ENOSPC
                | Some b -> (
                    prev_blk := b;
                    let boff = L.block_off t.lay ~block:b in
                    let stored =
                      if hi <= lo then 0
                      else begin
                        Device.store_coarse t.dev ~off:boff ~lead:(lo - bstart)
                          ~pos:(lo - off) ~len:(hi - lo) data;
                        hi - bstart
                      end
                    in
                    if stored < bs then
                      Device.zero t.dev ~off:(boff + stored) ~len:(bs - stored);
                    match set_block t ~ino ~idx b with
                    | Ok () -> ()
                    | Error e -> err := Some e))
          end
        done;
        match !err with
        | Some e ->
            Txn.abort t.tx;
            Error e
        | None ->
            if new_size > cur then stage_field t ino L.f_size new_size;
            stage_field t ino L.f_mtime (now t);
            Txn.commit t.tx;
            Ok len
      end
    end

  let write t path ~off data =
    let* ino = kind_check_file t path in
    write_ino t ino ~off data

  let read_ino t ino ~off ~len =
    if off < 0 || len < 0 then Error Errno.EINVAL
    else begin
      let size = isize t ino in
      if off >= size then Ok ""
      else begin
        let len = min len (size - off) in
        let buf = Buffer.create len in
        let pos = ref off in
        let extents = ref 0 and last_blk = ref (-2) and blocks = ref 0 in
        while !pos < off + len do
          let idx = !pos / bs in
          let in_blk = !pos mod bs in
          let chunk = min (bs - in_blk) (off + len - !pos) in
          (match get_block t ~ino ~idx with
          | Some b ->
              incr blocks;
              if b <> !last_blk + 1 then incr extents;
              last_blk := b;
              Buffer.add_bytes buf
                (Device.read t.dev
                   ~off:(L.block_off t.lay ~block:b + in_blk)
                   ~len:chunk)
          | None -> Buffer.add_string buf (String.make chunk '\000'));
          pos := !pos + chunk
        done;
        Device.charge t.dev
          (if prof.Profile.extent_reads then
             prof.Profile.read_block_ns * !extents
           else prof.Profile.read_block_ns * !blocks);
        Ok (Buffer.contents buf)
      end
    end

  let read t path ~off ~len =
    let* ino = kind_check_file t path in
    read_ino t ino ~off ~len

  let truncate t path new_size =
    let* ino = kind_check_file t path in
    if new_size < 0 then Error Errno.EINVAL
    else begin
      let cur = isize t ino in
      if new_size < cur then begin
        let keep = (new_size + bs - 1) / bs in
        for idx = keep to ((cur + bs - 1) / bs) - 1 do
          match get_block t ~ino ~idx with
          | None -> ()
          | Some b ->
              free_block t b;
              clear_block_ptr t ~ino ~idx
        done;
        stage_field t ino L.f_size new_size;
        stage_field t ino L.f_mtime (now t);
        Txn.commit t.tx;
        Ok ()
      end
      else if new_size = cur then begin
        stage_field t ino L.f_mtime (now t);
        Txn.commit t.tx;
        Ok ()
      end
      else begin
        (* grow: zero the stale boundary tail and allocate zero blocks *)
        (if cur mod bs <> 0 then
           match get_block t ~ino ~idx:(cur / bs) with
           | Some b ->
               let zlen = min (bs - (cur mod bs)) (new_size - cur) in
               Device.zero t.dev
                 ~off:(L.block_off t.lay ~block:b + (cur mod bs))
                 ~len:zlen
           | None -> ());
        let err = ref None in
        for idx = cur / bs to ((new_size + bs - 1) / bs) - 1 do
          if !err = None && get_block t ~ino ~idx = None then
            match alloc_raw_block t ~near:(-1) with
            | None -> err := Some Errno.ENOSPC
            | Some b -> (
                Device.zero t.dev ~off:(L.block_off t.lay ~block:b) ~len:bs;
                match set_block t ~ino ~idx b with
                | Ok () -> ()
                | Error e -> err := Some e)
        done;
        match !err with
        | Some e ->
            Txn.abort t.tx;
            Error e
        | None ->
            stage_field t ino L.f_size new_size;
            stage_field t ino L.f_mtime (now t);
            Txn.commit t.tx;
            Ok ()
      end
    end

  let readlink t path =
    let* ino = resolve_any t path in
    if ikind t ino <> kind_symlink then Error Errno.EINVAL
    else
      let size = isize t ino in
      match get_block t ~ino ~idx:0 with
      | None -> Ok ""
      | Some b ->
          Ok
            (Bytes.to_string
               (Device.read t.dev ~off:(L.block_off t.lay ~block:b) ~len:size))

  let block_offset t path i =
    let* ino = resolve_any t path in
    match get_block t ~ino ~idx:i with
    | Some b -> Ok (L.block_off t.lay ~block:b)
    | None -> Error Errno.EINVAL

  let stat t path =
    let* ino = resolve_any t path in
    Ok
      {
        Fs.ino;
        kind =
          (match ikind t ino with
          | 2 -> Fs.Dir
          | 3 -> Fs.Symlink
          | _ -> Fs.File);
        links = ilinks t ino;
        size = isize t ino;
        atime = iread t ino L.f_atime;
        mtime = iread t ino L.f_mtime;
        ctime = iread t ino L.f_ctime;
        mode = iread t ino L.f_mode;
        uid = 0;
        gid = 0;
      }

  let readdir t path =
    let* ino = resolve_any t path in
    if ikind t ino <> kind_dir then Error Errno.ENOTDIR
    else
      Ok (Hashtbl.fold (fun name _ acc -> name :: acc) (dir_tbl t ino) [])

  let fsync t path =
    let* _ino = resolve_any t path in
    Ok ()

  let fdatasync t path =
    let* _ino = resolve_any t path in
    Ok ()

  (* O_TMPFILE-style anonymous files. The inode is journalled like any
     other allocation; the tag registry is volatile, so after a crash the
     inode is simply an orphan (these baselines model orphan reclamation
     as part of journal replay and are never fsck'd by our checker, so no
     extra recovery work is needed for the differential tests). *)
  let tmpfile t tag =
    if Hashtbl.mem t.anon tag then Error Errno.EEXIST
    else
      let* ino = alloc_inode t ~kind:kind_file ~links:1 ~mode:0o644 in
      Txn.commit t.tx;
      Hashtbl.replace t.anon tag ino;
      Ok ()

  (* {1 Open handles}

     Tag-keyed handles with the semantics pinned by the [Vfs.Fs.S]
     contract: follow the inode, go stale (EBADF) when the file is
     destroyed. The free-generation counter catches destruction even
     when the inode number is reused; the baselines have no extent
     cache, so a handle here only saves path resolution. *)

  (* Same errno precedence as [Squirrelfs.Fs_impl.open_file]: resolution
     errors, then kind checks, then the duplicate-tag check. *)
  let open_file t tag path =
    let* ino = resolve_any t path in
    let k = ikind t ino in
    if k = kind_dir then Error Errno.EISDIR
    else if k = kind_symlink then Error Errno.EINVAL
    else if Hashtbl.mem t.oft tag then Error Errno.EEXIST
    else begin
      Hashtbl.replace t.oft tag (ino, free_gen t ino);
      Ok ()
    end

  let close_file t tag =
    if Hashtbl.mem t.oft tag then begin
      Hashtbl.remove t.oft tag;
      Ok ()
    end
    else Error Errno.EBADF

  (* A stale handle stays bound until [close_file] (the tag is busy,
     like a POSIX fd); it just answers EBADF. *)
  let handle_ino t tag =
    match Hashtbl.find_opt t.oft tag with
    | None -> Error Errno.EBADF
    | Some (ino, gen) ->
        if free_gen t ino <> gen then Error Errno.EBADF else Ok ino

  let read_h t tag ~off ~len =
    let* ino = handle_ino t tag in
    Device.charge t.dev prof.Profile.op_base_ns;
    read_ino t ino ~off ~len

  let write_h t tag ~off data =
    let* ino = handle_ino t tag in
    Device.charge t.dev prof.Profile.op_base_ns;
    write_ino t ino ~off data

  let linkat t tag path =
    match Hashtbl.find_opt t.anon tag with
    | None -> Error Errno.ENOENT
    | Some ino -> (
        let* dir, name = resolve_parent t path in
        match lookup t ~dir name with
        | Some _ -> Error Errno.EEXIST
        | None ->
            let* () = check_name name in
            let* () = dir_add t ~dir ~name ~ino in
            stage_field t dir L.f_mtime (now t);
            Txn.commit t.tx;
            Hashtbl.remove t.anon tag;
            Ok ())
end
