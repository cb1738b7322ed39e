(** Memory-mapped copy-on-write B-tree (the LMDB substitute, Figure 5(d)).

    LMDB updates pages of a memory-mapped file and commits with a meta-
    page write; the file system only sees page-granular writes and an
    occasional sync, which is why the paper finds all four file systems
    within ~12% of each other on LMDB workloads. This implementation is a
    real COW B+-tree over a single pre-sized file: every transaction
    copies the root-to-leaf path to fresh pages, commits by writing the
    dirty pages and then the meta page, and recycles pages two
    transactions later (LMDB's double-meta discipline).

    Workloads (db_bench): fillseqbatch, fillrandbatch, fillrand. *)

module Device = Pmem.Device

let page_size = 4096
let klen = 16
let vlen = 100
let leaf_cap = (page_size - 16) / (klen + vlen) (* 35 *)
let branch_cap = (page_size - 16) / (klen + 8) (* 170 *)

type result = {
  workload : string;
  fs : string;
  ops : int;
  sim_seconds : float;
  kops_per_sec : float;
}

module Make (F : Vfs.Fs.S) = struct
  let ok = function
    | Ok v -> v
    | Error e -> failwith ("Lmdb_sim: unexpected " ^ Vfs.Errno.to_string e)

  (* In-DRAM node representation; pages serialize to exactly one page. *)
  type node =
    | Leaf of (string * string) array
    | Branch of (string * int) array (* (first key of child, page) *)

  type t = {
    fs : F.t;
    path : string;
    dev : Device.t;
    mutable map : int array; (* page -> device offset (the mmap) *)
    mutable capacity : int;
    mutable root : int;
    mutable next_page : int;
    mutable txn_id : int;
    cache : (int, node) Hashtbl.t; (* clean page cache *)
    mutable dirty : (int * node) list;
    mutable freed_now : int list; (* pages COW'd in the current txn *)
    mutable free_later : int list; (* freed last txn: reusable next txn *)
    mutable free : int list; (* reusable now *)
  }

  (* Pre-size the file and map every page's device address, as [mmap] of a
     DAX file does; page I/O below never enters the file system. *)
  let grow_map t new_capacity =
    let zeros = String.make (16 * page_size) '\000' in
    let cur_bytes =
      match F.stat t.fs t.path with Ok s -> s.Vfs.Fs.size | Error _ -> 0
    in
    let off = ref cur_bytes in
    while !off < new_capacity * page_size do
      ignore (ok (F.write t.fs t.path ~off:!off zeros));
      off := !off + String.length zeros
    done;
    let map = Array.make new_capacity 0 in
    Array.blit t.map 0 map 0 t.capacity;
    for p = t.capacity to new_capacity - 1 do
      map.(p) <- ok (F.block_offset t.fs t.path p)
    done;
    t.map <- map;
    t.capacity <- new_capacity

  let page_addr t page =
    if page >= t.capacity then grow_map t (max (t.capacity + 256) (page + 1));
    t.map.(page)

  let u64 v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    Bytes.to_string b

  let encode node =
    let buf = Buffer.create page_size in
    (match node with
    | Leaf kvs ->
        Buffer.add_string buf (u64 1);
        Buffer.add_string buf (u64 (Array.length kvs));
        Array.iter
          (fun (k, v) ->
            Buffer.add_string buf k;
            Buffer.add_string buf v)
          kvs
    | Branch entries ->
        Buffer.add_string buf (u64 2);
        Buffer.add_string buf (u64 (Array.length entries));
        Array.iter
          (fun (k, p) ->
            Buffer.add_string buf k;
            Buffer.add_string buf (u64 p))
          entries);
    let s = Buffer.contents buf in
    s ^ String.make (page_size - String.length s) '\000'

  let decode s =
    let g off = Int64.to_int (Bytes.get_int64_le (Bytes.of_string s) off) in
    let tag = g 0 and n = g 8 in
    if tag = 1 then
      Leaf
        (Array.init n (fun i ->
             let base = 16 + (i * (klen + vlen)) in
             (String.sub s base klen, String.sub s (base + klen) vlen)))
    else
      Branch
        (Array.init n (fun i ->
             let base = 16 + (i * (klen + 8)) in
             ( String.sub s base klen,
               Int64.to_int
                 (Bytes.get_int64_le
                    (Bytes.of_string (String.sub s (base + klen) 8))
                    0) )))

  let read_node t page =
    match Hashtbl.find_opt t.cache page with
    | Some n -> n
    | None ->
        (* mmap read: direct load from the mapped page *)
        let s =
          Bytes.to_string
            (Device.read t.dev ~off:(page_addr t page) ~len:page_size)
        in
        let n = decode s in
        Hashtbl.replace t.cache page n;
        n

  let alloc_page t =
    match t.free with
    | p :: rest ->
        t.free <- rest;
        p
    | [] ->
        let p = t.next_page in
        t.next_page <- p + 1;
        p

  let write_dirty t page node =
    t.dirty <- (page, node) :: t.dirty;
    Hashtbl.replace t.cache page node

  let cow t old_page node =
    let p = alloc_page t in
    t.freed_now <- old_page :: t.freed_now;
    Hashtbl.remove t.cache old_page;
    write_dirty t p node;
    p

  (* Commit: store dirty pages directly to the mapped addresses, fence
     (msync), then the meta page, fence again; rotate the free lists. *)
  let commit t =
    List.iter
      (fun (page, node) ->
        let page_img = encode node in
        Device.store_coarse t.dev ~off:(page_addr t page) ~pos:0
          ~len:(String.length page_img) page_img)
      (List.rev t.dirty);
    t.dirty <- [];
    Device.fence t.dev;
    let meta =
      u64 0x4C4D4442 ^ u64 t.txn_id ^ u64 t.root ^ u64 t.next_page
      ^ String.make 32 '\000'
    in
    Device.store_coarse t.dev ~off:(page_addr t 0) ~pos:0
      ~len:(String.length meta) meta;
    Device.fence t.dev;
    ok (F.fsync t.fs t.path);
    t.txn_id <- t.txn_id + 1;
    t.free <- t.free @ t.free_later;
    t.free_later <- t.freed_now;
    t.freed_now <- []

  let reopen fs ~path =
    let meta = ok (F.read fs path ~off:0 ~len:32) in
    let g off = Int64.to_int (Bytes.get_int64_le (Bytes.of_string meta) off) in
    if g 0 <> 0x4C4D4442 then failwith "Lmdb_sim.reopen: bad meta page";
    let t =
      {
        fs;
        path;
        dev = F.device fs;
        map = [||];
        capacity = 0;
        root = g 16;
        next_page = g 24;
        txn_id = g 8 + 1;
        cache = Hashtbl.create 256;
        dirty = [];
        freed_now = [];
        free_later = [];
        free = [];
      }
    in
    grow_map t (max 64 t.next_page);
    t

  let open_ ?(capacity = 256) fs ~path =
    ok (F.create fs path);
    let t =
      {
        fs;
        path;
        dev = F.device fs;
        map = [||];
        capacity = 0;
        root = 1;
        next_page = 2;
        txn_id = 0;
        cache = Hashtbl.create 256;
        dirty = [];
        freed_now = [];
        free_later = [];
        free = [];
      }
    in
    grow_map t capacity;
    write_dirty t 1 (Leaf [||]);
    commit t;
    t

  (* Insert into an array keeping it sorted by key; replaces equal keys. *)
  let insert_sorted arr key value =
    let n = Array.length arr in
    let rec find i =
      if i = n then i
      else if fst arr.(i) >= key then i
      else find (i + 1)
    in
    let i = find 0 in
    if i < n && fst arr.(i) = key then begin
      let a = Array.copy arr in
      a.(i) <- (key, value);
      a
    end
    else
      Array.concat [ Array.sub arr 0 i; [| (key, value) |]; Array.sub arr i (n - i) ]

  (* COW insert; returns the (possibly split) replacement entries. *)
  let rec insert_rec t page key value :
      [ `One of string * int | `Two of (string * int) * (string * int) ] =
    match read_node t page with
    | Leaf kvs ->
        let kvs = insert_sorted kvs key value in
        if Array.length kvs <= leaf_cap then begin
          let p = cow t page (Leaf kvs) in
          `One ((if Array.length kvs = 0 then key else fst kvs.(0)), p)
        end
        else begin
          let mid = Array.length kvs / 2 in
          let l = Array.sub kvs 0 mid
          and r = Array.sub kvs mid (Array.length kvs - mid) in
          let pl = cow t page (Leaf l) in
          let pr = alloc_page t in
          write_dirty t pr (Leaf r);
          `Two ((fst l.(0), pl), (fst r.(0), pr))
        end
    | Branch entries ->
        let n = Array.length entries in
        let rec child i = if i + 1 < n && fst entries.(i + 1) <= key then child (i + 1) else i in
        let ci = child 0 in
        let replace =
          match insert_rec t (snd entries.(ci)) key value with
          | `One (k0, p) ->
              let e = Array.copy entries in
              e.(ci) <- ((if ci = 0 then fst entries.(0) else k0), p);
              e
          | `Two ((kl, pl), (kr, pr)) ->
              Array.concat
                [
                  Array.sub entries 0 ci;
                  [| ((if ci = 0 then fst entries.(0) else kl), pl); (kr, pr) |];
                  Array.sub entries (ci + 1) (n - ci - 1);
                ]
        in
        if Array.length replace <= branch_cap then
          `One (fst replace.(0), cow t page (Branch replace))
        else begin
          let mid = Array.length replace / 2 in
          let l = Array.sub replace 0 mid
          and r = Array.sub replace mid (Array.length replace - mid) in
          let pl = cow t page (Branch l) in
          let pr = alloc_page t in
          write_dirty t pr (Branch r);
          `Two ((fst l.(0), pl), (fst r.(0), pr))
        end

  let put t key value =
    assert (String.length key = klen && String.length value = vlen);
    match insert_rec t t.root key value with
    | `One (_, p) -> t.root <- p
    | `Two ((kl, pl), (kr, pr)) ->
        let p = alloc_page t in
        write_dirty t p (Branch [| (kl, pl); (kr, pr) |]);
        t.root <- p

  let rec get t page key =
    match read_node t page with
    | Leaf kvs ->
        Array.fold_left
          (fun acc (k, v) -> if k = key then Some v else acc)
          None kvs
    | Branch entries ->
        let n = Array.length entries in
        let rec child i = if i + 1 < n && fst entries.(i + 1) <= key then child (i + 1) else i in
        get t (snd entries.(child 0)) key

  let find t key = get t t.root key
end

(* {1 db_bench workloads} *)

let key_of i = Printf.sprintf "k%015d" i
let value_of i = String.init vlen (fun j -> Char.chr (65 + ((i + j) mod 26)))

let run (module F : Vfs.Fs.S) ~device ?(keys = 3000) workload_name =
  let dev : Device.t = device () in
  F.mkfs dev;
  let fs =
    match F.mount dev with
    | Ok fs -> fs
    | Error e -> failwith ("Lmdb_sim: mount " ^ Vfs.Errno.to_string e)
  in
  let module DB = Make (F) in
  let db = DB.open_ fs ~path:"/data.mdb" in
  let rng = Random.State.make [| 23 |] in
  let t0 = Device.now_ns dev in
  (match workload_name with
  | "fillseqbatch" ->
      for i = 0 to keys - 1 do
        DB.put db (key_of i) (value_of i);
        if i mod 100 = 99 then DB.commit db
      done;
      DB.commit db
  | "fillrandbatch" ->
      for i = 0 to keys - 1 do
        DB.put db (key_of (Random.State.int rng keys)) (value_of i);
        if i mod 100 = 99 then DB.commit db
      done;
      DB.commit db
  | "fillrand" ->
      for i = 0 to keys - 1 do
        DB.put db (key_of (Random.State.int rng keys)) (value_of i);
        DB.commit db
      done
  | s -> invalid_arg ("Lmdb_sim.run: unknown workload " ^ s));
  let dt = Device.now_ns dev - t0 in
  let sim_seconds = float_of_int dt /. 1e9 in
  {
    workload = workload_name;
    fs = F.flavor;
    ops = keys;
    sim_seconds;
    kops_per_sec = float_of_int keys /. sim_seconds /. 1000.;
  }

let workloads = [ "fillseqbatch"; "fillrandbatch"; "fillrand" ]
