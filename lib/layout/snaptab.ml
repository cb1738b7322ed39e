module Device = Pmem.Device

(* On-volume snapshot metadata, all of it inside the tail of the
   superblock page (offset 0 .. sb_size): the superblock proper ends
   well before byte 128, so bytes [512, 4096) were durably zero on every
   existing volume — placing the snapshot table there changes no
   geometry, no existing record, and no historical observable (an
   all-zero table decodes as "no snapshots").

   Layout:
   - [intent_off, intent_off+128): the rollback intent record (its own
     two cache lines, so intent stores never share a line with slots).
   - [table_off, table_off+slots*slot_size) = [1024, 4096): the slot
     array, 24 slots of 128 bytes (two cache lines) each.

   Commit discipline mirrors the other records (SSU, paper §3.4): all
   init fields plus a CRC over the sealed (immutable) fields are made
   durable by a fence {e before} the single 8-byte state word is
   stored. A committed slot/intent therefore always carries a valid
   CRC; a nonzero-but-uncommitted one is a crash remnant that recovery
   rolls back by zeroing. *)

let intent_off = 512
let table_off = 1024
let slots = 24
let slot_size = 128
let name_max = 63

let slot_off slot =
  if slot < 0 || slot >= slots then
    invalid_arg (Printf.sprintf "Layout.Snaptab.slot_off: bad slot %d" slot);
  table_off + (slot * slot_size)

(* Snapshot names: nonempty, at most [name_max] bytes, no NUL (the
   on-volume field is NUL-padded) and no '/' (CLI path hygiene). *)
let valid_name s =
  let n = String.length s in
  n > 0 && n <= name_max
  && String.for_all (fun c -> c <> '\000' && c <> '/') s

let crc_ns = Records.crc_ns

let crc_of_ranges dev ~base ranges =
  List.fold_left
    (fun crc (off, len) ->
      let b = Device.read_meta dev ~off:(base + off) ~len in
      Faults.Crc32.digest_bytes ~crc b ~off:0 ~len)
    0 ranges

(* 64-bit stores/reads that keep all 64 bits (content hashes): OCaml's
   [int] is 63-bit, so the u64 helpers on [Device] cannot carry them. An
   aligned 8-byte [store] is a single record, hence crash-atomic. *)
let store_i64 dev off v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Device.store dev ~off (Bytes.to_string b)

let read_i64 dev off = Bytes.get_int64_le (Device.read_meta dev ~off ~len:8) 0

module Slot = struct
  let f_state = 0 (* u64: 0 = free, 1 = committed; the atomic commit *)
  let f_id = 8 (* u64, monotonically increasing snapshot id *)
  let f_epoch = 16 (* u64, fence epoch at creation *)
  let f_hash = 24 (* i64 durable content hash at the creation fence *)
  let f_crc = 32 (* u32 over [sealed_ranges] *)
  let f_name = 40 (* [name_max]-byte NUL-padded name *)

  (* id, epoch, hash, then everything after the CRC word (padding +
     name + padding); the mutable state word and the CRC itself are
     excluded. *)
  let sealed_ranges = [ (8, 24); (36, 92) ]

  type t = { slot : int; id : int; epoch : int; hash : int64; name : string }

  let state dev ~slot = Device.read_u64 dev (slot_off slot + f_state)

  let is_free dev ~slot =
    not (Records.any_nonzero dev (slot_off slot) slot_size)

  let seal dev ~slot =
    let base = slot_off slot in
    Device.store_u32 dev (base + f_crc) (crc_of_ranges dev ~base sealed_ranges);
    Device.charge dev crc_ns

  let verify dev ~slot =
    let base = slot_off slot in
    Device.charge dev crc_ns;
    match crc_of_ranges dev ~base sealed_ranges with
    | crc -> crc = Device.read_u32 dev (base + f_crc)
    | exception Device.Media_error _ -> false

  (* Store every init field plus the CRC and flush them; the caller
     fences, then calls [commit]. The state word stays zero here. *)
  let write_init dev ~slot ~id ~epoch ~hash ~name =
    if not (valid_name name) then
      invalid_arg "Layout.Snaptab.Slot.write_init: bad name";
    let base = slot_off slot in
    Device.store_u64 dev (base + f_id) id;
    Device.store_u64 dev (base + f_epoch) epoch;
    store_i64 dev (base + f_hash) hash;
    let padded = Bytes.make (name_max + 1) '\000' in
    Bytes.blit_string name 0 padded 0 (String.length name);
    Device.store dev ~off:(base + f_name) (Bytes.to_string padded);
    seal dev ~slot;
    Device.flush dev ~off:base ~len:slot_size

  (* Atomic publish: store + flush only — the caller issues the fence
     (orchestration layers fence through [Fsctx.fence] so epoch hooks
     fire). *)
  let commit dev ~slot =
    Device.store_u64 dev (slot_off slot + f_state) 1;
    Device.flush dev ~off:(slot_off slot + f_state) ~len:8

  (* First half of a crash-safe delete: atomically un-commit the slot.
     After the caller's fence the slot is a nonzero-uncommitted remnant
     (recovery zeroes it), so no crash point shows a torn committed
     entry. *)
  let uncommit dev ~slot =
    Device.store_u64 dev (slot_off slot + f_state) 0;
    Device.flush dev ~off:(slot_off slot + f_state) ~len:8

  let clear dev ~slot =
    Device.zero dev ~off:(slot_off slot) ~len:slot_size

  let decode dev ~slot =
    let base = slot_off slot in
    if Device.read_u64 dev (base + f_state) <> 1 then None
    else
      let raw =
        Bytes.to_string (Device.read_meta dev ~off:(base + f_name) ~len:name_max)
      in
      let name =
        match String.index_opt raw '\000' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      Some
        {
          slot;
          id = Device.read_u64 dev (base + f_id);
          epoch = Device.read_u64 dev (base + f_epoch);
          hash = read_i64 dev (base + f_hash);
          name;
        }
end

(* Committed slots, ascending by slot index. *)
let list dev =
  let rec go slot acc =
    if slot >= slots then List.rev acc
    else
      match Slot.decode dev ~slot with
      | Some s -> go (slot + 1) (s :: acc)
      | None -> go (slot + 1) acc
  in
  go 0 []

let find dev name =
  List.find_opt (fun (s : Slot.t) -> s.name = name) (list dev)

let free_slot dev =
  let rec go slot =
    if slot >= slots then None
    else if Slot.is_free dev ~slot then Some slot
    else go (slot + 1)
  in
  go 0

let next_id dev =
  1 + List.fold_left (fun m (s : Slot.t) -> max m s.id) 0 (list dev)

(* {1 Rollback intent}

   Redo-log commit record for atomic rollback: once the intent's state
   word is durable, recovery replays the chained log pages (restoring
   the pinned image) and then clears the intent; before that, a crash
   leaves the pre-rollback state and recovery just zeroes the partial
   intent. Either way, no crash point exposes a half-restored volume. *)

module Intent = struct
  let f_state = 0 (* u64: 0 = none, 1 = committed *)
  let f_slot = 8 (* u64, slot being rolled back to *)
  let f_log = 16 (* u64, first log page index + 1 *)
  let f_count = 24 (* u64, total log entries across the chain *)
  let f_crc = 32 (* u32 over [sealed_ranges] *)
  let sealed_ranges = [ (8, 24); (36, 92) ]

  type t = { slot : int; log_page : int; count : int }

  let state dev = Device.read_u64 dev (intent_off + f_state)

  let is_free dev = not (Records.any_nonzero dev intent_off slot_size)

  let seal dev =
    let base = intent_off in
    Device.store_u32 dev (base + f_crc) (crc_of_ranges dev ~base sealed_ranges);
    Device.charge dev crc_ns

  let verify dev =
    let base = intent_off in
    Device.charge dev crc_ns;
    match crc_of_ranges dev ~base sealed_ranges with
    | crc -> crc = Device.read_u32 dev (base + f_crc)
    | exception Device.Media_error _ -> false

  let write_init dev ~slot ~log_page ~count =
    let base = intent_off in
    Device.store_u64 dev (base + f_slot) slot;
    Device.store_u64 dev (base + f_log) (log_page + 1);
    Device.store_u64 dev (base + f_count) count;
    seal dev;
    Device.flush dev ~off:base ~len:slot_size

  (* Store + flush only; the caller's fence is the rollback commit
     point. *)
  let commit dev =
    Device.store_u64 dev (intent_off + f_state) 1;
    Device.flush dev ~off:(intent_off + f_state) ~len:8

  let uncommit dev =
    Device.store_u64 dev (intent_off + f_state) 0;
    Device.flush dev ~off:(intent_off + f_state) ~len:8

  let clear dev = Device.zero dev ~off:intent_off ~len:slot_size

  let decode dev =
    if state dev <> 1 then None
    else
      Some
        {
          slot = Device.read_u64 dev (intent_off + f_slot);
          log_page = Device.read_u64 dev (intent_off + f_log) - 1;
          count = Device.read_u64 dev (intent_off + f_count);
        }
end

(* {1 The whole table from one window}

   The intent and the slots lie in the superblock page, so one zero-copy
   window ([Device.record_view], uncharged) serves every record: [read]
   decodes what [state], [is_free], [verify] and [decode] read of each,
   and a consumer bills the calls it stands for through a [bill]. *)

type entry = {
  state : int;  (** the state word *)
  free : bool;  (** every byte zero *)
  sealed : bool;  (** committed ([state = 1]) with a matching CRC *)
}

type table = {
  intent : entry;
  intent_rec : Intent.t option;  (** what [Intent.decode] returns *)
  slot : entry array;
  slot_rec : Slot.t option array;  (** what [Slot.decode] returns *)
}

let zero_entry = { state = 0; free = true; sealed = false }

let window_entry buf pos ~f_crc ranges =
  if not (Records.window_nonzero buf pos slot_size) then zero_entry
  else
    let state = Records.word buf pos in
    let sealed =
      state = 1
      && List.fold_left
           (fun crc (off, len) -> Faults.Crc32.digest_bytes ~crc buf ~off:(pos + off) ~len)
           0 ranges
         = Int32.to_int (Bytes.get_int32_le buf (pos + f_crc)) land 0xFFFFFFFF
    in
    { state; free = false; sealed }

let window_slot buf pos ~slot =
  let raw = Bytes.sub_string buf (pos + Slot.f_name) name_max in
  let name =
    match String.index_opt raw '\000' with Some i -> String.sub raw 0 i | None -> raw
  in
  {
    Slot.slot;
    id = Records.word buf (pos + Slot.f_id);
    epoch = Records.word buf (pos + Slot.f_epoch);
    hash = Bytes.get_int64_le buf (pos + Slot.f_hash);
    name;
  }

(* The table of a volume without snapshots, shared. *)
let zero_table =
  {
    intent = zero_entry;
    intent_rec = None;
    slot = Array.make slots zero_entry;
    slot_rec = Array.make slots None;
  }

let read dev =
  let len = table_off + (slots * slot_size) - intent_off in
  match Device.record_view dev ~off:intent_off ~len with
  | None -> zero_table
  | Some (buf, pos) when not (Records.window_nonzero buf pos len) -> zero_table
  | Some (buf, pos) ->
      let at off = pos + off - intent_off in
      let intent = window_entry buf (at intent_off) ~f_crc:Intent.f_crc Intent.sealed_ranges in
      let intent_rec =
        if intent.state <> 1 then None
        else
          let w f = Records.word buf (at intent_off + f) in
          Some
            { Intent.slot = w Intent.f_slot; log_page = w Intent.f_log - 1; count = w Intent.f_count }
      in
      let slot =
        Array.init slots (fun slot ->
            window_entry buf (at (slot_off slot)) ~f_crc:Slot.f_crc Slot.sealed_ranges)
      in
      let slot_rec =
        Array.init slots (fun s ->
            if slot.(s).state <> 1 then None else Some (window_slot buf (at (slot_off s)) ~slot:s))
      in
      { intent; intent_rec; slot; slot_rec }

(* What the record readers above bill, accumulated call by call and
   billed at once by [settle]: the u64 and u32 word reads, and the bulk
   reads with their cache lines and bytes. Every record starts on a
   cache line. *)
type bill = {
  mutable u64 : int;
  mutable u32 : int;
  mutable bulk : int;
  mutable lines : int;
  mutable bytes : int;
  mutable ns : int;
}

let bill () = { u64 = 0; u32 = 0; bulk = 0; lines = 0; bytes = 0; ns = 0 }

(* a [Device.read_meta] of [len] bytes at [off] from a record's base *)
let bill_bulk b off len =
  b.bulk <- b.bulk + 1;
  b.lines <- b.lines + ((off + len - 1) / Device.line_size) - (off / Device.line_size) + 1;
  b.bytes <- b.bytes + len

let bill_state b = b.u64 <- b.u64 + 1
let bill_free b = bill_bulk b 0 slot_size

let bill_verify b ranges =
  b.ns <- b.ns + crc_ns;
  List.iter (fun (off, len) -> bill_bulk b off len) ranges;
  b.u32 <- b.u32 + 1

let bill_intent_decode b (e : entry) = b.u64 <- b.u64 + if e.state = 1 then 4 else 1

let bill_slot_decode b (e : entry) =
  bill_state b;
  if e.state = 1 then begin
    bill_bulk b Slot.f_name name_max;
    b.u64 <- b.u64 + 2;
    bill_bulk b Slot.f_hash 8
  end

let settle dev b =
  Device.charge dev b.ns;
  (* a u32 read bills as a u64 read of 4 bytes *)
  Device.charge_reads dev ~meta:(b.u64 + b.u32) ~bulk:b.bulk ~lines:b.lines
    ~bytes:(b.bytes - (4 * b.u32));
  b.u64 <- 0;
  b.u32 <- 0;
  b.bulk <- 0;
  b.lines <- 0;
  b.bytes <- 0;
  b.ns <- 0

(* {1 Redo-log pages}

   Chained data pages holding [(off, 64-byte pre-image)] entries. Log
   pages are never described (their descriptors stay zero), so they are
   invisible to fsck and the mount scan, and the allocator rebuild
   reclaims them automatically once the intent is gone. *)

module Log = struct
  let f_next = 0 (* u64, next log page index + 1; 0 = end of chain *)
  let f_count = 8 (* u64, entries in this page *)
  let header_size = 16
  let entry_size = 8 + Device.line_size
  let entries_per_page = (Geometry.page_size - header_size) / entry_size

  let entry_off ~page_base i = page_base + header_size + (i * entry_size)

  let write_entry dev ~page_base i ~off data =
    let base = entry_off ~page_base i in
    Device.store_u64 dev base off;
    Device.store dev ~off:(base + 8) data

  let read_entry dev ~page_base i =
    let base = entry_off ~page_base i in
    let off = Device.read_u64 dev base in
    let data =
      Bytes.to_string (Device.read_meta dev ~off:(base + 8) ~len:Device.line_size)
    in
    (off, data)
end
