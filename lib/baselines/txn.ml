(** Redo journaling for the baseline file systems.

    Metadata updates are staged during an operation, then committed:
    journal write, fence, commit record, fence, in-place application,
    fence, checkpoint mark. [Block_journal] journals whole 4 KiB block
    images (JBD2/Ext4); [Record_journal] journals only the changed byte
    ranges (NOVA's journal, WineFS's fine-grained journal). Mount replays
    a committed-but-not-checkpointed transaction. *)

module Device = Pmem.Device

let j_magic = 0x4A524E4C (* "JRNL" *)
let c_magic = 0x434D4954 (* "CMIT" *)

type t = {
  dev : Device.t;
  lay : Blayout.t;
  prof : Profile.t;
  mutable seq : int;
  mutable staged : (int * string) list; (* newest first *)
  mutable touched : int list; (* inodes touched by the current op *)
  mutable log_cursor : int; (* NOVA inode-log write position *)
}

let create dev lay prof ~seq =
  { dev; lay; prof; seq; staged = []; touched = []; log_cursor = 0 }

let u64 v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Bytes.to_string b

let stage t ~off data = t.staged <- (off, data) :: t.staged

let stage_u64 t ~off v = stage t ~off (u64 v)

let touch_inode t ino =
  if not (List.mem ino t.touched) then t.touched <- ino :: t.touched

(* NOVA: one 64-byte inode-log entry per touched inode, written to the
   circular log region. *)
let log_appends t =
  List.iter
    (fun ino ->
      let entry = u64 ino ^ u64 t.seq ^ String.make 48 '\000' in
      let off = t.lay.Blayout.log_off + t.log_cursor in
      Device.store_nt t.dev ~off entry;
      t.log_cursor <- (t.log_cursor + 64) mod Blayout.log_region_size)
    t.touched

let journal_limit t =
  t.lay.Blayout.journal_off + (Blayout.journal_blocks * Blayout.block_size)

(* Write the journal payload for the staged updates; returns the device
   offset one past the payload (where the commit record goes). *)
let write_payload t =
  let joff = t.lay.Blayout.journal_off in
  match t.prof.Profile.mode with
  | Profile.Block_journal ->
      (* group staged updates by 4 KiB block and journal new images *)
      let blocks = Hashtbl.create 8 in
      List.iter
        (fun (off, data) ->
          let last = off + String.length data - 1 in
          for b = off / Blayout.block_size to last / Blayout.block_size do
            Hashtbl.replace blocks b ()
          done)
        t.staged;
      let targets = Hashtbl.fold (fun b () acc -> b :: acc) blocks [] in
      let header =
        u64 j_magic ^ u64 t.seq ^ u64 1 (* mode tag *)
        ^ u64 (List.length targets)
        ^ String.concat "" (List.map u64 targets)
      in
      Device.store_coarse t.dev ~off:joff ~pos:0 ~len:(String.length header)
        header;
      Device.charge t.dev t.prof.Profile.journal_io_ns;
      let pos = ref (joff + Blayout.block_size) in
      List.iter
        (fun b ->
          let boff = b * Blayout.block_size in
          let img = Device.read t.dev ~off:boff ~len:Blayout.block_size in
          (* the staged updates are already reflected in [latest], since
             stores happen at stage time? they do not: apply them here *)
          List.iter
            (fun (off, data) ->
              (* clamp to this block: staged writes may straddle blocks *)
              let len = String.length data in
              let lo = max off boff
              and hi = min (off + len) (boff + Blayout.block_size) in
              if hi > lo then
                Bytes.blit_string data (lo - off) img (lo - boff) (hi - lo))
            (List.rev t.staged);
          Device.store_coarse t.dev ~off:!pos ~pos:0 ~len:(Bytes.length img)
            (Bytes.to_string img);
          Device.charge t.dev t.prof.Profile.journal_io_ns;
          if !pos + (2 * Blayout.block_size) > journal_limit t then
            failwith "Txn: journal overflow";
          pos := !pos + Blayout.block_size)
        targets;
      !pos
  | Profile.Record_journal ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf (u64 j_magic);
      Buffer.add_string buf (u64 t.seq);
      Buffer.add_string buf (u64 2);
      Buffer.add_string buf (u64 (List.length t.staged));
      List.iter
        (fun (off, data) ->
          Buffer.add_string buf (u64 off);
          Buffer.add_string buf (u64 (String.length data));
          Buffer.add_string buf data;
          let pad = (8 - (String.length data mod 8)) mod 8 in
          Buffer.add_string buf (String.make pad '\000');
          Device.charge t.dev t.prof.Profile.journal_io_ns)
        (List.rev t.staged);
      let payload = Buffer.contents buf in
      if joff + String.length payload + 16 > journal_limit t then
        failwith "Txn: journal overflow";
      Device.store_coarse t.dev ~off:joff ~pos:0 ~len:(String.length payload)
        payload;
      joff + ((String.length payload + 7) / 8 * 8)

let commit t =
  if t.staged = [] then begin
    t.touched <- [];
    ()
  end
  else begin
    if t.prof.Profile.inode_log_append then log_appends t;
    if
      t.prof.Profile.multi_inode_journal_ns > 0
      && List.length t.touched >= 2
    then Device.charge t.dev t.prof.Profile.multi_inode_journal_ns;
    let commit_off = write_payload t in
    Device.fence t.dev;
    Device.store_nt t.dev ~off:commit_off (u64 c_magic ^ u64 t.seq);
    Device.fence t.dev;
    (* in-place application *)
    List.iter
      (fun (off, data) ->
        Device.store t.dev ~off data;
        Device.flush t.dev ~off ~len:(String.length data))
      (List.rev t.staged);
    Device.fence t.dev;
    (* checkpoint: this transaction no longer needs replay *)
    Device.store_u64 t.dev Blayout.s_jseq t.seq;
    Device.persist t.dev ~off:Blayout.s_jseq ~len:8;
    t.staged <- [];
    t.touched <- [];
    t.seq <- t.seq + 1
  end

(* Abort an operation that staged updates but failed validation. *)
let abort t =
  t.staged <- [];
  t.touched <- []

(* {1 Replay} *)

let read_u64s dev off n = List.init n (fun i -> Device.read_u64 dev (off + (8 * i)))

let replay dev (lay : Blayout.t) =
  let joff = lay.journal_off in
  let checkpointed = Device.read_u64 dev Blayout.s_jseq in
  if Device.read_u64 dev joff <> j_magic then checkpointed
  else begin
    let seq = Device.read_u64 dev (joff + 8) in
    let mode = Device.read_u64 dev (joff + 16) in
    let n = Device.read_u64 dev (joff + 24) in
    if seq <= checkpointed then checkpointed
    else begin
      let commit_ok commit_off =
        Device.read_u64 dev commit_off = c_magic
        && Device.read_u64 dev (commit_off + 8) = seq
      in
      (match mode with
      | 1 ->
          let targets = read_u64s dev (joff + 32) n in
          let commit_off = joff + ((1 + n) * Blayout.block_size) in
          if commit_ok commit_off then begin
            List.iteri
              (fun i b ->
                let img =
                  Device.read dev
                    ~off:(joff + ((1 + i) * Blayout.block_size))
                    ~len:Blayout.block_size
                in
                Device.store_coarse dev ~off:(b * Blayout.block_size) ~pos:0
                  ~len:(Bytes.length img) (Bytes.to_string img))
              targets;
            Device.fence dev;
            Device.store_u64 dev Blayout.s_jseq seq;
            Device.persist dev ~off:Blayout.s_jseq ~len:8
          end
      | 2 ->
          (* walk the records to find the commit offset *)
          let pos = ref (joff + 32) in
          let records = ref [] in
          (try
             for _ = 1 to n do
               let off = Device.read_u64 dev !pos in
               let len = Device.read_u64 dev (!pos + 8) in
               if len > Blayout.block_size then raise Exit;
               let data = Device.read dev ~off:(!pos + 16) ~len in
               records := (off, Bytes.to_string data) :: !records;
               pos := !pos + 16 + ((len + 7) / 8 * 8)
             done;
             if commit_ok !pos then begin
               List.iter
                 (fun (off, data) ->
                   Device.store dev ~off data;
                   Device.flush dev ~off ~len:(String.length data))
                 (List.rev !records);
               Device.fence dev;
               Device.store_u64 dev Blayout.s_jseq seq;
               Device.persist dev ~off:Blayout.s_jseq ~len:8
             end
           with Exit -> ())
      | _ -> ());
      Device.read_u64 dev Blayout.s_jseq
    end
  end
