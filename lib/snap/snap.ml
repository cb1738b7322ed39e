(* Crash-consistent snapshots and clones from the delta-view engine.

   A snapshot is two halves:

   - {e on-volume}: a committed slot in [Layout.Snaptab] — name, id,
     creation epoch, and the durable content hash at the quiesce fence,
     CRC-sealed and published with the usual SSU discipline (init group
     fenced {e before} the single 8-byte state-word store). The table
     survives remount; crash recovery zeroes uncommitted remnants, so a
     crash during creation leaves the old table or the new entry, never
     a torn one.
   - {e volatile}: a retained view ([Pmem.Device.retain]) pinning the
     durable image of the creation instant. Pinning is O(1); as the
     live volume diverges, the device saves each overwritten line's
     pre-image once (copy-on-write at fence drain), so a pin's resident
     cost is O(dirty lines), never O(volume). Pins die with the
     process: after remount a snapshot still lists, but rollback/clone
     need the pin and answer [EIO].

   The pin is taken {e after} the slot commit, so the pinned image
   contains the snapshot's own committed entry — ZFS-style, a snapshot
   survives its own rollback.

   Rollback is an atomic whole-volume flip (see [rollback] below):
   validated by fsck on a scratch mount of the pinned image first, then
   made crash-atomic by a redo log + intent record — before the intent
   commit a crash leaves the pre-rollback volume, after it recovery
   replays the log; no crash point exposes a half-restored volume.

   Locking: none here. Quiescence means no op may be mid-flight between
   our fence and our capture, so a multi-domain caller serializes every
   entry point against all other ops itself — the server runs snapshot
   requests under its whole-FS lock ([Serve.Engine.with_op_locks]); the
   CLI, fuzzer, bench and tests are single-domain. *)

module Device = Pmem.Device
module Geometry = Layout.Geometry
module S = Layout.Snaptab
module Fsctx = Squirrelfs.Fsctx
module Q = Faults.Quarantine

type info = {
  i_name : string;
  i_id : int;
  i_slot : int;
  i_epoch : int;  (** fence epoch at creation *)
  i_label_hash : int64;
      (** durable content hash at the quiesce fence, from the on-volume
          slot (sealed before the entry itself was published) *)
  i_pin_hash : int64 option;
      (** hash of the pinned image — the rollback target. [None] once
          the creating process is gone (table survives, pin does not).
          Differs from [i_label_hash] by exactly the slot commit. *)
  i_quarantined : bool;
}

(* The live pin behind a committed slot, if this process still holds
   one matching the slot's id. *)
let pin_of (ctx : Fsctx.t) (s : S.Slot.t) =
  match Hashtbl.find_opt ctx.snaps s.name with
  | Some p
    when p.Fsctx.sp_id = s.id && not (Device.retained_dead p.Fsctx.sp_view) ->
      Some p
  | Some _ | None -> None

let info_of ctx (s : S.Slot.t) =
  let pin = pin_of ctx s in
  {
    i_name = s.name;
    i_id = s.id;
    i_slot = s.slot;
    i_epoch = s.epoch;
    i_label_hash = s.hash;
    i_pin_hash =
      Option.map (fun p -> Device.retained_hash p.Fsctx.sp_view) pin;
    i_quarantined =
      (match pin with Some p -> p.Fsctx.sp_quarantined | None -> false);
  }

let list (ctx : Fsctx.t) = List.map (info_of ctx) (S.list ctx.dev)

let find (ctx : Fsctx.t) name =
  Option.map (info_of ctx) (S.find ctx.dev name)

(* {1 Creation} *)

let snapshot (ctx : Fsctx.t) name =
  let dev = ctx.dev in
  if not (S.valid_name name) then Error Vfs.Errno.EINVAL
  else if S.find dev name <> None then Error Vfs.Errno.EEXIST
  else
    match S.free_slot dev with
    | None -> Error Vfs.Errno.ENOSPC
    | Some slot ->
        (* A stale volatile pin under this name (its slot vanished via
           rollback) must not shadow the new snapshot. *)
        (match Hashtbl.find_opt ctx.snaps name with
        | Some p ->
            Device.release dev p.Fsctx.sp_view;
            Hashtbl.remove ctx.snaps name
        | None -> ());
        (* Quiesce: drain every pending store so the captured image is a
           fence boundary, then label it. *)
        Fsctx.fence ctx;
        let label = Device.durable_hash dev in
        let id = S.next_id dev in
        let epoch = Typestate.Token.epoch ctx.reg in
        S.Slot.write_init dev ~slot ~id ~epoch ~hash:label ~name;
        Fsctx.fence ctx;
        (* Commit point: one atomic word. A crash before the next fence
           drains it leaves an uncommitted remnant recovery zeroes. *)
        S.Slot.commit dev ~slot;
        Fsctx.fence ctx;
        (* Pin after commit, so the image contains its own entry and the
           snapshot survives its own rollback. *)
        let r = Device.retain dev in
        Hashtbl.replace ctx.snaps name
          { Fsctx.sp_slot = slot; sp_id = id; sp_view = r; sp_quarantined = false };
        Ok
          {
            i_name = name;
            i_id = id;
            i_slot = slot;
            i_epoch = epoch;
            i_label_hash = label;
            i_pin_hash = Some (Device.retained_hash r);
            i_quarantined = false;
          }

(* {1 Deletion}

   Two fenced steps so no crash point shows a torn committed entry:
   first the state word alone goes to 0 (atomic un-commit), then the
   remnant is zeroed — a crash in between leaves a nonzero uncommitted
   slot, which recovery rolls back like an interrupted creation. *)

let delete (ctx : Fsctx.t) name =
  let dev = ctx.dev in
  match S.find dev name with
  | None -> Error Vfs.Errno.ENOENT
  | Some s ->
      S.Slot.uncommit dev ~slot:s.slot;
      Fsctx.fence ctx;
      S.Slot.clear dev ~slot:s.slot;
      Fsctx.fence ctx;
      (match Hashtbl.find_opt ctx.snaps name with
      | Some p when p.Fsctx.sp_id = s.id ->
          Device.release dev p.Fsctx.sp_view;
          Hashtbl.remove ctx.snaps name
      | Some _ | None -> ());
      Ok ()

(* {1 Adoption}

   Pins are volatile: the table survives remount, the retained views do
   not. A caller that persisted a pin's delta elsewhere (sqfs keeps
   host sidecar files next to the image) can resurrect it — iff the
   evidence still checks out: the slot must exist under the same id
   (a deleted-and-recreated name gets a fresh id, so a stale sidecar is
   rejected rather than silently applied), and the supplied saved lines
   patched over the current durable base must reproduce the claimed
   capture hash exactly. *)

let adopt (ctx : Fsctx.t) name ~id ~hash ~saved =
  let dev = ctx.dev in
  match S.find dev name with
  | None -> Error Vfs.Errno.ENOENT
  | Some s when s.id <> id -> Error Vfs.Errno.EINVAL
  | Some s ->
      let r = Device.retain_at dev ~hash ~saved in
      if Device.view_hash dev (Device.view_of_retained dev r) <> hash then begin
        Device.release dev r;
        Error Vfs.Errno.EIO
      end
      else begin
        (match Hashtbl.find_opt ctx.snaps name with
        | Some p ->
            Device.release dev p.Fsctx.sp_view;
            Hashtbl.remove ctx.snaps name
        | None -> ());
        Hashtbl.replace ctx.snaps name
          {
            Fsctx.sp_slot = s.slot;
            sp_id = id;
            sp_view = r;
            sp_quarantined = false;
          };
        Ok ()
      end

(* {1 Integrity: scrub + quarantine}

   A pin shares still-unchanged physical lines with the live image, so
   media rot in a shared line silently corrupts the pinned content
   ([Device.flip_bit] deliberately bypasses the copy-on-write save).
   The scrubber recomputes each pinned image's content hash in O(dirty
   lines) — the saved pre-images patched over the live base, exactly
   [Device.view_hash] — and compares it with the hash recorded at
   capture. On mismatch the pin is quarantined (rollback and clone
   refuse with [EIO]) and the rot, when the device's ECC scrub can
   locate it, lands in the [lib/faults] quarantine like any other media
   corruption. *)

let obj_of_off (geo : Geometry.t) off =
  if off >= geo.data_off then Q.Page ((off - geo.data_off) / Geometry.page_size)
  else if off >= geo.page_desc_off then
    Q.Page ((off - geo.page_desc_off) / Geometry.desc_size)
  else if off >= geo.inode_table_off then
    Q.Ino (((off - geo.inode_table_off) / Geometry.inode_size) + 1)
  else Q.Superblock

let pin_intact (ctx : Fsctx.t) (p : Fsctx.snap_pin) =
  Device.view_hash ctx.dev (Device.view_of_retained ctx.dev p.Fsctx.sp_view)
  = Device.retained_hash p.Fsctx.sp_view

let quarantine_pin (ctx : Fsctx.t) name (p : Fsctx.snap_pin) =
  p.Fsctx.sp_quarantined <- true;
  let reason =
    Printf.sprintf "snapshot %S: pinned content diverged from capture hash"
      name
  in
  match Device.scrub ctx.dev with
  | [] -> Q.add ctx.quar ~reason Q.Superblock
  | offs -> List.iter (fun off -> Q.add ctx.quar ~reason (obj_of_off ctx.geo off)) offs

(* Full pass over every live pin, in name order (deterministic). *)
let scrub (ctx : Fsctx.t) =
  Hashtbl.fold (fun name _ acc -> name :: acc) ctx.snaps []
  |> List.sort compare
  |> List.map (fun name ->
         let ok =
           match
             Hashtbl.find_opt ctx.snaps name with
           | None -> false
           | Some p ->
               if
                 p.Fsctx.sp_quarantined
                 || Device.retained_dead p.Fsctx.sp_view
               then false
               else if pin_intact ctx p then true
               else begin
                 quarantine_pin ctx name p;
                 false
               end
         in
         (name, ok))

(* {1 Reading a pinned image} *)

(* The live pin behind [name], checked against the on-volume table. *)
let live_pin (ctx : Fsctx.t) name =
  match S.find ctx.dev name with
  | None -> Error Vfs.Errno.ENOENT
  | Some s -> (
      match pin_of ctx s with
      | None -> Error Vfs.Errno.EIO (* table survived, pin did not *)
      | Some p when p.Fsctx.sp_quarantined -> Error Vfs.Errno.EIO
      | Some p -> Ok p)

let image (ctx : Fsctx.t) name =
  Result.map
    (fun (p : Fsctx.snap_pin) ->
      Device.materialize ctx.dev (Device.view_of_retained ctx.dev p.Fsctx.sp_view))
    (live_pin ctx name)

(* The live pin's persistable evidence — capture hash plus saved
   pre-image lines — for callers that park pins outside the process
   (the sqfs sidecar files) and resurrect them with [adopt]. *)
let pin_delta (ctx : Fsctx.t) name =
  match live_pin ctx name with
  | Error _ -> None
  | Ok p ->
      Some
        ( Device.retained_hash p.Fsctx.sp_view,
          Device.retained_saved p.Fsctx.sp_view )

(* {1 Diff}

   [(line_off, content_in_a, content_in_b)] for every line where the
   two pinned images differ. Cost is O(dirty lines of a + dirty lines
   of b): lines saved by neither pin are shared with the live base and
   therefore identical. Applying the [b] column of [diff a b] to a
   materialized [a] reproduces [b] line for line ([apply_diff]). *)

let diff (ctx : Fsctx.t) a b =
  match (live_pin ctx a, live_pin ctx b) with
  | Error e, _ | _, Error e -> Error e
  | Ok pa, Ok pb ->
      let dev = ctx.dev in
      let sa = Hashtbl.create 64 and sb = Hashtbl.create 64 in
      List.iter (fun (i, l) -> Hashtbl.replace sa i l)
        (Device.retained_saved pa.Fsctx.sp_view);
      List.iter (fun (i, l) -> Hashtbl.replace sb i l)
        (Device.retained_saved pb.Fsctx.sp_view);
      let line tbl idx =
        match Hashtbl.find_opt tbl idx with
        | Some b -> Bytes.to_string b
        | None ->
            Bytes.to_string
              (Device.peek dev ~off:(idx * Device.line_size)
                 ~len:Device.line_size)
      in
      let idxs = Hashtbl.create 64 in
      Hashtbl.iter (fun i _ -> Hashtbl.replace idxs i ()) sa;
      Hashtbl.iter (fun i _ -> Hashtbl.replace idxs i ()) sb;
      Ok
        (Hashtbl.fold (fun i () acc -> i :: acc) idxs []
        |> List.sort compare
        |> List.filter_map (fun idx ->
               let la = line sa idx and lb = line sb idx in
               if la = lb then None
               else Some (idx * Device.line_size, la, lb)))

let apply_diff img d =
  List.iter (fun (off, _, lb) -> Bytes.blit_string lb 0 img off (String.length lb)) d;
  img

(* {1 Clone}

   A writable fork: the pinned image exported as backed spans feeds a
   fresh (sparse-capable) device, which then mounts normally — its own
   context, index, and allocator reservation, fully isolated from the
   parent. The capture was quiesced, so the clone's recovery mount
   finds at most the orphans that were legitimately in flight (open
   tmpfiles), exactly as if the pinned image were a crash image. *)

let clone (ctx : Fsctx.t) name =
  match live_pin ctx name with
  | Error e -> Error e
  | Ok p ->
      if not (pin_intact ctx p) then begin
        quarantine_pin ctx name p;
        Error Vfs.Errno.EIO
      end
      else
        let spans = Device.retained_spans ctx.dev p.Fsctx.sp_view in
        let cdev = Device.of_spans ~size:(Device.size ctx.dev) spans in
        Squirrelfs.Mount.mount cdev

(* {1 Rollback}

   Atomic whole-volume flip to a pinned image, crash-safe via a redo
   log. The moving parts:

   - {e restore set}: the pin's saved pre-images are exactly the lines
     that changed since capture, so restoring them (and nothing else)
     is O(dirty lines).
   - {e redo log}: chained data pages holding [(off, pre-image)]
     entries. Log pages must be free {e now} (fresh from the allocator)
     {e and} free {e at capture} (their descriptor line was durably
     zero in the pinned image) — free-at-capture pages need no restore,
     which breaks the circularity of a log that would otherwise have to
     log itself (a 4 KiB page logs 56 entries but spans 64 lines, so
     self-logging cannot converge).
   - {e intent}: one committed record naming the log chain. Its
     state-word fence is the rollback commit point: crash before it and
     recovery just zeroes the partial intent (pre-rollback volume
     intact, phase-A restores not yet begun); crash after it and
     recovery replays the log — idempotent, so a crash during replay
     replays again.
   - phases: A restore every non-log-page line; B clear the intent
     state word; C restore the log pages' own lines from the pin (the
     log writes themselves were copy-on-write-saved into every live
     pin, including the target) and zero the intent remnant. After C
     the durable image equals the pinned image bit for bit — the
     device's content hash must equal the pin's.

   After the flip every volatile structure is rebuilt from the restored
   volume (fresh index + allocator through the ordinary mount rebuild,
   open-file and tmpfile tables dropped), and pins whose table entries
   vanished with the flip are released. *)

let line_of_intent idx =
  idx >= S.intent_off / Device.line_size
  && idx < (S.intent_off + S.slot_size) / Device.line_size

let rollback (ctx : Fsctx.t) name =
  let dev = ctx.dev and geo = ctx.geo in
  match live_pin ctx name with
  | Error e -> Error e
  | Ok p ->
      let r = p.Fsctx.sp_view in
      (* Every volatile structure is rebuilt from the restored volume
         once the flip lands: open handles and anonymous tmpfiles do
         not survive (their inodes may not exist in the restored tree —
         and registries captured {e before} the snapshot died with it,
         so recovery reclaims the now-orphaned inodes, exactly as a
         remount would). Pins of snapshots that vanished with the flip
         (created after the target, so absent from its table) die too;
         surviving entries keep their pins — including the target's
         own, so rolling back twice is legal. *)
      let finish_volatile () =
        Hashtbl.reset ctx.oft;
        Hashtbl.reset ctx.anon;
        ctx.index <- Squirrelfs.Index.create ();
        ctx.alloc <- Fsctx.fresh_alloc ctx;
        (* a degraded volume stays unrepaired, as at mount *)
        Squirrelfs.Mount.rebuild ctx
          ~recover:(not (Squirrelfs.Mount.degraded ctx));
        let table = S.list dev in
        let stale =
          Hashtbl.fold
            (fun n (q : Fsctx.snap_pin) acc ->
              if
                List.exists
                  (fun (s : S.Slot.t) -> s.name = n && s.id = q.sp_id)
                  table
              then acc
              else n :: acc)
            ctx.snaps []
        in
        List.iter
          (fun n ->
            (match Hashtbl.find_opt ctx.snaps n with
            | Some q -> Device.release dev q.Fsctx.sp_view
            | None -> ());
            Hashtbl.remove ctx.snaps n)
          stale
      in
      (* Quiesce, then verify the pin end to end: content hash against
         the capture hash (media rot in shared lines), then fsck on a
         scratch mount of the pinned image. Refuse — and quarantine —
         rather than flip the volume onto a bad image. *)
      Fsctx.fence ctx;
      if Device.durable_hash dev = Device.retained_hash r then begin
        (* Durably a no-op — but the volatile contract still applies:
           tags and handles die on every successful rollback, whether
           or not a line had to move. *)
        finish_volatile ();
        Ok ()
      end
      else if not (pin_intact ctx p) then begin
        quarantine_pin ctx name p;
        Error Vfs.Errno.EIO
      end
      else begin
        let valid =
          let vdev =
            Device.of_spans ~size:(Device.size dev)
              (Device.retained_spans dev r)
          in
          match Squirrelfs.Mount.mount vdev with
          | Error _ -> false
          | Ok vctx -> Squirrelfs.Fsck.check vctx = []
        in
        if not valid then begin
          quarantine_pin ctx name p;
          Error Vfs.Errno.EIO
        end
        else begin
          let saved = Hashtbl.create 64 in
          List.iter (fun (i, l) -> Hashtbl.replace saved i l)
            (Device.retained_saved r);
          (* Phase-A set: every dirty line except the intent's own (they
             are zero in the capture and handled in phase C). *)
          let restore =
            Hashtbl.fold
              (fun idx l acc ->
                if line_of_intent idx then acc else (idx, l) :: acc)
              saved []
            |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
          in
          (* Log pages: free now and free at capture. *)
          let cap_desc_zero page =
            let doff = Geometry.desc_off geo ~page in
            let line =
              match Hashtbl.find_opt saved (doff / Device.line_size) with
              | Some b -> Bytes.to_string b
              | None ->
                  Bytes.to_string
                    (Device.peek dev
                       ~off:(doff / Device.line_size * Device.line_size)
                       ~len:Device.line_size)
            in
            let lo = doff mod Device.line_size in
            String.for_all (fun c -> c = '\000')
              (String.sub line lo (min Geometry.desc_size (Device.line_size - lo)))
          in
          let n_entries = List.length restore in
          let n_pages =
            (n_entries + S.Log.entries_per_page - 1) / S.Log.entries_per_page
          in
          let rec pick acc rejected n =
            if n = 0 then Some (List.rev acc, rejected)
            else
              match Squirrelfs.Alloc.alloc_page ctx.alloc with
              | None -> None
              | Some page ->
                  if cap_desc_zero page then pick (page :: acc) rejected (n - 1)
                  else pick acc (page :: rejected) n
          in
          match pick [] [] n_pages with
          | None -> Error Vfs.Errno.ENOSPC
          | Some (log_pages, rejected) ->
              List.iter (Squirrelfs.Alloc.free_page ctx.alloc) rejected;
              let log_lines = Hashtbl.create 64 in
              List.iter
                (fun page ->
                  let base = Geometry.page_off geo ~page in
                  for i = 0 to (Geometry.page_size / Device.line_size) - 1 do
                    Hashtbl.replace log_lines
                      ((base / Device.line_size) + i)
                      ()
                  done)
                log_pages;
              (* The log records the phase-A work minus lines living in
                 the log pages themselves (phase C / free-at-capture
                 covers those). *)
              let logged =
                List.filter
                  (fun (idx, _) -> not (Hashtbl.mem log_lines idx))
                  restore
              in
              (* Write the chain. *)
              let rec write_chain pages entries =
                match pages with
                | [] -> assert (entries = [])
                | page :: rest ->
                    let base = Geometry.page_off geo ~page in
                    let rec split n acc = function
                      | e :: tl when n > 0 -> split (n - 1) (e :: acc) tl
                      | tl -> (List.rev acc, tl)
                    in
                    let chunk, remaining =
                      split S.Log.entries_per_page [] entries
                    in
                    Device.store_u64 dev (base + S.Log.f_next)
                      (match rest with [] -> 0 | q :: _ -> q + 1);
                    Device.store_u64 dev (base + S.Log.f_count)
                      (List.length chunk);
                    List.iteri
                      (fun i (idx, l) ->
                        S.Log.write_entry dev ~page_base:base i
                          ~off:(idx * Device.line_size)
                          (Bytes.to_string l))
                      chunk;
                    Device.flush dev ~off:base ~len:Geometry.page_size;
                    write_chain rest remaining
              in
              write_chain log_pages logged;
              Fsctx.fence ctx;
              (* Intent: init group, fence, then the atomic commit. *)
              S.Intent.write_init dev ~slot:p.Fsctx.sp_slot
                ~log_page:(match log_pages with [] -> -1 | q :: _ -> q)
                ~count:(List.length logged);
              Fsctx.fence ctx;
              S.Intent.commit dev;
              Fsctx.fence ctx;
              (* Phase A: restore every logged line. *)
              List.iter
                (fun (idx, l) ->
                  Device.store dev
                    ~off:(idx * Device.line_size)
                    (Bytes.to_string l);
                  Device.flush dev
                    ~off:(idx * Device.line_size)
                    ~len:Device.line_size)
                logged;
              Fsctx.fence ctx;
              (* Phase B: retire the intent (atomic un-commit). *)
              S.Intent.uncommit dev;
              Fsctx.fence ctx;
              (* Phase C: the log pages' own lines — any of them dirty
                 since capture (including by the log writes just made,
                 which were saved into the pin at the fences above) go
                 back to capture content; then the intent remnant is
                 zeroed. *)
              let saved_now = Hashtbl.create 64 in
              List.iter (fun (i, l) -> Hashtbl.replace saved_now i l)
                (Device.retained_saved r);
              Hashtbl.iter
                (fun idx () ->
                  match Hashtbl.find_opt saved_now idx with
                  | Some l ->
                      Device.store dev
                        ~off:(idx * Device.line_size)
                        (Bytes.to_string l);
                      Device.flush dev
                        ~off:(idx * Device.line_size)
                        ~len:Device.line_size
                  | None -> ())
                log_lines;
              S.Intent.clear dev;
              Fsctx.fence ctx;
              (* The flip itself is complete and must be exact: bit for
                 bit the pinned image, checked {e before} the rebuild
                 below (whose recovery pass may legitimately reclaim
                 inodes that were anonymous at capture, moving the hash
                 off the pin again). *)
              let restored = Device.durable_hash dev = Device.retained_hash r in
              finish_volatile ();
              if restored then Ok () else Error Vfs.Errno.EIO
        end
      end
