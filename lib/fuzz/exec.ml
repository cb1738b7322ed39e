(* Differential crash-state executor.

   One sequence, two file systems: SquirrelFS on a simulated PM device and
   the in-memory reference model, op by op. Before each op the pair of
   legal logical states is fixed (model before / model after); a fence
   hook enumerates crash images at every persist point, remounts each one
   (running recovery), re-checks it with [Fsck], and requires the
   recovered tree to be one of the two — SquirrelFS metadata ops are
   synchronous and crash-atomic, so anything else is an SSU ordering bug.
   Op return values are compared too (same errno, same success), and the
   final durable state must equal the final model state exactly, file
   contents included (crash images compare without them: plain data
   writes are not crash-atomic).

   The model has no capacity limits, so a SquirrelFS [ENOSPC]/[EMLINK]
   against a model success is benign: the model is rolled back and the
   event counted as a divergence, not a violation.

   Everything around the ops (device, observers, probe hook, closing
   checks) is one run body, which [Interleave]'s coroutine scheduler
   also runs its schedules through ([run_with]).

   A fault plan formats the volume with checksummed records; torn/stuck
   media views then get a never-raise check at every fence, and a plan
   with bit flips ends each clean sequence with Phase B (flip, scrub,
   degraded remount, quarantine, EIO). *)

module Device = Pmem.Device
module Sq = Squirrelfs
module W = Crashcheck.Workload
module H = Crashcheck.Harness
module Logical = Vfs.Logical
module Errno = Vfs.Errno

type crash_point = { cp_op : int; cp_fence : int; cp_image : int }

type outcome = {
  o_report : H.report;
  o_fail : (crash_point * string) option;
  o_divergences : int;
  o_sim_ns : int;
  o_state_sig : int64;
}

(* FNV-1a-style fold of the per-image content hashes, in probe order:
   a deterministic fingerprint of the whole crash-state trace of one
   sequence. Depends only on (ops, config) — never on pooling, memo
   contents or domain placement — so the enumerator can count duplicate
   sequences across shards order-independently. *)
let sig_empty = 0xcbf29ce484222325L
let sig_add acc h = Int64.mul (Int64.logxor acc h) 0x100000001b3L

exception Abort

let root_level p =
  match Vfs.Path.split p with Ok [ name ] -> Some name | Ok _ | Error _ -> None

let unit_r = function Ok _ -> Ok () | Error e -> Error e

(* Apply one op to the live SquirrelFS. The Buggy_* variants run the raw
   mis-ordered store sequences from [Crashcheck.Buggy], guarded so their
   preconditions failing surfaces as the same clean errno the reference
   model computes (the raw variants [failwith] otherwise); capacity
   exhaustion inside a raw variant surfaces as [ENOSPC]. The guards only
   understand root-level paths — all the generator emits. *)
let apply_sq (ctx : Sq.Fsctx.t) (op : W.op) : (unit, Errno.t) result =
  match op with
  | W.Create p -> Sq.create ctx p
  | W.Mkdir p -> Sq.mkdir ctx p
  | W.Unlink p -> Sq.unlink ctx p
  | W.Rmdir p -> Sq.rmdir ctx p
  | W.Rename (a, b) -> Sq.rename ctx a b
  | W.Link (a, b) -> Sq.link ctx a b
  | W.Symlink (target, p) -> Sq.symlink ctx target p
  | W.Write (p, off, d) -> unit_r (Sq.write ctx p ~off d)
  | W.Truncate (p, n) -> Sq.truncate ctx p n
  | W.Fsync p -> Sq.fsync ctx p
  | W.Fdatasync p -> Sq.fdatasync ctx p
  | W.Tmpfile tag -> Sq.tmpfile ctx tag
  | W.Linkat (tag, p) -> Sq.linkat ctx tag p
  | W.Open (tag, p) -> Sq.open_file ctx tag p
  | W.Close tag -> Sq.close_file ctx tag
  | W.Write_h (tag, off, d) -> unit_r (Sq.write_h ctx tag ~off d)
  | W.Read_h (tag, off, len) -> unit_r (Sq.read_h ctx tag ~off ~len)
  | W.Write_atomic (p, off, d) -> (
      match Sq.stat ctx p with
      | Error e -> Error e
      | Ok st -> (
          match st.Vfs.Fs.kind with
          | Vfs.Fs.Dir -> Error Errno.EISDIR
          | Vfs.Fs.Symlink -> Error Errno.EINVAL
          | Vfs.Fs.File -> unit_r (Sq.Ops.write_atomic ctx ~ino:st.Vfs.Fs.ino ~off d)))
  | W.Buggy_create p -> (
      match root_level p with
      | None -> Error Errno.EINVAL
      | Some name -> (
          match Sq.stat ctx p with
          | Ok _ -> Error Errno.EEXIST
          | Error Errno.ENOENT -> (
              match Crashcheck.Buggy.create ctx ~dir:Layout.Geometry.root_ino ~name with
              | () -> Ok ()
              | exception Failure _ -> Error Errno.ENOSPC)
          | Error e -> Error e))
  | W.Buggy_unlink p -> (
      match root_level p with
      | None -> Error Errno.EINVAL
      | Some name -> (
          match Sq.stat ctx p with
          | Error e -> Error e
          | Ok st when st.Vfs.Fs.kind = Vfs.Fs.Dir -> Error Errno.EISDIR
          | Ok _ -> (
              match Crashcheck.Buggy.unlink ctx ~dir:Layout.Geometry.root_ino ~name with
              | () -> Ok ()
              | exception Failure _ -> Error Errno.ENOSPC)))
  | W.Buggy_write (p, d) -> (
      match Sq.stat ctx p with
      | Error e -> Error e
      | Ok st -> (
          match st.Vfs.Fs.kind with
          | Vfs.Fs.Dir -> Error Errno.EISDIR
          | Vfs.Fs.Symlink -> Error Errno.EINVAL
          | Vfs.Fs.File ->
              if String.length d = 0 || String.length d > Layout.Geometry.page_size then
                Error Errno.EINVAL
              else (
                match Crashcheck.Buggy.write_append ctx ~ino:st.Vfs.Fs.ino d with
                | () -> Ok ()
                | exception Failure _ -> Error Errno.ENOSPC)))
  | W.Snapshot n -> unit_r (Snap.snapshot ctx n)
  | W.Rollback n -> Snap.rollback ctx n
  | W.Buggy_snap n ->
      (* same precondition ladder as [Snap.snapshot] so the clean-errno
         cases stay in lockstep with the model; only the happy path runs
         the mis-ordered store sequence *)
      if not (Layout.Snaptab.valid_name n) then Error Errno.EINVAL
      else if Layout.Snaptab.find ctx.Sq.Fsctx.dev n <> None then
        Error Errno.EEXIST
      else (
        match Crashcheck.Buggy.snap_create ctx ~name:n with
        | () -> Ok ()
        | exception Failure _ -> Error Errno.ENOSPC)

(* {2 The crash-state prober}

   The one verdict every crash view gets, in every run the run body
   below makes. The content-determined part of a view's verdict —
   superblock, raw invariants, mount (recovery), the csum-degraded
   check, [Fsck] and capture — depends only on the image bytes, so it is
   memoized by full-content view hash. The comparison against the legal
   logical states stays outside the memo: it depends on which ops
   bracket the fence, not on the image. *)

type memo = {
  m_states : (int64, (Logical.t, string) result) Hashtbl.t;
  m_media : (int64, string option) Hashtbl.t;
}

let memo_create () = { m_states = Hashtbl.create 1024; m_media = Hashtbl.create 256 }

(* Per-run state. The [seen] tables are always run-local —
   [states_deduped] counts duplicates within one run only, which keeps
   reports independent of memo lifetime, pooling, and how runs are
   partitioned across domains. *)
type prober = {
  p_dev : Device.t;
  p_csum : bool;
  p_memo : memo;
  p_scr : Device.scratch Lazy.t;
  p_seen : (int64, unit) Hashtbl.t;
  p_seen_media : (int64, unit) Hashtbl.t;
  mutable p_states : int;
  mutable p_media_states : int;
  mutable p_deduped : int;
  mutable p_sig : int64;
}

let prober ~memo ~csum dev =
  {
    p_dev = dev;
    p_csum = csum;
    p_memo = memo;
    (* one scratch buffer per device (a pooled device keeps its attached
       one across resets): views are patched into it in place and
       mounted zero-copy *)
    p_scr =
      lazy
        (match Device.attached_scratch dev with
        | Some s -> s
        | None -> Device.scratch dev);
    p_seen = Hashtbl.create 256;
    p_seen_media = Hashtbl.create 64;
    p_states = 0;
    p_media_states = 0;
    p_deduped = 0;
    p_sig = sig_empty;
  }

let mount_view p v =
  let s = Lazy.force p.p_scr in
  Device.apply_view s v;
  Device.of_view s

(* Content-determined verdict of a pure crash view: the first failing
   check, or the recovered capture. *)
let check_state p v =
  let d2 = mount_view p v in
  match Layout.Records.Superblock.read d2 with
  | None -> Error "crash image has no superblock"
  | Some sb -> (
      match Sq.Fsck.check_raw d2 sb.Layout.Records.Superblock.geometry with
      | _ :: _ as errs -> Error ("raw invariants: " ^ String.concat " | " errs)
      | [] -> (
          match Sq.mount d2 with
          | Error e -> Error ("crash image fails to mount: " ^ Errno.to_string e)
          | Ok fs2 ->
              (* On a csum volume a pure crash image must never trip the
                 media pre-pass: SSU orders every seal before its
                 record's commit, so quarantine here means a code path
                 published an unsealed record. *)
              if p.p_csum && Sq.Mount.degraded fs2 then
                Error
                  "media quarantine on a pure crash image (committed record \
                   without a valid checksum)"
              else (
                match Sq.Fsck.check fs2 with
                | _ :: _ as errs -> Error ("fsck: " ^ String.concat " | " errs)
                | [] -> (
                    match Logical.capture (module Squirrelfs) fs2 with
                    | exception Failure msg -> Error ("capture: " ^ msg)
                    | got -> Ok got))))

(* Torn/stuck media views are not legal SSU states; the contract is
   graceful handling only: mount succeeds (possibly degraded) or refuses
   with an errno, and neither mount nor fsck may raise. *)
let check_media_state p v =
  let d2 = mount_view p v in
  match Sq.mount d2 with
  | exception e -> Some ("media crash image: mount raised " ^ Printexc.to_string e)
  | Error _ -> None
  | Ok fs2 -> (
      match Sq.Fsck.check fs2 with
      | _ -> None
      | exception e -> Some ("media crash image: fsck raised " ^ Printexc.to_string e))

let memoized p ~seen ~memo check v =
  let h = Device.view_hash p.p_dev v in
  p.p_sig <- sig_add p.p_sig h;
  if Hashtbl.mem seen h then p.p_deduped <- p.p_deduped + 1 else Hashtbl.replace seen h ();
  match Hashtbl.find_opt memo h with
  | Some verdict -> verdict
  | None ->
      let verdict = check p v in
      Hashtbl.replace memo h verdict;
      verdict

(* Torn/stuck media views probed per fence on a run with a torn or stuck
   line rate. *)
let media_images_per_fence = 4

(* The budget of every sequence that holds a mutant op, and of
   [Interleave]'s serial legs: [Device.crash_views] lists every legal
   crash state of a fence that has at most this many and samples beyond
   it. The snapshot mutant's torn state is one line-prefix combination,
   which the default 8 sampled images can miss. *)
let exhaustive_images_per_fence = 64

(* The one budget rule: a sequence that holds a mutant op probes the
   exhaustive budget, any other [default]. *)
let images_per_fence ?(default = 8) ops =
  if List.exists (fun op -> W.buggy_kind_of_op op <> None) ops then exhaustive_images_per_fence
  else default

let probe p ~max_images ~media ~compare_data ~legal ~fail =
  List.iteri
    (fun image v ->
      p.p_states <- p.p_states + 1;
      match memoized p ~seen:p.p_seen ~memo:p.p_memo.m_states check_state v with
      | Error detail -> fail ~image detail
      | Ok got ->
          if not (List.exists (fun st -> Logical.equal ~compare_data got st) legal)
          then
            (* [Logical.pp] prints no file contents: name a data-only
               mismatch *)
            let data_only =
              List.exists (fun st -> Logical.equal ~compare_data:false got st) legal
            in
            fail ~image
              (Format.asprintf "recovered state %s the reference model; got %a"
                 (if data_only then "has file contents differing from"
                  else "is not prefix-consistent with")
                 Logical.pp got))
    (Device.crash_views ~max_images p.p_dev);
  if media then
    List.iteri
      (fun image v ->
        p.p_media_states <- p.p_media_states + 1;
        match memoized p ~seen:p.p_seen_media ~memo:p.p_memo.m_media check_media_state v with
        | Some detail -> fail ~image detail
        | None -> ())
      (Device.crash_views_faulty ~max_images:media_images_per_fence p.p_dev)

let mount_exn dev =
  match Sq.mount dev with
  | Ok fs -> fs
  | Error e -> failwith ("Fuzzer.Exec: mount: " ^ Errno.to_string e)

(* {2 Per-domain resource pool}

   Fresh-device fuzzing pays a large constant per iteration: allocate two
   device-sized buffers, simulate mkfs store by store, then copy the
   device again into a new scratch. A pool amortizes all of it across
   the iterations of one driver/shard: the first acquisition formats a
   device once and snapshots its durable image as a template; every
   later acquisition blits the template back over the same buffers
   ({!Device.reset}), reusing the attached scratch too. The pool also
   carries the prober's verdict memo across iterations, so a state
   revisited in a later iteration skips the remount + fsck entirely.

   A template is the volume after mkfs and, when the key names setup
   ops, after those ops and a clean unmount: runs that all start from
   the same prefix then replay only what follows it.

   A pool is single-domain state: share one per domain, never across. *)
module Pool = struct
  type entry = {
    e_dev : Device.t;
    e_tmpl : Bytes.t;  (* the template's durable image *)
    e_now : int;  (* the template's clock *)
    mutable e_hash : (int64 array * int64) option;  (* lazy template hash *)
  }

  type key = {
    k_size : int;
    k_csum : bool;
    k_latency : Pmem.Latency.t option;
    k_setup : W.op list;
  }

  type t = { mutable slot : (key * entry) option; memo : memo }

  let create () = { slot = None; memo = memo_create () }

  (* A fresh device holding the key's template. *)
  let format k =
    let dev = Device.create ?latency:k.k_latency ~size:k.k_size () in
    Sq.Mount.mkfs ~csum:k.k_csum dev;
    if k.k_setup <> [] then begin
      let fs = mount_exn dev in
      List.iter
        (fun op ->
          match apply_sq fs op with
          | Ok () -> ()
          | Error e -> failwith ("Fuzzer.Exec: setup op failed: " ^ Errno.to_string e))
        k.k_setup;
      Sq.unmount fs
    end;
    dev

  (* A ready-to-mount device holding the key's template: template-blit
     on reuse, real mkfs (and setup) only on first acquisition, or when
     the configuration changes, which also invalidates the
     content-hash-keyed memo. *)
  let acquire p key =
    match p.slot with
    | Some (k, e) when k = key ->
        let hash =
          match e.e_hash with
          | Some h -> h
          | None ->
              let h = Device.image_hash_state e.e_tmpl in
              e.e_hash <- Some h;
              h
        in
        Device.reset ~hash e.e_dev ~image:e.e_tmpl;
        (* reset zeroes the clock, but a fresh device's clock has run
           through mkfs (a csum mkfs charges its seals) and the setup ops,
           and inode timestamps read it *)
        Device.charge e.e_dev e.e_now;
        e.e_dev
    | Some _ | None ->
        if p.slot <> None then begin
          Hashtbl.reset p.memo.m_states;
          Hashtbl.reset p.memo.m_media
        end;
        let dev = format key in
        p.slot <-
          Some
            ( key,
              {
                e_dev = dev;
                e_tmpl = Device.image_durable dev;
                e_now = Device.now_ns dev;
                e_hash = None;
              } );
        dev
end

(* {2 Phase B: permanent media corruption}

   After a clean sequence under a plan with [bit_flips > 0], flip one
   seeded bit in the sealed (checksummed) region of up to [bit_flips]
   committed inode records and require the whole detection pipeline: the
   scrubber flags every damaged line, a remount of the damaged durable
   image comes up degraded with those inodes quarantined, their paths
   return a clean [EIO], and the rest of the tree stays listable.
   Returns (detected, quarantined, eio_checks). *)

(* Every path in the live tree, depth-first, one per inode (hardlinks
   keep the first path seen): the committed, referenced records. *)
let live_objects fs =
  let seen = Hashtbl.create 32 in
  let out = ref [] in
  let rec walk path =
    match Sq.readdir fs path with
    | Error _ -> ()
    | Ok names ->
        List.iter
          (fun name ->
            let p = if path = "/" then "/" ^ name else path ^ "/" ^ name in
            match Sq.stat fs p with
            | Error _ -> ()
            | Ok st ->
                if not (Hashtbl.mem seen st.Vfs.Fs.ino) then begin
                  Hashtbl.add seen st.Vfs.Fs.ino ();
                  out := (p, st.Vfs.Fs.ino) :: !out
                end;
                if st.Vfs.Fs.kind = Vfs.Fs.Dir then walk p)
          names
  in
  walk "/";
  List.rev !out

(* Deterministically pick [k] distinct elements (partial Fisher-Yates). *)
let pick_k rng k xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let k = min k n in
  for i = 0 to k - 1 do
    let j = i + Random.State.int rng (n - i) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list (Array.sub arr 0 k)

let phase_b ~(plan : Faults.Plan.t) ~fail fs dev =
  let rng = Random.State.make [| plan.Faults.Plan.seed; 0xB17F11 |] in
  let targets = pick_k rng plan.Faults.Plan.bit_flips (live_objects fs) in
  let sealed_bytes =
    List.concat_map
      (fun (off, len) -> List.init len (fun i -> off + i))
      Layout.Records.Inode.sealed_ranges
  in
  let flips =
    List.map
      (fun (path, ino) ->
        let base = Layout.Geometry.inode_off fs.Sq.Fsctx.geo ~ino in
        let byte = List.nth sealed_bytes (Random.State.int rng (List.length sealed_bytes)) in
        let off = base + byte in
        Device.flip_bit dev ~off ~bit:(Random.State.int rng 8);
        (path, ino, off))
      targets
  in
  let detected = ref 0 and quarantined = ref 0 and eio = ref 0 in
  (* a sequence can end with an empty tree: nothing to corrupt *)
  if flips <> [] then begin
    let bad = Device.scrub dev in
    List.iter
      (fun (path, _, off) ->
        let line = off - (off mod Device.line_size) in
        if not (List.mem line bad) then
          fail (Printf.sprintf "scrub missed flipped line 0x%x (inode of %s)" line path))
      flips;
    match Sq.mount (Device.of_image (Device.image_durable dev)) with
    | exception e -> fail ("damaged volume: mount raised " ^ Printexc.to_string e)
    | Error e -> fail ("damaged volume fails to mount degraded: " ^ Errno.to_string e)
    | Ok fs3 -> (
        if not (Sq.Mount.degraded fs3) then fail "remount after metadata corruption is not degraded";
        (let qi, qp = Sq.Mount.quarantined fs3 in
         quarantined := qi + qp);
        List.iter
          (fun (path, ino, _) ->
            if Faults.Quarantine.mem_ino fs3.Sq.Fsctx.quar ino then incr detected
            else fail (Printf.sprintf "corrupt inode %d (%s) not quarantined on remount" ino path);
            match Sq.stat fs3 path with
            | Error Errno.EIO -> incr eio
            | Error e ->
                fail
                  (Printf.sprintf "stat %s on quarantined inode: %s (want EIO)" path
                     (Errno.to_string e))
            | Ok _ -> fail (Printf.sprintf "stat %s succeeded on a quarantined inode" path)
            | exception e ->
                fail
                  (Printf.sprintf "stat %s raised %s (want EIO result)" path
                     (Printexc.to_string e)))
          flips;
        match Sq.readdir fs3 "/" with
        | Ok _ -> ()
        | Error e -> fail ("degraded mount cannot list /: " ^ Errno.to_string e))
  end;
  (!detected, !quarantined, !eio)

(* {2 The run body}

   Every crash-checked run goes through [run_body]: take a formatted
   device (from the pool, or fresh), mount it, attach the tracer and
   metrics, install the probe hook, let [drive] run the ops, close with
   the quiescent data-comparing probe and a live fsck, then detach. On a
   plan with bit flips a run that passed ends with Phase B.

   [drive] is one of the two ways ops run: [run]'s sequential
   differential loop, or a caller's scheduler through [run_with]. It
   keeps [legal] (the states a crash image may recover to) and [cur_op]
   current as it goes, and returns the one state the quiescent volume
   must hold. *)

type run_state = {
  mutable cur_op : int;
  mutable fences : int;
  mutable legal : Logical.t list;
  mutable ops_run : int;
  mutable divergences : int;
  mutable fail : (crash_point * string) option;
}

(* Record the first violation and stop: the crash point it pins down is
   what the shrinker minimizes, so the run explores no further. *)
let violate st ~image detail =
  st.fail <- Some ({ cp_op = st.cur_op; cp_fence = st.fences; cp_image = image }, detail);
  raise Abort

(* The sequential differential loop: each op against SquirrelFS and the
   reference model in turn, the legal states fixed before the op runs
   (the fence hook fires inside it), return values compared after. *)
let sequential ops st fs =
  let model = ref Ref_fs.empty in
  let cap_prev = ref (Ref_fs.capture Ref_fs.empty) in
  Array.iteri
    (fun i op ->
      st.cur_op <- i;
      let m_next, m_res = Ref_fs.apply !model op in
      let cap_next = if m_res = Ok () then Ref_fs.capture m_next else !cap_prev in
      st.legal <- (if m_res = Ok () then [ !cap_prev; cap_next ] else [ !cap_prev ]);
      let sq_res = apply_sq fs op in
      st.ops_run <- st.ops_run + 1;
      match (sq_res, m_res) with
      | Ok (), Ok () ->
          model := m_next;
          cap_prev := cap_next
      | Error a, Error b when a = b -> ()
      | Error (Errno.ENOSPC | Errno.EMLINK), Ok () ->
          (* capacity divergence: roll the model back, keep going *)
          st.divergences <- st.divergences + 1
      | Ok (), Error b ->
          violate st ~image:(-1)
            (Printf.sprintf "differential: squirrelfs succeeded, model says %s"
               (Errno.to_string b))
      | Error a, Ok () ->
          violate st ~image:(-1)
            (Printf.sprintf "differential: squirrelfs says %s, model succeeded"
               (Errno.to_string a))
      | Error a, Error b ->
          violate st ~image:(-1)
            (Printf.sprintf "differential: squirrelfs says %s, model says %s"
               (Errno.to_string a) (Errno.to_string b)))
    ops;
  !cap_prev

let run_body ?(device_size = 256 * 1024) ~max_images_per_fence ?(faults = Faults.none)
    ?latency ?pool ?(setup = []) ?trace ?metrics ops drive =
  (* Media faults only make sense on a volume that can detect them: fault
     runs format with checksummed metadata records. *)
  let csum = not (Faults.is_none faults) in
  let media =
    faults.Faults.Plan.torn_line_rate > 0. || faults.Faults.Plan.stuck_line_rate > 0.
  in
  let key =
    { Pool.k_size = device_size; k_csum = csum; k_latency = latency; k_setup = setup }
  in
  let dev = match pool with Some p -> Pool.acquire p key | None -> Pool.format key in
  (* Simulated time is charged from the template's clock, so [o_sim_ns]
     covers the run's own ops and is identical whether or not the device
     came from a pool. *)
  let sim_base = Device.now_ns dev in
  let fs = mount_exn dev in
  (* Observability attaches after mount, so the trace opens with the
     template's durable snapshot the SSU checker needs; borrowed crash-view
     devices never inherit the tracer, so fsck probing stays untraced.
     Neither hook charges time or reads RNGs: the outcome (report, sim-ns,
     divergences) is bit-identical to an unobserved run. *)
  (match trace with Some r -> Sq.Tracing.attach fs r | None -> ());
  (match metrics with
  | Some m ->
      Device.set_metrics dev (Some m);
      Typestate.Token.set_metrics fs.Sq.Fsctx.reg (Some m)
  | None -> ());
  if csum then Device.set_fault_plan dev faults;
  let st =
    { cur_op = 0; fences = 0; legal = []; ops_run = 0; divergences = 0; fail = None }
  in
  let memo = match pool with Some p -> p.Pool.memo | None -> memo_create () in
  let pr = prober ~memo ~csum dev in
  let fail = violate st in
  let on_fence ~compare_data _ =
    st.fences <- st.fences + 1;
    probe pr ~max_images:max_images_per_fence ~media ~compare_data ~legal:st.legal ~fail
  in
  (try
     Device.set_fence_hook dev (Some (on_fence ~compare_data:false));
     let final = drive st fs in
     st.cur_op <- Array.length ops;
     st.legal <- [ final ];
     (* the quiescent volume must hold the final state exactly, file
        contents included *)
     on_fence ~compare_data:true dev;
     Device.set_fence_hook dev None;
     match Sq.Fsck.check fs with
     | [] -> ()
     | errs -> violate st ~image:(-1) ("live fsck after sequence: " ^ String.concat " | " errs)
   with Abort -> Device.set_fence_hook dev None);
  if trace <> None then Device.set_tracer dev None;
  if metrics <> None then begin
    Device.set_metrics dev None;
    Typestate.Token.set_metrics fs.Sq.Fsctx.reg None
  end;
  (* read before Phase B, whose scrub charges the device: [o_sim_ns] is
     the workload's own cost *)
  let sim_ns = Device.now_ns dev - sim_base in
  let detected, quarantined, eio_checks =
    if st.fail = None && faults.Faults.Plan.bit_flips > 0 then
      try phase_b ~plan:faults ~fail:(violate st ~image:(-1)) fs dev with Abort -> (0, 0, 0)
    else (0, 0, 0)
  in
  let dstats = Device.stats dev in
  {
    o_report =
      {
        H.workloads = 1;
        ops_run = st.ops_run;
        fences_probed = st.fences;
        crash_states = pr.p_states;
        states_deduped = pr.p_deduped;
        media_states = pr.p_media_states;
        faults_injected =
          dstats.Pmem.Stats.bitflips + dstats.Pmem.Stats.torn_lines
          + dstats.Pmem.Stats.stuck_lines + dstats.Pmem.Stats.read_faults;
        faults_detected = detected;
        faults_quarantined = quarantined;
        eio_checks;
        (* the run stops at its first violation, so it has at most one *)
        violations =
          (match st.fail with
          | None -> []
          | Some (cp, detail) ->
              [ { H.v_op_index = cp.cp_op;
                  v_op = (if cp.cp_op < Array.length ops then Some ops.(cp.cp_op) else None);
                  v_detail = detail } ]);
      };
    o_fail = st.fail;
    o_divergences = st.divergences;
    o_sim_ns = sim_ns;
    o_state_sig = pr.p_sig;
  }

let run ?device_size ?max_images_per_fence ?faults ?latency ?pool ?trace ?metrics ops =
  let max_images_per_fence =
    match max_images_per_fence with Some n -> n | None -> images_per_fence ops
  in
  let ops = Array.of_list ops in
  run_body ?device_size ~max_images_per_fence ?faults ?latency ?pool ?trace ?metrics ops
    (sequential ops)

let run_with ~max_images_per_fence ~pool ~setup ~trace ~legal ~final drive =
  run_body ~max_images_per_fence ~pool ~setup ~trace [||] (fun st fs ->
      st.legal <- legal;
      drive fs;
      final)
