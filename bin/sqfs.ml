(* sqfs: operate SquirrelFS volumes stored in host image files.

   The simulated PM device is loaded from the image file, operated on
   (every operation is synchronous, so the device is quiescent when a
   command finishes), and written back.

     sqfs mkfs img [--size-mb N]
     sqfs info img
     sqfs fsck img
     sqfs tree img
     sqfs ls img /path          sqfs stat img /path
     sqfs mkdir img /path       sqfs create img /path
     sqfs write img /path data  sqfs cat img /path
     sqfs rm img /path          sqfs rmdir img /path
     sqfs mv img /src /dst      sqfs ln img /target /link
     sqfs snapshot img NAME     sqfs snapshots img
     sqfs rollback img NAME     sqfs snap-rm img NAME
     sqfs clone img NAME out    sqfs diff img A B
     sqfs scrub img   *)

open Cmdliner
module Device = Pmem.Device

external lseek_data : Unix.file_descr -> int -> int = "sqfs_lseek_data"
external lseek_hole : Unix.file_descr -> int -> int = "sqfs_lseek_hole"

let rec really_read fd buf off n =
  if n > 0 then begin
    let r = Unix.read fd buf off n in
    if r = 0 then raise End_of_file;
    really_read fd buf (off + r) (n - r)
  end

(* Load only the image file's data extents (SEEK_DATA/SEEK_HOLE) and
   hand the device their nonzero spans: a multi-GB host-sparse volume
   loads in O(backed data) time and memory — its holes are never read,
   never materialized, never zero-scanned. Filesystems without
   data/hole seeking fall back to streaming the whole file, still in
   O(backed data) memory. *)
let load_image img =
  let fd = Unix.openfile img [ Unix.O_RDONLY ] 0 in
  let len = (Unix.fstat fd).Unix.st_size in
  let chunk = Pmem.Sbuf.chunk_bytes in
  let block = 64 * 1024 in
  let buf = Bytes.create block in
  let zero = Bytes.make block '\000' in
  let spans = ref [] in
  (* read [start,stop) and emit its nonzero chunk-granular spans *)
  let scan_range start stop =
    ignore (Unix.lseek fd start Unix.SEEK_SET);
    let pos = ref start in
    while !pos < stop do
      let n = min block (stop - !pos) in
      really_read fd buf 0 n;
      if not (n = block && Bytes.equal buf zero) then begin
        let sub = ref 0 in
        while !sub < n do
          let m = min chunk (n - !sub) in
          if not (Bytes.equal (Bytes.sub buf !sub m) (Bytes.sub zero 0 m))
          then spans := (!pos + !sub, Bytes.sub_string buf !sub m) :: !spans;
          sub := !sub + m
        done
      end;
      pos := !pos + n
    done
  in
  let align_down x = x - (x mod chunk) in
  let rec walk off =
    if off < len then
      match lseek_data fd off with
      | -1 -> () (* no data at or after [off] *)
      | -2 -> raise Exit (* unsupported: dense fallback *)
      | d ->
          let d = align_down (min d len) in
          let h = match lseek_hole fd d with -2 -> len | h -> min h len in
          scan_range d h;
          walk (max h (d + 1))
  in
  (try walk 0 with Exit -> scan_range 0 len);
  Unix.close fd;
  Device.of_spans ~size:len (List.rev !spans)

(* Commands are synchronous, so the device is quiescent here and the
   visible content equals the durable content. Write only the backed
   spans and seek over the holes — the host file stays sparse, like the
   device. *)
let save_image img dev =
  let oc = open_out_bin img in
  List.iter
    (fun (off, len) ->
      seek_out oc off;
      output_bytes oc (Device.read dev ~off ~len))
    (Device.backed_spans dev);
  (* pin the file length even when the volume ends in a hole *)
  let size = Device.size dev in
  if out_channel_length oc < size then begin
    seek_out oc (size - 1);
    output_char oc '\000'
  end;
  close_out oc

(* {2 Snapshot sidecars}

   The on-volume table survives across invocations, but a snapshot's
   pin (its retained delta view) is process-volatile. sqfs persists
   each pin's delta in a host sidecar file [IMG.NAME.snap]: at mount it
   re-adopts every sidecar whose evidence still validates
   ([Snap.adopt] checks the slot id and the capture hash), and at exit
   it rewrites the sidecars from the now-current deltas — the image
   file and its sidecars always advance together, so the deltas stay
   exact however many commands mutate the volume in between. A sidecar
   that fails validation (edited image, stale copy) is reported and
   skipped: its snapshot keeps its table entry but degrades to
   unpinned, exactly like a pin lost to a crash. *)

let snap_magic = "SQSNAP1\n"
let sidecar_path img name = img ^ "." ^ name ^ ".snap"

let save_sidecar img name ~id ~hash ~saved =
  let oc = open_out_bin (sidecar_path img name) in
  output_string oc snap_magic;
  Printf.fprintf oc "%d %Lx %d\n" id hash (List.length saved);
  let b = Bytes.create 8 in
  List.iter
    (fun (idx, line) ->
      Bytes.set_int64_le b 0 (Int64.of_int idx);
      output_bytes oc b;
      output_bytes oc line)
    saved;
  close_out oc

let load_sidecar img name =
  let file = sidecar_path img name in
  if not (Sys.file_exists file) then None
  else
    let ic = open_in_bin file in
    let fin r = close_in ic; r in
    try
      let m = really_input_string ic (String.length snap_magic) in
      if m <> snap_magic then fin None
      else
        let id, hash, count =
          Scanf.sscanf (input_line ic) "%d %Lx %d" (fun a b c -> (a, b, c))
        in
        let saved =
          List.init count (fun _ ->
              let b = Bytes.create 8 in
              really_input ic b 0 8;
              let idx = Int64.to_int (Bytes.get_int64_le b 0) in
              let line = Bytes.create Device.line_size in
              really_input ic line 0 Device.line_size;
              (idx, line))
        in
        fin (Some (id, hash, saved))
    with _ -> fin None

let adopt_sidecars img fs =
  List.iter
    (fun (s : Layout.Snaptab.Slot.t) ->
      match load_sidecar img s.Layout.Snaptab.Slot.name with
      | None -> ()
      | Some (id, hash, saved) -> (
          match Snap.adopt fs s.Layout.Snaptab.Slot.name ~id ~hash ~saved with
          | Ok () -> ()
          | Error e ->
              Printf.eprintf "snapshot %s: sidecar rejected (%s); unpinned\n"
                s.Layout.Snaptab.Slot.name (Vfs.Errno.to_string e)))
    (Layout.Snaptab.list (fs.Squirrelfs.Fsctx.dev))

let sync_sidecars img fs =
  let dev = fs.Squirrelfs.Fsctx.dev in
  let table = Layout.Snaptab.list dev in
  List.iter
    (fun (i : Snap.info) ->
      match Snap.pin_delta fs i.Snap.i_name with
      | Some (hash, saved) ->
          save_sidecar img i.Snap.i_name ~id:i.Snap.i_id ~hash ~saved
      | None -> ())
    (Snap.list fs);
  (* reap sidecars whose snapshot left the table (deleted, or dropped
     by a rollback to an older capture) *)
  Array.iter
    (fun f ->
      let dir = Filename.dirname img and base = Filename.basename img in
      if
        String.length f > String.length base + 6
        && String.sub f 0 (String.length base + 1) = base ^ "."
        && Filename.check_suffix f ".snap"
      then
        let name =
          String.sub f
            (String.length base + 1)
            (String.length f - String.length base - 6)
        in
        if
          not
            (List.exists
               (fun (s : Layout.Snaptab.Slot.t) ->
                 s.Layout.Snaptab.Slot.name = name)
               table)
        then Sys.remove (Filename.concat dir f))
    (Sys.readdir (Filename.dirname img))

(* [trace]: record the command's persist stream (preceded by a durable-state
   snapshot preamble) and write chrome://tracing JSON when done. The
   recorder stays attached through unmount so its stores are captured too. *)
let with_fs ?trace img f =
  let dev = load_image img in
  match Squirrelfs.mount dev with
  | Error e ->
      Printf.eprintf "mount %s: %s\n" img (Vfs.Errno.to_string e);
      exit 1
  | Ok fs ->
      let rec_ = Option.map (fun _ -> Obs.Recorder.create ()) trace in
      (match rec_ with Some r -> Squirrelfs.Tracing.attach fs r | None -> ());
      adopt_sidecars img fs;
      let r = f dev fs in
      Squirrelfs.unmount fs;
      (match (trace, rec_) with
      | Some file, Some rc ->
          Squirrelfs.Tracing.detach fs;
          let events = Obs.Recorder.to_list rc in
          Obs.Chrome.to_file file events;
          Printf.eprintf "trace: %d events -> %s (chrome://tracing)\n"
            (List.length events) file
      | _ -> ());
      sync_sidecars img fs;
      save_image img dev;
      r

let or_die what = function
  | Ok v -> v
  | Error e ->
      Printf.eprintf "%s: %s\n" what (Vfs.Errno.to_string e);
      exit 1

(* arguments *)
let img = Arg.(required & pos 0 (some string) None & info [] ~docv:"IMAGE")
let path n = Arg.(required & pos n (some string) None & info [] ~docv:"PATH")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the command's structured persist trace (stores, flushes, \
           fences, op spans) and write chrome://tracing JSON to FILE")

let cmd_mkfs =
  let size_mb =
    Arg.(value & opt int 16 & info [ "size-mb" ] ~doc:"Device size in MiB")
  in
  let run img size_mb =
    let dev = Device.create ~size:(size_mb * 1024 * 1024) () in
    Squirrelfs.mkfs dev;
    save_image img dev;
    Printf.printf "created %d MiB SquirrelFS volume in %s\n" size_mb img
  in
  Cmd.v (Cmd.info "mkfs" ~doc:"Create a fresh volume")
    Term.(const run $ img $ size_mb)

let cmd_info =
  let run img trace =
    with_fs ?trace img (fun dev fs ->
        let geo = fs.Squirrelfs.Fsctx.geo in
        let st = fs.Squirrelfs.Fsctx.recovery in
        Printf.printf "device        %d bytes\n" (Device.size dev);
        Printf.printf "inodes        %d (%d free)\n" geo.Layout.Geometry.inode_count
          (Squirrelfs.Alloc.free_inode_count fs.Squirrelfs.Fsctx.alloc);
        Printf.printf "pages         %d (%d free)\n" geo.Layout.Geometry.page_count
          (Squirrelfs.Alloc.free_page_count fs.Squirrelfs.Fsctx.alloc);
        Printf.printf "index memory  %d bytes\n"
          (Squirrelfs.Index.footprint_bytes fs.Squirrelfs.Fsctx.index);
        if st.Squirrelfs.Fsctx.recovered then
          Printf.printf
            "recovery      ran (orphan inodes %d, pages %d, dentries %d; \
             renames completed %d, rolled back %d; link counts fixed %d)\n"
            st.Squirrelfs.Fsctx.orphan_inodes st.Squirrelfs.Fsctx.orphan_pages
            st.Squirrelfs.Fsctx.orphan_dentries
            st.Squirrelfs.Fsctx.completed_renames
            st.Squirrelfs.Fsctx.rolled_back_renames
            st.Squirrelfs.Fsctx.fixed_link_counts
        else Printf.printf "recovery      not needed (clean unmount)\n")
  in
  Cmd.v (Cmd.info "info" ~doc:"Volume geometry and utilization")
    Term.(const run $ img $ trace_arg)

let cmd_fsck =
  let run img trace =
    with_fs ?trace img (fun _dev fs ->
        match Squirrelfs.Fsck.check fs with
        | [] -> Printf.printf "consistent\n"
        | errs ->
            List.iter (fun e -> Printf.printf "violation: %s\n" e) errs;
            exit 2)
  in
  Cmd.v (Cmd.info "fsck" ~doc:"Check all consistency invariants")
    Term.(const run $ img $ trace_arg)

let cmd_tree =
  let run img trace =
    with_fs ?trace img (fun _dev fs ->
        let rec walk indent path =
          match Squirrelfs.readdir fs path with
          | Error _ -> ()
          | Ok names ->
              List.iter
                (fun n ->
                  let child = if path = "/" then "/" ^ n else path ^ "/" ^ n in
                  let st = or_die child (Squirrelfs.stat fs child) in
                  Printf.printf "%s%s%s\n" indent n
                    (match st.Vfs.Fs.kind with
                    | Vfs.Fs.Dir -> "/"
                    | Vfs.Fs.Symlink -> "@"
                    | Vfs.Fs.File -> Printf.sprintf " (%d)" st.Vfs.Fs.size);
                  if st.Vfs.Fs.kind = Vfs.Fs.Dir then
                    walk (indent ^ "  ") child)
                (List.sort compare names)
        in
        Printf.printf "/\n";
        walk "  " "/")
  in
  Cmd.v (Cmd.info "tree" ~doc:"Print the whole tree")
    Term.(const run $ img $ trace_arg)

let simple name doc f =
  let run img p trace = with_fs ?trace img (fun _dev fs -> f fs p) in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ img $ path 1 $ trace_arg)

let cmd_ls =
  simple "ls" "List a directory" (fun fs p ->
      List.iter print_endline
        (List.sort compare (or_die p (Squirrelfs.readdir fs p))))

let cmd_mkdir =
  simple "mkdir" "Create a directory" (fun fs p ->
      or_die p (Squirrelfs.mkdir fs p))

let cmd_create =
  simple "create" "Create an empty file" (fun fs p ->
      or_die p (Squirrelfs.create fs p))

let cmd_rm =
  simple "rm" "Unlink a file" (fun fs p -> or_die p (Squirrelfs.unlink fs p))

let cmd_rmdir =
  simple "rmdir" "Remove an empty directory" (fun fs p ->
      or_die p (Squirrelfs.rmdir fs p))

let cmd_cat =
  simple "cat" "Print a file's contents" (fun fs p ->
      let st = or_die p (Squirrelfs.stat fs p) in
      print_string (or_die p (Squirrelfs.read fs p ~off:0 ~len:st.Vfs.Fs.size)))

let cmd_stat =
  simple "stat" "Show inode metadata" (fun fs p ->
      let st = or_die p (Squirrelfs.stat fs p) in
      Printf.printf "ino %d  kind %s  links %d  size %d  mode %o\n"
        st.Vfs.Fs.ino
        (Vfs.Fs.kind_to_string st.Vfs.Fs.kind)
        st.Vfs.Fs.links st.Vfs.Fs.size st.Vfs.Fs.mode)

let cmd_write =
  let data = Arg.(required & pos 2 (some string) None & info [] ~docv:"DATA") in
  let append =
    Arg.(value & flag & info [ "a"; "append" ] ~doc:"Append instead of overwrite")
  in
  let run img p data append trace =
    with_fs ?trace img (fun _dev fs ->
        (match Squirrelfs.stat fs p with
        | Error Vfs.Errno.ENOENT -> or_die p (Squirrelfs.create fs p)
        | Error e -> or_die p (Error e)
        | Ok _ -> ());
        let off =
          if append then (or_die p (Squirrelfs.stat fs p)).Vfs.Fs.size else 0
        in
        let n = or_die p (Squirrelfs.write fs p ~off data) in
        Printf.printf "wrote %d bytes at offset %d\n" n off)
  in
  Cmd.v (Cmd.info "write" ~doc:"Write data to a file (creates it)")
    Term.(const run $ img $ path 1 $ data $ append $ trace_arg)

let cmd_mv =
  let run img src dst trace =
    with_fs ?trace img (fun _dev fs -> or_die src (Squirrelfs.rename fs src dst))
  in
  Cmd.v (Cmd.info "mv" ~doc:"Atomic rename")
    Term.(const run $ img $ path 1 $ path 2 $ trace_arg)

let cmd_ln =
  let run img target link trace =
    with_fs ?trace img (fun _dev fs -> or_die link (Squirrelfs.link fs target link))
  in
  Cmd.v (Cmd.info "ln" ~doc:"Hard link")
    Term.(const run $ img $ path 1 $ path 2 $ trace_arg)

(* {2 Snapshots} *)

let name_arg n = Arg.(required & pos n (some string) None & info [] ~docv:"NAME")

let cmd_snapshot =
  let run img name trace =
    with_fs ?trace img (fun _dev fs ->
        let i = or_die name (Snap.snapshot fs name) in
        Printf.printf "snapshot %s: id %d slot %d (%d delta lines pinned)\n"
          name i.Snap.i_id i.Snap.i_slot
          (match Snap.pin_delta fs name with
          | Some (_, saved) -> List.length saved
          | None -> 0))
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Take a named crash-consistent snapshot (quiesce, capture the \
          delta view, seal a CRC-checked table entry; the pin persists \
          in a IMAGE.NAME.snap sidecar)")
    Term.(const run $ img $ name_arg 1 $ trace_arg)

let cmd_snapshots =
  let run img trace =
    with_fs ?trace img (fun _dev fs ->
        match Snap.list fs with
        | [] -> print_endline "no snapshots"
        | l ->
            List.iter
              (fun (i : Snap.info) ->
                Printf.printf "%-24s id %-4d slot %-3d epoch %-6d %s\n"
                  i.Snap.i_name i.Snap.i_id i.Snap.i_slot i.Snap.i_epoch
                  (if i.Snap.i_quarantined then "QUARANTINED"
                   else if i.Snap.i_pin_hash <> None then "pinned"
                   else "unpinned"))
              l)
  in
  Cmd.v (Cmd.info "snapshots" ~doc:"List the volume's snapshots")
    Term.(const run $ img $ trace_arg)

let cmd_snap_rm =
  let run img name trace =
    with_fs ?trace img (fun _dev fs -> or_die name (Snap.delete fs name))
  in
  Cmd.v (Cmd.info "snap-rm" ~doc:"Delete a snapshot (two fenced steps, never torn)")
    Term.(const run $ img $ name_arg 1 $ trace_arg)

let cmd_rollback =
  let run img name trace =
    with_fs ?trace img (fun dev fs ->
        or_die name (Snap.rollback fs name);
        Printf.printf "rolled back to %s (durable hash %Lx)\n" name
          (Device.durable_hash dev))
  in
  Cmd.v
    (Cmd.info "rollback"
       ~doc:
         "Atomically flip the whole volume back to a snapshot (redo-log \
          protected, fsck-validated, O(dirty lines))")
    Term.(const run $ img $ name_arg 1 $ trace_arg)

let cmd_clone =
  let out_arg = Arg.(required & pos 2 (some string) None & info [] ~docv:"OUT") in
  let run img name out trace =
    with_fs ?trace img (fun _dev fs ->
        let cfs = or_die name (Snap.clone fs name) in
        Squirrelfs.unmount cfs;
        save_image out cfs.Squirrelfs.Fsctx.dev;
        Printf.printf "cloned %s -> %s\n" name out)
  in
  Cmd.v
    (Cmd.info "clone"
       ~doc:
         "Mount a snapshot's pinned image as a writable fork and save it \
          as a new volume image (own allocator, fully isolated)")
    Term.(const run $ img $ name_arg 1 $ out_arg $ trace_arg)

let cmd_snap_diff =
  let run img a b trace =
    with_fs ?trace img (fun _dev fs ->
        let d = or_die (a ^ ".." ^ b) (Snap.diff fs a b) in
        List.iter
          (fun (off, la, lb) ->
            let hex s =
              String.concat "" (List.map (Printf.sprintf "%02x")
                  (List.init (min 8 (String.length s)) (fun i -> Char.code s.[i])))
            in
            Printf.printf "line @%-8d %s.. -> %s..\n" off (hex la) (hex lb))
          d;
        Printf.printf "%d line(s) differ\n" (List.length d))
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Lines differing between two pinned snapshots (O(dirty lines of \
          either), not O(volume))")
    Term.(const run $ img $ name_arg 1 $ name_arg 2 $ trace_arg)

let cmd_scrub =
  let run img trace =
    with_fs ?trace img (fun _dev fs ->
        match Snap.scrub fs with
        | [] -> print_endline "no pinned snapshots to scrub"
        | l ->
            let bad = List.filter (fun (_, ok) -> not ok) l in
            List.iter
              (fun (n, ok) ->
                Printf.printf "%s: %s\n" n
                  (if ok then "intact" else "CORRUPT (quarantined)"))
              l;
            if bad <> [] then exit 2)
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Verify every pinned snapshot's content hash against its capture \
          record; mismatches are quarantined")
    Term.(const run $ img $ trace_arg)

let () =
  let doc = "SquirrelFS volumes in host image files" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "sqfs" ~doc)
          [
            cmd_mkfs; cmd_info; cmd_fsck; cmd_tree; cmd_ls; cmd_mkdir;
            cmd_create; cmd_rm; cmd_rmdir; cmd_cat; cmd_stat; cmd_write;
            cmd_mv; cmd_ln; cmd_snapshot; cmd_snapshots; cmd_snap_rm;
            cmd_rollback; cmd_clone; cmd_snap_diff; cmd_scrub;
          ]))
