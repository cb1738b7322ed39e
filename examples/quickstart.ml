(* Quickstart: create a SquirrelFS volume on a simulated PM device, use
   the POSIX-style API, crash it, and watch recovery. Run with:

     dune exec examples/quickstart.exe *)

module Device = Pmem.Device

let ok = function
  | Ok v -> v
  | Error e -> failwith ("unexpected " ^ Vfs.Errno.to_string e)

let () =
  (* 16 MiB of "persistent memory" with Optane-like latencies *)
  let dev = Device.create ~latency:Pmem.Latency.optane ~size:(16 * 1024 * 1024) () in

  Printf.printf "mkfs + mount...\n";
  Squirrelfs.mkfs dev;
  let fs = ok (Squirrelfs.mount dev) in

  Printf.printf "creating a small tree...\n";
  ok (Squirrelfs.mkdir fs "/projects");
  ok (Squirrelfs.mkdir fs "/projects/squirrelfs");
  ok (Squirrelfs.create fs "/projects/squirrelfs/notes.txt");
  let n =
    ok (Squirrelfs.write fs "/projects/squirrelfs/notes.txt" ~off:0
          "soft updates, but synchronous — and the compiler checks the order")
  in
  Printf.printf "  wrote %d bytes\n" n;

  (* every metadata operation is durable and crash-atomic on return *)
  let st = ok (Squirrelfs.stat fs "/projects/squirrelfs/notes.txt") in
  Printf.printf "  stat: ino=%d kind=%s size=%d links=%d\n" st.Vfs.Fs.ino
    (Vfs.Fs.kind_to_string st.Vfs.Fs.kind)
    st.Vfs.Fs.size st.Vfs.Fs.links;

  Printf.printf "hard link + atomic rename...\n";
  ok (Squirrelfs.link fs "/projects/squirrelfs/notes.txt" "/notes-link");
  ok (Squirrelfs.rename fs "/projects/squirrelfs" "/projects/sqfs");
  Printf.printf "  /projects now contains: %s\n"
    (String.concat ", " (ok (Squirrelfs.readdir fs "/projects")));
  Printf.printf "  data via the moved path: %S\n"
    (ok (Squirrelfs.read fs "/projects/sqfs/notes.txt" ~off:0 ~len:13));

  (* the paper's mkdir (fig. 3) costs exactly two store fences *)
  let f0 = (Device.stats dev).Pmem.Stats.fences in
  ok (Squirrelfs.mkdir fs "/projects/two-fences");
  Printf.printf "mkdir used %d store fences (fig. 3: both update groups share one each)\n"
    ((Device.stats dev).Pmem.Stats.fences - f0);

  (* crash without unmounting: take the durable image and remount it *)
  Printf.printf "simulating a crash (no unmount)...\n";
  let crashed = Device.of_image (Device.image_durable dev) in
  let fs2 = ok (Squirrelfs.mount crashed) in
  let st = fs2.Squirrelfs.Fsctx.recovery in
  Printf.printf "  recovery ran: %b (orphans freed: %d, renames completed: %d)\n"
    st.Squirrelfs.Fsctx.recovered st.Squirrelfs.Fsctx.orphan_inodes
    st.Squirrelfs.Fsctx.completed_renames;
  Printf.printf "  tree intact: /projects = [%s]\n"
    (String.concat ", " (ok (Squirrelfs.readdir fs2 "/projects")));
  (match Squirrelfs.Fsck.check fs2 with
  | [] -> Printf.printf "  fsck: consistent\n"
  | errs -> Printf.printf "  fsck: %d violations!\n" (List.length errs));

  Printf.printf "simulated time elapsed: %.1f us\n"
    (float_of_int (Device.now_ns dev) /. 1000.)
