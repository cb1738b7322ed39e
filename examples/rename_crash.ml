(* Atomic rename under crashes (paper fig. 2): crash SquirrelFS at every
   store fence during rename(src -> dst) — including the torn in-cache
   states the x86 persistence model allows — remount each crash image,
   and verify that recovery always leaves exactly one of src/dst. Run:

     dune exec examples/rename_crash.exe *)

module Device = Pmem.Device

let ok = function
  | Ok v -> v
  | Error e -> failwith ("unexpected " ^ Vfs.Errno.to_string e)

let exists fs p = Result.is_ok (Squirrelfs.stat fs p)

let () =
  let dev = Device.create ~size:(1024 * 1024) () in
  Squirrelfs.mkfs dev;
  let fs = ok (Squirrelfs.mount dev) in
  ok (Squirrelfs.create fs "/src");
  ignore (ok (Squirrelfs.write fs "/src" ~off:0 "precious payload"));
  ok (Squirrelfs.create fs "/dst");
  ignore (ok (Squirrelfs.write fs "/dst" ~off:0 "old contents"));
  Printf.printf "before: src=%b dst=%b (dst will be replaced)\n" (exists fs "/src")
    (exists fs "/dst");

  let fence_no = ref 0 in
  let checked = ref 0 in
  let outcomes = Hashtbl.create 4 in
  Device.set_fence_hook dev
    (Some
       (fun d ->
         incr fence_no;
         let images =
           List.map (Device.materialize d) (Device.crash_views ~max_images:16 d)
         in
         Printf.printf "fence %d: %d possible crash states\n" !fence_no
           (List.length images);
         List.iter
           (fun img ->
             incr checked;
             let fs2 = ok (Squirrelfs.mount (Device.of_image img)) in
             let content p =
               match Squirrelfs.read fs2 p ~off:0 ~len:16 with
               | Ok d -> Some d
               | Error _ -> None
             in
             let payload = "precious payload" in
             let src_has = content "/src" = Some payload in
             let dst_has = content "/dst" = Some payload in
             let verdict =
               match (src_has, dst_has) with
               | true, true -> "payload under BOTH names (atomicity violated!)"
               | false, false -> "payload LOST!"
               | true, false -> "rolled back: /src keeps it, /dst keeps its old file"
               | false, true -> "completed: /dst holds it, /src is gone"
             in
             (* the old /dst contents must never leak into a half state *)
             (if src_has && content "/dst" <> Some "old contents" then
                failwith "replaced file corrupted before the atomic point");
             (if dst_has && content "/src" <> None then
                failwith "source name still visible after the atomic point");
             Hashtbl.replace outcomes verdict
               (1
               + Option.value ~default:0 (Hashtbl.find_opt outcomes verdict)))
           images))
    ;
  ok (Squirrelfs.rename fs "/src" "/dst");
  Device.set_fence_hook dev None;

  Printf.printf "\nafter rename: src=%b dst=%b, dst contains %S\n"
    (exists fs "/src") (exists fs "/dst")
    (ok (Squirrelfs.read fs "/dst" ~off:0 ~len:16));
  Printf.printf "checked %d crash states; outcomes:\n" !checked;
  Hashtbl.iter (fun k v -> Printf.printf "  %4d x %s\n" v k) outcomes;
  if
    Hashtbl.mem outcomes "payload under BOTH names (atomicity violated!)"
    || Hashtbl.mem outcomes "payload LOST!"
  then failwith "atomicity violated"
  else
    Printf.printf
      "rename is atomic: every crash state recovers to src XOR dst (fig. 2)\n"
