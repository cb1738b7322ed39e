(* The typestate guarantee, tested: programs that violate the SSU update
   order must be REJECTED BY THE COMPILER (paper Listing 1). Each snippet
   below is compiled against the built libraries; the mis-ordered ones
   must fail with a typestate mismatch, and the correct control must
   compile, proving the harness itself works. *)

let control_ok =
  {|open Typestate.States
module O = Squirrelfs.Objects

(* the correct create sequence from Listing 2 *)
let _create (ctx : Squirrelfs.Fsctx.t)
    (dh : (clean, O.Dentry.named) O.Dentry.t)
    (ih : (clean, O.Inode.init) O.Inode.t) =
  O.Dentry.commit ctx dh ~inode:ih
|}

let snippets =
  [
    ( "commit with an unfenced (dirty) inode — Listing 1's bug",
      {|open Typestate.States
module O = Squirrelfs.Objects

let _bug (ctx : Squirrelfs.Fsctx.t)
    (dh : (clean, O.Dentry.named) O.Dentry.t)
    (ih : (dirty, O.Inode.init) O.Inode.t) =
  O.Dentry.commit ctx dh ~inode:ih
|},
      "Inode.init" );
    ( "commit with a flushed-but-unfenced inode",
      {|open Typestate.States
module O = Squirrelfs.Objects

let _bug (ctx : Squirrelfs.Fsctx.t)
    (dh : (clean, O.Dentry.named) O.Dentry.t)
    (ih : (in_flight, O.Inode.init) O.Inode.t) =
  O.Dentry.commit ctx dh ~inode:ih
|},
      "in_flight" );
    ( "commit a dentry to a free (uninitialized) inode",
      {|open Typestate.States
module O = Squirrelfs.Objects

let _bug (ctx : Squirrelfs.Fsctx.t)
    (dh : (clean, O.Dentry.named) O.Dentry.t)
    (ih : (clean, O.Inode.free) O.Inode.t) =
  O.Dentry.commit ctx dh ~inode:ih
|},
      "Inode.free" );
    ( "flush a handle that has no pending stores",
      {|open Typestate.States
module O = Squirrelfs.Objects

let _bug (ctx : Squirrelfs.Fsctx.t)
    (ih : (clean, O.Inode.init) O.Inode.t) =
  O.Inode.flush ctx ih
|},
      "clean" );
    ( "deallocate an inode with owned (not freed) pages",
      {|module O = Squirrelfs.Objects
open Typestate.States

let _bug (ctx : Squirrelfs.Fsctx.t)
    (ih : (clean, O.Inode.dec_link) O.Inode.t)
    (ev : O.range_owned_ev) =
  O.Inode.dealloc_file ctx ih ~pages:ev
|},
      "range_owned_ev" );
    ( "clear a rename pointer before the source is invalidated (fig. 2)",
      {|open Typestate.States
module O = Squirrelfs.Objects

let _bug (ctx : Squirrelfs.Fsctx.t)
    (dst : (clean, O.Dentry.renamed) O.Dentry.t)
    (src : (clean, O.Dentry.committed) O.Dentry.t) =
  O.Dentry.clear_rptr ctx ~dst ~src
|},
      "Dentry.committed" );
    ( "mkdir commit without the parent's durable link increment (fig. 3)",
      {|open Typestate.States
module O = Squirrelfs.Objects

let _bug (ctx : Squirrelfs.Fsctx.t)
    (dh : (clean, O.Dentry.named) O.Dentry.t)
    (ih : (clean, O.Inode.init) O.Inode.t)
    (parent : (clean, O.Inode.complete) O.Inode.t) =
  O.Dentry.commit_dir ctx dh ~inode:ih ~parent
|},
      "Inode.complete" );
    ( "decrement a link count with page evidence instead of a dentry clear",
      {|open Typestate.States
module O = Squirrelfs.Objects

let _bug (ctx : Squirrelfs.Fsctx.t)
    (ih : (clean, O.Inode.complete) O.Inode.t)
    (ev : O.range_freed_ev) =
  O.Inode.dec_link ctx ih ~cleared:ev
|},
      "range_freed_ev" );
    (* transitions that share one body keep their own types *)
    ( "hard-link commit of a never-linked (init) inode",
      {|open Typestate.States
module O = Squirrelfs.Objects

let _bug (ctx : Squirrelfs.Fsctx.t)
    (dh : (clean, O.Dentry.named) O.Dentry.t)
    (ih : (clean, O.Inode.init) O.Inode.t) =
  O.Dentry.commit_link ctx dh ~inode:ih
|},
      "Inode.inc_link" );
    ( "set backpointers on an unfenced fill",
      {|open Typestate.States
module O = Squirrelfs.Objects

let _bug (ctx : Squirrelfs.Fsctx.t)
    (r : (dirty, O.Prange.dataful) O.Prange.t) =
  O.Prange.set_backptrs ctx r
|},
      "dirty" );
    ( "rename-over pointer on a fresh (named) destination",
      {|open Typestate.States
module O = Squirrelfs.Objects

let _bug (ctx : Squirrelfs.Fsctx.t)
    (dst : (clean, O.Dentry.named) O.Dentry.t)
    (src : (clean, O.Dentry.committed) O.Dentry.t) =
  O.Dentry.set_rptr_over ctx dst ~src
|},
      "Dentry.named" );
    ( "set the size of an uncommitted (get_init) inode",
      {|open Typestate.States
module O = Squirrelfs.Objects

let _bug (ctx : Squirrelfs.Fsctx.t) ino =
  O.Inode.set_size ctx (O.Inode.get_init ctx ino) ~size:0 ~owned:None ()
|},
      "Inode.init" );
    ( "settle a link increment without its dependent commit",
      {|open Typestate.States
module O = Squirrelfs.Objects

let _bug (ctx : Squirrelfs.Fsctx.t)
    (ih : (clean, O.Inode.complete) O.Inode.t) =
  let ih = O.Inode.inc_link ctx ih in
  O.Inode.settle_dec ctx (O.Inode.fence ctx (O.Inode.flush ctx ih))
|},
      "Inode.inc_link" );
  ]

(* Locate the built library .cmi directories relative to the test binary:
   _build/default/test/<exe> -> _build/default/lib/<lib>/.<name>.objs/byte *)
let lib_dirs () =
  let build = Filename.dirname (Filename.dirname Sys.executable_name) in
  List.filter_map
    (fun (dir, name) ->
      let d =
        Filename.concat build
          (Filename.concat "lib" (Filename.concat dir ("." ^ name ^ ".objs/byte")))
      in
      if Sys.file_exists d then Some d else None)
    [
      ("pmem", "pmem");
      ("typestate", "typestate");
      ("layout", "layout");
      ("vfs", "vfs");
      ("core", "squirrelfs");
    ]

let compile src =
  let dir = Filename.temp_file "typestate" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let file = Filename.concat dir "snippet.ml" in
  let oc = open_out file in
  output_string oc src;
  close_out oc;
  let err = Filename.concat dir "stderr.txt" in
  let includes =
    String.concat " " (List.map (fun d -> "-I " ^ Filename.quote d) (lib_dirs ()))
  in
  let cmd =
    Printf.sprintf
      "ocamlfind ocamlc -package fmt,logs %s -c %s 2> %s"
      includes (Filename.quote file) (Filename.quote err)
  in
  let rc = Sys.command cmd in
  let ic = open_in err in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  (rc, Bytes.to_string b)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_harness_sane () =
  if lib_dirs () = [] then
    Alcotest.skip ()
  else begin
    let rc, err = compile control_ok in
    if rc <> 0 then
      Alcotest.failf "correct control failed to compile:\n%s" err
  end

let test_rejected (name, src, expect) () =
  if lib_dirs () = [] then Alcotest.skip ()
  else begin
    let rc, err = compile src in
    Alcotest.(check bool)
      (Printf.sprintf "%S must not compile" name)
      true (rc <> 0);
    Alcotest.(check bool)
      (Printf.sprintf "error mentions the offending state %S (got: %s)" expect
         err)
      true
      (contains err expect)
  end

let () =
  Alcotest.run "compile-fail"
    [
      ( "typestate misuse is a type error",
        Alcotest.test_case "control: correct sequence compiles" `Quick
          test_harness_sane
        :: List.map
             (fun ((name, _, _) as s) ->
               Alcotest.test_case name `Quick (test_rejected s))
             snippets );
    ]
