(* SquirrelFS behind the common [Vfs.Fs.S] interface, with every call
   timed on the host clock and its reply classified. The generators in
   lib/workloads (Micro, Filebench) take any [Fs.S], so handing them
   this module measures each SquirrelFS call from outside without
   touching them or the file system. Single-domain: the tallies are
   global. *)

module Sq = Squirrelfs

let op_names =
  [ "create"; "mkdir"; "unlink"; "rmdir"; "link"; "rename"; "symlink";
    "readlink"; "write"; "read"; "truncate"; "block_offset"; "stat";
    "readdir"; "fsync"; "fdatasync"; "tmpfile"; "linkat"; "open"; "close";
    "read_h"; "write_h" ]

let table = List.map (fun n -> (n, Samples.create ())) op_names
let samples name = List.assoc name table
let outcome = ref (Outcome.create ())
let user_bytes = ref 0
let every = Samples.create ()  (* wall ns of every call, in call order *)

let reset () =
  List.iter (fun (_, s) -> Samples.clear s) table;
  Samples.clear every;
  outcome := Outcome.create ();
  user_bytes := 0

let calls () = Samples.length every

let timed s f =
  let t0 = Clock.now_ns () in
  let r = f () in
  let dt = Clock.now_ns () - t0 in
  Samples.add s dt;
  Samples.add every dt;
  Outcome.record !outcome r;
  r

let wrote s data f =
  user_bytes := !user_bytes + String.length data;
  timed s f

type t = Sq.t

let flavor = Sq.flavor
let mkfs = Sq.mkfs
let mount = Sq.mount
let unmount = Sq.unmount
let device = Sq.device
let s_create = samples "create"
let create t p = timed s_create (fun () -> Sq.create t p)
let s_mkdir = samples "mkdir"
let mkdir t p = timed s_mkdir (fun () -> Sq.mkdir t p)
let s_unlink = samples "unlink"
let unlink t p = timed s_unlink (fun () -> Sq.unlink t p)
let s_rmdir = samples "rmdir"
let rmdir t p = timed s_rmdir (fun () -> Sq.rmdir t p)
let s_link = samples "link"
let link t a b = timed s_link (fun () -> Sq.link t a b)
let s_rename = samples "rename"
let rename t a b = timed s_rename (fun () -> Sq.rename t a b)
let s_symlink = samples "symlink"
let symlink t a b = timed s_symlink (fun () -> Sq.symlink t a b)
let s_readlink = samples "readlink"
let readlink t p = timed s_readlink (fun () -> Sq.readlink t p)
let s_write = samples "write"
let write t p ~off d = wrote s_write d (fun () -> Sq.write t p ~off d)
let s_read = samples "read"
let read t p ~off ~len = timed s_read (fun () -> Sq.read t p ~off ~len)
let s_truncate = samples "truncate"
let truncate t p n = timed s_truncate (fun () -> Sq.truncate t p n)
let s_block_offset = samples "block_offset"
let block_offset t p i = timed s_block_offset (fun () -> Sq.block_offset t p i)
let s_stat = samples "stat"
let stat t p = timed s_stat (fun () -> Sq.stat t p)
let s_readdir = samples "readdir"
let readdir t p = timed s_readdir (fun () -> Sq.readdir t p)
let s_fsync = samples "fsync"
let fsync t p = timed s_fsync (fun () -> Sq.fsync t p)
let s_fdatasync = samples "fdatasync"
let fdatasync t p = timed s_fdatasync (fun () -> Sq.fdatasync t p)
let s_tmpfile = samples "tmpfile"
let tmpfile t tag = timed s_tmpfile (fun () -> Sq.tmpfile t tag)
let s_linkat = samples "linkat"
let linkat t tag p = timed s_linkat (fun () -> Sq.linkat t tag p)
let s_open = samples "open"
let open_file t tag p = timed s_open (fun () -> Sq.open_file t tag p)
let s_close = samples "close"
let close_file t tag = timed s_close (fun () -> Sq.close_file t tag)
let s_read_h = samples "read_h"
let read_h t tag ~off ~len = timed s_read_h (fun () -> Sq.read_h t tag ~off ~len)
let s_write_h = samples "write_h"
let write_h t tag ~off d = wrote s_write_h d (fun () -> Sq.write_h t tag ~off d)
