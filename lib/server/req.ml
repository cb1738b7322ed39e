(** Typed requests and replies: the wire format of the [Serve]
    frontend, covering the full {!Vfs.Fs.S} operation surface.

    A request names everything by path, like 9P's [Twalk]+op or NFSv3's
    name-based procedures; the server resolves paths under its lock
    protocol. Replies carry the issuing client, the client's own
    sequence number (so a session can match its pipelined requests) and
    a server-wide monotone stamp assigned while the operation's locks
    are still held — stamps are therefore consistent with the
    per-inode linearization order: if two ops touch a common inode, the
    one stamped first happened first. *)

type req =
  | Create of string
  | Mkdir of string
  | Symlink of string * string  (** [Symlink (target, linkpath)] *)
  | Link of string * string  (** [Link (existing, newpath)] *)
  | Unlink of string
  | Rmdir of string
  | Rename of string * string
  | Write of string * int * string  (** path, offset, data *)
  | Read of string * int * int  (** path, offset, length *)
  | Truncate of string * int
  | Readlink of string
  | Stat of string
  | Readdir of string
  | Fsync of string
  | Open of string * string  (** tag, path: bind an open handle *)
  | Close of string
  | Write_h of string * int * string  (** tag, offset, data *)
  | Read_h of string * int * int  (** tag, offset, length *)
  | Snapshot of string
      (** named crash-consistent snapshot: quiesce under the whole-FS
          lock, capture a delta view, seal a table entry ([Snap]) *)

type payload =
  | Unit
  | Wrote of int  (** bytes written *)
  | Data of string  (** file or symlink contents *)
  | Names of string list  (** directory listing *)
  | Attr of Vfs.Fs.stat

type reply = {
  rp_client : int;
  rp_seq : int;  (** client-local request sequence number *)
  rp_stamp : int;  (** server-wide monotone stamp (see above) *)
  rp_result : (payload, Vfs.Errno.t) result;
}

(* Metric/trace label for a request kind. *)
let name = function
  | Create _ -> "create"
  | Mkdir _ -> "mkdir"
  | Symlink _ -> "symlink"
  | Link _ -> "link"
  | Unlink _ -> "unlink"
  | Rmdir _ -> "rmdir"
  | Rename _ -> "rename"
  | Write _ -> "write"
  | Read _ -> "read"
  | Truncate _ -> "truncate"
  | Readlink _ -> "readlink"
  | Stat _ -> "stat"
  | Readdir _ -> "readdir"
  | Fsync _ -> "fsync"
  | Open _ -> "open"
  | Close _ -> "close"
  | Write_h _ -> "write-h"
  | Read_h _ -> "read-h"
  | Snapshot _ -> "snapshot"
