type op =
  | Create of string
  | Mkdir of string
  | Unlink of string
  | Rmdir of string
  | Rename of string * string
  | Link of string * string
  | Symlink of string * string
  | Write of string * int * string
  | Write_atomic of string * int * string
  | Truncate of string * int
  | Fsync of string
  | Fdatasync of string
  | Tmpfile of string
  | Linkat of string * string
  | Open of string * string (* tag, path *)
  | Close of string
  | Write_h of string * int * string (* tag, off, data *)
  | Read_h of string * int * int (* tag, off, len *)
  | Buggy_create of string
  | Buggy_unlink of string
  | Buggy_write of string * string
  | Snapshot of string
  | Rollback of string
  | Buggy_snap of string

let pp_op ppf = function
  | Create p -> Format.fprintf ppf "create(%s)" p
  | Mkdir p -> Format.fprintf ppf "mkdir(%s)" p
  | Unlink p -> Format.fprintf ppf "unlink(%s)" p
  | Rmdir p -> Format.fprintf ppf "rmdir(%s)" p
  | Rename (a, b) -> Format.fprintf ppf "rename(%s,%s)" a b
  | Link (a, b) -> Format.fprintf ppf "link(%s,%s)" a b
  | Symlink (a, b) -> Format.fprintf ppf "symlink(%s,%s)" a b
  | Write (p, off, data) ->
      Format.fprintf ppf "write(%s,%d,%dB)" p off (String.length data)
  | Write_atomic (p, off, data) ->
      Format.fprintf ppf "write-atomic(%s,%d,%dB)" p off (String.length data)
  | Truncate (p, n) -> Format.fprintf ppf "truncate(%s,%d)" p n
  | Fsync p -> Format.fprintf ppf "fsync(%s)" p
  | Fdatasync p -> Format.fprintf ppf "fdatasync(%s)" p
  | Tmpfile tag -> Format.fprintf ppf "tmpfile(%s)" tag
  | Linkat (tag, p) -> Format.fprintf ppf "linkat(%s,%s)" tag p
  | Open (tag, p) -> Format.fprintf ppf "open(%s,%s)" tag p
  | Close tag -> Format.fprintf ppf "close(%s)" tag
  | Write_h (tag, off, data) ->
      Format.fprintf ppf "write-h(%s,%d,%dB)" tag off (String.length data)
  | Read_h (tag, off, len) -> Format.fprintf ppf "read-h(%s,%d,%d)" tag off len
  | Buggy_create p -> Format.fprintf ppf "BUGGY-create(%s)" p
  | Buggy_unlink p -> Format.fprintf ppf "BUGGY-unlink(%s)" p
  | Buggy_write (p, d) ->
      Format.fprintf ppf "BUGGY-write(%s,%dB)" p (String.length d)
  | Snapshot n -> Format.fprintf ppf "snapshot(%s)" n
  | Rollback n -> Format.fprintf ppf "rollback(%s)" n
  | Buggy_snap n -> Format.fprintf ppf "BUGGY-snap(%s)" n

let pp ppf ops =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       pp_op)
    ops

(* The four mutant kinds, one per [Buggy_*] constructor: every
   --expect-buggy leg builds its mutants by an exhaustive match over
   [buggy_kind], so a leg that left one out would not compile. *)
type buggy_kind = [ `Create | `Unlink | `Write | `Snap ]

let all_buggy_kinds : buggy_kind list = [ `Create; `Unlink; `Write; `Snap ]

let buggy_kind_name : buggy_kind -> string = function
  | `Create -> "create"
  | `Unlink -> "unlink"
  | `Write -> "write"
  | `Snap -> "snap"

let buggy_kind_of_op : op -> buggy_kind option = function
  | Buggy_create _ -> Some `Create
  | Buggy_unlink _ -> Some `Unlink
  | Buggy_write _ -> Some `Write
  | Buggy_snap _ -> Some `Snap
  | _ -> None

(* A snapshot slot spans two cache lines and its name starts at byte
   40, so only a name longer than 24 bytes puts record bytes in the
   second line. The mutant stores the commit word before the record is
   fenced, and its torn crash state drains the commit word's line with
   the name tail still in flight. A shorter name keeps the whole record
   in one line, whose stores drain in order, so no crash state holds
   the commit without the sealed fields. *)
let buggy_snap_name = "torn-snapshot-commit-ordering"

let setup =
  [ Mkdir "/D"; Create "/A"; Write ("/A", 0, String.make 2000 'a') ]

(* Canonical B3-style enumeration universe: 2 directories (/D live, /E
   fresh), 2 files (/A live with 2000 bytes, /B fresh), one symlink
   target (/S), one anonymous-file tag ("t0"), all over the fixed
   [setup] prefix. This is the single source of truth for systematic
   workload generation: [systematic_pairs] below and [Fuzzer.Enum]'s
   bounded seq-2/seq-3 sweeps both draw from this alphabet. The first
   14 entries are the pre-enumeration alphabet, pinned by a subset test
   in [test_enum]; the tail widens the op surface with the distinct
   persistence points (fsync/fdatasync), the anonymous-file lifecycle
   (tmpfile/linkat) and a truncate on the fresh file. *)
let alphabet =
  [
    Create "/B";
    Mkdir "/E";
    Unlink "/A";
    Rmdir "/D";
    Rename ("/A", "/B");
    Rename ("/A", "/D/A2");
    Rename ("/D", "/E2");
    Link ("/A", "/B2");
    Symlink ("/A", "/S");
    Write ("/A", 0, String.make 100 'w');
    Write ("/A", 4090, String.make 100 'x');
    Write ("/B", 0, String.make 50 'y');
    Truncate ("/A", 10);
    Truncate ("/A", 9000);
    (* op-surface push *)
    Fsync "/A";
    Fdatasync "/A";
    Tmpfile "t0";
    Linkat ("t0", "/B");
    Truncate ("/B", 0);
    (* split data path: open-handle lifecycle over the live file. The
       in-place write stays under the handle's snapshot; the appends
       exercise the staged relink commit (one lands past the current
       size, extending /A by fresh pages). *)
    Open ("h0", "/A");
    Write_h ("h0", 0, String.make 100 'H');
    Write_h ("h0", 8100, String.make 200 'I');
    Close "h0";
    (* snapshot surface: a named snapshot plus the rollback to it. The
       rollback entry hits ENOENT when no snapshot precedes it in a
       pair, and the full three-phase redo-log flip when one does. *)
    Snapshot "s0";
    Rollback "s0";
  ]

let systematic_pairs () =
  List.concat_map
    (fun a -> List.map (fun b -> setup @ [ a; b ]) alphabet)
    alphabet
