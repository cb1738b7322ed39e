(* Structured observability events.

   Every event carries the simulated-ns timestamp at which it was emitted
   (the device clock, so traces are deterministic for a fixed workload and
   latency model).  The [kind] payload mirrors exactly what the simulated
   PM device and the typestate layer do:

   - [Store]/[Flush]/[Fence] are the raw persistence stream;
   - [Span_begin]/[Span_end] bracket logical operations (VFS op, core op);
   - [Claim_clean] records a typestate transition to the [clean] state
     (an [after_fence]/[fence] call on an object handle) so a trace
     checker can re-verify the claim dynamically;
   - [Meta] carries device geometry so a checker can classify offsets;
   - [Snap_*] events describe durable state that pre-existed the trace
     (a trace normally starts on a mounted file system, so the root inode
     and its directory page were persisted before recording began). *)

type kind =
  | Store of { off : int; data : string; nt : bool; coarse : bool }
  | Flush of { off : int; len : int }
  | Fence
  | Flip of { off : int; bit : int }
  | Span_begin of string
  | Span_end of string
  | Claim_clean of { what : string; off : int; len : int }
  | Meta of (string * int) list
  | Snap_inode of { ino : int; kind : int; links : int; size : int }
  | Snap_page of { page : int; ino : int; kind : int; offset : int }
  | Snap_dentry of { page : int; slot : int; ino : int }

type t = { ts : int; k : kind }

(* -- rendering ---------------------------------------------------------- *)

let fnv1a (s : string) =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let pp_data ppf (s : string) =
  let n = String.length s in
  if n <= 16 then
    String.iter (fun c -> Format.fprintf ppf "%02x" (Char.code c)) s
  else if String.for_all (fun c -> c = '\000') s then
    Format.fprintf ppf "zeros:%d" n
  else Format.fprintf ppf "len:%d:fnv:%016Lx" n (fnv1a s)

let pp_kind ppf = function
  | Store { off; data; nt; coarse } ->
      Format.fprintf ppf "store off=%d len=%d%s%s data=%a" off
        (String.length data)
        (if nt then " nt" else "")
        (if coarse then " coarse" else "")
        pp_data data
  | Flush { off; len } -> Format.fprintf ppf "flush off=%d len=%d" off len
  | Fence -> Format.fprintf ppf "fence"
  | Flip { off; bit } -> Format.fprintf ppf "flip off=%d bit=%d" off bit
  | Span_begin n -> Format.fprintf ppf "begin %s" n
  | Span_end n -> Format.fprintf ppf "end %s" n
  | Claim_clean { what; off; len } ->
      Format.fprintf ppf "claim-clean %s off=%d len=%d" what off len
  | Meta kvs ->
      Format.fprintf ppf "meta";
      List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) kvs
  | Snap_inode { ino; kind; links; size } ->
      Format.fprintf ppf "snap-inode ino=%d kind=%d links=%d size=%d" ino kind
        links size
  | Snap_page { page; ino; kind; offset } ->
      Format.fprintf ppf "snap-page page=%d ino=%d kind=%d offset=%d" page ino
        kind offset
  | Snap_dentry { page; slot; ino } ->
      Format.fprintf ppf "snap-dentry page=%d slot=%d ino=%d" page slot ino

(* Canonical form: the timestamp-free rendering used for golden-trace
   pinning, so that latency-model adjustments do not invalidate goldens. *)
let canonical (e : t) = Format.asprintf "%a" pp_kind e.k

let pp ppf (e : t) = Format.fprintf ppf "[%10d] %a" e.ts pp_kind e.k

let equal (a : t) (b : t) = a.ts = b.ts && a.k = b.k
