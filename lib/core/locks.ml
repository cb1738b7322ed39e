(** Sharded per-inode lock table: the concurrency layer under the
    [Serve] request frontend.

    Inodes hash onto a fixed array of mutexes ([shards] is a power of
    two). An operation collects the inode numbers it will mutate or
    depend on (its {e lock keys}), maps them to shard indexes, and takes
    those shards in ascending index order — the total order makes the
    acquisition deadlock-free by construction: any cycle in the
    waits-for graph would need some domain to hold shard [i] while
    waiting for shard [j < i], which [with_keys] never does. Two keys
    landing on the same shard (including two distinct inodes that
    collide) dedup to a single acquisition, so self-deadlock is
    impossible too.

    [with_all] takes {e every} shard, in the same ascending order — the
    whole-FS lock used by mkfs/unmount and by directory renames (the
    ancestor-chain cycle check reads paths the per-inode keys cannot
    name in advance; this is the moral equivalent of the VFS
    [s_vfs_rename_mutex]). It orders cleanly against any concurrent
    [with_keys] for the same reason.

    The table knows nothing about the file system: callers choose the
    keys. See DESIGN.md ("Concurrent serving") for the protocol the
    server engine layers on top (optimistic resolve → lock → revalidate). *)

type t = { shards : Mutex.t array; mask : int }

let default_shards = 64

(* next power of two >= n *)
let pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(shards = default_shards) () =
  let n = pow2 (max 1 shards) in
  { shards = Array.init n (fun _ -> Mutex.create ()); mask = n - 1 }

let shard_count t = Array.length t.shards

(* Fibonacci hash: inode numbers are small and sequential, so identity
   mod shards would put hot directories and their children in lockstep. *)
let shard_of t key = (key * 0x9E3779B1) lsr 11 land t.mask

(* Ascending, deduplicated shard indexes for a key set. *)
let shard_set t keys =
  List.sort_uniq Int.compare (List.map (fun k -> shard_of t k) keys)

let lock_shards t idxs = List.iter (fun i -> Mutex.lock t.shards.(i)) idxs

let unlock_shards t idxs =
  (* release order is irrelevant for correctness; descending mirrors
     acquisition for readability *)
  List.iter (fun i -> Mutex.unlock t.shards.(i)) (List.rev idxs)

let with_shards t idxs f =
  lock_shards t idxs;
  match f () with
  | v ->
      unlock_shards t idxs;
      v
  | exception e ->
      unlock_shards t idxs;
      raise e

let with_keys t keys f = with_shards t (shard_set t keys) f

let with_all t f =
  with_shards t (List.init (Array.length t.shards) Fun.id) f
