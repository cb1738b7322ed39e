(* Bounded syscall-sequence generator (the B3 shape: short sequences over
   a small namespace, biased toward renames and appends — Mohan et al.
   show almost all known crash-consistency bugs reproduce in that
   fragment). All randomness flows from the caller's [Random.State], so a
   seed fully determines the sequence. *)

module W = Crashcheck.Workload

type cfg = { op_budget : int; buggy_rate : float }

(* Fixed pools keep sequences short and collision-rich: ops frequently hit
   paths earlier ops created, renamed away or deleted, which is where the
   interesting crash states live. *)
let root_names = [ "a"; "b"; "c"; "x"; "y" ]
let dir_pool = [ "/d"; "/e"; "/d/sub" ]
let file_pool = [ "/a"; "/b"; "/c"; "/d/f"; "/d/g"; "/e/h"; "/d/sub/i" ]
let dst_pool = file_pool @ dir_pool @ [ "/moved"; "/d/moved"; "/e/moved" ]

(* Two shared handle tags: collisions (dup open, EBADF after the file
   dies, close of an unbound tag) are exactly the handle states worth
   crash-testing, so the pool is deliberately tiny. *)
let tag_pool = [ "g0"; "g1" ]

(* Two snapshot names: enough for create/rollback collisions (EEXIST on
   the second create, ENOENT after a rollback drops the younger entry)
   without letting sequences hide behind many distinct snapshots. *)
let snap_pool = [ "p0"; "p1" ]

let snap_names m = List.map (fun (n, _, _) -> n) (Ref_fs.snap_list m)

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let files_of m =
  List.filter_map (fun (p, k) -> if k = `File then Some p else None) (Ref_fs.paths m)

let dirs_of m =
  List.filter_map (fun (p, k) -> if k = `Dir then Some p else None) (Ref_fs.paths m)

let data rng max_len =
  String.make (1 + Random.State.int rng max_len)
    (Char.chr (Char.code 'a' + Random.State.int rng 26))

(* The Buggy_* mutants operate on root-level names (they take the parent
   inode directly); only emit kinds whose preconditions hold in [m], so a
   generated buggy op always reaches its mis-ordered store sequence. *)
let gen_buggy rng m =
  let files = files_of m in
  let root_files =
    List.filter (fun p -> String.length p > 1 && not (String.contains_from p 1 '/')) files
  in
  let fresh_roots = List.filter (fun n -> Ref_fs.kind m ("/" ^ n) = None) root_names in
  let candidate : W.buggy_kind -> (unit -> W.op) option = function
    | `Create ->
        if fresh_roots = [] then None
        else Some (fun () -> W.Buggy_create ("/" ^ pick rng fresh_roots))
    | `Unlink ->
        if root_files = [] then None else Some (fun () -> W.Buggy_unlink (pick rng root_files))
    | `Write ->
        if files = [] then None
        else
          Some
            (fun () ->
              W.Buggy_write (pick rng files, String.make (64 + Random.State.int rng 192) 'z'))
    | `Snap ->
        if List.mem W.buggy_snap_name (snap_names m) then None
        else Some (fun () -> W.Buggy_snap W.buggy_snap_name)
  in
  match List.filter_map candidate W.all_buggy_kinds with
  | [] -> None
  | cands -> Some (pick rng cands ())

let gen_correct rng m =
  let files = files_of m and dirs = dirs_of m in
  let efile () = if files = [] then pick rng file_pool else pick rng files in
  let w = Random.State.int rng 100 in
  if w < 22 then
    (* rename-heavy (B3): usually move a live object over the pool *)
    let src =
      if files <> [] && (dirs = [] || Random.State.int rng 10 < 7) then efile ()
      else if dirs <> [] then pick rng dirs
      else pick rng file_pool
    in
    W.Rename (src, pick rng dst_pool)
  else if w < 40 then
    (* append-heavy (B3): write exactly at the current size *)
    let p = efile () in
    let off = match Ref_fs.size m p with Some s -> s | None -> 0 in
    W.Write (p, off, data rng 3000)
  else if w < 52 then W.Create (pick rng file_pool)
  else if w < 60 then W.Mkdir (pick rng dir_pool)
  else if w < 70 then W.Unlink (efile ())
  else if w < 75 then W.Rmdir (if dirs <> [] then pick rng dirs else pick rng dir_pool)
  else if w < 82 then W.Link (efile (), pick rng dst_pool)
  else if w < 87 then W.Truncate (efile (), Random.State.int rng 9000)
  else if w < 91 then W.Symlink (pick rng file_pool, pick rng dst_pool)
  else if w < 93 then W.Write_atomic (efile (), Random.State.int rng 4096, data rng 2000)
  else if w < 95 then W.Write (efile (), Random.State.int rng 6000, data rng 2000)
  else if w < 96 then W.Open (pick rng tag_pool, efile ())
  else if w < 97 then
    (* sparse offsets reach the staged fresh-page commit; small ones the
       in-place path — both under whatever handle state the prefix left *)
    W.Write_h (pick rng tag_pool, Random.State.int rng 9000, data rng 2000)
  else if w < 98 then
    (* snapshot surface: roll back to a live snapshot when one exists
       (the whole-volume flip mid-sequence), otherwise create one; name
       collisions from the tiny pool exercise EEXIST/ENOENT *)
    let snaps = snap_names m in
    if snaps <> [] && Random.State.bool rng then W.Rollback (pick rng snaps)
    else W.Snapshot (pick rng snap_pool)
  else if w < 99 then W.Read_h (pick rng tag_pool, Random.State.int rng 9000, 512)
  else W.Close (pick rng tag_pool)

(* Every sequence starts from the same small namespace (the B3 "standard
   initial image"): without it most pool ops fail at resolution and the
   Buggy_create mutant cannot even reach its mis-ordered stores (it needs
   a root dir page with a free slot; only the correct path allocates one
   on demand). The prefix is part of the sequence, so the shrinker trims
   whatever a reproducer does not need. *)
let setup =
  W.[ Mkdir "/d"; Mkdir "/e"; Mkdir "/d/sub"; Create "/a"; Create "/d/f" ]

(* The generator tracks its own model state so op choices (append offsets,
   buggy preconditions) refer to the tree the sequence has built so far.
   [op_budget] counts generated ops, on top of the fixed setup prefix. *)
let sequence rng cfg =
  let m = ref Ref_fs.empty in
  List.iter (fun op -> m := fst (Ref_fs.apply !m op)) setup;
  setup
  @ List.init cfg.op_budget (fun _ ->
      let op =
        if cfg.buggy_rate > 0. && Random.State.float rng 1.0 < cfg.buggy_rate then
          match gen_buggy rng !m with Some op -> op | None -> gen_correct rng !m
        else gen_correct rng !m
      in
      let m', _ = Ref_fs.apply !m op in
      m := m';
      op)
