(* Interleaved 2-op crash-consistency checking: the concurrent
   counterpart of [Exec].

   The sequential fuzzer checks one op at a time; the server runs ops
   from different clients concurrently under the sharded per-inode lock
   table. This module checks exactly the schedules that lock table
   permits:

   - ops whose lock keys {e overlap} serialize — the only
     lock-respecting interleavings are the two serial orders, each run
     through the full differential executor ([Exec.run]);
   - ops on {e disjoint} paths can interleave at every persist point —
     each op runs as an effect-handler coroutine that yields at each
     [Fsctx.fence], and a DFS over the choice points deterministically
     enumerates every fence-granularity interleaving.

   Every enumerated schedule is one run of [Exec]'s crash-checked run
   body ([Exec.run_with]), with this module's scheduler in place of the
   sequential loop, from a pooled template of the volume after the
   setup prefix. Each recovered crash state must be one of the four
   legal logical states {setup, A-only, B-only, A∧B} (both ops are
   crash-atomic, so a crash image may durably contain any subset of the
   two — but never half of one), and the final durable state must be
   A∧B, file contents included (the ops commute; their serial captures
   are asserted equal before exploration). The run's store/flush/fence
   trace is then re-checked with the [Obs.Ssu] ordering checker, so both
   oracles cover every interleaving.

   Fence-granularity is lock-granularity here: within one domain an op's
   stores between two persist points are not observable by the crash
   oracle anyway (a crash view can only publish lines the op already
   flushed), so yielding at fences loses no distinguishable schedules.

   Everything is deterministic: pair generation reseeds per
   [(0x5EED, seed, pair index)], DFS order is fixed, and coroutines run
   on a single domain. *)

module Sq = Squirrelfs
module W = Crashcheck.Workload
module Logical = Vfs.Logical
module Errno = Vfs.Errno

(* {2 Lock-footprint classification}

   Mirrors [Serve.Engine]'s lock keys (final parent + target): two ops
   contend iff they name a common path, or a structural op's target is
   an ancestor of something the other touches. *)

let parent p =
  match String.rindex_opt p '/' with
  | Some 0 | None -> "/"
  | Some i -> String.sub p 0 i

(* Paths the op names directly (its lock targets). *)
let targets (op : W.op) =
  match op with
  | W.Create p | W.Mkdir p | W.Unlink p | W.Rmdir p | W.Truncate (p, _)
  | W.Write (p, _, _) | W.Write_atomic (p, _, _) | W.Buggy_create p
  | W.Buggy_unlink p | W.Buggy_write (p, _) | W.Symlink (_, p) ->
      [ p ]
  | W.Rename (a, b) | W.Link (a, b) -> [ a; b ]
  | W.Fsync p | W.Fdatasync p -> [ p ]
  (* The fd-registry tag is modelled as a pseudo-path: two ops sharing a
     tag (tmpfile then linkat) must stay ordered. Its "parent" resolves
     to "/", which conservatively serializes tag ops against root-level
     namespace ops. *)
  | W.Tmpfile tag -> [ "tag:" ^ tag ]
  | W.Linkat (tag, p) -> [ "tag:" ^ tag; p ]
  (* Open-handle ops: the open names its path (it resolves it) and all
     four name the tag pseudo-path, so an open/write-h/close chain on
     one tag stays ordered, and the open serializes against namespace
     ops on the same file. Handle reads/writes after the open contend
     only via the tag — exactly the split-data-path contract (path ops
     invalidate via version counters, not locks). *)
  | W.Open (tag, p) -> [ "tag:" ^ tag; p ]
  | W.Close tag | W.Write_h (tag, _, _) | W.Read_h (tag, _, _) ->
      [ "tag:" ^ tag ]
  (* Whole-volume ops: no per-path footprint; [is_global] below makes
     them contend with everything, as [Serve.Engine]'s global lock
     does. *)
  | W.Snapshot _ | W.Rollback _ | W.Buggy_snap _ -> []

(* Snapshot creation/rollback quiesce the whole volume under the global
   lock ([Locks.with_all]): the only lock-respecting schedules against
   {e any} other op are the two serial orders. *)
let is_global = function
  | W.Snapshot _ | W.Rollback _ | W.Buggy_snap _ -> true
  | _ -> false

let touched op = targets op @ List.map parent (targets op)

let strict_ancestor a b =
  a <> "/" && String.length b > String.length a
  && String.sub b 0 (String.length a) = a
  && b.[String.length a] = '/'

let overlap a b =
  is_global a || is_global b
  ||
  let ta = touched a and tb = touched b in
  List.exists (fun p -> List.mem p tb) ta
  || List.exists (fun x -> List.exists (strict_ancestor x) tb) (targets a)
  || List.exists (fun x -> List.exists (strict_ancestor x) ta) (targets b)

(* {2 The coroutine scheduler} *)

type _ Effect.t += Yield : unit Effect.t

type fiber =
  | Unstarted of W.op
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Done of (unit, Errno.t) result

type sched_out = {
  so_schedule : int list;  (** fiber id chosen at each step *)
  so_branches : int list list;  (** unexplored sibling prefixes *)
  so_fail : string option;  (** first oracle violation, if any *)
  so_states : int;  (** crash states probed *)
  so_deduped : int;
  so_ssu : string option;  (** first SSU trace violation, if any *)
  so_results : (unit, Errno.t) result array;  (** per-fiber op results *)
}

(* One traced, crash-checked run through [Exec]: the oracle's first
   violation, the SSU checker's verdict on the recorded trace, and the
   probe counts. *)
let checked_leg run =
  let r = Obs.Recorder.create () in
  let out = run r in
  let ssu =
    match Obs.Ssu.check (Obs.Recorder.to_list r) with
    | Ok () -> None
    | Error v -> Some (Format.asprintf "%a" Obs.Ssu.pp_violation v)
  in
  let h = out.Exec.o_report in
  (Option.map snd out.Exec.o_fail, ssu, h.Crashcheck.Harness.crash_states,
   h.Crashcheck.Harness.states_deduped)

(* Run one schedule: follow [prefix]'s choices, then always pick the
   lowest-id runnable fiber, recording each abandoned alternative as a
   sibling prefix for the DFS. The run is [Exec]'s, from the
   post-setup template, at the budget [Exec.images_per_fence] gives
   [ops]: the crash oracle probes every fence against the four subset
   states, and the quiescent volume must equal [final]. *)
let run_schedule pool ~legal ~final ~(ops : W.op array) ~prefix =
  let fibers = Array.map (fun op -> Unstarted op) ops in
  let runnable i = match fibers.(i) with Done _ -> false | _ -> true in
  let step ctx i =
    match fibers.(i) with
    | Done _ -> assert false
    | Suspended k -> Effect.Deep.continue k ()
    | Unstarted op ->
        Effect.Deep.match_with
          (fun () -> fibers.(i) <- Done (Exec.apply_sq ctx op))
          ()
          {
            retc = Fun.id;
            exnc = raise;
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Yield ->
                    Some
                      (fun (k : (a, unit) Effect.Deep.continuation) ->
                        fibers.(i) <- Suspended k)
                | _ -> None);
          }
  in
  let schedule = ref [] and branches = ref [] in
  let rec drive ctx prefix =
    match List.filter runnable [ 0; 1 ] with
    | [] -> ()
    | runnables ->
        let choice, rest =
          match prefix with
          | c :: rest ->
              if not (runnable c) then
                failwith "interleave: DFS prefix chose a finished fiber"
              else (c, rest)
          | [] ->
              (* past the prefix: default choice, siblings become new
                 DFS prefixes *)
              let c = List.hd runnables in
              List.iter
                (fun alt ->
                  branches :=
                    List.rev (alt :: !schedule) :: !branches)
                (List.filter (fun x -> x <> c) runnables);
              (c, [])
        in
        schedule := choice :: !schedule;
        step ctx choice;
        drive ctx rest
  in
  (* Yield at every persist point of the fiber ops; the template
     predates the hook, so the setup never yields. A violation raises
     out of the fiber that hit it: unwind the suspended one so its
     cleanup handlers run. *)
  let run_fibers ctx =
    ctx.Sq.Fsctx.on_fence <- Some (fun () -> Effect.perform Yield);
    match drive ctx prefix with
    | () -> ctx.Sq.Fsctx.on_fence <- None
    | exception e ->
        ctx.Sq.Fsctx.on_fence <- None;
        Array.iter
          (function
            | Suspended k -> (
                try Effect.Deep.discontinue k e with e' when e' == e -> ())
            | _ -> ())
          fibers;
        raise e
  in
  let fail, ssu, states, deduped =
    checked_leg (fun trace ->
        Exec.run_with
          ~max_images_per_fence:(Exec.images_per_fence (Array.to_list ops))
          ~pool ~setup:Gen.setup ~trace ~legal ~final run_fibers)
  in
  {
    so_schedule = List.rev !schedule;
    so_branches = !branches;
    so_fail = fail;
    so_states = states;
    so_deduped = deduped;
    so_ssu = ssu;
    so_results = Array.map (function Done r -> r | _ -> Error Errno.EIO) fibers;
  }

(* {2 Pair exploration} *)

type pair_kind = Disjoint | Overlapping

type pair_result = {
  pr_index : int;
  pr_a : W.op;
  pr_b : W.op;
  pr_kind : pair_kind;
  pr_schedules : int;  (** interleavings explored (serial orders included) *)
  pr_skipped : int;  (** schedules beyond the cap, if any *)
  pr_states : int;
  pr_deduped : int;
  pr_oracle_fail : string option;
  pr_ssu_fail : string option;
}

let model_after ops =
  List.fold_left
    (fun (m, ok) op ->
      let m', r = Ref_fs.apply m op in
      match r with Ok () -> (m', ok) | Error _ -> (m, false))
    (Ref_fs.empty, true) ops

(* Explore every lock-respecting interleaving of a disjoint pair via
   DFS over schedule prefixes. *)
let explore_disjoint pool ~max_interleavings ~(a : W.op) ~(b : W.op) ~legal ~final =
  let ops = [| a; b |] in
  let stack = ref [ [] ] in
  let n = ref 0 and skipped = ref 0 in
  let states = ref 0 and deduped = ref 0 in
  let oracle_fail = ref None and ssu_fail = ref None in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | prefix :: rest ->
        stack := rest;
        if !n >= max_interleavings then incr skipped
        else begin
          incr n;
          let out = run_schedule pool ~legal ~final ~ops ~prefix in
          states := !states + out.so_states;
          deduped := !deduped + out.so_deduped;
          if !oracle_fail = None then oracle_fail := out.so_fail;
          if !ssu_fail = None then ssu_fail := out.so_ssu;
          (* depth-first: push new branches ahead of pending ones *)
          stack := out.so_branches @ !stack;
          (* differential return values: the model accepted both ops *)
          if !oracle_fail = None then
            Array.iteri
              (fun i r ->
                match r with
                | Ok () -> ()
                | Error (Errno.ENOSPC | Errno.EMLINK) ->
                    (* benign capacity divergence, as in [Exec] *)
                    ()
                | Error e ->
                    oracle_fail :=
                      Some
                        (Printf.sprintf
                           "differential: op %d (%s) failed %s where the \
                            model succeeded"
                           i
                           (Format.asprintf "%a" W.pp_op ops.(i))
                           (Errno.to_string e)))
              out.so_results
        end
  done;
  (!n, !skipped, !states, !deduped, !oracle_fail, !ssu_fail)

(* Overlapping pair: the lock table serializes it, so its two serial
   orders are the only lock-respecting schedules — run both through the
   full sequential differential executor, traced, at the exhaustive
   image budget: pairs are tiny. *)
let serial_legs epool ~(a : W.op) ~(b : W.op) =
  let one ops =
    checked_leg (fun trace ->
        Exec.run ~pool:epool ~max_images_per_fence:Exec.exhaustive_images_per_fence ~trace ops)
  in
  let o1, s1, n1, d1 = one (Gen.setup @ [ a; b ]) in
  let o2, s2, n2, d2 = one (Gen.setup @ [ b; a ]) in
  let first x y = if x = None then y else x in
  (2, 0, n1 + n2, d1 + d2, first o1 o2, first s1 s2)

type report = {
  i_pairs : int;
  i_disjoint : int;
  i_overlapping : int;
  i_schedules : int;
  i_skipped : int;
  i_states : int;
  i_deduped : int;
  i_failures : pair_result list;  (** pairs where either oracle fired *)
}

let pair_failed pr = pr.pr_oracle_fail <> None || pr.pr_ssu_fail <> None

(* Generate the [i]-th op pair on top of the setup model. Both ops are
   drawn against the same post-setup model: they are what two clients
   would submit concurrently from the same observed state. *)
let gen_pair ~seed i =
  let rng = Random.State.make [| 0x5EED; seed; i |] in
  let m0, _ = model_after Gen.setup in
  (Gen.gen_correct rng m0, Gen.gen_correct rng m0)

let check_pair ~pools:(pool, epool) ~max_interleavings ~index (a, b) =
  let m0, _ = model_after Gen.setup in
  let cap0 = Ref_fs.capture m0 in
  let ma, ra = Ref_fs.apply m0 a in
  let mb, rb = Ref_fs.apply m0 b in
  let mab, rab = Ref_fs.apply ma b in
  let mba, rba = Ref_fs.apply mb a in
  let commute =
    ra = Ok () && rb = Ok () && rab = Ok () && rba = Ok ()
    && Logical.equal ~compare_data:true (Ref_fs.capture mab)
         (Ref_fs.capture mba)
  in
  let kind =
    if (not (overlap a b)) && commute then Disjoint else Overlapping
  in
  let schedules, skipped, states, deduped, oracle_fail, ssu_fail =
    match kind with
    | Disjoint ->
        let final = Ref_fs.capture mab in
        explore_disjoint pool ~max_interleavings ~a ~b ~final
          ~legal:[ cap0; Ref_fs.capture ma; Ref_fs.capture mb; final ]
    | Overlapping -> serial_legs epool ~a ~b
  in
  {
    pr_index = index;
    pr_a = a;
    pr_b = b;
    pr_kind = kind;
    pr_schedules = schedules;
    pr_skipped = skipped;
    pr_states = states;
    pr_deduped = deduped;
    pr_oracle_fail = oracle_fail;
    pr_ssu_fail = ssu_fail;
  }

let run ?(seed = 1) ?(pairs = 50) ?(max_interleavings = 64) () =
  let pools = (Exec.Pool.create (), Exec.Pool.create ()) in
  let results =
    List.init pairs (fun i ->
        check_pair ~pools ~max_interleavings ~index:i
          (gen_pair ~seed i))
  in
  {
    i_pairs = pairs;
    i_disjoint =
      List.length (List.filter (fun r -> r.pr_kind = Disjoint) results);
    i_overlapping =
      List.length (List.filter (fun r -> r.pr_kind = Overlapping) results);
    i_schedules = List.fold_left (fun a r -> a + r.pr_schedules) 0 results;
    i_skipped = List.fold_left (fun a r -> a + r.pr_skipped) 0 results;
    i_states = List.fold_left (fun a r -> a + r.pr_states) 0 results;
    i_deduped = List.fold_left (fun a r -> a + r.pr_deduped) 0 results;
    i_failures = List.filter pair_failed results;
  }

(* {2 Expect-buggy leg}

   Each mutant kind paired with a correct op on a disjoint path, the
   snapshot mutant with any op (it is global, so its pair serializes).
   The mutants skip [Fsctx.fence] (they mis-order raw device stores), so
   a mutant never yields: the schedules interleave the partner's persist
   points around it. A kind's row records whether the crash oracle and
   the SSU trace checker each flagged at least one schedule. *)

let buggy_pair : W.buggy_kind -> W.op * W.op = function
  | `Create -> (W.Buggy_create "/x", W.Write ("/d/f", 0, String.make 100 'q'))
  | `Unlink -> (W.Buggy_unlink "/a", W.Create "/e/n")
  | `Write -> (W.Buggy_write ("/a", String.make 80 'z'), W.Create "/d/n")
  | `Snap -> (W.Buggy_snap W.buggy_snap_name, W.Write ("/a", 0, String.make 90 'w'))

let run_buggy ?(max_interleavings = 64) () =
  let pools = (Exec.Pool.create (), Exec.Pool.create ()) in
  {
    Driver.a_faults = [];
    a_rows =
      List.mapi
        (fun i k ->
          let pr = check_pair ~pools ~max_interleavings ~index:i (buggy_pair k) in
          { Driver.k_kind = k; k_oracle = pr.pr_oracle_fail <> None;
            k_trace = pr.pr_ssu_fail <> None })
        W.all_buggy_kinds;
  }
