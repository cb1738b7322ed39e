(* A growable, append-only event buffer.

   Recording must never perturb the system under observation: [emit] does
   not read clocks or RNGs (the caller supplies the simulated timestamp)
   and performs no I/O.  All cost gating lives at the call sites — a
   component holds a [Recorder.t option] and branches once per event. *)

type t = { mutable evs : Event.t array; mutable len : int }

let create ?(capacity = 1024) () =
  { evs = Array.make (max 1 capacity) { Event.ts = 0; k = Event.Fence }; len = 0 }

let emit r ~ts k =
  if r.len = Array.length r.evs then begin
    let bigger =
      Array.make (2 * r.len) { Event.ts = 0; k = Event.Fence }
    in
    Array.blit r.evs 0 bigger 0 r.len;
    r.evs <- bigger
  end;
  r.evs.(r.len) <- { Event.ts; k };
  r.len <- r.len + 1

let length r = r.len
let to_list r = Array.to_list (Array.sub r.evs 0 r.len)
