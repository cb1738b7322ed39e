(* Growable buffer of integer samples (nanoseconds, counts). Appending
   never allocates except when the buffer doubles, so recording a sample
   per operation stays cheap next to the operation itself. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 1024 0; n = 0 }
let clear t = t.n <- 0
let length t = t.n

let add t v =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1

let to_array t = Array.sub t.a 0 t.n

(* The samples added from the [from]-th one on. *)
let since t from = Array.sub t.a from (t.n - from)

let sorted ts =
  let all = Array.concat (List.map to_array ts) in
  Array.sort compare all;
  all
