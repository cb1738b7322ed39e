(* Chunked storage buffer backing the simulated device images.

   One representation at every size: a two-level table. The spine holds
   one leaf per [leaf_chunks] chunks (1 MiB of buffer); a leaf holds one
   [chunk_bytes] chunk per slot. Leaves and chunks are allocated on the
   first store into them. Until then a spine slot points at the shared
   [zero_leaf] and a leaf slot at the shared [zero_chunk], so every read
   is two array loads — no hashing, no option boxes — and an unbacked
   chunk is recognized by physical equality with [zero_chunk]. Creating
   a buffer costs O(size / 1 MiB); resident memory tracks touched chunks,
   never volume size.

   Invariants the device layer relies on:
   - [chunk_bytes] is a multiple of the device line size (64), so a
     cache line never straddles two chunks ([line_view] can hand out a
     zero-copy window into one chunk).
   - Aliasing a value shares the table: mutations through either alias
     are visible to both, exactly like aliasing a [Bytes.t] (the
     [of_view] borrowed-device trick depends on this).
   - An unbacked chunk is definitionally all-zero. The two sentinels are
     never written: every mutation of a chunk goes through [chunk_rw],
     which backs the slot first. Backing a chunk with zero content is
     allowed; [load_bytes] backs exactly the chunks holding a nonzero
     byte. *)

let chunk_bytes = 4096
let chunk_shift = 12
let leaf_bits = 8
let leaf_chunks = 1 lsl leaf_bits
let zero_chunk = Bytes.make chunk_bytes '\000'
let zero_leaf = Array.make leaf_chunks zero_chunk

type t = {
  size : int;
  spine : Bytes.t array array;
  mutable backed : int; (* chunks not pointing at [zero_chunk] *)
}

let create ~size =
  let chunks = (size + chunk_bytes - 1) / chunk_bytes in
  {
    size;
    spine = Array.make ((chunks + leaf_chunks - 1) / leaf_chunks) zero_leaf;
    backed = 0;
  }

let length t = t.size

(* [len > size - off] rather than [off + len > size]: the sum wraps
   around for [len] near [max_int]. *)
let check t off len =
  if off < 0 || len < 0 || len > t.size - off then
    invalid_arg
      (Printf.sprintf "Pmem.Sbuf: range off=%d len=%d outside buffer of size %d"
         off len t.size)

(* Chunk [ci] for reading: [zero_chunk] when unbacked. *)
let chunk t ci = t.spine.(ci lsr leaf_bits).(ci land (leaf_chunks - 1))

(* Leaf [li] for writing, allocated on demand. *)
let leaf_rw t li =
  let l = t.spine.(li) in
  if l != zero_leaf then l
  else begin
    let l = Array.make leaf_chunks zero_chunk in
    t.spine.(li) <- l;
    l
  end

(* Chunk [ci] for writing, backing its leaf and itself on demand. *)
let chunk_rw t ci =
  let leaf = leaf_rw t (ci lsr leaf_bits) in
  let i = ci land (leaf_chunks - 1) in
  let c = leaf.(i) in
  if c != zero_chunk then c
  else begin
    let c = Bytes.make chunk_bytes '\000' in
    leaf.(i) <- c;
    t.backed <- t.backed + 1;
    c
  end

let get t off =
  check t off 1;
  Bytes.get (chunk t (off lsr chunk_shift)) (off land (chunk_bytes - 1))

let set t off v =
  check t off 1;
  Bytes.set (chunk_rw t (off lsr chunk_shift)) (off land (chunk_bytes - 1)) v

(* Little-endian multi-byte reads. The aligned case (the only one the
   device layer produces) sits inside one chunk because [chunk_bytes] is
   a multiple of 8; the straddling case falls back to byte assembly. *)
let get_int64_le t off =
  check t off 8;
  let i = off land (chunk_bytes - 1) in
  if i <= chunk_bytes - 8 then
    Bytes.get_int64_le (chunk t (off lsr chunk_shift)) i
  else begin
    let v = ref 0L in
    for k = 7 downto 0 do
      v :=
        Int64.logor (Int64.shift_left !v 8)
          (Int64.of_int (Char.code (get t (off + k))))
    done;
    !v
  end

let get_int32_le t off =
  check t off 4;
  let i = off land (chunk_bytes - 1) in
  if i <= chunk_bytes - 4 then
    Bytes.get_int32_le (chunk t (off lsr chunk_shift)) i
  else begin
    let v = ref 0l in
    for k = 3 downto 0 do
      v :=
        Int32.logor (Int32.shift_left !v 8)
          (Int32.of_int (Char.code (get t (off + k))))
    done;
    !v
  end

(* Copy [len] bytes out into [dst] at [dst_pos]; unbacked gaps copy from
   the zero sentinel. *)
let blit_to_bytes t ~off ~len dst dst_pos =
  check t off len;
  if dst_pos < 0 || len > Bytes.length dst - dst_pos then
    invalid_arg "Pmem.Sbuf.blit_to_bytes: destination range";
  let pos = ref off in
  while !pos < off + len do
    let i = !pos land (chunk_bytes - 1) in
    let n = Int.min (chunk_bytes - i) (off + len - !pos) in
    Bytes.blit (chunk t (!pos lsr chunk_shift)) i dst (dst_pos + !pos - off) n;
    pos := !pos + n
  done

let sub t ~off ~len =
  check t off len;
  let out = Bytes.create len in
  blit_to_bytes t ~off ~len out 0;
  out

let blit_string src ~pos ~len t off =
  check t off len;
  if pos < 0 || len > String.length src - pos then
    invalid_arg "Pmem.Sbuf.blit_string: source range";
  let k = ref 0 in
  while !k < len do
    let abs = off + !k in
    let i = abs land (chunk_bytes - 1) in
    let n = Int.min (chunk_bytes - i) (len - !k) in
    Bytes.blit_string src (pos + !k) (chunk_rw t (abs lsr chunk_shift)) i n;
    k := !k + n
  done

(* Buffer-to-buffer copy. Where [src] is unbacked the destination range
   is zeroed, backing it only if it was already backed: writing zeroes
   into an unbacked dst chunk would back it for nothing. *)
let blit ~src ~src_off ~dst ~dst_off ~len =
  check src src_off len;
  check dst dst_off len;
  let pos = ref 0 in
  while !pos < len do
    let s = src_off + !pos and d = dst_off + !pos in
    let si = s land (chunk_bytes - 1) and di = d land (chunk_bytes - 1) in
    let n = Int.min (Int.min (chunk_bytes - si) (chunk_bytes - di)) (len - !pos) in
    let sc = chunk src (s lsr chunk_shift) in
    (if sc != zero_chunk then
       Bytes.blit sc si (chunk_rw dst (d lsr chunk_shift)) di n
     else
       let dc = chunk dst (d lsr chunk_shift) in
       if dc != zero_chunk then Bytes.fill dc di n '\000');
    pos := !pos + n
  done

(* Make [dst] content-equal to [src] with the same backed chunks, in
   place: the table object survives (aliases stay valid) and [dst]'s
   chunk buffers are reused where both sides are backed. O(size / 1 MiB
   + backed chunks). *)
let sync ~src ~dst =
  if src.size <> dst.size then invalid_arg "Pmem.Sbuf.sync: size mismatch";
  Array.iteri
    (fun li sl ->
      if sl == zero_leaf then dst.spine.(li) <- zero_leaf
      else begin
        let dl = leaf_rw dst li in
        Array.iteri
          (fun i sc ->
            if sc == zero_chunk then dl.(i) <- zero_chunk
            else if dl.(i) != zero_chunk then
              Bytes.blit sc 0 dl.(i) 0 chunk_bytes
            else dl.(i) <- Bytes.copy sc)
          sl
      end)
    src.spine;
  dst.backed <- src.backed

(* Does [img] hold a nonzero byte in [pos, pos + n)? Word-wise, then a
   short tail byte by byte; no closure. *)
let nonzero img pos n =
  let word_stop = pos + (n land lnot 7) and stop = pos + n in
  let i = ref pos in
  while !i < word_stop && Bytes.get_int64_le img !i = 0L do
    i := !i + 8
  done;
  if !i >= word_stop then
    while !i < stop && Bytes.get img !i = '\000' do
      incr i
    done;
  !i < stop

(* The same test in place over a buffer range, chunk by chunk; an
   unbacked chunk is zero. *)
let range_nonzero t ~off ~len =
  check t off len;
  let stop = off + len and pos = ref off and found = ref false in
  while (not !found) && !pos < stop do
    let i = !pos land (chunk_bytes - 1) in
    let n = Int.min (chunk_bytes - i) (stop - !pos) in
    let c = chunk t (!pos lsr chunk_shift) in
    found := c != zero_chunk && nonzero c i n;
    pos := !pos + n
  done;
  !found

(* Reload from a dense image of the same size (the [Device.reset] path),
   backing exactly the chunks that hold a nonzero byte. Already-backed
   chunks are refilled in place rather than reallocated. *)
let load_bytes t img =
  if Bytes.length img <> t.size then
    invalid_arg "Pmem.Sbuf.load_bytes: size mismatch";
  let pos = ref 0 and ci = ref 0 in
  while !pos < t.size do
    let n = Int.min chunk_bytes (t.size - !pos) in
    (if nonzero img !pos n then begin
       let c = chunk_rw t !ci in
       Bytes.blit img !pos c 0 n
     end
     else if chunk t !ci != zero_chunk then begin
       t.spine.(!ci lsr leaf_bits).(!ci land (leaf_chunks - 1)) <- zero_chunk;
       t.backed <- t.backed - 1
     end);
    pos := !pos + n;
    incr ci
  done

let copy t =
  {
    t with
    spine =
      Array.map
        (fun l ->
          if l == zero_leaf then l
          else Array.map (fun c -> if c == zero_chunk then c else Bytes.copy c) l)
        t.spine;
  }

let to_bytes t = sub t ~off:0 ~len:t.size

(* Zero-copy window over a range that cannot straddle chunks (device
   cache lines, 64 B aligned). [None] = unbacked, i.e. provably zero. *)
let line_view t ~off ~len =
  check t off len;
  let ci = off lsr chunk_shift in
  if ci <> (off + len - 1) lsr chunk_shift then
    invalid_arg "Pmem.Sbuf.line_view: range straddles chunks";
  let c = chunk t ci in
  if c == zero_chunk then None else Some (c, off land (chunk_bytes - 1))

let chunk_unbacked t off = chunk t (off lsr chunk_shift) == zero_chunk

(* Merged ascending byte spans of backed content: one pass over the
   spine, entering only allocated leaves. *)
let backed_spans t =
  let spans = ref [] and run = ref (-1) in
  (* [!run] = first chunk of the open run of backed chunks, or -1 *)
  let close ci =
    if !run >= 0 then begin
      let off = !run * chunk_bytes in
      spans := (off, Int.min t.size (ci * chunk_bytes) - off) :: !spans;
      run := -1
    end
  in
  let chunks = (t.size + chunk_bytes - 1) / chunk_bytes in
  for li = 0 to Array.length t.spine - 1 do
    let l = t.spine.(li) in
    if l == zero_leaf then close (li * leaf_chunks)
    else
      for i = 0 to Int.min leaf_chunks (chunks - (li * leaf_chunks)) - 1 do
        if l.(i) == zero_chunk then close ((li * leaf_chunks) + i)
        else if !run < 0 then run := (li * leaf_chunks) + i
      done
  done;
  close chunks;
  List.rev !spans

let resident_bytes t = t.backed * chunk_bytes
