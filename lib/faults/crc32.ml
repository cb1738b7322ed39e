(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
   Detects every single-bit and every two-bit error within the record
   sizes used here, which is the property the media layer relies on. *)

(* Built eagerly: fuzzing domains checksum concurrently, and forcing one
   lazy value from two domains at once raises [CamlinternalLazy.Undefined]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let feed crc byte = table.((crc lxor byte) land 0xFF) lxor (crc lsr 8)

let digest_bytes ?(crc = 0) b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc32.digest_bytes: range outside buffer";
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    c := feed !c (Char.code (Bytes.get b i))
  done;
  !c lxor 0xFFFFFFFF

let digest ?crc s =
  digest_bytes ?crc (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)
