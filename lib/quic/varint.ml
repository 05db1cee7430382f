(* QUIC variable-length integer encoding (draft-14 §16): the two most
   significant bits of the first byte give the length (1, 2, 4 or 8 bytes);
   the remainder encodes the value big-endian. Maximum value 2^62 - 1. *)

exception Overflow
exception Truncated

let max_value = 0x3FFF_FFFF_FFFF_FFFFL

let encoded_size v =
  if v < 0L || v > max_value then raise Overflow
  else if v <= 63L then 1
  else if v <= 16383L then 2
  else if v <= 1073741823L then 4
  else 8

(* [encoded_size] in native-int arithmetic, with no Int64 box: every
   non-negative OCaml int is inside the 62-bit varint domain. *)
let encoded_size_int v =
  if v < 0 then raise Overflow
  else if v <= 63 then 1
  else if v <= 16383 then 2
  else if v <= 1073741823 then 4
  else 8

let write buf v =
  match encoded_size v with
  | 1 -> Buffer.add_uint8 buf (Int64.to_int v)
  | 2 -> Buffer.add_uint16_be buf (Int64.to_int v lor 0x4000)
  | 4 ->
    Buffer.add_int32_be buf
      (Int32.logor (Int64.to_int32 v) 0x8000_0000l)
  | _ -> Buffer.add_int64_be buf (Int64.logor v 0xC000_0000_0000_0000L)

let write_int buf v = write buf (Int64.of_int v)

(* Read a varint from [s] at [pos]; returns (value, next position). *)
let read s pos =
  let n = String.length s in
  if pos >= n then raise Truncated;
  let first = Char.code s.[pos] in
  let len = 1 lsl (first lsr 6) in
  if pos + len > n then raise Truncated;
  let v = ref (Int64.of_int (first land 0x3f)) in
  for k = 1 to len - 1 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[pos + k]))
  done;
  (!v, pos + len)

let read_int s pos =
  let v, pos = read s pos in
  (Int64.to_int v, pos)
