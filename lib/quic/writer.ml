(* Pooled wire-buffer cursor: the zero-copy encoding surface of the
   datapath. A writer owns a growable [Bytes.t] and a position; frames,
   packet headers and the authentication tag are all written into the
   same buffer, and the only per-packet allocation left is the final
   [contents] copy handed to the network (the simulator retains datagram
   payloads, so that copy is irreducible).

   Writers are recycled through a free list ([acquire]/[release]): the
   sender brackets every packet build with an acquire/release pair, so in
   steady state one buffer serves every packet of every connection and
   the encoder allocates nothing. The buffer never shrinks — it converges
   to the largest packet ever built (≈ MTU) and stays there, the same
   fixed-footprint discipline as [Memory_pool] on the plugin side.

   Ownership rule: bytes written into a writer are only valid until
   [release] (or the next [reset]); anything that must outlive the packet
   build — the wire image, the payload echo for plugins — must be copied
   out with [contents]/[sub_string] first. [unsafe_bytes] exposes the
   backing store for in-place reads (tag computation, header patching)
   and is invalidated by any further write that grows the buffer. *)

type t = { mutable buf : Bytes.t; mutable pos : int }

let create ?(size = 2048) () = { buf = Bytes.create (max 16 size); pos = 0 }

let reset t = t.pos <- 0

let length t = t.pos

let unsafe_bytes t = t.buf

let contents t = Bytes.sub_string t.buf 0 t.pos

let sub_string t ~off ~len =
  if off < 0 || len < 0 || off + len > t.pos then
    invalid_arg "Writer.sub_string";
  Bytes.sub_string t.buf off len

(* Grow to at least [needed] total capacity (amortized doubling). *)
let grow t needed =
  let cap = ref (Bytes.length t.buf) in
  while !cap < needed do
    cap := !cap * 2
  done;
  let nb = Bytes.create !cap in
  Bytes.blit t.buf 0 nb 0 t.pos;
  t.buf <- nb

let ensure t n = if t.pos + n > Bytes.length t.buf then grow t (t.pos + n)

(* Reserve [n] bytes to be patched later; returns their offset. The
   reserved bytes hold stale data until patched. *)
let reserve t n =
  ensure t n;
  let off = t.pos in
  t.pos <- off + n;
  off

(* Reserve [n] bytes for a direct blit (e.g. straight out of a send
   buffer); returns the backing store and the offset to write at. The
   caller must fill all [n] bytes before the next writer operation. *)
let alloc t n =
  let off = reserve t n in
  (t.buf, off)

let u8 t v =
  ensure t 1;
  Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (v land 0xff));
  t.pos <- t.pos + 1

let u16_be t v =
  ensure t 2;
  Bytes.set_uint16_be t.buf t.pos v;
  t.pos <- t.pos + 2

let i32_be t v =
  ensure t 4;
  Bytes.set_int32_be t.buf t.pos v;
  t.pos <- t.pos + 4

let i64_be t v =
  ensure t 8;
  Bytes.set_int64_be t.buf t.pos v;
  t.pos <- t.pos + 8

let varint t v =
  match Varint.encoded_size v with
  | 1 -> u8 t (Int64.to_int v)
  | 2 -> u16_be t (Int64.to_int v lor 0x4000)
  | 4 -> i32_be t (Int32.logor (Int64.to_int32 v) 0x8000_0000l)
  | _ -> i64_be t (Int64.logor v 0xC000_0000_0000_0000L)

(* The native-int varint: the same wire form as [varint], built from
   unboxed ints so the hot encoders allocate nothing. The 8-byte form
   sets the 0b11 length prefix on the high 32-bit half, since the
   prefixed value does not fit a 63-bit int. *)
let varint_int t v =
  match Varint.encoded_size_int v with
  | 1 -> u8 t v
  | 2 -> u16_be t (v lor 0x4000)
  | 4 ->
    ensure t 4;
    Bytes.set_int32_be t.buf t.pos (Int32.of_int (v lor 0x8000_0000));
    t.pos <- t.pos + 4
  | _ ->
    ensure t 8;
    Bytes.set_int32_be t.buf t.pos (Int32.of_int ((v lsr 32) lor 0xC000_0000));
    Bytes.set_int32_be t.buf (t.pos + 4) (Int32.of_int (v land 0xFFFF_FFFF));
    t.pos <- t.pos + 8

let string t s =
  let n = String.length s in
  ensure t n;
  Bytes.blit_string s 0 t.buf t.pos n;
  t.pos <- t.pos + n

let subbytes t b ~off ~len =
  ensure t len;
  Bytes.blit b off t.buf t.pos len;
  t.pos <- t.pos + len

let fill t n c =
  ensure t n;
  Bytes.fill t.buf t.pos n c;
  t.pos <- t.pos + n

(* ------------------------------------------------------------------ *)
(* Free-list pool                                                      *)
(* ------------------------------------------------------------------ *)

let free_list : t list ref = ref []
let created_count = ref 0
let outstanding_count = ref 0
let reuse_count = ref 0

let acquire () =
  incr outstanding_count;
  match !free_list with
  | w :: rest ->
    free_list := rest;
    incr reuse_count;
    reset w;
    w
  | [] ->
    incr created_count;
    create ()

let release w =
  decr outstanding_count;
  reset w;
  free_list := w :: !free_list

let outstanding () = !outstanding_count
let created () = !created_count
let reused () = !reuse_count
