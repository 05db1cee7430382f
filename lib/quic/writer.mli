(** Pooled wire-buffer cursor: the zero-copy encoding surface of the send
    path. One growable buffer receives header, frames and tag; writers are
    recycled through an [acquire]/[release] free list so the steady-state
    encoder allocates nothing per packet.

    Ownership: bytes in a writer are valid until [release]/[reset]; copy
    anything that must outlive the packet build out with [contents] or
    [sub_string]. [unsafe_bytes] is invalidated by any write that grows
    the buffer. *)

type t

val create : ?size:int -> unit -> t
val reset : t -> unit
val length : t -> int

val contents : t -> string
(** Copy of everything written so far. *)

val sub_string : t -> off:int -> len:int -> string

val unsafe_bytes : t -> Bytes.t
(** The backing store, for in-place reads (tag computation) and patching
    reserved regions. Invalidated by any subsequent write that grows the
    buffer. *)

val reserve : t -> int -> int
(** Skip [n] bytes to be patched later; returns their offset. *)

val alloc : t -> int -> Bytes.t * int
(** Reserve [n] bytes for a direct blit; returns the backing store and
    the offset. The caller must fill all [n] bytes before the next
    writer operation. *)

val u8 : t -> int -> unit
val u16_be : t -> int -> unit
val i32_be : t -> int32 -> unit
val i64_be : t -> int64 -> unit

val varint : t -> int64 -> unit
(** Identical wire form to {!Varint.write}. *)

val varint_int : t -> int -> unit
(** Identical wire form to [varint (Int64.of_int v)], without allocating.
    @raise Varint.Overflow on a negative value. *)

val string : t -> string -> unit
val subbytes : t -> Bytes.t -> off:int -> len:int -> unit
val fill : t -> int -> char -> unit

(** {2 Free-list pool} *)

val acquire : unit -> t
(** A reset writer from the free list, or a fresh one. *)

val release : t -> unit
(** Return a writer to the free list. The caller must not touch it (or
    bytes obtained from it) afterwards. *)

val outstanding : unit -> int
(** Acquired and not yet released — 0 between packet builds. *)

val created : unit -> int
(** Writers ever constructed by [acquire] — stays at the high-water mark
    of concurrent builds (1 in steady state). *)

val reused : unit -> int
(** Acquisitions served from the free list. *)
