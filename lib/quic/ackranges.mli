(** Receiver-side record of received packet numbers, kept as disjoint
    inclusive ranges — the shape ACK frames need. Losses leave permanent
    holes (retransmissions take fresh packet numbers), so the set is
    bounded to [max_ranges], dropping the oldest ranges.

    Ranges are stored unboxed in a flat int array: adding an in-order
    packet number is O(1), {!contains} is a binary search, and neither
    allocates once the array has reached its working size. Ranges are
    indexed largest first, the order of an ACK frame. *)

type range = { first : int64; last : int64 }

type t

val create : ?max_ranges:int -> unit -> t
(** [max_ranges] defaults to 256. *)

val add : t -> int64 -> unit
(** Insert a packet number, merging adjacent ranges. *)

val contains : t -> int64 -> bool
val largest : t -> int64 option
val is_empty : t -> bool

val length : t -> int
(** Number of ranges. *)

val first : t -> int -> int
(** [first t i]: the smallest packet number of range [i], where range 0
    is the one holding the largest packet number. *)

val last : t -> int -> int
(** [last t i]: the largest packet number of range [i]. *)

val ranges : t -> range list
(** Every range as a record, largest first — the reference shape for
    tests and reports; allocates. *)

val cardinal : t -> int64

val check_coherent : t -> (unit, string) result
(** Structural invariant: ranges well-formed ([first <= last]), strictly
    descending, non-adjacent (merged). For chaos/invariant harnesses. *)
