(** Discrete-event simulation core: a virtual clock in nanoseconds and a
    binary-heap event queue. Ties break by insertion order, so runs are
    fully deterministic. *)

type time = int64
(** Nanoseconds of virtual time. *)

val ns : time
val us : time
val ms : time
val sec : time

val of_ms : float -> time
val of_sec : float -> time
val to_ms : time -> float
val to_sec : time -> float

type event
type t

val create : unit -> t

val id : t -> int
(** Distinct for every simulator of the process — a stable hash key for
    registries keyed by simulator. *)

val now : t -> time

val schedule : t -> delay:time -> (unit -> unit) -> event
(** Run a callback [delay] ns from now. The returned handle can be passed
    to {!cancel}; cancelled events stay in the heap but are skipped. *)

val schedule_at : t -> at:time -> (unit -> unit) -> event
val cancel : event -> unit

val run : ?until:time -> ?max_events:int -> t -> int
(** Execute events until the queue empties, the clock passes [until], or
    [max_events] have run; returns the number executed. When stopped by
    [until], the clock is left exactly there and later events stay
    queued. *)

val pending : t -> int
