(** Hierarchical timer wheel driven by a {!Netsim.Sim} clock.

    Alarms are intrusive doubly-linked nodes parked in per-level slot
    rings; arming, re-arming and cancelling are O(1) pointer surgery
    with no allocation. The wheel keeps at most a handful of simulator
    events ("drivers") pending — always at an exact alarm deadline —
    instead of one heap event per armed alarm, so a node with a million
    idle connections costs a million wheel nodes but O(1) simulator
    heap entries.

    Geometry: 5 levels x 256 slots over a 65.536 us tick, covering
    deltas up to 2^56 ns (~2.3 years); longer deadlines are parked in
    the farthest slot and re-sorted on cascade.

    Determinism contract (relied on by the pquic fingerprint tests):
    drivers only ever fire at exact armed deadlines, and alarms sharing
    a deadline fire in arm order, so replacing per-alarm [Sim.event]s
    with a shared wheel does not perturb event interleaving. *)

type t
type alarm

val create : Netsim.Sim.t -> t

val shared : Netsim.Sim.t -> t
(** One wheel per simulator, lazily created and memoised in a weak
    registry: all endpoints on a simulator share it for the simulator's
    whole life, and the registry keeps no wheel (nor the connections
    armed on it) alive past its simulator. *)

val alarm : (unit -> unit) -> alarm
(** Allocate an alarm node with the given fire callback. The node is
    reusable forever: arm/cancel/re-arm at will. *)

val set_fire : alarm -> (unit -> unit) -> unit
(** Replace the fire callback (for late binding during record
    construction). *)

val arm : t -> alarm -> at:Netsim.Sim.time -> unit
(** Arm (or re-arm) the alarm to fire at absolute simulated time [at].
    Deadlines in the past clamp to now, matching
    [Sim.schedule_at]. Allocation-free unless the new deadline precedes
    every pending driver, in which case one simulator event is
    scheduled. *)

val arm_delay : t -> alarm -> delay:Netsim.Sim.time -> unit
(** [arm] at now + delay. *)

val cancel : t -> alarm -> unit
(** Disarm. O(1), allocation-free, idempotent. A cancelled alarm never
    fires, even if cancellation happens from another alarm's callback
    in the same fire batch. *)

val is_armed : alarm -> bool

val deadline : alarm -> Netsim.Sim.time
(** Deadline of an armed alarm (meaningless when disarmed). *)

val armed_count : t -> int

type counters = {
  arms : int;
  cancels : int;
  fires : int;
  cascades : int;  (** node relinks during slot cascades *)
  drivers : int;  (** simulator events scheduled on behalf of the wheel *)
}

val counters : t -> counters
