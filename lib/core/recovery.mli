(** Loss recovery: RTT estimation, ACK-range processing, loss detection and
    the PTO/loss-timer machinery. Every decision point dispatches through a
    protocol operation so recovery plugins can reshape the behaviour. *)

open Conn_types

val track_sent : t -> path -> sent_packet -> unit
(** Record an ack-eliciting packet sent on the path as in flight: into
    [c.sent] and at the tail of the path's send-order index. *)

val process_ack :
  t -> largest:int -> delay_us:int -> count:int -> int array -> unit
(** Process a received ACK frame, given as the {!Quic.Frame.V_ack} view's
    [count] ranges (largest first, range [i] spanning
    [ranges.(2i) .. ranges.(2i+1)]): credit newly acknowledged packets in
    ascending order (RTT sample, congestion control, per-frame
    notifications), then run loss detection and re-arm the loss timer. *)

val set_loss_alarm : t -> unit
(** (Re-)arm the loss/PTO timer from the oldest in-flight packet; the
    [set_loss_timer] and [get_retransmission_delay] protoops can override
    the schedule. *)

val declare_lost : t -> sent_packet -> unit
(** Declare one in-flight packet lost: congestion response, stats, and the
    per-frame loss notifications that queue retransmissions. *)

val detect_losses : t -> unit
(** Run the (replaceable) packet-threshold + time-threshold loss detector
    over the in-flight table. *)

val oldest_in_flight : t -> sent_packet option
(** The oldest in-flight packet by send time, ties broken by [c.sent]
    iteration order (a full scan). *)

val oldest_send : t -> sent_packet
(** A packet with the oldest in-flight send time, whose [(sent_at,
    path_id)] always equals {!oldest_in_flight}'s: read from the
    send-order index heads, falling back to the scan when heads of two
    paths tie. {!no_packet} when nothing is in flight. *)

val on_loss_alarm : t -> unit
(** The loss-timer expiry behaviour: probe first, full RTO on backoff. *)
