(** QUIC frames: typed representation and wire codec (draft-14 shapes).

    Only {e core} frames are known here. Frame types reserved by protocol
    plugins (DATAGRAM, MP_ACK, FEC_*, ...) parse as {!Unknown}: the PQUIC
    engine then routes them to the parse_frame[type] protocol operation so
    a pluglet can consume them — the paper's "generic entry point allowing
    the definition of new behaviors without changing the caller". The
    plugin-exchange frames (PLUGIN_VALIDATE, PLUGIN_PROOF, PLUGIN) belong
    to the PQUIC core (Section 3.4) and are parsed natively. *)

type ack = {
  largest : int64;
  delay_us : int64;
  ranges : (int64 * int64) list;
      (** (first, last) inclusive, descending; head must end at [largest] *)
}

type t =
  | Padding of int
  | Ping
  | Ack of ack
  | Crypto of { offset : int64; data : string }
  | Stream of { id : int; offset : int64; fin : bool; data : string }
  | Max_data of int64
  | Max_stream_data of { id : int; max : int64 }
  | Connection_close of { code : int; reason : string }
  | Handshake_done
  | Path_challenge of int64
  | Path_response of int64
  | New_connection_id of { seq : int64; cid : int64 }
      (** a spare CID the peer may rotate to on migration (RFC 9000
          §5.1.1); fixed 8-byte CIDs in this implementation *)
  | Retire_connection_id of int64  (** sequence number being retired *)
  | Plugin_validate of { plugin : string; formula : string }
      (** request a plugin, pinning the required validation formula *)
  | Plugin_proof of { plugin : string; proof : string }
      (** announces/refuses a transfer; large proof bundles travel framed at
          the head of the PLUGIN stream instead *)
  | Plugin_chunk of { plugin : string; offset : int64; fin : bool; data : string }
      (** PLUGIN frames: the bytecode stream, akin to the crypto stream *)
  | Unknown of { ftype : int; raw : string }
      (** a plugin-defined frame; [raw] is the rest of the packet payload —
          the plugin's parse protoop decides how much it consumed *)

(** {2 Frame type numbers} *)

val type_padding : int
val type_ping : int
val type_ack : int
val type_crypto : int
val type_stream : int
val type_stream_nofin : int
val type_max_data : int
val type_max_stream_data : int
val type_connection_close : int
val type_handshake_done : int
val type_path_challenge : int
val type_path_response : int
val type_new_connection_id : int
val type_retire_connection_id : int
val type_plugin_validate : int
val type_plugin_proof : int
val type_plugin_chunk : int

(** Types reserved for the protocol plugins shipped in this repository. *)

val type_datagram : int
val type_add_address : int
val type_mp_ack : int
val type_fec_id : int
val type_fec_rs : int

val frame_type : t -> int

val is_ack_eliciting : t -> bool
(** Everything except PADDING, ACK and CONNECTION_CLOSE. Plugin frames use
    the reservation's flag instead (e.g. MP_ACK is not ack-eliciting). *)

val serialize : Buffer.t -> t -> unit
val to_string : t -> string

val wire_size : t -> int
(** Wire size by serializing into a scratch buffer — the reference
    semantics the pooled fast path is differentially tested against. *)

(** {2 Pooled fast path}

    Arithmetic sizes and direct-to-writer encoders, byte-identical to
    {!serialize}/{!wire_size} (enforced by the differential tests). The
    [*_header] variants write the data-bearing frames apart from their
    payload so the sender can blit stream/crypto/plugin bytes straight
    from the send buffer into the wire buffer. *)

val size : t -> int
(** Equals {!wire_size}, computed without serializing. *)

val write : Writer.t -> t -> unit
(** Byte-identical to {!serialize}. *)

val stream_header_size : id:int -> offset:int64 -> len:int -> int
val write_stream_header :
  Writer.t -> id:int -> offset:int64 -> fin:bool -> len:int -> unit

val crypto_header_size : offset:int64 -> len:int -> int
val write_crypto_header : Writer.t -> offset:int64 -> len:int -> unit

val plugin_chunk_header_size : plugin:string -> offset:int64 -> int
val write_plugin_chunk_header :
  Writer.t -> plugin:string -> offset:int64 -> fin:bool -> len:int -> unit

val ack_size : Ackranges.t -> max_ranges:int -> delay_us:int -> int

val write_ack : Writer.t -> Ackranges.t -> max_ranges:int -> delay_us:int -> unit
(** The production ACK encoder: an ACK frame written straight from a
    non-empty range set, carrying its first [max_ranges] ranges (largest
    first), allocation-free. Byte-identical to {!write} on the {!Ack}
    holding the same ranges; [ack_size] equals its length.
    @raise Varint.Overflow on a negative [delay_us]. *)

(** {2 Zero-copy view parsing}

    The receive-side mirror of the pooled fast path: data-bearing frames
    parse as {e views} — offsets + lengths into the datagram a {!Reader}
    walks — with no payload copy; payload-free control frames parse into
    their usual {!t} shape. A view borrows the datagram: it is valid only
    while that string is alive, and payload that must survive packet
    processing is blitted out at the reassembly boundary
    ([Recvbuf.insert_sub]) or materialized with {!of_view}. *)

type view =
  | V_frame of t  (** a payload-free frame, parsed eagerly *)
  | V_ack of { largest : int; delay_us : int; count : int; ranges : int array }
      (** an ACK frame with native-int fields: [count] ranges, largest
          first, range [i] being [ranges.(2i) .. ranges.(2i+1)]. [ranges]
          is the reader's scratch ({!Reader.int_scratch}): valid until
          that reader parses its next ACK or is released. *)
  | V_crypto of { offset : int64; off : int; len : int }
  | V_stream of { id : int; offset : int64; fin : bool; off : int; len : int }
  | V_unknown of { ftype : int; off : int; len : int }
      (** [off..off+len) is the rest of the packet payload; the plugin's
          parse protoop decides how much the frame consumed *)

val parse_view : Reader.t -> view
(** Parse one frame through the reader, advancing it. Agrees with the
    reference {!parse} on every input — value, cursor advance and raising
    alike (differentially tested).
    @raise Varint.Truncated on malformed input. *)

val view_type : view -> int
val view_is_ack_eliciting : view -> bool

val of_view : string -> view -> t
(** Materialize a view into the equivalent allocating frame; the string is
    the datagram the view indexes. *)

val parse : string -> int -> t * int
(** Parse one frame; returns it and the next position. For unknown types
    the remainder of the payload is captured raw and the position is the
    buffer end — the engine re-adjusts from the plugin's parse result.
    @raise Varint.Truncated on malformed input, including an ACK range
    reaching below packet number 0 (RFC 9000 §19.3.1). *)

val pp : t Fmt.t
