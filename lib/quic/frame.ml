(* QUIC frames: typed representation and wire codec (draft-14 shapes).

   Only *core* frames are known here. Frame types reserved by protocol
   plugins (DATAGRAM, MP_ACK, FEC_*, ...) parse as [Unknown]: the PQUIC
   engine then routes them to the parse_frame[type] protocol operation so a
   pluglet can consume them — the paper's "generic entry point allowing the
   definition of new behaviors without changing the caller". The plugin
   exchange frames (PLUGIN_VALIDATE, PLUGIN_PROOF, PLUGIN) belong to the
   PQUIC core (Section 3.4) and are parsed natively. *)

type ack = {
  largest : int64;
  delay_us : int64;
  ranges : (int64 * int64) list; (* (first, last) inclusive, descending *)
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
      (* a spare CID the peer may rotate to on migration (RFC 9000 §5.1.1);
         fixed 8-byte CIDs in this implementation *)
  | Retire_connection_id of int64 (* sequence number being retired *)
  | Plugin_validate of { plugin : string; formula : string }
  | Plugin_proof of { plugin : string; proof : string }
  | Plugin_chunk of { plugin : string; offset : int64; fin : bool; data : string }
  | Unknown of { ftype : int; raw : string }
      (* [raw] is the rest of the packet payload; a plugin's parse protoop
         decides how many bytes the frame actually consumed. *)

let type_padding = 0x00
let type_ping = 0x01
let type_ack = 0x02
let type_crypto = 0x06
let type_stream = 0x0f (* always encoded with offset, length and fin bit set *)
let type_stream_nofin = 0x0e
let type_max_data = 0x10
let type_max_stream_data = 0x11
let type_connection_close = 0x1c
let type_handshake_done = 0x1e
let type_path_challenge = 0x1a
let type_path_response = 0x1b
let type_new_connection_id = 0x18
let type_retire_connection_id = 0x19
let type_plugin_validate = 0x60
let type_plugin_proof = 0x61
let type_plugin_chunk = 0x62

(* Frame types reserved for protocol plugins in this implementation. *)
let type_datagram = 0x30
let type_add_address = 0x40
let type_mp_ack = 0x42
let type_fec_id = 0x50
let type_fec_rs = 0x51

let frame_type = function
  | Padding _ -> type_padding
  | Ping -> type_ping
  | Ack _ -> type_ack
  | Crypto _ -> type_crypto
  | Stream { fin; _ } -> if fin then type_stream else type_stream_nofin
  | Max_data _ -> type_max_data
  | Max_stream_data _ -> type_max_stream_data
  | Connection_close _ -> type_connection_close
  | Handshake_done -> type_handshake_done
  | Path_challenge _ -> type_path_challenge
  | Path_response _ -> type_path_response
  | New_connection_id _ -> type_new_connection_id
  | Retire_connection_id _ -> type_retire_connection_id
  | Plugin_validate _ -> type_plugin_validate
  | Plugin_proof _ -> type_plugin_proof
  | Plugin_chunk _ -> type_plugin_chunk
  | Unknown { ftype; _ } -> ftype

(* Frames that elicit an acknowledgment from the peer. *)
let is_ack_eliciting = function
  | Padding _ | Ack _ | Connection_close _ -> false
  | _ -> true

let write_string_16 buf s =
  Buffer.add_uint16_be buf (String.length s);
  Buffer.add_string buf s

let serialize buf frame =
  Varint.write_int buf (frame_type frame);
  match frame with
  | Padding n -> for _ = 2 to n do Buffer.add_uint8 buf 0 done
  | Ping | Handshake_done -> ()
  | Ack { largest; delay_us; ranges } ->
    Varint.write buf largest;
    Varint.write buf delay_us;
    (match ranges with
     | [] -> invalid_arg "Ack with no ranges"
     | (first, last) :: rest ->
       assert (last = largest);
       Varint.write_int buf (List.length rest);
       Varint.write buf (Int64.sub last first);
       let prev_first = ref first in
       List.iter
         (fun (first, last) ->
           (* gap = prev_first - last - 2, per the draft's encoding *)
           Varint.write buf (Int64.sub (Int64.sub !prev_first last) 2L);
           Varint.write buf (Int64.sub last first);
           prev_first := first)
         rest)
  | Crypto { offset; data } ->
    Varint.write buf offset;
    Varint.write_int buf (String.length data);
    Buffer.add_string buf data
  | Stream { id; offset; fin = _; data } ->
    Varint.write_int buf id;
    Varint.write buf offset;
    Varint.write_int buf (String.length data);
    Buffer.add_string buf data
  | Max_data v -> Varint.write buf v
  | Max_stream_data { id; max } ->
    Varint.write_int buf id;
    Varint.write buf max
  | Connection_close { code; reason } ->
    Varint.write_int buf code;
    write_string_16 buf reason
  | Path_challenge v | Path_response v -> Buffer.add_int64_be buf v
  | New_connection_id { seq; cid } ->
    Varint.write buf seq;
    Buffer.add_int64_be buf cid
  | Retire_connection_id seq -> Varint.write buf seq
  | Plugin_validate { plugin; formula } ->
    write_string_16 buf plugin;
    write_string_16 buf formula
  | Plugin_proof { plugin; proof } ->
    write_string_16 buf plugin;
    write_string_16 buf proof
  | Plugin_chunk { plugin; offset; fin; data } ->
    write_string_16 buf plugin;
    Varint.write buf offset;
    Buffer.add_uint8 buf (if fin then 1 else 0);
    write_string_16 buf data
  | Unknown { raw; _ } -> Buffer.add_string buf raw

let to_string frame =
  let buf = Buffer.create 64 in
  serialize buf frame;
  Buffer.contents buf

(* Wire size of a frame, by serializing it — the reference the arithmetic
   [size] below is differentially tested against. *)
let wire_size frame = String.length (to_string frame)

(* ------------------------------------------------------------------ *)
(* Pooled fast path: arithmetic sizes and direct-to-writer encoding.    *)
(* The wire images must be byte-identical to [serialize]; the sender    *)
(* uses these so a packet is encoded once, into one pooled buffer,      *)
(* with no intermediate Buffer or string.                               *)
(* ------------------------------------------------------------------ *)

let vsize v = Varint.encoded_size v
let vsize_int v = Varint.encoded_size_int v

(* Wire size computed without serializing; equals [wire_size]. *)
let size frame =
  vsize_int (frame_type frame)
  +
  match frame with
  | Padding n -> n - 1
  | Ping | Handshake_done -> 0
  | Ack { largest; delay_us; ranges } -> (
    match ranges with
    | [] -> invalid_arg "Ack with no ranges"
    | (first, last) :: rest ->
      let base =
        vsize largest + vsize delay_us
        + vsize_int (List.length rest)
        + vsize (Int64.sub last first)
      in
      let prev_first = ref first in
      List.fold_left
        (fun acc (first, last) ->
          let gap = Int64.sub (Int64.sub !prev_first last) 2L in
          prev_first := first;
          acc + vsize gap + vsize (Int64.sub last first))
        base rest)
  | Crypto { offset; data } ->
    vsize offset + vsize_int (String.length data) + String.length data
  | Stream { id; offset; fin = _; data } ->
    vsize_int id + vsize offset
    + vsize_int (String.length data)
    + String.length data
  | Max_data v -> vsize v
  | Max_stream_data { id; max } -> vsize_int id + vsize max
  | Connection_close { code; reason } ->
    vsize_int code + 2 + String.length reason
  | Path_challenge _ | Path_response _ -> 8
  | New_connection_id { seq; _ } -> vsize seq + 8
  | Retire_connection_id seq -> vsize seq
  | Plugin_validate { plugin; formula } ->
    2 + String.length plugin + 2 + String.length formula
  | Plugin_proof { plugin; proof } ->
    2 + String.length plugin + 2 + String.length proof
  | Plugin_chunk { plugin; offset; fin = _; data } ->
    2 + String.length plugin + vsize offset + 1 + 2 + String.length data
  | Unknown { raw; _ } -> String.length raw

let write_string_16_w w s =
  Writer.u16_be w (String.length s);
  Writer.string w s

(* Encode [frame] into [w]; byte-identical to [serialize]. *)
let write w frame =
  Writer.varint_int w (frame_type frame);
  match frame with
  | Padding n -> Writer.fill w (n - 1) '\000'
  | Ping | Handshake_done -> ()
  | Ack { largest; delay_us; ranges } ->
    Writer.varint w largest;
    Writer.varint w delay_us;
    (match ranges with
     | [] -> invalid_arg "Ack with no ranges"
     | (first, last) :: rest ->
       assert (last = largest);
       Writer.varint_int w (List.length rest);
       Writer.varint w (Int64.sub last first);
       let prev_first = ref first in
       List.iter
         (fun (first, last) ->
           Writer.varint w (Int64.sub (Int64.sub !prev_first last) 2L);
           Writer.varint w (Int64.sub last first);
           prev_first := first)
         rest)
  | Crypto { offset; data } ->
    Writer.varint w offset;
    Writer.varint_int w (String.length data);
    Writer.string w data
  | Stream { id; offset; fin = _; data } ->
    Writer.varint_int w id;
    Writer.varint w offset;
    Writer.varint_int w (String.length data);
    Writer.string w data
  | Max_data v -> Writer.varint w v
  | Max_stream_data { id; max } ->
    Writer.varint_int w id;
    Writer.varint w max
  | Connection_close { code; reason } ->
    Writer.varint_int w code;
    write_string_16_w w reason
  | Path_challenge v | Path_response v -> Writer.i64_be w v
  | New_connection_id { seq; cid } ->
    Writer.varint w seq;
    Writer.i64_be w cid
  | Retire_connection_id seq -> Writer.varint w seq
  | Plugin_validate { plugin; formula } ->
    write_string_16_w w plugin;
    write_string_16_w w formula
  | Plugin_proof { plugin; proof } ->
    write_string_16_w w plugin;
    write_string_16_w w proof
  | Plugin_chunk { plugin; offset; fin; data } ->
    write_string_16_w w plugin;
    Writer.varint w offset;
    Writer.u8 w (if fin then 1 else 0);
    write_string_16_w w data
  | Unknown { raw; _ } -> Writer.string w raw

(* Zero-copy variants: headers of the data-bearing frames, written apart
   from their payload so the sender can blit stream/crypto/plugin bytes
   straight from the send buffer into the wire buffer. *)

let stream_header_size ~id ~offset ~len =
  1 (* both stream types encode in one byte *)
  + vsize_int id + vsize offset + vsize_int len

let write_stream_header w ~id ~offset ~fin ~len =
  Writer.varint_int w (if fin then type_stream else type_stream_nofin);
  Writer.varint_int w id;
  Writer.varint w offset;
  Writer.varint_int w len

let crypto_header_size ~offset ~len = 1 + vsize offset + vsize_int len

let write_crypto_header w ~offset ~len =
  Writer.varint_int w type_crypto;
  Writer.varint w offset;
  Writer.varint_int w len

let plugin_chunk_header_size ~plugin ~offset =
  (* 0x62 needs a 2-byte varint *)
  2 + 2 + String.length plugin + vsize offset + 1 + 2

let write_plugin_chunk_header w ~plugin ~offset ~fin ~len =
  Writer.varint_int w type_plugin_chunk;
  write_string_16_w w plugin;
  Writer.varint w offset;
  Writer.u8 w (if fin then 1 else 0);
  Writer.u16_be w len

(* ACK frames straight from the receiver's range set: no [Ack] value,
   no range list, no Int64 box. The first [max_ranges] ranges (largest
   first) go on the wire; byte-identical to [write] on the [Ack] built
   from the same ranges (differentially tested). The set must not be
   empty. *)

let ack_size acks ~max_ranges ~delay_us =
  let n = min (Ackranges.length acks) max_ranges in
  let largest = Ackranges.last acks 0 in
  let sz =
    ref
      (1 + vsize_int largest + vsize_int delay_us + vsize_int (n - 1)
      + vsize_int (largest - Ackranges.first acks 0))
  in
  for i = 1 to n - 1 do
    let last = Ackranges.last acks i in
    sz :=
      !sz
      + vsize_int (Ackranges.first acks (i - 1) - last - 2)
      + vsize_int (last - Ackranges.first acks i)
  done;
  !sz

let write_ack w acks ~max_ranges ~delay_us =
  let n = min (Ackranges.length acks) max_ranges in
  let largest = Ackranges.last acks 0 in
  Writer.varint_int w type_ack;
  Writer.varint_int w largest;
  Writer.varint_int w delay_us;
  Writer.varint_int w (n - 1);
  Writer.varint_int w (largest - Ackranges.first acks 0);
  for i = 1 to n - 1 do
    let last = Ackranges.last acks i in
    (* gap = prev_first - last - 2, per the draft's encoding *)
    Writer.varint_int w (Ackranges.first acks (i - 1) - last - 2);
    Writer.varint_int w (last - Ackranges.first acks i)
  done

(* ------------------------------------------------------------------ *)
(* View-based parsing: the zero-copy receive path. A [view] names the   *)
(* payload bytes of a data-bearing frame by offset + length into the    *)
(* datagram the [Reader] walks, so parsing allocates no payload copy;   *)
(* the small control frames (ACK, MAX_DATA, ...) build their usual      *)
(* [t] value — they carry no payload to copy. A view borrows the        *)
(* datagram: it dies with it, and bytes that must survive packet        *)
(* processing are blitted out at the reassembly boundary               *)
(* ([Recvbuf.insert_sub]) or materialized through [of_view].            *)
(* ------------------------------------------------------------------ *)

type view =
  | V_frame of t
      (* a payload-free frame, parsed eagerly into its [t] shape *)
  | V_ack of { largest : int; delay_us : int; count : int; ranges : int array }
      (* [count] ranges, largest first: [ranges.(2i)] and [ranges.(2i+1)]
         are the first and last packet numbers of range i. The array is
         the reader's scratch: valid until that reader parses its next
         ACK or is released *)
  | V_crypto of { offset : int64; off : int; len : int }
  | V_stream of { id : int; offset : int64; fin : bool; off : int; len : int }
  | V_unknown of { ftype : int; off : int; len : int }
      (* [off..off+len) is the rest of the packet payload; a plugin's
         parse protoop decides how many bytes the frame consumed *)

let view_type = function
  | V_frame f -> frame_type f
  | V_ack _ -> type_ack
  | V_crypto _ -> type_crypto
  | V_stream { fin; _ } -> if fin then type_stream else type_stream_nofin
  | V_unknown { ftype; _ } -> ftype

let view_is_ack_eliciting = function
  | V_frame f -> is_ack_eliciting f
  | V_ack _ -> false
  | V_crypto _ | V_stream _ | V_unknown _ -> true

let read_string_16_r r =
  let len = Reader.u16_be r in
  Reader.take r len

(* Parse one frame through [r]; must agree with the reference [parse]
   below on every input — value, cursor advance and raising alike
   (test/test_datapath.ml holds the differential). *)
let parse_view r =
  let ftype = Reader.varint_int r in
  if ftype = type_padding then begin
    (* swallow the run of padding *)
    let start = Reader.pos r in
    while Reader.peek r = 0 do Reader.skip r 1 done;
    V_frame (Padding (Reader.pos r - start + 1))
  end
  else if ftype = type_ping then V_frame Ping
  else if ftype = type_handshake_done then V_frame Handshake_done
  else if ftype = type_ack then begin
    (* ranges decode as native ints into the reader's scratch array; a
       range reaching below packet number 0 is malformed (RFC 9000
       §19.3.1), which also keeps every value inside the int domain *)
    let largest = Reader.varint_int r in
    let delay_us = Reader.varint_int r in
    let count = Reader.varint_int r in
    let first_len = Reader.varint_int r in
    if first_len > largest then raise Varint.Truncated;
    let ranges = ref (Reader.int_scratch r 2) in
    !ranges.(0) <- largest - first_len;
    !ranges.(1) <- largest;
    for k = 1 to count do
      let gap = Reader.varint_int r in
      let len = Reader.varint_int r in
      let prev_first = !ranges.((2 * k) - 2) in
      if gap > prev_first - 2 then raise Varint.Truncated;
      let last = prev_first - gap - 2 in
      if len > last then raise Varint.Truncated;
      if 2 * k + 2 > Array.length !ranges then
        ranges := Reader.int_scratch r (2 * k + 2);
      !ranges.(2 * k) <- last - len;
      !ranges.((2 * k) + 1) <- last
    done;
    V_ack { largest; delay_us; count = count + 1; ranges = !ranges }
  end
  else if ftype = type_crypto then begin
    let offset = Reader.varint r in
    let len = Reader.varint_int r in
    if len < 0 || len > Reader.remaining r then raise Varint.Truncated;
    let off = Reader.pos r in
    Reader.skip r len;
    V_crypto { offset; off; len }
  end
  else if ftype = type_stream || ftype = type_stream_nofin then begin
    let id = Reader.varint_int r in
    let offset = Reader.varint r in
    let len = Reader.varint_int r in
    if len < 0 || len > Reader.remaining r then raise Varint.Truncated;
    let off = Reader.pos r in
    Reader.skip r len;
    V_stream { id; offset; fin = ftype = type_stream; off; len }
  end
  else if ftype = type_max_data then V_frame (Max_data (Reader.varint r))
  else if ftype = type_max_stream_data then begin
    let id = Reader.varint_int r in
    let max = Reader.varint r in
    V_frame (Max_stream_data { id; max })
  end
  else if ftype = type_connection_close then begin
    let code = Reader.varint_int r in
    let reason = read_string_16_r r in
    V_frame (Connection_close { code; reason })
  end
  else if ftype = type_path_challenge || ftype = type_path_response then begin
    let v = Reader.i64_be r in
    V_frame (if ftype = type_path_challenge then Path_challenge v
             else Path_response v)
  end
  else if ftype = type_new_connection_id then begin
    let seq = Reader.varint r in
    let cid = Reader.i64_be r in
    V_frame (New_connection_id { seq; cid })
  end
  else if ftype = type_retire_connection_id then
    V_frame (Retire_connection_id (Reader.varint r))
  else if ftype = type_plugin_validate then begin
    let plugin = read_string_16_r r in
    let formula = read_string_16_r r in
    V_frame (Plugin_validate { plugin; formula })
  end
  else if ftype = type_plugin_proof then begin
    let plugin = read_string_16_r r in
    let proof = read_string_16_r r in
    V_frame (Plugin_proof { plugin; proof })
  end
  else if ftype = type_plugin_chunk then begin
    let plugin = read_string_16_r r in
    let offset = Reader.varint r in
    let fin = Reader.u8 r <> 0 in
    let data = read_string_16_r r in
    V_frame (Plugin_chunk { plugin; offset; fin; data })
  end
  else begin
    let off = Reader.pos r in
    let len = Reader.remaining r in
    Reader.seek r (Reader.limit r);
    V_unknown { ftype; off; len }
  end

(* REFERENCE-PARSER-BEGIN
   The allocating parser — kept as the reference semantics the view
   parser is differentially tested against — and the view materializer.
   These are the only String.sub sites allowed in this file; bin/check.sh
   lints everything outside this section. *)

let read_string_16 s pos =
  if pos + 2 > String.length s then raise Varint.Truncated;
  let len = String.get_uint16_be s pos in
  if pos + 2 + len > String.length s then raise Varint.Truncated;
  (String.sub s (pos + 2) len, pos + 2 + len)

(* Materialize a view into the equivalent allocating frame; [s] is the
   datagram the view indexes. *)
let of_view s = function
  | V_frame f -> f
  | V_ack { largest; delay_us; count; ranges } ->
    Ack
      {
        largest = Int64.of_int largest;
        delay_us = Int64.of_int delay_us;
        ranges =
          List.init count (fun i ->
              (Int64.of_int ranges.(2 * i), Int64.of_int ranges.((2 * i) + 1)));
      }
  | V_crypto { offset; off; len } ->
    Crypto { offset; data = String.sub s off len }
  | V_stream { id; offset; fin; off; len } ->
    Stream { id; offset; fin; data = String.sub s off len }
  | V_unknown { ftype; off; len } ->
    Unknown { ftype; raw = String.sub s off len }

(* Parse one frame at [pos]. For unknown types the remainder of the payload
   is captured raw and the returned position is the end of the buffer; the
   engine re-adjusts it from the plugin's parse protoop result. *)
let parse s pos =
  let ftype, pos = Varint.read_int s pos in
  if ftype = type_padding then begin
    (* swallow the run of padding *)
    let p = ref pos in
    while !p < String.length s && s.[!p] = '\000' do incr p done;
    (Padding (!p - pos + 1), !p)
  end
  else if ftype = type_ping then (Ping, pos)
  else if ftype = type_handshake_done then (Handshake_done, pos)
  else if ftype = type_ack then begin
    let largest, pos = Varint.read s pos in
    let delay_us, pos = Varint.read s pos in
    let count, pos = Varint.read_int s pos in
    let first_len, pos = Varint.read s pos in
    (* no range may reach below packet number 0 (RFC 9000 §19.3.1) *)
    if first_len > largest then raise Varint.Truncated;
    let first_range = (Int64.sub largest first_len, largest) in
    let rec ranges k prev_first pos acc =
      if k = 0 then (List.rev acc, pos)
      else
        let gap, pos = Varint.read s pos in
        let len, pos = Varint.read s pos in
        let last = Int64.sub (Int64.sub prev_first gap) 2L in
        if last < 0L || len > last then raise Varint.Truncated;
        let first = Int64.sub last len in
        ranges (k - 1) first pos ((first, last) :: acc)
    in
    let rest, pos = ranges count (fst first_range) pos [] in
    (Ack { largest; delay_us; ranges = first_range :: rest }, pos)
  end
  else if ftype = type_crypto then begin
    let offset, pos = Varint.read s pos in
    let len, pos = Varint.read_int s pos in
    if pos + len > String.length s then raise Varint.Truncated;
    (Crypto { offset; data = String.sub s pos len }, pos + len)
  end
  else if ftype = type_stream || ftype = type_stream_nofin then begin
    let id, pos = Varint.read_int s pos in
    let offset, pos = Varint.read s pos in
    let len, pos = Varint.read_int s pos in
    if pos + len > String.length s then raise Varint.Truncated;
    ( Stream
        { id; offset; fin = ftype = type_stream; data = String.sub s pos len },
      pos + len )
  end
  else if ftype = type_max_data then
    let v, pos = Varint.read s pos in
    (Max_data v, pos)
  else if ftype = type_max_stream_data then begin
    let id, pos = Varint.read_int s pos in
    let max, pos = Varint.read s pos in
    (Max_stream_data { id; max }, pos)
  end
  else if ftype = type_connection_close then begin
    let code, pos = Varint.read_int s pos in
    let reason, pos = read_string_16 s pos in
    (Connection_close { code; reason }, pos)
  end
  else if ftype = type_path_challenge || ftype = type_path_response then begin
    if pos + 8 > String.length s then raise Varint.Truncated;
    let v = String.get_int64_be s pos in
    ((if ftype = type_path_challenge then Path_challenge v else Path_response v),
     pos + 8)
  end
  else if ftype = type_new_connection_id then begin
    let seq, pos = Varint.read s pos in
    if pos + 8 > String.length s then raise Varint.Truncated;
    let cid = String.get_int64_be s pos in
    (New_connection_id { seq; cid }, pos + 8)
  end
  else if ftype = type_retire_connection_id then
    let seq, pos = Varint.read s pos in
    (Retire_connection_id seq, pos)
  else if ftype = type_plugin_validate then begin
    let plugin, pos = read_string_16 s pos in
    let formula, pos = read_string_16 s pos in
    (Plugin_validate { plugin; formula }, pos)
  end
  else if ftype = type_plugin_proof then begin
    let plugin, pos = read_string_16 s pos in
    let proof, pos = read_string_16 s pos in
    (Plugin_proof { plugin; proof }, pos)
  end
  else if ftype = type_plugin_chunk then begin
    let plugin, pos = read_string_16 s pos in
    let offset, pos = Varint.read s pos in
    if pos >= String.length s then raise Varint.Truncated;
    let fin = s.[pos] <> '\000' in
    let data, pos = read_string_16 s (pos + 1) in
    (Plugin_chunk { plugin; offset; fin; data }, pos)
  end
  else
    (Unknown { ftype; raw = String.sub s pos (String.length s - pos) },
     String.length s)

(* REFERENCE-PARSER-END *)

let pp ppf = function
  | Padding n -> Fmt.pf ppf "PADDING(%d)" n
  | Ping -> Fmt.string ppf "PING"
  | Ack { largest; ranges; _ } ->
    Fmt.pf ppf "ACK(largest=%Ld, %d ranges)" largest (List.length ranges)
  | Crypto { offset; data } ->
    Fmt.pf ppf "CRYPTO(off=%Ld, len=%d)" offset (String.length data)
  | Stream { id; offset; fin; data } ->
    Fmt.pf ppf "STREAM(id=%d, off=%Ld, len=%d%s)" id offset (String.length data)
      (if fin then ", fin" else "")
  | Max_data v -> Fmt.pf ppf "MAX_DATA(%Ld)" v
  | Max_stream_data { id; max } -> Fmt.pf ppf "MAX_STREAM_DATA(%d, %Ld)" id max
  | Connection_close { code; reason } ->
    Fmt.pf ppf "CONNECTION_CLOSE(%d, %s)" code reason
  | Handshake_done -> Fmt.string ppf "HANDSHAKE_DONE"
  | Path_challenge _ -> Fmt.string ppf "PATH_CHALLENGE"
  | Path_response _ -> Fmt.string ppf "PATH_RESPONSE"
  | New_connection_id { seq; cid } ->
    Fmt.pf ppf "NEW_CONNECTION_ID(seq=%Ld, cid=%Lx)" seq cid
  | Retire_connection_id seq -> Fmt.pf ppf "RETIRE_CONNECTION_ID(%Ld)" seq
  | Plugin_validate { plugin; _ } -> Fmt.pf ppf "PLUGIN_VALIDATE(%s)" plugin
  | Plugin_proof { plugin; _ } -> Fmt.pf ppf "PLUGIN_PROOF(%s)" plugin
  | Plugin_chunk { plugin; offset; fin; data } ->
    Fmt.pf ppf "PLUGIN(%s, off=%Ld, len=%d%s)" plugin offset (String.length data)
      (if fin then ", fin" else "")
  | Unknown { ftype; raw } -> Fmt.pf ppf "UNKNOWN(0x%x, %d bytes)" ftype (String.length raw)
