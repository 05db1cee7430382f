(* Loss recovery: RTT estimation, ACK-range processing, loss detection and
   the PTO/loss-timer machinery. Every decision point dispatches through a
   protocol operation so retransmission-policy plugins (e.g. Tail Loss
   Probe) can reshape the behaviour. *)

module F = Quic.Frame
module Sim = Netsim.Sim
open Conn_types

let run_op = Dispatch.run_op

(* ------------------------------------------------------------------ *)
(* In-flight table and its send-order index                             *)
(* ------------------------------------------------------------------ *)

(* [c.sent] holds every ack-eliciting packet in flight and is the only
   authority for iteration order: loss declarations walk it, and their
   order feeds persistent congestion, the control queue and the
   pluglets' packet_lost hooks. Beside it, each path threads its
   in-flight packets into an intrusive list in send order, so the
   queries the default protoops make on every packet — the oldest send
   time, and whether anything sits below the ack point — read the list
   heads instead of scanning the table. *)

let track_sent c p sp =
  Hashtbl.replace c.sent sp.pn sp;
  let tail = p.newest_sent in
  sp.prev_sent <- tail;
  sp.next_sent <- no_packet;
  if tail == no_packet then p.oldest_sent <- sp else tail.next_sent <- sp;
  p.newest_sent <- sp

(* Idempotent: a packet already untracked is left alone. *)
let untrack_sent c sp =
  Hashtbl.remove c.sent sp.pn;
  let p = c.paths.(sp.path_id) in
  if sp.prev_sent != no_packet || p.oldest_sent == sp then begin
    let prev = sp.prev_sent and next = sp.next_sent in
    if prev == no_packet then p.oldest_sent <- next else prev.next_sent <- next;
    if next == no_packet then p.newest_sent <- prev else next.prev_sent <- prev;
    sp.prev_sent <- no_packet;
    sp.next_sent <- no_packet
  end

(* The in-flight packet with the smallest send time; on ties, the first
   in [c.sent] iteration order — the tie-break the recorded experiments
   were produced with. A full scan: the loss alarm's probe path needs the
   exact packet, the per-packet callers only its (sent_at, path). *)
let oldest_in_flight c =
  let best = ref None in
  Hashtbl.iter
    (fun _ sp ->
      match !best with
      | None -> best := Some sp
      | Some b -> if sp.sent_at < b.sent_at then best := Some sp)
    c.sent;
  !best

(* A packet with the oldest send time, from the index heads: each head
   is the earliest send of its path, so the minimum over heads has the
   scan's (sent_at, path_id) unless heads of different paths tie — then
   the scan decides which path the tie-break picks. [no_packet] when
   nothing is in flight. *)
let oldest_send c =
  let best = ref no_packet and tie = ref false in
  for i = 0 to Array.length c.paths - 1 do
    let h = c.paths.(i).oldest_sent in
    if h != no_packet then
      if !best == no_packet || h.sent_at < !best.sent_at then begin
        best := h;
        tie := false
      end
      else if h.sent_at = !best.sent_at then tie := true
  done;
  if not !tie then !best
  else match oldest_in_flight c with Some sp -> sp | None -> no_packet

let on_loss_alarm_ref : (t -> unit) ref = ref (fun _ -> ())

let set_loss_alarm c =
  let default c _ =
    Engine.Timer_wheel.cancel c.wheel c.loss_alarm;
    let sp = oldest_send c in
    if sp != no_packet then begin
      let p = c.paths.(min sp.path_id (Array.length c.paths - 1)) in
      let pto = Quic.Rtt.pto p.rtt in
      let base_timeout =
        Int64.add
          (Int64.mul pto (Int64.of_int (1 lsl min c.pto_backoff 6)))
          (Sim.of_ms c.cfg.ack_delay_ms)
      in
      (* retransmission-policy plugins (e.g. Tail Loss Probe) replace this
         operation to shorten or reshape the timer *)
      let timeout =
        let v =
          run_op c Protoop.get_retransmission_delay
            ~default:(fun _ args -> match args.(0) with I v -> v | _ -> 0L)
            [| I base_timeout; I (i64 sp.path_id) |]
        in
        if v > 0L then v else base_timeout
      in
      let fire_at =
        Int64.max
          (Int64.add sp.sent_at timeout)
          (Int64.add (Sim.now c.sim) 1_000_000L)
      in
      Engine.Timer_wheel.arm c.wheel c.loss_alarm ~at:fire_at
    end;
    0L
  in
  ignore (run_op c Protoop.set_loss_timer ~default [||])

(* ------------------------------------------------------------------ *)
(* Frame acknowledgment / loss notifications                            *)
(* ------------------------------------------------------------------ *)

let notify_frame_fate c (fr : frame_record) ~acked =
  let lost = not acked in
  match fr with
  | R_stream { id; offset; len; fin } -> (
    match Hashtbl.find_opt c.streams id with
    | None -> ()
    | Some s ->
      if acked then Quic.Sendbuf.on_acked s.sendb ~offset ~len ~fin
      else begin
        Quic.Sendbuf.on_lost s.sendb ~offset ~len ~fin;
        c.stats.pkts_retransmitted <- c.stats.pkts_retransmitted + 1
      end)
  | R_crypto { offset; len } ->
    if acked then Quic.Sendbuf.on_acked c.crypto_send ~offset ~len ~fin:false
    else Quic.Sendbuf.on_lost c.crypto_send ~offset ~len ~fin:false
  | R_plugin_data { plugin; offset; len; fin } -> (
    match Hashtbl.find_opt c.plugin_out plugin with
    | None -> ()
    | Some sb ->
      if acked then Quic.Sendbuf.on_acked sb ~offset ~len ~fin
      else Quic.Sendbuf.on_lost sb ~offset ~len ~fin)
  | R_frame (F.Max_data _, _) -> if lost then c.max_data_frame_pending <- true
  | R_frame
      ( (( F.Plugin_validate _ | F.Plugin_proof _ | F.Handshake_done
         | F.Path_response _ | F.New_connection_id _
         | F.Retire_connection_id _ ) as f),
        _ ) ->
    if lost then Queue.push f c.ctrl
  | R_frame (F.Unknown { ftype; raw }, Some r) ->
    let args =
      [|
        I (if acked then 1L else 0L);
        I r.Scheduler.cookie;
        (* Ro regions are unwritable by both the monitor and every native
           path, so aliasing the immutable string is safe — no copy per
           notification *)
        Buf (Bytes.unsafe_of_string raw, `Ro);
      |]
    in
    ignore (run_op c Protoop.notify_frame ~param:ftype args)
  | R_frame _ -> ()

(* Persistent congestion (RFC 9002 §7.6): when the send-time span of a
   run of consecutive ack-eliciting losses — unbroken by any ack — exceeds
   3 × (PTO + max_ack_delay), the network was effectively dead for that
   period; the window collapses to the minimum and slow start restarts.
   The span accumulates in [declare_lost] and any newly acked packet on
   the path resets it ([process_ack]). Requires at least one RTT sample so
   the default-PTO guess cannot trigger a spurious collapse. *)
let note_persistent_congestion c p sp =
  if sp.ack_eliciting then begin
    if not p.lost_span_valid then begin
      p.lost_span_valid <- true;
      p.lost_span_start <- sp.sent_at;
      p.lost_span_end <- sp.sent_at
    end
    else begin
      if sp.sent_at < p.lost_span_start then p.lost_span_start <- sp.sent_at;
      if sp.sent_at > p.lost_span_end then p.lost_span_end <- sp.sent_at
    end;
    let duration =
      Int64.mul 3L
        (Int64.add (Quic.Rtt.pto p.rtt) (Sim.of_ms c.cfg.ack_delay_ms))
    in
    if
      Quic.Rtt.samples p.rtt > 0
      && Int64.sub p.lost_span_end p.lost_span_start > duration
    then begin
      p.lost_span_valid <- false;
      c.stats.persistent_congestion_events <-
        c.stats.persistent_congestion_events + 1;
      Log.info (fun m ->
          m "persistent congestion on path %d (span %Ldns)" p.path_id
            (Int64.sub p.lost_span_end p.lost_span_start));
      let default _ _ =
        Quic.Cc.collapse p.cc;
        0L
      in
      ignore
        (run_op c Protoop.cc_on_rto ~default [| I (i64 p.path_id) |])
    end
  end

let declare_lost c sp =
  untrack_sent c sp;
  let p = c.paths.(min sp.path_id (Array.length c.paths - 1)) in
  Quic.Cc.forget_in_flight p.cc ~size:sp.size;
  let default c _ =
    Quic.Cc.shrink_on_loss p.cc ~pn:sp.pn ~largest_sent:(Int64.sub c.next_pn 1L);
    0L
  in
  ignore
    (run_op c Protoop.cc_on_packet_lost ~default
       [| I sp.pn; I (i64 sp.size); I (i64 sp.path_id) |]);
  c.stats.pkts_lost <- c.stats.pkts_lost + 1;
  note_persistent_congestion c p sp;
  c.cur_pn <- sp.pn;
  ignore (run_op c Protoop.packet_lost [| I sp.pn; I (i64 sp.path_id) |]);
  List.iter (fun fr -> notify_frame_fate c fr ~acked:false) sp.records;
  ignore (run_op c Protoop.after_packet_lost [| I sp.pn |])

(* Is any in-flight packet below its path's largest acknowledged
   path_seq? Path_seq grows along each path's index, so its head has the
   path's smallest; when no head qualifies, the scan below would find
   nothing and is skipped. *)
let loss_candidates c =
  let found = ref false in
  for i = 0 to Array.length c.paths - 1 do
    let h = c.paths.(i).oldest_sent in
    if
      h != no_packet
      && h.path_id < Array.length c.largest_acked_per_path
      && h.path_seq < c.largest_acked_per_path.(h.path_id)
    then found := true
  done;
  !found

let detect_losses c =
  let default c _ =
    if not (loss_candidates c) then 0L
    else begin
      let now = Sim.now c.sim in
      let lost = ref [] in
      Hashtbl.iter
        (fun _pn (sp : sent_packet) ->
          (* loss detection is per path, on per-path send order: with a shared
             packet-number space, cross-path reordering must not be mistaken
             for loss (kSkipped packets on the other path are not gaps) *)
          let path_largest =
            if sp.path_id < Array.length c.largest_acked_per_path then
              c.largest_acked_per_path.(sp.path_id)
            else -1L
          in
          if sp.path_seq < path_largest then begin
            let p = c.paths.(min sp.path_id (Array.length c.paths - 1)) in
            (* time threshold: 9/8 * (srtt + 4*rttvar) absorbs the queueing
               variance that plain 9/8*srtt mistakes for loss under
               bufferbloat *)
            let window =
              Int64.add (Quic.Rtt.smoothed p.rtt)
                (Int64.mul 4L (Quic.Rtt.variance p.rtt))
            in
            let threshold =
              Int64.sub now (Int64.div (Int64.mul window 9L) 8L)
            in
            if Int64.sub path_largest sp.path_seq >= 3L || sp.sent_at <= threshold
            then lost := sp :: !lost
          end)
        c.sent;
      List.iter (declare_lost c) !lost;
      i64 (List.length !lost)
    end
  in
  ignore (run_op c Protoop.detect_lost_packets ~default [||])

(* Credit one newly acknowledged packet. *)
let on_acked c sp =
  untrack_sent c sp;
  if sp.path_id < Array.length c.largest_acked_per_path
     && sp.path_seq > c.largest_acked_per_path.(sp.path_id)
  then c.largest_acked_per_path.(sp.path_id) <- sp.path_seq;
  let p = c.paths.(min sp.path_id (Array.length c.paths - 1)) in
  (* an ack breaks the run of consecutive losses: the persistent-
     congestion span restarts from scratch (RFC 9002 §7.6.2) *)
  p.lost_span_valid <- false;
  Quic.Cc.forget_in_flight p.cc ~size:sp.size;
  let default _ _ =
    Quic.Cc.grow_on_ack p.cc ~pn:sp.pn ~size:sp.size;
    0L
  in
  ignore
    (run_op c Protoop.cc_on_packet_acked ~default
       [| I sp.pn; I (i64 sp.size); I (i64 sp.path_id) |]);
  List.iter (fun fr -> notify_frame_fate c fr ~acked:true) sp.records;
  ignore (run_op c Protoop.packet_acknowledged [| I sp.pn |])

(* [count] ranges, largest first, range i being
   [ranges.(2i) .. ranges.(2i+1)] — the V_ack view's native-int form. *)
let process_ack c ~largest ~delay_us ~count ranges =
  let now = Sim.now c.sim in
  (* Advance the lowest-live-pn watermark: a pn below next_pn that is
     not in [sent] can never reappear there, so each pn is crossed at
     most once over the connection's lifetime. *)
  while
    c.ack_watermark < c.next_pn && not (Hashtbl.mem c.sent c.ack_watermark)
  do
    c.ack_watermark <- Int64.add c.ack_watermark 1L
  done;
  let wm = Int64.to_int c.ack_watermark in
  (* Ranges descend, so the walk ends at the first range wholly below
     the watermark; the ones it keeps are clipped to the live window.
     Unclipped, the first range eventually spans every pn since the
     start of the connection and ack processing goes quadratic in
     transfer length. *)
  let live = ref 0 in
  while !live < count && ranges.((2 * !live) + 1) >= wm do
    incr live
  done;
  (* the largest newly acked packet: the first hit walking down *)
  let newest = ref no_packet and i = ref 0 in
  while !newest == no_packet && !i < !live do
    let lo = max ranges.(2 * !i) wm and pn = ref ranges.((2 * !i) + 1) in
    while !newest == no_packet && !pn >= lo do
      (match Hashtbl.find_opt c.sent (Int64.of_int !pn) with
      | Some sp -> newest := sp
      | None -> ());
      decr pn
    done;
    incr i
  done;
  let newest = !newest in
  if newest != no_packet then begin
    if newest.pn > c.largest_acked then c.largest_acked <- newest.pn;
    (* RTT sample from the largest newly acked, if ack-eliciting *)
    if newest.ack_eliciting && newest.pn = Int64.of_int largest then begin
      let sample =
        Int64.sub (Int64.sub now newest.sent_at)
          (Int64.mul (Int64.of_int delay_us) 1000L)
      in
      let p = c.paths.(min newest.path_id (Array.length c.paths - 1)) in
      let default _ _ =
        Quic.Rtt.update p.rtt ~sample;
        0L
      in
      ignore
        (run_op c Protoop.update_rtt ~default
           [| I sample; I (i64 newest.path_id) |])
    end;
    (* credit every newly acked packet in ascending pn order: the live
       ranges smallest first, each walked upwards *)
    for i = !live - 1 downto 0 do
      for pn = max ranges.(2 * i) wm to ranges.((2 * i) + 1) do
        match Hashtbl.find_opt c.sent (Int64.of_int pn) with
        | Some sp -> on_acked c sp
        | None -> ()
      done
    done;
    c.pto_backoff <- 0;
    detect_losses c;
    set_loss_alarm c;
    wake c
  end

(* ------------------------------------------------------------------ *)
(* Loss alarm behaviour                                                 *)
(* ------------------------------------------------------------------ *)

let on_loss_alarm c =
  let default c _ =
    if Hashtbl.length c.sent > 0 then begin
      (* cap the exponent: the timer already clamps its multiplier at
         2^6, so growing the counter further only risks overflow — the
         idle alarm, not unbounded backoff, is what ends a dead
         connection *)
      c.pto_backoff <- min (c.pto_backoff + 1) 6;
      if c.pto_backoff <= 1 then begin
        (* tail-probe style: retransmit the oldest in-flight packet *)
        ignore (run_op c Protoop.send_probe [||]);
        match oldest_in_flight c with
        | Some sp -> declare_lost c sp
        | None -> ()
      end
      else begin
        (* full retransmission timeout *)
        ignore (run_op c Protoop.retransmission_timeout [||]);
        let all = Hashtbl.fold (fun _ sp acc -> sp :: acc) c.sent [] in
        List.iter (declare_lost c) all;
        Array.iter
          (fun p ->
            let default _ _ =
              Quic.Cc.on_retransmission_timeout p.cc;
              0L
            in
            ignore (run_op c Protoop.cc_on_rto ~default [| I (i64 p.path_id) |]))
          c.paths;
        (* repeated timeouts can mean the 4-tuple itself died (NAT
           rebinding behind a stateful middlebox): a client with spare
           CIDs rotates and revalidates the path (no-op with
           cid_pool = 0 — see [Sender.rotate_and_reprobe]) *)
        !reprobe_ref c
      end;
      set_loss_alarm c;
      wake c
    end;
    0L
  in
  ignore (run_op c Protoop.on_loss_timer ~default [||])

let () = on_loss_alarm_ref := on_loss_alarm
