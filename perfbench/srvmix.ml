(* The server phase: one process plays every client of a Pquic.Server. A
   round forges authenticated Initials for a standing population (plain
   connections first, then the ones whose server side injects the
   Monitoring plugin, 1 in 10 overall), acks their handshake bursts so
   the population goes idle, then sends heartbeats routed by CID: first
   one outstanding at a time (closed loop, for latency), then a batched
   feed (for throughput). Replies travel a linkless fallback route into
   a counting sink. *)

open Util
module Sim = Netsim.Sim
module Net = Netsim.Net
module P = Quic.Packet
module F = Quic.Frame
module Server = Pquic.Server

type size = {
  plain : int;  (** connections without plugins *)
  plugin : int;  (** connections injecting Monitoring *)
  single : int;  (** heartbeats sent one at a time *)
  batched : int;  (** heartbeats fed in chunks of [chunk] *)
}

let chunk = 1024
let server_addr = 1
let client_addr = 2

type result = {
  ok : bool;
  offered : int;
  accepted : int;
  beats : int;
  routed : int;
  delivered : int;  (** heartbeats the connections accepted (pkts_received) *)
  discarded : int;  (** packets the connections dropped as corrupt or duplicate *)
  setup_s : float;
  admit_s : float;
  accept_rates : float array;  (** plain accepts per CPU second, per 100 *)
  plugin_accept_rates : float array;  (** plugin accepts per CPU second, per 25 *)
  accept_ns : float array;  (** per plain Initial *)
  rx_ns : float array;  (** per single heartbeat, submission to drained *)
  batched_rates : float array;  (** routed heartbeats per CPU second, per chunk *)
  bytes_per_conn : float;  (** nan unless the round measured memory *)
  bytes_per_plugin_conn : float;
  replies : int;
  promoted_words : float;  (** over the accept phases *)
  major_collections : int;
  route_ns : float;  (** CID probe + shard enqueue into a no-op sink *)
  dispatched : int;
  batches : int;
  table_live : int;
  table_capacity : int;
  dgrams : int;  (** datagrams the server handled: Initials, acks, heartbeats *)
  arms : int;
  fires : int;
}

let client_hello =
  lazy
    (let blob = Quic.Transport_params.encode Quic.Transport_params.default in
     let buf = Buffer.create (String.length blob + 2) in
     Buffer.add_uint16_be buf (String.length blob);
     Buffer.add_string buf blob;
     F.to_string (F.Crypto { offset = 0L; data = Buffer.contents buf }))

(* Acks every pn the server could have sent in its handshake burst. *)
let ack_payload =
  F.to_string (F.Ack { F.largest = 7L; delay_us = 0L; ranges = [ (0L, 7L) ] })

let dg wire =
  {
    Net.src = client_addr;
    dst = server_addr;
    size = String.length wire;
    payload = Pquic.Connection.Quic_packet wire;
  }

(* Received and discarded packets summed over the server's connections.
   A connection is registered under each of its CIDs, so it is counted
   once, by its handshake CID. *)
let rx_counts (srv : Server.t) =
  let seen = Hashtbl.create 1024 in
  Engine.Conn_table.fold srv.Server.ep.Pquic.Endpoint.conns
    (fun ((recv, disc) as acc) _ c ->
      let cid = Pquic.Connection.local_cid c in
      if Hashtbl.mem seen cid then acc
      else begin
        Hashtbl.add seen cid ();
        let s = Pquic.Connection.stats c in
        ( recv + s.pkts_received,
          disc + s.pkts_corrupt_discarded + s.pkts_dup_rejected )
      end)
    (0, 0)

let sp_setup = Trace.name "setup"
let sp_admit = Trace.name "setup.plugin_admit"
let sp_accept = Trace.name "server.accept"
let sp_beat = Trace.name "server.rx"

let round ~seed (sz : size) ~traced ~memory =
  let n = sz.plain + sz.plugin in
  (* distinct CIDs per round: a seeded base, one slot per connection *)
  let base = Int64.logand (mix seed) 0x3FFF_FFFF_0000_0000L in
  let scid i = Int64.add base (Int64.of_int (2 * i + 1)) in
  let dcid i = Int64.add base (Int64.of_int (2 * i + 2)) in
  let initial i =
    P.protect ~key:Pquic.Connection.initial_key
      {
        P.header =
          { P.ptype = P.Initial; spin = false; dcid = dcid i; scid = scid i; pn = 0L };
        payload = Lazy.force client_hello;
      }
  in
  let short i ~pn =
    P.protect
      ~key:(P.derive_key ~client_cid:(scid i) ~server_cid:(dcid i))
      {
        P.header = { P.ptype = P.One_rtt; spin = false; dcid = dcid i; scid = 0L; pn };
        payload = ack_payload;
      }
  in
  let initials = Array.init n (fun i -> dg (initial i)) in
  let acks = Array.init n (fun i -> dg (short i ~pn:1L)) in
  (* heartbeat targets: seeded, uniform over the population; each
     connection's packet numbers keep rising *)
  let next_pn = Array.make n 2 in
  let pick k = Int64.to_int (Int64.shift_right_logical (sub_seed seed k) 2) mod n in
  let beat k =
    let i = pick k in
    let pn = next_pn.(i) in
    next_pn.(i) <- pn + 1;
    dg (short i ~pn:(Int64.of_int pn))
  in
  let singles = Array.init sz.single beat in
  let batch = Array.init sz.batched (fun k -> beat (sz.single + k)) in
  cold_start ();
  Trace.enter sp_setup;
  let c0 = wall () in
  let sim = Sim.create () in
  let net = Net.create sim in
  Net.add_fallback_route net ~src:server_addr [];
  let sink = ref 0 in
  Net.attach net client_addr (fun _ -> incr sink);
  let cfg = { Pquic.Connection.default_config with Pquic.Connection.lean = true } in
  let srv = Server.create ~cfg ~sim ~net ~addr:server_addr ~seed () in
  Pquic.Endpoint.add_plugin srv.Server.ep Plugins.Monitoring.plugin;
  Server.listen srv;
  let c1 = wall () in
  Trace.enter sp_admit;
  ignore (Pquic.Endpoint.acquire_instance srv.Server.ep Plugins.Monitoring.name);
  Trace.leave ();
  let c2 = wall () in
  Trace.leave ();
  (* live-heap deltas need full collections: measured on the first round
     only; they differ between rounds by well under 0.1% *)
  let live () = if memory then live_words () else 0 in
  let live0 = live () in
  let accept_ns = Array.make sz.plain 0. in
  let promoted = ref 0. and majors = ref 0 in
  (* Initials arrive 1000 per simulated ms, so handshake alarms spread
     over the wheel; each group of [per] and its share of simulated time
     is one throughput sample *)
  let accept lo hi ~per ~timed =
    let rates = ref [] in
    let gc0 = Gc.quick_stat () in
    let k = ref lo in
    while !k < hi do
      let c0 = cpu () in
      let stop = min hi (!k + per) in
      let len = stop - !k in
      while !k < stop do
        Trace.enter sp_accept;
        let t0 = Trace.now_ns () in
        Server.handle_datagram srv initials.(!k);
        if timed then accept_ns.(!k) <- float_of_int (Trace.now_ns () - t0);
        Trace.leave ();
        incr k
      done;
      ignore (Sim.run ~until:(Int64.add (Sim.now sim) (Sim.of_ms (float_of_int len /. 1000.))) sim);
      rates := (float_of_int len /. (cpu () -. c0)) :: !rates
    done;
    let gc1 = Gc.quick_stat () in
    promoted := !promoted +. gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    majors := !majors + gc1.Gc.major_collections - gc0.Gc.major_collections;
    Array.of_list !rates
  in
  let quiesce lo hi =
    for k = lo to hi - 1 do
      Server.handle_datagram srv acks.(k)
    done;
    ignore (Sim.run ~until:(Sim.now sim) sim)
  in
  let accept_rates = accept 0 sz.plain ~per:100 ~timed:true in
  quiesce 0 sz.plain;
  let live1 = live () in
  srv.Server.ep.Pquic.Endpoint.plugins_to_inject <- [ Plugins.Monitoring.name ];
  let plugin_accept_rates = accept sz.plain n ~per:25 ~timed:false in
  srv.Server.ep.Pquic.Endpoint.plugins_to_inject <- [];
  quiesce sz.plain n;
  let replies = !sink in
  let live2 = live () in
  let routed0 = srv.Server.routed in
  let received0, _ = rx_counts srv in
  let rx_ns = Array.make sz.single 0. in
  for k = 0 to sz.single - 1 do
    Trace.enter sp_beat;
    let t0 = Trace.now_ns () in
    Server.handle_datagram srv singles.(k);
    ignore (Sim.run ~until:(Sim.now sim) sim);
    rx_ns.(k) <- float_of_int (Trace.now_ns () - t0);
    Trace.leave ()
  done;
  let batched_rates = ref [] in
  let k = ref 0 in
  while !k < sz.batched do
    let b0 = cpu () in
    let stop = min sz.batched (!k + chunk) in
    let len = stop - !k in
    while !k < stop do
      Server.handle_datagram srv batch.(!k);
      incr k
    done;
    ignore (Sim.run ~until:(Sim.now sim) sim);
    batched_rates := (float_of_int len /. (cpu () -. b0)) :: !batched_rates
  done;
  let routed = srv.Server.routed - routed0 in
  (* routing is not delivery: a routed packet can still be dropped as
     unauthenticated or duplicate *)
  let received1, discarded = rx_counts srv in
  (* the routing layer alone, replayed over the batched heartbeats *)
  let route_ns =
    if not traced then 0.
    else begin
      let sink_shards =
        Engine.Shard.create sim ~shards:8
          (fun _ (_ : Pquic.Connection.t * Net.datagram) -> ())
      in
      let table = srv.Server.ep.Pquic.Endpoint.conns in
      let t0 = Trace.now_ns () in
      Array.iter
        (fun (d : Net.datagram) ->
          match d.Net.payload with
          | Pquic.Connection.Quic_packet w -> (
            match Engine.Conn_table.find_sub table w 1 8 with
            | Some c ->
              Engine.Shard.enqueue sink_shards
                (Int64.to_int (Pquic.Connection.local_cid c) land max_int)
                (c, d)
            | None -> ())
          | _ -> ())
        batch;
      let ns = Trace.now_ns () - t0 in
      ignore (Sim.run ~until:(Sim.now sim) sim);
      iratio ns sz.batched
    end
  in
  let st = Server.stats srv in
  let live, capacity, _ = st.Server.table in
  let accepted = Server.accepted srv in
  let beats = sz.single + sz.batched in
  {
    ok = accepted = n && routed = beats && received1 - received0 = beats && discarded = 0;
    offered = n;
    accepted;
    beats;
    routed;
    delivered = received1 - received0;
    discarded;
    setup_s = c2 -. c0;
    admit_s = c2 -. c1;
    accept_rates;
    plugin_accept_rates;
    accept_ns;
    rx_ns;
    batched_rates = Array.of_list !batched_rates;
    bytes_per_conn =
      (if memory then float_of_int ((live1 - live0) * 8) /. float_of_int sz.plain else nan);
    bytes_per_plugin_conn =
      (if memory then float_of_int ((live2 - live1) * 8) /. float_of_int sz.plugin
       else nan);
    replies;
    promoted_words = !promoted;
    major_collections = !majors;
    route_ns;
    dispatched = st.Server.dispatched;
    batches = st.Server.batches;
    table_live = live;
    table_capacity = capacity;
    dgrams = (2 * n) + beats;
    arms = st.Server.wheel.Engine.Timer_wheel.arms;
    fires = st.Server.wheel.Engine.Timer_wheel.fires;
  }
