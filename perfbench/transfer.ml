(* The transfer phase: one GET of a seeded object size over the paper's
   Figure 7 topology, built from the public constructors (Topology,
   Endpoint, Connection) and driven by Sim.run in 10 ms slices, so the
   benchmark can place a span around each call into a layer. *)

open Util
module Sim = Netsim.Sim
module Net = Netsim.Net
module Link = Netsim.Link
module Topology = Netsim.Topology
module Ep = Pquic.Endpoint
module Conn = Pquic.Connection

type scenario = {
  multipath : bool;
  plugins : Pluginop.Plugin.t list;
  loss : float;
  size : int;  (** base object size; each input adds up to 5% *)
}

type input = { seed : int64; size : int }

let make_input (sc : scenario) seed =
  let size =
    sc.size + int_of_float (0.05 *. float_of_int sc.size *. unit_float (mix seed))
  in
  { seed; size }

(* Everything a replay of the same input must reproduce exactly. *)
type counts = {
  dct : float;  (** request to last byte, simulated seconds *)
  pkts : int;  (** packets sent, client + server *)
  received : int;  (** packets received, client + server *)
  lost : int;
  retx : int;
  recovered : int;  (** packets resurrected by FEC at the client *)
  dup : int;
  insns : int;  (** PRE instructions, every pluglet of both connections *)
  events : int;  (** simulator events run *)
  queue_drops : int;
  queue_hwm : int;
  data_losses : int;  (** server-to-client losses on the bottleneck links *)
  arms : int;
  fires : int;
}

type result = {
  ok : bool;
  why : string;  (** the failed check, empty when [ok] *)
  setup_s : float;
  endpoints_s : float;
  admit_s : float;
  cpu_s : float;
  words : float;
  size : int;
  c : counts;
  sanctions : int;
  fallbacks : int;
  pool_created : int;
  pool_reused : int;
  mean_pending : float;
}

(* Datagrams seen by the Net.interpose tap of a traced repeat. *)
type tap = {
  mutable wires : (bool * string) list;
      (** captured (server-to-client?, wire image), newest first *)
  mutable n_wires : int;
  down_per_path : int array;  (** server-to-client datagrams per path *)
  mutable keys : int64 list;  (** keys that open the captured packets *)
}

let tap_cap = 20_000
let new_tap () = { wires = []; n_wires = 0; down_per_path = Array.make 2 0; keys = [] }

let tap_node tap ~path ~down =
  {
    Net.node_name = "perfbench-tap";
    process =
      (fun ~now:_ dg ->
        (match dg.Net.payload with
        | Conn.Quic_packet w ->
          if down then tap.down_per_path.(path) <- tap.down_per_path.(path) + 1;
          if tap.n_wires < tap_cap then begin
            tap.wires <- (down, w) :: tap.wires;
            tap.n_wires <- tap.n_wires + 1
          end
        | _ -> ());
        Ok dg);
  }

let slice = Sim.of_ms 10.
let sim_cap = Sim.of_sec 300.
let params loss = { Topology.d_ms = 5.; bw_mbps = 100.; loss }

let sp_setup = Trace.name "setup"
let sp_endpoints = Trace.name "setup.endpoints"
let sp_admit = Trace.name "setup.plugin_admit"
let sp_transfer = Trace.name "transfer"
let sp_slice = Trace.name "netsim.sim.run"
let sp_rx = Trace.name "pquic.rx"

let pools () =
  ( Quic.Writer.created () + Quic.Reader.created (),
    Quic.Writer.reused () + Quic.Reader.reused () )

(* One GET. [tap] (traced repeats) interposes the capture node; [traced]
   re-attaches both endpoints through an rx span. *)
let run (sc : scenario) (inp : input) ~traced ~tap =
  let payload = String.make inp.size 'x' in
  cold_start ();
  let names = List.map (fun (p : Pluginop.Plugin.t) -> p.name) sc.plugins in
  Trace.enter sp_setup;
  let c0 = wall () in
  Trace.enter sp_endpoints;
  let p = params sc.loss in
  let topo =
    if sc.multipath then Topology.dual_path ~seed:inp.seed p p
    else Topology.single_path ~seed:inp.seed p
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server_addr = topo.Topology.server_addr in
  let client_addrs = topo.Topology.client_addrs in
  let server = Ep.create ~sim ~net ~addr:server_addr ~seed:(mix inp.seed) () in
  let client =
    Ep.create ~sim ~net ~addr:(List.hd client_addrs)
      ~extra_addrs:(if sc.multipath then List.tl client_addrs else [])
      ~seed:(mix (mix inp.seed)) ()
  in
  List.iter
    (fun p ->
      Ep.add_plugin server p;
      Ep.add_plugin client p)
    sc.plugins;
  Ep.listen server;
  Ep.listen client;
  Trace.leave ();
  let c1 = wall () in
  Trace.enter sp_admit;
  List.iter (fun n -> ignore (Ep.acquire_instance server n)) names;
  Trace.leave ();
  let c2 = wall () in
  Trace.leave ();
  if traced then begin
    let through ep dg =
      Trace.enter sp_rx;
      Ep.handle_datagram ep dg;
      Trace.leave ()
    in
    List.iter (fun a -> Net.attach net a (through client)) client_addrs;
    Net.attach net server_addr (through server)
  end;
  Option.iter
    (fun tap ->
      List.iteri
        (fun path a ->
          Net.interpose net ~src:server_addr ~dst:a [ tap_node tap ~path ~down:true ];
          Net.interpose net ~src:a ~dst:server_addr [ tap_node tap ~path ~down:false ])
        client_addrs)
    tap;
  let server_conn = ref None in
  server.Ep.on_connection <-
    (fun c ->
      server_conn := Some c;
      c.Conn.on_stream_data <-
        (fun id _ ~fin -> if fin then Conn.write_stream c ~id ~fin:true payload));
  let received = ref 0 and fins = ref 0 in
  let t_start = ref nan and t_done = ref nan in
  let pool_c0, pool_r0 = pools () in
  let pres = ref [||] in
  Trace.insns_probe :=
    (fun () ->
      let a = !pres in
      let s = ref 0 in
      for i = 0 to Array.length a - 1 do
        s := !s + Pluginop.Pre.executed_insns a.(i)
      done;
      !s);
  Trace.enter sp_transfer;
  let w0 = Gc.minor_words () in
  let cpu0 = cpu () in
  let conn = Ep.connect client ~remote_addr:server_addr ~plugins_to_inject:names in
  conn.Conn.on_established <-
    (fun () ->
      t_start := Sim.to_sec (Sim.now sim);
      Conn.write_stream conn ~id:0 ~fin:true "GET /file");
  conn.Conn.on_stream_data <-
    (fun _ data ~fin ->
      received := !received + String.length data;
      if fin then begin
        incr fins;
        t_done := Sim.to_sec (Sim.now sim)
      end);
  let events = ref 0 and slices = ref 0 and pending = ref 0 in
  while !fins = 0 && Sim.now sim < sim_cap && (!slices = 0 || Sim.pending sim > 0) do
    if traced then
      pres := Array.of_list (List.concat_map pres_of (conn :: Option.to_list !server_conn));
    Trace.enter sp_slice;
    events := !events + Sim.run ~until:(Int64.add (Sim.now sim) slice) sim;
    Trace.leave ();
    incr slices;
    pending := !pending + Sim.pending sim
  done;
  let cpu_s = cpu () -. cpu0 in
  let words = Gc.minor_words () -. w0 in
  Trace.leave ();
  Trace.insns_probe := (fun () -> 0);
  let pool_c1, pool_r1 = pools () in
  let cs = Conn.stats conn in
  let ss =
    match !server_conn with Some c -> Conn.stats c | None -> Conn.make_stats ()
  in
  let all_pres = List.concat_map pres_of (conn :: Option.to_list !server_conn) in
  let links = topo.Topology.mid_links in
  let wheel = Engine.Timer_wheel.counters conn.Conn.wheel in
  Option.iter
    (fun tap -> tap.keys <- [ conn.Conn.key; Conn.initial_key ])
    tap;
  let sanctions = cs.plugin_sanctions + ss.plugin_sanctions in
  let fallbacks = cs.plugin_fallbacks + ss.plugin_fallbacks in
  let why =
    match Conn.state conn with
    | Conn.Failed m -> "connection failed: " ^ m
    | _ when !fins <> 1 || !received <> inp.size ->
      Printf.sprintf "received %d of %d bytes, %d FIN" !received inp.size !fins
    | _ when sanctions > 0 || fallbacks > 0 ->
      Printf.sprintf "%d pluglet sanctions, %d fallbacks" sanctions fallbacks
    | _ -> ""
  in
  {
    ok = why = "";
    why =
      (if why = "" then ""
       else Printf.sprintf "input %Ld (%d bytes): %s" inp.seed inp.size why);
    setup_s = c2 -. c0;
    endpoints_s = c1 -. c0;
    admit_s = c2 -. c1;
    cpu_s;
    words;
    size = inp.size;
    c =
      {
        dct = !t_done -. !t_start;
        pkts = cs.pkts_sent + ss.pkts_sent;
        received = cs.pkts_received + ss.pkts_received;
        lost = cs.pkts_lost + ss.pkts_lost;
        retx = cs.pkts_retransmitted + ss.pkts_retransmitted;
        recovered = cs.frames_recovered;
        dup = cs.pkts_dup_rejected + ss.pkts_dup_rejected;
        insns = sum_insns all_pres;
        events = !events;
        queue_drops =
          List.fold_left
            (fun acc (u, d) -> acc + (Link.stats u).Link.queue_drops + (Link.stats d).Link.queue_drops)
            0 links;
        queue_hwm =
          List.fold_left
            (fun acc (u, d) ->
              max acc (max (Link.stats u).Link.queue_hwm (Link.stats d).Link.queue_hwm))
            0 links;
        data_losses =
          List.fold_left
            (fun acc (_, d) ->
              let s = Link.stats d in
              acc + s.Link.random_losses + s.Link.queue_drops)
            0 links;
        arms = wheel.Engine.Timer_wheel.arms;
        fires = wheel.Engine.Timer_wheel.fires;
      };
    sanctions;
    fallbacks;
    pool_created = pool_c1 - pool_c0;
    pool_reused = pool_r1 - pool_r0;
    mean_pending = iratio !pending !slices;
  }
