(* Tests for the four paper plugins running as real bytecode inside live
   connections: monitoring accuracy, datagram semantics, multipath path
   management and scheduling, FEC recovery (XOR and RLC, both modes). *)

module Topology = Netsim.Topology
module Sim = Netsim.Sim

let check = Alcotest.check

let mk_pair ?(cfg = Pquic.Connection.default_config) ?(dual = false)
    ?(loss = 0.) ?(d_ms = 10.) ?(bw = 20.) ?(seed = 5L) ~plugins () =
  let p = { Topology.d_ms; bw_mbps = bw; loss } in
  let topo = if dual then Topology.dual_path ~seed p p else Topology.single_path ~seed p in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server = Pquic.Endpoint.create ~cfg ~sim ~net ~addr:topo.Topology.server_addr ~seed:1L () in
  let extra = if dual then [ List.nth topo.Topology.client_addrs 1 ] else [] in
  let client =
    Pquic.Endpoint.create ~cfg ~sim ~net ~addr:(List.hd topo.Topology.client_addrs)
      ~extra_addrs:extra ~seed:2L ()
  in
  List.iter
    (fun p -> Pquic.Endpoint.add_plugin server p; Pquic.Endpoint.add_plugin client p)
    plugins;
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  (topo, server, client)

(* ----------------------------- monitoring ----------------------------- *)

let test_monitoring_counters_match_engine () =
  let topo, server, client = mk_pair ~loss:0.02 ~plugins:[ Plugins.Monitoring.plugin ] () in
  let sim = topo.Topology.sim in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then Pquic.Connection.write_stream c ~id ~fin:true (String.make 100_000 'x')));
  let conn =
    Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
      ~plugins_to_inject:[ Plugins.Monitoring.name ]
  in
  let report = ref None in
  conn.Pquic.Connection.on_message <-
    (fun m -> report := Plugins.Monitoring.decode_report m);
  conn.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET");
  conn.Pquic.Connection.on_stream_data <-
    (fun _ _ ~fin -> if fin then Pquic.Connection.close conn ~reason:"done");
  ignore (Sim.run ~until:(Sim.of_sec 60.) sim);
  match !report with
  | None -> Alcotest.fail "no PI report"
  | Some r ->
    let st = Pquic.Connection.stats conn in
    check Alcotest.int64 "pkts_received mirrors engine"
      (Int64.of_int st.Pquic.Connection.pkts_received)
      r.Plugins.Monitoring.pkts_received;
    check Alcotest.int64 "pkts_sent mirrors engine"
      (Int64.of_int st.Pquic.Connection.pkts_sent)
      r.Plugins.Monitoring.pkts_sent;
    check Alcotest.int64 "pkts_lost mirrors engine"
      (Int64.of_int st.Pquic.Connection.pkts_lost)
      r.Plugins.Monitoring.pkts_lost;
    check Alcotest.bool "handshake time recorded" true
      (r.Plugins.Monitoring.handshake_time_ns > 0L);
    check Alcotest.bool "established flag" true r.Plugins.Monitoring.established;
    check Alcotest.bool "ACK frames counted by the param'd pluglet" true
      (r.Plugins.Monitoring.ack_frames_seen > 0L);
    check Alcotest.bool "streams opened" true (r.Plugins.Monitoring.streams_opened >= 1L)

let test_monitoring_all_proven () =
  (* the monitoring pluglets are simple enough for the checker *)
  let s = Pquic.Plugin.stats Plugins.Monitoring.plugin in
  check Alcotest.int "14 pluglets" 14 s.Pquic.Plugin.pluglet_count;
  check Alcotest.int "all proven terminating" 14 s.Pquic.Plugin.proven_terminating

(* ------------------------------ datagram ------------------------------ *)

let test_datagram_delivery_and_boundaries () =
  let topo, server, client = mk_pair ~plugins:[ Plugins.Datagram.plugin ] () in
  let sim = topo.Topology.sim in
  let received = ref [] in
  let sconn = ref None in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      sconn := Some c;
      c.Pquic.Connection.on_message <- (fun m -> received := m :: !received));
  let conn =
    Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
      ~plugins_to_inject:[ Plugins.Datagram.name ]
  in
  let messages = [ "alpha"; "bravo-bravo"; String.make 1000 'z' ] in
  conn.Pquic.Connection.on_established <-
    (fun () ->
      List.iter (fun m ->
          match Plugins.Datagram.send conn m with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "datagram send failed")
        messages);
  ignore (Sim.run ~until:(Sim.of_sec 10.) sim);
  check (Alcotest.list Alcotest.string) "boundaries preserved, in order"
    messages (List.rev !received)

let test_datagram_max_size () =
  let topo, _, client = mk_pair ~plugins:[ Plugins.Datagram.plugin ] () in
  let sim = topo.Topology.sim in
  let conn =
    Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
      ~plugins_to_inject:[ Plugins.Datagram.name ]
  in
  let size = ref None in
  conn.Pquic.Connection.on_established <-
    (fun () -> size := Plugins.Datagram.max_size conn);
  ignore (Sim.run ~until:(Sim.of_sec 5.) sim);
  match !size with
  | Some s -> check Alcotest.bool "sane external-op result" true (s > 1000 && s < 1500)
  | None -> Alcotest.fail "external operation unavailable"

let test_datagram_no_plugin_errors () =
  let topo, _, client = mk_pair ~plugins:[] () in
  let sim = topo.Topology.sim in
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  let result = ref (Ok ()) in
  conn.Pquic.Connection.on_established <-
    (fun () -> result := Plugins.Datagram.send conn "hello");
  ignore (Sim.run ~until:(Sim.of_sec 5.) sim);
  check Alcotest.bool "send without plugin is rejected" true (!result = Error `No_plugin)

let test_datagram_unreliable () =
  (* datagrams must not be retransmitted: on a lossy link, fewer arrive *)
  let topo, server, client =
    mk_pair ~loss:0.25 ~seed:77L ~plugins:[ Plugins.Datagram.plugin ] ()
  in
  let sim = topo.Topology.sim in
  let got = ref 0 in
  server.Pquic.Endpoint.on_connection <-
    (fun c -> c.Pquic.Connection.on_message <- (fun _ -> incr got));
  let conn =
    Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
      ~plugins_to_inject:[ Plugins.Datagram.name ]
  in
  let sent = ref 0 in
  conn.Pquic.Connection.on_established <-
    (fun () ->
      (* send a stream of datagrams over several RTTs *)
      let rec tick k =
        if k < 80 then begin
          (match Plugins.Datagram.send conn (Printf.sprintf "msg-%03d" k) with
          | Ok () -> incr sent
          | Error _ -> ());
          ignore (Sim.schedule sim ~delay:(Sim.of_ms 10.) (fun () -> tick (k + 1)))
        end
      in
      tick 0);
  ignore (Sim.run ~until:(Sim.of_sec 30.) sim);
  check Alcotest.bool "some datagrams lost for good" true (!got < !sent);
  check Alcotest.bool "most datagrams arrive" true (!got > !sent / 2)

(* ------------------------------ multipath ----------------------------- *)

let mp_transfer ?(iw = 16384) ~dual ~size () =
  let cfg = { Pquic.Connection.default_config with initial_window = iw } in
  let plugins = if dual then [ Plugins.Multipath.plugin ] else [] in
  let p = { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. } in
  let topo = if dual then Topology.dual_path ~seed:5L p p else Topology.single_path ~seed:5L p in
  Exp.Runner.quic_transfer ~cfg ~plugins
    ~to_inject:(if dual then [ Plugins.Multipath.name ] else [])
    ~multipath:dual ~topo ~size ()

let test_multipath_speedup () =
  match (mp_transfer ~dual:false ~size:5_000_000 (), mp_transfer ~dual:true ~size:5_000_000 ()) with
  | Some s, Some m ->
    let speedup = s.Exp.Runner.dct /. m.Exp.Runner.dct in
    check Alcotest.bool
      (Printf.sprintf "two symmetric paths give ~2x (got %.2f)" speedup)
      true
      (speedup > 1.6 && speedup < 2.2)
  | _ -> Alcotest.fail "transfer failed"

let test_multipath_uses_both_paths () =
  match mp_transfer ~dual:true ~size:1_000_000 () with
  | Some r -> (
    match r.Exp.Runner.server_conn with
    | Some sconn ->
      check Alcotest.int "server opened a second path" 2
        (Array.length sconn.Pquic.Connection.paths);
      let p0 = sconn.Pquic.Connection.paths.(0)
      and p1 = sconn.Pquic.Connection.paths.(1) in
      (* both paths carried data: both congestion controllers grew *)
      check Alcotest.bool "path 0 used" true (Quic.Cc.cwnd p0.Pquic.Connection.cc > 16384);
      check Alcotest.bool "path 1 used" true (Quic.Cc.cwnd p1.Pquic.Connection.cc > 16384)
    | None -> Alcotest.fail "no server connection")
  | None -> Alcotest.fail "transfer failed"

let test_multipath_per_path_rtt () =
  (* asymmetric path delays: MP_ACK feedback must give distinct RTTs *)
  let p1 = { Topology.d_ms = 5.; bw_mbps = 20.; loss = 0. } in
  let p2 = { Topology.d_ms = 50.; bw_mbps = 20.; loss = 0. } in
  let topo = Topology.dual_path ~seed:6L p1 p2 in
  match
    Exp.Runner.quic_transfer ~plugins:[ Plugins.Multipath.plugin ]
      ~to_inject:[ Plugins.Multipath.name ] ~multipath:true ~topo
      ~size:2_000_000 ()
  with
  | Some r -> (
    match r.Exp.Runner.server_conn with
    | Some sconn when Array.length sconn.Pquic.Connection.paths = 2 ->
      let rtt0 = Quic.Rtt.smoothed sconn.Pquic.Connection.paths.(0).Pquic.Connection.rtt in
      let rtt1 = Quic.Rtt.smoothed sconn.Pquic.Connection.paths.(1).Pquic.Connection.rtt in
      (* queueing delay inflates both paths; the ordering and a clear gap
         must survive it *)
      check Alcotest.bool
        (Printf.sprintf "path RTTs reflect asymmetry (%.1f vs %.1f ms)"
           (Int64.to_float rtt0 /. 1e6) (Int64.to_float rtt1 /. 1e6))
        true
        (Int64.to_float rtt1 /. Int64.to_float rtt0 > 1.4)
    | _ -> Alcotest.fail "second path missing")
  | None -> Alcotest.fail "transfer failed"

let test_multipath_single_path_harmless () =
  (* injected on a single-path topology, the plugin must not break anything *)
  let p = { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. } in
  let topo = Topology.single_path ~seed:5L p in
  match
    Exp.Runner.quic_transfer ~plugins:[ Plugins.Multipath.plugin ]
      ~to_inject:[ Plugins.Multipath.name ] ~topo ~size:200_000 ()
  with
  | Some r ->
    check Alcotest.bool "completes" true (r.Exp.Runner.dct > 0.)
  | None -> Alcotest.fail "multipath on one path failed"

let test_lowest_rtt_scheduler_prefers_fast_path () =
  let p1 = { Topology.d_ms = 5.; bw_mbps = 20.; loss = 0. } in
  let p2 = { Topology.d_ms = 80.; bw_mbps = 20.; loss = 0. } in
  let topo = Topology.dual_path ~seed:6L p1 p2 in
  match
    Exp.Runner.quic_transfer ~plugins:[ Plugins.Multipath.plugin_lowest_rtt ]
      ~to_inject:[ Plugins.Multipath.name_lowest_rtt ] ~multipath:true ~topo
      ~size:500_000 ()
  with
  | Some r -> (
    match r.Exp.Runner.server_conn with
    | Some sconn when Array.length sconn.Pquic.Connection.paths = 2 ->
      (* the fast path must carry clearly more than the slow one *)
      let inflight_hint p = Quic.Cc.cwnd p.Pquic.Connection.cc in
      check Alcotest.bool "fast path preferred" true
        (inflight_hint sconn.Pquic.Connection.paths.(0)
         > inflight_hint sconn.Pquic.Connection.paths.(1))
    | _ -> Alcotest.fail "second path missing")
  | None -> Alcotest.fail "transfer failed"

(* -------------------------------- FEC --------------------------------- *)

let fec_transfer ~plugin ~loss ~size ~seed =
  let p = { Topology.d_ms = 100.; bw_mbps = 4.; loss } in
  let topo = Topology.single_path ~seed p in
  let plugins, to_inject =
    match plugin with
    | Some (pl : Pquic.Plugin.t) -> ([ pl ], [ pl.Pquic.Plugin.name ])
    | None -> ([], [])
  in
  Exp.Runner.quic_transfer ~plugins ~to_inject ~topo ~size ()

let test_fec_rlc_recovers () =
  match fec_transfer ~plugin:(Some Plugins.Fec.rlc_full) ~loss:0.05 ~size:400_000 ~seed:3L with
  | Some r ->
    check Alcotest.bool "packets recovered without retransmission" true
      (r.Exp.Runner.client_stats.Pquic.Connection.frames_recovered > 0)
  | None -> Alcotest.fail "transfer failed"

let test_fec_xor_recovers_fewer () =
  let rec_of plugin seed =
    match fec_transfer ~plugin ~loss:0.05 ~size:400_000 ~seed with
    | Some r -> r.Exp.Runner.client_stats.Pquic.Connection.frames_recovered
    | None -> Alcotest.fail "transfer failed"
  in
  let xor = rec_of (Some Plugins.Fec.xor_full) 3L in
  let rlc = rec_of (Some Plugins.Fec.rlc_full) 3L in
  check Alcotest.bool
    (Printf.sprintf "XOR (%d) recovers no more than RLC (%d)" xor rlc)
    true (xor <= rlc)

let test_fec_no_loss_no_recovery () =
  match fec_transfer ~plugin:(Some Plugins.Fec.rlc_full) ~loss:0. ~size:200_000 ~seed:3L with
  | Some r ->
    check Alcotest.int "nothing to recover on a clean link" 0
      r.Exp.Runner.client_stats.Pquic.Connection.frames_recovered
  | None -> Alcotest.fail "transfer failed"

let test_fec_data_integrity () =
  (* recovered packets must reconstruct the exact stream *)
  let p = { Topology.d_ms = 60.; bw_mbps = 5.; loss = 0.06 } in
  let topo = Topology.single_path ~seed:13L p in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server = Pquic.Endpoint.create ~sim ~net ~addr:topo.Topology.server_addr ~seed:1L () in
  let client =
    Pquic.Endpoint.create ~sim ~net ~addr:(List.hd topo.Topology.client_addrs) ~seed:2L ()
  in
  Pquic.Endpoint.add_plugin server Plugins.Fec.rlc_full;
  Pquic.Endpoint.add_plugin client Plugins.Fec.rlc_full;
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  let payload = String.init 300_000 (fun i -> Char.chr (i * 131 mod 251)) in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then Pquic.Connection.write_stream c ~id ~fin:true payload));
  let conn =
    Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
      ~plugins_to_inject:[ (Plugins.Fec.rlc_full : Pquic.Plugin.t).Pquic.Plugin.name ]
  in
  let received = Buffer.create 300_000 in
  let finished = ref false in
  conn.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET");
  conn.Pquic.Connection.on_stream_data <-
    (fun _ data ~fin ->
      Buffer.add_string received data;
      if fin then finished := true);
  ignore (Sim.run ~until:(Sim.of_sec 400.) sim);
  check Alcotest.bool "finished" true !finished;
  check Alcotest.bool "stream content intact through FEC recovery" true
    (Buffer.contents received = payload);
  check Alcotest.bool "recovery actually happened" true
    ((Pquic.Connection.stats conn).Pquic.Connection.frames_recovered > 0)

(* A recorded input on which RLC decoding once went wrong: a singular
   system left its repair rows reduced and swapped in place, the next
   repair symbol of the same window solved a wrong system, and the client
   replayed a packet the server never sent ("unknown frame type"). The
   transfer mirrors the benchmark's lossy FEC GET: the Figure 7 path at
   100 Mbps with 2% loss, endpoint seeds derived from the input seed by
   a splitmix finaliser. *)
let test_fec_rlc_singular_window () =
  let mix (x : int64) =
    let open Int64 in
    let z = add x 0x9E3779B97F4A7C15L in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)
  in
  let seed = 7071998533859302274L and size = 5_203_556 in
  let p = { Topology.d_ms = 5.; bw_mbps = 100.; loss = 0.02 } in
  let topo = Topology.single_path ~seed p in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server_addr = topo.Topology.server_addr in
  let server = Pquic.Endpoint.create ~sim ~net ~addr:server_addr ~seed:(mix seed) () in
  let client =
    Pquic.Endpoint.create ~sim ~net ~addr:(List.hd topo.Topology.client_addrs)
      ~seed:(mix (mix seed)) ()
  in
  let plugin = Plugins.Fec.rlc_full in
  let name = (plugin : Pquic.Plugin.t).Pquic.Plugin.name in
  Pquic.Endpoint.add_plugin server plugin;
  Pquic.Endpoint.add_plugin client plugin;
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  ignore (Pquic.Endpoint.acquire_instance server name);
  let payload = String.make size 'x' in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then Pquic.Connection.write_stream c ~id ~fin:true payload));
  let conn =
    Pquic.Endpoint.connect client ~remote_addr:server_addr ~plugins_to_inject:[ name ]
  in
  let received = Buffer.create size and fins = ref 0 in
  conn.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET /file");
  conn.Pquic.Connection.on_stream_data <-
    (fun _ data ~fin ->
      Buffer.add_string received data;
      if fin then incr fins);
  while !fins = 0 && Sim.now sim < Sim.of_sec 300. && Sim.pending sim > 0 do
    ignore (Sim.run ~until:(Int64.add (Sim.now sim) (Sim.of_ms 10.)) sim)
  done;
  (match Pquic.Connection.state conn with
   | Pquic.Connection.Failed m -> Alcotest.failf "connection failed: %s" m
   | _ -> ());
  check Alcotest.int "one FIN" 1 !fins;
  check Alcotest.int "every byte" size (Buffer.length received);
  check Alcotest.bool "exact bytes" true (Buffer.contents received = payload);
  check Alcotest.bool "repairs happened" true
    ((Pquic.Connection.stats conn).Pquic.Connection.frames_recovered > 0)

let test_fec_termination_verdicts () =
  (* the RLC receiver pluglet contains a Gauss-Jordan while loop: its
     termination must NOT be provable, as for the paper's hard pluglets *)
  let stats = Pquic.Plugin.stats Plugins.Fec.rlc_full in
  check Alcotest.bool "at least one unproven pluglet" true
    (stats.Pquic.Plugin.proven_terminating < stats.Pquic.Plugin.pluglet_count);
  let xstats = Pquic.Plugin.stats Plugins.Fec.xor_full in
  check Alcotest.int "XOR variant fully proven"
    xstats.Pquic.Plugin.pluglet_count xstats.Pquic.Plugin.proven_terminating

(* ------------------------- plugin combination ------------------------- *)

let test_combined_plugins () =
  (* monitoring + multipath + datagram on one connection (Section 4.5) *)
  let plugins =
    [ Plugins.Monitoring.plugin; Plugins.Multipath.plugin; Plugins.Datagram.plugin ]
  in
  let topo, server, client = mk_pair ~dual:true ~plugins () in
  let sim = topo.Topology.sim in
  let server_msgs = ref 0 in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      (* the monitoring plugin also pushes its PI block on close: count
         only the datagram messages *)
      c.Pquic.Connection.on_message <-
        (fun m -> if Plugins.Monitoring.decode_report m = None then incr server_msgs);
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then Pquic.Connection.write_stream c ~id ~fin:true (String.make 500_000 'x')));
  let conn =
    Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
      ~plugins_to_inject:
        [ Plugins.Monitoring.name; Plugins.Multipath.name; Plugins.Datagram.name ]
  in
  let report = ref None in
  let finished = ref false in
  conn.Pquic.Connection.on_message <-
    (fun m ->
      match Plugins.Monitoring.decode_report m with
      | Some r -> report := Some r
      | None -> ());
  conn.Pquic.Connection.on_established <-
    (fun () ->
      ignore (Plugins.Datagram.send conn "combined!");
      Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET");
  conn.Pquic.Connection.on_stream_data <-
    (fun _ _ ~fin ->
      if fin then begin
        finished := true;
        Pquic.Connection.close conn ~reason:"done"
      end);
  ignore (Sim.run ~until:(Sim.of_sec 60.) sim);
  check Alcotest.bool "transfer finished" true !finished;
  check Alcotest.int "all three plugins active" 3
    (List.length (Pquic.Connection.plugin_names conn));
  check Alcotest.int "datagram delivered" 1 !server_msgs;
  check Alcotest.bool "monitoring exported" true (!report <> None)

let tests =
  [
    ("monitoring", [
      Alcotest.test_case "counters mirror engine" `Quick test_monitoring_counters_match_engine;
      Alcotest.test_case "all pluglets proven" `Quick test_monitoring_all_proven;
    ]);
    ("datagram", [
      Alcotest.test_case "delivery + boundaries" `Quick test_datagram_delivery_and_boundaries;
      Alcotest.test_case "max size external op" `Quick test_datagram_max_size;
      Alcotest.test_case "no plugin -> error" `Quick test_datagram_no_plugin_errors;
      Alcotest.test_case "unreliable" `Quick test_datagram_unreliable;
    ]);
    ("multipath", [
      Alcotest.test_case "speedup ~2x" `Quick test_multipath_speedup;
      Alcotest.test_case "both paths used" `Quick test_multipath_uses_both_paths;
      Alcotest.test_case "per-path RTT" `Quick test_multipath_per_path_rtt;
      Alcotest.test_case "single path harmless" `Quick test_multipath_single_path_harmless;
      Alcotest.test_case "lowest-rtt scheduler" `Quick test_lowest_rtt_scheduler_prefers_fast_path;
    ]);
    ("fec", [
      Alcotest.test_case "rlc recovers" `Quick test_fec_rlc_recovers;
      Alcotest.test_case "xor <= rlc" `Quick test_fec_xor_recovers_fewer;
      Alcotest.test_case "clean link" `Quick test_fec_no_loss_no_recovery;
      Alcotest.test_case "data integrity" `Quick test_fec_data_integrity;
      Alcotest.test_case "rlc singular window" `Quick test_fec_rlc_singular_window;
      Alcotest.test_case "termination verdicts" `Quick test_fec_termination_verdicts;
    ]);
    ("combination", [
      Alcotest.test_case "monitoring+multipath+datagram" `Quick test_combined_plugins;
    ]);
  ]
