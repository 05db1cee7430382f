(* The PQUIC benchmark: one workload per process, chosen by --workload.

     pbench --workload bulk|mpfec|fec_lossy|server_mix --seed N
            --seconds S --trace 0|1 [--smoke]

   Every workload runs a transfer phase (GETs over the simulated network)
   and a server phase (a standing population behind Pquic.Server); the
   workload picks the transfer's paths and plugins and which phase gets
   the measured time. The other phase runs at a small fixed size, so
   every end-to-end metric is measured on every workload. With --trace 0
   the run prints the end-to-end metrics; with --trace 1 it alternates
   untraced and traced repeats, replays single layers over captured
   traffic, prints the per-layer metrics and writes the spans to
   perfbench/out/. The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. perfbench/METRICS.md
   defines every metric. *)

open Util

type main = Transfers | Rounds

type workload = {
  name : string;
  scenario : Transfer.scenario;
  server : Srvmix.size;
  main : main;
  inputs : int;  (** seeded transfer inputs, cycled *)
}

let mb = 1_000_000
let plain_path = { Transfer.multipath = false; plugins = []; loss = 0.; size = 0 }
let small_server = { Srvmix.plain = 1800; plugin = 200; single = 4000; batched = 20_000 }
let big_server = { Srvmix.plain = 3600; plugin = 400; single = 5000; batched = 50_000 }

let workloads =
  [
    { name = "bulk"; scenario = { plain_path with size = 20 * mb }; server = small_server;
      main = Transfers; inputs = 9 };
    { name = "mpfec";
      scenario =
        { plain_path with multipath = true; size = 20 * mb;
          plugins = [ Plugins.Multipath.plugin; Plugins.Fec.xor_eos ] };
      server = small_server; main = Transfers; inputs = 9 };
    { name = "fec_lossy";
      scenario =
        { plain_path with loss = 0.02; size = 5 * mb; plugins = [ Plugins.Fec.xor_full ] };
      (* random loss makes completion time and per-packet work differ
         by a few percent between inputs: more inputs steady the medians *)
      server = small_server; main = Transfers; inputs = 27 };
    { name = "server_mix"; scenario = { plain_path with size = 2 * mb };
      server = big_server; main = Rounds; inputs = 9 };
  ]

type state = {
  mutable attempted : int;
  mutable failed : int;
  mutable transfers : Transfer.result list;  (** untraced, measured *)
  mutable traced : Transfer.result list;
  mutable firsts : Transfer.result option array;  (** reference per input *)
  mutable rounds : Srvmix.result list;
  mutable tap : Transfer.tap option;
}

let fl = float_of_int

let fail st why =
  st.failed <- st.failed + 1;
  prerr_endline ("perfbench: check failed: " ^ why)

(* [compare], unlike [<>], holds a failed transfer's nan completion time
   equal to itself *)
let record_transfer st (r : Transfer.result) ~inst =
  st.attempted <- st.attempted + 1;
  if not r.ok then fail st ("transfer " ^ r.why);
  match st.firsts.(inst) with
  | None -> st.firsts.(inst) <- Some r
  | Some f -> if compare f.c r.c <> 0 then fail st "replay of one input changed its counts"

let goodput (r : Transfer.result) = float_of_int r.size /. 1e6 /. r.cpu_s

(* One measured transfer of input [k mod w.inputs]; when tracing, its
   traced twin follows and must reproduce every count. *)
let transfer_unit st (w : workload) inputs k ~trace =
  let inst = k mod w.inputs in
  let r = Transfer.run w.scenario inputs.(inst) ~traced:false ~tap:None in
  record_transfer st r ~inst;
  st.transfers <- r :: st.transfers;
  if trace then begin
    let tap = if st.tap = None then Some (Transfer.new_tap ()) else None in
    Trace.on := true;
    Trace.request := k;
    let t = Transfer.run w.scenario inputs.(inst) ~traced:true ~tap in
    Trace.on := false;
    if tap <> None then st.tap <- tap;
    st.attempted <- st.attempted + 1;
    if not t.ok then fail st ("traced transfer " ^ t.why);
    if compare t.c r.c <> 0 then fail st "tracing changed the transfer's counts";
    st.traced <- t :: st.traced
  end

(* Round [k] of the server phase; negative [k] are the unmeasured
   warm-up rounds, which are checked but give no figures. *)
let server_unit st (w : workload) ~seed k ~trace =
  let trace = trace && k >= 0 in
  Trace.on := trace;
  Trace.request := 1_000_000 + k;
  let r = Srvmix.round ~seed:(sub_seed seed (100 + k)) w.server ~traced:trace ~memory:(k = 0) in
  Trace.on := false;
  st.attempted <- st.attempted + r.offered + r.beats;
  (* a heartbeat fails when it is not routed or not accepted by its
     connection; a discarded packet is a failure even if the counts match *)
  let lost_beats = max (r.beats - r.routed) (r.beats - r.delivered) in
  st.failed <- st.failed + (r.offered - r.accepted) + max lost_beats r.discarded;
  if not r.ok then
    prerr_endline
      (Printf.sprintf
         "perfbench: check failed: accepted %d of %d, routed %d and received %d of %d, \
          %d discarded"
         r.accepted r.offered r.routed r.delivered r.beats r.discarded);
  if k >= 0 then st.rounds <- r :: st.rounds

(* The phase the workload was not chosen for runs first, at its small
   size, for a third of the run; the main phase gets the rest. So the main
   phase meets little foreign garbage: a round's cost depends on where
   its connection state lands, and 20 MB transfers scatter it. Each
   phase also runs a minimum number of units. The host factor is
   sampled before every unit. *)
let run_phases st (w : workload) ~seed ~start ~deadline ~trace ~min_transfers ~min_rounds =
  let first_until = start + ((deadline - start) / 3) in
  let rounds until =
    (* the process heap grows to its working size over the first three
       rounds, which run 1.5 times slower while they page-fault it in *)
    for k = -3 to -1 do
      server_unit st w ~seed k ~trace
    done;
    let k = ref 0 in
    while !k < min_rounds || Trace.now_ns () < until do
      calibrate 1;
      server_unit st w ~seed !k ~trace;
      incr k
    done
  in
  let transfers until =
    let inputs =
      Array.init w.inputs (fun i -> Transfer.make_input w.scenario (sub_seed seed i))
    in
    (* warm-up: lazy set-up and first-touch allocation stay out of the figures *)
    record_transfer st (Transfer.run w.scenario inputs.(0) ~traced:false ~tap:None) ~inst:0;
    let k = ref 0 in
    while !k < min_transfers || Trace.now_ns () < until do
      calibrate 0;
      transfer_unit st w inputs !k ~trace;
      incr k
    done
  in
  match w.main with
  | Transfers ->
    rounds first_until;
    transfers deadline
  | Rounds ->
    transfers first_until;
    rounds deadline

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let firsts st = Array.to_list st.firsts |> List.filter_map Fun.id

(* Timings and per-packet figures come from transfers that passed their
   checks; the failed ones are counted in [failed]. *)
let delivered l = List.filter (fun (r : Transfer.result) -> r.ok) l
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let pooled f rounds = Array.concat (List.map f rounds)

(* A set-up figure of the main phase, median over its units, in the
   main phase's host-factor seconds. *)
let main_setup st (w : workload) transfer round =
  match w.main with
  | Transfers -> median_l (List.map transfer st.transfers) /. host_factor 0
  | Rounds -> median_l (List.map round st.rounds) /. host_factor 1

(* How strongly three server figures follow the host factor: the
   slopes of log(unscaled figure) on log(factor) over 160 runs (40 per
   workload, factors 0.56-1.10) were 0.47-0.75 for the heartbeat p99,
   1.28-1.60 for the batched rate and 0.67-1.12 for the other server
   figures. The batched feed touches the whole population's state, so
   memory contention moves it more than the cache-resident kernel. Once
   the runs stopped carrying old rounds' state (Util.cold_start), 35
   runs (factors 0.66-1.07) gave the least run-to-run deviation at
   exponents 0.5 and 1.25 for those two, near 1 for the other server
   figures, but 0.25-0.5 for plugin accepts, whose cost is mostly
   zeroing and cloning each connection's 352 kB of plugin state. *)
let rx_p99_sensitivity = 0.6
let rx_dgrams_sensitivity = 1.4
let plugin_accepts_sensitivity = 0.4

let end_to_end st w =
  let f = host_factor 0 and fs = host_factor 1 in
  let rounds = st.rounds in
  (* a percentile per round, then the median over rounds: a round that
     an outside stall hits cannot move the figure alone *)
  let pct q samples =
    median_l (List.map (fun (r : Srvmix.result) -> quantile q (samples r)) rounds)
  in
  let accept = fun (r : Srvmix.result) -> r.accept_ns in
  let memory bytes =
    median_l (List.filter (fun v -> not (Float.is_nan v)) (List.map bytes rounds))
  in
  let rx = fun (r : Srvmix.result) -> r.rx_ns in
  [
    ("goodput_mb_per_cpu_s", "MB/cpu_s", f *. median_l (List.map goodput (delivered st.transfers)));
    ( "minor_words_per_pkt", "words",
      median_l
        (List.map
           (fun (r : Transfer.result) -> r.words /. fl r.c.pkts)
           (delivered st.transfers)) );
    ( "sim_dct_s", "s",
      median_l (List.map (fun (r : Transfer.result) -> r.c.dct) (delivered (firsts st))) );
    ( "accepts_per_cpu_s", "1/s",
      fs *. median (pooled (fun (r : Srvmix.result) -> r.accept_rates) rounds) );
    ( "plugin_accepts_per_cpu_s", "1/s",
      (fs ** plugin_accepts_sensitivity)
      *. median (pooled (fun (r : Srvmix.result) -> r.plugin_accept_rates) rounds) );
    ("accept_p50_us", "us", pct 0.5 accept /. 1e3 /. fs);
    ("accept_p95_us", "us", pct 0.95 accept /. 1e3 /. fs);
    ("rx_p50_us", "us", pct 0.5 rx /. 1e3 /. fs);
    ("rx_p99_us", "us", pct 0.99 rx /. 1e3 /. (fs ** rx_p99_sensitivity));
    ( "rx_dgrams_per_cpu_s", "1/s",
      (fs ** rx_dgrams_sensitivity)
      *. median (pooled (fun (r : Srvmix.result) -> r.batched_rates) rounds) );
    ( "bytes_per_conn", "bytes",
      memory (fun (r : Srvmix.result) -> r.bytes_per_conn) );
    ( "bytes_per_plugin_conn", "bytes",
      memory (fun (r : Srvmix.result) -> r.bytes_per_plugin_conn) );
    ( "setup_s", "s",
      main_setup st w (fun (r : Transfer.result) -> r.setup_s) (fun r -> r.Srvmix.setup_s) );
  ]

let per_layer st w ~untraced_goodput ~cache_hits ~cache_misses =
  let f = host_factor 0 and fs = host_factor 1 in
  let traced = st.traced in
  let refs = firsts st in
  let pkts = fl (sum (fun (r : Transfer.result) -> r.c.pkts) traced) in
  let rx = Trace.totals "pquic.rx" and slices = Trace.totals "netsim.sim.run" in
  let ref_pkts = fl (sum (fun (r : Transfer.result) -> r.c.pkts) refs) in
  let per_kpkt count = 1000. *. ratio (fl (sum count refs)) ref_pkts in
  let tap = Option.get st.tap in
  let opened =
    Array.of_list (Replay.open_all tap.Transfer.keys (List.map snd tap.Transfer.wires))
  in
  let parse = Replay.parse opened in
  let seal_ns, seal_words, mismatches = Replay.seal opened in
  if mismatches > 0 then
    prerr_endline
      (Printf.sprintf "perfbench: %d of %d re-sealed packets differ from the capture"
         mismatches (Array.length opened));
  let down = List.length (List.filter fst tap.Transfer.wires) in
  let per_path = tap.Transfer.down_per_path in
  let rounds = st.rounds in
  let offered = fl (sum (fun (r : Srvmix.result) -> r.offered) rounds) in
  let mean_pending =
    median_l (List.map (fun (r : Transfer.result) -> r.mean_pending) traced)
  in
  let events = match refs with r :: _ -> min 2_000_000 r.c.events | [] -> 0 in
  let traced_goodput = median_l (List.map goodput (delivered traced)) in
  (* wheel counts per packet of the main phase: packets sent by both
     sides of the refs, or datagrams the server handled in the rounds *)
  let wheel transfer round =
    match w.main with
    | Transfers -> ratio (fl (sum transfer refs)) ref_pkts
    | Rounds ->
      ratio (fl (sum round rounds)) (fl (sum (fun (r : Srvmix.result) -> r.dgrams) rounds))
  in
  [
    ("pquic.rx.ns_per_dgram", "ns", ratio (fl rx.ns) (fl rx.n) /. f);
    ("pquic.rx.words_per_dgram", "words", ratio rx.words (fl rx.n));
    ("pquic.rx.insns_per_dgram", "insns", ratio (fl rx.pre) (fl rx.n));
    ("pquic.tx.ns_per_pkt", "ns", ratio (fl (slices.ns - rx.ns)) pkts /. f);
    ("pquic.tx.words_per_pkt", "words", ratio (slices.words -. rx.words) pkts);
    ("pquic.tx.insns_per_pkt", "insns", ratio (fl (slices.pre - rx.pre)) pkts);
    ("quic.parse.ns_per_dgram", "ns", parse.parse_ns /. f);
    ("quic.parse.words_per_dgram", "words", parse.parse_words);
    ("quic.seal.ns_per_pkt", "ns", seal_ns /. f);
    ("quic.seal.words_per_pkt", "words", seal_words);
    ( "quic.pool.reuse_share", "share",
      let created = sum (fun (r : Transfer.result) -> r.pool_created) traced
      and reused = sum (fun (r : Transfer.result) -> r.pool_reused) traced in
      iratio reused (created + reused) );
    ( "netsim.events_per_pkt", "events",
      ratio (fl (sum (fun (r : Transfer.result) -> r.c.events) refs)) ref_pkts );
    ( "netsim.sim.ns_per_event", "ns",
      Replay.sim_events ~depth:(int_of_float mean_pending) ~events /. f );
    ( "netsim.link.queue_drops", "count",
      ratio (fl (sum (fun (r : Transfer.result) -> r.c.queue_drops) refs)) (fl (List.length refs)) );
    ( "netsim.link.queue_hwm_bytes", "bytes",
      fl (List.fold_left (fun acc (r : Transfer.result) -> max acc r.c.queue_hwm) 0 refs) );
    ("recovery.lost_per_kpkt", "count", per_kpkt (fun r -> r.c.lost));
    ("recovery.retx_per_kpkt", "count", per_kpkt (fun r -> r.c.retx));
    ("recovery.dup_rejected_per_kpkt", "count", per_kpkt (fun r -> r.c.dup));
    ("engine.wheel.arms_per_pkt", "count", wheel (fun r -> r.c.arms) (fun r -> r.Srvmix.arms));
    ( "engine.wheel.fires_per_kpkt", "count",
      1000. *. wheel (fun r -> r.c.fires) (fun r -> r.Srvmix.fires) );
    ("pre.insns_per_pkt", "insns", per_kpkt (fun r -> r.c.insns) /. 1000.);
    ( "pre.sanctions", "count",
      fl (sum (fun (r : Transfer.result) -> r.sanctions) (st.transfers @ traced)) );
    ( "pre.fallbacks", "count",
      fl (sum (fun (r : Transfer.result) -> r.fallbacks) (st.transfers @ traced)) );
    ("pre.cache.hit_share", "share", iratio cache_hits (cache_hits + cache_misses));
    ( "setup.plugin_admit_s", "s",
      main_setup st w (fun (r : Transfer.result) -> r.admit_s) (fun r -> r.Srvmix.admit_s) );
    ( "setup.endpoints_s", "s",
      main_setup st w
        (fun (r : Transfer.result) -> r.endpoints_s)
        (fun r -> r.Srvmix.setup_s -. r.Srvmix.admit_s) );
    ( "fec.recovered_share", "share",
      iratio (sum (fun (r : Transfer.result) -> r.c.recovered) refs)
        (sum (fun (r : Transfer.result) -> r.c.data_losses) refs) );
    ("fec.repair_share", "share", iratio parse.repair_pkts down);
    ("gf.mulvec.ns_per_kb", "ns", Replay.mulvec parse.repair_lens /. f);
    ( "mp.path_share_max", "share",
      iratio (Array.fold_left max 0 per_path) (Array.fold_left ( + ) 0 per_path) );
    ( "engine.route.ns_per_dgram", "ns",
      median_l (List.map (fun (r : Srvmix.result) -> r.route_ns) rounds) /. fs );
    ( "engine.shard.batch_len", "count",
      iratio (sum (fun (r : Srvmix.result) -> r.dispatched) rounds)
        (sum (fun (r : Srvmix.result) -> r.batches) rounds) );
    ( "engine.table.load", "share",
      median_l
        (List.map (fun (r : Srvmix.result) -> iratio r.table_live r.table_capacity) rounds) );
    ( "server.replies_per_initial", "count",
      ratio (fl (sum (fun (r : Srvmix.result) -> r.replies) rounds)) offered );
    ( "gc.promoted_words_per_conn", "words",
      ratio (fsum (fun (r : Srvmix.result) -> r.promoted_words) rounds) offered );
    ( "gc.major_collections_per_kconn", "count",
      1000. *. ratio (fl (sum (fun (r : Srvmix.result) -> r.major_collections) rounds)) offered );
    ("trace.goodput_delta_mb_per_cpu_s", "MB/cpu_s", f *. (traced_goodput -. untraced_goodput));
  ]

(* ------------------------------------------------------------------ *)
(* Command line and output                                             *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: pbench --workload bulk|mpfec|fec_lossy|server_mix --seed N --seconds S \
     --trace 0|1 [--smoke]";
  exit 2

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10 and trace = ref 0 in
  let smoke = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := Int64.of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
      seconds := (match int_of_string_opt v with Some s when s > 0 -> s | _ -> usage ());
      parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> 0 | "1" -> 1 | _ -> usage ());
      parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = match !seed with Some s -> s | None -> usage () in
  let w =
    if not !smoke then w
    else
      {
        w with
        scenario = { w.scenario with size = 100_000 };
        server = { Srvmix.plain = 90; plugin = 10; single = 200; batched = 1000 };
      }
  in
  let trace = !trace = 1 in
  let st =
    { attempted = 0; failed = 0; transfers = []; traced = []; rounds = [];
      firsts = Array.make w.inputs None; tap = None }
  in
  let start = Trace.now_ns () in
  let deadline = if !smoke then start else start + (!seconds * 1_000_000_000) in
  let pre0 = Pluginop.Pre.cache_counters () in
  let flushes0 = !flushes in
  run_phases st w ~seed ~start ~deadline ~trace ~min_transfers:w.inputs
    ~min_rounds:(if !smoke then 1 else 2);
  let pre1 = Pluginop.Pre.cache_counters () in
  (* each flush's throwaway program is not an admission of the workload *)
  let cache_hits = pre1.hits - pre0.hits in
  let cache_misses = pre1.misses - pre0.misses - (!flushes - flushes0) in
  Printf.eprintf
    "perfbench: %s seed %Ld: %d transfers (%d traced), %d server rounds, %.1f s, host factors %.4f %.4f\n%!"
    w.name seed (List.length st.transfers) (List.length st.traced)
    (List.length st.rounds) (fl (Trace.now_ns () - start) /. 1e9) (host_factor 0)
    (host_factor 1);
  Trace.on := trace;
  let metrics =
    if trace then
      per_layer st w
        ~untraced_goodput:(median_l (List.map goodput (delivered st.transfers)))
        ~cache_hits ~cache_misses
    else end_to_end st w
  in
  Trace.on := false;
  if trace then
    Trace.write (Printf.sprintf "perfbench/out/trace-%s-%Ld.jsonl" w.name seed);
  List.iter (fun (n, u, v) -> Printf.printf "%-34s %16.6g %s\n" n v u) metrics;
  let body =
    List.map
      (fun (n, u, v) ->
        let v = if Float.is_finite v then v else (fail st (n ^ " is not finite"); 0.) in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (st.failed = 0) st.attempted st.failed (String.concat ", " body)
