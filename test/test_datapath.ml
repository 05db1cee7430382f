(* Datapath regression tests for the pooled zero-copy send path.

   The fast encoders (arithmetic frame sizes, direct-to-writer frame
   encoding, header-then-blit stream/crypto/plugin writes, in-place
   packet sealing, the native-int FNV tag) must stay byte-identical to
   the allocating reference paths they replaced — the experiment figures
   are bit-for-bit reproductions and any wire drift would silently skew
   them. The writer free list must balance acquires and releases across
   whole transfers, and the engine's per-packet allocation rate is
   fenced with a ceiling so the zero-copy datapath cannot rot unnoticed. *)

module F = Quic.Frame
module W = Quic.Writer
module P = Quic.Packet

let check = Alcotest.check

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------- frame generators -------------------------- *)

let gen_ack =
  let open QCheck2.Gen in
  map3
    (fun largest delay spec ->
      let largest = Int64.of_int (largest + 100_000) in
      (* descending disjoint ranges: each gap leaves the mandatory
         prev_first - last - 2 >= 0 slack of the wire encoding *)
      let rec go last spec acc =
        match spec with
        | [] -> List.rev acc
        | (len, gap) :: rest ->
          let first = Int64.sub last (Int64.of_int len) in
          let next_last = Int64.sub first (Int64.of_int (gap + 2)) in
          go next_last rest ((first, last) :: acc)
      in
      F.Ack
        {
          largest;
          delay_us = Int64.of_int delay;
          ranges = go largest spec [];
        })
    (int_range 0 1_000_000) (int_range 0 100_000)
    (list_size (int_range 1 9) (pair (int_range 0 50) (int_range 0 50)))

(* Every constructor, including the data-bearing frames the sender
   encodes through the zero-copy header writers. *)
let gen_frame =
  let open QCheck2.Gen in
  let str = string_size ~gen:printable (int_range 0 200) in
  let off = map Int64.of_int (int_range 0 2_000_000) in
  oneof
    [
      map (fun n -> F.Padding (n + 1)) (int_range 0 20);
      return F.Ping;
      return F.Handshake_done;
      gen_ack;
      map2 (fun offset data -> F.Crypto { offset; data }) off str;
      map3
        (fun id (offset, fin) data -> F.Stream { id; offset; fin; data })
        (int_range 0 1000) (pair off bool) str;
      map (fun v -> F.Max_data v) off;
      map2 (fun id max -> F.Max_stream_data { id; max }) (int_range 0 1000) off;
      map2
        (fun code reason -> F.Connection_close { code; reason })
        (int_range 0 100) str;
      map (fun v -> F.Path_challenge (Int64.of_int v)) (int_range 0 max_int);
      map (fun v -> F.Path_response (Int64.of_int v)) (int_range 0 max_int);
      map2
        (fun seq cid ->
          F.New_connection_id { seq = Int64.of_int seq; cid = Int64.of_int cid })
        (int_range 0 100_000) (int_range 0 max_int);
      map
        (fun seq -> F.Retire_connection_id (Int64.of_int seq))
        (int_range 0 100_000);
      map2
        (fun plugin formula -> F.Plugin_validate { plugin; formula })
        str str;
      map2 (fun plugin proof -> F.Plugin_proof { plugin; proof }) str str;
      map3
        (fun plugin (offset, fin) data ->
          F.Plugin_chunk { plugin; offset; fin; data })
        str (pair off bool) str;
      map2
        (fun ftype raw -> F.Unknown { ftype; raw })
        (int_range 0x30 0x5f) str;
    ]

(* ----------------------- reader differentials ------------------------ *)

module R = Quic.Reader

(* Outcome of one parse step, comparable across the reference parser and
   the view parser: the materialized frame plus the cursor advance, or
   the exception the parser raised. *)
let reference_step s pos =
  match F.parse s pos with
  | f, next -> Ok (f, next)
  | exception Quic.Varint.Truncated -> Error "truncated"
  | exception Invalid_argument _ -> Error "invalid"

let view_step s r =
  match F.parse_view r with
  | v -> Ok (F.of_view s v, R.pos r)
  | exception Quic.Varint.Truncated -> Error "truncated"
  | exception Invalid_argument _ -> Error "invalid"

let step_eq = function
  | Ok (f, n), Ok (f', n') -> f = f' && n = n'
  | Error e, Error e' -> e = e'
  | _ -> false

(* Well-formed frame sequences: [parse_view] must agree with the
   reference [parse] on every step — same frame once materialized, same
   cursor advance — all the way to the end of the payload. *)
let view_matches_parse =
  qtest ~count:500 "Frame.parse_view = parse"
    QCheck2.Gen.(list_size (int_range 1 8) gen_frame)
    (fun frames ->
      let s = String.concat "" (List.map F.to_string frames) in
      let r = R.acquire () in
      R.reset r s ~pos:0 ~limit:(String.length s);
      let ok = ref true in
      let pos = ref 0 in
      while !ok && !pos < String.length s do
        let reference = reference_step s !pos in
        let viewed = view_step s r in
        ok := step_eq (reference, viewed);
        match reference with
        | Ok (_, next) -> pos := next
        | Error _ -> pos := String.length s
      done;
      R.release r;
      !ok)

(* Truncated input: parsing through a reader whose [limit] clips the
   datagram must behave exactly like the reference parser on a copied
   prefix of the same length — same value or same exception. This is the
   window-bounds property the zero-copy receive path rests on. *)
let view_truncation_matches =
  qtest ~count:500 "parse_view at limit = parse of prefix"
    QCheck2.Gen.(pair gen_frame (int_range 0 1000))
    (fun (f, cut) ->
      let s = F.to_string f in
      let cut = cut mod (String.length s + 1) in
      let reference = reference_step (String.sub s 0 cut) 0 in
      let r = R.acquire () in
      R.reset r s ~pos:0 ~limit:cut;
      let viewed = view_step s r in
      R.release r;
      step_eq (reference, viewed))

(* Corrupted input: on arbitrary bytes both parsers must still agree —
   value and cursor when they accept, exception when they reject. *)
let view_corruption_matches =
  qtest ~count:1000 "parse_view = parse on random bytes"
    QCheck2.Gen.(string_size (int_range 0 64))
    (fun s ->
      let r = R.acquire () in
      R.reset r s ~pos:0 ~limit:(String.length s);
      let viewed = view_step s r in
      R.release r;
      step_eq (reference_step s 0, viewed))

(* ACK frames from raw field values, well-formed or not: any count,
   gaps and lengths of every varint size, ranges that reach below packet
   number 0, too few range pairs for the count. [V_ack] must agree with
   the reference on value, cursor advance and raising, whole and cut. *)
let gen_raw_ack =
  let open QCheck2.Gen in
  let field =
    oneof
      [ int_range 0 70; int_range 0 20_000; int_range 0 0x3FFF_FFFF;
        int_range 0 max_int ]
  in
  map3
    (fun (largest, delay, count) pairs cut ->
      let buf = Buffer.create 64 in
      List.iter (Quic.Varint.write_int buf)
        ([ F.type_ack; largest; delay; count ]
        @ List.concat_map (fun (g, l) -> [ g; l ]) pairs);
      let s = Buffer.contents buf in
      (s, cut mod (String.length s + 1)))
    (triple (oneof [ int_range 0 5_000; field ]) field (int_range 0 80))
    (pair (oneof [ int_range 0 10; field ]) (int_range 0 6)
     |> list_size (int_range 1 81))
    nat

let ack_view_matches_parse =
  qtest ~count:1000 "V_ack = parse on raw ACK encodings" gen_raw_ack
    (fun (s, cut) ->
      let at limit =
        let r = R.acquire () in
        R.reset r s ~pos:0 ~limit;
        let viewed = view_step s r in
        R.release r;
        step_eq (reference_step (String.sub s 0 limit) 0, viewed)
      in
      at (String.length s) && at cut)

(* The edges of the range arithmetic: a range reaching below packet
   number 0 is malformed, including where the native-int subtraction
   would wrap; a range ending exactly at 0 is fine. *)
let test_ack_range_edges () =
  let wire fields =
    let buf = Buffer.create 32 in
    List.iter (Quic.Varint.write_int buf) (F.type_ack :: fields);
    Buffer.contents buf
  in
  let outcome s =
    let r = R.acquire () in
    R.reset r s ~pos:0 ~limit:(String.length s);
    let viewed = view_step s r in
    R.release r;
    let reference = reference_step s 0 in
    if not (step_eq (reference, viewed)) then Alcotest.fail "parsers disagree";
    match viewed with Ok _ -> "ok" | Error e -> e
  in
  let cases =
    [
      ("first range below 0", [ 5; 0; 0; 6 ], "truncated");
      ("gap wraps below 0", [ 0; 0; 1; 0; max_int; 0 ], "truncated");
      ("gap one below 0", [ 4; 0; 1; 3; 0; 0 ], "truncated");
      ("len reaches below 0", [ max_int; 0; 1; 0; 0; max_int ], "truncated");
      ("range ending at 0", [ 2; 0; 1; 0; 0; 0 ], "ok");
    ]
  in
  List.iter
    (fun (name, fields, expected) ->
      check Alcotest.string name expected (outcome (wire fields)))
    cases

(* ---------------------- encoder differentials ------------------------ *)

let size_matches_wire_size =
  qtest "Frame.size = wire_size" gen_frame (fun f -> F.size f = F.wire_size f)

let write_matches_serialize =
  qtest "Frame.write = serialize" gen_frame (fun f ->
      let buf = Buffer.create 256 in
      F.serialize buf f;
      let w = W.create () in
      F.write w f;
      W.contents w = Buffer.contents buf)

let stream_header_matches =
  qtest "stream header writer = serialize"
    QCheck2.Gen.(
      tup4 (int_range 0 1000)
        (map Int64.of_int (int_range 0 2_000_000))
        bool
        (string_size ~gen:printable (int_range 0 300)))
    (fun (id, offset, fin, data) ->
      let len = String.length data in
      let reference = F.to_string (F.Stream { id; offset; fin; data }) in
      let w = W.create () in
      F.write_stream_header w ~id ~offset ~fin ~len;
      W.string w data;
      W.contents w = reference
      && F.stream_header_size ~id ~offset ~len + len = String.length reference)

let crypto_header_matches =
  qtest "crypto header writer = serialize"
    QCheck2.Gen.(
      pair
        (map Int64.of_int (int_range 0 2_000_000))
        (string_size ~gen:printable (int_range 0 300)))
    (fun (offset, data) ->
      let len = String.length data in
      let reference = F.to_string (F.Crypto { offset; data }) in
      let w = W.create () in
      F.write_crypto_header w ~offset ~len;
      W.string w data;
      W.contents w = reference
      && F.crypto_header_size ~offset ~len + len = String.length reference)

let plugin_chunk_header_matches =
  qtest "plugin chunk header writer = serialize"
    QCheck2.Gen.(
      tup4
        (string_size ~gen:printable (int_range 0 40))
        (map Int64.of_int (int_range 0 2_000_000))
        bool
        (string_size ~gen:printable (int_range 0 300)))
    (fun (plugin, offset, fin, data) ->
      let len = String.length data in
      let reference = F.to_string (F.Plugin_chunk { plugin; offset; fin; data }) in
      let w = W.create () in
      F.write_plugin_chunk_header w ~plugin ~offset ~fin ~len;
      W.string w data;
      W.contents w = reference
      && F.plugin_chunk_header_size ~plugin ~offset + len
         = String.length reference)

(* Whole packets: reserve header room, write a random frame mix, patch
   the header, seal — must equal serialize-then-protect byte for byte. *)
let seal_matches_protect =
  qtest ~count:200 "Packet.seal = protect"
    QCheck2.Gen.(
      tup4 (int_range 0 2)
        (tup4 bool (map Int64.of_int (int_range 0 max_int))
           (map Int64.of_int (int_range 0 max_int))
           (map Int64.of_int (int_range 0 0xFFFFFFF)))
        (map Int64.of_int (int_range 0 max_int))
        (list_size (int_range 1 6) gen_frame))
    (fun (pt, (spin, dcid, scid, pn), key, frames) ->
      let ptype =
        match pt with 0 -> P.Initial | 1 -> P.Handshake | _ -> P.One_rtt
      in
      let header = { P.ptype; spin; dcid; scid; pn } in
      let payload = String.concat "" (List.map F.to_string frames) in
      let reference = P.protect ~key { P.header; payload } in
      let w = W.acquire () in
      let hoff = P.reserve_header w header in
      List.iter (F.write w) frames;
      P.patch_header w ~off:hoff header;
      P.seal ~key w;
      let got = W.contents w in
      W.release w;
      got = reference)

let tag_matches_reference =
  qtest "Packet.tag = tag_reference"
    QCheck2.Gen.(pair int64 (string_size (int_range 0 2000)))
    (fun (key, data) -> P.tag ~key data = P.tag_reference ~key data)

let tag_sub_consistent =
  qtest "tag_sub/tag_bytes = tag of slice"
    QCheck2.Gen.(
      tup3 int64 (string_size (int_range 0 500)) (pair nat nat))
    (fun (key, s, (a, b)) ->
      let n = String.length s in
      let off = if n = 0 then 0 else a mod n in
      let len = if n - off = 0 then 0 else b mod (n - off) in
      let slice = String.sub s off len in
      P.tag_sub ~key s ~off ~len = P.tag ~key slice
      && P.tag_bytes ~key (Bytes.of_string s) ~off ~len = P.tag ~key slice)

let varint_int_matches =
  qtest "Writer.varint_int = varint"
    QCheck2.Gen.(
      oneof
        [ int_range 0 100; int_range 0 20_000; int_range 0 0x7FFF_FFFF;
          int_range 0 max_int ])
    (fun v ->
      let a = W.create () and b = W.create () in
      W.varint_int a v;
      W.varint b (Int64.of_int v);
      W.contents a = W.contents b
      && Quic.Varint.encoded_size_int v = W.length a)

(* A received-range set from arrival runs separated by holes; up to ~100
   ranges, so the 64-range wire cap is crossed. *)
let gen_ackranges =
  let open QCheck2.Gen in
  map
    (fun runs ->
      let t = Quic.Ackranges.create () in
      let pn = ref 0 in
      List.iter
        (fun (hole, run) ->
          pn := !pn + hole;
          for _ = 0 to run do
            Quic.Ackranges.add t (Int64.of_int !pn);
            incr pn
          done)
        runs;
      t)
    (list_size (int_range 1 100)
       (pair (oneof [ int_range 1 3; int_range 1 20_000 ]) (int_range 0 50)))

(* The production ACK encoder against the reference shape: the [Ack]
   value holding the first [max_ranges] ranges, through [Frame.write]. *)
let ack_encoder_matches =
  qtest ~count:500 "Frame.write_ack = write (Ack ...)"
    QCheck2.Gen.(
      triple gen_ackranges
        (oneof [ return 64; int_range 1 100 ])
        (oneof [ int_range 0 100; int_range 0 max_int ]))
    (fun (acks, max_ranges, delay_us) ->
      let ranges =
        List.filteri (fun i _ -> i < max_ranges) (Quic.Ackranges.ranges acks)
        |> List.map (fun r -> (r.Quic.Ackranges.first, r.Quic.Ackranges.last))
      in
      let reference =
        F.Ack
          {
            largest = snd (List.hd ranges);
            delay_us = Int64.of_int delay_us;
            ranges;
          }
      in
      let w = W.create () and wr = W.create () in
      F.write_ack w acks ~max_ranges ~delay_us;
      F.write wr reference;
      W.contents w = W.contents wr
      && F.ack_size acks ~max_ranges ~delay_us = W.length w)

(* --------------------------- pool balance ---------------------------- *)

let test_writer_pool () =
  let out0 = W.outstanding () in
  let a = W.acquire () in
  let b = W.acquire () in
  W.string a "x";
  W.string b "yz";
  check Alcotest.int "outstanding tracks acquires" (out0 + 2) (W.outstanding ());
  W.release a;
  W.release b;
  check Alcotest.int "releases balance" out0 (W.outstanding ());
  let reused0 = W.reused () in
  let c = W.acquire () in
  check Alcotest.int "served from the free list" (reused0 + 1) (W.reused ());
  check Alcotest.int "recycled writer is reset" 0 (W.length c);
  W.release c

let test_reader_pool () =
  let out0 = R.outstanding () in
  let a = R.acquire () in
  let b = R.acquire () in
  R.reset a "abc" ~pos:0 ~limit:3;
  R.reset b "defg" ~pos:1 ~limit:4;
  check Alcotest.int "outstanding tracks acquires" (out0 + 2) (R.outstanding ());
  check Alcotest.int "cursor reads through the window" (Char.code 'a') (R.u8 a);
  R.release a;
  R.release b;
  check Alcotest.int "releases balance" out0 (R.outstanding ());
  let reused0 = R.reused () in
  let c = R.acquire () in
  check Alcotest.int "served from the free list" (reused0 + 1) (R.reused ());
  check Alcotest.int "recycled reader is empty" 0 (R.remaining c);
  R.release c

let test_memory_pool_balance () =
  let pool = Pquic.Memory_pool.create ~size:4096 () in
  check Alcotest.int "fresh pool empty" 0 (Pquic.Memory_pool.allocated_bytes pool);
  let offs =
    List.filter_map (fun n -> Pquic.Memory_pool.alloc pool n) [ 10; 64; 100; 200 ]
  in
  check Alcotest.int "all allocations served" 4 (List.length offs);
  Alcotest.(check bool)
    "bytes accounted" true
    (Pquic.Memory_pool.allocated_bytes pool > 0);
  List.iter
    (fun o ->
      Alcotest.(check bool) "free accepted" true (Pquic.Memory_pool.free pool o))
    offs;
  check Alcotest.int "returns balance to zero" 0
    (Pquic.Memory_pool.allocated_bytes pool)

(* -------------------- loss index vs the c.sent scan -------------------- *)

module C = Pquic.Connection
module Rec = Pquic.Recovery
module Sim = Netsim.Sim

(* One step of a recovery script: send on a path after advancing the
   clock (0 ms gives same-instant sends, ties across paths included), an
   ACK of ranges below a chosen largest, an explicit loss-detection pass,
   or a loss-alarm expiry (probe, then full RTO on backoff). *)
type step =
  | Send of int * int
  | Ack of int * (int * int) list
  | Detect
  | Pto

let gen_script =
  let open QCheck2.Gen in
  list_size (int_range 1 80)
    (frequency
       [
         ( 5,
           map2
             (fun path dt -> Send (path, dt))
             (int_range 0 2)
             (oneofl [ 0; 0; 0; 1; 5; 60 ]) );
         ( 3,
           map2
             (fun top spec -> Ack (top, spec))
             (int_range 30 100)
             (list_size (int_range 1 6) (pair (int_range 0 3) (int_range 0 5)))
         );
         (1, return Detect);
         (1, return Pto);
       ])

(* The reference loss rule: the full scan over [c.sent], losses in the
   order the default detector declares them. *)
let scan_losses (c : C.t) =
  let now = Sim.now c.C.sim in
  let lost = ref [] in
  Hashtbl.iter
    (fun _ (sp : C.sent_packet) ->
      let path_largest =
        if sp.C.path_id < Array.length c.C.largest_acked_per_path then
          c.C.largest_acked_per_path.(sp.C.path_id)
        else -1L
      in
      if sp.C.path_seq < path_largest then begin
        let p = c.C.paths.(min sp.C.path_id (Array.length c.C.paths - 1)) in
        let window =
          Int64.add (Quic.Rtt.smoothed p.C.rtt)
            (Int64.mul 4L (Quic.Rtt.variance p.C.rtt))
        in
        let threshold = Int64.sub now (Int64.div (Int64.mul window 9L) 8L) in
        if
          Int64.sub path_largest sp.C.path_seq >= 3L
          || sp.C.sent_at <= threshold
        then lost := sp.C.pn :: !lost
      end)
    c.C.sent;
  !lost

(* Each path's index must list exactly its packets of [c.sent], in send
   order, with consistent back links. *)
let index_consistent (c : C.t) =
  Array.for_all
    (fun (p : C.path) ->
      let rec walk prev sp acc =
        if sp == C.no_packet then (prev == p.C.newest_sent, List.rev acc)
        else if sp.C.prev_sent != prev then (false, [])
        else walk sp sp.C.next_sent (sp.C.pn :: acc)
      in
      let linked, pns = walk C.no_packet p.C.oldest_sent [] in
      let expected =
        Hashtbl.fold
          (fun pn (sp : C.sent_packet) acc ->
            if sp.C.path_id = p.C.path_id then pn :: acc else acc)
          c.C.sent []
        |> List.sort compare
      in
      linked && pns = expected)
    c.C.paths

let run_script script =
  let topo =
    Netsim.Topology.single_path ~seed:7L
      { Netsim.Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  let sim = topo.Netsim.Topology.sim in
  let c =
    C.create ~sim ~net:topo.Netsim.Topology.net ~cfg:C.default_config
      ~role:C.Client
      ~local_addr:(List.hd topo.Netsim.Topology.client_addrs)
      ~remote_addr:topo.Netsim.Topology.server_addr ~local_cid:1L
      ~remote_cid:2L ~local_params:Quic.Transport_params.default ()
  in
  let p0 = c.C.paths.(0) in
  c.C.paths <-
    Array.init 3 (fun i ->
        if i = 0 then p0
        else
          {
            p0 with
            C.path_id = i;
            cc = Quic.Cc.create ();
            rtt = Quic.Rtt.create ();
            oldest_sent = C.no_packet;
            newest_sent = C.no_packet;
          });
  (* oracle hooks: the scan's verdict just before the default detector
     runs, the declarations it makes, compared once it returns *)
  let expected = ref [] and declared = ref [] and ok = ref true in
  let detect = Pquic.Dispatch.entry c Pquic.Protoop.detect_lost_packets None in
  detect.C.pre <-
    [ C.Native ("scan", fun c _ -> expected := scan_losses c; declared := []; 0L) ];
  detect.C.post <-
    [ C.Native ("check", fun _ _ -> if List.rev !declared <> !expected then ok := false; 0L) ];
  (Pquic.Dispatch.entry c Pquic.Protoop.packet_lost None).C.pre <-
    [ C.Native ("record", fun _ args ->
          (match args.(0) with C.I pn -> declared := pn :: !declared | _ -> ());
          0L) ];
  let oldest_agrees () =
    let got = Rec.oldest_send c in
    match Rec.oldest_in_flight c with
    | None -> got == C.no_packet
    | Some sp -> got.C.sent_at = sp.C.sent_at && got.C.path_id = sp.C.path_id
  in
  List.iter
    (fun step ->
      (match step with
      | Send (path, dt) ->
        ignore (Sim.run ~until:(Int64.add (Sim.now sim) (Sim.of_ms (float dt))) sim);
        let p = c.C.paths.(path) in
        let pn = c.C.next_pn in
        c.C.next_pn <- Int64.succ pn;
        let path_seq = c.C.next_path_seq.(path) in
        c.C.next_path_seq.(path) <- Int64.succ path_seq;
        Quic.Cc.on_packet_sent p.C.cc ~size:1200;
        Rec.track_sent c p
          { C.pn; sent_at = Sim.now sim; size = 1200; records = [];
            path_id = path; path_seq; ack_eliciting = true;
            prev_sent = C.no_packet; next_sent = C.no_packet };
        Rec.set_loss_alarm c
      | Ack (top, spec) ->
        let sent = Int64.to_int c.C.next_pn in
        if sent > 0 then begin
          let largest = (sent - 1) * top / 100 in
          let ranges = ref [] and prev_first = ref (largest + 2) in
          List.iter
            (fun (gap, len) ->
              let last = !prev_first - gap - 2 in
              if last >= 0 then begin
                let first = max 0 (last - len) in
                ranges := (first, last) :: !ranges;
                prev_first := first
              end
              else prev_first := -10)
            ((0, snd (List.hd spec)) :: List.tl spec);
          let ranges = List.rev !ranges in
          let flat =
            Array.of_list (List.concat_map (fun (f, l) -> [ f; l ]) ranges)
          in
          Rec.process_ack c ~largest ~delay_us:0 ~count:(List.length ranges) flat
        end
      | Detect -> Rec.detect_losses c
      | Pto -> Rec.on_loss_alarm c);
      if not (oldest_agrees () && index_consistent c) then ok := false)
    script;
  !ok

let loss_index_matches_scan =
  qtest ~count:300 "loss index = c.sent scan" gen_script run_script

(* ----------------------- whole-transfer fences ----------------------- *)

let transfer ~size =
  let params = { Netsim.Topology.d_ms = 5.; bw_mbps = 50.; loss = 0. } in
  let topo = Netsim.Topology.single_path ~seed:7L params in
  Exp.Runner.quic_transfer ~topo ~plugins:[] ~to_inject:[] ~multipath:false
    ~size ()

let packets_of r =
  r.Exp.Runner.client_stats.Pquic.Connection.pkts_sent
  + (match r.Exp.Runner.server_stats with
    | Some s -> s.Pquic.Connection.pkts_sent
    | None -> 0)

let test_transfer_pool_balance () =
  let out0 = W.outstanding () in
  (match transfer ~size:(200 * 1024) with
  | None -> Alcotest.fail "transfer did not complete"
  | Some _ -> ());
  check Alcotest.int "writer pool balanced after a transfer" out0
    (W.outstanding ());
  Alcotest.(check bool) "writers recycled during the transfer" true (W.reused () > 0)

(* Allocation fence: the pooled datapath brought the engine to roughly
   3k minor words per packet end to end (send + receive + recovery, in a
   no-flambda build where Int64 temporaries box); the pre-pooling
   datapath sat near 8k. The ceiling is set with ~2x headroom so noisy
   GC accounting cannot flake, while a return of the per-packet copies
   would still trip it. *)
let test_minor_words_per_packet () =
  ignore (transfer ~size:(64 * 1024));
  (* warm-up: connection tables, writer pool *)
  Gc.minor ();
  let w0 = Gc.minor_words () in
  match transfer ~size:(512 * 1024) with
  | None -> Alcotest.fail "transfer did not complete"
  | Some r ->
    let words = Gc.minor_words () -. w0 in
    let per_pkt = words /. float_of_int (max 1 (packets_of r)) in
    if per_pkt >= 6000. then
      Alcotest.failf "minor words per packet %.0f over the 6000 ceiling" per_pkt

(* Receive-side allocation fence, on the engine's own [rx_profile]
   counters (wall spent inside [process_datagram] plus the minor words it
   allocated): the zero-copy receive path parses frames as views and sits
   near 1.2k minor words per received packet; the copying parser sat near
   3k. Ceiling at ~2x so GC-accounting noise cannot flake while a return
   of the per-frame String.sub copies would still trip it. *)
let test_rx_minor_words_per_packet () =
  ignore (transfer ~size:(64 * 1024));
  (* warm-up: connection tables, writer/reader pools *)
  Gc.minor ();
  let open Pquic.Conn_types in
  rx_profile_reset ();
  rx_profile := true;
  let r = transfer ~size:(512 * 1024) in
  rx_profile := false;
  match r with
  | None -> Alcotest.fail "transfer did not complete"
  | Some _ ->
    if !rx_packets = 0 then Alcotest.fail "rx profile saw no packets";
    let per_pkt = !rx_minor_words /. float_of_int !rx_packets in
    if per_pkt >= 2500. then
      Alcotest.failf "rx minor words per packet %.0f over the 2500 ceiling"
        per_pkt

(* Allocation gate for the O(1) ACK and loss-detection datapath, on a
   transfer long enough for the 64-range ACK regime: 5 MB over the
   100 Mbps Figure 7 path, whose drop-tail queue overflows and leaves
   permanent holes, so every ACK carries the capped 64 ranges. Native-int
   ranges end to end (flat range set, direct ACK encoder, V_ack view) and
   the send-order index bring this to 1116 minor words per packet, from
   2621 with range lists and full in-flight scans. The count is
   deterministic; the ceiling is that figure plus 15%. *)
let test_minor_words_ack_regime () =
  let transfer () =
    let params = { Netsim.Topology.d_ms = 5.; bw_mbps = 100.; loss = 0. } in
    let topo = Netsim.Topology.single_path ~seed:7L params in
    Exp.Runner.quic_transfer ~topo ~plugins:[] ~to_inject:[] ~size:5_000_000 ()
  in
  ignore (transfer ());
  (* warm-up: connection tables, writer/reader pools *)
  Gc.minor ();
  let w0 = Gc.minor_words () in
  match transfer () with
  | None -> Alcotest.fail "transfer did not complete"
  | Some r ->
    let words = Gc.minor_words () -. w0 in
    let per_pkt = words /. float_of_int (max 1 (packets_of r)) in
    Alcotest.(check bool)
      "ACKs reached the 64-range cap" true
      (Quic.Ackranges.length r.Exp.Runner.client_conn.C.acks
       > Pquic.Sender.max_wire_ack_ranges);
    if per_pkt >= 1283. then
      Alcotest.failf "minor words per packet %.0f over the 1283 ceiling"
        per_pkt

let tests =
  [
    ( "reader",
      [
        view_matches_parse;
        view_truncation_matches;
        view_corruption_matches;
        ack_view_matches_parse;
        Alcotest.test_case "ACK range edges" `Quick test_ack_range_edges;
      ] );
    ( "encoders",
      [
        size_matches_wire_size;
        write_matches_serialize;
        stream_header_matches;
        crypto_header_matches;
        plugin_chunk_header_matches;
        seal_matches_protect;
        tag_matches_reference;
        tag_sub_consistent;
        varint_int_matches;
        ack_encoder_matches;
      ] );
    ("recovery", [ loss_index_matches_scan ]);
    ( "pool",
      [
        Alcotest.test_case "writer free list balances" `Quick test_writer_pool;
        Alcotest.test_case "reader free list balances" `Quick test_reader_pool;
        Alcotest.test_case "memory pool returns balance" `Quick
          test_memory_pool_balance;
        Alcotest.test_case "writer pool balanced across transfer" `Quick
          test_transfer_pool_balance;
      ] );
    ( "alloc",
      [
        Alcotest.test_case "minor words per packet ceiling" `Slow
          test_minor_words_per_packet;
        Alcotest.test_case "rx minor words per packet ceiling" `Slow
          test_rx_minor_words_per_packet;
        Alcotest.test_case "64-range ACK regime minor words ceiling" `Slow
          test_minor_words_ack_regime;
      ] );
  ]
