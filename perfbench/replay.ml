(* Layer replays for the traced run: each re-runs one layer's public
   entry points, outside any connection, over inputs captured from the
   workload, so that layer's cost is measured alone. *)

open Util
module P = Quic.Packet
module F = Quic.Frame

let sp_parse = Trace.name "quic.parse"
let sp_seal = Trace.name "quic.seal"
let sp_mulvec = Trace.name "gf.mulvec"
let sp_sim = Trace.name "netsim.sim.replay"

(* Repeat [pass] until at least [min_ns] have passed; returns
   (ns, minor words, passes). *)
let timed ?(min_ns = 20_000_000) sp pass =
  let t0 = Trace.now_ns () and w0 = Gc.minor_words () in
  let passes = ref 0 in
  Trace.enter sp;
  while Trace.now_ns () - t0 < min_ns || !passes = 0 do
    pass ();
    incr passes
  done;
  Trace.leave ();
  let ns = Trace.now_ns () - t0 and words = Gc.minor_words () -. w0 in
  (float_of_int ns, words, !passes)

type opened = { wire : string; key : int64; hdr : P.header; frames : F.t list }

(* Open each captured wire image with the first key that authenticates it. *)
let open_all keys wires =
  List.filter_map
    (fun wire ->
      List.find_map
        (fun key ->
          match P.unprotect ~key wire with
          | exception (P.Authentication_failed | P.Malformed) -> None
          | pkt, _ ->
            let p = pkt.P.payload in
            let rec frames pos acc =
              if pos >= String.length p then List.rev acc
              else
                let f, next = F.parse p pos in
                frames next (f :: acc)
            in
            Some { wire; key; hdr = pkt.P.header; frames = frames 0 [] })
        keys)
    wires

type parse_result = {
  parse_ns : float;
  parse_words : float;
  repair_pkts : int;  (** packets carrying an FEC repair symbol *)
  repair_lens : int list;  (** their repair frames' lengths *)
}

(* Packet.unprotect_view + Frame.parse_view over every opened datagram. *)
let parse (pkts : opened array) =
  let n = Array.length pkts in
  let frames = ref 0 in
  let pass () =
    for i = 0 to n - 1 do
      let o = pkts.(i) in
      let _, off, len = P.unprotect_view ~key:o.key o.wire in
      let r = Quic.Reader.acquire () in
      Quic.Reader.reset r o.wire ~pos:off ~limit:(off + len);
      let stop = ref false in
      while not (!stop || Quic.Reader.at_end r) do
        (match F.parse_view r with F.V_unknown _ -> stop := true | _ -> ());
        incr frames
      done;
      Quic.Reader.release r
    done
  in
  let ns, words, passes = timed sp_parse pass in
  let per = float_of_int (max 1 (n * passes)) in
  let repair_lens =
    Array.to_list pkts
    |> List.concat_map (fun o ->
           List.filter_map
             (function
               | F.Unknown { ftype; raw } when ftype = Plugins.Fec.frame_type ->
                 Some (String.length raw)
               | _ -> None)
             o.frames)
  in
  {
    parse_ns = ns /. per;
    parse_words = words /. per;
    repair_pkts =
      Array.fold_left
        (fun acc o ->
          if List.exists (fun f -> F.frame_type f = Plugins.Fec.frame_type) o.frames
          then acc + 1
          else acc)
        0 pkts;
    repair_lens;
  }

(* Frame.write + Packet.reserve_header/patch_header/seal into an acquired
   Writer; also counts re-encodings that differ from the captured bytes. *)
let seal (pkts : opened array) =
  let n = Array.length pkts in
  let encode o =
    let w = Quic.Writer.acquire () in
    let off = P.reserve_header w o.hdr in
    List.iter (F.write w) o.frames;
    P.patch_header w ~off o.hdr;
    P.seal ~key:o.key w;
    w
  in
  let mismatches =
    Array.fold_left
      (fun acc o ->
        let w = encode o in
        let same = Quic.Writer.contents w = o.wire in
        Quic.Writer.release w;
        if same then acc else acc + 1)
      0 pkts
  in
  let pass () =
    for i = 0 to n - 1 do
      Quic.Writer.release (encode pkts.(i))
    done
  in
  let ns, words, passes = timed sp_seal pass in
  let per = float_of_int (max 1 (n * passes)) in
  (ns /. per, words /. per, mismatches)

(* Gf.mulvec at the captured repair-symbol lengths (1200 bytes when the
   workload sent none). *)
let mulvec lens =
  let lens = Array.of_list (match lens with [] -> [ 1200 ] | l -> l) in
  let maxlen = Array.fold_left max 0 lens in
  let src = Bytes.init maxlen (fun i -> Char.chr (i land 0xff)) in
  let dst = Bytes.make maxlen '\000' in
  let bytes = Array.fold_left ( + ) 0 lens in
  let pass () =
    Array.iteri
      (fun i len -> Gf.mulvec ~coef:(2 + (i land 0xfd)) ~src ~dst ~len)
      lens
  in
  let ns, _, passes = timed sp_mulvec pass in
  ns /. (float_of_int (bytes * passes) /. 1024.)

(* Empty simulator events at the workload's heap depth: [depth] far-off
   events stay queued while [events] no-op events are scheduled and run
   in batches of 1000. *)
let sim_events ~depth ~events =
  let module Sim = Netsim.Sim in
  let sim = Sim.create () in
  for i = 1 to depth do
    ignore (Sim.schedule sim ~delay:(Int64.add Sim.sec (Int64.of_int i)) ignore)
  done;
  let events = max 1000 events in
  let t0 = Trace.now_ns () in
  Trace.enter sp_sim;
  let ran = ref 0 in
  while !ran < events do
    for i = 1 to 1000 do
      ignore (Sim.schedule sim ~delay:(Int64.of_int i) ignore)
    done;
    ran := !ran + Sim.run ~until:(Int64.add (Sim.now sim) 1000L) sim
  done;
  Trace.leave ();
  iratio (Trace.now_ns () - t0) !ran
