(* In-memory spans for the traced run.

   A span covers one call into a layer, made from the benchmark's own
   code: its name, start and end (monotonic ns), the span that encloses
   it, the request it belongs to (a transfer repeat or a server round),
   and its minor-word and PRE-instruction deltas. Storage is a set of
   preallocated flat arrays, so opening and closing a span allocates
   nothing and the word deltas of enclosing spans stay exact. The first
   [keep] spans are kept whole and written out when the benchmark ends;
   per-name totals (count, time, self time, words, instructions) cover
   every span. With [on] false nothing is recorded. *)

let on = ref false
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* PRE instruction counter sampled at span edges; the transfer phase
   points it at the pluglets of its live connections. *)
let insns_probe = ref (fun () -> 0)

let max_names = 32
let names = Array.make max_names ""
let n_names = ref 0

let name s =
  let rec find i =
    if i = !n_names then begin
      names.(i) <- s;
      incr n_names;
      i
    end
    else if names.(i) = s then i
    else find (i + 1)
  in
  find 0

(* per-name totals *)
let count = Array.make max_names 0
let total_ns = Array.make max_names 0
let self_ns = Array.make max_names 0
let total_words = Array.make max_names 0.
let total_insns = Array.make max_names 0

(* kept spans *)
let keep = 50_000
let k_name = Array.make keep 0
let k_req = Array.make keep 0
let k_parent = Array.make keep (-1)
let k_t0 = Array.make keep 0
let k_t1 = Array.make keep 0
let k_words = Array.make keep 0.
let k_insns = Array.make keep 0
let recorded = ref 0

(* open spans *)
let max_depth = 16
let s_name = Array.make max_depth 0
let s_id = Array.make max_depth 0
let s_t0 = Array.make max_depth 0
let s_w0 = Array.make max_depth 0.
let s_i0 = Array.make max_depth 0
let s_child = Array.make max_depth 0
let depth = ref 0
let request = ref 0

let enter id =
  if !on then begin
    let d = !depth in
    s_name.(d) <- id;
    s_id.(d) <- !recorded;
    incr recorded;
    s_child.(d) <- 0;
    s_i0.(d) <- !insns_probe ();
    s_w0.(d) <- Gc.minor_words ();
    depth := d + 1;
    s_t0.(d) <- now_ns ()
  end

let leave () =
  if !on then begin
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    let i1 = !insns_probe () in
    let d = !depth - 1 in
    depth := d;
    let id = s_name.(d) in
    let dur = t1 - s_t0.(d) in
    let words = w1 -. s_w0.(d) in
    let insns = i1 - s_i0.(d) in
    count.(id) <- count.(id) + 1;
    total_ns.(id) <- total_ns.(id) + dur;
    self_ns.(id) <- self_ns.(id) + dur - s_child.(d);
    total_words.(id) <- total_words.(id) +. words;
    total_insns.(id) <- total_insns.(id) + insns;
    if d > 0 then s_child.(d - 1) <- s_child.(d - 1) + dur;
    let k = s_id.(d) in
    if k < keep then begin
      k_name.(k) <- id;
      k_req.(k) <- !request;
      k_parent.(k) <- (if d > 0 then s_id.(d - 1) else -1);
      k_t0.(k) <- s_t0.(d);
      k_t1.(k) <- t1;
      k_words.(k) <- words;
      k_insns.(k) <- insns
    end
  end

(* Totals of one span name, or zeros when it never ran. *)
type totals = { n : int; ns : int; words : float; pre : int }

let totals s =
  let id = name s in
  {
    n = count.(id);
    ns = total_ns.(id);
    words = total_words.(id);
    pre = total_insns.(id);
  }

let rec mkdirs dir =
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* One JSON object per line: the per-name totals, then every kept span. *)
let write path =
  mkdirs (Filename.dirname path);
  let oc = open_out path in
  for id = 0 to !n_names - 1 do
    Printf.fprintf oc
      "{\"total\":%S,\"count\":%d,\"ns\":%d,\"self_ns\":%d,\"minor_words\":%.0f,\"pre_insns\":%d}\n"
      names.(id) count.(id) total_ns.(id) self_ns.(id) total_words.(id)
      total_insns.(id)
  done;
  for k = 0 to min keep !recorded - 1 do
    if k_t1.(k) > 0 then
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"req\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"minor_words\":%.0f,\"pre_insns\":%d}\n"
        k names.(k_name.(k)) k_req.(k) k_parent.(k) k_t0.(k) k_t1.(k)
        k_words.(k) k_insns.(k)
  done;
  close_out oc
