(* Discrete-event simulation core: a virtual clock in nanoseconds and a
   binary-heap event queue. Ties are broken by insertion order so runs are
   fully deterministic. *)

type time = int64

let ns = 1L
let us = 1_000L
let ms = 1_000_000L
let sec = 1_000_000_000L

let of_ms f = Int64.of_float (f *. 1e6)
let of_sec f = Int64.of_float (f *. 1e9)
let to_sec t = Int64.to_float t /. 1e9
let to_ms t = Int64.to_float t /. 1e6

type event = { at : time; seq : int; fn : unit -> unit; mutable cancelled : bool }

type t = {
  id : int; (* unique per process: a stable hash key for weak registries *)
  mutable now : time;
  mutable heap : event array;
  mutable size : int;
  mutable next_seq : int;
}

let next_id = Atomic.make 0

let create () =
  { id = Atomic.fetch_and_add next_id 1; now = 0L;
    heap = Array.make 256 { at = 0L; seq = 0; fn = ignore; cancelled = true };
    size = 0; next_seq = 0 }

let id t = t.id

let now t = t.now

let before a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let grow t =
  let cap = Array.length t.heap in
  if t.size = cap then begin
    let heap = Array.make (2 * cap) t.heap.(0) in
    Array.blit t.heap 0 heap 0 cap;
    t.heap <- heap
  end

let push t ev =
  grow t;
  let i = ref t.size in
  t.size <- t.size + 1;
  t.heap.(!i) <- ev;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t.heap.(!i) t.heap.(parent) then begin
      let tmp = t.heap.(parent) in
      t.heap.(parent) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
      if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = t.heap.(!smallest) in
        t.heap.(!smallest) <- t.heap.(!i);
        t.heap.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done;
    Some top
  end

(* Schedule [fn] to run [delay] ns from now. Returns a handle usable with
   [cancel] — cancelled events stay in the heap but are skipped. *)
let schedule t ~delay fn =
  if delay < 0L then invalid_arg "Sim.schedule: negative delay";
  let ev =
    { at = Int64.add t.now delay; seq = t.next_seq; fn; cancelled = false }
  in
  t.next_seq <- t.next_seq + 1;
  push t ev;
  ev

let schedule_at t ~at fn =
  schedule t ~delay:(Int64.max 0L (Int64.sub at t.now)) fn

let cancel ev = ev.cancelled <- true

(* Run until the queue is empty or the clock passes [until]. Returns the
   number of events executed. *)
let run ?until ?(max_events = max_int) t =
  let executed = ref 0 in
  let stop = ref false in
  while not !stop && !executed < max_events do
    match pop t with
    | None -> stop := true
    | Some ev ->
      if ev.cancelled then ()
      else begin
        match until with
        | Some limit when ev.at > limit ->
          (* Put it back: it belongs to the future beyond the horizon. *)
          push t ev;
          t.now <- limit;
          stop := true
        | _ ->
          t.now <- ev.at;
          incr executed;
          ev.fn ()
      end
  done;
  !executed

let pending t = t.size
