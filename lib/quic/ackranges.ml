(* Receiver-side record of received packet numbers: disjoint inclusive
   ranges, bounded to [max_ranges] to cap frame size by dropping the
   oldest ranges — as real QUIC stacks do.

   The ranges live unboxed in one flat int array, oldest first:
   [buf.(2k)] and [buf.(2k+1)] are the first and last packet numbers of
   the k-th oldest range. In-order arrivals extend or append at the tail
   in O(1), [contains] is a binary search, and nothing is allocated per
   packet once the array has reached its working size. The accessors
   number ranges the other way round, largest first ([first t 0] is the
   start of the newest range), because that is the order of an ACK
   frame. Packet numbers are native ints: the 62-bit varint domain fits
   OCaml's int. *)

type range = { first : int64; last : int64 } (* inclusive, first <= last *)

type t = { mutable buf : int array; mutable n : int; max_ranges : int }

let create ?(max_ranges = 256) () = { buf = [||]; n = 0; max_ranges }

let length t = t.n
let is_empty t = t.n = 0

(* Range [i], largest first. *)
let first t i = t.buf.(2 * (t.n - 1 - i))
let last t i = t.buf.((2 * (t.n - 1 - i)) + 1)

let largest t = if t.n = 0 then None else Some (Int64.of_int (last t 0))

(* Index (oldest first) of the newest range whose first is <= pn, or -1. *)
let floor_index t pn =
  let lo = ref 0 and hi = ref (t.n - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.buf.(2 * mid) <= pn then begin
      found := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !found

let contains t pn =
  let pn = Int64.to_int pn in
  let k = floor_index t pn in
  k >= 0 && pn <= t.buf.((2 * k) + 1)

(* Open a hole for one range at index [k] (oldest first). *)
let insert_at t k ~first ~last =
  if 2 * (t.n + 1) > Array.length t.buf then begin
    let nb = Array.make (max 2 (2 * Array.length t.buf)) 0 in
    Array.blit t.buf 0 nb 0 (2 * t.n);
    t.buf <- nb
  end;
  Array.blit t.buf (2 * k) t.buf (2 * (k + 1)) (2 * (t.n - k));
  t.buf.(2 * k) <- first;
  t.buf.((2 * k) + 1) <- last;
  t.n <- t.n + 1

let remove_at t k =
  Array.blit t.buf (2 * (k + 1)) t.buf (2 * k) (2 * (t.n - k - 1));
  t.n <- t.n - 1

(* Insert packet number [pn], merging adjacent ranges; past [max_ranges]
   the oldest range is dropped. *)
let add t pn =
  let pn = Int64.to_int pn in
  let k = floor_index t pn in
  (* k: the range at or below pn; k + 1: the first range above it *)
  let joins_below = k >= 0 && pn <= t.buf.((2 * k) + 1) + 1 in
  let joins_above = k + 1 < t.n && t.buf.(2 * (k + 1)) = pn + 1 in
  if k >= 0 && pn <= t.buf.((2 * k) + 1) then () (* duplicate *)
  else if joins_below && joins_above then begin
    t.buf.((2 * k) + 1) <- t.buf.((2 * (k + 1)) + 1);
    remove_at t (k + 1)
  end
  else if joins_below then t.buf.((2 * k) + 1) <- pn
  else if joins_above then t.buf.(2 * (k + 1)) <- pn
  else begin
    insert_at t (k + 1) ~first:pn ~last:pn;
    if t.n > t.max_ranges then remove_at t 0
  end

(* The ranges as records, largest first — the reference shape for tests
   and invariant reports, not used on the datapath. *)
let ranges t =
  List.init t.n (fun i ->
      { first = Int64.of_int (first t i); last = Int64.of_int (last t i) })

(* Total count of packet numbers covered (for tests). *)
let cardinal t =
  let s = ref 0 in
  for k = 0 to t.n - 1 do
    s := !s + t.buf.((2 * k) + 1) - t.buf.(2 * k) + 1
  done;
  Int64.of_int !s

(* Structural invariant check, for chaos/invariant harnesses: ranges must
   be well-formed (first <= last), strictly descending and non-adjacent
   (adjacent ranges should have been merged by [add]). Returns an error
   description instead of raising so a sweep can report the seed. *)
let check_coherent t =
  let rec go i =
    if i >= t.n then Ok ()
    else if first t i > last t i then
      Error (Printf.sprintf "inverted range [%d, %d]" (first t i) (last t i))
    else if i + 1 < t.n && last t (i + 1) + 1 >= first t i then
      Error
        (Printf.sprintf "ranges overlap or touch: [%d, %d] then [%d, %d]"
           (first t (i + 1)) (last t (i + 1)) (first t i) (last t i))
    else go (i + 1)
  in
  go 0
