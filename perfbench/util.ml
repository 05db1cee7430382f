(* Shared helpers: seeded inputs, order statistics, the CPU clock and the
   program-cache flush that makes every set-up start cold. *)

let cpu () = Sys.time ()

(* Host speed. The shared host's speed drifts by tens of percent from
   minute to minute, and the drift moves every CPU-time figure of a run
   together. A fixed kernel -- random hash-table probes, a byte-hash loop
   and 1400-byte blits, allocation-free so that the workload's heap does
   not change its cost -- runs before every unit of work. The median of
   its CPU times over a phase, divided by [kernel_nominal], is that
   phase's host factor; time-based metrics are divided by it (rates multiplied), i.e.
   reported in CPU seconds of a host that runs the kernel in
   [kernel_nominal] seconds. *)
let kernel_nominal = 0.030
let kernel_keys = 50_000
let kernel_table = Hashtbl.create (2 * kernel_keys)
let kernel_buf = Bytes.init (4 lsl 20) (fun i -> Char.unsafe_chr (i land 255))
let kernel_dst = Bytes.create 1400

let () =
  for i = 0 to kernel_keys - 1 do
    Hashtbl.replace kernel_table (i * 7919) i
  done

let kernel () =
  let c0 = Sys.time () in
  let acc = ref 0 in
  for j = 0 to 299_999 do
    if Hashtbl.mem kernel_table ((j * 104729) mod kernel_keys * 7919) then incr acc
  done;
  let h = ref 0x4bf29ce484222325 in
  for i = 0 to (40 * 65536) - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get kernel_buf i)) * 0x100000001b3
  done;
  for j = 0 to 5999 do
    Bytes.blit kernel_buf ((j * 700_001) mod ((4 lsl 20) - 1400)) kernel_dst 0 1400
  done;
  ignore (Sys.opaque_identity (!acc + !h));
  Sys.time () -. c0

(* kernel CPU times, per phase: 0 transfers, 1 server rounds *)
let kernel_times = [| []; [] |]
let calibrate phase = kernel_times.(phase) <- kernel () :: kernel_times.(phase)

let host_factor phase =
  match kernel_times.(phase) with
  | [] -> 1.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2) /. kernel_nominal

(* Monotonic wall clock in seconds, for set-up times too short for the
   CPU clock's microsecond steps. *)
let wall () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* splitmix64: derives independent sub-seeds from the run's seed *)
let mix (x : int64) =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let sub_seed seed i = mix (Int64.add (mix seed) (Int64.of_int i))

(* uniform in [0, 1) from a seed *)
let unit_float seed =
  Int64.to_float (Int64.shift_right_logical seed 11) /. 9007199254740992.

let ratio a b = if b = 0. then 0. else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* Linear-interpolated quantile of an unsorted array; 0 when empty. *)
let quantile q xs =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile 0.5 xs
let median_l l = median (Array.of_list l)

(* Live words after a full major collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Empty the process-global program cache (Pre's content-addressed
   verify+link+JIT cache) through its public capacity bound: at capacity
   1, admitting one fresh program evicts every other entry. The next
   admission of a workload's plugins then pays the full cold cost. *)
let flushes = ref 0

let flush_program_cache () =
  incr flushes;
  Pluginop.Pre.set_cache_capacity 1;
  let prog =
    Ebpf.Insn.[| Alu64 (Mov, 0, Imm (Int32.of_int !flushes)); Exit |]
  in
  ignore
    (Pluginop.Pre.create ~plugin_name:"perfbench.flush"
       ~pluglet:
         {
           Pluginop.Plugin.op = Pluginop.Protoop.update_rtt;
           param = None;
           anchor = Pluginop.Protoop.Post;
           code = Pluginop.Plugin.Bytecode (prog, 0);
         }
       ~heap:(Bytes.create 64));
  Pluginop.Pre.set_cache_capacity 4096

(* Engine.Timer_wheel.shared memoises one wheel per simulator in a
   process-global registry of the 16 most recent simulators, and a wheel
   holds every alarm armed on it, so it keeps the connections of the
   last 16 transfers or rounds alive: about 100 MB per server round, and
   the process grows to 1.2 GB while each new round page-faults fresh
   memory. Registering 16 empty simulators pushes the old ones out. *)
let release_wheels () =
  for _ = 1 to 16 do
    ignore (Engine.Timer_wheel.shared (Netsim.Sim.create ()))
  done

(* Every transfer and every round starts from the same process state: no
   state of earlier units alive, a fully collected heap, a cold program
   cache. *)
let cold_start () =
  release_wheels ();
  Gc.compact ();
  flush_program_cache ()

(* Sum of PRE instructions executed by every pluglet attached to a
   connection. *)
let pres_of (c : Pquic.Connection.t) =
  Hashtbl.fold
    (fun _ (inst : Pquic.Connection.instance) acc -> inst.pres @ acc)
    c.Pquic.Connection.po.Pluginop.Types.plugins []

let sum_insns pres =
  List.fold_left (fun acc p -> acc + Pluginop.Pre.executed_insns p) 0 pres

