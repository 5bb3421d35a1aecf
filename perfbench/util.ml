(* Shared machinery of the benchmark: the clock, allocation counters,
   spans, the per-op record every workload returns, and the statistics the
   harness folds ops into. *)

type size = Full | Smoke

type cfg = {
  size : size;
  seed : int;
  corrupt : bool;
      (** perturb every reference output, so the gate must fail each op *)
  workdir : string;  (** directory for the daemon's socket *)
}

(* Wall clock: how long a run lasts. *)
let now_ns () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* The clock every timing reads. A workload whose system under test runs
   in the benchmark's own process reads the process's CPU time (user +
   system, every domain): the simulator is single-threaded under
   pdes=seq, so on an idle host this equals wall time, and on a shared one
   it leaves out the time the scheduler or the hypervisor gave the core to
   someone else. serve_mix's system under test is another process, so it
   reads wall time. *)
type clock = Cpu | Wall

let clock = ref Wall
let host_s () = match !clock with Cpu -> Sys.time () | Wall -> Int64.to_float (now_ns ()) *. 1e-9

(* Words allocated by the process: minor + major - promoted, the same
   accounting [Gc.allocated_bytes] uses. Domains that have been joined fold
   their counters into these totals, so the windowed driver's Dpool
   workers (spawned and joined inside each run) are included. *)
let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let top_heap_bytes () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))

(* Host time (s, on [!clock]) and allocated words of [f ()]. *)
let measure f =
  let w0 = words () in
  let t0 = host_s () in
  let r = f () in
  let dt = host_s () -. t0 in
  (r, dt, words () -. w0)

type op = {
  time : float;  (** host seconds of the op's timed region, on [!clock] *)
  alloc : float;  (** words allocated in the timed region *)
  mutable events : int;  (** simulated engine events the op executed *)
  sim : string;  (** the op's simulated outputs, compared traced vs untraced *)
  mutable error : string option;  (** why the op failed its gate *)
}

let failf fmt = Printf.ksprintf (fun s -> Some s) fmt

(* Gate helper: [None] when [got = want], else a message naming [what]. *)
let expect what ~want ~got ~show =
  if want = got then None else failf "%s: got %s, reference %s" what (show got) (show want)

let first_error l = List.find_map (fun e -> e) l

(* Spans: recorded only in the traced run, around calls into the
   libraries' public functions. Each name accumulates its host time and
   allocated words. *)
module Span = struct
  let on = ref false
  let totals : (string, float * float) Hashtbl.t = Hashtbl.create 16

  let wrap name f =
    if not !on then f ()
    else begin
      let w0 = words () in
      let t0 = host_s () in
      let finish () =
        let dt = host_s () -. t0 in
        let dw = words () -. w0 in
        let s, w = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt totals name) in
        Hashtbl.replace totals name (s +. dt, w +. dw)
      in
      Fun.protect ~finally:finish f
    end

  let total name = fst (Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt totals name))
  let total_words name = snd (Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt totals name))
end

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Quantile by linear interpolation between order statistics. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

(* Per-PE / per-port counters are registered under one name with labels:
   sum every instrument called [name]. *)
let metric_sum reg name =
  List.fold_left
    (fun acc (it : Cpufree_obs.Metrics.item) ->
      if it.Cpufree_obs.Metrics.name <> name then acc
      else
        match it.Cpufree_obs.Metrics.value with
        | Cpufree_obs.Metrics.Counter_v v | Cpufree_obs.Metrics.Gauge_v v -> acc + v
        | Cpufree_obs.Metrics.Histogram_v h -> acc + h.Cpufree_obs.Metrics.sum)
    0 (Cpufree_obs.Metrics.items reg)

(* A per-layer figure by name; its unit is fixed in the metric table. *)
type layer = string * float

let per x n = if n = 0 then 0.0 else x /. float_of_int n

(* One workload: how to set it up, run one closed-loop op, and what its
   traced run reports beyond the per-op figures. *)
module type WORKLOAD = sig
  type t

  val clock : clock
  (** The clock the workload's timings read. *)

  val setup : cfg -> t
  (** Everything before the first op; timed for [setup_s]. *)

  val op : t -> int -> op
  (** Op [i] of the seeded stream: times its own region, then checks its
      simulated outputs against the reference outside that region. *)

  val verify : t -> unit
  (** Completes the checks that ops deferred past the closed loop (serve_mix
      recomputes its misses in process), filling in their [error] and
      [events]. Called once after the ops, before [layers] and [teardown]. *)

  val teardown : t -> (float * float) option
  (** Release the workload. [Some (words, heap_bytes)] when the system
      under test runs in another process: the words it allocated over its
      life and its peak heap. *)

  val traced_ops : size -> int
  (** Ops in each pass of the traced run: a fixed count, so counts repeat
      exactly. *)

  val layers : t -> cfg -> op list -> layer list
  (** Per-layer figures, computed after the traced pass from its ops, the
      spans recorded around library calls, and extra probes. *)
end

(* Host speed. The cores of a shared host run faster or slower from one
   minute to the next, and every timing of a run moves with them. The
   untraced run samples this fixed kernel between ops, on the workload's
   clock, and scales each op's time by [ref_s] over the sample taken just
   before it: the op's time on a host on which the kernel takes [ref_s],
   even when the host's speed drifts within a run. A change to the program
   moves its timings and not the kernel's. The kernel lives here, so no
   change to the libraries moves it. It has the two kinds of work the
   simulator's host time goes to: a binary heap of boxed (time, id) events
   with a hash table beside it (the engine's queue and tables, allocation
   and minor collections), and scattered read-modify-writes over a 32 MB
   bigarray (the large heaps, bound by memory latency). *)
module Calib = struct
  let ref_s = 0.035

  (* Sample before an op when this much wall time (s) has passed since the
     last sample: before every op of the simulation workloads, whose ops
     take longer, and every 0.2 s between serve_mix's short requests. *)
  let every_s = 0.2

  (* Push 2^14 pseudo-random events and pop them all, twice. *)
  let queue () =
    let n = 1 lsl 14 in
    let heap = Array.make n (0.0, 0) in
    let size = ref 0 and rng = ref 12345 and acc = ref 0 in
    let push x =
      let i = ref !size in
      incr size;
      while !i > 0 && fst heap.((!i - 1) / 2) > fst x do
        heap.(!i) <- heap.((!i - 1) / 2);
        i := (!i - 1) / 2
      done;
      heap.(!i) <- x
    in
    let pop () =
      let top = heap.(0) in
      decr size;
      let x = heap.(!size) in
      let i = ref 0 and go = ref true in
      while !go do
        let l = (2 * !i) + 1 in
        if l >= !size then go := false
        else begin
          let c = if l + 1 < !size && fst heap.(l + 1) < fst heap.(l) then l + 1 else l in
          if fst heap.(c) < fst x then begin
            heap.(!i) <- heap.(c);
            i := c
          end
          else go := false
        end
      done;
      heap.(!i) <- x;
      top
    in
    let tbl = Hashtbl.create 1024 in
    for _ = 1 to 2 do
      for k = 0 to n - 1 do
        rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
        push (float_of_int !rng, k)
      done;
      while !size > 0 do
        let t, k = pop () in
        Hashtbl.replace tbl (k land 4095) t;
        acc := !acc + k
      done
    done;
    !acc + Hashtbl.length tbl

  let table =
    lazy
      (let a = Bigarray.(Array1.create int c_layout (1 lsl 22)) in
       Bigarray.Array1.fill a 0;
       a)

  (* 2^19 read-modify-writes and reads at pseudo-random slots of 2^22. *)
  let scatter (table : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) =
    let mask = Bigarray.Array1.dim table - 1 in
    let rng = ref 777 and acc = ref 0 in
    for _ = 1 to 1 lsl 19 do
      rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
      let j = !rng land mask in
      table.{j} <- table.{j} + 1;
      acc := !acc + table.{(j * 7) land mask}
    done;
    !acc

  (* One sample: the kernel's host time (s) on [!clock]. The table is
     filled before the first sample, outside its timing. *)
  let sample () =
    let table = Lazy.force table in
    let _, dt, _ = measure (fun () -> queue () + scatter table) in
    dt
end
