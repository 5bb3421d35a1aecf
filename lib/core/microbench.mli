(** Engine-throughput microbenchmark: a synthetic, genuinely isolated
    multi-GPU model that exercises the windowed partitioned driver
    ({!Cpufree_engine.Engine.run_windowed}) for real — unlike the figure
    scenarios, whose shared flags and port resources force the sequential
    fallback.

    Each rank (one per GPU, one partition per rank) alternates compute delays
    with a halo message to a neighbour, posted exactly one lookahead ahead,
    then blocks until its own inbound halo arrives. The model's observable
    output (simulated time, event count, byte count, a payload checksum and
    optionally the canonical trace) is bit-identical between the sequential
    and windowed drivers for any worker count — that equivalence is what the
    property tests pin down, and the events/sec ratio between the two runs is
    what [bench -- micro] reports. *)

type pattern =
  | Ring  (** rank [g] sends to [(g+1) mod gpus] *)
  | Shift of int  (** rank [g] sends to [(g+k) mod gpus] *)

type config = {
  gpus : int;
  iters : int;  (** halo-exchange rounds per rank *)
  ticks_per_iter : int;  (** compute delays between exchanges *)
  tick_ns : int;  (** simulated length of one compute delay *)
  bytes_per_msg : int;  (** accounted payload of one halo message *)
  pattern : pattern;
  arch : Cpufree_gpu.Arch.t;  (** supplies the lookahead bound *)
  traced : bool;  (** record compute spans (for equivalence checks) *)
  metrics : Cpufree_obs.Metrics.t option;
      (** When set, each rank updates per-rank [micro.ticks] / [micro.msgs] /
          [micro.msg_bytes] counters inside the hot loops, partition-sharded —
          the honest vehicle for the instrumentation-overhead figure. Never
          changes simulated behaviour or {!output}. *)
}

val default : config
(** 8 GPUs, 200 rounds, 4 ticks of 400 ns, 4 KiB messages, ring pattern on the A100 HGX architecture,
    untraced, unmetered. *)

type output = {
  sim_ns : int;  (** final simulated clock *)
  events : int;  (** total engine events executed *)
  bytes : int;  (** halo payload bytes delivered *)
  checksum : int;  (** order-independent digest of all rank states and payloads *)
  spans : Cpufree_engine.Trace.span list;  (** canonical order; empty when untraced *)
}

type report = {
  label : string;  (** ["seq"] or ["windowed"] *)
  jobs : int;  (** workers actually used (1 for the sequential driver) *)
  outcome : Cpufree_engine.Engine.outcome;
  wall_sec : float;
  major_words : float;  (** major-heap words allocated during the run *)
  out : output;
}

val equal_output : output -> output -> bool
(** Structural equality of everything a simulation mode may not change. *)

val events_per_sec : report -> float

val run_seq : config -> report
(** Build the model and drain it with the sequential driver. *)

val run_windowed : ?jobs:int -> config -> report
(** Build the model and drain it with {!Cpufree_engine.Engine.run_windowed};
    the report's [outcome] says whether it actually ran windowed (it does,
    for any [config] with positive lookahead) and how many windows it took. *)
