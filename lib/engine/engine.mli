(** Discrete-event simulation engine with cooperative processes.

    A simulation is a set of processes — plain OCaml functions — that run
    under an effect handler and advance a shared virtual clock by performing
    blocking operations: {!delay} and the suspension primitives built on
    {!suspend} in {!Sync}. The engine executes events in strict
    (timestamp, sequence) order, so every run is deterministic.

    Blocking operations may only be called from inside a process body started
    with {!spawn} and driven by {!run}; calling them elsewhere raises
    [Effect.Unhandled].

    {1 Partitions}

    An engine may be created with [~partitions:n]. Every process and event
    then belongs to one partition (a simulated device, or the host plus
    interconnect). Under {!run} this changes nothing observable: all events
    share one queue and execute in one global (timestamp, sequence) order.
    {!run_windowed} splits that queue into one per partition for the run and
    merges what is left back when it returns or raises. The partitions execute
    concurrently in conservative, barrier-synchronized time windows whose
    width is the minimum cross-partition latency (the {e lookahead}): within
    a window no partition can affect another, so their event queues can be
    drained in parallel. Cross-partition interactions must be expressed as
    timestamped messages ({!post}) that arrive at least one lookahead in the
    future; they are applied at window barriers in a canonical
    (time, sender, sequence) order, keeping the run deterministic for any
    worker count. *)

type t

type process
(** Handle to a spawned process. *)

exception Deadlock of string list
(** Raised by {!run} when no event is pending but processes remain blocked.
    Carries a description of each blocked process — name, pid, partition,
    group, reason and its wait-for edge when one was declared — plus a final
    "wait-for cycle: a -> b -> a" line when the declared edges close a
    cycle. This is how lost-signal bugs in communication protocols surface
    in tests. *)

type stall_report = {
  stall_at : Time.t;  (** simulated time the stall was diagnosed *)
  stall_trigger : string;  (** what gave up: the watchdog, or a resilient waiter *)
  stall_blocked : string list;  (** as {!blocked_descriptions} *)
  stall_cycle : string list option;  (** closed wait-for cycle, when one exists *)
}

exception Stall of stall_report
(** A diagnosed livelock: unlike {!Deadlock} (which needs the event queue to
    drain), a [Stall] is raised while events are still flowing — by the
    watchdog (see {!create}) when some process has been blocked on an
    unscheduled wake for longer than the bound, or directly by a resilient
    waiter that exhausted its retries. *)

val stall_report : t -> trigger:string -> stall_report
(** Snapshot the current blocked set (and any wait-for cycle) into a report
    — for model code that detects a stall itself and wants to raise
    {!Stall} with full diagnostics. *)

val stall_lines : stall_report -> string list
(** Human-readable rendering of a report, one line per fact. *)

val wait_cycle : t -> string list option
(** The first wait-for cycle among blocked processes' group edges (a list
    of group names, first repeated last), if any — deterministic. *)

exception Lookahead_violation of string
(** Raised during {!run_windowed} when model code breaks partition isolation
    inside a window: a {!post} closer than the window end, a cross-partition
    {!spawn}, or a cross-partition waker invocation (a {!Sync} primitive
    shared between partitions). Such a model must either repair its
    partitioning or run sequentially. *)

val create :
  ?trace:Trace.t -> ?partitions:int -> ?isolated:bool -> ?watchdog:Time.t -> unit -> t
(** [partitions] (default 1) declares the partition count. [isolated]
    (default [false]) is the model's promise that partitions share no mutable
    state within a window — i.e. every cross-partition interaction goes
    through {!post} with at least the lookahead of delay. {!run_windowed}
    only executes partitions in parallel when this promise was given;
    otherwise it falls back to sequential execution.

    [watchdog] (default: none) arms the stall watchdog: if any non-daemon
    process stays blocked for at least that much {e simulated} time on a
    wake nothing has scheduled (i.e. not a [delay] and not a deadline wait),
    the driver raises {!Stall} instead of spinning the event queue forever.
    The scan is amortized — it runs only when the clock passes the earliest
    possible stall time — and deterministic. Pick a bound comfortably above
    the longest legitimate wait of the model (the fault layer derives one
    from its retry budget). *)

val num_partitions : t -> int

val current_partition : t -> int
(** Partition of the event currently executing (0 outside a run). *)

val now : t -> Time.t
(** Current simulation time: the executing partition's clock during a
    windowed run, the global clock otherwise. *)

val trace : t -> Trace.t option
(** The sink spans should be recorded to: a partition-local sink during a
    windowed run (merged canonically at the end of the run), the engine's
    global sink otherwise. *)

val spawn :
  t -> ?name:string -> ?lazy_name:(unit -> string) -> ?daemon:bool -> ?partition:int ->
  ?group:string -> (unit -> unit) -> process
(** Register a process to start at the current simulation time. May be called
    before [run] or from inside another process.

    [lazy_name], when given, replaces [name] (default ["proc"]): it is called
    only when a diagnostic ({!Deadlock}, {!Stall}, {!blocked_descriptions},
    {!process_name}) renders the process, so a hot spawn site pays for a
    closure instead of a formatted string. It should read only values
    captured at the spawn.

    [partition] assigns the process to a partition (default: the partition of
    the spawning process, or 0). On a single-partition engine the hint is
    ignored, so model code can tag processes unconditionally. During a
    windowed run, spawning into another partition raises
    {!Lookahead_violation} — post a message that spawns locally instead.

    [group] tags the process with the model entity it acts for ("gpu3",
    "host"): the node name used in wait-for graphs. Wait-for edges declared
    via [?waits_on] (see {!suspend}) connect groups, and {!Deadlock} /
    {!Stall} diagnostics report cycles over them.

    A [daemon] process (default [false]) serves other processes forever — a
    stream server, a NIC proxy. Daemons do not keep the simulation alive and
    are exempt from deadlock detection: when only daemons remain blocked,
    {!run} returns normally. *)

val spawn_stackless :
  t -> ?name:string -> ?lazy_name:(unit -> string) -> ?partition:int -> (process -> unit) ->
  process
(** Register a {e stackless} process: one whose body is a chain of timed
    callbacks instead of a fiber. The body runs as the process's first
    event, at the current time, and is handed the process; each step either
    chains the next one with {!sleep_until} or returns, which finishes the
    process. A step must not block ({!delay} and {!suspend} need a fiber).

    Apart from the missing stack it is a process like any other: its pid is
    drawn in spawn order, it counts in the live set and the registry until
    it finishes, it reports as ["delay (since T)"] while it sleeps, and it is
    refused inside a window exactly as {!spawn} is. Because no continuation
    is captured, starting one costs a closure rather than a fiber, and a
    {!sleep_until} allocates nothing beyond the caller's next step. *)

val sleep_until : t -> process -> Time.t -> (unit -> unit) -> unit
(** [sleep_until t proc at k], called from the running step of the
    stackless process [proc], blocks [proc] until the absolute time [at] (no
    earlier than now) and then runs [k] as its next step. The event is
    pushed exactly as {!delay} would push it, so a chain of [sleep_until]s
    replays a fiber's delays event for event. *)

val process_name : process -> string
val process_done : process -> bool
val process_partition : process -> int
val process_group : process -> string option

val delay : t -> Time.t -> unit
(** Block the calling process for a simulated duration. The wake-up event
    is the process's own resume thunk, built once at spawn. *)

val yield : t -> unit
(** Re-enqueue the calling process at the current time, letting other events
    scheduled at this instant run first. *)

val suspend :
  t -> reason:(unit -> string) -> ?waits_on:string -> ((unit -> unit) -> unit) -> unit
(** [suspend t ~reason register] blocks the calling process. [reason] is
    rendered only when a diagnostic lists the blocked process, so it should
    read values captured at the call, not live state. [register] is
    called immediately with a waker; invoking the waker (from any other
    process, at any later time) resumes the suspended process at the
    simulation time of the waker call. Calling the waker more than once is
    harmless. This is the primitive from which all of {!Sync} is built.

    [waits_on] optionally names the process {e group} expected to resolve
    this wait (the peer GPU a signal must come from) — the wait-for edge
    {!Deadlock} and {!Stall} diagnostics build their cycle reports from. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> unit
(** Run a plain callback (not a process: it must not block) at an absolute
    time, which must not be in the past. The callback runs in the calling
    partition. *)

val post : t -> partition:int -> at:Time.t -> (unit -> unit) -> unit
(** [post t ~partition ~at thunk] schedules [thunk] to run in [partition] at
    absolute time [at] — the cross-partition communication primitive. The
    thunk executes as an event of the target partition, so it may freely
    touch that partition's state (set its flags, spawn its processes).
    During a windowed run a cross-partition [at] must be no earlier than the
    current window's end — guaranteed by construction when the posting delay
    is at least the lookahead — else {!Lookahead_violation} is raised. *)

val run : ?until:Time.t -> t -> unit
(** Execute events until the queue is empty or the clock passes [until], in
    one global deterministic (timestamp, sequence) order — partitioned or
    not.

    @raise Deadlock if the queue drains while processes are still blocked
    (unless [until] was given and reached). *)

type outcome =
  | Windowed of { windows : int; jobs : int }  (** windows executed, workers used *)
  | Sequential of string  (** fell back to {!run}; the reason why *)

val run_windowed : ?jobs:int -> lookahead:Time.t -> t -> outcome
(** Drain the simulation in conservative time windows of width [lookahead],
    executing partitions concurrently on [jobs] domains (default: the
    recommended domain count, capped at the partition count). Requires a
    multi-partition engine created with [~isolated:true] and a positive
    lookahead; otherwise it automatically falls back to {!run} and reports
    why. The simulated result is deterministic: independent of [jobs] and of
    how windows land on domains.

    @raise Deadlock as {!run}.
    @raise Lookahead_violation if the model breaks partition isolation. *)

(** The engine's event queue: a binary min-heap of thunks keyed by
    (time, sequence, partition) and popped in that lexicographic order.
    The keys live in flat int columns and each thunk in a slot written once
    per push and cleared once per pop, so neither allocates once the queue
    has grown to its peak. Model code schedules through {!schedule_at} and
    {!post}; the queue is exposed for its own tests. *)
module Evq : sig
  type t

  val create : unit -> t
  val is_empty : t -> bool
  val push : t -> at:Time.t -> seq:int -> part:int -> (unit -> unit) -> unit

  val top_time : t -> Time.t
  (** Key of the smallest event; the queue must not be empty. *)

  val top_part : t -> int

  val pop : t -> unit -> unit
  (** Remove the smallest event and return its thunk.
      @raise Invalid_argument on an empty queue. *)

  val move_all : t -> into:(int -> t) -> unit
  (** Move every event, key unchanged, into the queue [into] picks for its
      partition, leaving the source empty. *)
end

val events_executed : t -> int
(** Total events executed so far, across all partitions and runs — the
    numerator of the engine-throughput (events/sec) microbenchmark. *)

val windows_executed : t -> int
(** Time windows the windowed driver has drained so far, across all
    {!run_windowed} calls on this engine (0 under the sequential driver). *)

val stall_scans : t -> int
(** Stall-watchdog scans actually performed (the amortized check plus the
    per-window barrier scan); 0 when no watchdog is armed. *)

val live_processes : t -> int
(** Non-daemon processes not yet finished, of either kind: what keeps
    {!run} going and what {!Deadlock} is raised over. *)

val registered_processes : t -> int
(** Live (not yet finished) processes currently in the registry. Finished
    processes are dropped eagerly, so this stays bounded on long sweeps. *)

val blocked_descriptions : t -> string list
(** One line per blocked non-daemon process, sorted by pid:
    "name(#pid) [pN group]: reason (since T) <- waits on peer". The body of
    what {!Deadlock} carries (which appends a wait-for cycle line when the
    declared edges close one). *)

val elapse : t -> (unit -> unit) -> Time.t
(** [elapse t f] runs [f ()] inside a process and returns the simulated time
    it took — a convenience for timing a code section from within a process. *)
