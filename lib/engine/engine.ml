(* A parked process waits since its [since]: [Delayed] on a wake already
   queued ([delay], [sleep_until]; exempt from the stall watchdog, which
   hunts waits that nothing pending can resolve), or [Suspended] on a
   waker ([suspend]). A suspension keeps its reason in [why], rendered only
   when a report asks, and in [on_group] the group it waits on (a wait-for
   edge, when the caller knows who must resolve the wait). Immediate
   constructors, so parking allocates no wait record. *)
type state = Ready | Running | Delayed | Suspended | Finished

(* A process is either a fiber (its body runs under the effect handler and
   blocks with [delay]/[suspend]) or stackless (its body is a chain of
   timed callbacks linked by [sleep_until]). Both carry the same record:
   pid, partition, state, registry slot and a name built on demand. A
   parked process resumes through [resume], a thunk built once at spawn
   that continues [cont] (a fiber) or runs [next] (a stackless process), so
   a delay, a sleep or a wake pushes an event without allocating one. *)
type process = {
  pid : int;
  pname : unit -> string;
  daemon : bool;
  part : int;
  group : string option;
  stackless : bool;
  mutable state : state;
  mutable since : Time.t; (* start of the current wait *)
  mutable why : unit -> string; (* reason of the current suspension *)
  mutable on_group : string option; (* wait-for edge of the current suspension *)
  mutable wakes : int; (* suspensions woken so far: a waker acts only once *)
  mutable slot : int; (* index in the partition's registry *)
  mutable cont : (unit, unit) Effect.Deep.continuation; (* a fiber's parked stack *)
  mutable next : unit -> unit; (* a stackless process's next step *)
  mutable resume : unit -> unit;
}

(* Cross-partition message, buffered in the sender's outbox during a window
   and applied at the barrier in canonical (time, sender, index) order. *)
type msg = { m_at : Time.t; m_src : int; m_idx : int; m_dst : int; m_thunk : unit -> unit }

module Evq = struct
  (* A binary min-heap over flat columns: position [i] holds the key
     (times.(i), seqs.(i), parts.(i)) and the index slots.(i) of its thunk
     in [thunks]. Sifts move ints only, so they neither chase pointers nor
     hit the write barrier; a thunk is written once on push and cleared
     once on pop. [slots] is a permutation of the thunk indices: positions
     [0, size) hold the live ones in heap order, positions [size, cap) the
     free ones, so a push takes the free slot at [size] and a pop parks
     the one it frees there. *)
  type t = {
    mutable size : int;
    mutable times : Time.t array;
    mutable seqs : int array;
    mutable parts : int array;
    mutable slots : int array;
    mutable thunks : (unit -> unit) array;
  }

  let create () = { size = 0; times = [||]; seqs = [||]; parts = [||]; slots = [||]; thunks = [||] }
  let is_empty q = q.size = 0

  let[@inline] before (t : int) (s : int) (p : int) (t' : int) (s' : int) (p' : int) =
    t < t' || (t = t' && (s < s' || (s = s' && p < p')))

  (* Does position [i]'s key order before position [j]'s? *)
  let[@inline] before_at (times : Time.t array) (seqs : int array) (parts : int array) i j =
    before
      (Array.unsafe_get times i :> int)
      (Array.unsafe_get seqs i) (Array.unsafe_get parts i)
      (Array.unsafe_get times j :> int)
      (Array.unsafe_get seqs j) (Array.unsafe_get parts j)

  let[@inline] move (times : Time.t array) (seqs : int array) (parts : int array)
      (slots : int array) ~src ~dst =
    Array.unsafe_set times dst (Array.unsafe_get times src);
    Array.unsafe_set seqs dst (Array.unsafe_get seqs src);
    Array.unsafe_set parts dst (Array.unsafe_get parts src);
    Array.unsafe_set slots dst (Array.unsafe_get slots src)

  let grow q =
    let cap = Array.length q.times in
    let ncap = Stdlib.max 8 (2 * cap) in
    let extend a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    q.times <- extend q.times Time.zero;
    q.seqs <- extend q.seqs 0;
    q.parts <- extend q.parts 0;
    q.slots <- Array.init ncap (fun i -> if i < cap then q.slots.(i) else i);
    q.thunks <- extend q.thunks ignore

  let push q ~(at : Time.t) ~seq ~part thunk =
    if q.size = Array.length q.times then grow q;
    let times = q.times and seqs = q.seqs and parts = q.parts and slots = q.slots in
    let slot = Array.unsafe_get slots q.size in
    Array.unsafe_set q.thunks slot thunk;
    let i = ref q.size in
    q.size <- q.size + 1;
    while
      !i > 0
      &&
      let up = (!i - 1) / 2 in
      before (at :> int) seq part
        (Array.unsafe_get times up :> int)
        (Array.unsafe_get seqs up) (Array.unsafe_get parts up)
    do
      let up = (!i - 1) / 2 in
      move times seqs parts slots ~src:up ~dst:!i;
      i := up
    done;
    Array.unsafe_set times !i at;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set parts !i part;
    Array.unsafe_set slots !i slot

  (* Key of the smallest event; the queue must not be empty. *)
  let top_time q = q.times.(0)
  let top_part q = q.parts.(0)

  (* Remove the smallest event and return its thunk. *)
  let pop q =
    if q.size = 0 then invalid_arg "Engine.Evq.pop: empty queue";
    let times = q.times and seqs = q.seqs and parts = q.parts and slots = q.slots in
    let top = slots.(0) in
    let thunk = Array.unsafe_get q.thunks top in
    Array.unsafe_set q.thunks top ignore;
    let n = q.size - 1 in
    q.size <- n;
    if n > 0 then begin
      let i = ref 0 in
      let moving = ref true in
      while !moving do
        let l = (2 * !i) + 1 in
        if l >= n then moving := false
        else begin
          let r = l + 1 in
          let c = if r < n && before_at times seqs parts r l then r else l in
          if before_at times seqs parts c n then begin
            move times seqs parts slots ~src:c ~dst:!i;
            i := c
          end
          else moving := false
        end
      done;
      move times seqs parts slots ~src:n ~dst:!i
    end;
    Array.unsafe_set slots n top;
    thunk

  (* Move every event into the queue [into] picks for its partition, keys
     unchanged, leaving [q] empty. *)
  let move_all q ~into =
    for i = 0 to q.size - 1 do
      let slot = q.slots.(i) and part = q.parts.(i) in
      push (into part) ~at:q.times.(i) ~seq:q.seqs.(i) ~part q.thunks.(slot);
      q.thunks.(slot) <- ignore
    done;
    q.size <- 0
end

type partition = {
  queue : Evq.t; (* this partition's events during a windowed run *)
  mutable pclock : Time.t; (* partition-local clock (windowed mode) *)
  mutable pseq : int; (* partition-local tie-break counter (windowed mode) *)
  mutable pexec : int; (* events executed in this partition (windowed mode) *)
  mutable plive : int; (* non-daemon, unfinished processes *)
  mutable procs : process array; (* live processes in [0, nprocs); finished drop out *)
  mutable nprocs : int;
  mutable outbox : msg list; (* reversed send order, windowed mode only *)
  mutable out_idx : int;
  mutable ptrace : Trace.t option; (* partition-local sink (windowed mode) *)
  mutable pexn : (exn * Printexc.raw_backtrace) option;
}

(* Idle: between runs (setup / teardown). Seq: inside [run]. Win: inside the
   windowed driver, where clocks, queues and trace sinks are per-partition. *)
type phase = Idle | Seq | Win

type t = {
  mutable clock : Time.t;
  mutable seq : int; (* global tie-break counter (Idle and Seq phases) *)
  queue : Evq.t; (* every pending event outside a windowed run *)
  mutable cur : int; (* partition of the executing event (Idle and Seq phases) *)
  mutable executed : int; (* events executed outside windowed runs *)
  parts : partition array;
  isolated : bool;
  next_pid : int Atomic.t;
  trace_sink : Trace.t option;
  mutable phase : phase;
  mutable wend : Time.t; (* exclusive end of the current window (Win phase) *)
  watchdog : Time.t option;
  mutable watch_next : Time.t; (* next time the watchdog scans for stalls *)
  mutable windows_total : int; (* windows executed across all windowed runs *)
  mutable stall_scan_count : int; (* watchdog scans actually performed *)
}

exception Deadlock of string list
exception Lookahead_violation of string

type stall_report = {
  stall_at : Time.t;
  stall_trigger : string;
  stall_blocked : string list;
  stall_cycle : string list option;
}

exception Stall of stall_report

type _ Effect.t +=
  | Delay : t * Time.t -> unit Effect.t
  | Suspend : t * (unit -> string) * string option * ((unit -> unit) -> unit) -> unit Effect.t
  | Spend : unit Effect.t

(* A continuation that has already been resumed: what a process's [cont]
   holds until its fiber first parks. Continuing it raises
   [Continuation_already_resumed], so a stray resume cannot pass unseen. *)
let spent : (unit, unit) Effect.Deep.continuation =
  let open Effect.Deep in
  let got : (unit, unit) continuation option ref = ref None in
  match_with Effect.perform Spend
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Spend ->
            Some
              (fun (k : (a, unit) continuation) ->
                got := Some k;
                continue k ())
          | _ -> None);
    };
  Option.get !got

let make_partition _ =
  {
    queue = Evq.create ();
    pclock = Time.zero;
    pseq = 0;
    pexec = 0;
    plive = 0;
    procs = [||];
    nprocs = 0;
    outbox = [];
    out_idx = 0;
    ptrace = None;
    pexn = None;
  }

let create ?trace ?(partitions = 1) ?(isolated = false) ?watchdog () =
  if partitions < 1 then invalid_arg "Engine.create: partitions must be positive";
  (match watchdog with
  | Some w when Time.(w <= Time.zero) ->
    invalid_arg "Engine.create: watchdog must be positive"
  | Some _ | None -> ());
  {
    clock = Time.zero;
    seq = 0;
    queue = Evq.create ();
    cur = 0;
    executed = 0;
    parts = Array.init partitions make_partition;
    isolated;
    next_pid = Atomic.make 0;
    trace_sink = trace;
    phase = Idle;
    wend = Time.zero;
    watchdog;
    watch_next = Time.zero;
    windows_total = 0;
    stall_scan_count = 0;
  }

let num_partitions t = Array.length t.parts

(* The partition whose events the calling domain executes inside a window.
   Per-domain state because windowed execution runs partitions on worker
   domains; outside windows the engine's [cur] field says it. *)
let dls_part : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let cur_part t = match t.phase with Win -> Domain.DLS.get dls_part | Idle | Seq -> t.cur
let current_partition = cur_part

let now t =
  match t.phase with
  | Win -> t.parts.(Domain.DLS.get dls_part).pclock
  | Idle | Seq -> t.clock

let trace t =
  match t.phase with
  | Win -> t.parts.(Domain.DLS.get dls_part).ptrace
  | Idle | Seq -> t.trace_sink

(* Queue an event for partition [part]. Outside windowed execution every
   event goes into the engine-wide queue with the global tie-break counter
   — so a partitioned engine driven by [run] executes in exactly the order
   an unpartitioned engine would. Inside a window it goes into the
   partition's own queue with a partition-local counter, as partitions must
   not share mutable state. *)
let push_into t part at thunk =
  match t.phase with
  | Win ->
    let p = t.parts.(part) in
    p.pseq <- p.pseq + 1;
    Evq.push p.queue ~at ~seq:p.pseq ~part thunk
  | Idle | Seq ->
    t.seq <- t.seq + 1;
    Evq.push t.queue ~at ~seq:t.seq ~part thunk

let schedule_at t at thunk =
  if Time.(at < now t) then invalid_arg "Engine.schedule_at: time in the past";
  push_into t (cur_part t) at thunk

let check_partition t p fn =
  if p < 0 || p >= Array.length t.parts then
    invalid_arg (Printf.sprintf "Engine.%s: no such partition %d" fn p)

let post t ~partition ~at thunk =
  check_partition t partition "post";
  match t.phase with
  | Win ->
    let src = Domain.DLS.get dls_part in
    if partition = src then begin
      if Time.(at < t.parts.(src).pclock) then invalid_arg "Engine.post: time in the past";
      push_into t src at thunk
    end
    else if Time.(at < t.wend) then
      raise
        (Lookahead_violation
           (Printf.sprintf
              "post from partition %d to %d at %s lands inside the current window (ends %s)"
              src partition (Time.to_string at) (Time.to_string t.wend)))
    else begin
      let p = t.parts.(src) in
      p.out_idx <- p.out_idx + 1;
      p.outbox <-
        { m_at = at; m_src = src; m_idx = p.out_idx; m_dst = partition; m_thunk = thunk }
        :: p.outbox
    end
  | Idle | Seq ->
    if Time.(at < t.clock) then invalid_arg "Engine.post: time in the past";
    push_into t partition at thunk

let delay_reason () = "delay"

(* Clock of the partition a process belongs to: partition-local inside a
   windowed run, global otherwise. *)
let proc_clock t proc =
  match t.phase with Win -> t.parts.(proc.part).pclock | Idle | Seq -> t.clock

(* The registry: each partition keeps its live processes packed in
   [procs.(0 .. nprocs-1)], each knowing its slot, so enrolling and
   dropping one is O(1) and the array never outgrows the peak live count. *)
let enroll p proc =
  let n = p.nprocs in
  if n = Array.length p.procs then begin
    let grown = Array.make (Stdlib.max 16 (2 * n)) proc in
    Array.blit p.procs 0 grown 0 n;
    p.procs <- grown
  end;
  p.procs.(n) <- proc;
  proc.slot <- n;
  p.nprocs <- n + 1

let unenroll p proc =
  let n = p.nprocs - 1 in
  let last = p.procs.(n) in
  p.procs.(proc.slot) <- last;
  last.slot <- proc.slot;
  p.nprocs <- n

let finish_process t proc =
  proc.state <- Finished;
  proc.next <- ignore;
  let p = t.parts.(proc.part) in
  if not proc.daemon then p.plive <- p.plive - 1;
  (* Drop the record so long sweeps don't retain one per spawned kernel;
     [blocked_descriptions] only ever reports live processes. *)
  unenroll p proc

(* Park the running process until [at]: its [resume] is the event. *)
let sleep_proc t proc ~base at =
  proc.state <- Delayed;
  proc.since <- base;
  push_into t proc.part at proc.resume

let exec_process t proc body =
  let open Effect.Deep in
  (* Built once per process: a delay queues [proc.resume] in [effc] and
     parks the continuation here, allocating nothing else. *)
  let park = Some (fun (k : (unit, unit) continuation) -> proc.cont <- k) in
  (* A suspension's waker is live until the first call: [wakes] counts
     the calls that resumed the process. *)
  let wake ticket () =
    if proc.wakes = ticket then begin
      proc.wakes <- ticket + 1;
      (match t.phase with
      | Win ->
        if Domain.DLS.get dls_part <> proc.part then
          raise
            (Lookahead_violation
               (Printf.sprintf
                  "partition %d woke process %s(#%d) of partition %d inside a window; \
                   cross-partition signalling must go through Engine.post"
                  (Domain.DLS.get dls_part) (proc.pname ()) proc.pid proc.part))
      | Idle | Seq -> ());
      push_into t proc.part (proc_clock t proc) proc.resume
    end
  in
  match_with body ()
    {
      retc = (fun () -> finish_process t proc);
      exnc = (fun e -> finish_process t proc; raise e);
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Delay (eng, d) when eng == t ->
            let base = proc_clock t proc in
            sleep_proc t proc ~base (Time.add base d);
            park
          | Suspend (eng, reason, waits_on, register) when eng == t ->
            proc.state <- Suspended;
            proc.since <- proc_clock t proc;
            proc.why <- reason;
            proc.on_group <- waits_on;
            register (wake proc.wakes);
            park
          | _ -> None);
    }

(* Register a new process (pid, partition checks, live count, registry
   slot) and queue [start] as its first event at the current time.
   [resume] builds the process's resume thunk from its record. *)
let register t ~fn ~name ~daemon ~partition ~group ~stackless ~resume start =
  let np = Array.length t.parts in
  let part =
    match partition with
    | None -> cur_part t
    | Some p ->
      (* Partition hints are advisory on unpartitioned engines so model code
         can tag its processes unconditionally. *)
      if np = 1 then 0
      else begin
        check_partition t p fn;
        p
      end
  in
  (match t.phase with
  | Win ->
    if part <> Domain.DLS.get dls_part then
      raise
        (Lookahead_violation
           (Printf.sprintf
              "spawn of %s into partition %d from partition %d inside a window; post a \
               message that spawns locally instead"
              (name ()) part (Domain.DLS.get dls_part)))
  | Idle | Seq -> ());
  let pid = Atomic.fetch_and_add t.next_pid 1 + 1 in
  let proc =
    {
      pid;
      pname = name;
      daemon;
      part;
      group;
      stackless;
      state = Ready;
      since = Time.zero;
      why = delay_reason;
      on_group = None;
      wakes = 0;
      slot = 0;
      cont = spent;
      next = ignore;
      resume = ignore;
    }
  in
  proc.resume <- resume proc;
  let p = t.parts.(part) in
  if not daemon then p.plive <- p.plive + 1;
  enroll p proc;
  push_into t part (proc_clock t proc) (start proc);
  proc

let name_of name lazy_name =
  match (name, lazy_name) with
  | _, Some f -> f
  | Some n, None -> fun () -> n
  | None, None -> fun () -> "proc"

let spawn t ?name ?lazy_name ?(daemon = false) ?partition ?group body =
  register t ~fn:"spawn" ~name:(name_of name lazy_name) ~daemon ~partition ~group
    ~stackless:false
    ~resume:(fun proc () ->
      proc.state <- Running;
      Effect.Deep.continue proc.cont ())
    (fun proc () ->
      proc.state <- Running;
      exec_process t proc body)

(* One step of a stackless process: run the step [sleep_until] chained; if
   it did not chain another, the process is done. *)
let run_step t proc () =
  proc.state <- Running;
  (match proc.next () with
  | () -> ()
  | exception e ->
    finish_process t proc;
    raise e);
  match proc.state with
  | Running -> finish_process t proc
  | Delayed | Suspended | Ready | Finished -> ()

let spawn_stackless t ?name ?lazy_name ?partition body =
  register t ~fn:"spawn_stackless" ~name:(name_of name lazy_name) ~daemon:false ~partition
    ~group:None ~stackless:true ~resume:(run_step t) (fun proc ->
      proc.next <- (fun () -> body proc);
      proc.resume)

let sleep_until t proc at k =
  if not proc.stackless then invalid_arg "Engine.sleep_until: not a stackless process";
  (match proc.state with
  | Running -> ()
  | Ready | Delayed | Suspended | Finished ->
    invalid_arg "Engine.sleep_until: process is not running");
  let base = proc_clock t proc in
  if Time.(at < base) then invalid_arg "Engine.sleep_until: time in the past";
  proc.next <- k;
  sleep_proc t proc ~base at

let process_name p = p.pname ()
let process_done p = p.state = Finished
let process_partition (p : process) = p.part

let delay t d = Effect.perform (Delay (t, d))
let yield t = delay t Time.zero

let suspend t ~reason ?waits_on register =
  Effect.perform (Suspend (t, reason, waits_on, register))

let process_group p = p.group

let live_processes t = Array.fold_left (fun acc p -> acc + p.plive) 0 t.parts
let events_executed t = Array.fold_left (fun acc p -> acc + p.pexec) t.executed t.parts
let windows_executed t = t.windows_total
let stall_scans t = t.stall_scan_count
let registered_processes t = Array.fold_left (fun acc p -> acc + p.nprocs) 0 t.parts

(* Parked non-daemon processes, sorted by pid. *)
let blocked_procs t =
  let acc = ref [] in
  Array.iter
    (fun p ->
      for i = 0 to p.nprocs - 1 do
        let proc = p.procs.(i) in
        match proc.state with
        | (Delayed | Suspended) when not proc.daemon -> acc := proc :: !acc
        | Delayed | Suspended | Ready | Running | Finished -> ()
      done)
    t.parts;
  List.sort (fun a b -> Int.compare a.pid b.pid) !acc

(* The wait-for edge of a parked process: only a suspension declares one. *)
let waits_on proc = match proc.state with Suspended -> proc.on_group | _ -> None

let blocked_descriptions t =
  blocked_procs t
  |> List.map (fun proc ->
         let where =
           match proc.group with
           | Some g -> Printf.sprintf " [p%d %s]" proc.part g
           | None -> Printf.sprintf " [p%d]" proc.part
         in
         let edge =
           match waits_on proc with Some g -> Printf.sprintf " <- waits on %s" g | None -> ""
         in
         let why = match proc.state with Suspended -> proc.why () | _ -> delay_reason () in
         Printf.sprintf "%s(#%d)%s: %s (since %s)%s" (proc.pname ()) proc.pid where why
           (Time.to_string proc.since) edge)

(* Wait-for cycle over process groups: an edge [g -> h] for every blocked
   process of group [g] waiting on group [h]. Deterministic: nodes are
   visited in sorted order, successors likewise. *)
let wait_cycle t =
  let edges =
    blocked_procs t
    |> List.filter_map (fun proc ->
           match (proc.group, waits_on proc) with
           | Some g, Some h -> Some (g, h)
           | _ -> None)
    |> List.sort_uniq compare
  in
  if edges = [] then None
  else begin
    let succ g = List.filter_map (fun (a, b) -> if String.equal a g then Some b else None) edges in
    let nodes = List.sort_uniq String.compare (List.concat_map (fun (a, b) -> [ a; b ]) edges) in
    let visited = Hashtbl.create 16 in
    (* DFS with an explicit path; the first back-edge found (in sorted
       order) closes the reported cycle. *)
    let rec dfs path g =
      match List.find_index (String.equal g) path with
      | Some i ->
        (* [path] is newest-first: the cycle is its first (i+1) entries. *)
        let rec take n = function
          | x :: rest when n > 0 -> x :: take (n - 1) rest
          | _ -> []
        in
        Some (List.rev (g :: take (i + 1) path))
      | None ->
        if Hashtbl.mem visited g then None
        else begin
          Hashtbl.add visited g ();
          List.fold_left
            (fun acc h -> match acc with Some _ -> acc | None -> dfs (g :: path) h)
            None (succ g)
        end
    in
    List.fold_left
      (fun acc g -> match acc with Some _ -> acc | None -> dfs [] g)
      None nodes
  end

let deadlock_report t =
  let descr = blocked_descriptions t in
  match wait_cycle t with
  | Some cyc -> descr @ [ "wait-for cycle: " ^ String.concat " -> " cyc ]
  | None -> descr

let global_now t =
  match t.phase with
  | Win -> Array.fold_left (fun acc p -> Time.max acc p.pclock) t.clock t.parts
  | Idle | Seq -> t.clock

let stall_report t ~trigger =
  {
    stall_at = global_now t;
    stall_trigger = trigger;
    stall_blocked = blocked_descriptions t;
    stall_cycle = wait_cycle t;
  }

let stall_lines r =
  (Printf.sprintf "stall at %s: %s" (Time.to_string r.stall_at) r.stall_trigger)
  :: r.stall_blocked
  @ match r.stall_cycle with
    | Some cyc -> [ "wait-for cycle: " ^ String.concat " -> " cyc ]
    | None -> []

(* Earliest [since] among watchdog-relevant blocked processes: non-daemon,
   and not waiting on an already-scheduled wake (a delay or deadline). *)
let oldest_untimed_blocked t =
  List.fold_left
    (fun acc proc ->
      match (proc.state, acc) with
      | Suspended, Some since when Time.(since <= proc.since) -> acc
      | Suspended, (Some _ | None) -> Some proc.since
      | _ -> acc)
    None (blocked_procs t)

let watchdog_fire t w =
  raise
    (Stall
       (stall_report t
          ~trigger:
            (Printf.sprintf "watchdog: a blocked process made no progress for %s"
               (Time.to_string w))))

(* Amortized stall scan for the sequential driver: only look when the
   clock passes [watch_next], and push [watch_next] out to the earliest
   time the oldest wait could become a stall. *)
let watchdog_check t now_ =
  match t.watchdog with
  | Some w when Time.(now_ >= t.watch_next) -> (
    t.stall_scan_count <- t.stall_scan_count + 1;
    match oldest_untimed_blocked t with
    | Some since when Time.(Time.add since w <= now_) -> watchdog_fire t w
    | Some since -> t.watch_next <- Time.add since w
    | None -> t.watch_next <- Time.add now_ w)
  | Some _ | None -> ()

let run ?until t =
  if t.phase <> Idle then invalid_arg "Engine.run: engine is already running";
  t.phase <- Seq;
  let finish () =
    t.phase <- Idle;
    t.cur <- 0
  in
  (match t.watchdog with
  | Some w -> t.watch_next <- Time.add t.clock w
  | None -> ());
  let q = t.queue in
  let rec loop () =
    if Evq.is_empty q then begin
      if live_processes t > 0 then raise (Deadlock (deadlock_report t))
    end
    else begin
      let at = Evq.top_time q in
      match until with
      | Some limit when Time.(at > limit) ->
        (* Leave the event queued so a later [run] can resume seamlessly. *)
        t.clock <- limit
      | Some _ | None ->
        t.cur <- Evq.top_part q;
        let thunk = Evq.pop q in
        t.clock <- at;
        watchdog_check t at;
        t.executed <- t.executed + 1;
        thunk ();
        loop ()
    end
  in
  Fun.protect ~finally:finish loop

type outcome =
  | Windowed of { windows : int; jobs : int }
  | Sequential of string

let cmp_msg a b =
  let c = Time.compare a.m_at b.m_at in
  if c <> 0 then c
  else
    let c = Int.compare a.m_src b.m_src in
    if c <> 0 then c else Int.compare a.m_idx b.m_idx

let default_jobs () = Domain.recommended_domain_count ()

let clamp_jobs jobs np =
  match jobs with
  | Some j -> Stdlib.max 1 (Stdlib.min j np)
  | None -> Stdlib.max 1 (Stdlib.min (default_jobs ()) np)

(* Split the engine-wide queue into the partitions' own queues, reset
   per-partition driver state and give each partition a private trace sink
   when the engine has one. *)
let setup_partitions t =
  Evq.move_all t.queue ~into:(fun part -> t.parts.(part).queue);
  Array.iter
    (fun p ->
      p.pclock <- t.clock;
      p.pseq <- t.seq;
      p.outbox <- [];
      p.out_idx <- 0;
      p.pexn <- None;
      p.ptrace <-
        (match t.trace_sink with
        | Some _ -> Some (Trace.create ~flows:(Trace.flows_enabled t.trace_sink) ())
        | None -> None))
    t.parts

(* Fold per-partition clocks, counters, pending events and trace sinks
   back into the engine after a parallel run, also one cut short by an
   exception: a later [run] then drains what is left in canonical order.
   The traces merge in canonical (t0, t1, lane, label, kind) order:
   deterministic for any window schedule and any worker count. *)
let teardown_partitions t pool =
  (match pool with Some pool -> Dpool.shutdown pool | None -> ());
  t.phase <- Idle;
  Array.iter
    (fun p ->
      t.clock <- Time.max t.clock p.pclock;
      t.seq <- Stdlib.max t.seq p.pseq;
      Evq.move_all p.queue ~into:(fun _ -> t.queue))
    t.parts;
  match t.trace_sink with
  | None -> ()
  | Some sink ->
    let locals =
      Array.to_list t.parts
      |> List.filter_map (fun p ->
             let tr = p.ptrace in
             p.ptrace <- None;
             tr)
    in
    Trace.merge_into ~into:sink locals

(* Exceptions stashed by worker domains re-raise deterministically: lowest
   partition id first. *)
let reraise_partition_exns t =
  Array.iter
    (fun p ->
      match p.pexn with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    t.parts

(* Conservative barrier-synchronized windows: each window extends one
   lookahead past the earliest pending event, so no event inside it can hear
   from a peer partition before the barrier. *)
let run_windowed ?jobs ~lookahead t =
  if t.phase <> Idle then invalid_arg "Engine.run_windowed: engine is already running";
  let np = Array.length t.parts in
  let fallback reason =
    run t;
    Sequential reason
  in
  if np = 1 then fallback "single partition"
  else if Time.equal lookahead Time.zero then fallback "zero lookahead"
  else if not t.isolated then fallback "engine not created with ~isolated:true"
  else begin
    let jobs = clamp_jobs jobs np in
    setup_partitions t;
    t.phase <- Win;
    let pool = if jobs > 1 then Some (Dpool.create ~jobs) else None in
    let windows = ref 0 in
    (* Exclusive end of the next window; [None] once every queue drained. *)
    let next_wend () =
      Array.fold_left
        (fun acc (p : partition) ->
          if Evq.is_empty p.queue then acc
          else
            let at = Evq.top_time p.queue in
            match acc with None -> Some at | Some a -> Some (Time.min a at))
        None t.parts
      |> Option.map (fun floor -> Time.add floor lookahead)
    in
    (* Drain one partition's share of the current window. Exceptions (model
       errors, lookahead violations) are stashed per partition and re-raised
       after the barrier. *)
    let exec_partition i =
      let p = t.parts.(i) in
      let q = p.queue and wend = (t.wend :> int) in
      Domain.DLS.set dls_part i;
      try
        while (not (Evq.is_empty q)) && (Evq.top_time q :> int) < wend do
          p.pclock <- Evq.top_time q;
          let thunk = Evq.pop q in
          p.pexec <- p.pexec + 1;
          thunk ()
        done
      with e -> p.pexn <- Some (e, Printexc.get_raw_backtrace ())
    in
    Fun.protect
      ~finally:(fun () -> teardown_partitions t pool)
      (fun () ->
        let running = ref true in
        while !running do
          match next_wend () with
          | None ->
            if live_processes t > 0 then raise (Deadlock (deadlock_report t));
            running := false
          | Some wend ->
            t.wend <- wend;
            incr windows;
            t.windows_total <- t.windows_total + 1;
            (match pool with
            | Some pool -> Dpool.run pool ~n:np exec_partition
            | None ->
              for i = 0 to np - 1 do
                exec_partition i
              done);
            reraise_partition_exns t;
            (* Barrier: apply cross-partition messages in canonical order so
               every target queue ends up byte-identical regardless of how
               partitions were scheduled onto domains. *)
            let msgs =
              Array.fold_left
                (fun acc p ->
                  let o = p.outbox in
                  p.outbox <- [];
                  List.rev_append o acc)
                [] t.parts
            in
            (match msgs with
            | [] -> ()
            | msgs ->
              List.iter
                (fun m -> push_into t m.m_dst m.m_at m.m_thunk)
                (List.sort cmp_msg msgs));
            (* Stall scan at the barrier: a wait older than the watchdog
               bound relative to the window just drained is a livelock. *)
            (match t.watchdog with
            | Some w -> (
              t.stall_scan_count <- t.stall_scan_count + 1;
              match oldest_untimed_blocked t with
              | Some since when Time.(Time.add since w <= t.wend) -> watchdog_fire t w
              | Some _ | None -> ())
            | None -> ())
        done);
    Windowed { windows = !windows; jobs }
  end

let elapse t f =
  let t0 = now t in
  f ();
  Time.sub (now t) t0
