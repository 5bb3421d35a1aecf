(* Why a process is blocked: the reason, rendered only when a report asks
   for it, the group it waits on (a wait-for edge, when the caller knows
   who must resolve the wait), when it blocked, and whether the wake is
   already scheduled (a delay or a deadline — exempt from the stall
   watchdog, which hunts waits that nothing pending can resolve). *)
type waitinfo = { why : unit -> string; on_group : string option; since : Time.t; timed : bool }

type state = Ready | Running | Blocked of waitinfo | Finished

(* A process is either a fiber (its body runs under the effect handler and
   blocks with [delay]/[suspend]) or stackless (its body is a chain of
   timed callbacks linked by [sleep_until]). Both carry the same record:
   pid, partition, state, registry entry and a name built on demand. *)
type process = {
  pid : int;
  pname : unit -> string;
  daemon : bool;
  part : int;
  group : string option;
  stackless : bool;
  mutable state : state;
}

type event = { at : Time.t; seq : int; part : int; thunk : unit -> unit }

(* Cross-partition message, buffered in the sender's outbox during a window
   and applied at the barrier in canonical (time, sender, index) order. *)
type msg = { m_at : Time.t; m_src : int; m_idx : int; m_dst : int; m_thunk : unit -> unit }

(* The event queue: an array-backed binary min-heap specialised to the
   engine's (at, seq, part) order, so the sifts compare three ints inline
   instead of calling a comparison closure. The order is total (no two
   events share a triple), so the pop order is the same as any other heap's.
   Vacated slots are reset to [dummy] so popped thunks can be collected. *)
module Evq = struct
  type t = { mutable data : event array; mutable size : int }

  let dummy = { at = Time.zero; seq = 0; part = 0; thunk = ignore }
  let create () = { data = [||]; size = 0 }
  let is_empty q = q.size = 0

  let before a b =
    let ta = (a.at :> int) and tb = (b.at :> int) in
    ta < tb || (ta = tb && (a.seq < b.seq || (a.seq = b.seq && a.part < b.part)))

  let push q x =
    let cap = Array.length q.data in
    if q.size = cap then begin
      let ndata = Array.make (Stdlib.max 8 (2 * cap)) dummy in
      Array.blit q.data 0 ndata 0 q.size;
      q.data <- ndata
    end;
    let data = q.data in
    let i = ref q.size in
    q.size <- q.size + 1;
    while
      !i > 0
      &&
      let parent = (!i - 1) / 2 in
      before x (Array.unsafe_get data parent)
    do
      let parent = (!i - 1) / 2 in
      Array.unsafe_set data !i (Array.unsafe_get data parent);
      i := parent
    done;
    Array.unsafe_set data !i x

  (* The smallest event; the queue must not be empty. *)
  let top q = q.data.(0)

  (* Remove and return the smallest event; the queue must not be empty. *)
  let pop q =
    let data = q.data in
    let top = data.(0) in
    let n = q.size - 1 in
    q.size <- n;
    let x = Array.unsafe_get data n in
    Array.unsafe_set data n dummy;
    if n > 0 then begin
      let i = ref 0 in
      let moving = ref true in
      while !moving do
        let l = (2 * !i) + 1 in
        if l >= n then moving := false
        else begin
          let r = l + 1 in
          let c =
            if r < n && before (Array.unsafe_get data r) (Array.unsafe_get data l) then r else l
          in
          let dc = Array.unsafe_get data c in
          if before dc x then begin
            Array.unsafe_set data !i dc;
            i := c
          end
          else moving := false
        end
      done;
      Array.unsafe_set data !i x
    end;
    top
end

type partition = {
  id : int;
  queue : Evq.t;
  mutable pclock : Time.t; (* partition-local clock (windowed mode) *)
  mutable pseq : int; (* partition-local tie-break counter (windowed mode) *)
  mutable pexec : int; (* events executed in this partition *)
  mutable plive : int; (* non-daemon, unfinished processes *)
  procs : (int, process) Hashtbl.t; (* live processes only; finished drop out *)
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

let make_partition id =
  {
    id;
    queue = Evq.create ();
    pclock = Time.zero;
    pseq = 0;
    pexec = 0;
    plive = 0;
    procs = Hashtbl.create 32;
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

(* The partition whose events the calling domain is currently executing.
   Per-domain state because windowed execution runs partitions on worker
   domains; outside any run (and on single-partition engines) it is 0. *)
let dls_part : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let cur_part t =
  match t.phase with
  | Idle -> 0
  | Seq -> if Array.length t.parts = 1 then 0 else Domain.DLS.get dls_part
  | Win -> Domain.DLS.get dls_part

let current_partition = cur_part

let now t =
  match t.phase with
  | Win -> t.parts.(Domain.DLS.get dls_part).pclock
  | Idle | Seq -> t.clock

let trace t =
  match t.phase with
  | Win -> t.parts.(Domain.DLS.get dls_part).ptrace
  | Idle | Seq -> t.trace_sink

(* Push into a specific partition's queue. The tie-break counter is global
   outside windowed execution — so a partitioned engine driven by [run]
   executes in exactly the order an unpartitioned engine would — and
   partition-local inside a window, where partitions must not share mutable
   counters. *)
let push_into t p at thunk =
  let seq =
    match t.phase with
    | Win ->
      p.pseq <- p.pseq + 1;
      p.pseq
    | Idle | Seq ->
      t.seq <- t.seq + 1;
      t.seq
  in
  Evq.push p.queue { at; seq; part = p.id; thunk }

let schedule_at t at thunk =
  if Time.(at < now t) then invalid_arg "Engine.schedule_at: time in the past";
  push_into t t.parts.(cur_part t) at thunk

let check_partition t p fn =
  if p < 0 || p >= Array.length t.parts then
    invalid_arg (Printf.sprintf "Engine.%s: no such partition %d" fn p)

let post t ~partition ~at thunk =
  check_partition t partition "post";
  match t.phase with
  | Win ->
    let src = Domain.DLS.get dls_part in
    if partition = src then begin
      let p = t.parts.(src) in
      if Time.(at < p.pclock) then invalid_arg "Engine.post: time in the past";
      push_into t p at thunk
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
    push_into t t.parts.(partition) at thunk

let delay_reason () = "delay"

(* Clock of the partition a process belongs to: partition-local inside a
   windowed run, global otherwise. *)
let part_clock t p = match t.phase with Win -> p.pclock | Idle | Seq -> t.clock

let finish_process t proc =
  proc.state <- Finished;
  let p = t.parts.(proc.part) in
  if not proc.daemon then p.plive <- p.plive - 1;
  (* Drop the record so long sweeps don't retain one per spawned kernel;
     [blocked_descriptions] only ever reports live processes. *)
  Hashtbl.remove p.procs proc.pid

let exec_process t proc body =
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> finish_process t proc);
      exnc = (fun e -> finish_process t proc; raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay (eng, d) when eng == t ->
            Some
              (fun (k : (a, unit) continuation) ->
                let p = t.parts.(proc.part) in
                let base = part_clock t p in
                proc.state <-
                  Blocked { why = delay_reason; on_group = None; since = base; timed = true };
                push_into t p (Time.add base d) (fun () ->
                    proc.state <- Running;
                    continue k ()))
          | Suspend (eng, reason, waits_on, register) when eng == t ->
            Some
              (fun (k : (a, unit) continuation) ->
                let since = part_clock t t.parts.(proc.part) in
                proc.state <- Blocked { why = reason; on_group = waits_on; since; timed = false };
                let woken = ref false in
                register (fun () ->
                    if not !woken then begin
                      woken := true;
                      let p = t.parts.(proc.part) in
                      (match t.phase with
                      | Win ->
                        if Domain.DLS.get dls_part <> proc.part then
                          raise
                            (Lookahead_violation
                               (Printf.sprintf
                                  "partition %d woke process %s(#%d) of partition %d inside \
                                   a window; cross-partition signalling must go through \
                                   Engine.post"
                                  (Domain.DLS.get dls_part) (proc.pname ()) proc.pid proc.part))
                      | Idle | Seq -> ());
                      push_into t p (part_clock t p) (fun () ->
                          proc.state <- Running;
                          continue k ())
                    end))
          | _ -> None);
    }

(* Register a new process and schedule [start] as its first event at the
   current time: the pid, partition checks, live count and registry entry
   every kind of process shares. *)
let register t ~fn ~name ~daemon ~partition ~group ~stackless start =
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
  let proc = { pid; pname = name; daemon; part; group; stackless; state = Ready } in
  let p = t.parts.(part) in
  if not daemon then p.plive <- p.plive + 1;
  Hashtbl.replace p.procs pid proc;
  push_into t p (part_clock t p) (fun () ->
      proc.state <- Running;
      start proc);
  proc

let name_of name lazy_name =
  match (name, lazy_name) with
  | _, Some f -> f
  | Some n, None -> fun () -> n
  | None, None -> fun () -> "proc"

let spawn t ?name ?lazy_name ?(daemon = false) ?partition ?group body =
  register t ~fn:"spawn" ~name:(name_of name lazy_name) ~daemon ~partition ~group
    ~stackless:false (fun proc -> exec_process t proc body)

(* One step of a stackless process: run the callback; if it did not chain
   another step with [sleep_until], the process is done. *)
let run_step t proc k =
  (match k () with
  | () -> ()
  | exception e ->
    finish_process t proc;
    raise e);
  match proc.state with
  | Running -> finish_process t proc
  | Blocked _ | Ready | Finished -> ()

let spawn_stackless t ?name ?lazy_name ?partition body =
  register t ~fn:"spawn_stackless" ~name:(name_of name lazy_name) ~daemon:false ~partition
    ~group:None ~stackless:true (fun proc -> run_step t proc (fun () -> body proc))

let sleep_until t proc at k =
  if not proc.stackless then invalid_arg "Engine.sleep_until: not a stackless process";
  (match proc.state with
  | Running -> ()
  | Ready | Blocked _ | Finished -> invalid_arg "Engine.sleep_until: process is not running");
  let p = t.parts.(proc.part) in
  let base = part_clock t p in
  if Time.(at < base) then invalid_arg "Engine.sleep_until: time in the past";
  proc.state <- Blocked { why = delay_reason; on_group = None; since = base; timed = true };
  push_into t p at (fun () ->
      proc.state <- Running;
      run_step t proc k)

let process_name p = p.pname ()
let process_done p = p.state = Finished
let process_partition (p : process) = p.part

let delay t d = Effect.perform (Delay (t, d))
let yield t = delay t Time.zero

let suspend t ~reason ?waits_on register =
  Effect.perform (Suspend (t, reason, waits_on, register))

let process_group p = p.group

let live_processes t = Array.fold_left (fun acc p -> acc + p.plive) 0 t.parts
let events_executed t = Array.fold_left (fun acc p -> acc + p.pexec) 0 t.parts
let windows_executed t = t.windows_total
let stall_scans t = t.stall_scan_count

let registered_processes t =
  Array.fold_left (fun acc p -> acc + Hashtbl.length p.procs) 0 t.parts

let blocked_procs t =
  let acc = ref [] in
  Array.iter
    (fun p ->
      Hashtbl.iter
        (fun _ proc ->
          match proc.state with
          | Blocked w when not proc.daemon -> acc := (proc, w) :: !acc
          | Blocked _ | Ready | Running | Finished -> ())
        p.procs)
    t.parts;
  List.sort (fun (a, _) (b, _) -> Int.compare a.pid b.pid) !acc

let blocked_descriptions t =
  blocked_procs t
  |> List.map (fun (proc, w) ->
         let where =
           match proc.group with
           | Some g -> Printf.sprintf " [p%d %s]" proc.part g
           | None -> Printf.sprintf " [p%d]" proc.part
         in
         let edge =
           match w.on_group with Some g -> Printf.sprintf " <- waits on %s" g | None -> ""
         in
         Printf.sprintf "%s(#%d)%s: %s (since %s)%s" (proc.pname ()) proc.pid where (w.why ())
           (Time.to_string w.since) edge)

(* Wait-for cycle over process groups: an edge [g -> h] for every blocked
   process of group [g] waiting on group [h]. Deterministic: nodes are
   visited in sorted order, successors likewise. *)
let wait_cycle t =
  let edges =
    blocked_procs t
    |> List.filter_map (fun (proc, w) ->
           match (proc.group, w.on_group) with
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
    (fun acc (proc, w) ->
      if proc.daemon || w.timed then acc
      else
        match acc with
        | Some since when Time.(since <= w.since) -> acc
        | Some _ | None -> Some w.since)
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

(* Index of the partition whose queue head is the smallest (at, seq, part)
   event across all partitions; -1 when every queue is empty. *)
let next_part t =
  let parts = t.parts in
  if Array.length parts = 1 then if Evq.is_empty parts.(0).queue then -1 else 0
  else begin
    let best = ref (-1) in
    for i = 0 to Array.length parts - 1 do
      let q = parts.(i).queue in
      if
        (not (Evq.is_empty q))
        && (!best < 0 || Evq.before (Evq.top q) (Evq.top parts.(!best).queue))
      then best := i
    done;
    !best
  end

let run ?until t =
  if t.phase <> Idle then invalid_arg "Engine.run: engine is already running";
  t.phase <- Seq;
  let multi = Array.length t.parts > 1 in
  if multi then Domain.DLS.set dls_part 0;
  let finish () = t.phase <- Idle in
  (match t.watchdog with
  | Some w -> t.watch_next <- Time.add t.clock w
  | None -> ());
  let rec loop () =
    let i = next_part t in
    if i < 0 then begin
      if live_processes t > 0 then raise (Deadlock (deadlock_report t))
    end
    else begin
      let p = t.parts.(i) in
      match until with
      | Some limit when Time.((Evq.top p.queue).at > limit) ->
        (* Leave the event queued so a later [run] can resume seamlessly. *)
        t.clock <- limit
      | Some _ | None ->
        let ev = Evq.pop p.queue in
        t.clock <- ev.at;
        watchdog_check t ev.at;
        if multi then Domain.DLS.set dls_part i;
        p.pexec <- p.pexec + 1;
        ev.thunk ();
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

(* Reset per-partition driver state and give each partition a private trace
   sink when the engine has one. *)
let setup_partitions t =
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

(* Fold per-partition clocks, counters and trace sinks back into the engine
   after a parallel run. The traces merge in canonical
   (t0, t1, lane, label, kind) order: deterministic for any window schedule
   and any worker count. *)
let teardown_partitions t pool =
  (match pool with Some pool -> Dpool.shutdown pool | None -> ());
  t.phase <- Idle;
  Array.iter
    (fun p ->
      t.clock <- Time.max t.clock p.pclock;
      t.seq <- Stdlib.max t.seq p.pseq)
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
        (fun acc p ->
          if Evq.is_empty p.queue then acc
          else
            let at = (Evq.top p.queue).at in
            match acc with None -> Some at | Some a -> Some (Time.min a at))
        None t.parts
      |> Option.map (fun floor -> Time.add floor lookahead)
    in
    (* Drain one partition's share of the current window. Exceptions (model
       errors, lookahead violations) are stashed per partition and re-raised
       after the barrier. *)
    let exec_partition i =
      let p = t.parts.(i) in
      Domain.DLS.set dls_part i;
      try
        let continue_ = ref true in
        while !continue_ do
          if (not (Evq.is_empty p.queue)) && Time.((Evq.top p.queue).at < t.wend) then begin
            let ev = Evq.pop p.queue in
            p.pclock <- ev.at;
            p.pexec <- p.pexec + 1;
            ev.thunk ()
          end
          else continue_ := false
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
                (fun m -> push_into t t.parts.(m.m_dst) m.m_at m.m_thunk)
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
