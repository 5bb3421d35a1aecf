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
   pid, state, registry slot and a name built on demand. A
   parked process resumes through [resume], a thunk built once at spawn
   that continues [cont] (a fiber) or runs [next] (a stackless process), so
   a delay, a sleep or a wake pushes an event without allocating one. *)
type process = {
  pid : int;
  pname : unit -> string;
  daemon : bool;
  group : string option;
  stackless : bool;
  mutable state : state;
  mutable since : Time.t; (* start of the current wait *)
  mutable why : unit -> string; (* reason of the current suspension *)
  mutable on_group : string option; (* wait-for edge of the current suspension *)
  mutable wakes : int; (* suspensions woken so far: a waker acts only once *)
  mutable slot : int; (* index in the registry *)
  mutable cont : (unit, unit) Effect.Deep.continuation; (* a fiber's parked stack *)
  mutable next : unit -> unit; (* a stackless process's next step *)
  mutable resume : unit -> unit;
}

module Evq = struct
  (* A binary min-heap over flat columns: position [i] holds the key
     (times.(i), seqs.(i)) and the index slots.(i) of its thunk
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
    mutable slots : int array;
    mutable thunks : (unit -> unit) array;
  }

  let create () = { size = 0; times = [||]; seqs = [||]; slots = [||]; thunks = [||] }
  let is_empty q = q.size = 0

  let[@inline] before (t : int) (s : int) (t' : int) (s' : int) = t < t' || (t = t' && s < s')

  (* Does position [i]'s key order before position [j]'s? *)
  let[@inline] before_at (times : Time.t array) (seqs : int array) i j =
    before
      (Array.unsafe_get times i :> int)
      (Array.unsafe_get seqs i)
      (Array.unsafe_get times j :> int)
      (Array.unsafe_get seqs j)

  let[@inline] move (times : Time.t array) (seqs : int array) (slots : int array) ~src ~dst =
    Array.unsafe_set times dst (Array.unsafe_get times src);
    Array.unsafe_set seqs dst (Array.unsafe_get seqs src);
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
    q.slots <- Array.init ncap (fun i -> if i < cap then q.slots.(i) else i);
    q.thunks <- extend q.thunks ignore

  let push q ~(at : Time.t) ~seq thunk =
    if q.size = Array.length q.times then grow q;
    let times = q.times and seqs = q.seqs and slots = q.slots in
    let slot = Array.unsafe_get slots q.size in
    Array.unsafe_set q.thunks slot thunk;
    let i = ref q.size in
    q.size <- q.size + 1;
    while
      !i > 0
      &&
      let up = (!i - 1) / 2 in
      before (at :> int) seq (Array.unsafe_get times up :> int) (Array.unsafe_get seqs up)
    do
      let up = (!i - 1) / 2 in
      move times seqs slots ~src:up ~dst:!i;
      i := up
    done;
    Array.unsafe_set times !i at;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i slot

  (* Key of the smallest event; the queue must not be empty. *)
  let top_time q = q.times.(0)

  (* Remove the smallest event and return its thunk. *)
  let pop q =
    if q.size = 0 then invalid_arg "Engine.Evq.pop: empty queue";
    let times = q.times and seqs = q.seqs and slots = q.slots in
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
          let c = if r < n && before_at times seqs r l then r else l in
          if before_at times seqs c n then begin
            move times seqs slots ~src:c ~dst:!i;
            i := c
          end
          else moving := false
        end
      done;
      move times seqs slots ~src:n ~dst:!i
    end;
    Array.unsafe_set slots n top;
    thunk
end

type t = {
  mutable clock : Time.t;
  mutable seq : int; (* tie-break counter: every pushed event takes the next *)
  queue : Evq.t; (* every pending event *)
  mutable running : bool; (* inside [run] *)
  mutable executed : int; (* events executed so far *)
  mutable live : int; (* non-daemon, unfinished processes *)
  mutable procs : process array; (* live processes in [0, nprocs); finished drop out *)
  mutable nprocs : int;
  mutable next_pid : int;
  trace_sink : Trace.t option;
  watchdog : Time.t option;
  mutable watch_next : Time.t; (* next time the watchdog scans for stalls *)
  mutable stall_scan_count : int; (* watchdog scans actually performed *)
}

exception Deadlock of string list

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

let create ?trace ?watchdog () =
  (match watchdog with
  | Some w when Time.(w <= Time.zero) ->
    invalid_arg "Engine.create: watchdog must be positive"
  | Some _ | None -> ());
  {
    clock = Time.zero;
    seq = 0;
    queue = Evq.create ();
    running = false;
    executed = 0;
    live = 0;
    procs = [||];
    nprocs = 0;
    next_pid = 0;
    trace_sink = trace;
    watchdog;
    watch_next = Time.zero;
    stall_scan_count = 0;
  }

let now t = t.clock
let trace t = t.trace_sink

(* Queue an event; seq is unique, so (time, seq) totally orders the queue. *)
let push_at t at thunk =
  t.seq <- t.seq + 1;
  Evq.push t.queue ~at ~seq:t.seq thunk

let schedule_at t at thunk =
  if Time.(at < t.clock) then invalid_arg "Engine.schedule_at: time in the past";
  push_at t at thunk

let delay_reason () = "delay"

(* The registry: the engine keeps its live processes packed in
   [procs.(0 .. nprocs-1)], each knowing its slot, so enrolling and
   dropping one is O(1) and the array never outgrows the peak live count. *)
let enroll t proc =
  let n = t.nprocs in
  if n = Array.length t.procs then begin
    let grown = Array.make (Stdlib.max 16 (2 * n)) proc in
    Array.blit t.procs 0 grown 0 n;
    t.procs <- grown
  end;
  t.procs.(n) <- proc;
  proc.slot <- n;
  t.nprocs <- n + 1

let unenroll t proc =
  let n = t.nprocs - 1 in
  let last = t.procs.(n) in
  t.procs.(proc.slot) <- last;
  last.slot <- proc.slot;
  t.nprocs <- n

let finish_process t proc =
  proc.state <- Finished;
  proc.next <- ignore;
  if not proc.daemon then t.live <- t.live - 1;
  (* Drop the record so long sweeps don't retain one per spawned kernel;
     [blocked_descriptions] only ever reports live processes. *)
  unenroll t proc

(* Park the running process until [at]: its [resume] is the event. *)
let sleep_proc t proc at =
  proc.state <- Delayed;
  proc.since <- t.clock;
  push_at t at proc.resume

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
      push_at t t.clock proc.resume
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
            sleep_proc t proc (Time.add t.clock d);
            park
          | Suspend (eng, reason, waits_on, register) when eng == t ->
            proc.state <- Suspended;
            proc.since <- t.clock;
            proc.why <- reason;
            proc.on_group <- waits_on;
            register (wake proc.wakes);
            park
          | _ -> None);
    }

(* Register a new process (pid, live count, registry slot) and queue
   [start] as its first event at the current time. [resume] builds the
   process's resume thunk from its record. *)
let register t ~name ~daemon ~group ~stackless ~resume start =
  t.next_pid <- t.next_pid + 1;
  let proc =
    {
      pid = t.next_pid;
      pname = name;
      daemon;
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
  if not daemon then t.live <- t.live + 1;
  enroll t proc;
  push_at t t.clock (start proc);
  proc

let name_of name lazy_name =
  match (name, lazy_name) with
  | _, Some f -> f
  | Some n, None -> fun () -> n
  | None, None -> fun () -> "proc"

let spawn t ?name ?lazy_name ?(daemon = false) ?group body =
  register t ~name:(name_of name lazy_name) ~daemon ~group ~stackless:false
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

let spawn_stackless t ?name ?lazy_name body =
  register t ~name:(name_of name lazy_name) ~daemon:false ~group:None ~stackless:true
    ~resume:(run_step t) (fun proc ->
      proc.next <- (fun () -> body proc);
      proc.resume)

let sleep_until t proc at k =
  if not proc.stackless then invalid_arg "Engine.sleep_until: not a stackless process";
  (match proc.state with
  | Running -> ()
  | Ready | Delayed | Suspended | Finished ->
    invalid_arg "Engine.sleep_until: process is not running");
  if Time.(at < t.clock) then invalid_arg "Engine.sleep_until: time in the past";
  proc.next <- k;
  sleep_proc t proc at

let process_name p = p.pname ()
let process_done p = p.state = Finished

let delay t d = Effect.perform (Delay (t, d))
let yield t = delay t Time.zero

let suspend t ~reason ?waits_on register =
  Effect.perform (Suspend (t, reason, waits_on, register))

let process_group p = p.group

let live_processes t = t.live
let events_executed t = t.executed
let stall_scans t = t.stall_scan_count
let registered_processes t = t.nprocs

(* Parked non-daemon processes, sorted by pid. *)
let blocked_procs t =
  let acc = ref [] in
  for i = 0 to t.nprocs - 1 do
    let proc = t.procs.(i) in
    match proc.state with
    | (Delayed | Suspended) when not proc.daemon -> acc := proc :: !acc
    | Delayed | Suspended | Ready | Running | Finished -> ()
  done;
  List.sort (fun a b -> Int.compare a.pid b.pid) !acc

(* The wait-for edge of a parked process: only a suspension declares one. *)
let waits_on proc = match proc.state with Suspended -> proc.on_group | _ -> None

let blocked_descriptions t =
  blocked_procs t
  |> List.map (fun proc ->
         (* "p0" is the partition column of the reports the removed
            partitioned driver printed; kept so stall and deadlock captures
            stay byte-identical. *)
         let where = match proc.group with Some g -> " [p0 " ^ g ^ "]" | None -> " [p0]" in
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

let stall_report t ~trigger =
  {
    stall_at = t.clock;
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

(* Amortized stall scan: only look when the
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
  if t.running then invalid_arg "Engine.run: engine is already running";
  t.running <- true;
  (match t.watchdog with
  | Some w -> t.watch_next <- Time.add t.clock w
  | None -> ());
  let q = t.queue in
  let rec loop () =
    if Evq.is_empty q then begin
      if t.live > 0 then raise (Deadlock (deadlock_report t))
    end
    else begin
      let at = Evq.top_time q in
      match until with
      | Some limit when Time.(at > limit) ->
        (* Leave the event queued so a later [run] can resume seamlessly. *)
        t.clock <- limit
      | Some _ | None ->
        let thunk = Evq.pop q in
        t.clock <- at;
        watchdog_check t at;
        t.executed <- t.executed + 1;
        thunk ();
        loop ()
    end
  in
  Fun.protect ~finally:(fun () -> t.running <- false) loop

let elapse t f =
  let t0 = now t in
  f ();
  Time.sub (now t) t0
