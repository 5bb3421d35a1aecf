module E = Cpufree_engine
module G = Cpufree_gpu
module F = Cpufree_fault.Fault
module Mx = Cpufree_obs.Metrics
module Time = E.Time

type sym = { slabel : string; bufs : G.Buffer.t array }
type signal = { glabel : string; flags : E.Sync.Flag.t array }
type signal_op = Signal_set | Signal_add

(* Metrics instruments (when the runtime context carries a registry):
   per-source-PE put/byte counters plus run totals for signal traffic,
   blocked-wait time and fault-path events, sharded per engine partition. *)
type instr = {
  m_puts : Mx.Counter.h array; (* indexed by source PE *)
  m_put_bytes : Mx.Counter.h array;
  m_signal_ops : Mx.Counter.h;
  m_signal_waits : Mx.Counter.h;
  m_wait_blocked : Mx.Histogram.h; (* ns a signal wait actually spun *)
  m_retries : Mx.Counter.h;
  m_resends : Mx.Counter.h;
  m_drops : Mx.Counter.h;
}

type t = {
  ctx : G.Runtime.ctx;
  eng : E.Engine.t;
  n : int;
  pending : E.Sync.Flag.t array;  (* outstanding nbi deliveries per PE *)
  barrier : E.Sync.Barrier.t;
  faults : F.plan option;  (* the runtime context's plan, if any *)
  obs : instr option;
  op_seq : int array;  (* per-PE issue counter for deterministic flow ids *)
  mutable next_op : int;
}

let init ctx =
  let eng = G.Runtime.engine ctx in
  let n = G.Runtime.num_gpus ctx in
  let obs =
    match G.Runtime.metrics ctx with
    | None -> None
    | Some reg ->
      let slots = E.Engine.num_partitions eng in
      let per_pe name =
        Array.init n (fun pe ->
            Mx.counter reg ~name ~labels:[ ("pe", string_of_int pe) ] ~slots ())
      in
      Some
        {
          m_puts = per_pe "nvshmem.puts";
          m_put_bytes = per_pe "nvshmem.put_bytes";
          m_signal_ops = Mx.counter reg ~name:"nvshmem.signal_ops" ~slots ();
          m_signal_waits = Mx.counter reg ~name:"nvshmem.signal_waits" ~slots ();
          m_wait_blocked = Mx.histogram reg ~name:"nvshmem.wait_blocked_ns" ~slots ();
          m_retries = Mx.counter reg ~name:"nvshmem.retries" ~slots ();
          m_resends = Mx.counter reg ~name:"nvshmem.resends" ~slots ();
          m_drops = Mx.counter reg ~name:"nvshmem.drops" ~slots ();
        }
  in
  {
    ctx;
    eng;
    n;
    pending = Array.init n (fun i -> E.Sync.Flag.create ~name:(Printf.sprintf "pe%d.pending" i) eng 0);
    barrier = E.Sync.Barrier.create ~name:"nvshmem.barrier_all" eng n;
    faults = G.Runtime.faults ctx;
    obs;
    op_seq = Array.make n 0;
    next_op = 0;
  }

let slot t = E.Engine.current_partition t.eng

let bump t sel =
  match t.obs with None -> () | Some o -> Mx.Counter.incr ~slot:(slot t) (sel o)

let note_put t ~from_pe ~bytes =
  match t.obs with
  | None -> ()
  | Some o ->
    let s = slot t in
    Mx.Counter.incr ~slot:s o.m_puts.(from_pe);
    Mx.Counter.add ~slot:s o.m_put_bytes.(from_pe) bytes

let count_resends t k =
  match t.obs with None -> () | Some o -> Mx.Counter.add ~slot:(slot t) o.m_resends k

(* Lost-delivery registry keys: a dropped put+signal is filed under the
   destination flag instance its arrival would have raised (that flag's
   resilient waiter recovers it); a dropped plain put under the sender,
   whose [quiet] fence recovers it. *)
let sig_key sig_var ~to_pe = Printf.sprintf "sig:%s@pe%d" sig_var.glabel to_pe
let put_key ~from_pe = Printf.sprintf "put:pe%d" from_pe

let n_pes t = t.n

let check_pe t pe op =
  if pe < 0 || pe >= t.n then invalid_arg (Printf.sprintf "Nvshmem.%s: no such PE %d" op pe)

let sym_malloc t ~label ?phantom elems =
  {
    slabel = label;
    bufs =
      Array.init t.n (fun pe ->
          G.Buffer.create ?phantom ~device:pe ~label:(Printf.sprintf "%s@pe%d" label pe) elems);
  }

let sym_label s = s.slabel

let local s ~pe =
  if pe < 0 || pe >= Array.length s.bufs then
    invalid_arg (Printf.sprintf "Nvshmem.local: no such PE %d" pe);
  s.bufs.(pe)

let signal_malloc t ~label () =
  {
    glabel = label;
    flags =
      Array.init t.n (fun pe ->
          E.Sync.Flag.create ~name:(Printf.sprintf "%s@pe%d" label pe) t.eng 0);
  }

let signal_read s ~pe = E.Sync.Flag.get s.flags.(pe)

let arch t = G.Runtime.arch t.ctx
let net t = G.Runtime.net t.ctx

let issue_overhead t = (arch t).G.Arch.nvshmem_put_overhead

let apply_signal sig_var pe op v =
  let flag = sig_var.flags.(pe) in
  match op with
  | Signal_set -> E.Sync.Flag.set flag v
  | Signal_add -> E.Sync.Flag.add flag v

let lane t pe = G.Device.lane (G.Runtime.device t.ctx pe) "nvshmem"

(* Flow-arrow context drawn at issue time, when the trace records flows:
   a deterministic id unique across PEs in sender program order (issue
   index interleaved with the source PE), plus the departure coordinates.
   The per-PE sequence only advances when flows are on, so legacy runs
   stay byte-identical. *)
type flow = { fid : int; src_lane : string; src_t : Time.t }

let flow_ctx t ~from_pe =
  if not (E.Trace.flows_enabled (E.Engine.trace t.eng)) then None
  else begin
    let fid = (t.op_seq.(from_pe) * t.n) + from_pe in
    t.op_seq.(from_pe) <- t.op_seq.(from_pe) + 1;
    Some { fid; src_lane = lane t from_pe; src_t = E.Engine.now t.eng }
  end

let mark_fault t ~pe ~label =
  let tr = E.Engine.trace t.eng in
  if E.Trace.flows_enabled tr then
    E.Trace.add_instant_opt tr ~lane:(lane t pe) ~label ~at:(E.Engine.now t.eng)

(* One fabric delivery of any put kind, as a record stepped through its
   stages. [Hold] idles out a delayed fate; [Start] opens the delivery; a
   strided put then pays its per-element non-coalescing penalty before
   [Wire], which books the route's ports and sleeps until the last byte
   lands (a contiguous put books at [Start]); [Landed] records the wire
   span and commits the data; a put with a signal waits out the signal
   latency before applying it in [Signal] — NVSHMEM's data-before-signal
   order; [Done] follows the flow arrow's close. *)
type kind = Put | Put_signal | Iput
type stage = Hold | Start | Wire | Landed | Signal | Done

type delivery = {
  kind : kind;
  d_from : int;
  d_to : int;
  src : G.Buffer.t;
  src_pos : int;
  src_stride : int;
  dst : G.Buffer.t;
  dst_pos : int;
  dst_stride : int;
  count : int;  (* elements *)
  sig_var : signal;  (* meaningful for [Put_signal] only *)
  sig_op : signal_op;
  sig_value : int;
  flow : flow option;
  mutable stage : stage;
  mutable hold : Time.t;  (* extra latency of a delayed fate *)
  resend : bool;  (* a waiter's replay of a lost delivery *)
  mutable d0 : Time.t;  (* delivery start, for the flow span *)
  mutable w0 : Time.t;  (* wire start, for the wire span *)
}

(* The label a delivery reports under: its put kind, and the wire span of
   a replayed contiguous put is marked as a resend. *)
let flow_label = function Put -> "putmem_nbi" | Put_signal -> "putmem_signal_nbi" | Iput -> "iput"
let proc_label = function Put -> "putmem_nbi" | Put_signal -> "putmem_signal_nbi" | Iput -> "iput_nbi"

let wire_label d =
  match d.kind, d.resend with
  | Put, true -> "putmem_nbi.resend"
  | Put_signal, true -> "putmem_signal_nbi.resend"
  | (Put | Put_signal | Iput), _ -> flow_label d.kind

let book_wire t d =
  d.w0 <- E.Engine.now t.eng;
  d.stage <- Landed;
  G.Interconnect.book (net t) ~src:(G.Interconnect.Gpu d.d_from) ~dst:(G.Interconnect.Gpu d.d_to)
    ~initiator:G.Interconnect.By_device ~bytes:(d.count * G.Buffer.elem_bytes)

(* The remote arrival, traced as a span on the destination's nvshmem lane
   and tied back to the issuing put by a flow arrow. *)
let close_flow t d =
  d.stage <- Done;
  match d.flow with
  | None -> ()
  | Some f ->
    let d1 = E.Engine.now t.eng in
    let tr = E.Engine.trace t.eng in
    let label = flow_label d.kind in
    E.Trace.add_opt tr ~lane:(lane t d.d_to) ~label:("deliver:" ^ label)
      ~kind:E.Trace.Communication ~t0:d.d0 ~t1:d1;
    E.Trace.add_flow_opt tr ~id:f.fid ~label ~src_lane:f.src_lane ~src_t:f.src_t
      ~dst_lane:(lane t d.d_to) ~dst_t:d1

(* Run the delivery's current stage at the current time. Returns the
   absolute time its next stage is due, or, once [d.stage] is [Done], the
   current time. *)
let step t d =
  let now = E.Engine.now t.eng in
  match d.stage with
  | Hold ->
    d.stage <- Start;
    Time.add now d.hold
  | Start -> (
    d.d0 <- now;
    match d.kind with
    | Iput ->
      d.stage <- Wire;
      Time.add now (Time.scale (arch t).G.Arch.nvshmem_strided_elem (float_of_int d.count))
    | Put | Put_signal -> book_wire t d)
  | Wire -> book_wire t d
  | Landed -> (
    (match E.Engine.trace t.eng with
    | None -> ()
    | Some tr ->
      E.Trace.add tr ~lane:(lane t d.d_from) ~label:(wire_label d) ~kind:E.Trace.Communication
        ~t0:d.w0 ~t1:now);
    match d.kind with
    | Iput ->
      G.Buffer.blit_strided ~src:d.src ~src_pos:d.src_pos ~src_stride:d.src_stride ~dst:d.dst
        ~dst_pos:d.dst_pos ~dst_stride:d.dst_stride ~count:d.count;
      close_flow t d;
      now
    | Put ->
      G.Buffer.blit ~src:d.src ~src_pos:d.src_pos ~dst:d.dst ~dst_pos:d.dst_pos ~len:d.count;
      close_flow t d;
      now
    | Put_signal ->
      G.Buffer.blit ~src:d.src ~src_pos:d.src_pos ~dst:d.dst ~dst_pos:d.dst_pos ~len:d.count;
      d.stage <- Signal;
      Time.add now (arch t).G.Arch.nvshmem_signal)
  | Signal ->
    apply_signal d.sig_var d.d_to d.sig_op d.sig_value;
    close_flow t d;
    now
  | Done -> now

(* Run a delivery asynchronously on behalf of its sender as a stackless
   process that re-arms one step closure, tracking it in the PE's
   outstanding-op counter so that quiet/barrier can drain it. A dropped
   delivery's process ends at once. The process name is formatted only if
   a diagnostic lists it. *)
let deliver_async t d =
  let from_pe = d.d_from in
  E.Sync.Flag.add t.pending.(from_pe) 1;
  t.next_op <- t.next_op + 1;
  let op = t.next_op in
  let (_ : E.Engine.process) =
    E.Engine.spawn_stackless t.eng
      ~lazy_name:(fun () -> Printf.sprintf "nvshmem.%s.pe%d.%d" (proc_label d.kind) from_pe op)
      ~partition:(G.Runtime.gpu_partition t.ctx from_pe)
      (fun proc ->
        let rec next () =
          let at = step t d in
          match d.stage with
          | Done -> E.Sync.Flag.add t.pending.(from_pe) (-1)
          | Hold | Start | Wire | Landed | Signal ->
            E.Engine.sleep_until t.eng proc at next
        in
        next ())
  in
  ()

(* A waiter's replay of a lost delivery: the same stages, driven by
   blocking delays of the waiter's own process, on a copy of the dropped
   record — the dropped delivery's own process may not have run yet when
   a waiter replays it in the same instant. *)
let replay t lost () =
  let d = { lost with stage = Start; resend = true } in
  while d.stage <> Done do
    let at = step t d in
    if d.stage <> Done then E.Engine.delay t.eng (Time.sub at (E.Engine.now t.eng))
  done

(* The fate of the sender's next delivery, drawn (deterministically, in the
   sender's program order) at issue time. *)
let draw_fate t ~from_pe =
  match t.faults with None -> F.Deliver | Some plan -> F.delivery_fate plan ~from_pe

(* Fail-stop: whether the issuing PE's scheduled death has passed. A dead
   PE initiates nothing — its puts and signal updates are suppressed before
   any cost, fate draw or registry entry, so to every peer it simply goes
   silent (the resilient waiter diagnoses it from the schedule). A pure
   function of (spec, now), hence identical under every PDES driver; false
   without fail-stop clauses, keeping those runs byte-identical. *)
let sender_dead t ~pe =
  match t.faults with
  | None -> false
  | Some plan ->
    let spec = F.spec_of plan in
    F.has_failstop spec && F.dead spec ~pe ~now:(E.Engine.now t.eng)

(* Issue a delivery according to its fate: now, after an extra delay, or
   never. A dropped delivery still drains the sender's queue slot (so
   quiet on an unrelated path does not hang forever on a ghost op) and is
   filed for retransmission by whoever waits on what it carried: the
   destination flag's resilient waiter for a put+signal, the sender's
   [quiet] fence for a plain put. *)
let dispatch t d =
  match draw_fate t ~from_pe:d.d_from with
  | F.Deliver -> deliver_async t d
  | F.Delayed hold ->
    d.stage <- Hold;
    d.hold <- hold;
    deliver_async t d
  | F.Dropped ->
    bump t (fun o -> o.m_drops);
    mark_fault t ~pe:d.d_from ~label:("fault:drop:" ^ flow_label d.kind);
    let key =
      match d.kind with
      | Put_signal -> sig_key d.sig_var ~to_pe:d.d_to
      | Put | Iput -> put_key ~from_pe:d.d_from
    in
    F.record_lost (Option.get t.faults) ~key (replay t d);
    d.stage <- Done;
    deliver_async t d

let no_signal = { glabel = ""; flags = [||] }

(* Issue a device-initiated put of [count] elements: checks, the sender's
   issue overhead and counters, then the delivery. *)
let put t ~kind ~op ~from_pe ~to_pe ~src ~src_pos ~src_stride ~dst ~dst_pos ~dst_stride ~count
    ~sig_var ~sig_op ~sig_value =
  check_pe t from_pe op;
  check_pe t to_pe op;
  if not (sender_dead t ~pe:from_pe) then begin
    E.Engine.delay t.eng (issue_overhead t);
    note_put t ~from_pe ~bytes:(count * G.Buffer.elem_bytes);
    dispatch t
      {
        kind;
        d_from = from_pe;
        d_to = to_pe;
        src;
        src_pos;
        src_stride;
        dst = local dst ~pe:to_pe;
        dst_pos;
        dst_stride;
        count;
        sig_var;
        sig_op;
        sig_value;
        flow = flow_ctx t ~from_pe;
        stage = Start;
        hold = Time.zero;
        resend = false;
        d0 = Time.zero;
        w0 = Time.zero;
      }
  end

let putmem_nbi t ~from_pe ~to_pe ~src ~src_pos ~dst ~dst_pos ~len =
  put t ~kind:Put ~op:"put" ~from_pe ~to_pe ~src ~src_pos ~src_stride:1 ~dst ~dst_pos
    ~dst_stride:1 ~count:len ~sig_var:no_signal ~sig_op:Signal_add ~sig_value:0

let putmem_signal_nbi t ~from_pe ~to_pe ~src ~src_pos ~dst ~dst_pos ~len ~sig_var ~sig_op
    ~sig_value =
  put t ~kind:Put_signal ~op:"put" ~from_pe ~to_pe ~src ~src_pos ~src_stride:1 ~dst ~dst_pos
    ~dst_stride:1 ~count:len ~sig_var ~sig_op ~sig_value

let iput_nbi t ~from_pe ~to_pe ~src ~src_pos ~src_stride ~dst ~dst_pos ~dst_stride ~count =
  put t ~kind:Iput ~op:"iput" ~from_pe ~to_pe ~src ~src_pos ~src_stride ~dst ~dst_pos ~dst_stride
    ~count ~sig_var:no_signal ~sig_op:Signal_add ~sig_value:0

let p t ~from_pe ~to_pe ~value ~dst ~dst_pos =
  check_pe t from_pe "p";
  check_pe t to_pe "p";
  if sender_dead t ~pe:from_pe then ()
  else begin
  E.Engine.delay t.eng (issue_overhead t);
  note_put t ~from_pe ~bytes:G.Buffer.elem_bytes;
  G.Interconnect.transfer (net t) ~src:(G.Interconnect.Gpu from_pe)
    ~dst:(G.Interconnect.Gpu to_pe) ~initiator:G.Interconnect.By_device
    ~bytes:G.Buffer.elem_bytes ~trace_lane:(lane t from_pe) ~label:"p" ();
  G.Buffer.set (local dst ~pe:to_pe) dst_pos value
  end

let quiet t ~pe =
  check_pe t pe "quiet";
  E.Sync.Flag.wait_until t.pending.(pe) (fun v -> v = 0);
  (* The fence knows its plain (signal-less) puts never completed — the
     NIC reports undelivered queue slots — so it retransmits them before
     declaring the PE quiet, charging itself the wire time. *)
  match t.faults with
  | None -> ()
  | Some plan -> (
    match F.recover_lost plan ~key:(put_key ~from_pe:pe) with
    | [] -> ()
    | lost ->
      F.note_resent plan (List.length lost);
      count_resends t (List.length lost);
      mark_fault t ~pe ~label:"fault:resend:quiet";
      List.iter (fun resend -> resend ()) lost)

(* Wire latency a fabric signal rides: the routed path between the PEs (the
   NVLink hop on a single switch, NIC + IB on an inter-node pair); a PE
   signalling itself still loops through the fabric at the cheapest pair
   latency, as the flat model charged. *)
let signal_wire t ~from_pe ~to_pe =
  let net = net t in
  if from_pe = to_pe then G.Interconnect.min_gpu_wire_latency net
  else
    G.Interconnect.wire_latency net ~src:(G.Interconnect.Gpu from_pe)
      ~dst:(G.Interconnect.Gpu to_pe)

let signal_op_remote t ~from_pe ~to_pe ~sig_var ~sig_op ~sig_value =
  check_pe t from_pe "signal_op";
  check_pe t to_pe "signal_op";
  if sender_dead t ~pe:from_pe then ()
  else begin
  (* Ordered after prior puts from this PE: fence by waiting for them. *)
  quiet t ~pe:from_pe;
  bump t (fun o -> o.m_signal_ops);
  let a = arch t in
  let wire () =
    E.Engine.delay t.eng
      (Time.add
         (G.Interconnect.fault_hold (net t) ~src:(G.Interconnect.Gpu from_pe)
            ~dst:(G.Interconnect.Gpu to_pe))
         (Time.add a.G.Arch.gpu_initiated_latency
            (Time.add (signal_wire t ~from_pe ~to_pe) a.G.Arch.nvshmem_signal)))
  in
  match draw_fate t ~from_pe with
  | F.Deliver ->
    wire ();
    apply_signal sig_var to_pe sig_op sig_value
  | F.Delayed d ->
    wire ();
    E.Engine.delay t.eng d;
    apply_signal sig_var to_pe sig_op sig_value
  | F.Dropped ->
    (* The update vanishes in the fabric; the issue cost was paid. File it
       for the destination's resilient waiter. *)
    bump t (fun o -> o.m_drops);
    mark_fault t ~pe:from_pe ~label:"fault:drop:signal_op";
    F.record_lost (Option.get t.faults)
      ~key:(sig_key sig_var ~to_pe)
      (fun () ->
        wire ();
        apply_signal sig_var to_pe sig_op sig_value)
  end

(* Timeout/retry/resend wait (fault runs only): each timeout first asks the
   fabric to retransmit any delivery lost on the way to this flag, then
   backs off; a wait that exhausts its retries raises a fully diagnosed
   {!Cpufree_engine.Engine.Stall} instead of spinning forever. *)
let resilient_wait t ~pe ~waits_on ~plan ~sig_var pred =
  let spec = F.spec_of plan in
  let flag = sig_var.flags.(pe) in
  let key = sig_key sig_var ~to_pe:pe in
  let started = E.Engine.now t.eng in
  let rec attempt retries timeout =
    let deadline = Time.add (E.Engine.now t.eng) timeout in
    match E.Sync.Flag.await ?waits_on flag ~deadline pred with
    | `Ok -> ()
    | `Timeout -> (
      match F.recover_lost plan ~key with
      | [] -> (
        (* Nothing to replay. Before pacing another retry, consult the
           fail-stop schedule: a peer whose death has passed will never
           supply this signal, so retrying is futile — diagnose the kill
           instead. The check is a pure function of (spec, now), making
           the detection round identical under every PDES driver; without
           fail-stop clauses it is compiled out of the path entirely. *)
        match
          if F.has_failstop spec then F.killed_by spec ~now:(E.Engine.now t.eng) else []
        with
        | (dead_pe, at) :: _ as dead ->
          List.iter (fun (dpe, dat) -> F.note_obituary plan ~pe:dpe ~at:dat) dead;
          mark_fault t ~pe ~label:(Printf.sprintf "fault:kill:pe%d" dead_pe);
          raise (F.Killed { pe = dead_pe; at })
        | [] ->
        if retries >= spec.F.max_retries then
          raise
            (E.Engine.Stall
               (E.Engine.stall_report t.eng
                  ~trigger:
                    (Printf.sprintf
                       "signal %s@pe%d: %d retries exhausted after %s (value %d)"
                       sig_var.glabel pe retries
                       (Time.to_string (Time.sub (E.Engine.now t.eng) started))
                       (E.Sync.Flag.get flag))))
        else begin
          F.note_retry plan;
          bump t (fun o -> o.m_retries);
          mark_fault t ~pe ~label:("fault:retry:" ^ sig_var.glabel);
          attempt (retries + 1) (Time.scale timeout spec.F.backoff)
        end)
      | lost ->
        (* Replay lost deliveries — data first, then signal, as the
           originals would have arrived — charging the retransmission
           wire time to the recovering waiter. *)
        F.note_resent plan (List.length lost);
        count_resends t (List.length lost);
        mark_fault t ~pe ~label:("fault:resend:" ^ sig_var.glabel);
        List.iter (fun resend -> resend ()) lost;
        F.note_retry plan;
        bump t (fun o -> o.m_retries);
        attempt (retries + 1) (Time.scale timeout spec.F.backoff))
  in
  attempt 0 spec.F.retry_timeout

let signal_wait_until t ?expect_from ~pe ~sig_var pred =
  check_pe t pe "signal_wait";
  bump t (fun o -> o.m_signal_waits);
  let flag = sig_var.flags.(pe) in
  let blocked = not (pred (E.Sync.Flag.get flag)) in
  let t0 = E.Engine.now t.eng in
  let waits_on = if blocked then Option.map G.Runtime.gpu_group expect_from else None in
  (match t.faults with
  | Some plan when blocked && F.is_active (F.spec_of plan) ->
    resilient_wait t ~pe ~waits_on ~plan ~sig_var pred
  | Some _ | None -> E.Sync.Flag.wait_until ?waits_on flag pred);
  (* A wait that actually spun pays the remote-write detection latency. *)
  if blocked then begin
    E.Engine.delay t.eng (arch t).G.Arch.nvshmem_wait_latency;
    match t.obs with
    | None -> ()
    | Some o ->
      Mx.Histogram.observe ~slot:(slot t) o.m_wait_blocked
        (Time.to_ns (Time.sub (E.Engine.now t.eng) t0))
  end

let signal_wait_ge t ?expect_from ~pe ~sig_var v =
  signal_wait_until t ?expect_from ~pe ~sig_var (fun x -> x >= v)

let barrier_all t ~pe =
  check_pe t pe "barrier_all";
  quiet t ~pe;
  let a = arch t in
  (* A fabric-wide barrier must cover the machine's worst routed GPU pair —
     on a single switch that is the NVLink hop (as the flat model charged);
     on a cluster it is the inter-node path. *)
  E.Engine.delay t.eng
    (Time.add (G.Interconnect.max_gpu_wire_latency (net t)) a.G.Arch.nvshmem_signal);
  E.Sync.Barrier.wait t.barrier

let pending t ~pe =
  check_pe t pe "pending";
  E.Sync.Flag.get t.pending.(pe)

let faults t = t.faults

let now t = E.Engine.now t.eng

let signal_bump t ~pe ~sig_var v =
  check_pe t pe "signal_bump";
  E.Sync.Flag.add sig_var.flags.(pe) v
