(* stencil_dgx64: the per-event hot path. One op runs a 64-GPU cpu-free
   Jacobi stencil (engine dispatch, heap, Sync, Interconnect booking,
   NVSHMEM signalled puts) and the same problem through the host
   Runtime/Stream API (baseline-copy). No collective, cache or sink: the
   control the other workloads' optimisations must leave unchanged. *)

open Util
module Sc = Cpufree_core.Scenario
module H = Cpufree_stencil.Harness
module M = Cpufree_core.Measure

(* (scenario, reference total_ns, reference bytes_moved), taken from main. *)
let cases = function
  | Full ->
    [
      ( "stencil variant=cpu-free dims=2d:4096x4096 iters=200 gpus=64 topology=dgx:8 pdes=seq",
        2334425, 412876800 );
      ( "stencil variant=baseline-copy dims=2d:4096x4096 iters=200 gpus=64 topology=dgx:8 pdes=seq",
        8671800, 412876800 );
    ]
  | Smoke ->
    [
      ("stencil variant=cpu-free dims=2d:512x512 iters=10 gpus=16 topology=dgx:2 pdes=seq", 108779, 614400);
      ("stencil variant=baseline-copy dims=2d:512x512 iters=10 gpus=16 topology=dgx:2 pdes=seq", 414730, 614400);
    ]

type case = { text : string; sc : Sc.t; want_ns : int; want_bytes : int }

type t = {
  cases : case list;
  mutable survey : ((string, int) Hashtbl.t * string option) option;
      (** registry totals of one op's scenarios, taken once per set-up, and
          how the survey's simulated outputs failed the gate *)
}

let parse s = match Sc.of_string s with Ok sc -> sc | Error e -> failwith (s ^ ": " ^ e)

let check c (ns, bytes) =
  first_error
    [
      expect (Sc.to_string c.sc ^ " total_ns") ~want:c.want_ns ~got:ns ~show:string_of_int;
      expect (Sc.to_string c.sc ^ " bytes_moved") ~want:c.want_bytes ~got:bytes ~show:string_of_int;
    ]

let counters =
  [
    "engine.events"; "engine.windows"; "engine.solo_windows"; "fabric.transfers"; "fabric.bytes";
    "nvshmem.puts"; "nvshmem.signal_waits"; "nvshmem.wait_blocked_ns";
  ]

(* One op's scenarios once more, through the calls Exec.run makes
   (Harness.of_scenario, then run_scenario) with a metrics registry
   attached and a span around each: the engine counts every op reports,
   and the traced run's per-layer timings. Its simulated outputs must equal
   the reference too; every op reports a difference. API calls are counted
   on the host-driven half only. *)
let survey t =
  match t.survey with
  | Some s -> s
  | None ->
    let counts = Hashtbl.create 16 in
    let bump name v = Hashtbl.replace counts name (v + Option.value ~default:0 (Hashtbl.find_opt counts name)) in
    let errors =
      List.mapi
      (fun i c ->
        let hsc =
          Span.wrap "stencil.interpret" (fun () ->
              match H.of_scenario { c.sc with Sc.metrics = true } with
              | Ok h -> h
              | Error e -> failwith e)
        in
        let r = Span.wrap "engine.run" (fun () -> H.run_scenario hsc) in
        let reg = Option.get (H.scenario_sim_env hsc).Cpufree_obs.Sim_env.metrics in
        List.iter (fun n -> bump n (metric_sum reg n)) counters;
        if i = 1 then bump "runtime.api_calls" (metric_sum reg "runtime.api_calls");
        Option.map (( ^ ) "with a metrics registry: ")
          (check c (Cpufree_engine.Time.to_ns r.M.total, r.M.bytes_moved)))
      t.cases
    in
    let s = (counts, first_error errors) in
    t.survey <- Some s;
    s

let count t name = Option.value ~default:0 (Hashtbl.find_opt (fst (survey t)) name)

let op t _i =
  let outs, time, alloc =
    measure (fun () ->
        List.map
          (fun c ->
            match Result.bind (Sc.of_string c.text) Cpufree_serve.Exec.run with
            | Ok p -> Ok (p.Cpufree_serve.Protocol.total_ns, p.Cpufree_serve.Protocol.bytes_moved)
            | Error e -> Error e)
          t.cases)
  in
  let error =
    first_error
      (List.map2 (fun c o -> match o with Ok o -> check c o | Error e -> Some e) t.cases outs
      @ [ snd (survey t) ])
  in
  let sim = String.concat ";" (List.map (function Ok (ns, b) -> Printf.sprintf "%d/%d" ns b | Error e -> e) outs) in
  { time; alloc; events = count t "engine.events"; sim; error }

let verify _ = ()

let setup cfg =
  let cases =
    List.map
      (fun (s, ns, bytes) ->
        let bump = if cfg.corrupt then 1 else 0 in
        { text = s; sc = parse s; want_ns = ns + bump; want_bytes = bytes })
      (cases cfg.size)
  in
  let t = { cases; survey = None } in
  (* Warm-up op: the heap grows to its working size before timing. *)
  ignore (List.map (fun c -> Cpufree_serve.Exec.run c.sc) cases);
  t

let clock = Cpu
let teardown _ = None
let traced_ops = function Full -> 4 | Smoke -> 2

(* Counts are per op; timings come from the one survey of the set-up. *)
let layers t _cfg (_ : op list) =
  let c name = float_of_int (count t name) in
  let events = c "engine.events" in
  let run_s = Span.total "engine.run" in
  [
    ("engine.events_per_op", events);
    ("engine.host_ns_per_event", run_s *. 1e9 /. events);
    ("engine.alloc_words_per_event", Span.total_words "engine.run" /. events);
    ("engine.windows_per_op", c "engine.windows");
    ("engine.solo_windows_per_op", c "engine.solo_windows");
    ("gpu.transfers_per_op", c "fabric.transfers");
    ("gpu.bytes_per_op", c "fabric.bytes");
    ("gpu.host_us_per_transfer", run_s *. 1e6 /. c "fabric.transfers");
    ("gpu.api_calls_per_op", c "runtime.api_calls");
    ("comm.puts_per_op", c "nvshmem.puts");
    ("comm.signal_waits_per_op", c "nvshmem.signal_waits");
    ("comm.wait_blocked_sim_ns", c "nvshmem.wait_blocked_ns");
    ("stencil.interpret_ms", Span.total "stencil.interpret" *. 1e3);
  ]
