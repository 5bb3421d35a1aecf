(* dace_autotune: the compiler and the probe's pinned windowed driver. One
   op runs the profitability search over three programs; every candidate
   is built through the whole dace pass pipeline and probed on a
   partitioned engine under CPUFREE_PDES=windowed semantics — the only
   workload on that path, and the one where pass and driver changes show.
   The dace models are not declared isolated, so run_windowed falls back
   to the sequential loop over the partitions; engine.windows_per_op
   reports whether that changes. *)

open Util
module D = Cpufree_dace
module M = Cpufree_core.Measure
module Time = Cpufree_engine.Time

type program = {
  label : string;
  frontend : unit -> D.Sdfg.t;
  gpus : int;
  iterations : int;
  want_plan : string;  (** reference chosen plan and its predicted cost, from main *)
  want_ns : int;
}

let programs = function
  | Full ->
    [
      {
        label = "heat3d/nvshmem";
        frontend =
          (fun () ->
            D.Pipeline.frontend
              (D.Pipeline.Heat3d { D.Programs.nx3 = 128; ny3 = 128; nz3 = 128; tsteps3 = 200 })
              D.Pipeline.Cpu_free ~gpus:16);
        gpus = 16;
        iterations = 200;
        want_plan = "persistent+relax x16";
        want_ns = 4635200;
      };
      {
        label = "jacobi2d/mpi";
        frontend =
          (fun () ->
            D.Pipeline.frontend
              (D.Pipeline.Jacobi2d { D.Programs.nx_global = 4096; ny_global = 4096; tsteps = 100 })
              D.Pipeline.Baseline_mpi ~gpus:16);
        gpus = 16;
        iterations = 100;
        want_plan = "gpu+fusion x16";
        want_ns = 83311959;
      };
      {
        label = "smoother/global";
        frontend = (fun () -> D.Programs.smoother_global { D.Programs.sm_n = 1 lsl 20; sm_steps = 32 });
        gpus = 8;
        iterations = 32;
        want_plan = "shard+persistent+relax+specialize-tb x8";
        want_ns = 1220000;
      };
    ]
  | Smoke ->
    [
      {
        label = "heat3d/nvshmem";
        frontend =
          (fun () ->
            D.Pipeline.frontend
              (D.Pipeline.Heat3d { D.Programs.nx3 = 32; ny3 = 32; nz3 = 32; tsteps3 = 10 })
              D.Pipeline.Cpu_free ~gpus:4);
        gpus = 4;
        iterations = 10;
        want_plan = "persistent+relax+specialize-tb x4";
        want_ns = 193380;
      };
      {
        label = "jacobi2d/mpi";
        frontend =
          (fun () ->
            D.Pipeline.frontend
              (D.Pipeline.Jacobi2d { D.Programs.nx_global = 256; ny_global = 256; tsteps = 10 })
              D.Pipeline.Baseline_mpi ~gpus:4);
        gpus = 4;
        iterations = 10;
        want_plan = "host x4";
        want_ns = 1827488;
      };
      {
        label = "smoother/global";
        frontend = (fun () -> D.Programs.smoother_global { D.Programs.sm_n = 1 lsl 16; sm_steps = 8 });
        gpus = 4;
        iterations = 8;
        want_plan = "host x1";
        want_ns = 109188;
      };
    ]

type counts = { events : int; windows : int; solo : int; candidates : int }

type t = {
  progs : (program * D.Sdfg.t) list;
  corrupt : bool;
  mutable counts : counts option;  (** per op, counted once *)
}

let search (p, sdfg) =
  match D.Autotune.search sdfg ~gpus:p.gpus ~iterations:p.iterations with
  | Ok d -> Ok (D.Autotune.plan_to_string d.D.Autotune.best, Time.to_ns d.D.Autotune.predicted)
  | Error e -> Error (p.label ^ ": " ^ e)

let build plan sdfg =
  match D.Autotune.build plan sdfg with
  | built -> Some built
  | exception Invalid_argument _ -> None
  | exception D.Exec.Lowering_error _ -> None

(* Every candidate of every program once more, through the public steps of
   the search: a span around each Autotune.build and each Measure.probe_env
   (the traced run's per-layer timings), then an untimed run on the probe's
   driver with a metrics registry attached for the engine counts every op
   reports. Taken once per set-up. *)
let survey t =
  match t.counts with
  | Some c -> c
  | None ->
    let zero = { events = 0; windows = 0; solo = 0; candidates = 0 } in
    let c =
      List.fold_left
        (fun acc (p, sdfg) ->
          match D.Autotune.candidates sdfg ~gpus:p.gpus with
          | Error _ -> acc
          | Ok plans ->
            List.fold_left
              (fun acc plan ->
                match Span.wrap "dace.build" (fun () -> build plan sdfg) with
                | None -> acc
                | Some built ->
                  let label = D.Autotune.plan_to_string plan and gpus = plan.D.Autotune.gpus_used in
                  let program = built.D.Exec.program in
                  ignore
                    (Span.wrap "dace.probe" (fun () -> M.probe_env ~label ~gpus ~iterations:p.iterations program)
                      : Time.t);
                  let reg = Cpufree_obs.Metrics.create () in
                  let env = Cpufree_core.Sim_env.make ~metrics:reg ~pdes:`Windowed () in
                  ignore (M.run_env ~env ~label ~gpus ~iterations:p.iterations program : M.result);
                  {
                    events = acc.events + metric_sum reg "engine.events";
                    windows = acc.windows + metric_sum reg "engine.windows";
                    solo = acc.solo + metric_sum reg "engine.solo_windows";
                    candidates = acc.candidates + 1;
                  })
              acc plans)
        zero t.progs
    in
    t.counts <- Some c;
    c

let op t _i =
  let outs, time, alloc = measure (fun () -> List.map search t.progs) in
  let bump = if t.corrupt then 1 else 0 in
  let error =
    first_error
      (List.map2
         (fun (p, _) o ->
           match o with
           | Error e -> Some e
           | Ok (plan, ns) ->
             first_error
               [
                 expect (p.label ^ " plan") ~want:p.want_plan ~got:plan ~show:Fun.id;
                 expect (p.label ^ " predicted ns") ~want:(p.want_ns + bump) ~got:ns ~show:string_of_int;
               ])
         t.progs outs)
  in
  let sim =
    String.concat ";"
      (List.map (function Ok (plan, ns) -> Printf.sprintf "%s=%d" plan ns | Error e -> e) outs)
  in
  { time; alloc; events = (survey t).events; sim; error }

let verify _ = ()

let setup cfg =
  let progs =
    List.map (fun p -> (p, Span.wrap "dace.frontend" p.frontend)) (programs cfg.size)
  in
  let t = { progs; corrupt = cfg.corrupt; counts = None } in
  (* Warm-up op: the heap grows to its working size before timing. *)
  ignore (List.map search progs);
  t

let clock = Cpu
let teardown _ = None
let traced_ops = function Full -> 3 | Smoke -> 2

(* Counts are per op; timings come from the one survey of the set-up. *)
let layers t _cfg (_ : op list) =
  let c = survey t in
  let probe_s = Span.total "dace.probe" in
  let events = float_of_int c.events in
  [
    ("engine.events_per_op", events);
    ("engine.host_ns_per_event", probe_s *. 1e9 /. events);
    ("engine.alloc_words_per_event", Span.total_words "dace.probe" /. events);
    ("engine.windows_per_op", float_of_int c.windows);
    ("engine.solo_windows_per_op", float_of_int c.solo);
    ("dace.frontend_ms", Span.total "dace.frontend" *. 1e3);
    ("dace.candidates_per_op", float_of_int c.candidates);
    ("dace.build_ms", Span.total "dace.build" *. 1e3);
    ("dace.probe_ms", probe_s *. 1e3);
  ]
