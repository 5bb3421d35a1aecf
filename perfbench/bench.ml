(* The repository benchmark: runs one seeded workload through the
   libraries' public functions, checks every op's simulated outputs, and
   prints its metrics by name and unit; the last stdout line is one JSON
   object {correct, attempted, failed, metrics}.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--smoke] [--corrupt-reference] [--workdir DIR]
               [--commit ID] [--check-metrics BENCHMARK.json]

   --trace 0 times closed-loop ops for S seconds and reports the end-to-end
   metrics; --trace 1 runs a fixed number of ops untraced, then the same
   ops on a set-up with spans on, and reports the per-layer metrics from
   spans around set-up calls and probes outside the ops. See README.md. *)

open Util

let workloads : (string * (module WORKLOAD)) list =
  [
    ("stencil_dgx64", (module Wl_stencil));
    ("allreduce_1024", (module Wl_allreduce));
    ("dace_autotune", (module Wl_dace));
    ("serve_mix", (module Wl_serve));
  ]

let end_to_end =
  [
    ("setup_s", "s");
    ("op_ms_p50", "ms");
    ("op_ms_p99", "ms");
    ("requests_per_s", "1/s");
    ("events_per_s", "1/s");
    ("alloc_mwords_per_op", "Mwords");
    ("peak_heap_mb", "MB");
  ]

(* Every per-layer metric; a workload whose traced run does not exercise a
   layer reports 0 for it. *)
let per_layer =
  [
    ("engine.events_per_op", "count");
    ("engine.host_ns_per_event", "ns");
    ("engine.alloc_words_per_event", "words");
    ("engine.windows_per_op", "count");
    ("engine.solo_windows_per_op", "count");
    ("machine.instantiate_ms", "ms");
    ("machine.route_rows_cached", "count");
    ("gpu.runtime_create_ms", "ms");
    ("gpu.pairs_resolved", "count");
    ("gpu.route_fill_ms", "ms");
    ("gpu.transfers_per_op", "count");
    ("gpu.bytes_per_op", "bytes");
    ("gpu.host_us_per_transfer", "us");
    ("gpu.api_calls_per_op", "count");
    ("comm.collective_create_ms", "ms");
    ("comm.collective_create_mwords", "Mwords");
    ("comm.allreduce_ms_per_round.tree", "ms");
    ("comm.allreduce_ms_per_round.doubling", "ms");
    ("comm.alloc_words_per_round", "words");
    ("comm.puts_per_op", "count");
    ("comm.signal_waits_per_op", "count");
    ("comm.wait_blocked_sim_ns", "ns");
    ("core.scenario_parse_us", "us");
    ("core.scenario_digest_us", "us");
    ("core.json_encode_ms", "ms");
    ("core.json_decode_ms", "ms");
    ("stencil.interpret_ms", "ms");
    ("dace.frontend_ms", "ms");
    ("dace.candidates_per_op", "count");
    ("dace.build_ms", "ms");
    ("dace.probe_ms", "ms");
    ("obs.metrics_sink_ns_per_event", "ns");
    ("obs.trace_sink_ns_per_event", "ns");
    ("obs.perfetto_export_ms", "ms");
    ("obs.trace_validate_ms", "ms");
    ("obs.metrics_export_ms", "ms");
    ("obs.trace_artifact_mb", "MB");
    ("serve.hit_ms_p50", "ms");
    ("serve.miss_ms_p50", "ms");
    ("serve.stats_rtt_us_p50", "us");
    ("serve.cache_find_us", "us");
    ("serve.exec_ms_per_miss", "ms");
    ("serve.miss_overhead_ms", "ms");
    ("serve.hit_ratio", "ratio");
    ("serve.simulations", "count");
    ("serve.coalesced", "count");
    ("serve.errors", "count");
    ("serve.overloads", "count");
    ("bench.untraced_op_ms", "ms");
    ("bench.traced_op_ms", "ms");
    ("bench.tracing_overhead_pct", "%");
  ]

let setup_reps = function Full -> 5 | Smoke -> 2

type outcome = {
  metrics : (string * float) list;
  ops : op list;
  mismatched : int;
  host : (string * float) list;  (** the host-speed samples behind the scaling *)
}

let failed ops = List.length (List.filter (fun o -> o.error <> None) ops)

let report_errors ops =
  List.iteri
    (fun i o -> Option.iter (Printf.eprintf "op %d FAILED: %s\n%!" i) o.error)
    ops

(* Untraced: set up, run closed-loop ops for [seconds], tear down, then
   set up and tear down again [setup_reps - 1] times; setup_s is the median
   of all set-ups. The extra set-ups come after the ops so that
   peak_heap_mb covers one set-up plus the ops. Before ops the host's speed
   is sampled (Util.Calib): each op's time is scaled by [Calib.ref_s] over
   the latest sample, and setup_s over the median sample. *)
let untraced (module W : WORKLOAD) cfg ~seconds =
  let t, first_setup, _ = measure (fun () -> W.setup cfg) in
  let samples = ref [] and last = ref 0L in
  let start = now_ns () in
  (* Each op paired with the kernel time sampled before it. *)
  let rec loop i acc =
    if i > 0 && since start >= seconds then List.rev acc
    else begin
      if i = 0 || since !last >= Calib.every_s then begin
        samples := Calib.sample () :: !samples;
        last := now_ns ()
      end;
      let c = List.hd !samples in
      loop (i + 1) ((W.op t i, c) :: acc)
    end
  in
  let paired = loop 0 [] in
  let ops = List.map fst paired in
  W.verify t;
  let local_heap = top_heap_bytes () in
  let remote = W.teardown t in
  let extra =
    List.init (setup_reps cfg.size - 1) (fun _ ->
        Gc.full_major ();
        let t, dt, _ = measure (fun () -> W.setup cfg) in
        (dt, W.teardown t))
  in
  let calib = median !samples in
  let times = List.map (fun (o, c) -> o.time *. Calib.ref_s /. c) paired in
  let busy = sum times in
  let n = List.length ops in
  (* A remote system's words during the ops: its total less what a
     set-up-only instance allocates. *)
  let remote_words, heap =
    match remote with
    | None -> (0.0, local_heap)
    | Some (w, h) ->
      let setup_only = List.filter_map (fun (_, r) -> Option.map fst r) extra in
      (Float.max 0.0 (w -. (match setup_only with [] -> 0.0 | l -> median l)), h)
  in
  let metrics =
    [
      ("setup_s", median (first_setup :: List.map fst extra) *. Calib.ref_s /. calib);
      ("op_ms_p50", median times *. 1e3);
      ("op_ms_p99", quantile 0.99 times *. 1e3);
      ("requests_per_s", float_of_int n /. busy);
      ("events_per_s", float_of_int (List.fold_left (fun a o -> a + o.events) 0 ops) /. busy);
      ("alloc_mwords_per_op", (sum (List.map (fun o -> o.alloc) ops) +. remote_words) /. float_of_int n /. 1e6);
      ("peak_heap_mb", heap /. 1e6);
    ]
  in
  let host =
    [ ("calib_ms_p50", calib *. 1e3); ("calib_samples", float_of_int (List.length !samples));
      ("op_ms_p50_unscaled", median (List.map (fun o -> o.time) ops) *. 1e3) ]
  in
  { metrics; ops; mismatched = 0; host }

(* Traced: the same fixed op count untraced and then traced, each pass on a
   fresh set-up; their simulated outputs must agree. *)
let traced (module W : WORKLOAD) cfg =
  let n = W.traced_ops cfg.size in
  let run_ops t = List.rev (List.fold_left (fun acc i -> W.op t i :: acc) [] (List.init n Fun.id)) in
  let t = W.setup cfg in
  let plain = run_ops t in
  W.verify t;
  ignore (W.teardown t);
  Span.on := true;
  let t = W.setup cfg in
  let ops = run_ops t in
  W.verify t;
  let layers = W.layers t cfg ops in
  ignore (W.teardown t);
  Span.on := false;
  let mismatched =
    List.length (List.filter (fun (a, b) -> a.sim <> b.sim) (List.combine plain ops))
  in
  if mismatched > 0 then Printf.eprintf "traced run: %d ops' simulated outputs differ from the untraced run\n%!" mismatched;
  let mean_ms l = mean (List.map (fun o -> o.time) l) *. 1e3 in
  let overhead = [
    ("bench.untraced_op_ms", mean_ms plain);
    ("bench.traced_op_ms", mean_ms ops);
    ("bench.tracing_overhead_pct", ((mean_ms ops /. mean_ms plain) -. 1.0) *. 100.0);
  ] in
  let got = layers @ overhead in
  let metrics = List.map (fun (name, _) -> (name, Option.value ~default:0.0 (List.assoc_opt name got))) per_layer in
  List.iter (fun (name, _) -> if not (List.mem_assoc name per_layer) then failwith ("unlisted per-layer metric " ^ name)) got;
  { metrics; ops = plain @ ops; mismatched; host = [] }

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* Every metric BENCHMARK.json names for this mode must be in the output
   with the same unit, and nothing else. *)
let check_metrics path ~trace (printed : (string * string) list) =
  let ic = open_in_bin path in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let module J = Cpufree_core.Json in
  let key = if trace then "per_layer" else "end_to_end" in
  let listed =
    match Result.map (J.member key) (J.of_string doc) with
    | Ok (Some (J.List l)) ->
      List.map
        (fun m ->
          match (J.member "name" m, J.member "unit" m) with
          | Some (J.String n), Some (J.String u) -> (n, u)
          | _ -> failwith "malformed metric entry")
        l
    | _ -> failwith (path ^ ": no " ^ key ^ " list")
  in
  let missing = List.filter (fun m -> not (List.mem m printed)) listed in
  let extra = List.filter (fun m -> not (List.mem m listed)) printed in
  List.iter (fun (n, u) -> Printf.eprintf "check-metrics: %s (%s) listed but not printed\n" n u) missing;
  List.iter (fun (n, u) -> Printf.eprintf "check-metrics: %s (%s) printed but not listed\n" n u) extra;
  missing = [] && extra = []

let usage =
  "usage: bench.exe --workload stencil_dgx64|allreduce_1024|dace_autotune|serve_mix --seed N \
   --seconds S --trace 0|1 [--smoke] [--corrupt-reference] [--workdir DIR] [--commit ID] \
   [--check-metrics FILE]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke = ref false and corrupt = ref false and workdir = ref "perfbench/_run" in
  let commit = ref "unknown" and check = ref "" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: (("0" | "1") as v) :: r -> trace := int_of_string v; parse r
    | "--smoke" :: r -> smoke := true; parse r
    | "--corrupt-reference" :: r -> corrupt := true; parse r
    | "--workdir" :: v :: r -> workdir := v; parse r
    | "--commit" :: v :: r -> commit := v; parse r
    | "--check-metrics" :: v :: r -> check := v; parse r
    | a :: _ ->
      Printf.eprintf "bench: unexpected argument %S\n%s\n" a usage;
      exit 2
  in
  (try parse (List.tl (Array.to_list Sys.argv))
   with Failure _ ->
     prerr_endline usage;
     exit 2);
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "bench: unknown workload %S\n%s\n" !workload usage;
      exit 2
  in
  (* The baseline the roadmap names: every scenario and environment pins
     seq, and the ambient knob agrees. *)
  Unix.putenv "CPUFREE_PDES" "seq";
  (try Sys.mkdir !workdir 0o755 with Sys_error _ when Sys.file_exists !workdir -> ());
  let size = if !smoke then Smoke else Full in
  let cfg = { size; seed = !seed; corrupt = !corrupt; workdir = !workdir } in
  let traced_mode = !trace = 1 in
  let module W = (val w : WORKLOAD) in
  clock := W.clock;
  let r = if traced_mode then traced w cfg else untraced w cfg ~seconds:!seconds in
  report_errors r.ops;
  let units = if traced_mode then per_layer else end_to_end in
  let attempted = List.length r.ops in
  let nfailed = failed r.ops in
  Printf.printf
    "{\"conditions\":{\"workload\":%S,\"seed\":%d,\"trace\":%d,\"size\":%S,\"ops\":%d,\"seconds\":%s,\
     \"setup_reps\":%d,\"clock\":%S,\"nproc\":%d,\"ocaml\":%S,\"commit\":%S,\"pdes\":\"seq\",\"client_connections\":1,\
     \"serve_selfcheck\":false%s}}\n"
    !workload !seed !trace (if !smoke then "smoke" else "full") attempted (number !seconds)
    (if traced_mode then 1 else setup_reps size)
    (match !clock with Cpu -> "process-cpu" | Wall -> "wall")
    (Domain.recommended_domain_count ()) Sys.ocaml_version !commit
    (String.concat "" (List.map (fun (n, v) -> Printf.sprintf ",%S:%s" n (number v)) r.host));
  List.iter (fun (n, v) -> Printf.printf "  %-40s %16.6g %s\n" n v (List.assoc n units)) r.metrics;
  let body =
    String.concat ","
      (List.map
         (fun (n, v) -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n (number v) (List.assoc n units))
         r.metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (nfailed = 0 && r.mismatched = 0)
    attempted nfailed body;
  if !check <> "" && not (check_metrics !check ~trace:traced_mode (List.map (fun (n, _) -> (n, List.assoc n units)) r.metrics))
  then exit 3
