(* Benchmark harness: regenerates every figure of the paper's evaluation on
   the simulated 8x A100 machine and prints the same series the paper plots.

   Every figure sweep is a list of independent scenarios (each owns its own
   engine) executed on the Parallel domain pool, so the harness scales with
   host cores while the simulated results stay bit-identical to a
   sequential run. Pool size: CPUFREE_JOBS env var, default the host core
   count. Wall-clock chatter goes to stderr so stdout is byte-identical
   across pool sizes.

   Run: dune exec bench/main.exe            (all figures)
        dune exec bench/main.exe -- quick   (skip the largest sweeps)
        dune exec bench/main.exe -- json    (also write BENCH_results.json)
        dune exec bench/main.exe -- bechamel (also run wall-clock microbenches)

   Figure index (see DESIGN.md / EXPERIMENTS.md):
     fig2.1b  timeline of the CPU-controlled overlapping stencil
     fig2.2a  pure communication+synchronization overhead (no compute)
     fig2.2b  communication overlap ratio and total time
     fig5.1b  timeline of the distributed DaCe MPI baseline
     fig6.1   2D Jacobi weak scaling (small / medium / large)
     fig6.2   3D Jacobi weak scaling, no-compute, strong scaling
     fig6.3a  DaCe Jacobi 1D baseline vs CPU-Free
     fig6.3b  DaCe Jacobi 2D baseline vs CPU-Free
     headline paper-vs-measured speedup summary *)

module E = Cpufree_engine
module G = Cpufree_gpu
module S = Cpufree_stencil
module D = Cpufree_dace
module Measure = Cpufree_core.Measure
module Parallel = Cpufree_core.Parallel
module J = Cpufree_core.Json
module Metrics = Cpufree_comm.Metrics
module Time = E.Time
module Serve = Cpufree_serve
module Scenario = Cpufree_core.Scenario

let gpu_counts = [ 1; 2; 4; 8 ]
let iterations = 50

let us t = Time.to_us_float t
let ms t = Time.to_ms_float t

let wall () = Unix.gettimeofday ()

let header title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n%!"

let stencil_variants = S.Variants.all

(* ---------------------------------------------------------------- *)
(* JSON result collection (`-- json` mode)                           *)
(* ---------------------------------------------------------------- *)

let json_figures : J.t list ref = ref []

(* One JSON point per scenario: simulated times are integer nanoseconds so
   the series is exact, not a formatting artifact. *)
let point ?(extra = []) ~label ~gpus (r : Measure.result) =
  J.Obj
    ([
       ("label", J.String label);
       ("gpus", J.Int gpus);
       ("iterations", J.Int r.Measure.iterations);
       ("total_ns", J.Int (Time.to_ns r.Measure.total));
       ("per_iter_ns", J.Int (Time.to_ns r.Measure.per_iter));
       ("comm_ns", J.Int (Time.to_ns r.Measure.comm));
       ("overlap_pct", J.Float (r.Measure.overlap *. 100.0));
       ("bytes_moved", J.Int r.Measure.bytes_moved);
     ]
    @ extra)

(* Run [f] as one named figure: record its points and wall-clock. *)
let figure name f =
  let t0 = wall () in
  let points, value = f () in
  json_figures :=
    J.Obj
      [
        ("figure", J.String name);
        ("wall_clock_sec", J.Float (wall () -. t0));
        ("points", J.List points);
      ]
    :: !json_figures;
  value

(* ---------------------------------------------------------------- *)
(* Scenario-grid helpers: gpus × variant sweeps through the pool     *)
(* ---------------------------------------------------------------- *)

(* Cross product in row-major (gpus-major) order, matching the printed
   tables; the pool preserves this order in its result list. *)
let stencil_grid ~problem_of =
  let cells =
    List.concat_map
      (fun gpus -> List.map (fun kind -> (gpus, kind)) stencil_variants)
      gpu_counts
  in
  let scenarios =
    List.map (fun (gpus, kind) -> S.Harness.scenario_env kind (problem_of ~gpus ~kind) ~gpus) cells
  in
  List.combine cells (S.Harness.run_many scenarios)

let variant_row_header () =
  Printf.printf "%6s" "gpus";
  List.iter (fun k -> Printf.printf " %18s" (S.Variants.name k)) stencil_variants;
  print_newline ()

(* Print a grid as one row per GPU count, one column per variant, and turn
   it into JSON points. [domain_of] adds the domain column of Fig 6.1. *)
let print_grid ?domain_of grid =
  (match domain_of with
  | None -> variant_row_header ()
  | Some _ ->
    Printf.printf "%6s %14s" "gpus" "domain";
    List.iter (fun k -> Printf.printf " %18s" (S.Variants.name k)) stencil_variants;
    print_newline ());
  List.iter
    (fun gpus ->
      Printf.printf "%6d" gpus;
      (match domain_of with
      | None -> ()
      | Some f -> Printf.printf " %14s" (S.Problem.dims_to_string (f ~gpus)));
      List.iter
        (fun ((_, _), r) -> Printf.printf " %18.2f" (us r.Measure.per_iter))
        (List.filter (fun ((g, _), _) -> g = gpus) grid);
      print_newline ())
    gpu_counts;
  List.map (fun ((gpus, kind), r) -> point ~label:(S.Variants.name kind) ~gpus r) grid

(* ---------------------------------------------------------------- *)
(* Fig 2.1b / 3.1 / 5.1b: timelines                                  *)
(* ---------------------------------------------------------------- *)

let print_filtered_timeline trace =
  let filtered = E.Trace.create () in
  List.iter
    (fun sp ->
      let keep =
        List.exists
          (fun prefix -> String.starts_with ~prefix sp.E.Trace.lane)
          [ "gpu0"; "gpu1"; "host" ]
      in
      if keep then
        E.Trace.add filtered ~lane:sp.E.Trace.lane ~label:sp.E.Trace.label ~kind:sp.E.Trace.kind
          ~t0:sp.E.Trace.t0 ~t1:sp.E.Trace.t1)
    (E.Trace.spans trace);
  print_string (E.Trace.render_ascii ~width:96 filtered)

let timeline_points label (r, trace) =
  [
    point ~label ~gpus:r.Measure.gpus r
      ~extra:[ ("spans", J.Int (List.length (E.Trace.spans trace))) ];
  ]

(* The three timeline figures are single traced scenarios; they still go
   through the pool, as one batch of three. *)
let timelines () =
  let p2d iters = S.Problem.make (S.Problem.D2 { nx = 256; ny = 256 }) ~iterations:iters in
  let run_thunks =
    [
      (fun () -> S.Harness.run_traced_env S.Variants.Overlap (p2d 3) ~gpus:8);
      (fun () -> S.Harness.run_traced_env S.Variants.Cpu_free (p2d 3) ~gpus:8);
      (fun () ->
        let app = D.Pipeline.Jacobi2d { D.Programs.nx_global = 512; ny_global = 512; tsteps = 2 } in
        D.Pipeline.run_traced_env app D.Pipeline.Baseline_mpi ~gpus:4);
    ]
  in
  match Parallel.map (fun f -> f ()) run_thunks with
  | [ overlap; cpu_free; dace ] ->
    figure "fig2.1b" (fun () ->
        header
          "Fig 2.1b  Nsight-style timeline: CPU-controlled overlapping stencil (2D 256^2, 8 \
           GPUs, 3 iterations; 2 devices shown)";
        print_filtered_timeline (snd overlap);
        (timeline_points "baseline-overlap" overlap, ()));
    figure "fig3.1" (fun () ->
        header
          "Fig 3.1 (concept)  CPU-Free execution timeline: one cooperative launch, then only \
           device activity (2D 256^2, 8 GPUs, 3 iterations; 2 devices shown)";
        print_filtered_timeline (snd cpu_free);
        (timeline_points "cpu-free" cpu_free, ()));
    figure "fig5.1b" (fun () ->
        header
          "Fig 5.1b  Timeline: distributed DaCe MPI baseline (Jacobi 2D, 4 GPUs, 2 iterations)";
        print_filtered_timeline (snd dace);
        (timeline_points "dace-baseline" dace, ()))
  | _ -> assert false

(* ---------------------------------------------------------------- *)
(* Fig 2.2: motivation — overheads and overlap                       *)
(* ---------------------------------------------------------------- *)

let fig2_2a () =
  figure "fig2.2a" (fun () ->
      let grid =
        stencil_grid ~problem_of:(fun ~gpus ~kind:_ ->
            let dims = S.Problem.weak_scale (S.Problem.D2 { nx = 256; ny = 256 }) ~gpus in
            S.Problem.make ~compute:false dims ~iterations)
      in
      header
        "Fig 2.2a  Pure communication + synchronization overhead, no computation (2D 256^2 \
         weak scaling, per-iteration time in us)";
      (print_grid grid, ()))

let fig2_2b () =
  figure "fig2.2b" (fun () ->
      let dims = S.Problem.weak_scale (S.Problem.D2 { nx = 256; ny = 256 }) ~gpus:8 in
      let problem = S.Problem.make dims ~iterations in
      let traced =
        S.Harness.run_many_traced
          (List.map (fun kind -> S.Harness.scenario_env kind problem ~gpus:8) stencil_variants)
      in
      header
        "Fig 2.2b  Communication overlap ratio and total execution time (2D 256^2 per GPU, 8 \
         GPUs)";
      Printf.printf "%-22s %12s %14s %12s %12s %14s\n" "variant" "total(ms)" "comm-wall(ms)"
        "overlap(%)" "comm(%)" "non-compute(%)";
      let points =
        List.map2
          (fun kind (r, trace) ->
            let comm_frac = Metrics.comm_fraction trace ~total:r.Measure.total *. 100.0 in
            (* The paper's "communication takes 96% of execution" counts everything
               that is not computation: API calls, synchronization, transfers. *)
            let non_compute =
              let compute = Time.to_sec_float (Metrics.compute_time trace) in
              let total = Time.to_sec_float r.Measure.total in
              if total = 0.0 then 0.0 else (total -. compute) /. total *. 100.0
            in
            Printf.printf "%-22s %12.3f %14.3f %12.1f %12.1f %14.1f\n" (S.Variants.name kind)
              (ms r.Measure.total) (ms r.Measure.comm) (r.Measure.overlap *. 100.0) comm_frac
              non_compute;
            point ~label:(S.Variants.name kind) ~gpus:8 r
              ~extra:
                [
                  ("comm_frac_pct", J.Float comm_frac); ("non_compute_pct", J.Float non_compute);
                ])
          stencil_variants traced
      in
      (points, ()))

(* ---------------------------------------------------------------- *)
(* Fig 6.1: 2D weak scaling, three domain classes                    *)
(* ---------------------------------------------------------------- *)

let weak_scaling_table ~figure_name ~title ~dims_base ~iterations =
  figure figure_name (fun () ->
      let grid =
        stencil_grid ~problem_of:(fun ~gpus ~kind:_ ->
            S.Problem.make (S.Problem.weak_scale dims_base ~gpus) ~iterations)
      in
      header title;
      let points = print_grid ~domain_of:(fun ~gpus -> S.Problem.weak_scale dims_base ~gpus) grid in
      let results = Hashtbl.create 64 in
      List.iter
        (fun ((gpus, kind), r) -> Hashtbl.replace results (S.Variants.name kind, gpus) r)
        grid;
      (points, results))

let fig6_1 () =
  let small =
    weak_scaling_table ~figure_name:"fig6.1.small"
      ~title:"Fig 6.1 (left)  2D Jacobi weak scaling, small domain 256^2/GPU (per-iter us)"
      ~dims_base:(S.Problem.D2 { nx = 256; ny = 256 })
      ~iterations
  in
  let medium =
    weak_scaling_table ~figure_name:"fig6.1.medium"
      ~title:"Fig 6.1 (middle)  2D Jacobi weak scaling, medium domain 2048^2/GPU (per-iter us)"
      ~dims_base:(S.Problem.D2 { nx = 2048; ny = 2048 })
      ~iterations
  in
  let large =
    weak_scaling_table ~figure_name:"fig6.1.large"
      ~title:"Fig 6.1 (right)  2D Jacobi weak scaling, large domain 8192^2/GPU (per-iter us)"
      ~dims_base:(S.Problem.D2 { nx = 8192; ny = 8192 })
      ~iterations
  in
  (small, medium, large)

(* ---------------------------------------------------------------- *)
(* Fig 6.2: 3D Jacobi                                                *)
(* ---------------------------------------------------------------- *)

let fig6_2 () =
  let weak =
    weak_scaling_table ~figure_name:"fig6.2.weak"
      ~title:"Fig 6.2 (left)  3D Jacobi 7pt weak scaling, 256^3/GPU (per-iter us)"
      ~dims_base:(S.Problem.D3 { nx = 256; ny = 256; nz = 256 })
      ~iterations
  in
  figure "fig6.2.nocompute" (fun () ->
      let grid =
        stencil_grid ~problem_of:(fun ~gpus ~kind:_ ->
            let dims =
              S.Problem.weak_scale (S.Problem.D3 { nx = 256; ny = 256; nz = 256 }) ~gpus
            in
            S.Problem.make ~compute:false dims ~iterations)
      in
      header
        "Fig 6.2 (middle)  3D Jacobi no-compute communication time at the largest domain \
         (us/iter)";
      (print_grid grid, ()));
  let strong =
    figure "fig6.2.strong" (fun () ->
        let grid =
          stencil_grid ~problem_of:(fun ~gpus:_ ~kind:_ ->
              S.Problem.make (S.Problem.D3 { nx = 512; ny = 512; nz = 512 }) ~iterations)
        in
        header
          "Fig 6.2 (right)  3D Jacobi strong scaling, constant 512x512x512 domain (per-iter us)";
        let points = print_grid grid in
        let strong = Hashtbl.create 16 in
        List.iter
          (fun ((gpus, kind), r) -> Hashtbl.replace strong (S.Variants.name kind, gpus) r)
          grid;
        (points, strong))
  in
  figure "fig6.2.strong-nocompute" (fun () ->
      let grid =
        stencil_grid ~problem_of:(fun ~gpus:_ ~kind:_ ->
            S.Problem.make ~compute:false (S.Problem.D3 { nx = 512; ny = 512; nz = 512 })
              ~iterations)
      in
      header
        "Fig 6.2 (right, no compute)  strong-scaling communication-only time (per-iter us)";
      (print_grid grid, ()));
  (weak, strong)

(* ---------------------------------------------------------------- *)
(* Fig 6.3: compiler-generated code                                  *)
(* ---------------------------------------------------------------- *)

let dace_arms = [ D.Pipeline.Baseline_mpi; D.Pipeline.Cpu_free ]

(* gpus × arm sweep through the pool, row-major like the tables. *)
let dace_grid ~app_of =
  let cells =
    List.concat_map (fun gpus -> List.map (fun arm -> (gpus, arm)) dace_arms) gpu_counts
  in
  let results = Parallel.map (fun (gpus, arm) -> D.Pipeline.run_env (app_of ~gpus) arm ~gpus) cells in
  List.combine cells results

let fig6_3a () =
  figure "fig6.3a" (fun () ->
      let grid =
        dace_grid ~app_of:(fun ~gpus ->
            D.Pipeline.Jacobi1d { D.Programs.n_global = (1 lsl 23) * gpus; tsteps = iterations })
      in
      header "Fig 6.3a  DaCe Jacobi 1D weak scaling, 2^23 elems/GPU (total ms and comm-wall ms)";
      Printf.printf "%6s %16s %12s %12s %16s %12s %12s\n" "gpus" "" "total" "comm" "" "total"
        "comm";
      let store = Hashtbl.create 16 in
      List.iter
        (fun gpus ->
          Printf.printf "%6d" gpus;
          List.iter
            (fun ((_, arm), r) ->
              Hashtbl.replace store (D.Pipeline.arm_name arm, gpus) r;
              Printf.printf " %16s %12.3f %12.3f" (D.Pipeline.arm_name arm) (ms r.Measure.total)
                (ms r.Measure.comm))
            (List.filter (fun ((g, _), _) -> g = gpus) grid);
          print_newline ())
        gpu_counts;
      let points =
        List.map (fun ((gpus, arm), r) -> point ~label:(D.Pipeline.arm_name arm) ~gpus r) grid
      in
      (points, store))

let fig6_3b () =
  figure "fig6.3b" (fun () ->
      let dims_of gpus = S.Problem.weak_scale (S.Problem.D2 { nx = 2048; ny = 2048 }) ~gpus in
      let grid =
        dace_grid ~app_of:(fun ~gpus ->
            let nx, ny =
              match dims_of gpus with S.Problem.D2 { nx; ny } -> (nx, ny) | _ -> assert false
            in
            D.Pipeline.Jacobi2d { D.Programs.nx_global = nx; ny_global = ny; tsteps = iterations })
      in
      header "Fig 6.3b  DaCe Jacobi 2D weak scaling, 2048^2/GPU (total ms; strided columns)";
      Printf.printf "%6s %14s %16s %12s %16s %12s\n" "gpus" "domain" "" "total" "" "total";
      let store = Hashtbl.create 16 in
      List.iter
        (fun gpus ->
          Printf.printf "%6d %14s" gpus (S.Problem.dims_to_string (dims_of gpus));
          List.iter
            (fun ((_, arm), r) ->
              Hashtbl.replace store (D.Pipeline.arm_name arm, gpus) r;
              Printf.printf " %16s %12.3f" (D.Pipeline.arm_name arm) (ms r.Measure.total))
            (List.filter (fun ((g, _), _) -> g = gpus) grid);
          print_newline ())
        gpu_counts;
      (* Weak-scaling efficiency of the CPU-Free arm (paper: 81.2%). *)
      (match
         (Hashtbl.find_opt store ("dace-cpu-free", 1), Hashtbl.find_opt store ("dace-cpu-free", 8))
       with
      | Some (r1 : Measure.result), Some r8 ->
        Printf.printf "CPU-Free weak scaling efficiency at 8 GPUs: %.1f%%\n"
          (Time.to_sec_float r1.Measure.total /. Time.to_sec_float r8.Measure.total *. 100.0)
      | _ -> ());
      let points =
        List.map (fun ((gpus, arm), r) -> point ~label:(D.Pipeline.arm_name arm) ~gpus r) grid
      in
      (points, store))

(* ---------------------------------------------------------------- *)
(* Fig S: inter- vs intra-node scale-out                             *)
(* ---------------------------------------------------------------- *)

module Topology = Cpufree_machine.Topology

(* The device-initiated arms, where fabric latency is the dominant term and
   the single-switch vs NIC+InfiniBand difference shows undiluted. *)
let scaleout_variants = [ S.Variants.Nvshmem; S.Variants.Cpu_free ]

(* Weak-scale the small 2D domain past one NVSwitch: the same GPU count on a
   single (idealized) switch vs split across DGX nodes at 8 GPUs/node. Halo
   pairs that land on different nodes pay the PCIe attach twice plus the IB
   hop and contend for the NIC, so the gap between the two series is the
   price of scale-out that Figure 6.1 (single-node by construction) cannot
   show. *)
let fig_scaleout ~smoke () =
  figure "fig.scaleout" (fun () ->
      let counts = if smoke then [ 8; 16 ] else [ 8; 16; 32 ] in
      let iters = if smoke then 10 else 20 in
      let base = S.Problem.D2 { nx = 256; ny = 256 } in
      let cells =
        List.concat_map
          (fun gpus ->
            let topologies =
              (Topology.Hgx, 1)
              ::
              (if gpus >= 16 then [ (Topology.Dgx { nodes = gpus / 8 }, gpus / 8) ] else [])
            in
            List.concat_map
              (fun (topology, nodes) ->
                List.map (fun kind -> (gpus, topology, nodes, kind)) scaleout_variants)
              topologies)
          counts
      in
      let scenarios =
        List.map
          (fun (gpus, topology, _nodes, kind) ->
            let dims = S.Problem.weak_scale base ~gpus in
            S.Harness.scenario_env
              ~env:(Cpufree_core.Sim_env.make ~topology ())
              kind (S.Problem.make dims ~iterations:iters) ~gpus)
          cells
      in
      let grid = List.combine cells (S.Harness.run_many scenarios) in
      header
        "Fig S  Scale-out: 2D Jacobi weak scaling, 256^2/GPU, single NVSwitch vs DGX cluster \
         (8 GPUs/node, InfiniBand spine; per-iter us)";
      Printf.printf "%6s %6s %10s" "gpus" "nodes" "topology";
      List.iter (fun k -> Printf.printf " %18s" (S.Variants.name k)) scaleout_variants;
      print_newline ();
      let row_keys =
        List.sort_uniq compare (List.map (fun (g, t, n, _) -> (g, t, n)) cells)
      in
      List.iter
        (fun (gpus, topology, nodes) ->
          Printf.printf "%6d %6d %10s" gpus nodes (Topology.spec_to_string topology);
          List.iter
            (fun ((_, _, _, _), r) -> Printf.printf " %18.2f" (us r.Measure.per_iter))
            (List.filter (fun ((g, t, n, _), _) -> (g, t, n) = (gpus, topology, nodes)) grid);
          print_newline ())
        row_keys;
      let points =
        List.map
          (fun ((gpus, topology, nodes, kind), r) ->
            point ~label:(S.Variants.name kind) ~gpus r
              ~extra:
                [
                  ("topology", J.String (Topology.spec_to_string topology));
                  ("nodes", J.Int nodes);
                ])
          grid
      in
      (points, ()))

(* Documented schema of the fig.scaleout series: every point carries the
   machine shape, and the figure must actually exercise scale-out — at least
   one point with >= 16 GPUs spread across >= 2 nodes. *)
let validate_scaleout_doc doc =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let field kvs name = List.assoc_opt name kvs in
  let point_shape i p =
    match p with
    | J.Obj kvs -> (
      match (field kvs "topology", field kvs "nodes", field kvs "gpus") with
      | Some (J.String _), Some (J.Int _), Some (J.Int _) -> Ok ()
      | _ -> fail "scaleout point %d: needs string \"topology\" and int \"nodes\"/\"gpus\"" i)
    | _ -> fail "scaleout point %d: not an object" i
  in
  let multi_node p =
    match p with
    | J.Obj kvs -> (
      match (field kvs "nodes", field kvs "gpus") with
      | Some (J.Int n), Some (J.Int g) -> n >= 2 && g >= 16
      | _ -> false)
    | _ -> false
  in
  match doc with
  | J.Obj kvs -> (
    match field kvs "figures" with
    | Some (J.List figs) -> (
      let scaleout =
        List.filter_map
          (function
            | J.Obj f when field f "figure" = Some (J.String "fig.scaleout") -> Some f
            | _ -> None)
          figs
      in
      match scaleout with
      | [ fig ] -> (
        match field fig "points" with
        | Some (J.List (_ :: _ as pts)) ->
          let rec go i = function
            | [] -> Ok ()
            | p :: rest -> (match point_shape i p with Ok () -> go (i + 1) rest | e -> e)
          in
          (match go 0 pts with
          | Error _ as e -> e
          | Ok () ->
            if List.exists multi_node pts then Ok ()
            else fail "fig.scaleout has no multi-node point (>= 16 GPUs on >= 2 nodes)")
        | _ -> fail "fig.scaleout: missing or empty points list")
      | l -> fail "expected exactly one fig.scaleout figure, found %d" (List.length l))
    | _ -> fail "document has no figures list")
  | _ -> fail "document is not an object"

(* ---------------------------------------------------------------- *)
(* Fig C: chaos — fault intensity vs completion time / recovery       *)
(* ---------------------------------------------------------------- *)

module Fault = Cpufree_fault.Fault

(* One host-driven scheme, one discrete device-initiated scheme, and the
   persistent CPU-free scheme: the sweep shows how each degrades as the
   fabric gets lossier and one device lags. *)
let chaos_variants = [ S.Variants.Copy; S.Variants.Nvshmem; S.Variants.Cpu_free ]

let chaos_seed = 1234

(* Sweep {!Fault.preset} intensity over the three schemes on a fixed seed.
   Intensity 0 is a fault-free control run through the same chaos machinery
   (plan active, nothing fires), so the "recovery overhead" column reads
   directly as time relative to that row. Every cell is bit-identical across
   repeats and across CPUFREE_PDES modes. *)
let fig_chaos ~smoke () =
  figure "fig.chaos" (fun () ->
      let intensities = if smoke then [ 0.0; 1.0 ] else [ 0.0; 0.5; 1.0; 2.0; 4.0 ] in
      let iters = if smoke then 10 else 30 in
      let gpus = if smoke then 4 else 8 in
      let problem = S.Problem.make (S.Problem.D2 { nx = 512; ny = 512 }) ~iterations:iters in
      let cells =
        List.concat_map (fun i -> List.map (fun k -> (i, k)) chaos_variants) intensities
      in
      let runs =
        Parallel.map
          (fun (intensity, kind) ->
            S.Harness.run_chaos_env
              ~env:(Cpufree_core.Sim_env.make ~faults:(Fault.preset ~intensity)
                      ~fault_seed:chaos_seed ())
              kind problem ~gpus)
          cells
      in
      let grid = List.combine cells runs in
      header
        (Printf.sprintf
           "Fig C  Chaos: 2D Jacobi 512^2 on %d GPUs under injected faults (seed %d); total us \
            (ok|AB), deliveries resent"
           gpus chaos_seed);
      Printf.printf "%9s" "intensity";
      List.iter (fun k -> Printf.printf " %22s" (S.Variants.name k)) chaos_variants;
      print_newline ();
      List.iter
        (fun intensity ->
          Printf.printf "%9.2f" intensity;
          List.iter
            (fun ((i, _), cr) ->
              if i = intensity then begin
                let c = cr.S.Harness.chaos in
                Printf.printf " %12.2f %s r=%-4d" (us c.Measure.base.Measure.total)
                  (if c.Measure.completed then "ok" else "AB")
                  c.Measure.resent
              end)
            grid;
          print_newline ())
        intensities;
      let points =
        List.map
          (fun ((intensity, kind), cr) ->
            let c = cr.S.Harness.chaos in
            let min_progress =
              Array.fold_left Stdlib.min c.Measure.base.Measure.iterations cr.S.Harness.progress
            in
            point ~label:(S.Variants.name kind) ~gpus c.Measure.base
              ~extra:
                [
                  ("intensity", J.Float intensity);
                  ("fault_seed", J.Int chaos_seed);
                  ("completed", J.Bool c.Measure.completed);
                  ("min_progress", J.Int min_progress);
                  ("dropped", J.Int c.Measure.dropped);
                  ("delayed", J.Int c.Measure.delayed);
                  ("resent", J.Int c.Measure.resent);
                  ("retried", J.Int c.Measure.retried);
                ])
          grid
      in
      (points, ()))

(* Documented schema of the fig.chaos series: every point carries the fault
   intensity, seed, completion flag and recovery counters; the sweep must
   include a fault-free control (intensity 0, completed) and at least one
   genuinely faulty point. *)
let validate_chaos_doc doc =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let field kvs name = List.assoc_opt name kvs in
  let point_shape i p =
    match p with
    | J.Obj kvs -> (
      match
        ( field kvs "intensity",
          field kvs "fault_seed",
          field kvs "completed",
          field kvs "dropped",
          field kvs "resent",
          field kvs "retried",
          field kvs "min_progress" )
      with
      | ( Some (J.Float _),
          Some (J.Int _),
          Some (J.Bool _),
          Some (J.Int _),
          Some (J.Int _),
          Some (J.Int _),
          Some (J.Int _) ) ->
        Ok ()
      | _ ->
        fail
          "chaos point %d: needs float \"intensity\", int \"fault_seed\", bool \"completed\", \
           int \"dropped\"/\"resent\"/\"retried\"/\"min_progress\""
          i)
    | _ -> fail "chaos point %d: not an object" i
  in
  let has pred pts = List.exists pred pts in
  let control = function
    | J.Obj kvs ->
      field kvs "intensity" = Some (J.Float 0.0) && field kvs "completed" = Some (J.Bool true)
    | _ -> false
  in
  let faulty = function
    | J.Obj kvs -> (match field kvs "intensity" with Some (J.Float i) -> i > 0.0 | _ -> false)
    | _ -> false
  in
  match doc with
  | J.Obj kvs -> (
    match field kvs "figures" with
    | Some (J.List figs) -> (
      let chaos =
        List.filter_map
          (function
            | J.Obj f when field f "figure" = Some (J.String "fig.chaos") -> Some f
            | _ -> None)
          figs
      in
      match chaos with
      | [ fig ] -> (
        match field fig "points" with
        | Some (J.List (_ :: _ as pts)) ->
          let rec go i = function
            | [] -> Ok ()
            | p :: rest -> (match point_shape i p with Ok () -> go (i + 1) rest | e -> e)
          in
          (match go 0 pts with
          | Error _ as e -> e
          | Ok () ->
            if not (has control pts) then
              fail "fig.chaos has no completed fault-free control point (intensity 0)"
            else if not (has faulty pts) then fail "fig.chaos has no point with intensity > 0"
            else Ok ())
        | _ -> fail "fig.chaos: missing or empty points list")
      | l -> fail "expected exactly one fig.chaos figure, found %d" (List.length l))
    | _ -> fail "document has no figures list")
  | _ -> fail "document is not an object"

(* ---------------------------------------------------------------- *)
(* Fig R: fail-stop kills and checkpoint/restart recovery             *)
(* ---------------------------------------------------------------- *)

let recovery_seed = 77

let recovery_modes : Cpufree_core.Sim_env.pdes list = [ `Seq; `Windowed ]

(* Everything the self-healing layer decides about one run; bit-equality of
   this digest across both PDES drivers is the recovery FATAL gate. *)
let resilient_digest (r : S.Harness.resilient_run) =
  ( Time.to_ns r.S.Harness.r_total,
    Time.to_ns r.S.Harness.r_restart_cost,
    r.S.Harness.r_killed,
    r.S.Harness.r_survivors,
    r.S.Harness.r_checkpoint,
    r.S.Harness.r_work_saved,
    (r.S.Harness.r_completed, r.S.Harness.r_degraded),
    Array.to_list r.S.Harness.r_first.S.Harness.progress,
    match r.S.Harness.r_resume with
    | None -> []
    | Some res -> Array.to_list res.S.Harness.progress )

(* Time-to-recover and completed work of the checkpoint/restart harness, as
   a function of the checkpoint interval and the kill time (both relative to
   a fault-free control of the same workload). Two FATAL gates guard the
   fail-stop layer's determinism:
   - the fault-free control must be byte-identical to the plain (no chaos
     machinery at all) driver in both CPUFREE_PDES modes, and
   - every recovery scenario's full digest must be bit-identical across the
     two modes. *)
let fig_recovery ~smoke () =
  figure "fig.recovery" (fun () ->
      let gpus = 4 in
      let iters = if smoke then 24 else 48 in
      let problem = S.Problem.make (S.Problem.D2 { nx = 96; ny = 96 }) ~iterations:iters in
      let kind = S.Variants.Cpu_free in
      let kname = S.Variants.name kind in
      let plain_total pdes =
        (S.Harness.run_env ~env:(Cpufree_core.Sim_env.make ~pdes ()) kind problem ~gpus)
          .Measure.total
      in
      let control_total pdes =
        let cr =
          S.Harness.run_chaos_env
            ~env:
              (Cpufree_core.Sim_env.make ~faults:Fault.none ~fault_seed:recovery_seed ~pdes ())
            kind problem ~gpus
        in
        if not cr.S.Harness.chaos.Measure.completed then begin
          Printf.eprintf "[recovery] FATAL: fault-free control aborted\n%!";
          exit 1
        end;
        cr.S.Harness.chaos.Measure.base.Measure.total
      in
      let seq_plain = plain_total `Seq in
      List.iter
        (fun pdes ->
          let p = plain_total pdes and c = control_total pdes in
          if not (Time.equal p seq_plain && Time.equal c seq_plain) then begin
            Printf.eprintf
              "[recovery] FATAL: fault-free control differs under %s (plain %d ns, chaos %d \
               ns, seq %d ns) — the fail-stop layer perturbed an unfaulted run\n%!"
              (Cpufree_core.Sim_env.pdes_to_string pdes)
              (Time.to_ns p) (Time.to_ns c) (Time.to_ns seq_plain);
            exit 1
          end)
        recovery_modes;
      let control_ns = Time.to_ns seq_plain in
      let kill_fracs = if smoke then [ 0.4 ] else [ 0.25; 0.6 ] in
      let scratch_k = 2 * iters in
      let intervals = (if smoke then [ 2 ] else [ 1; 2; 4; 8 ]) @ [ scratch_k ] in
      header
        (Printf.sprintf
           "Fig R  Fail-stop recovery: 2D Jacobi 96^2 x %d iters on %d GPUs, kill one GPU; \
            control %.2f us (identical in both PDES modes)"
           iters gpus (us seq_plain));
      Printf.printf "  %8s %10s %10s %9s %10s %12s %12s %6s\n" "kill_us" "ckpt_every"
        "checkpoint" "saved_it" "restart_us" "end2end_us" "vs_scratch" "status";
      let points = ref [] in
      List.iter
        (fun frac ->
          let kill_ns = int_of_float (float_of_int control_ns *. frac) in
          let spec = { Fault.none with Fault.kills = [ (1, Time.ns kill_ns) ] } in
          let scratch_total = ref None in
          List.iter
            (fun k ->
              let run pdes =
                S.Harness.run_resilient
                  ~env:
                    (Cpufree_core.Sim_env.make ~faults:spec ~fault_seed:recovery_seed ~pdes ())
                  ~checkpoint_every:k kind problem ~gpus
              in
              let r = run `Seq in
              let d = resilient_digest r in
              List.iter
                (fun pdes ->
                  if pdes <> `Seq && resilient_digest (run pdes) <> d then begin
                    Printf.eprintf
                      "[recovery] FATAL: recovery digest under %s differs from sequential \
                       (kill at %d ns, checkpoint every %d)\n%!"
                      (Cpufree_core.Sim_env.pdes_to_string pdes)
                      kill_ns k;
                    exit 1
                  end)
                recovery_modes;
              let scratch = k >= scratch_k in
              if scratch then scratch_total := Some r.S.Harness.r_total;
              let vs_scratch =
                match !scratch_total with
                | Some s when not scratch && Time.(s > zero) ->
                  Printf.sprintf "%+.1f%%"
                    ((us r.S.Harness.r_total -. us s) /. us s *. 100.0)
                | _ -> "-"
              in
              Printf.printf "  %8.2f %10s %9d  %8d %10.2f %12.2f %12s %6s\n"
                (float_of_int kill_ns /. 1e3)
                (if scratch then "scratch" else string_of_int k)
                r.S.Harness.r_checkpoint r.S.Harness.r_work_saved
                (us r.S.Harness.r_restart_cost) (us r.S.Harness.r_total) vs_scratch
                (if r.S.Harness.r_completed then
                   if r.S.Harness.r_degraded then "ok*" else "ok"
                 else "AB");
              points :=
                point ~label:kname ~gpus r.S.Harness.r_first.S.Harness.chaos.Measure.base
                  ~extra:
                    [
                      ("fault_seed", J.Int recovery_seed);
                      ("kill_us", J.Float (float_of_int kill_ns /. 1e3));
                      ("checkpoint_every", J.Int k);
                      ("scratch", J.Bool scratch);
                      ( "killed_pe",
                        J.Int (match r.S.Harness.r_killed with Some pe -> pe | None -> -1) );
                      ("survivors", J.Int r.S.Harness.r_survivors);
                      ("checkpoint", J.Int r.S.Harness.r_checkpoint);
                      ("work_saved", J.Int r.S.Harness.r_work_saved);
                      ("restart_us", J.Float (us r.S.Harness.r_restart_cost));
                      ("end_to_end_us", J.Float (us r.S.Harness.r_total));
                      ("control_us", J.Float (us seq_plain));
                      ("completed", J.Bool r.S.Harness.r_completed);
                      ("degraded", J.Bool r.S.Harness.r_degraded);
                    ]
                :: !points)
            (* Scratch first so the vs_scratch column can reference it. *)
            (scratch_k :: List.filter (fun k -> k <> scratch_k) intervals))
        kill_fracs;
      Printf.printf "  (ok* = completed degraded on the survivors)\n";
      (List.rev !points, ()))

(* Documented schema of the fig.recovery series. Beyond the field shape, the
   figure must demonstrate actual self-healing: at least one point completed
   degraded on the survivors, and at least one checkpointed point strictly
   beats the restart-from-scratch point for the same kill time. *)
let validate_recovery_doc doc =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let field kvs name = List.assoc_opt name kvs in
  let point_shape i p =
    match p with
    | J.Obj kvs -> (
      match
        ( field kvs "kill_us",
          field kvs "checkpoint_every",
          field kvs "scratch",
          field kvs "work_saved",
          field kvs "end_to_end_us",
          field kvs "completed",
          field kvs "degraded" )
      with
      | ( Some (J.Float _),
          Some (J.Int _),
          Some (J.Bool _),
          Some (J.Int _),
          Some (J.Float _),
          Some (J.Bool _),
          Some (J.Bool _) ) ->
        Ok ()
      | _ ->
        fail
          "recovery point %d: needs float \"kill_us\"/\"end_to_end_us\", int \
           \"checkpoint_every\"/\"work_saved\", bool \"scratch\"/\"completed\"/\"degraded\""
          i)
    | _ -> fail "recovery point %d: not an object" i
  in
  let healed = function
    | J.Obj kvs ->
      field kvs "completed" = Some (J.Bool true) && field kvs "degraded" = Some (J.Bool true)
    | _ -> false
  in
  let beats_scratch pts p =
    match p with
    | J.Obj kvs -> (
      match (field kvs "kill_us", field kvs "scratch", field kvs "work_saved",
             field kvs "end_to_end_us") with
      | Some kill, Some (J.Bool false), Some (J.Int saved), Some (J.Float t) when saved > 0 ->
        List.exists
          (function
            | J.Obj q -> (
              field q "kill_us" = Some kill
              && field q "scratch" = Some (J.Bool true)
              && match field q "end_to_end_us" with Some (J.Float s) -> t < s | _ -> false)
            | _ -> false)
          pts
      | _ -> false)
    | _ -> false
  in
  match doc with
  | J.Obj kvs -> (
    match field kvs "figures" with
    | Some (J.List figs) -> (
      let recovery =
        List.filter_map
          (function
            | J.Obj f when field f "figure" = Some (J.String "fig.recovery") -> Some f
            | _ -> None)
          figs
      in
      match recovery with
      | [ fig ] -> (
        match field fig "points" with
        | Some (J.List (_ :: _ as pts)) ->
          let rec go i = function
            | [] -> Ok ()
            | p :: rest -> (match point_shape i p with Ok () -> go (i + 1) rest | e -> e)
          in
          (match go 0 pts with
          | Error _ as e -> e
          | Ok () ->
            if not (List.exists healed pts) then
              fail "fig.recovery has no point that completed degraded on the survivors"
            else if not (List.exists (beats_scratch pts) pts) then
              fail
                "fig.recovery has no checkpointed point that beats restart-from-scratch for \
                 the same kill time"
            else Ok ())
        | _ -> fail "fig.recovery: missing or empty points list")
      | l -> fail "expected exactly one fig.recovery figure, found %d" (List.length l))
    | _ -> fail "document has no figures list")
  | _ -> fail "document is not an object"

(* ---------------------------------------------------------------- *)
(* Headline speedups                                                  *)
(* ---------------------------------------------------------------- *)

let pct_line label paper measured =
  Printf.printf "  %-58s paper: %6.1f%%   measured: %6.1f%%\n" label paper measured;
  J.Obj
    [ ("comparison", J.String label); ("paper_pct", J.Float paper); ("measured_pct", J.Float measured) ]

let headline (small, medium, large) dace1d dace2d =
  figure "headline" (fun () ->
      header "Headline speedups: paper vs measured (speedup% = (Tb - To) / Tb * 100)";
      let get tbl kind gpus : Measure.result = Hashtbl.find tbl (S.Variants.name kind, gpus) in
      let sp b o = Measure.speedup_pct ~baseline:b ~ours:o in
      let points = ref [] in
      let line label paper measured = points := pct_line label paper measured :: !points in
      line "2D small, CPU-Free vs best baseline (NVSHMEM), 8 GPUs" 41.6
        (sp (get small S.Variants.Nvshmem 8) (get small S.Variants.Cpu_free 8));
      line "2D medium, CPU-Free vs best baseline (NVSHMEM), 8 GPUs" 48.2
        (sp (get medium S.Variants.Nvshmem 8) (get medium S.Variants.Cpu_free 8));
      line "2D small, CPU-Free vs Baseline Copy (fully CPU-controlled)" 96.2
        (sp (get small S.Variants.Copy 8) (get small S.Variants.Cpu_free 8));
      line "2D medium, CPU-Free vs Baseline Overlap" 95.7
        (sp (get medium S.Variants.Overlap 8) (get medium S.Variants.Cpu_free 8));
      line "2D large, multi-GPU PERKS vs best baseline, 8 GPUs" 18.8
        (sp (get large S.Variants.Nvshmem 8) (get large S.Variants.Perks 8));
      let d1 arm g : Measure.result = Hashtbl.find dace1d (arm, g) in
      let d2 arm g : Measure.result = Hashtbl.find dace2d (arm, g) in
      line "DaCe Jacobi 1D, CPU-Free vs MPI baseline (total), 8 GPUs" 44.5
        (sp (d1 "dace-baseline" 8) (d1 "dace-cpu-free" 8));
      let comm_sp =
        let b = (d1 "dace-baseline" 8).Measure.comm and o = (d1 "dace-cpu-free" 8).Measure.comm in
        (Time.to_sec_float b -. Time.to_sec_float o) /. Time.to_sec_float b *. 100.0
      in
      line "DaCe Jacobi 1D, communication latency reduction, 8 GPUs" 26.8 comm_sp;
      line "DaCe Jacobi 2D, CPU-Free vs MPI baseline (total), 8 GPUs" 96.8
        (sp (d2 "dace-baseline" 8) (d2 "dace-cpu-free" 8));
      (List.rev !points, ()))

(* ---------------------------------------------------------------- *)
(* Supplementary: convergence-checked iterations                     *)
(* ---------------------------------------------------------------- *)

let supplementary_norm () =
  figure "supplementary.norm" (fun () ->
      let kinds = [ S.Variants.Copy; S.Variants.Nvshmem; S.Variants.Cpu_free ] in
      let dims = S.Problem.weak_scale (S.Problem.D2 { nx = 2048; ny = 2048 }) ~gpus:8 in
      let cells = List.concat_map (fun kind -> [ (kind, None); (kind, Some 1) ]) kinds in
      let results =
        S.Harness.run_many
          (List.map
             (fun (kind, norm) ->
               S.Harness.scenario_env kind (S.Problem.make ?norm_every:norm dims ~iterations:30)
                 ~gpus:8)
             cells)
      in
      header
        "Supplementary  Residual check every iteration (NVIDIA-sample style): host-round-trip \
         allreduce vs device-side allreduce (2D medium, 8 GPUs, per-iter us)";
      Printf.printf "%-22s %14s %16s %12s\n" "variant" "plain" "with norm" "penalty";
      let grid = List.combine cells results in
      let find kind norm = List.assoc (kind, norm) grid in
      let points =
        List.concat_map
          (fun kind ->
            let plain = find kind None and normed = find kind (Some 1) in
            Printf.printf "%-22s %14.2f %16.2f %11.2f%%\n" (S.Variants.name kind)
              (us plain.Measure.per_iter) (us normed.Measure.per_iter)
              ((Time.to_sec_float normed.Measure.per_iter
               /. Time.to_sec_float plain.Measure.per_iter
               -. 1.0)
              *. 100.0);
            [
              point ~label:(S.Variants.name kind) ~gpus:8 plain;
              point ~label:(S.Variants.name kind ^ "+norm") ~gpus:8 normed;
            ])
          kinds
      in
      (points, ()))

(* ---------------------------------------------------------------- *)
(* Ablations: design choices called out in DESIGN.md                 *)
(* ---------------------------------------------------------------- *)

let ablations () =
  let app = D.Pipeline.Jacobi2d { D.Programs.nx_global = 4096; ny_global = 4096; tsteps = 20 } in
  figure "ablation.A.relaxed-barriers" (fun () ->
      let run_relax relax =
        let built = D.Pipeline.compile ~relax app D.Pipeline.Cpu_free ~gpus:8 in
        Measure.run_env
          ~label:(if relax then "relaxed (this work)" else "naive (upstream)")
          ~gpus:8 ~iterations:20 built.D.Exec.program
      in
      match Parallel.map run_relax [ true; false ] with
      | [ relaxed; naive ] ->
        header "Ablation A  Persistent-fusion barrier placement (§5.1): relaxed vs upstream-naive";
        Printf.printf "  %-24s per-iter %8.2f us\n" relaxed.Measure.label
          (us relaxed.Measure.per_iter);
        Printf.printf "  %-24s per-iter %8.2f us\n" naive.Measure.label (us naive.Measure.per_iter);
        Printf.printf "  relaxation speedup: %.1f%%\n"
          (Measure.speedup_pct ~baseline:naive ~ours:relaxed);
        ( [
            point ~label:relaxed.Measure.label ~gpus:8 relaxed;
            point ~label:naive.Measure.label ~gpus:8 naive;
          ],
          () )
      | _ -> assert false);
  figure "ablation.B.tb-specialization" (fun () ->
      let run_spec specialize_tb =
        let built = D.Pipeline.compile ~specialize_tb app D.Pipeline.Cpu_free ~gpus:8 in
        Measure.run_env
          ~label:(if specialize_tb then "TB-specialized" else "single-thread + grid sync")
          ~gpus:8 ~iterations:20 built.D.Exec.program
      in
      match Parallel.map run_spec [ false; true ] with
      | [ conservative; specialized ] ->
        header
          "Ablation B  In-kernel communication scheduling (§5.3.2/§5.4): single-thread vs      \
           thread-block-specialized (this work implements the paper's future work)";
        Printf.printf "  %-28s per-iter %8.2f us  overlap %5.1f%%\n" conservative.Measure.label
          (us conservative.Measure.per_iter)
          (conservative.Measure.overlap *. 100.0);
        Printf.printf "  %-28s per-iter %8.2f us  overlap %5.1f%%\n" specialized.Measure.label
          (us specialized.Measure.per_iter)
          (specialized.Measure.overlap *. 100.0);
        Printf.printf "  specialization speedup: %.1f%%\n"
          (Measure.speedup_pct ~baseline:conservative ~ours:specialized);
        ( [
            point ~label:conservative.Measure.label ~gpus:8 conservative;
            point ~label:specialized.Measure.label ~gpus:8 specialized;
          ],
          () )
      | _ -> assert false);
  figure "ablation.C.co-resident-kernels" (fun () ->
      let kinds = [ S.Variants.Cpu_free; S.Variants.Cpu_free_multi ] in
      let dims = S.Problem.weak_scale (S.Problem.D2 { nx = 2048; ny = 2048 }) ~gpus:8 in
      let problem = S.Problem.make dims ~iterations:50 in
      let results =
        S.Harness.run_many (List.map (fun kind -> S.Harness.scenario_env kind problem ~gpus:8) kinds)
      in
      header
        "Ablation C  One specialized kernel vs two co-resident kernels (§4 alternative design;  \
            paper: no significant difference)";
      let points =
        List.map2
          (fun kind r ->
            Printf.printf "  %-22s per-iter %8.2f us\n" (S.Variants.name kind)
              (us r.Measure.per_iter);
            point ~label:(S.Variants.name kind) ~gpus:8 r)
          kinds results
      in
      (points, ()));
  figure "ablation.D.perks-capacity" (fun () ->
      let arch = G.Arch.a100_hgx in
      let sizes = [ 1024; 2048; 4096; 8192; 16384 ] in
      let cells =
        List.concat_map
          (fun nx -> [ (nx, S.Variants.Perks); (nx, S.Variants.Cpu_free) ])
          sizes
      in
      let results =
        S.Harness.run_many
          (List.map
             (fun (nx, kind) ->
               let dims = S.Problem.weak_scale (S.Problem.D2 { nx; ny = nx }) ~gpus:8 in
               S.Harness.scenario_env kind (S.Problem.make dims ~iterations:20) ~gpus:8)
             cells)
      in
      header
        "Ablation D  PERKS caching vs per-GPU domain size (2D, 8 GPUs): fitting domains are \
         cached almost entirely; over-capacity domains fall back toward plain traffic";
      Printf.printf "  %12s %12s %14s %14s\n" "domain/GPU" "cache-frac" "perks (us)"
        "cpu-free (us)";
      let grid = List.combine cells results in
      let points =
        List.concat_map
          (fun nx ->
            let perks = List.assoc (nx, S.Variants.Perks) grid in
            let free = List.assoc (nx, S.Variants.Cpu_free) grid in
            let cache_frac = G.Kernel.perks_cache_fraction arch ~elems:(nx * nx) in
            Printf.printf "  %9dx%-3d %12.2f %14.2f %14.2f\n" nx nx cache_frac
              (us perks.Measure.per_iter) (us free.Measure.per_iter);
            [
              point
                ~label:(Printf.sprintf "perks/%d" nx)
                ~gpus:8 perks
                ~extra:[ ("cache_frac", J.Float cache_frac) ];
              point ~label:(Printf.sprintf "cpu-free/%d" nx) ~gpus:8 free;
            ])
          sizes
      in
      (points, ()))

(* ---------------------------------------------------------------- *)
(* Fig K: collectives — device-initiated vs CPU-driven allreduce      *)
(* ---------------------------------------------------------------- *)

module Nv = Cpufree_comm.Nvshmem
module Coll = Cpufree_comm.Collective
module Interconnect = G.Interconnect

(* Allreduce of one scalar per GPU on a cluster-scale machine: the
   device-initiated schedule (signaled puts inside persistent kernels)
   against the same schedule driven by the host (memcpy_async +
   stream_synchronize per step) — the paper's control-path comparison,
   taken beyond Jacobi to the collective itself. Every run also reports
   how many endpoint pairs the fabric actually routed: on a 1024-GPU
   machine the tree touches a sliver of the 10^6 possible pairs, which is
   what makes the lazy tables pay off. *)

let collective_expected gpus = float_of_int (gpus * (gpus + 1) / 2)

let collective_device ~spec ~algorithm ~gpus =
  let eng = E.Engine.create () in
  let ctx =
    G.Runtime.create eng ~env:(Cpufree_core.Sim_env.make ~topology:spec ()) ~num_gpus:gpus ()
  in
  let nv = Nv.init ctx in
  let coll = Coll.create ~algorithm nv ~label:"coll" in
  let expected = collective_expected gpus in
  let ok = ref true in
  for pe = 0 to gpus - 1 do
    ignore
      (E.Engine.spawn eng ~name:(Printf.sprintf "pe%d" pe) (fun () ->
           if Coll.allreduce_sum coll ~pe (float_of_int (pe + 1)) <> expected then ok := false)
        : E.Engine.process)
  done;
  E.Engine.run eng;
  if not !ok then begin
    Printf.eprintf "[collective] FATAL: device allreduce result mismatch\n%!";
    exit 1
  end;
  (E.Engine.now eng, G.Runtime.net ctx)

let collective_host ~spec ~algorithm ~gpus =
  let eng = E.Engine.create () in
  let ctx =
    G.Runtime.create eng ~env:(Cpufree_core.Sim_env.make ~topology:spec ()) ~num_gpus:gpus ()
  in
  let out = ref [||] in
  ignore
    (E.Engine.spawn eng ~name:"host" (fun () ->
         out :=
           Coll.host_allreduce_sum ctx ~algorithm ~label:"coll"
             (Array.init gpus (fun g -> float_of_int (g + 1))))
      : E.Engine.process);
  E.Engine.run eng;
  let expected = collective_expected gpus in
  if Array.length !out <> gpus || Array.exists (fun v -> v <> expected) !out then begin
    Printf.eprintf "[collective] FATAL: host allreduce result mismatch\n%!";
    exit 1
  end;
  (E.Engine.now eng, G.Runtime.net ctx)

let fig_collective ~smoke () =
  figure "fig.collective" (fun () ->
      let counts = if smoke then [ 8; 256 ] else [ 8; 64; 256; 1024 ] in
      let topologies gpus =
        (if gpus <= 8 then Topology.Hgx else Topology.Dgx { nodes = gpus / 8 })
        :: [
             Topology.Fat_tree { arity = 4; rails = 2; gpus_per_node = 8 };
             Topology.Dragonfly { a = 4; p = 4; h = 2; gpus_per_node = 8 };
           ]
      in
      (* Dense and ring are n^2/n-step schedules — illustrative at small n,
         pointless wall-clock at cluster scale, where the log-depth
         schedules are the ones anyone would run. *)
      let algorithms gpus =
        if smoke then if gpus <= 8 then [ Coll.Dense; Coll.Tree ] else [ Coll.Tree; Coll.Doubling ]
        else if gpus <= 64 then [ Coll.Dense; Coll.Ring; Coll.Tree; Coll.Doubling ]
        else [ Coll.Tree; Coll.Doubling ]
      in
      let cells =
        List.concat_map
          (fun gpus ->
            List.concat_map
              (fun spec -> List.map (fun alg -> (gpus, spec, alg)) (algorithms gpus))
              (topologies gpus))
          counts
      in
      let runs =
        Parallel.map
          (fun (gpus, spec, alg) ->
            let dev_t, dev_net = collective_device ~spec ~algorithm:alg ~gpus in
            let host_t, host_net = collective_host ~spec ~algorithm:alg ~gpus in
            (dev_t, dev_net, host_t, host_net))
          cells
      in
      let grid = List.combine cells runs in
      header
        "Fig K  Collectives: device-initiated vs CPU-driven allreduce, one scalar per GPU \
         (total us; pairs = endpoint pairs routed of gpus^2 possible)";
      Printf.printf "%6s %16s %10s %12s %12s %8s %12s %10s\n" "gpus" "topology" "algorithm"
        "device(us)" "host(us)" "speedup" "pairs-dev" "routing";
      let points =
        List.map
          (fun ((gpus, spec, alg), (dev_t, dev_net, host_t, host_net)) ->
            let routing = Topology.routing_kind (Interconnect.topology dev_net) in
            let speedup =
              if Time.to_ns dev_t = 0 then 0.0
              else Time.to_sec_float host_t /. Time.to_sec_float dev_t
            in
            Printf.printf "%6d %16s %10s %12.2f %12.2f %7.2fx %12d %10s\n" gpus
              (Topology.spec_to_string spec) (Coll.algorithm_to_string alg) (us dev_t)
              (us host_t) speedup
              (Interconnect.pairs_resolved dev_net)
              routing;
            List.map
              (fun (driver, total, net) ->
                J.Obj
                  [
                    ("label", J.String (driver ^ ":" ^ Coll.algorithm_to_string alg));
                    ("driver", J.String driver);
                    ("algorithm", J.String (Coll.algorithm_to_string alg));
                    ("gpus", J.Int gpus);
                    ("topology", J.String (Topology.spec_to_string spec));
                    ("routing", J.String routing);
                    ("total_ns", J.Int (Time.to_ns total));
                    ("pairs_resolved", J.Int (Interconnect.pairs_resolved net));
                  ])
              [ ("device", dev_t, dev_net); ("host", host_t, host_net) ])
          grid
      in
      (List.concat points, ()))

(* Documented schema of the fig.collective series: every point names its
   driver (device or host), algorithm, machine shape and routed-pair
   footprint, and the figure must include a cluster-scale comparison — a
   device/host pair on the same >= 256-GPU machine and algorithm. *)
let validate_collective_doc doc =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let field kvs name = List.assoc_opt name kvs in
  let point_shape i p =
    match p with
    | J.Obj kvs -> (
      match
        ( field kvs "driver",
          field kvs "algorithm",
          field kvs "gpus",
          field kvs "topology",
          field kvs "routing",
          field kvs "total_ns",
          field kvs "pairs_resolved" )
      with
      | ( Some (J.String ("device" | "host")),
          Some (J.String _),
          Some (J.Int _),
          Some (J.String _),
          Some (J.String _),
          Some (J.Int _),
          Some (J.Int _) ) ->
        Ok ()
      | _ ->
        fail
          "collective point %d: needs \"driver\" (device|host), string \
           \"algorithm\"/\"topology\"/\"routing\", int \"gpus\"/\"total_ns\"/\"pairs_resolved\""
          i)
    | _ -> fail "collective point %d: not an object" i
  in
  let key kvs =
    (field kvs "gpus", field kvs "topology", field kvs "algorithm")
  in
  let cluster_pair pts =
    List.exists
      (function
        | J.Obj kvs ->
          field kvs "driver" = Some (J.String "device")
          && (match field kvs "gpus" with Some (J.Int g) -> g >= 256 | _ -> false)
          && List.exists
               (function
                 | J.Obj kvs' ->
                   field kvs' "driver" = Some (J.String "host") && key kvs' = key kvs
                 | _ -> false)
               pts
        | _ -> false)
      pts
  in
  match doc with
  | J.Obj kvs -> (
    match field kvs "figures" with
    | Some (J.List figs) -> (
      let coll =
        List.filter_map
          (function
            | J.Obj f when field f "figure" = Some (J.String "fig.collective") -> Some f
            | _ -> None)
          figs
      in
      match coll with
      | [ fig ] -> (
        match field fig "points" with
        | Some (J.List (_ :: _ as pts)) ->
          let rec go i = function
            | [] -> Ok ()
            | p :: rest -> (match point_shape i p with Ok () -> go (i + 1) rest | e -> e)
          in
          (match go 0 pts with
          | Error _ as e -> e
          | Ok () ->
            if cluster_pair pts then Ok ()
            else
              fail
                "fig.collective has no device/host pair at >= 256 GPUs on the same machine \
                 and algorithm")
        | _ -> fail "fig.collective: missing or empty points list")
      | l -> fail "expected exactly one fig.collective figure, found %d" (List.length l))
    | _ -> fail "document has no figures list")
  | _ -> fail "document is not an object"

(* ---------------------------------------------------------------- *)
(* Engine-throughput microbenchmark (`-- micro`)                     *)
(* ---------------------------------------------------------------- *)

module Microbench = Cpufree_core.Microbench

let micro_point (r : Microbench.report) ~speedup =
  let windows, fallback =
    match r.Microbench.outcome with
    | E.Engine.Windowed { windows; jobs = _ } -> (windows, J.Null)
    | E.Engine.Sequential reason -> (0, J.String reason)
  in
  J.Obj
    [
      ("mode", J.String r.Microbench.label);
      ("jobs", J.Int r.Microbench.jobs);
      ("events", J.Int r.Microbench.out.Microbench.events);
      ("events_per_sec", J.Float (Microbench.events_per_sec r));
      ("wall_sec", J.Float r.Microbench.wall_sec);
      ("major_gc_words", J.Float r.Microbench.major_words);
      ("windows", J.Int windows);
      ("sim_ns", J.Int r.Microbench.out.Microbench.sim_ns);
      ("bytes", J.Int r.Microbench.out.Microbench.bytes);
      ("speedup_vs_seq", J.Float speedup);
      ("fallback", fallback);
    ]

(* The documented schema of the micro.engine figure (EXPERIMENTS.md): every
   point must carry exactly these fields with these JSON types. The
   micro-smoke alias fails the build if a refactor drifts from it. *)
let micro_required_fields =
  [
    ("mode", `String);
    ("jobs", `Int);
    ("events", `Int);
    ("events_per_sec", `Float);
    ("wall_sec", `Float);
    ("major_gc_words", `Float);
    ("windows", `Int);
    ("sim_ns", `Int);
    ("bytes", `Int);
    ("speedup_vs_seq", `Float);
  ]

let validate_micro_doc doc =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let field kvs name = List.assoc_opt name kvs in
  let check_point i p =
    match p with
    | J.Obj kvs ->
      List.fold_left
        (fun acc (name, ty) ->
          match acc with
          | Error _ -> acc
          | Ok () ->
            (match (field kvs name, ty) with
            | None, _ -> fail "point %d: missing field %S" i name
            | Some (J.String _), `String | Some (J.Int _), `Int | Some (J.Float _), `Float ->
              Ok ()
            | Some _, _ -> fail "point %d: field %S has the wrong JSON type" i name))
        (Ok ()) micro_required_fields
    | _ -> fail "point %d: not an object" i
  in
  match doc with
  | J.Obj kvs ->
    (match field kvs "figures" with
    | Some (J.List figs) ->
      let micro =
        List.filter_map
          (function
            | J.Obj f when field f "figure" = Some (J.String "micro.engine") -> Some f
            | _ -> None)
          figs
      in
      (match micro with
      | [ fig ] ->
        (match field fig "points" with
        | Some (J.List (_ :: _ as pts)) ->
          let rec go i = function
            | [] -> Ok ()
            | p :: rest -> (match check_point i p with Ok () -> go (i + 1) rest | e -> e)
          in
          go 0 pts
        | _ -> fail "micro.engine: missing or empty points list")
      | l -> fail "expected exactly one micro.engine figure, found %d" (List.length l))
    | _ -> fail "document has no figures list")
  | _ -> fail "document is not an object"

let micro_fallback (r : Microbench.report) =
  match r.Microbench.outcome with
  | E.Engine.Sequential reason -> Some reason
  | E.Engine.Windowed _ -> None

(* Topology build-time microbenchmark: constructing a 1024-GPU machine must
   cost O(endpoints), not O(endpoints^2) — structural constructors build no
   all-pairs tables at all, and even the Dijkstra-backed DGX cluster only
   allocates empty rows. The one-second ceiling is a ~200x margin over the
   measured cost; blowing it means an eager all-pairs loop crept back in. *)
let run_micro_topology () =
  figure "micro.topology" (fun () ->
      let gpus = 1024 in
      let specs =
        [
          Topology.Dgx { nodes = gpus / 8 };
          Topology.Fat_tree { arity = 4; rails = 2; gpus_per_node = 8 };
          Topology.Dragonfly { a = 4; p = 4; h = 2; gpus_per_node = 8 };
        ]
      in
      Printf.printf "\ntopology build: %d GPUs (structural constructors route on demand)\n" gpus;
      Printf.printf "%16s %12s %10s %12s %12s\n" "topology" "build(ms)" "vertices" "rows-cached"
        "routing";
      let points =
        List.map
          (fun spec ->
            let t0 = wall () in
            let t = Topology.instantiate spec ~profile:Topology.a100 ~gpus in
            let build = wall () -. t0 in
            (* Touch one cross-machine route so the lazy path demonstrably
               works, then read back how little of the table it filled. *)
            ignore (Topology.route_latency t ~src:(Topology.gpu_vertex t 0)
                      ~dst:(Topology.gpu_vertex t (gpus - 1)) : Time.t);
            let rows = Topology.route_rows_cached t in
            let routing = Topology.routing_kind t in
            if build > 1.0 then begin
              Printf.eprintf
                "[micro] FATAL: %s build took %.3fs for %d GPUs — lazy routing regressed\n%!"
                (Topology.spec_to_string spec) build gpus;
              exit 1
            end;
            Printf.printf "%16s %12.2f %10d %12d %12s\n" (Topology.spec_to_string spec)
              (build *. 1e3) (Topology.num_vertices t) rows routing;
            J.Obj
              [
                ("topology", J.String (Topology.spec_to_string spec));
                ("gpus", J.Int gpus);
                ("build_wall_sec", J.Float build);
                ("vertices", J.Int (Topology.num_vertices t));
                ("rows_cached", J.Int rows);
                ("routing", J.String routing);
              ])
          specs
      in
      (points, ()))

(* Schema of micro.topology: every point carries the machine shape, its
   build wall-clock and the routing strategy; at least one >= 1024-GPU
   machine must build structurally (no Dijkstra rows for its own route). *)
let validate_micro_topology_doc doc =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let field kvs name = List.assoc_opt name kvs in
  let point_shape i p =
    match p with
    | J.Obj kvs -> (
      match
        ( field kvs "topology",
          field kvs "gpus",
          field kvs "build_wall_sec",
          field kvs "rows_cached",
          field kvs "routing" )
      with
      | Some (J.String _), Some (J.Int _), Some (J.Float _), Some (J.Int _), Some (J.String _)
        ->
        Ok ()
      | _ ->
        fail
          "micro.topology point %d: needs string \"topology\"/\"routing\", int \
           \"gpus\"/\"rows_cached\", float \"build_wall_sec\""
          i)
    | _ -> fail "micro.topology point %d: not an object" i
  in
  let structural_large = function
    | J.Obj kvs ->
      (match field kvs "gpus" with Some (J.Int g) -> g >= 1024 | _ -> false)
      && field kvs "routing" = Some (J.String "structural")
    | _ -> false
  in
  match doc with
  | J.Obj kvs -> (
    match field kvs "figures" with
    | Some (J.List figs) -> (
      let topo =
        List.filter_map
          (function
            | J.Obj f when field f "figure" = Some (J.String "micro.topology") -> Some f
            | _ -> None)
          figs
      in
      match topo with
      | [ fig ] -> (
        match field fig "points" with
        | Some (J.List (_ :: _ as pts)) ->
          let rec go i = function
            | [] -> Ok ()
            | p :: rest -> (match point_shape i p with Ok () -> go (i + 1) rest | e -> e)
          in
          (match go 0 pts with
          | Error _ as e -> e
          | Ok () ->
            if List.exists structural_large pts then Ok ()
            else fail "micro.topology has no structurally-routed >= 1024-GPU point")
        | _ -> fail "micro.topology: missing or empty points list")
      | l -> fail "expected exactly one micro.topology figure, found %d" (List.length l))
    | _ -> fail "document has no figures list")
  | _ -> fail "document is not an object"

let run_micro ~smoke =
  header "Engine throughput: sequential vs conservative windowed partitioned execution";
  let cfg =
    if smoke then
      { Microbench.default with Microbench.gpus = 4; iters = 10; ticks_per_iter = 2 }
    else Microbench.default
  in
  let jobs = Parallel.default_jobs () in
  figure "micro.engine" (fun () ->
      let seq = Microbench.run_seq cfg in
      let win = Microbench.run_windowed ~jobs cfg in
      if not (Microbench.equal_output seq.Microbench.out win.Microbench.out) then begin
        Printf.eprintf "[micro] FATAL: windowed output differs from sequential output\n%!";
        exit 1
      end;
      let speedup =
        let s = Microbench.events_per_sec seq in
        if s = 0.0 then 0.0 else Microbench.events_per_sec win /. s
      in
      Printf.printf "scenario: %d GPUs, %d rounds, ring halo exchange (outputs verified equal)\n"
        cfg.Microbench.gpus cfg.Microbench.iters;
      Printf.printf "%-10s %5s %8s %12s %14s %12s %16s\n" "mode" "jobs" "windows" "events"
        "events/sec" "wall(s)" "major-GC-words";
      let row (r : Microbench.report) =
        let windows =
          match r.Microbench.outcome with
          | E.Engine.Windowed { windows; _ } -> string_of_int windows
          | E.Engine.Sequential _ -> "-"
        in
        Printf.printf "%-10s %5d %8s %12d %14.0f %12.4f %16.0f\n" r.Microbench.label
          r.Microbench.jobs windows r.Microbench.out.Microbench.events
          (Microbench.events_per_sec r) r.Microbench.wall_sec r.Microbench.major_words
      in
      row seq;
      row win;
      Printf.printf "windowed speedup vs sequential: %.2fx (host cores: %d)\n" speedup jobs;
      (match micro_fallback win with
      | Some reason -> Printf.printf "note: windowed run fell back to sequential (%s)\n" reason
      | None -> ());
      ([ micro_point seq ~speedup:1.0; micro_point win ~speedup ], ()));
  run_micro_topology ()

(* ---------------------------------------------------------------- *)
(* Instrumentation-overhead figure (`-- profile`)                    *)
(* ---------------------------------------------------------------- *)

module Obs = Cpufree_obs

(* Sum one counter over every label set (the micro counters are per-rank). *)
let metric_total reg name =
  List.fold_left
    (fun acc (it : Obs.Metrics.item) ->
      if it.Obs.Metrics.name = name then
        match it.Obs.Metrics.value with Obs.Metrics.Counter_v v -> acc + v | _ -> acc
      else acc)
    0 (Obs.Metrics.items reg)

let profile_point ~mode ~metered ~overhead_pct ~ticks ~msgs (r : Microbench.report) =
  J.Obj
    [
      ("mode", J.String mode);
      ("metrics", J.String (if metered then "on" else "off"));
      ("events", J.Int r.Microbench.out.Microbench.events);
      ("events_per_sec", J.Float (Microbench.events_per_sec r));
      ("wall_sec", J.Float r.Microbench.wall_sec);
      ("sim_ns", J.Int r.Microbench.out.Microbench.sim_ns);
      ("ticks_total", J.Int ticks);
      ("msgs_total", J.Int msgs);
      ("overhead_pct", J.Float overhead_pct);
    ]

let profile_required_fields =
  [
    ("mode", `String);
    ("metrics", `String);
    ("events", `Int);
    ("events_per_sec", `Float);
    ("wall_sec", `Float);
    ("sim_ns", `Int);
    ("ticks_total", `Int);
    ("msgs_total", `Int);
    ("overhead_pct", `Float);
  ]

(* The documented schema of fig.profile (EXPERIMENTS.md): the 2x2 grid
   {seq,windowed} x {metrics off,on}, both metered cells carrying non-zero
   counter totals. The profile-smoke alias fails the build on drift. *)
let validate_profile_doc doc =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let field kvs name = List.assoc_opt name kvs in
  let check_point i p =
    match p with
    | J.Obj kvs ->
      List.fold_left
        (fun acc (name, ty) ->
          match acc with
          | Error _ -> acc
          | Ok () ->
            (match (field kvs name, ty) with
            | None, _ -> fail "point %d: missing field %S" i name
            | Some (J.String _), `String | Some (J.Int _), `Int | Some (J.Float _), `Float ->
              Ok ()
            | Some _, _ -> fail "point %d: field %S has the wrong JSON type" i name))
        (Ok ()) profile_required_fields
    | _ -> fail "point %d: not an object" i
  in
  match doc with
  | J.Obj kvs ->
    (match field kvs "figures" with
    | Some (J.List figs) ->
      let profile =
        List.filter_map
          (function
            | J.Obj f when field f "figure" = Some (J.String "fig.profile") -> Some f
            | _ -> None)
          figs
      in
      (match profile with
      | [ fig ] ->
        (match field fig "points" with
        | Some (J.List pts) when List.length pts = 4 ->
          let rec go i = function
            | [] -> Ok ()
            | p :: rest -> (match check_point i p with Ok () -> go (i + 1) rest | e -> e)
          in
          (match go 0 pts with
          | Error _ as e -> e
          | Ok () ->
            let metered_ok =
              List.for_all
                (function
                  | J.Obj p when field p "metrics" = Some (J.String "on") ->
                    (match (field p "ticks_total", field p "msgs_total") with
                    | Some (J.Int t), Some (J.Int m) -> t > 0 && m > 0
                    | _ -> false)
                  | _ -> true)
                pts
            in
            if metered_ok then Ok ()
            else fail "fig.profile: a metered point has zero counter totals")
        | Some (J.List pts) -> fail "fig.profile: expected 4 points, found %d" (List.length pts)
        | _ -> fail "fig.profile: missing points list")
      | l -> fail "expected exactly one fig.profile figure, found %d" (List.length l))
    | _ -> fail "document has no figures list")
  | _ -> fail "document is not an object"

let fig_profile ~smoke () =
  header
    "Fig P  Instrumentation overhead: partition-sharded metrics on the engine hot path (ring \
     microbenchmark)";
  let cfg =
    if smoke then
      { Microbench.default with Microbench.gpus = 4; iters = 50; ticks_per_iter = 2 }
    else { Microbench.default with Microbench.iters = 2000 }
  in
  let reps = if smoke then 1 else 5 in
  let jobs = Parallel.default_jobs () in
  figure "fig.profile" (fun () ->
      (* Best-of-N wall clock per cell (the simulated output is asserted
         identical in every cell, so only the wall cost can differ); the
         metered cells keep their last registry for the totals check. *)
      let run_cell ~mode ~metered =
        let best = ref None and reg = ref None in
        for _ = 1 to reps do
          let metrics = if metered then Some (Obs.Metrics.create ()) else None in
          let cfg = { cfg with Microbench.metrics } in
          let r =
            match mode with
            | `Seq -> Microbench.run_seq cfg
            | `Win -> Microbench.run_windowed ~jobs cfg
          in
          reg := metrics;
          match !best with
          | Some (b : Microbench.report) when b.Microbench.wall_sec <= r.Microbench.wall_sec ->
            ()
          | _ -> best := Some r
        done;
        (Option.get !best, !reg)
      in
      let seq_off, _ = run_cell ~mode:`Seq ~metered:false in
      let seq_on, seq_reg = run_cell ~mode:`Seq ~metered:true in
      let win_off, _ = run_cell ~mode:`Win ~metered:false in
      let win_on, win_reg = run_cell ~mode:`Win ~metered:true in
      (* Gate 1: neither the driver nor the instrumentation may change the
         simulation (times, event counts, payload checksum). *)
      List.iter
        (fun (label, r) ->
          if not (Microbench.equal_output seq_off.Microbench.out r.Microbench.out) then begin
            Printf.eprintf "[profile] FATAL: %s output differs from seq/unmetered\n%!" label;
            exit 1
          end)
        [ ("seq/metered", seq_on); ("windowed/unmetered", win_off); ("windowed/metered", win_on) ];
      (* Gate 2: counter totals are schedule-independent — the windowed run,
         bumping partition-local slots from concurrent domains, must read
         back exactly the sequential totals, and they must be non-zero. *)
      let totals reg =
        match reg with
        | None -> (0, 0)
        | Some reg -> (metric_total reg "micro.ticks", metric_total reg "micro.msgs")
      in
      let seq_ticks, seq_msgs = totals seq_reg in
      let win_ticks, win_msgs = totals win_reg in
      if seq_ticks = 0 || seq_msgs = 0 then begin
        Printf.eprintf "[profile] FATAL: metered run recorded zero ticks/msgs\n%!";
        exit 1
      end;
      if (seq_ticks, seq_msgs) <> (win_ticks, win_msgs) then begin
        Printf.eprintf
          "[profile] FATAL: windowed metric totals (%d, %d) differ from sequential (%d, %d)\n%!"
          win_ticks win_msgs seq_ticks seq_msgs;
        exit 1
      end;
      let overhead ~off ~on =
        let a = off.Microbench.wall_sec and b = on.Microbench.wall_sec in
        if a <= 0.0 then 0.0 else (b -. a) /. a *. 100.0
      in
      let seq_ov = overhead ~off:seq_off ~on:seq_on in
      let win_ov = overhead ~off:win_off ~on:win_on in
      Printf.printf
        "scenario: %d GPUs, %d rounds, ring halo exchange; best of %d rep(s) per cell\n"
        cfg.Microbench.gpus cfg.Microbench.iters reps;
      Printf.printf "%-10s %-8s %12s %14s %12s %14s\n" "mode" "metrics" "events" "events/sec"
        "wall(s)" "overhead(%)";
      let row label metered ov (r : Microbench.report) =
        Printf.printf "%-10s %-8s %12d %14.0f %12.4f %14.2f\n" label
          (if metered then "on" else "off")
          r.Microbench.out.Microbench.events (Microbench.events_per_sec r)
          r.Microbench.wall_sec ov
      in
      row "seq" false 0.0 seq_off;
      row "seq" true seq_ov seq_on;
      row "windowed" false 0.0 win_off;
      row "windowed" true win_ov win_on;
      Printf.printf
        "counter totals (schedule-independent): ticks=%d msgs=%d; disabled runs carry no \
         instruments at all\n"
        seq_ticks seq_msgs;
      if (not smoke) && (seq_ov > 5.0 || win_ov > 5.0) then
        Printf.eprintf
          "[profile] WARNING: instrumentation overhead above the 5%% budget (seq %.2f%%, \
           windowed %.2f%%)\n%!"
          seq_ov win_ov;
      ( [
          profile_point ~mode:"seq" ~metered:false ~overhead_pct:0.0 ~ticks:0 ~msgs:0 seq_off;
          profile_point ~mode:"seq" ~metered:true ~overhead_pct:seq_ov ~ticks:seq_ticks
            ~msgs:seq_msgs seq_on;
          profile_point ~mode:"windowed" ~metered:false ~overhead_pct:0.0 ~ticks:0 ~msgs:0
            win_off;
          profile_point ~mode:"windowed" ~metered:true ~overhead_pct:win_ov ~ticks:win_ticks
            ~msgs:win_msgs win_on;
        ],
        () ))

(* ---------------------------------------------------------------- *)
(* Bechamel wall-clock microbenchmarks (one per figure regenerator)  *)
(* ---------------------------------------------------------------- *)

let bechamel_suite () =
  header "Bechamel wall-clock benchmarks of the simulator itself (one per figure)";
  let run_stencil kind problem gpus = S.Harness.run_env kind problem ~gpus in
  let quick_stencil kind () =
    let problem = S.Problem.make (S.Problem.D2 { nx = 256; ny = 256 }) ~iterations:5 in
    ignore (run_stencil kind problem 8)
  in
  let quick_dace arm () =
    let app = D.Pipeline.Jacobi1d { D.Programs.n_global = 1 lsl 16; tsteps = 5 } in
    ignore (D.Pipeline.run_env app arm ~gpus:8)
  in
  let tests =
    [
      Bechamel.Test.make ~name:"fig2.2a:no-compute-cpu-free"
        (Bechamel.Staged.stage (fun () ->
             let problem =
               S.Problem.make ~compute:false (S.Problem.D2 { nx = 256; ny = 256 })
                 ~iterations:5
             in
             ignore (run_stencil S.Variants.Cpu_free problem 8)));
      Bechamel.Test.make ~name:"fig6.1:baseline-copy" (Bechamel.Staged.stage (quick_stencil S.Variants.Copy));
      Bechamel.Test.make ~name:"fig6.1:baseline-nvshmem"
        (Bechamel.Staged.stage (quick_stencil S.Variants.Nvshmem));
      Bechamel.Test.make ~name:"fig6.1:cpu-free" (Bechamel.Staged.stage (quick_stencil S.Variants.Cpu_free));
      Bechamel.Test.make ~name:"fig6.2:3d-cpu-free"
        (Bechamel.Staged.stage (fun () ->
             let problem =
               S.Problem.make (S.Problem.D3 { nx = 32; ny = 32; nz = 64 }) ~iterations:5
             in
             ignore (run_stencil S.Variants.Cpu_free problem 8)));
      Bechamel.Test.make ~name:"fig6.3a:dace-baseline"
        (Bechamel.Staged.stage (quick_dace D.Pipeline.Baseline_mpi));
      Bechamel.Test.make ~name:"fig6.3a:dace-cpu-free" (Bechamel.Staged.stage (quick_dace D.Pipeline.Cpu_free));
      Bechamel.Test.make ~name:"fig6.3b:dace-2d-cpu-free"
        (Bechamel.Staged.stage (fun () ->
             let app =
               D.Pipeline.Jacobi2d { D.Programs.nx_global = 256; ny_global = 256; tsteps = 3 }
             in
             ignore (D.Pipeline.run_env app D.Pipeline.Cpu_free ~gpus:8)));
    ]
  in
  let benchmark test =
    let instance = Bechamel.Toolkit.Instance.monotonic_clock in
    let cfg = Bechamel.Benchmark.cfg ~limit:200 ~quota:(Bechamel.Time.second 0.25) ~kde:(Some 100) () in
    let ols = Bechamel.Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Bechamel.Measure.run |] in
    let raw = Bechamel.Benchmark.all cfg [ instance ] (Bechamel.Test.make_grouped ~name:"g" [ test ]) in
    let results = Bechamel.Analyze.all ols instance raw in
    Hashtbl.iter
      (fun name ols_result ->
        match Bechamel.Analyze.OLS.estimates ols_result with
        | Some [ est ] -> Printf.printf "  %-34s %14.1f ns/run\n" name est
        | Some _ | None -> Printf.printf "  %-34s (no estimate)\n" name)
      results
  in
  List.iter benchmark tests

(* ---------------------------------------------------------------- *)
(* fig.autotune — the generic auto-offload pass vs the hand-built     *)
(* pipelines (tentpole of the pass-architecture refactor)             *)
(* ---------------------------------------------------------------- *)

(* Documented schema of the fig.autotune series (EXPERIMENTS.md): one point
   per program. [generic] marks the programs that exist only outside the
   app enum — their [hand_plan]/[hand_ns] column is the best non-generic
   single-device port instead of a hand-built distributed pipeline. *)
let autotune_required_fields =
  [
    ("label", `String);
    ("gpus", `Int);
    ("generic", `Bool);
    ("plan", `String);
    ("predicted_ns", `Int);
    ("hand_plan", `String);
    ("hand_ns", `Int);
    ("margin_pct", `Float);
    ("candidates", `Int);
  ]

let validate_autotune_doc doc =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let field kvs name = List.assoc_opt name kvs in
  let check_point i p =
    match p with
    | J.Obj kvs ->
      List.fold_left
        (fun acc (name, ty) ->
          match acc with
          | Error _ -> acc
          | Ok () ->
            (match (field kvs name, ty) with
            | None, _ -> fail "point %d: missing field %S" i name
            | Some (J.String _), `String
            | Some (J.Int _), `Int
            | Some (J.Float _), `Float
            | Some (J.Bool _), `Bool ->
              Ok ()
            | Some _, _ -> fail "point %d: field %S has the wrong JSON type" i name))
        (Ok ()) autotune_required_fields
    | _ -> fail "point %d: not an object" i
  in
  match doc with
  | J.Obj kvs ->
    (match field kvs "figures" with
    | Some (J.List figs) ->
      let auto =
        List.filter_map
          (function
            | J.Obj f when field f "figure" = Some (J.String "fig.autotune") -> Some f
            | _ -> None)
          figs
      in
      (match auto with
      | [ fig ] ->
        (match field fig "points" with
        | Some (J.List (_ :: _ as pts)) ->
          let rec go i = function
            | [] -> Ok ()
            | p :: rest -> (match check_point i p with Ok () -> go (i + 1) rest | e -> e)
          in
          (match go 0 pts with
          | Error _ as e -> e
          | Ok () ->
            (* The figure must cover a program that exists only generically
               (outside the app enum), and every hand-built pipeline must be
               matched or beaten — the pass's two headline claims. *)
            let generic =
              List.exists
                (function J.Obj p -> field p "generic" = Some (J.Bool true) | _ -> false)
                pts
            in
            let beaten =
              List.for_all
                (function
                  | J.Obj p -> (
                    match (field p "predicted_ns", field p "hand_ns") with
                    | Some (J.Int pr), Some (J.Int h) -> pr <= h
                    | _ -> false)
                  | _ -> false)
                pts
            in
            if not generic then fail "fig.autotune: no generic (non-enum) program point"
            else if not beaten then
              fail "fig.autotune: a searched plan lost to its hand-built pipeline"
            else Ok ())
        | _ -> fail "fig.autotune: missing or empty points list")
      | l -> fail "expected exactly one fig.autotune figure, found %d" (List.length l))
    | _ -> fail "document has no figures list")
  | _ -> fail "document is not an object"

let fig_autotune ~smoke () =
  header
    "Fig AUTO  Generic auto-offload pass: searched transformation sequence vs the hand-built \
     CPU-free pipelines";
  let n1d = if smoke then 256 else 4096 in
  let n2d = if smoke then 256 else 1024 in
  let n3d = if smoke then 16 else 32 in
  let iters = if smoke then 5 else 50 in
  (* Big enough that offloading and 1-D sharding pay for the launch and
     exchange overheads the simulator charges. *)
  let sm = { D.Programs.sm_n = 262144; sm_steps = 16 } in
  let fatal fmt = Printf.ksprintf (fun s -> Printf.eprintf "[autotune] FATAL: %s\n%!" s; exit 1) fmt in
  let search sdfg ~gpus ~iterations ~env =
    match D.Autotune.search ~env sdfg ~gpus ~iterations with
    | Ok d -> d
    | Error e -> fatal "search failed: %s" e
  in
  let probe_cost ~label ~gpus ~iterations (built : D.Exec.built) =
    Measure.probe_env ~label ~gpus ~iterations built.D.Exec.program
  in
  figure "fig.autotune" (fun () ->
      let gpus = 4 in
      let enum_cases =
        [
          ("jacobi1d", D.Pipeline.Jacobi1d { D.Programs.n_global = n1d; tsteps = iters });
          ( "jacobi2d",
            D.Pipeline.Jacobi2d { D.Programs.nx_global = n2d; ny_global = n2d; tsteps = iters } );
          ("heat3d", D.Pipeline.Heat3d { D.Programs.nx3 = n3d; ny3 = n3d; nz3 = n3d; tsteps3 = iters });
        ]
      in
      Printf.printf "%-10s %5s  %-38s %12s  %-30s %12s %8s\n" "program" "gpus" "searched plan"
        "predicted" "hand-built" "cost" "margin";
      let enum_points =
        List.map
          (fun (name, app) ->
            let arm = D.Pipeline.Cpu_free in
            let sdfg = D.Pipeline.frontend app arm ~gpus in
            let hand_plan = D.Pipeline.hand_plan arm ~gpus in
            let hand_ns =
              Time.to_ns
                (probe_cost ~label:(name ^ "/hand") ~gpus ~iterations:iters
                   (D.Autotune.build hand_plan sdfg))
            in
            let d = search sdfg ~gpus ~iterations:iters ~env:Cpufree_obs.Sim_env.default in
            let predicted_ns = Time.to_ns d.D.Autotune.predicted in
            if predicted_ns > hand_ns then
              fatal "%s: searched plan %s (%dns) lost to hand-built %s (%dns)" name
                (D.Autotune.plan_to_string d.D.Autotune.best)
                predicted_ns
                (D.Autotune.plan_to_string hand_plan)
                hand_ns;
            let margin =
              100.0 *. (float_of_int (hand_ns - predicted_ns) /. float_of_int hand_ns)
            in
            Printf.printf "%-10s %5d  %-38s %12s  %-30s %12s %7.1f%%\n" name gpus
              (D.Autotune.plan_to_string d.D.Autotune.best)
              (Time.to_string d.D.Autotune.predicted)
              (D.Autotune.plan_to_string hand_plan)
              (Time.to_string (Time.ns hand_ns))
              margin;
            J.Obj
              [
                ("label", J.String name);
                ("gpus", J.Int gpus);
                ("generic", J.Bool false);
                ("plan", J.String (D.Autotune.plan_to_string d.D.Autotune.best));
                ("predicted_ns", J.Int predicted_ns);
                ("hand_plan", J.String (D.Autotune.plan_to_string hand_plan));
                ("hand_ns", J.Int hand_ns);
                ("margin_pct", J.Float margin);
                ("candidates", J.Int (List.length d.D.Autotune.evaluated));
              ])
          enum_cases
      in
      (* The generic program: exists only outside the app enum; its
         comparison column is the best non-generic single-device port. *)
      let sdfg = D.Programs.smoother_global sm in
      let d =
        search sdfg ~gpus ~iterations:sm.D.Programs.sm_steps ~env:Cpufree_obs.Sim_env.default
      in
      if not d.D.Autotune.best.D.Autotune.shard then
        fatal "smoother: searched plan %s does not shard across the machine"
          (D.Autotune.plan_to_string d.D.Autotune.best);
      let naive_plan =
        {
          D.Autotune.shard = false;
          gpus_used = 1;
          offload = D.Autotune.Offload_discrete { fusion = true };
        }
      in
      let naive_ns =
        Time.to_ns
          (probe_cost ~label:"smoother/naive" ~gpus:1 ~iterations:sm.D.Programs.sm_steps
             (D.Autotune.build naive_plan sdfg))
      in
      let predicted_ns = Time.to_ns d.D.Autotune.predicted in
      if predicted_ns > naive_ns then
        fatal "smoother: searched plan lost to the naive single-device port";
      let margin = 100.0 *. (float_of_int (naive_ns - predicted_ns) /. float_of_int naive_ns) in
      Printf.printf "%-10s %5d  %-38s %12s  %-30s %12s %7.1f%%\n" "smoother" gpus
        (D.Autotune.plan_to_string d.D.Autotune.best)
        (Time.to_string d.D.Autotune.predicted)
        (D.Autotune.plan_to_string naive_plan)
        (Time.to_string (Time.ns naive_ns))
        margin;
      let generic_point =
        J.Obj
          [
            ("label", J.String "smoother");
            ("gpus", J.Int gpus);
            ("generic", J.Bool true);
            ("plan", J.String (D.Autotune.plan_to_string d.D.Autotune.best));
            ("predicted_ns", J.Int predicted_ns);
            ("hand_plan", J.String (D.Autotune.plan_to_string naive_plan));
            ("hand_ns", J.Int naive_ns);
            ("margin_pct", J.Float margin);
            ("candidates", J.Int (List.length d.D.Autotune.evaluated));
          ]
      in
      (* Determinism gate: the plan choice must survive re-running the
         search and pinning the candidate probe's ambient environment to
         different PDES drivers. *)
      let plan_of env = D.Autotune.plan_to_string (search sdfg ~gpus ~iterations:sm.D.Programs.sm_steps ~env).D.Autotune.best in
      let p0 = D.Autotune.plan_to_string d.D.Autotune.best in
      List.iter
        (fun (what, env) ->
          let p = plan_of env in
          if p <> p0 then fatal "plan choice is not deterministic (%s): %s vs %s" what p0 p)
        [
          ("re-run", Cpufree_obs.Sim_env.default);
          ("pdes=seq", Cpufree_obs.Sim_env.make ~pdes:`Seq ());
          ("pdes=windowed", Cpufree_obs.Sim_env.make ~pdes:`Windowed ());
        ];
      Printf.printf "plan choice deterministic across re-runs and PDES modes\n";
      (* End-to-end gate: execute the searched plan with real buffers and
         check the generic program's result against its sequential
         reference. *)
      let built = D.Autotune.build ~backed:true d.D.Autotune.best sdfg in
      let (_ : Measure.result) =
        Measure.run_env ~label:"smoother/verify" ~gpus:d.D.Autotune.best.D.Autotune.gpus_used
          ~iterations:sm.D.Programs.sm_steps built.D.Exec.program
      in
      let reference = D.Programs.reference_smoother sm in
      let local = sm.D.Programs.sm_n / gpus in
      let worst = ref 0.0 in
      for pe = 0 to gpus - 1 do
        match built.D.Exec.read_array "U" ~pe with
        | None -> fatal "smoother rank %d: array U missing after the run" pe
        | Some buf ->
          for i = 1 to local do
            let err = Float.abs (G.Buffer.get buf i -. reference.((pe * local) + i)) in
            if err > !worst then worst := err
          done
      done;
      if !worst > 1e-9 then fatal "smoother verification failed: max |err| = %.3e" !worst;
      Printf.printf "smoother verified against the sequential reference (max |err| = %.2e)\n"
        !worst;
      (enum_points @ [ generic_point ], ()))

(* ---------------------------------------------------------------- *)
(* fig.serve: scenario daemon — cold-cache vs warm-cache saturation  *)
(* ---------------------------------------------------------------- *)

let serve_required_fields =
  [
    ("phase", `String);
    ("requests", `Int);
    ("wall_clock_sec", `Float);
    ("req_per_sec", `Float);
    ("mean_latency_us", `Float);
    ("hits", `Int);
    ("simulations", `Int);
  ]

let validate_serve_doc doc =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let field kvs name = List.assoc_opt name kvs in
  let check_point i p =
    match p with
    | J.Obj kvs ->
      List.fold_left
        (fun acc (name, ty) ->
          match acc with
          | Error _ -> acc
          | Ok () ->
            (match (field kvs name, ty) with
            | None, _ -> fail "point %d: missing field %S" i name
            | Some (J.String _), `String | Some (J.Int _), `Int | Some (J.Float _), `Float ->
              Ok ()
            | Some _, _ -> fail "point %d: field %S has the wrong JSON type" i name))
        (Ok ()) serve_required_fields
    | _ -> fail "point %d: not an object" i
  in
  match doc with
  | J.Obj kvs ->
    (match field kvs "figures" with
    | Some (J.List figs) ->
      let serve =
        List.filter_map
          (function
            | J.Obj f when field f "figure" = Some (J.String "fig.serve") -> Some f
            | _ -> None)
          figs
      in
      (match serve with
      | [ fig ] ->
        (match field fig "points" with
        | Some (J.List (_ :: _ as pts)) ->
          let rec go i = function
            | [] -> Ok ()
            | p :: rest -> (match check_point i p with Ok () -> go (i + 1) rest | e -> e)
          in
          (match go 0 pts with
          | Error _ as e -> e
          | Ok () ->
            let find_phase name =
              List.find_map
                (function
                  | J.Obj p when field p "phase" = Some (J.String name) -> Some p
                  | _ -> None)
                pts
            in
            (match (find_phase "cold", find_phase "warm") with
            | None, _ -> fail "fig.serve: no cold-cache point"
            | _, None -> fail "fig.serve: no warm-cache point"
            | Some cold, Some warm ->
              let rps p =
                match field p "req_per_sec" with Some (J.Float f) -> f | _ -> 0.0
              in
              let int_field p name =
                match field p name with Some (J.Int n) -> n | _ -> -1
              in
              if int_field warm "hits" < 1 then
                fail "fig.serve: warm phase recorded no cache hits"
              else if int_field warm "simulations" <> 0 then
                fail "fig.serve: warm phase re-simulated a cached scenario"
              else if int_field cold "simulations" < 1 then
                fail "fig.serve: cold phase ran no simulations"
              else if rps warm < 10.0 *. rps cold then
                fail "fig.serve: warm throughput %.0f req/s is under 10x cold %.0f req/s"
                  (rps warm) (rps cold)
              else Ok ()))
        | _ -> fail "fig.serve: missing or empty points list")
      | l -> fail "expected exactly one fig.serve figure, found %d" (List.length l))
    | _ -> fail "document has no figures list")
  | _ -> fail "document is not an object"

(* The daemon saturation figure: fork a scenario daemon, replay a fixed set
   of distinct scenarios once against the empty cache (every request
   simulates), then replay the same set several more times (every request is
   a content-hash hit). The per-phase throughput and request counters come
   back over the wire from the daemon's own stats op, so the figure measures
   the full socket round-trip, not an in-process shortcut. Rates go to
   stderr with the rest of the wall-clock chatter; stdout keeps only the
   deterministic counters. *)
let fig_serve ~smoke () =
  header "Fig SERVE  Scenario daemon: cold-cache vs warm-cache saturation";
  let fatal fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "[serve] FATAL: %s\n%!" s;
        exit 1)
      fmt
  in
  let n_cold = if smoke then 6 else 24 in
  let reps = if smoke then 4 else 8 in
  let dims = if smoke then "2d:256x256" else "2d:384x384" in
  let base_iters = if smoke then 25 else 40 in
  let scenario i =
    Scenario.make ~gpus:4
      (Scenario.Stencil
         { variant = "cpu-free"; dims; iters = base_iters + i; no_compute = false })
  in
  let scenarios = Array.init n_cold scenario in
  let socket_path = Printf.sprintf "bench-serve-%d.sock" (Unix.getpid ()) in
  (* The daemon must be a separate process: Server.run blocks its calling
     domain, and killing it from inside would tear down our own runtime. *)
  flush stdout;
  flush stderr;
  let child =
    match Unix.fork () with
    | 0 ->
      (try
         Serve.Server.run
           {
             (Serve.Server.default_config ~socket_path) with
             Serve.Server.cache_capacity = (2 * n_cold) + 4;
           }
       with e -> Printf.eprintf "[serve] daemon died: %s\n%!" (Printexc.to_string e));
      exit 0
    | pid -> pid
  in
  let reaped = ref false in
  at_exit (fun () ->
    if not !reaped then begin
      (try Unix.kill child Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] child) with Unix.Unix_error _ -> ()
    end);
  let rec connect tries =
    match Serve.Client.connect socket_path with
    | Ok c -> c
    | Error e ->
      if tries = 0 then fatal "cannot reach the daemon: %s" e
      else begin
        Unix.sleepf 0.02;
        connect (tries - 1)
      end
  in
  let client = connect 250 in
  let next_id = ref 0 in
  let run_one sc =
    incr next_id;
    match Serve.Client.run client ~id:!next_id sc with
    | Ok (Serve.Protocol.Ok_resp { body = Serve.Protocol.Run_result _; cached; _ }) -> cached
    | Ok (Serve.Protocol.Error_resp { message; _ }) ->
      fatal "request %d refused: %s" !next_id message
    | Ok (Serve.Protocol.Overload_resp _) -> fatal "request %d hit admission control" !next_id
    | Ok _ -> fatal "request %d: unexpected response" !next_id
    | Error e -> fatal "request %d: %s" !next_id e
  in
  let stats () =
    incr next_id;
    match Serve.Client.stats client ~id:!next_id with
    | Ok s -> s
    | Error e -> fatal "stats: %s" e
  in
  figure "fig.serve" (fun () ->
      let s0 = stats () in
      let t0 = wall () in
      Array.iter (fun sc -> ignore (run_one sc)) scenarios;
      let cold_t = Float.max (wall () -. t0) 1e-9 in
      let s1 = stats () in
      let t1 = wall () in
      for _ = 1 to reps do
        Array.iter
          (fun sc -> if not (run_one sc) then fatal "warm request missed the cache")
          scenarios
      done;
      let warm_t = Float.max (wall () -. t1) 1e-9 in
      let s2 = stats () in
      let n_warm = reps * n_cold in
      let cold_sims = s1.Serve.Protocol.simulations - s0.Serve.Protocol.simulations in
      let cold_hits = s1.Serve.Protocol.hits - s0.Serve.Protocol.hits in
      let warm_sims = s2.Serve.Protocol.simulations - s1.Serve.Protocol.simulations in
      let warm_hits = s2.Serve.Protocol.hits - s1.Serve.Protocol.hits in
      if cold_sims <> n_cold then
        fatal "cold phase: expected %d simulations, daemon reports %d" n_cold cold_sims;
      if warm_sims <> 0 then fatal "warm phase: daemon re-simulated %d cached runs" warm_sims;
      if warm_hits <> n_warm then
        fatal "warm phase: expected %d cache hits, daemon reports %d" n_warm warm_hits;
      let cold_rps = float_of_int n_cold /. cold_t in
      let warm_rps = float_of_int n_warm /. warm_t in
      if warm_rps < 10.0 *. cold_rps then
        fatal "warm-cache throughput %.0f req/s is under 10x cold-cache %.0f req/s" warm_rps
          cold_rps;
      (match Serve.Client.shutdown client ~id:(incr next_id; !next_id) with
      | Ok () -> ()
      | Error e -> fatal "shutdown: %s" e);
      Serve.Client.close client;
      (match Unix.waitpid [] child with
      | _, Unix.WEXITED 0 -> reaped := true
      | _, Unix.WEXITED c -> fatal "daemon exited with status %d" c
      | _, Unix.WSIGNALED s -> fatal "daemon killed by signal %d" s
      | _, Unix.WSTOPPED s -> fatal "daemon stopped by signal %d" s);
      Printf.printf "  %-6s %10s %6s %6s\n" "phase" "requests" "hits" "sims";
      Printf.printf "  %-6s %10d %6d %6d\n" "cold" n_cold cold_hits cold_sims;
      Printf.printf "  %-6s %10d %6d %6d\n%!" "warm" n_warm warm_hits warm_sims;
      Printf.eprintf
        "[serve] cold %.0f req/s (%.1f ms/req)  warm %.0f req/s (%.3f ms/req)  speedup %.0fx\n%!"
        cold_rps
        (cold_t *. 1e3 /. float_of_int n_cold)
        warm_rps
        (warm_t *. 1e3 /. float_of_int n_warm)
        (warm_rps /. cold_rps);
      let phase_point name ~requests ~elapsed ~hits ~sims =
        J.Obj
          [
            ("phase", J.String name);
            ("requests", J.Int requests);
            ("wall_clock_sec", J.Float elapsed);
            ("req_per_sec", J.Float (float_of_int requests /. elapsed));
            ("mean_latency_us", J.Float (elapsed *. 1e6 /. float_of_int requests));
            ("hits", J.Int hits);
            ("simulations", J.Int sims);
          ]
      in
      ( [
          phase_point "cold" ~requests:n_cold ~elapsed:cold_t ~hits:cold_hits ~sims:cold_sims;
          phase_point "warm" ~requests:n_warm ~elapsed:warm_t ~hits:warm_hits ~sims:warm_sims;
        ],
        () ))

let write_results ~mode ~elapsed =
  let doc =
    J.Obj
      [
        ("schema_version", J.Int 1);
        ("generator", J.String "cpufree bench/main.exe");
        ("mode", J.String mode);
        ("jobs", J.Int (Parallel.default_jobs ()));
        ("gpu_counts", J.List (List.map (fun g -> J.Int g) gpu_counts));
        ("wall_clock_sec", J.Float elapsed);
        ("figures", J.List (List.rev !json_figures));
      ]
  in
  if mode = "micro" || mode = "micro-smoke" then begin
    (match validate_micro_doc doc with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "[micro] FATAL: BENCH_results.json violates the documented schema: %s\n%!"
        msg;
      exit 1);
    match validate_micro_topology_doc doc with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "[micro] FATAL: BENCH_results.json violates the documented schema: %s\n%!"
        msg;
      exit 1
  end;
  let has_collective =
    List.exists
      (function
        | J.Obj f -> List.assoc_opt "figure" f = Some (J.String "fig.collective")
        | _ -> false)
      !json_figures
  in
  if has_collective then begin
    match validate_collective_doc doc with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf
        "[collective] FATAL: BENCH_results.json violates the documented schema: %s\n%!" msg;
      exit 1
  end;
  let has_scaleout =
    List.exists
      (function
        | J.Obj f -> List.assoc_opt "figure" f = Some (J.String "fig.scaleout")
        | _ -> false)
      !json_figures
  in
  if has_scaleout then begin
    match validate_scaleout_doc doc with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf
        "[scaleout] FATAL: BENCH_results.json violates the documented schema: %s\n%!" msg;
      exit 1
  end;
  let has_chaos =
    List.exists
      (function
        | J.Obj f -> List.assoc_opt "figure" f = Some (J.String "fig.chaos")
        | _ -> false)
      !json_figures
  in
  if has_chaos then begin
    match validate_chaos_doc doc with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "[chaos] FATAL: BENCH_results.json violates the documented schema: %s\n%!"
        msg;
      exit 1
  end;
  let has_recovery =
    List.exists
      (function
        | J.Obj f -> List.assoc_opt "figure" f = Some (J.String "fig.recovery")
        | _ -> false)
      !json_figures
  in
  if has_recovery then begin
    match validate_recovery_doc doc with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf
        "[recovery] FATAL: BENCH_results.json violates the documented schema: %s\n%!" msg;
      exit 1
  end;
  let has_autotune =
    List.exists
      (function
        | J.Obj f -> List.assoc_opt "figure" f = Some (J.String "fig.autotune")
        | _ -> false)
      !json_figures
  in
  if has_autotune then begin
    match validate_autotune_doc doc with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "[autotune] FATAL: BENCH_results.json violates the documented schema: %s\n%!"
        msg;
      exit 1
  end;
  let has_serve =
    List.exists
      (function
        | J.Obj f -> List.assoc_opt "figure" f = Some (J.String "fig.serve")
        | _ -> false)
      !json_figures
  in
  if has_serve then begin
    match validate_serve_doc doc with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "[serve] FATAL: BENCH_results.json violates the documented schema: %s\n%!"
        msg;
      exit 1
  end;
  let has_profile =
    List.exists
      (function
        | J.Obj f -> List.assoc_opt "figure" f = Some (J.String "fig.profile")
        | _ -> false)
      !json_figures
  in
  if has_profile then begin
    match validate_profile_doc doc with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "[profile] FATAL: BENCH_results.json violates the documented schema: %s\n%!"
        msg;
      exit 1
  end;
  let oc = open_out "BENCH_results.json" in
  J.to_channel oc doc;
  close_out oc;
  Printf.eprintf "[bench] wrote BENCH_results.json (%d figures)\n%!" (List.length !json_figures)

(* Every token the harness understands; anything else is a typo the run
   must refuse loudly — a silently ignored "chaso" would regenerate the
   default figure set and look like a passing chaos run. *)
let known_args =
  [
    "quick";
    "json";
    "bechamel";
    "smoke";
    "micro";
    "scaleout";
    "chaos";
    "recovery";
    "autotune";
    "collective";
    "profile";
    "serve";
  ]

let () =
  let args = Array.to_list Sys.argv in
  (match List.filter (fun a -> not (List.mem a known_args)) (List.tl args) with
  | [] -> ()
  | bad :: _ ->
    Printf.eprintf "unknown bench argument %S\n" bad;
    Printf.eprintf "usage: main.exe [%s]\n" (String.concat "|" known_args);
    exit 2);
  let quick = List.mem "quick" args in
  let json = List.mem "json" args in
  let with_bechamel = List.mem "bechamel" args in
  if List.mem "serve" args then begin
    let smoke = List.mem "smoke" args in
    let t_start = wall () in
    fig_serve ~smoke ();
    write_results ~mode:(if smoke then "serve-smoke" else "serve") ~elapsed:(wall () -. t_start);
    exit 0
  end;
  if List.mem "micro" args then begin
    let smoke = List.mem "smoke" args in
    let t_start = wall () in
    run_micro ~smoke;
    write_results ~mode:(if smoke then "micro-smoke" else "micro") ~elapsed:(wall () -. t_start);
    exit 0
  end;
  if List.mem "scaleout" args then begin
    let smoke = List.mem "smoke" args in
    let t_start = wall () in
    fig_scaleout ~smoke ();
    write_results
      ~mode:(if smoke then "scaleout-smoke" else "scaleout")
      ~elapsed:(wall () -. t_start);
    exit 0
  end;
  if List.mem "chaos" args then begin
    let smoke = List.mem "smoke" args in
    let t_start = wall () in
    fig_chaos ~smoke ();
    write_results ~mode:(if smoke then "chaos-smoke" else "chaos") ~elapsed:(wall () -. t_start);
    exit 0
  end;
  if List.mem "recovery" args then begin
    let smoke = List.mem "smoke" args in
    let t_start = wall () in
    fig_recovery ~smoke ();
    write_results
      ~mode:(if smoke then "recovery-smoke" else "recovery")
      ~elapsed:(wall () -. t_start);
    exit 0
  end;
  if List.mem "autotune" args then begin
    let smoke = List.mem "smoke" args in
    let t_start = wall () in
    fig_autotune ~smoke ();
    write_results
      ~mode:(if smoke then "autotune-smoke" else "autotune")
      ~elapsed:(wall () -. t_start);
    exit 0
  end;
  if List.mem "collective" args then begin
    let smoke = List.mem "smoke" args in
    let t_start = wall () in
    fig_collective ~smoke ();
    write_results
      ~mode:(if smoke then "collective-smoke" else "collective")
      ~elapsed:(wall () -. t_start);
    exit 0
  end;
  if List.mem "profile" args then begin
    let smoke = List.mem "smoke" args in
    let t_start = wall () in
    fig_profile ~smoke ();
    write_results
      ~mode:(if smoke then "profile-smoke" else "profile")
      ~elapsed:(wall () -. t_start);
    exit 0
  end;
  let t_start = wall () in
  timelines ();
  fig2_2a ();
  fig2_2b ();
  let fig61 = fig6_1 () in
  if not quick then ignore (fig6_2 ());
  let dace1d = fig6_3a () in
  let dace2d = fig6_3b () in
  headline fig61 dace1d dace2d;
  if not quick then begin
    supplementary_norm ();
    ablations ()
  end;
  fig_scaleout ~smoke:quick ();
  fig_collective ~smoke:quick ();
  fig_autotune ~smoke:quick ();
  if with_bechamel || not quick then bechamel_suite ();
  let elapsed = wall () -. t_start in
  if json then write_results ~mode:(if quick then "quick" else "full") ~elapsed;
  Printf.eprintf "[bench] jobs=%d wall-clock %.2fs\n%!" (Parallel.default_jobs ()) elapsed;
  Printf.printf "\nDone. See EXPERIMENTS.md for the per-figure comparison with the paper.\n"
