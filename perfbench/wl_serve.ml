(* serve_mix: the scenario daemon over its socket. One op is one [run]
   request on a single connection (closed loop). A seeded stream mixes
   cache hits on a hot set with unique cold scenarios over stencil and dace
   workloads, hgx / dgx:2 / fat-tree machines, artifacts and fault plans —
   the only workload that runs serve framing, the JSON codec, Scenario
   digesting, the LRU and the obs artifact export. *)

open Util
module Sc = Cpufree_core.Scenario
module J = Cpufree_core.Json
module S = Cpufree_serve
module P = S.Protocol
module H = Cpufree_stencil.Harness

(* ------------------------------------------------------------------ *)
(* The request stream                                                  *)
(* ------------------------------------------------------------------ *)

(* Small scenarios, warmed into the cache during set-up, then hits. *)
let hot_set size =
  let n = match size with Full -> 32 | Smoke -> 4 in
  let variants = [| "cpu-free"; "baseline-copy"; "baseline-overlap"; "baseline-p2p" |] in
  List.init n (fun i ->
      if i mod 8 = 7 then
        Printf.sprintf "dace app=jacobi1d arm=cpu-free size=%d iters=10 gpus=4 pdes=seq"
          (4096 * (1 + (i / 8)))
      else
        Printf.sprintf "stencil variant=%s dims=2d:%dx128 iters=%d gpus=%d pdes=seq"
          variants.(i mod 4)
          (128 + (64 * (i / 8)))
          (10 + (i mod 3))
          (if i mod 2 = 0 then 2 else 4))

(* Cold shapes as (weight, template). The template's argument [k] counts
   the shape's earlier uses and picks its free size parameters, so every
   cold request is a distinct cache key while the cold scenarios of whole
   decks are the same for every seed. Weights sum to the deck size; a
   third of the deck asks for trace and metrics artifacts. *)
let cold_shapes size =
  let d2 k = Printf.sprintf "2d:%dx%d" (1024 + (64 * (k mod 48))) (1024 + (64 * (k / 48 mod 48))) in
  let sz lo k = lo * (16 + k) in
  match size with
  | Full ->
    [
      (3, fun k -> Printf.sprintf "stencil variant=cpu-free dims=%s iters=100 gpus=8 pdes=seq" (d2 k));
      (2, fun k -> Printf.sprintf "stencil variant=baseline-overlap dims=%s iters=100 gpus=8 pdes=seq" (d2 k));
      (2, fun k -> Printf.sprintf "stencil variant=cpu-free dims=%s iters=80 gpus=16 topology=dgx:2 pdes=seq" (d2 k));
      (2, fun k -> Printf.sprintf "stencil variant=cpu-free dims=%s iters=60 gpus=32 topology=fat-tree pdes=seq" (d2 k));
      (2, fun k -> Printf.sprintf "stencil variant=cpu-free dims=%s iters=100 gpus=8 faults=drop=0.01 pdes=seq" (d2 k));
      (2, fun k -> Printf.sprintf "dace app=jacobi2d arm=cpu-free size=%d iters=50 gpus=8 pdes=seq" (sz 64 k));
      (1, fun k -> Printf.sprintf "dace app=jacobi2d arm=baseline size=%d iters=50 gpus=8 pdes=seq" (sz 64 k));
      (1, fun k -> Printf.sprintf "dace app=heat3d arm=cpu-free size=%d iters=50 gpus=8 pdes=seq" (sz 8 k));
      (4, fun k -> Printf.sprintf "stencil variant=cpu-free dims=%s iters=30 gpus=4 pdes=seq trace=on metrics=on" (d2 k));
      (3, fun k -> Printf.sprintf "dace app=jacobi1d arm=cpu-free size=%d iters=30 gpus=4 pdes=seq trace=on metrics=on" (sz 1024 k));
    ]
  | Smoke ->
    [
      (1, fun k -> Printf.sprintf "stencil variant=cpu-free dims=%s iters=5 gpus=4 pdes=seq" (d2 k));
      (1, fun k -> Printf.sprintf "stencil variant=cpu-free dims=%s iters=5 gpus=4 faults=drop=0.01 pdes=seq" (d2 k));
      (1, fun k -> Printf.sprintf "stencil variant=cpu-free dims=%s iters=5 gpus=2 pdes=seq trace=on metrics=on" (d2 k));
    ]

(* Every block of [block] ops holds [cold_per_block] cold requests at
   seeded positions; cold shapes are dealt from seeded shuffles of the
   weighted deck. The mix is therefore the same for every seed over whole
   blocks and decks. *)
let block = 20
let cold_per_block = 3

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Shape indices, each repeated by its weight. *)
let deck shapes = Array.of_list (List.concat (List.mapi (fun i (w, _) -> List.init w (fun _ -> i)) shapes))

type kind = Hot of int | Cold of int  (** index into the hot set / the cold sequence *)

let kind_of_op ~seed ~nhot i =
  let b = i / block in
  let rng = Random.State.make [| seed; 1; b |] in
  let slots = shuffle rng (Array.init block Fun.id) in
  let pos = i mod block in
  let rec find k = if k = cold_per_block then None else if slots.(k) = pos then Some k else find (k + 1) in
  match find 0 with
  | Some k -> Cold ((b * cold_per_block) + k)
  | None -> Hot (Random.State.int (Random.State.make [| seed; 2; i |]) nhot)

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type miss = {
  m_sc : Sc.t;
  m_payload : P.run_payload;
  m_wall : float;  (** request latency *)
}

type t = {
  cfg : cfg;
  pid : int;
  gc_pipe : Unix.file_descr;  (** the daemon writes its Gc totals here on exit *)
  client : S.Client.t;
  hot : Sc.t array;
  shapes : (int -> string) array;
  deck : int array;
  uses : int array;  (** per shape: cold requests drawn so far *)
  warm : (Sc.t * P.response) list;  (** set-up responses, checked with op 0 *)
  filled : (string, P.run_payload) Hashtbl.t;  (** digest -> the miss payload that filled it *)
  mutable pending : (Sc.t * P.run_payload * op) list;
      (** misses not yet compared with their in-process reference, newest first *)
  mutable next_id : int;
  mutable ops : int;
  mutable hits : float list;  (** traced pass: hit latencies *)
  mutable misses : miss list;  (** traced pass *)
  mutable stream : Sc.t list;  (** traced pass: every request, newest first *)
  mutable stats0 : P.stats_payload option;
}

let parse s = match Sc.of_string s with Ok sc -> sc | Error e -> failwith (s ^ ": " ^ e)

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let children : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let fork_daemon socket_path =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let w0 = words () in
    let code =
      try
        S.Server.run
          { socket_path; cache_capacity = 128; max_queue = 64; jobs = 1; selfcheck = false };
        0
      with e ->
        Printf.eprintf "serve_mix: daemon died: %s\n%!" (Printexc.to_string e);
        1
    in
    let line = Printf.sprintf "%.0f %.0f\n" (words () -. w0) (top_heap_bytes ()) in
    ignore (Unix.write_substring w line 0 (String.length line));
    Unix._exit code
  | pid ->
    Unix.close w;
    children := pid :: !children;
    (pid, r)

let rec connect path tries =
  match S.Client.connect path with
  | Ok c -> c
  | Error e ->
    if tries = 0 then failwith ("serve_mix: cannot reach the daemon: " ^ e)
    else begin
      Unix.sleepf 0.002;
      connect path (tries - 1)
    end

let stats t =
  match S.Client.stats t.client ~id:(fresh_id t) with
  | Ok s -> s
  | Error e -> failwith ("serve_mix: stats: " ^ e)

let daemon_count = ref 0

let setup cfg =
  incr daemon_count;
  let socket_path = Printf.sprintf "%s/serve-%d-%d.sock" cfg.workdir (Unix.getpid ()) !daemon_count in
  let pid, gc_pipe = fork_daemon socket_path in
  let client = connect socket_path 2500 in
  let hot = Array.of_list (List.map parse (hot_set cfg.size)) in
  let shapes = cold_shapes cfg.size in
  let t =
    {
      cfg; pid; gc_pipe; client; hot; shapes = Array.of_list (List.map snd shapes);
      deck = deck shapes; uses = Array.make (List.length shapes) 0; warm = [];
      filled = Hashtbl.create 256; pending = []; next_id = 0; ops = 0; hits = [];
      misses = []; stream = []; stats0 = None;
    }
  in
  ignore (stats t);
  let warm =
    Array.to_list
      (Array.map
         (fun sc ->
           match S.Client.run client ~id:(fresh_id t) sc with
           | Ok r -> (sc, r)
           | Error e -> failwith ("serve_mix: warm-up: " ^ e))
         hot)
  in
  let t = { t with warm } in
  t.stats0 <- Some (stats t);
  t

(* The [c]-th cold scenario, dealt from the seeded shuffle of its deck.
   Called once per [c], in order. *)
let cold_scenario t c =
  let n = Array.length t.deck in
  let order = shuffle (Random.State.make [| t.cfg.seed; 3; c / n |]) (Array.copy t.deck) in
  let shape = order.(c mod n) in
  let sc = parse (t.shapes.(shape) t.uses.(shape)) in
  t.uses.(shape) <- t.uses.(shape) + 1;
  sc

let events_of_artifact = function
  | None -> 0
  | Some doc -> (
    match J.of_string doc with
    | Ok (J.Obj kvs) -> (
      match List.assoc_opt "metrics" kvs with
      | Some (J.List items) ->
        List.fold_left
          (fun acc it ->
            match (J.member "name" it, J.member "value" it) with
            | Some (J.String "engine.events"), Some (J.Int v) -> acc + v
            | _ -> acc)
          0 items
      | _ -> 0)
    | _ -> 0)

(* The in-process reference for a miss and the engine events it took. A
   metrics registry is forced on to count events; it changes no simulated
   output, and its artifact is dropped again when the request did not ask
   for one. *)
let reference sc =
  match S.Exec.run { sc with Sc.metrics = true } with
  | Error e -> Error e
  | Ok p ->
    let events = events_of_artifact p.P.metrics in
    Ok ((if sc.Sc.metrics then p else { p with P.metrics = None }), events)

let corrupt t (p : P.run_payload) =
  if t.cfg.corrupt then { p with P.total_ns = p.P.total_ns + 1 } else p

(* Check one run response. A digest seen before must be byte-equal to the
   payload of the miss that filled it; a new one fills [filled] and is
   queued for [verify], which compares it with the in-process reference
   after the closed loop, so that no simulation of the benchmark's own runs
   between timed requests. Returns the error and whether the response was
   a cache hit. *)
let check t sc resp ~queue =
  match resp with
  | Error e -> (Some ("transport: " ^ e), None)
  | Ok (P.Error_resp { message; _ }) -> (Some ("error response: " ^ message), None)
  | Ok (P.Overload_resp _) -> (Some "overload", None)
  | Ok (P.Ok_resp { body = P.Run_result p; cached; _ }) -> (
    let digest = Sc.digest sc in
    match Hashtbl.find_opt t.filled digest with
    | Some p0 ->
      ( (if P.payload_equal p (corrupt t p0) then None
         else failf "%s: payload differs from the miss that filled the cache" (Sc.to_string sc)),
        Some cached )
    | None ->
      Hashtbl.replace t.filled digest p;
      queue p;
      (None, Some cached))
  | Ok _ -> (Some "unexpected response body", None)

let op t i =
  let sc =
    match kind_of_op ~seed:t.cfg.seed ~nhot:(Array.length t.hot) i with
    | Hot h -> t.hot.(h)
    | Cold c -> cold_scenario t c
  in
  let id = fresh_id t in
  let resp, wall, alloc = measure (fun () -> S.Client.run t.client ~id sc) in
  let sim =
    match resp with
    | Ok (P.Ok_resp { body = P.Run_result p; _ }) ->
      Printf.sprintf "%s=%d/%d" (Sc.digest sc) p.P.total_ns p.P.bytes_moved
    | _ -> "failed"
  in
  let o = { time = wall; alloc; events = 0; sim; error = None } in
  let queue sc p = t.pending <- (sc, p, o) :: t.pending in
  (* The set-up responses are checked with op 0. *)
  let warm_errors =
    if t.ops > 0 then []
    else List.map (fun (sc, r) -> fst (check t sc (Ok r) ~queue:(queue sc))) t.warm
  in
  t.ops <- t.ops + 1;
  let error, cached = check t sc resp ~queue:(queue sc) in
  o.error <- first_error (warm_errors @ [ error ]);
  if !Span.on then begin
    t.stream <- sc :: t.stream;
    match (cached, resp) with
    | Some true, _ -> t.hits <- wall :: t.hits
    | Some false, Ok (P.Ok_resp { body = P.Run_result p; _ }) ->
      t.misses <- { m_sc = sc; m_payload = p; m_wall = wall } :: t.misses
    | _ -> ()
  end;
  o

(* Every miss against an in-process Exec.run of its scenario; the op that
   carried it fails on a difference and is credited the engine events the
   reference counted. *)
let verify t =
  List.iter
    (fun (sc, p, o) ->
      let error, events =
        match reference sc with
        | Error e -> (failf "%s: in-process reference failed: %s" (Sc.to_string sc) e, 0)
        | Ok (want, events) ->
          ( (if P.payload_equal p (corrupt t want) then None
             else failf "%s: payload differs from in-process Exec.run" (Sc.to_string sc)),
            events )
      in
      o.events <- o.events + events;
      if o.error = None then o.error <- error)
    (List.rev t.pending);
  t.pending <- []

let teardown t =
  (match S.Client.shutdown t.client ~id:(fresh_id t) with
  | Ok () -> ()
  | Error e -> Printf.eprintf "serve_mix: shutdown: %s\n%!" e);
  S.Client.close t.client;
  let ic = Unix.in_channel_of_descr t.gc_pipe in
  let line = try input_line ic with End_of_file -> "0 0" in
  close_in ic;
  (match Unix.waitpid [] t.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "serve_mix: daemon exited abnormally");
  children := List.filter (fun p -> p <> t.pid) !children;
  Some (Scanf.sscanf line "%f %f" (fun w h -> (w, h)))

(* Whole blocks and whole decks: the traced pass's counts are the same for
   every seed. *)
let clock = Wall
let traced_ops = function Full -> 440 | Smoke -> 40

(* ------------------------------------------------------------------ *)
(* Per-layer probes                                                    *)
(* ------------------------------------------------------------------ *)

let median_of reps f = median (List.init reps (fun _ -> let _, w, _ = measure f in w))

(* The cpu-free stencil with each observability sink against none. *)
let sink_probe size =
  let base =
    match size with
    | Full -> "stencil variant=cpu-free dims=2d:2048x2048 iters=100 gpus=8 pdes=seq"
    | Smoke -> "stencil variant=cpu-free dims=2d:256x256 iters=5 gpus=4 pdes=seq"
  in
  let sc = parse base in
  let run sc =
    let h = match H.of_scenario sc with Ok h -> h | Error e -> failwith e in
    ignore (H.run_scenario h : Cpufree_core.Measure.result);
    H.scenario_sim_env h
  in
  (* Interleaved, so that drift in host speed hits all three alike. *)
  let variants = [| sc; { sc with Sc.metrics = true }; { sc with Sc.trace = true } |] in
  let walls = Array.make 3 [] in
  for _ = 1 to 7 do
    Array.iteri (fun i v -> let _, w, _ = measure (fun () -> run v) in walls.(i) <- w :: walls.(i)) variants
  done;
  let none = median walls.(0) and with_metrics = median walls.(1) and with_trace = median walls.(2) in
  let reps = 3 in
  let env = run { sc with Sc.metrics = true; trace = true } in
  let reg = Option.get env.Cpufree_obs.Sim_env.metrics in
  let tr = Option.get env.Cpufree_obs.Sim_env.trace in
  let events = float_of_int (metric_sum reg "engine.events") in
  let doc = ref "" in
  let export = median_of reps (fun () -> doc := Cpufree_obs.Perfetto.to_json_string ~metrics:reg tr) in
  let validate = median_of reps (fun () -> ignore (Cpufree_core.Trace_json.validate_string !doc)) in
  let metrics_export =
    median_of reps (fun () ->
        let d = Cpufree_core.Metrics_json.to_json reg in
        ignore (Cpufree_core.Metrics_json.validate d);
        ignore (J.to_string ~indent:2 d))
  in
  [
    ("obs.metrics_sink_ns_per_event", (with_metrics -. none) *. 1e9 /. events);
    ("obs.trace_sink_ns_per_event", (with_trace -. none) *. 1e9 /. events);
    ("obs.perfetto_export_ms", export *. 1e3);
    ("obs.trace_validate_ms", validate *. 1e3);
    ("obs.metrics_export_ms", metrics_export *. 1e3);
    ("obs.trace_artifact_mb", float_of_int (String.length !doc) /. 1e6);
  ]

let layers t cfg (ops : op list) =
  let n = List.length ops in
  let s1 = stats t in
  let s0 = Option.value t.stats0 ~default:s1 in
  let d f = float_of_int (f s1 - f s0) in
  let hits = d (fun s -> s.P.hits) and misses = d (fun s -> s.P.misses) in
  let rtt = List.init 200 (fun _ -> let _, w, _ = measure (fun () -> stats t) in w) in
  let misses_l = List.rev t.misses in
  (* In-process Exec.run of exactly the requests that missed. *)
  let execs =
    List.map
      (fun m ->
        let r, w, a = measure (fun () -> S.Exec.run m.m_sc) in
        (match r with
        | Ok p when P.payload_equal p m.m_payload -> ()
        | _ -> failwith "serve_mix: traced miss differs from in-process Exec.run");
        (w, a))
      misses_l
  in
  let exec_s = sum (List.map fst execs) in
  let exec_words = sum (List.map snd execs) in
  let events = float_of_int (List.fold_left (fun a o -> a + o.events) 0 ops) in
  let nm = List.length misses_l in
  let miss_walls = List.map (fun m -> m.m_wall) misses_l in
  (* Replay the pass's digest stream through a private LRU. *)
  let stream = List.rev t.stream in
  let digests = List.map Sc.digest stream in
  let payload_of d = Hashtbl.find t.filled d in
  let replay () =
    let c = S.Cache.create ~capacity:128 in
    Array.iter (fun sc -> let d = Sc.digest sc in S.Cache.add c d (payload_of d)) t.hot;
    List.iter (fun d -> match S.Cache.find c d with Some _ -> () | None -> S.Cache.add c d (payload_of d)) digests
  in
  let cache_s = median_of 5 replay in
  let strings = List.map Sc.to_string stream in
  let parse_s = median_of 5 (fun () -> List.iter (fun s -> ignore (Sc.of_string s)) strings) in
  let digest_s = median_of 5 (fun () -> List.iter (fun sc -> ignore (Sc.digest sc)) stream) in
  let artifact = List.filter (fun m -> m.m_payload.P.trace <> None) misses_l in
  let resp m = P.Ok_resp { id = 1; cached = false; digest = None; body = P.Run_result m.m_payload } in
  let encoded = List.map (fun m -> J.to_string ~indent:0 (P.response_to_json (resp m))) artifact in
  let encode_s = median_of 3 (fun () -> List.iter (fun m -> ignore (J.to_string ~indent:0 (P.response_to_json (resp m)))) artifact) in
  let decode_s =
    median_of 3 (fun () ->
        List.iter (fun s -> ignore (Result.bind (J.of_string s) P.response_of_json)) encoded)
  in
  let na = List.length artifact in
  [
    ("engine.events_per_op", events /. float_of_int n);
    ("engine.host_ns_per_event", exec_s *. 1e9 /. events);
    ("engine.alloc_words_per_event", exec_words /. events);
    ("core.scenario_parse_us", parse_s *. 1e6 /. float_of_int (List.length strings));
    ("core.scenario_digest_us", digest_s *. 1e6 /. float_of_int (List.length stream));
    ("core.json_encode_ms", per (encode_s *. 1e3) na);
    ("core.json_decode_ms", per (decode_s *. 1e3) na);
    ("serve.hit_ms_p50", median t.hits *. 1e3);
    ("serve.miss_ms_p50", median miss_walls *. 1e3);
    ("serve.stats_rtt_us_p50", median rtt *. 1e6);
    ("serve.cache_find_us", cache_s *. 1e6 /. float_of_int (List.length digests));
    ("serve.exec_ms_per_miss", per (exec_s *. 1e3) nm);
    ("serve.miss_overhead_ms", per ((sum miss_walls -. exec_s) *. 1e3) nm);
    ("serve.hit_ratio", hits /. (hits +. misses));
    ("serve.simulations", d (fun s -> s.P.simulations));
    ("serve.coalesced", d (fun s -> s.P.coalesced));
    ("serve.errors", d (fun s -> s.P.errors));
    ("serve.overloads", d (fun s -> s.P.overloads));
  ]
  @ sink_probe cfg.size
