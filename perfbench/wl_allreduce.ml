(* allreduce_1024: host cost per transfer and per round. A 1024-GPU
   fat-tree machine runs binomial-tree and recursive-doubling allreduces
   of seeded contributions: few events, many transfers, and the 2n^2
   contribution buffers and allocating reduce of the collective layer. *)

open Util
module E = Cpufree_engine
module G = Cpufree_gpu
module Topo = Cpufree_machine.Topology
module Nv = Cpufree_comm.Nvshmem
module Coll = Cpufree_comm.Collective

type shape = { gpus : int; rounds : int; want_span_ns : int }

(* Reference simulated span of one op, taken from main. *)
let shape = function
  | Full -> { gpus = 1024; rounds = 2; want_span_ns = 543628 }
  | Smoke -> { gpus = 64; rounds = 1; want_span_ns = 137151 }

let spec = Topo.Fat_tree { arity = 4; rails = 2; gpus_per_node = 8 }

type t = {
  cfg : cfg;
  shape : shape;
  eng : E.Engine.t;
  ctx : G.Runtime.ctx;
  tree : Coll.t;
  doubling : Coll.t;
  names : string array;
  mutable transfers : int list;  (** per traced op *)
  mutable bytes : int list;
}

let contributions t i =
  let rng = Random.State.make [| t.cfg.seed; i |] in
  Array.init (2 * t.shape.rounds) (fun _ ->
      Array.init t.shape.gpus (fun _ -> Float.of_int (Random.State.int rng 1_000_000) /. 64.0))

(* Spawn one process per PE running [phases] (collective, round index)
   pairs, drain the engine, and count the PEs whose result differs from
   the in-order fold of the contributions. *)
let drain t phases vals =
  let want = Array.map (Array.fold_left ( +. ) 0.0) vals in
  let wrong = ref 0 in
  for pe = 0 to t.shape.gpus - 1 do
    ignore
      (E.Engine.spawn t.eng ~name:t.names.(pe) (fun () ->
           List.iter
             (fun (coll, r) ->
               if Coll.allreduce_sum coll ~pe vals.(r).(pe) <> want.(r) then incr wrong)
             phases)
        : E.Engine.process)
  done;
  E.Engine.run t.eng;
  !wrong

let all_phases t =
  List.init t.shape.rounds (fun r -> (t.tree, r))
  @ List.init t.shape.rounds (fun r -> (t.doubling, t.shape.rounds + r))

let op t i =
  let vals = contributions t i in
  let net = G.Runtime.net t.ctx in
  let ev0 = E.Engine.events_executed t.eng in
  let tr0 = G.Interconnect.transfers net and by0 = G.Interconnect.bytes_moved net in
  let start = E.Engine.now t.eng in
  let wrong, time, alloc = measure (fun () -> drain t (all_phases t) vals) in
  let span = E.Time.to_ns (E.Time.sub (E.Engine.now t.eng) start) in
  let events = E.Engine.events_executed t.eng - ev0 in
  let transfers = G.Interconnect.transfers net - tr0 in
  if !Span.on then begin
    t.transfers <- transfers :: t.transfers;
    t.bytes <- (G.Interconnect.bytes_moved net - by0) :: t.bytes
  end;
  let want_span = t.shape.want_span_ns + if t.cfg.corrupt then 1 else 0 in
  let error =
    first_error
      [
        (if wrong = 0 then None
         else failf "%d PE results differ from the in-order fold of the contributions" wrong);
        expect "simulated span (ns)" ~want:want_span ~got:span ~show:string_of_int;
      ]
  in
  { time; alloc; events; sim = Printf.sprintf "span=%d events=%d transfers=%d" span events transfers; error }

let setup cfg =
  let shape = shape cfg.size in
  let eng = E.Engine.create () in
  let env = Cpufree_core.Sim_env.make ~topology:spec ~pdes:`Seq () in
  let ctx = Span.wrap "gpu.runtime_create" (fun () -> G.Runtime.create eng ~env ~num_gpus:shape.gpus ()) in
  let nv = Nv.init ctx in
  let create algorithm label =
    Span.wrap "comm.collective_create" (fun () -> Coll.create ~algorithm nv ~label)
  in
  let tree = create Coll.Tree "tree" in
  let doubling = create Coll.Doubling "doubling" in
  let names = Array.init shape.gpus (Printf.sprintf "pe%d") in
  let t = { cfg; shape; eng; ctx; tree; doubling; names; transfers = []; bytes = [] } in
  (* Warm-up op: lazy route resolution finishes inside set-up. *)
  ignore (Span.wrap "warmup" (fun () -> drain t (all_phases t) (contributions t (-1))));
  t

let verify _ = ()
let clock = Cpu
let teardown _ = None
let traced_ops = function Full -> 8 | Smoke -> 2

(* Median host time of [reps] runs of [f]. *)
let median_time reps f = median (List.init reps (fun _ -> let _, w, _ = measure f in w))

let layers t _cfg (ops : op list) =
  let n = List.length ops in
  let events = List.fold_left (fun a o -> a + o.events) 0 ops in
  let times = List.map (fun o -> o.time) ops in
  let op_s = median times in
  let alloc = mean (List.map (fun o -> o.alloc) ops) in
  let transfers = mean (List.map float_of_int t.transfers) in
  let per_round coll =
    let vals = contributions t (-2) in
    let phases = List.init t.shape.rounds (fun r -> (coll, r)) in
    median_time 3 (fun () -> ignore (drain t phases vals)) /. float_of_int t.shape.rounds
  in
  let net = G.Runtime.net t.ctx in
  let profile = G.Arch.fabric_profile (G.Runtime.arch t.ctx) in
  let instantiate_s =
    median_time 3 (fun () -> ignore (Topo.instantiate spec ~profile ~gpus:t.shape.gpus))
  in
  let rounds = 2 * t.shape.rounds in
  [
    ("engine.events_per_op", per (float_of_int events) n);
    ("engine.host_ns_per_event", sum times *. 1e9 /. float_of_int events);
    ("engine.alloc_words_per_event", alloc *. float_of_int n /. float_of_int events);
    ("machine.instantiate_ms", instantiate_s *. 1e3);
    ("machine.route_rows_cached", float_of_int (Topo.route_rows_cached (G.Interconnect.topology net)));
    ("gpu.runtime_create_ms", Span.total "gpu.runtime_create" *. 1e3);
    ("gpu.pairs_resolved", float_of_int (G.Interconnect.pairs_resolved net));
    ("gpu.route_fill_ms", (Span.total "warmup" -. op_s) *. 1e3);
    ("gpu.transfers_per_op", transfers);
    ("gpu.bytes_per_op", mean (List.map float_of_int t.bytes));
    ("gpu.host_us_per_transfer", op_s *. 1e6 /. transfers);
    ("comm.collective_create_ms", Span.total "comm.collective_create" *. 1e3);
    ("comm.collective_create_mwords", Span.total_words "comm.collective_create" /. 1e6);
    ("comm.allreduce_ms_per_round.tree", per_round t.tree *. 1e3);
    ("comm.allreduce_ms_per_round.doubling", per_round t.doubling *. 1e3);
    ("comm.alloc_words_per_round", alloc /. float_of_int rounds);
  ]
