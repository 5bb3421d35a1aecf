(* A 64-GPU fat-tree allreduce, printed in full: two binomial-tree and two
   recursive-doubling rounds on every PE over fixed contributions, then the
   engine's event count, the fabric counters, the simulated span and every
   PE's result of every round (as exact hex floats). The golden rule in
   this directory compares the output byte for byte with a capture. *)

module E = Cpufree_engine
module G = Cpufree_gpu
module Nv = Cpufree_comm.Nvshmem
module Coll = Cpufree_comm.Collective

let gpus = 64
let rounds = 4

let contribution ~round ~pe = float_of_int (((pe * 7919) + (round * 104729)) mod 1_000_003) /. 64.0

let () =
  let eng = E.Engine.create () in
  let env =
    Cpufree_obs.Sim_env.make
      ~topology:(Cpufree_machine.Topology.Fat_tree { arity = 4; rails = 2; gpus_per_node = 8 })
      ()
  in
  let ctx = G.Runtime.create eng ~env ~num_gpus:gpus () in
  let nv = Nv.init ctx in
  let tree = Coll.create ~algorithm:Coll.Tree nv ~label:"tree" in
  let doubling = Coll.create ~algorithm:Coll.Doubling nv ~label:"doubling" in
  let schedule = [| tree; tree; doubling; doubling |] in
  let results = Array.make_matrix rounds gpus Float.nan in
  for pe = 0 to gpus - 1 do
    ignore
      (E.Engine.spawn eng ~name:(Printf.sprintf "pe%d" pe) (fun () ->
           Array.iteri
             (fun round coll ->
               results.(round).(pe) <- Coll.allreduce_sum coll ~pe (contribution ~round ~pe))
             schedule)
        : E.Engine.process)
  done;
  E.Engine.run eng;
  let net = G.Runtime.net ctx in
  Printf.printf "events=%d transfers=%d bytes=%d span_ns=%d\n" (E.Engine.events_executed eng)
    (G.Interconnect.transfers net) (G.Interconnect.bytes_moved net)
    (E.Time.to_ns (E.Engine.now eng));
  Array.iteri
    (fun round per_pe ->
      Printf.printf "round %d (%s):" round (Coll.algorithm_to_string (Coll.algorithm schedule.(round)));
      Array.iter (fun v -> Printf.printf " %h" v) per_pe;
      print_newline ())
    results
