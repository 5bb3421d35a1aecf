(* 64-GPU fat-tree allreduces, printed in full: the engine's event count,
   the fabric counters, the simulated span and every PE's result of every
   round (as exact hex floats). The golden rules in this directory compare
   the output byte for byte with a capture.

   [allreduce_golden.exe] runs two binomial-tree and two recursive-doubling
   rounds on a healthy machine. [allreduce_golden.exe chaos] runs faulted
   collectives: dense, tree and doubling rounds under dropped and delayed
   deliveries, then a run whose killed PE forces every group to shrink; a
   dead PE's result is printed as [-]. *)

module E = Cpufree_engine
module G = Cpufree_gpu
module F = Cpufree_fault.Fault
module Nv = Cpufree_comm.Nvshmem
module Coll = Cpufree_comm.Collective

let gpus = 64

let contribution ~round ~pe = float_of_int (((pe * 7919) + (round * 104729)) mod 1_000_003) /. 64.0

let fault_spec s = match F.of_string s with Ok spec -> spec | Error e -> failwith e

(* Run [algorithms] (one collective each, rounds in list order) on every
   PE. [pause_after] rounds in, every PE idles [pause_us] so a scheduled
   kill lands between rounds. *)
let run ?faults ?(pause_after = -1) ?(pause_us = 0) ~title algorithms =
  let eng = E.Engine.create () in
  let env =
    Cpufree_obs.Sim_env.make
      ~topology:(Cpufree_machine.Topology.Fat_tree { arity = 4; rails = 2; gpus_per_node = 8 })
      ?faults:(Option.map fault_spec faults) ~fault_seed:7 ()
  in
  let ctx = G.Runtime.create eng ~env ~num_gpus:gpus () in
  let nv = Nv.init ctx in
  let colls = Hashtbl.create 4 in
  let coll_of algorithm =
    match Hashtbl.find_opt colls algorithm with
    | Some c -> c
    | None ->
      let c = Coll.create ~algorithm nv ~label:(Coll.algorithm_to_string algorithm) in
      Hashtbl.add colls algorithm c;
      c
  in
  let schedule = Array.of_list (List.map coll_of algorithms) in
  let rounds = Array.length schedule in
  let results = Array.make_matrix rounds gpus Float.nan in
  let finished = Array.make gpus false in
  for pe = 0 to gpus - 1 do
    ignore
      (E.Engine.spawn eng ~name:(Printf.sprintf "pe%d" pe) (fun () ->
           Array.iteri
             (fun round coll ->
               if round = pause_after then E.Engine.delay eng (E.Time.us pause_us);
               results.(round).(pe) <- Coll.allreduce_sum coll ~pe (contribution ~round ~pe))
             schedule;
           finished.(pe) <- true)
        : E.Engine.process)
  done;
  E.Engine.run eng;
  let net = G.Runtime.net ctx in
  Option.iter (Printf.printf "== %s\n") title;
  Printf.printf "events=%d transfers=%d bytes=%d span_ns=%d\n" (E.Engine.events_executed eng)
    (G.Interconnect.transfers net) (G.Interconnect.bytes_moved net)
    (E.Time.to_ns (E.Engine.now eng));
  let dead pe =
    match Nv.faults nv with
    | None -> false
    | Some plan -> F.dead (F.spec_of plan) ~pe ~now:(E.Engine.now eng)
  in
  Array.iteri
    (fun round per_pe ->
      Printf.printf "round %d (%s):" round (Coll.algorithm_to_string (Coll.algorithm schedule.(round)));
      Array.iteri
        (fun pe v -> if dead pe || not finished.(pe) then print_string " -" else Printf.printf " %h" v)
        per_pe;
      print_newline ())
    results

let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> run ~title:None [ Coll.Tree; Coll.Tree; Coll.Doubling; Coll.Doubling ]
  | [ _; "chaos" ] ->
    List.iter
      (fun algorithm ->
        run ~faults:"drop=0.05,delay=0.2@3000"
          ~title:(Some ("drop=0.05,delay=0.2@3000 " ^ Coll.algorithm_to_string algorithm))
          [ algorithm; algorithm; algorithm ])
      [ Coll.Dense; Coll.Tree; Coll.Doubling ];
    run ~faults:"kill=13@300" ~pause_after:1 ~pause_us:400 ~title:(Some "kill=13@300 shrink")
      [ Coll.Dense; Coll.Dense; Coll.Tree; Coll.Doubling ]
  | _ ->
    prerr_endline "usage: allreduce_golden.exe [chaos]";
    exit 2
