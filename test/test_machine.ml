(* Topology graph: exact routed latencies/ports on the named machines, plus
   qcheck laws (route symmetry, triangle inequality) over random specs. *)

module M = Cpufree_machine
module T = M.Topology
module Time = Cpufree_engine.Time

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_float = Alcotest.(check (float 0.0))

let lat t ~src ~dst = Time.to_ns (T.route_latency t ~src ~dst)

let port_names t ~src ~dst =
  let ps = Array.of_list (T.ports t) in
  List.map (fun p -> ps.(p).T.pname) (T.route_ports t ~src ~dst)

(* ---------------- hgx: must reproduce the flat NVSwitch model ------------- *)

let test_hgx_gpu_pair () =
  let t = T.hgx ~profile:T.a100 ~gpus:8 in
  let src = T.gpu_vertex t 0 and dst = T.gpu_vertex t 3 in
  check_int "gpu-gpu wire latency is exactly nvlink" 1_500 (lat t ~src ~dst);
  check_float "gpu-gpu bottleneck is the nvlink rate" (1.0 /. 300.0)
    (T.route_ns_per_byte t ~src ~dst);
  Alcotest.(check (list string))
    "books exactly source egress + destination ingress"
    [ "gpu0.egress"; "gpu3.ingress" ] (port_names t ~src ~dst)

let test_hgx_host_paths () =
  let t = T.hgx ~profile:T.a100 ~gpus:4 in
  let h = T.host_vertex t ~node:0 and g = T.gpu_vertex t 2 in
  check_int "host-to-gpu is exactly pcie" 2_500 (lat t ~src:h ~dst:g);
  check_int "gpu-to-host is exactly pcie" 2_500 (lat t ~src:g ~dst:h);
  check_float "host path bottleneck is the pcie rate" (1.0 /. 25.0)
    (T.route_ns_per_byte t ~src:h ~dst:g);
  Alcotest.(check (list string))
    "host-to-gpu books host port + gpu ingress"
    [ "host.pcie"; "gpu2.ingress" ] (port_names t ~src:h ~dst:g);
  Alcotest.(check (list string))
    "gpu-to-host books gpu egress + host port"
    [ "gpu2.egress"; "host.pcie" ] (port_names t ~src:g ~dst:h)

let test_hgx_self () =
  let t = T.hgx ~profile:T.a100 ~gpus:2 in
  let g = T.gpu_vertex t 1 in
  check_int "self route has zero latency" 0 (lat t ~src:g ~dst:g);
  check_int "self route is empty" 0 (List.length (T.route t ~src:g ~dst:g));
  check_float "self route serializes at hbm rate" (1.0 /. 1555.0)
    (T.route_ns_per_byte t ~src:g ~dst:g)

let test_hgx_pair_stats () =
  let t = T.hgx ~profile:T.h100 ~gpus:8 in
  check_int "h100 min gpu pair"
    1_200
    (match T.min_gpu_pair_latency t with Some l -> Time.to_ns l | None -> -1);
  check_int "h100 max gpu pair = min on a switch"
    1_200
    (match T.max_gpu_pair_latency t with Some l -> Time.to_ns l | None -> -1)

(* ---------------- dgx: inter-node routes pay NIC + IB --------------------- *)

let test_dgx_internode () =
  let t = T.dgx_cluster ~profile:T.a100 ~nodes:2 ~gpus_per_node:8 in
  check_int "16 GPUs" 16 (T.num_gpus t);
  check_int "2 nodes" 2 (T.num_nodes t);
  check_int "gpu 11 lives on node 1" 1 (T.node_of_gpu t 11);
  let a = T.gpu_vertex t 1 and b = T.gpu_vertex t 9 in
  (* egress + switch-to-NIC + IB up + IB down + NIC-to-switch + ingress
     = nvlink + 2*(pcie - nvlink/2) + ib = 2*pcie + ib. *)
  check_int "inter-node gpu pair costs 2*pcie + ib" 6_300 (lat t ~src:a ~dst:b);
  check_float "inter-node bottleneck is the NIC line rate" (1.0 /. 25.0)
    (T.route_ns_per_byte t ~src:a ~dst:b);
  Alcotest.(check (list string))
    "inter-node route books both NIC directions"
    [ "gpu1.egress"; "node0.nic.tx"; "node1.nic.rx"; "gpu9.ingress" ]
    (port_names t ~src:a ~dst:b);
  let c = T.gpu_vertex t 8 in
  check_int "intra-node pair unchanged by scale-out" 1_500 (lat t ~src:b ~dst:c);
  check_int "min gpu pair is the intra-node one"
    1_500
    (match T.min_gpu_pair_latency t with Some l -> Time.to_ns l | None -> -1);
  check_int "max gpu pair is the inter-node one"
    6_300
    (match T.max_gpu_pair_latency t with Some l -> Time.to_ns l | None -> -1)

let test_dgx_hosts () =
  let t = T.dgx_cluster ~profile:T.a100 ~nodes:2 ~gpus_per_node:4 in
  let h0 = T.host_vertex t ~node:0 and h1 = T.host_vertex t ~node:1 in
  let g_far = T.gpu_vertex t 5 in
  check_int "local host attach still pcie" 2_500 (lat t ~src:h1 ~dst:g_far);
  check_bool "remote host reaches remote gpu" true
    (lat t ~src:h0 ~dst:g_far > 2_500);
  check_bool "host-to-host crosses the spine" true (T.reachable t ~src:h0 ~dst:h1)

(* ---------------- ring and pcie_only -------------------------------------- *)

let test_ring_multihop () =
  let t = T.ring ~profile:T.a100 ~gpus:8 in
  let a = T.gpu_vertex t 0 in
  check_int "neighbour is one hop" 1_500 (lat t ~src:a ~dst:(T.gpu_vertex t 1));
  check_int "opposite gpu is four hops" 6_000 (lat t ~src:a ~dst:(T.gpu_vertex t 4));
  Alcotest.(check (list string))
    "two-hop route books the relay's ports too"
    [ "gpu0.egress"; "gpu1.ingress"; "gpu1.egress"; "gpu2.ingress" ]
    (port_names t ~src:a ~dst:(T.gpu_vertex t 2))

let test_pcie_only () =
  let t = T.pcie_only ~profile:T.a100 ~gpus:4 in
  let a = T.gpu_vertex t 0 and b = T.gpu_vertex t 3 in
  check_int "peer traffic pays full pcie" 2_500 (lat t ~src:a ~dst:b);
  check_float "peer traffic at pcie rate" (1.0 /. 25.0) (T.route_ns_per_byte t ~src:a ~dst:b);
  Alcotest.(check (list string))
    "peer route shares the root complex"
    [ "gpu0.egress"; "pcie.root"; "gpu3.ingress" ]
    (port_names t ~src:a ~dst:b)

(* ---------------- cluster fabrics: fat tree and dragonfly ----------------- *)

let test_fat_tree_classes () =
  let t = T.fat_tree ~profile:T.a100 ~arity:2 ~rails:2 ~nodes:4 ~gpus_per_node:2 in
  check_str "routes structurally" "structural" (T.routing_kind t);
  check_int "8 GPUs" 8 (T.num_gpus t);
  let g n = T.gpu_vertex t n in
  check_int "same-node pair rides the NVSwitch" 1_500 (lat t ~src:(g 0) ~dst:(g 1));
  (* Nodes 0 and 1 share leaf 0 (arity 2); node 2 hangs off leaf 1. *)
  check_int "intra-leaf pair costs 2*pcie + ib" 6_300 (lat t ~src:(g 0) ~dst:(g 2));
  check_int "cross-leaf pair adds one more ib hop" 7_600 (lat t ~src:(g 0) ~dst:(g 4));
  check_int "min gpu pair is the same-node one" 1_500
    (match T.min_gpu_pair_latency t with Some l -> Time.to_ns l | None -> -1);
  check_int "max gpu pair is the cross-leaf one" 7_600
    (match T.max_gpu_pair_latency t with Some l -> Time.to_ns l | None -> -1);
  check_int "structural routing caches no rows" 0 (T.route_rows_cached t)

let test_dragonfly_classes () =
  let t = T.dragonfly ~profile:T.a100 ~a:2 ~p:2 ~h:1 ~nodes:8 ~gpus_per_node:2 in
  check_str "routes structurally" "structural" (T.routing_kind t);
  let g n = T.gpu_vertex t n in
  check_int "same-node pair rides the NVSwitch" 1_500 (lat t ~src:(g 0) ~dst:(g 1));
  (* p = 2: nodes 0 and 1 share a router; node 2 is the same group's other
     router; node 4 opens group 1. *)
  check_int "same-router pair costs 2*pcie + ib" 6_300 (lat t ~src:(g 0) ~dst:(g 2));
  check_int "same-group pair adds a local hop" 7_600 (lat t ~src:(g 0) ~dst:(g 4));
  (* Nodes 0 and 4 sit on the routers that own the inter-group link, so the
     minimal route is local-free; nodes 2 and 6 (routers 1) detour one local
     hop on each side. *)
  check_int "cross-group pair pays the optical hop" 10_200 (lat t ~src:(g 0) ~dst:(g 8));
  check_int "cross-group pair off the owner routers adds two local hops" 12_800
    (lat t ~src:(g 4) ~dst:(g 12));
  check_int "max gpu pair is the worst cross-group one" 12_800
    (match T.max_gpu_pair_latency t with Some l -> Time.to_ns l | None -> -1);
  check_int "structural routing caches no rows" 0 (T.route_rows_cached t)

(* Building a 1024-GPU machine must cost O(endpoints): no all-pairs tables,
   no Dijkstra rows — the bound is a wide margin over the measured build
   (a few MB) but far below what one eager row per source would allocate. *)
let test_cluster_build_lazy () =
  let budget = 64e6 in
  let check_build name t allocated =
    check_bool (name ^ " build allocates O(endpoints)") true (allocated < budget);
    check_str (name ^ " routes structurally") "structural" (T.routing_kind t);
    check_int (name ^ " caches no rows at build") 0 (T.route_rows_cached t);
    let src = T.gpu_vertex t 0 and dst = T.gpu_vertex t 1023 in
    check_bool (name ^ " routes a cross-machine pair") true (lat t ~src ~dst > 1_500);
    check_int (name ^ " structural route caches nothing") 0 (T.route_rows_cached t)
  in
  let b0 = Gc.allocated_bytes () in
  let ft = T.fat_tree ~profile:T.a100 ~arity:4 ~rails:2 ~nodes:128 ~gpus_per_node:8 in
  let b1 = Gc.allocated_bytes () in
  let df = T.dragonfly ~profile:T.a100 ~a:4 ~p:4 ~h:2 ~nodes:128 ~gpus_per_node:8 in
  let b2 = Gc.allocated_bytes () in
  check_build "fat tree" ft (b1 -. b0);
  check_build "dragonfly" df (b2 -. b1)

(* The Dijkstra row cache is a speed/memory knob only: routes resolved with
   a single cached row must be identical — links, ports and latency — to
   the default cache, because eviction forces deterministic recomputation. *)
let test_cache_size_invariance () =
  let t_full = T.dgx_cluster ~profile:T.a100 ~nodes:3 ~gpus_per_node:2 in
  let t_one = T.dgx_cluster ~profile:T.a100 ~nodes:3 ~gpus_per_node:2 in
  T.set_route_cache t_one 1;
  let n = T.num_vertices t_full in
  check_int "same graph" n (T.num_vertices t_one);
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if T.reachable t_full ~src:a ~dst:b then begin
        if lat t_full ~src:a ~dst:b <> lat t_one ~src:a ~dst:b then
          Alcotest.failf "latency differs at cache size 1 for %d->%d" a b;
        let lids t = List.map (fun l -> l.T.lid) (T.route t ~src:a ~dst:b) in
        if lids t_full <> lids t_one then
          Alcotest.failf "route differs at cache size 1 for %d->%d" a b;
        if T.route_ports t_full ~src:a ~dst:b <> T.route_ports t_one ~src:a ~dst:b then
          Alcotest.failf "ports differ at cache size 1 for %d->%d" a b
      end
    done
  done;
  check_bool "cache honours its cap" true (T.route_rows_cached t_one <= 1);
  (* Shrinking an already-warm cache trims immediately. *)
  T.set_route_cache t_full 2;
  check_bool "trim on shrink" true (T.route_rows_cached t_full <= 2)

(* ---------------- specs --------------------------------------------------- *)

let test_spec_parsing () =
  let ok s v =
    match T.spec_of_string s with
    | Ok got -> check_bool (Printf.sprintf "parse %S" s) true (got = v)
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  ok "hgx" T.Hgx;
  ok "RING" T.Ring;
  ok "pcie" T.Pcie_only;
  ok "pcie_only" T.Pcie_only;
  ok "dgx" (T.Dgx { nodes = 2 });
  ok "dgx:4" (T.Dgx { nodes = 4 });
  check_bool "garbage rejected" true
    (match T.spec_of_string "torus" with Error _ -> true | Ok _ -> false);
  check_bool "dgx:0 rejected" true
    (match T.spec_of_string "dgx:0" with Error _ -> true | Ok _ -> false);
  check_str "dgx roundtrip" "dgx:3" (T.spec_to_string (T.Dgx { nodes = 3 }));
  check_bool "uneven dgx split rejected" true
    (try
       ignore (T.instantiate (T.Dgx { nodes = 3 }) ~profile:T.a100 ~gpus:8);
       false
     with Invalid_argument _ -> true);
  ok "fat-tree" (T.Fat_tree { arity = 4; rails = 1; gpus_per_node = 8 });
  ok "fat_tree:8" (T.Fat_tree { arity = 8; rails = 1; gpus_per_node = 8 });
  ok "FatTree:4:2:4" (T.Fat_tree { arity = 4; rails = 2; gpus_per_node = 4 });
  ok "dragonfly" (T.Dragonfly { a = 4; p = 2; h = 2; gpus_per_node = 8 });
  ok "Dragonfly:2:1:1:2" (T.Dragonfly { a = 2; p = 1; h = 1; gpus_per_node = 2 });
  check_str "fat-tree roundtrip" "fat-tree:4:2:8"
    (T.spec_to_string (T.Fat_tree { arity = 4; rails = 2; gpus_per_node = 8 }));
  check_str "dragonfly roundtrip" "dragonfly:4:2:2:8"
    (T.spec_to_string (T.Dragonfly { a = 4; p = 2; h = 2; gpus_per_node = 8 }));
  check_bool "fat-tree:0 rejected" true
    (match T.spec_of_string "fat-tree:0" with Error _ -> true | Ok _ -> false);
  check_bool "partial dragonfly spec rejected" true
    (match T.spec_of_string "dragonfly:2" with Error _ -> true | Ok _ -> false);
  check_bool "dragonfly over its global-link budget rejected" true
    (match
       T.validate (T.Dragonfly { a = 1; p = 1; h = 1; gpus_per_node = 1 }) ~gpus:8
     with
    | Error _ -> true
    | Ok () -> false)

let test_bad_lookups () =
  let t = T.hgx ~profile:T.a100 ~gpus:2 in
  check_bool "gpu_vertex range-checked" true
    (try
       ignore (T.gpu_vertex t 5);
       false
     with Invalid_argument _ -> true);
  check_bool "route vid range-checked" true
    (try
       ignore (T.route_latency t ~src:0 ~dst:999);
       false
     with Invalid_argument _ -> true)

(* ---------------- qcheck laws --------------------------------------------- *)

let gen_topology =
  QCheck.Gen.(
    let* profile = oneofl [ T.a100; T.h100 ] in
    let* spec =
      oneof
        [
          return T.Hgx;
          return T.Ring;
          return T.Pcie_only;
          map (fun n -> T.Dgx { nodes = n }) (int_range 2 4);
          map2
            (fun arity rails -> T.Fat_tree { arity; rails; gpus_per_node = 2 })
            (int_range 2 3) (int_range 1 2);
          map (fun h -> T.Dragonfly { a = 2; p = 2; h; gpus_per_node = 2 }) (int_range 1 2);
        ]
    in
    let* per = int_range 1 6 in
    let gpus =
      match spec with
      | T.Dgx { nodes } -> nodes * per
      | T.Fat_tree _ | T.Dragonfly _ -> 2 * per
      | _ -> per + 1
    in
    return (T.instantiate spec ~profile ~gpus))

let arb_topology =
  QCheck.make ~print:(fun t -> Format.asprintf "%a" T.pp t) gen_topology

(* All named constructors build symmetric graphs: every routed cost must be
   direction-independent. *)
let prop_route_symmetry =
  QCheck.Test.make ~name:"routed latency is symmetric" ~count:100 arb_topology (fun t ->
      let n = T.num_vertices t in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if T.reachable t ~src:a ~dst:b then
            ok :=
              !ok
              && T.reachable t ~src:b ~dst:a
              && Time.equal (T.route_latency t ~src:a ~dst:b) (T.route_latency t ~src:b ~dst:a)
        done
      done;
      !ok)

let prop_triangle =
  QCheck.Test.make ~name:"routed latency obeys the triangle inequality" ~count:100 arb_topology
    (fun t ->
      let n = T.num_vertices t in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          for c = 0 to n - 1 do
            if
              T.reachable t ~src:a ~dst:b && T.reachable t ~src:b ~dst:c
              && T.reachable t ~src:a ~dst:c
            then
              ok :=
                !ok
                && Time.to_ns (T.route_latency t ~src:a ~dst:c)
                   <= Time.to_ns (T.route_latency t ~src:a ~dst:b)
                      + Time.to_ns (T.route_latency t ~src:b ~dst:c)
          done
        done
      done;
      !ok)

let prop_route_well_formed =
  QCheck.Test.make ~name:"routes are contiguous and latency-additive" ~count:100 arb_topology
    (fun t ->
      let n = T.num_vertices t in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if a <> b && T.reachable t ~src:a ~dst:b then begin
            let r = T.route t ~src:a ~dst:b in
            let contiguous =
              match r with
              | [] -> false
              | first :: _ ->
                first.T.lsrc = a
                && (List.rev r |> List.hd).T.ldst = b
                && fst
                     (List.fold_left
                        (fun (good, prev) l -> (good && l.T.lsrc = prev, l.T.ldst))
                        (true, a) r)
            in
            let additive =
              List.fold_left (fun acc l -> acc + Time.to_ns l.T.llatency) 0 r
              = Time.to_ns (T.route_latency t ~src:a ~dst:b)
            in
            ok := !ok && contiguous && additive
          end
        done
      done;
      !ok)

(* Structural routing is property-tested against the uncached Dijkstra
   oracle: same reachability, same latency on every vertex pair. The paths
   themselves may differ (equal-cost multipath across rails/spines), the
   costs may not. *)
let gen_structural =
  QCheck.Gen.(
    let* profile = oneofl [ T.a100; T.h100 ] in
    oneof
      [
        (let* arity = int_range 2 4 in
         let* rails = int_range 1 3 in
         let* nodes = int_range 1 8 in
         let* gpus_per_node = int_range 1 3 in
         return (T.fat_tree ~profile ~arity ~rails ~nodes ~gpus_per_node));
        (let* a = int_range 2 3 in
         let* p = int_range 1 2 in
         let* h = int_range 1 2 in
         let* nodes = int_range 1 8 in
         let* gpus_per_node = int_range 1 2 in
         let nodes = min nodes (a * p * ((a * h) + 1)) in
         return (T.dragonfly ~profile ~a ~p ~h ~nodes ~gpus_per_node));
      ])

let arb_structural =
  QCheck.make ~print:(fun t -> Format.asprintf "%a" T.pp t) gen_structural

let prop_structural_matches_dijkstra =
  QCheck.Test.make ~name:"structural routing equals reference Dijkstra" ~count:40
    arb_structural (fun t ->
      if T.routing_kind t <> "structural" then QCheck.Test.fail_report "not structural";
      let n = T.num_vertices t in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          match T.dijkstra_reference t ~src:a ~dst:b with
          | None -> ok := !ok && not (T.reachable t ~src:a ~dst:b)
          | Some (_, reference) ->
            ok :=
              !ok
              && T.reachable t ~src:a ~dst:b
              && Time.equal (T.route_latency t ~src:a ~dst:b) reference
        done
      done;
      !ok)

(* ---------------- degraded routing ---------------------------------------- *)

let test_ring_reroutes_around_dead_link () =
  let t = T.ring ~profile:T.a100 ~gpus:4 in
  let g0 = T.gpu_vertex t 0 and g1 = T.gpu_vertex t 1 in
  let healthy = lat t ~src:g0 ~dst:g1 in
  check_bool "starts healthy" false (T.degraded t);
  check_int "epoch starts at zero" 0 (T.route_epoch t);
  T.fail_link t ~src:"gpu0" ~dst:"gpu1";
  check_bool "degraded" true (T.degraded t);
  check_bool "epoch bumped" true (T.route_epoch t > 0);
  check_bool "still reachable" true (T.reachable t ~src:g0 ~dst:g1);
  (* The ring reroutes the long way round: three live hops. *)
  check_int "detour latency" (3 * healthy) (lat t ~src:g0 ~dst:g1);
  List.iter
    (fun l ->
      check_bool "route avoids the corpse" false
        ((l.T.lsrc = g0 && l.T.ldst = g1) || (l.T.lsrc = g1 && l.T.ldst = g0)))
    (T.route t ~src:g0 ~dst:g1);
  (* Idempotent: killing the same link again changes nothing. *)
  let epoch = T.route_epoch t in
  T.fail_link t ~src:"gpu0" ~dst:"gpu1";
  check_int "idempotent" epoch (T.route_epoch t)

let test_second_failure_partitions () =
  let t = T.ring ~profile:T.a100 ~gpus:4 in
  T.fail_link t ~src:"gpu0" ~dst:"gpu1";
  T.fail_link t ~src:"gpu1" ~dst:"gpu2";
  let g0 = T.gpu_vertex t 0 and g1 = T.gpu_vertex t 1 in
  check_bool "gpu1 cut off" false (T.reachable t ~src:g0 ~dst:g1);
  (match T.route_latency t ~src:g0 ~dst:g1 with
  | (_ : Time.t) -> Alcotest.fail "expected Partitioned"
  | exception T.Partitioned msg ->
    check_bool "diagnosis names the endpoints" true
      (Astring.String.is_infix ~affix:"gpu0" msg && Astring.String.is_infix ~affix:"gpu1" msg));
  check_bool "dead links counted" true (T.dead_link_count t > 0);
  (* The rest of the ring still talks. *)
  check_bool "survivors route" true
    (T.reachable t ~src:g0 ~dst:(T.gpu_vertex t 3))

let test_switch_failure_cuts_node () =
  let t = T.dgx_cluster ~profile:T.a100 ~nodes:2 ~gpus_per_node:2 in
  T.fail_switch t ~name:"node1.nvswitch";
  Alcotest.(check (list string)) "obituary" [ "node1.nvswitch" ] (T.dead_vertices t);
  let g0 = T.gpu_vertex t 0 and g2 = T.gpu_vertex t 2 in
  (* Node 1's GPUs hang off the dead switch: unreachable from node 0. *)
  check_bool "cross-node dead" false (T.reachable t ~src:g0 ~dst:g2);
  (* Node 0 stays intact. *)
  check_bool "node0 intact" true (T.reachable t ~src:g0 ~dst:(T.gpu_vertex t 1))

(* Degraded routing is property-tested against the same Dijkstra oracle,
   which recomputes on the surviving subgraph: after a deterministic
   link/switch kill, re-resolved routes must match the oracle, avoid the
   corpse, and keep the metric laws. *)

let apply_kill t pick =
  let vs = Array.of_list (T.vertices t) in
  let links = Array.of_list (T.links t) in
  let switches =
    List.filter
      (fun v -> match v.T.kind with T.Switch _ -> true | _ -> false)
      (T.vertices t)
  in
  if pick land 1 = 1 && switches <> [] then begin
    let v = List.nth switches (pick / 2 mod List.length switches) in
    T.fail_switch t ~name:v.T.vname;
    None
  end
  else begin
    let l = links.(pick / 2 mod Array.length links) in
    T.fail_link t ~src:vs.(l.T.lsrc).T.vname ~dst:vs.(l.T.ldst).T.vname;
    Some (l.T.lsrc, l.T.ldst)
  end

let arb_degraded =
  QCheck.make
    ~print:(fun (t, pick) -> Format.asprintf "%a kill=%d" T.pp t pick)
    QCheck.Gen.(pair gen_topology (int_bound 9999))

let prop_degraded_matches_dijkstra =
  QCheck.Test.make ~name:"degraded routing equals the dead-aware Dijkstra oracle"
    ~count:60 arb_degraded (fun (t, pick) ->
      let vs = Array.of_list (T.vertices t) in
      let killed_pair = apply_kill t pick in
      if not (T.degraded t) then QCheck.Test.fail_report "kill did not degrade";
      let dead = T.dead_vertices t in
      let n = T.num_vertices t in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          match T.dijkstra_reference t ~src:a ~dst:b with
          | None -> ok := !ok && not (T.reachable t ~src:a ~dst:b)
          | Some (_, reference) ->
            ok :=
              !ok
              && T.reachable t ~src:a ~dst:b
              && Time.equal (T.route_latency t ~src:a ~dst:b) reference
              && T.reachable t ~src:b ~dst:a
              && Time.equal (T.route_latency t ~src:b ~dst:a) reference;
            if a <> b && !ok then
              List.iter
                (fun l ->
                  if
                    List.mem vs.(l.T.lsrc).T.vname dead
                    || List.mem vs.(l.T.ldst).T.vname dead
                  then ok := false;
                  match killed_pair with
                  | Some (x, y) ->
                    if (l.T.lsrc = x && l.T.ldst = y) || (l.T.lsrc = y && l.T.ldst = x)
                    then ok := false
                  | None -> ())
                (T.route t ~src:a ~dst:b)
        done
      done;
      !ok)

let prop_degraded_triangle =
  QCheck.Test.make ~name:"degraded latency keeps symmetry and the triangle inequality"
    ~count:40 arb_degraded (fun (t, pick) ->
      let (_ : (int * int) option) = apply_kill t pick in
      let n = T.num_vertices t in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          for c = 0 to n - 1 do
            if
              T.reachable t ~src:a ~dst:b && T.reachable t ~src:b ~dst:c
              && T.reachable t ~src:a ~dst:c
            then
              ok :=
                !ok
                && Time.to_ns (T.route_latency t ~src:a ~dst:c)
                   <= Time.to_ns (T.route_latency t ~src:a ~dst:b)
                      + Time.to_ns (T.route_latency t ~src:b ~dst:c)
          done
        done
      done;
      !ok)

let () =
  Alcotest.run "machine"
    [
      ( "hgx",
        [
          Alcotest.test_case "gpu pair" `Quick test_hgx_gpu_pair;
          Alcotest.test_case "host paths" `Quick test_hgx_host_paths;
          Alcotest.test_case "self route" `Quick test_hgx_self;
          Alcotest.test_case "pair stats" `Quick test_hgx_pair_stats;
        ] );
      ( "dgx",
        [
          Alcotest.test_case "inter-node" `Quick test_dgx_internode;
          Alcotest.test_case "hosts" `Quick test_dgx_hosts;
        ] );
      ( "alt fabrics",
        [
          Alcotest.test_case "ring multi-hop" `Quick test_ring_multihop;
          Alcotest.test_case "pcie only" `Quick test_pcie_only;
        ] );
      ( "cluster fabrics",
        [
          Alcotest.test_case "fat tree latency classes" `Quick test_fat_tree_classes;
          Alcotest.test_case "dragonfly latency classes" `Quick test_dragonfly_classes;
          Alcotest.test_case "1024-GPU build is lazy" `Quick test_cluster_build_lazy;
          Alcotest.test_case "route cache size is invisible" `Quick test_cache_size_invariance;
        ] );
      ( "specs",
        [
          Alcotest.test_case "parsing" `Quick test_spec_parsing;
          Alcotest.test_case "bad lookups" `Quick test_bad_lookups;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "ring reroutes around a dead link" `Quick
            test_ring_reroutes_around_dead_link;
          Alcotest.test_case "second failure partitions with a diagnosis" `Quick
            test_second_failure_partitions;
          Alcotest.test_case "switch failure cuts its node off" `Quick
            test_switch_failure_cuts_node;
        ] );
      ( "laws",
        List.map
          (fun p -> QCheck_alcotest.to_alcotest p)
          [
            prop_route_symmetry;
            prop_triangle;
            prop_route_well_formed;
            prop_structural_matches_dijkstra;
            prop_degraded_matches_dijkstra;
            prop_degraded_triangle;
          ] );
    ]
