module Time = Cpufree_engine.Time

type profile = {
  pname : string;
  nvlink_latency : Time.t;
  nvlink_gbs : float;
  pcie_latency : Time.t;
  pcie_gbs : float;
  hbm_gbs : float;
  ib_latency : Time.t;
  ib_gbs : float;
}

(* Same published numbers as [Cpufree_gpu.Arch.a100_hgx]/[h100_hgx]; the gpu
   library's test suite pins the two copies together. *)
let a100 =
  {
    pname = "a100";
    nvlink_latency = Time.ns 1_500;
    nvlink_gbs = 300.0;
    pcie_latency = Time.ns 2_500;
    pcie_gbs = 25.0;
    hbm_gbs = 1555.0;
    ib_latency = Time.ns 1_300;
    ib_gbs = 25.0;
  }

let h100 =
  {
    pname = "h100";
    nvlink_latency = Time.ns 1_200;
    nvlink_gbs = 450.0;
    pcie_latency = Time.ns 2_500;
    pcie_gbs = 25.0;
    hbm_gbs = 3350.0;
    ib_latency = Time.ns 1_000;
    ib_gbs = 50.0;
  }

type vertex_kind =
  | Gpu of { node : int; device : int }
  | Host of { node : int }
  | Nic of { node : int }
  | Switch of { node : int option }

type vertex = {
  vid : int;
  kind : vertex_kind;
  vname : string;
  local_ns_per_byte : float;
}

type link_kind = Nvlink | Pcie | Infiniband

type port = { pid : int; pname : string }

type link = {
  lid : int;
  lsrc : int;
  ldst : int;
  lkind : link_kind;
  llatency : Time.t;
  lns_per_byte : float;
  lports : int list;
}

(* ------------------------------------------------------------------ *)
(* Routing state                                                       *)
(* ------------------------------------------------------------------ *)

(* One single-source shortest-path solution: [dist]/[hops] in integer ns and
   hop count, [pred] the incoming link id of the shortest route (same
   deterministic tie-breaks as the original eager all-pairs build: shortest
   latency, then fewest hops, then lowest incoming link id). *)
type row = { rsrc : int; dist : int array; hops : int array; pred : int array }

(* Bounded per-source route cache. Rows are recomputed on demand after an
   eviction; Dijkstra here is deterministic, so a recomputed row is
   identical to the evicted one and cache size never changes any route. *)
type tables = {
  rows : row option array; (* indexed by source vid *)
  mutable fifo : int list; (* cached sources, most recent first *)
  mutable live : int;
}

(* Structural router: an O(path-length) vertex-path function derived from
   the topology's construction (up/down for fat-tree, minimal
   local-global-local for dragonfly) plus tier-derived latency bounds, so
   nothing quadratic is ever materialized. Pairs the path function declines
   (core-switch endpoints, cross-rail NIC pairs) fall back to the lazy
   Dijkstra tables. *)
type structural = {
  spath : int -> int -> int list option; (* full vertex sequence, src..dst *)
  edge : (int, int) Hashtbl.t; (* (u * nv + v) -> lowest link id *)
  stables : tables;
  s_min_gpu : Time.t option;
  s_max_gpu : Time.t option;
}

type router = Tables of tables | Structural of structural

exception Partitioned of string

type t = {
  tname : string;
  nodes : int;
  gpus : int;
  vs : vertex array;
  ps : port array;
  ls : link array;
  adj : link list array; (* out-adjacency in ascending link id *)
  gpu_vid : int array;
  host_vid : int array;
  gpu_eport : int array;
  gpu_iport : int array;
  router : router;
  lock : Mutex.t; (* guards router caches and the dedup scratch *)
  dedup : Bytes.t; (* reusable port bitset for route_ports *)
  mutable cap : int; (* route-cache capacity, in rows *)
  dead_vs : bool array; (* fail-stopped vertices *)
  dead_ls : bool array; (* fail-stopped links *)
  mutable degraded : bool; (* any fail_link/fail_switch applied *)
  mutable route_epoch : int; (* bumped on every route invalidation *)
}

(* Parameters the fat-tree/dragonfly constructors hand to [build]. The
   latency bounds are derived from tier latencies (profile numbers and
   shape counts), not from any route fold — that is what keeps
   [min_gpu_pair_latency] and friends O(1) on structural topologies. *)
type structural_spec = {
  sm_path : int -> int -> int list option;
  sm_min_gpu : Time.t option;
  sm_max_gpu : Time.t option;
}

let default_route_cache = 64

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable bvs : vertex list;
  mutable bps : port list;
  mutable bls : link list;
  mutable nv : int;
  mutable np : int;
  mutable nl : int;
}

let builder () = { bvs = []; bps = []; bls = []; nv = 0; np = 0; nl = 0 }

let add_vertex b ~kind ~name ~local_ns_per_byte =
  let vid = b.nv in
  b.nv <- vid + 1;
  b.bvs <- { vid; kind; vname = name; local_ns_per_byte } :: b.bvs;
  vid

let add_port b ~name =
  let pid = b.np in
  b.np <- pid + 1;
  b.bps <- { pid; pname = name } :: b.bps;
  pid

let add_link b ~src ~dst ~kind ~latency ~ns_per_byte ~ports =
  let lid = b.nl in
  b.nl <- lid + 1;
  b.bls <-
    { lid; lsrc = src; ldst = dst; lkind = kind; llatency = latency; lns_per_byte = ns_per_byte; lports = ports }
    :: b.bls;
  lid

(* Deterministic single-source Dijkstra: shortest total latency, ties broken
   by fewest hops, then by the incoming link id — a pure function of the
   graph, independent of hash order and of when (or how often) it runs, so
   lazy resolution is byte-identical to the old eager all-pairs build.
   [?dead] restricts the search to the surviving subgraph after fail-stop
   events: dead vertices are never visited and dead links never relaxed, so
   a row computed while degraded routes around the corpses (a row from a
   dead source reaches nothing). *)
let dijkstra_row ?dead ~nv ~(adj : link list array) src =
  let dead_v, dead_l =
    match dead with
    | None -> ((fun _ -> false), fun _ -> false)
    | Some (dvs, dls) -> ((fun (v : int) -> dvs.(v)), fun (l : int) -> dls.(l))
  in
  let inf = max_int in
  let dist = Array.make nv inf in
  let hops = Array.make nv inf in
  let pred = Array.make nv (-1) (* incoming link id *) in
  let visited = Array.make nv false in
  dist.(src) <- 0;
  hops.(src) <- 0;
  let rec loop () =
    (* Linear-scan extract-min: a row is only computed for sources that are
       actually queried, and structural topologies rarely get here at all. *)
    let u = ref (-1) in
    for v = 0 to nv - 1 do
      if (not visited.(v)) && (not (dead_v v)) && dist.(v) < inf then
        if
          !u < 0
          || dist.(v) < dist.(!u)
          || (dist.(v) = dist.(!u) && (hops.(v) < hops.(!u) || (hops.(v) = hops.(!u) && v < !u)))
        then u := v
    done;
    if !u >= 0 then begin
      let u = !u in
      visited.(u) <- true;
      List.iter
        (fun l ->
          let v = l.ldst in
          if (not visited.(v)) && (not (dead_l l.lid)) && not (dead_v v) then begin
            let nd = dist.(u) + Time.to_ns l.llatency in
            let nh = hops.(u) + 1 in
            let better =
              nd < dist.(v)
              || (nd = dist.(v)
                 && (nh < hops.(v) || (nh = hops.(v) && (pred.(v) < 0 || l.lid < pred.(v)))))
            in
            if better then begin
              dist.(v) <- nd;
              hops.(v) <- nh;
              pred.(v) <- l.lid
            end
          end)
        adj.(u);
      loop ()
    end
  in
  loop ();
  { rsrc = src; dist; hops; pred }

let empty_tables nv = { rows = Array.make nv None; fifo = []; live = 0 }

(* O(V + E) coverage check from/to one pivot, replacing the old all-pairs
   route validation: if the pivot reaches every public endpoint and every
   public endpoint reaches the pivot, then by transitivity every public
   pair is mutually routable. *)
let bfs_cover ~nv step start =
  let seen = Array.make nv false in
  let q = Queue.create () in
  seen.(start) <- true;
  Queue.add start q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    step u (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v q
        end)
  done;
  seen

let build ?structural b ~name ~nodes ~gpu_vid ~host_vid ~gpu_eport ~gpu_iport =
  let vs = Array.make b.nv (List.hd b.bvs) in
  List.iter (fun v -> vs.(v.vid) <- v) b.bvs;
  let ps = Array.of_list (List.sort (fun a c -> compare a.pid c.pid) b.bps) in
  let ls = Array.of_list (List.sort (fun a c -> compare a.lid c.lid) b.bls) in
  let nv = b.nv in
  let adj = Array.make nv [] in
  Array.iter (fun l -> adj.(l.lsrc) <- l :: adj.(l.lsrc)) ls;
  Array.iteri (fun i out -> adj.(i) <- List.sort (fun a c -> compare a.lid c.lid) out) adj;
  let radj = Array.make nv [] in
  Array.iter (fun l -> radj.(l.ldst) <- l.lsrc :: radj.(l.ldst)) ls;
  (* Every public endpoint must be able to reach every other one. *)
  let publics =
    Array.to_list gpu_vid @ Array.to_list host_vid
    @ List.filter_map
        (fun v -> match v.kind with Nic _ -> Some v.vid | _ -> None)
        (Array.to_list vs)
  in
  (match publics with
  | [] -> ()
  | p0 :: _ ->
    let fwd = bfs_cover ~nv (fun u k -> List.iter (fun l -> k l.ldst) adj.(u)) p0 in
    let bwd = bfs_cover ~nv (fun u k -> List.iter k radj.(u)) p0 in
    List.iter
      (fun v ->
        if not fwd.(v) then
          invalid_arg
            (Printf.sprintf "Topology.%s: %s cannot reach %s" name vs.(p0).vname vs.(v).vname);
        if not bwd.(v) then
          invalid_arg
            (Printf.sprintf "Topology.%s: %s cannot reach %s" name vs.(v).vname vs.(p0).vname))
      publics);
  let router =
    match structural with
    | None -> Tables (empty_tables nv)
    | Some sm ->
      let edge = Hashtbl.create (Array.length ls) in
      Array.iter
        (fun l ->
          let k = (l.lsrc * nv) + l.ldst in
          match Hashtbl.find_opt edge k with
          | Some lid when lid <= l.lid -> ()
          | _ -> Hashtbl.replace edge k l.lid)
        ls;
      Structural
        {
          spath = sm.sm_path;
          edge;
          stables = empty_tables nv;
          s_min_gpu = sm.sm_min_gpu;
          s_max_gpu = sm.sm_max_gpu;
        }
  in
  {
    tname = name;
    nodes;
    gpus = Array.length gpu_vid;
    vs;
    ps;
    ls;
    adj;
    gpu_vid;
    host_vid;
    gpu_eport;
    gpu_iport;
    router;
    lock = Mutex.create ();
    dedup = Bytes.make (max 1 b.np) '\000';
    cap = default_route_cache;
    dead_vs = Array.make (max 1 b.nv) false;
    dead_ls = Array.make (max 1 b.nl) false;
    degraded = false;
    route_epoch = 0;
  }

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let check_gpus name gpus =
  if gpus <= 0 then invalid_arg (Printf.sprintf "Topology.%s: need at least one GPU" name)

(* Split a latency across the two hops of a switch crossing so the pair sums
   back exactly even when the total is odd. *)
let halves l =
  let dn = Time.ns (Time.to_ns l / 2) in
  (dn, Time.sub l dn)

let nsb gbs = 1.0 /. gbs

(* One HGX node: GPUs around an NVSwitch, host on PCIe. [gpu0] is the global
   index of the node's first GPU; returns (switch vid, host vid). The hop
   latencies are chosen so every two-hop route sums to exactly the profile's
   wire latency: egress + ingress = nvlink, egress + switch-to-host = pcie,
   host-to-switch + ingress = pcie. *)
let add_hgx_node b ~profile:p ~node ~gpu0 ~gpus ~gpu_vid ~gpu_eport ~gpu_iport =
  let e_lat, i_lat = halves p.nvlink_latency in
  let sw =
    add_vertex b
      ~kind:(Switch { node = Some node })
      ~name:(Printf.sprintf "node%d.nvswitch" node)
      ~local_ns_per_byte:(nsb p.hbm_gbs)
  in
  for d = 0 to gpus - 1 do
    let g = gpu0 + d in
    let v =
      add_vertex b ~kind:(Gpu { node; device = d }) ~name:(Printf.sprintf "gpu%d" g)
        ~local_ns_per_byte:(nsb p.hbm_gbs)
    in
    gpu_vid.(g) <- v;
    let ep = add_port b ~name:(Printf.sprintf "gpu%d.egress" g) in
    let ip = add_port b ~name:(Printf.sprintf "gpu%d.ingress" g) in
    gpu_eport.(g) <- ep;
    gpu_iport.(g) <- ip;
    ignore
      (add_link b ~src:v ~dst:sw ~kind:Nvlink ~latency:e_lat ~ns_per_byte:(nsb p.nvlink_gbs)
         ~ports:[ ep ]);
    ignore
      (add_link b ~src:sw ~dst:v ~kind:Nvlink ~latency:i_lat ~ns_per_byte:(nsb p.nvlink_gbs)
         ~ports:[ ip ])
  done;
  let host =
    add_vertex b ~kind:(Host { node })
      ~name:(if node = 0 then "host" else Printf.sprintf "node%d.host" node)
      ~local_ns_per_byte:(nsb p.hbm_gbs)
  in
  let hp =
    add_port b ~name:(if node = 0 then "host.pcie" else Printf.sprintf "node%d.host.pcie" node)
  in
  ignore
    (add_link b ~src:host ~dst:sw ~kind:Pcie ~latency:(Time.sub p.pcie_latency i_lat)
       ~ns_per_byte:(nsb p.pcie_gbs) ~ports:[ hp ]);
  ignore
    (add_link b ~src:sw ~dst:host ~kind:Pcie ~latency:(Time.sub p.pcie_latency e_lat)
       ~ns_per_byte:(nsb p.pcie_gbs) ~ports:[ hp ]);
  (sw, host)

let hgx ~profile ~gpus =
  check_gpus "hgx" gpus;
  let b = builder () in
  let gpu_vid = Array.make gpus (-1)
  and gpu_eport = Array.make gpus (-1)
  and gpu_iport = Array.make gpus (-1) in
  let _, host =
    add_hgx_node b ~profile ~node:0 ~gpu0:0 ~gpus ~gpu_vid ~gpu_eport ~gpu_iport
  in
  build b
    ~name:(Printf.sprintf "hgx_%s" profile.pname)
    ~nodes:1 ~gpu_vid ~host_vid:[| host |] ~gpu_eport ~gpu_iport

let dgx_cluster ~profile:p ~nodes ~gpus_per_node =
  if nodes <= 0 then invalid_arg "Topology.dgx_cluster: need at least one node";
  check_gpus "dgx_cluster" gpus_per_node;
  let gpus = nodes * gpus_per_node in
  let b = builder () in
  let gpu_vid = Array.make gpus (-1)
  and gpu_eport = Array.make gpus (-1)
  and gpu_iport = Array.make gpus (-1) in
  let host_vid = Array.make nodes (-1) in
  let e_lat, i_lat = halves p.nvlink_latency in
  let ib_dn, ib_up = halves p.ib_latency in
  let spine =
    add_vertex b ~kind:(Switch { node = None }) ~name:"ib.spine"
      ~local_ns_per_byte:(nsb p.hbm_gbs)
  in
  for node = 0 to nodes - 1 do
    let sw, host =
      add_hgx_node b ~profile:p ~node ~gpu0:(node * gpus_per_node) ~gpus:gpus_per_node ~gpu_vid
        ~gpu_eport ~gpu_iport
    in
    host_vid.(node) <- host;
    let nic =
      add_vertex b ~kind:(Nic { node })
        ~name:(Printf.sprintf "node%d.nic" node)
        ~local_ns_per_byte:(nsb p.hbm_gbs)
    in
    let tx = add_port b ~name:(Printf.sprintf "node%d.nic.tx" node) in
    let rx = add_port b ~name:(Printf.sprintf "node%d.nic.rx" node) in
    (* NIC attach at PCIe latency (shared with nothing: contention lives on
       the NIC's tx/rx ports), line rate of the NIC. *)
    ignore
      (add_link b ~src:sw ~dst:nic ~kind:Pcie ~latency:(Time.sub p.pcie_latency e_lat)
         ~ns_per_byte:(nsb p.ib_gbs) ~ports:[]);
    ignore
      (add_link b ~src:nic ~dst:sw ~kind:Pcie ~latency:(Time.sub p.pcie_latency i_lat)
         ~ns_per_byte:(nsb p.ib_gbs) ~ports:[]);
    ignore
      (add_link b ~src:nic ~dst:spine ~kind:Infiniband ~latency:ib_dn
         ~ns_per_byte:(nsb p.ib_gbs) ~ports:[ tx ]);
    ignore
      (add_link b ~src:spine ~dst:nic ~kind:Infiniband ~latency:ib_up
         ~ns_per_byte:(nsb p.ib_gbs) ~ports:[ rx ])
  done;
  build b
    ~name:(Printf.sprintf "dgx_%s_%dx%d" p.pname nodes gpus_per_node)
    ~nodes ~gpu_vid ~host_vid ~gpu_eport ~gpu_iport

let ring ~profile:p ~gpus =
  check_gpus "ring" gpus;
  let b = builder () in
  let gpu_vid = Array.make gpus (-1)
  and gpu_eport = Array.make gpus (-1)
  and gpu_iport = Array.make gpus (-1) in
  for g = 0 to gpus - 1 do
    gpu_vid.(g) <-
      add_vertex b ~kind:(Gpu { node = 0; device = g }) ~name:(Printf.sprintf "gpu%d" g)
        ~local_ns_per_byte:(nsb p.hbm_gbs);
    gpu_eport.(g) <- add_port b ~name:(Printf.sprintf "gpu%d.egress" g);
    gpu_iport.(g) <- add_port b ~name:(Printf.sprintf "gpu%d.ingress" g)
  done;
  for g = 0 to gpus - 1 do
    let neighbours =
      List.sort_uniq compare [ (g + 1) mod gpus; (g + gpus - 1) mod gpus ]
    in
    List.iter
      (fun n ->
        if n <> g then
          ignore
            (add_link b ~src:gpu_vid.(g) ~dst:gpu_vid.(n) ~kind:Nvlink
               ~latency:p.nvlink_latency ~ns_per_byte:(nsb p.nvlink_gbs)
               ~ports:[ gpu_eport.(g); gpu_iport.(n) ]))
      neighbours
  done;
  let host =
    add_vertex b ~kind:(Host { node = 0 }) ~name:"host" ~local_ns_per_byte:(nsb p.hbm_gbs)
  in
  let hp = add_port b ~name:"host.pcie" in
  (* Head-node attach: the host reaches the ring through GPU 0 only, so
     GPU-to-GPU routes can never shortcut through the host. *)
  ignore
    (add_link b ~src:host ~dst:gpu_vid.(0) ~kind:Pcie ~latency:p.pcie_latency
       ~ns_per_byte:(nsb p.pcie_gbs) ~ports:[ hp; gpu_iport.(0) ]);
  ignore
    (add_link b ~src:gpu_vid.(0) ~dst:host ~kind:Pcie ~latency:p.pcie_latency
       ~ns_per_byte:(nsb p.pcie_gbs) ~ports:[ gpu_eport.(0); hp ]);
  build b
    ~name:(Printf.sprintf "ring_%s" p.pname)
    ~nodes:1 ~gpu_vid ~host_vid:[| host |] ~gpu_eport ~gpu_iport

let pcie_only ~profile:p ~gpus =
  check_gpus "pcie_only" gpus;
  let b = builder () in
  let gpu_vid = Array.make gpus (-1)
  and gpu_eport = Array.make gpus (-1)
  and gpu_iport = Array.make gpus (-1) in
  let dn, up = halves p.pcie_latency in
  let root =
    add_vertex b ~kind:(Switch { node = Some 0 }) ~name:"pcie.root"
      ~local_ns_per_byte:(nsb p.hbm_gbs)
  in
  let root_port = add_port b ~name:"pcie.root" in
  for g = 0 to gpus - 1 do
    let v =
      add_vertex b ~kind:(Gpu { node = 0; device = g }) ~name:(Printf.sprintf "gpu%d" g)
        ~local_ns_per_byte:(nsb p.hbm_gbs)
    in
    gpu_vid.(g) <- v;
    let ep = add_port b ~name:(Printf.sprintf "gpu%d.egress" g) in
    let ip = add_port b ~name:(Printf.sprintf "gpu%d.ingress" g) in
    gpu_eport.(g) <- ep;
    gpu_iport.(g) <- ip;
    (* The shared root complex is booked once, on the upstream hop. *)
    ignore
      (add_link b ~src:v ~dst:root ~kind:Pcie ~latency:dn ~ns_per_byte:(nsb p.pcie_gbs)
         ~ports:[ ep; root_port ]);
    ignore
      (add_link b ~src:root ~dst:v ~kind:Pcie ~latency:up ~ns_per_byte:(nsb p.pcie_gbs)
         ~ports:[ ip ])
  done;
  let host =
    add_vertex b ~kind:(Host { node = 0 }) ~name:"host" ~local_ns_per_byte:(nsb p.hbm_gbs)
  in
  let hp = add_port b ~name:"host.pcie" in
  ignore
    (add_link b ~src:host ~dst:root ~kind:Pcie ~latency:dn ~ns_per_byte:(nsb p.pcie_gbs)
       ~ports:[ hp; root_port ]);
  ignore
    (add_link b ~src:root ~dst:host ~kind:Pcie ~latency:up ~ns_per_byte:(nsb p.pcie_gbs)
       ~ports:[ hp ]);
  build b
    ~name:(Printf.sprintf "pcie_%s" p.pname)
    ~nodes:1 ~gpu_vid ~host_vid:[| host |] ~gpu_eport ~gpu_iport

(* ---------------------------------------------------------------- *)
(* Fat tree                                                          *)
(* ---------------------------------------------------------------- *)

(* k-ary fat tree of HGX nodes with multi-rail NICs: rail [r] of every node
   attaches to leaf-switch plane [r]; a leaf groups [arity] nodes; planes
   with more than one leaf add a spine layer every leaf connects to. Hop
   latencies reuse the DGX halving scheme, so an intra-leaf inter-node
   route costs exactly 2*pcie + ib (identical to the dgx-cluster spine) and
   a cross-leaf route 2*pcie + 2*ib. Routing is structural up/down: no
   route table is ever materialized, and rails/spines are picked
   deterministically from the endpoint pair so traffic spreads without
   breaking determinism. *)
let fat_tree ~profile:p ~arity ~rails ~nodes ~gpus_per_node =
  if arity <= 0 then invalid_arg "Topology.fat_tree: arity must be positive";
  if rails <= 0 then invalid_arg "Topology.fat_tree: rails must be positive";
  if nodes <= 0 then invalid_arg "Topology.fat_tree: need at least one node";
  check_gpus "fat_tree" gpus_per_node;
  let gpus = nodes * gpus_per_node in
  let b = builder () in
  let gpu_vid = Array.make gpus (-1)
  and gpu_eport = Array.make gpus (-1)
  and gpu_iport = Array.make gpus (-1) in
  let host_vid = Array.make nodes (-1) in
  let node_sw = Array.make nodes (-1) in
  let nic_vid = Array.make_matrix nodes rails (-1) in
  let leaves = (nodes + arity - 1) / arity in
  let spines = if leaves > 1 then max 1 ((leaves + 1) / 2) else 0 in
  let e_lat, i_lat = halves p.nvlink_latency in
  let ib_dn, ib_up = halves p.ib_latency in
  let leaf_vid = Array.make_matrix rails leaves (-1) in
  let spine_vid = Array.make_matrix rails (max spines 1) (-1) in
  for r = 0 to rails - 1 do
    for l = 0 to leaves - 1 do
      leaf_vid.(r).(l) <-
        add_vertex b ~kind:(Switch { node = None })
          ~name:(Printf.sprintf "rail%d.leaf%d" r l)
          ~local_ns_per_byte:(nsb p.hbm_gbs)
    done;
    for s = 0 to spines - 1 do
      spine_vid.(r).(s) <-
        add_vertex b ~kind:(Switch { node = None })
          ~name:(Printf.sprintf "rail%d.spine%d" r s)
          ~local_ns_per_byte:(nsb p.hbm_gbs)
    done;
    (* Core crossings split the IB latency like the NIC attach, so leaf-leaf
       via a spine adds exactly one extra ib_latency. Contention lives on
       the NIC tx/rx ports; the over-provisioned core is contention-free. *)
    for l = 0 to leaves - 1 do
      for s = 0 to spines - 1 do
        ignore
          (add_link b ~src:leaf_vid.(r).(l) ~dst:spine_vid.(r).(s) ~kind:Infiniband
             ~latency:ib_dn ~ns_per_byte:(nsb p.ib_gbs) ~ports:[]);
        ignore
          (add_link b ~src:spine_vid.(r).(s) ~dst:leaf_vid.(r).(l) ~kind:Infiniband
             ~latency:ib_up ~ns_per_byte:(nsb p.ib_gbs) ~ports:[])
      done
    done
  done;
  for node = 0 to nodes - 1 do
    let sw, host =
      add_hgx_node b ~profile:p ~node ~gpu0:(node * gpus_per_node) ~gpus:gpus_per_node ~gpu_vid
        ~gpu_eport ~gpu_iport
    in
    node_sw.(node) <- sw;
    host_vid.(node) <- host;
    for r = 0 to rails - 1 do
      let nic =
        add_vertex b ~kind:(Nic { node })
          ~name:(Printf.sprintf "node%d.nic%d" node r)
          ~local_ns_per_byte:(nsb p.hbm_gbs)
      in
      nic_vid.(node).(r) <- nic;
      let tx = add_port b ~name:(Printf.sprintf "node%d.nic%d.tx" node r) in
      let rx = add_port b ~name:(Printf.sprintf "node%d.nic%d.rx" node r) in
      ignore
        (add_link b ~src:sw ~dst:nic ~kind:Pcie ~latency:(Time.sub p.pcie_latency e_lat)
           ~ns_per_byte:(nsb p.ib_gbs) ~ports:[]);
      ignore
        (add_link b ~src:nic ~dst:sw ~kind:Pcie ~latency:(Time.sub p.pcie_latency i_lat)
           ~ns_per_byte:(nsb p.ib_gbs) ~ports:[]);
      ignore
        (add_link b ~src:nic ~dst:leaf_vid.(r).(node / arity) ~kind:Infiniband ~latency:ib_dn
           ~ns_per_byte:(nsb p.ib_gbs) ~ports:[ tx ]);
      ignore
        (add_link b ~src:leaf_vid.(r).(node / arity) ~dst:nic ~kind:Infiniband ~latency:ib_up
           ~ns_per_byte:(nsb p.ib_gbs) ~ports:[ rx ])
    done
  done;
  (* Vertex roles for the structural path function. *)
  let nv = b.nv in
  let vnode = Array.make nv (-1) in
  let vrail = Array.make nv (-1) in
  Array.iteri (fun g v -> vnode.(v) <- g / gpus_per_node) gpu_vid;
  Array.iteri (fun n v -> vnode.(v) <- n) host_vid;
  Array.iteri (fun n v -> vnode.(v) <- n) node_sw;
  Array.iteri
    (fun n per_rail ->
      Array.iteri
        (fun r v ->
          vnode.(v) <- n;
          vrail.(v) <- r)
        per_rail)
    nic_vid;
  let spath src dst =
    let ns = vnode.(src) and nd = vnode.(dst) in
    if ns < 0 || nd < 0 then None (* leaf/spine endpoint: Dijkstra fallback *)
    else if ns = nd then begin
      let sw = node_sw.(ns) in
      let head = if src = sw then [ src ] else [ src; sw ] in
      Some (head @ if dst = sw then [] else [ dst ])
    end
    else begin
      let srail = vrail.(src) and drail = vrail.(dst) in
      if srail >= 0 && drail >= 0 && srail <> drail then None
      else begin
        let r =
          if srail >= 0 then srail else if drail >= 0 then drail else (ns + nd) mod rails
        in
        let lf_s = ns / arity and lf_d = nd / arity in
        let head =
          if srail >= 0 then [ src ]
          else
            let sw = node_sw.(ns) in
            (if src = sw then [ src ] else [ src; sw ]) @ [ nic_vid.(ns).(r) ]
        in
        let tail =
          if drail >= 0 then [ dst ]
          else
            let sw = node_sw.(nd) in
            nic_vid.(nd).(r) :: (if dst = sw then [ sw ] else [ sw; dst ])
        in
        let mid =
          if lf_s = lf_d then [ leaf_vid.(r).(lf_s) ]
          else
            [
              leaf_vid.(r).(lf_s);
              spine_vid.(r).((lf_s + lf_d) mod spines);
              leaf_vid.(r).(lf_d);
            ]
        in
        Some (head @ mid @ tail)
      end
    end
  in
  (* Tier-derived latency bounds: exact by the symmetry of the
     construction (every GPU pair is same-node, intra-leaf or cross-leaf). *)
  let two_pcie = Time.add p.pcie_latency p.pcie_latency in
  let two_ib = Time.add p.ib_latency p.ib_latency in
  let s_min_gpu =
    if gpus_per_node >= 2 then Some p.nvlink_latency
    else if nodes >= 2 then
      Some (Time.add two_pcie (if arity >= 2 then p.ib_latency else two_ib))
    else None
  in
  let s_max_gpu =
    if leaves >= 2 then Some (Time.add two_pcie two_ib)
    else if nodes >= 2 then Some (Time.add two_pcie p.ib_latency)
    else if gpus_per_node >= 2 then Some p.nvlink_latency
    else None
  in
  let structural =
    { sm_path = spath; sm_min_gpu = s_min_gpu; sm_max_gpu = s_max_gpu }
  in
  build ~structural b
    ~name:(Printf.sprintf "fattree_%s_%dn_a%d_r%d" p.pname nodes arity rails)
    ~nodes ~gpu_vid ~host_vid ~gpu_eport ~gpu_iport

(* ---------------------------------------------------------------- *)
(* Dragonfly                                                         *)
(* ---------------------------------------------------------------- *)

(* Dragonfly of HGX nodes: groups of [a] routers, [p] nodes per router,
   [h] global links per router, groups connected all-to-all by an absolute
   arrangement (peer group [d] of group [s] lands on router
   [offset(d)/h]). Local links cost one ib_latency; global optical links
   cost three — which makes the minimal local-global-local route strictly
   cheaper than any multi-global detour, so structural routing coincides
   with shortest-path routing. *)
let dragonfly ~profile:pr ~a ~p ~h ~nodes ~gpus_per_node =
  if a <= 0 then invalid_arg "Topology.dragonfly: a (routers per group) must be positive";
  if p <= 0 then invalid_arg "Topology.dragonfly: p (nodes per router) must be positive";
  if h <= 0 then invalid_arg "Topology.dragonfly: h (global links per router) must be positive";
  if nodes <= 0 then invalid_arg "Topology.dragonfly: need at least one node";
  check_gpus "dragonfly" gpus_per_node;
  let per_group = a * p in
  let groups = (nodes + per_group - 1) / per_group in
  if groups > 1 && groups - 1 > a * h then
    invalid_arg
      (Printf.sprintf
         "Topology.dragonfly: %d groups exceed the global-link budget a*h+1 = %d (raise a or h)"
         groups
         ((a * h) + 1));
  let gpus = nodes * gpus_per_node in
  let b = builder () in
  let gpu_vid = Array.make gpus (-1)
  and gpu_eport = Array.make gpus (-1)
  and gpu_iport = Array.make gpus (-1) in
  let host_vid = Array.make nodes (-1) in
  let node_sw = Array.make nodes (-1) in
  let nic_vid = Array.make nodes (-1) in
  let e_lat, i_lat = halves pr.nvlink_latency in
  let ib_dn, ib_up = halves pr.ib_latency in
  let global_lat = Time.ns (3 * Time.to_ns pr.ib_latency) in
  let router_vid = Array.make_matrix groups a (-1) in
  for g = 0 to groups - 1 do
    for r = 0 to a - 1 do
      router_vid.(g).(r) <-
        add_vertex b ~kind:(Switch { node = None })
          ~name:(Printf.sprintf "g%d.r%d" g r)
          ~local_ns_per_byte:(nsb pr.hbm_gbs)
    done;
    for i = 0 to a - 1 do
      for j = 0 to a - 1 do
        if i <> j then
          ignore
            (add_link b ~src:router_vid.(g).(i) ~dst:router_vid.(g).(j) ~kind:Infiniband
               ~latency:pr.ib_latency ~ns_per_byte:(nsb pr.ib_gbs) ~ports:[])
      done
    done
  done;
  (* Absolute arrangement: the router owning the global link from group [s]
     toward peer group [d]. *)
  let owner s d = (if d > s then d - 1 else d) / h in
  for s = 0 to groups - 1 do
    for d = 0 to groups - 1 do
      if s <> d then
        ignore
          (add_link b ~src:router_vid.(s).(owner s d) ~dst:router_vid.(d).(owner d s)
             ~kind:Infiniband ~latency:global_lat ~ns_per_byte:(nsb pr.ib_gbs) ~ports:[])
    done
  done;
  for node = 0 to nodes - 1 do
    let g = node / per_group and r = node mod per_group / p in
    let sw, host =
      add_hgx_node b ~profile:pr ~node ~gpu0:(node * gpus_per_node) ~gpus:gpus_per_node ~gpu_vid
        ~gpu_eport ~gpu_iport
    in
    node_sw.(node) <- sw;
    host_vid.(node) <- host;
    let nic =
      add_vertex b ~kind:(Nic { node })
        ~name:(Printf.sprintf "node%d.nic" node)
        ~local_ns_per_byte:(nsb pr.hbm_gbs)
    in
    nic_vid.(node) <- nic;
    let tx = add_port b ~name:(Printf.sprintf "node%d.nic.tx" node) in
    let rx = add_port b ~name:(Printf.sprintf "node%d.nic.rx" node) in
    ignore
      (add_link b ~src:sw ~dst:nic ~kind:Pcie ~latency:(Time.sub pr.pcie_latency e_lat)
         ~ns_per_byte:(nsb pr.ib_gbs) ~ports:[]);
    ignore
      (add_link b ~src:nic ~dst:sw ~kind:Pcie ~latency:(Time.sub pr.pcie_latency i_lat)
         ~ns_per_byte:(nsb pr.ib_gbs) ~ports:[]);
    ignore
      (add_link b ~src:nic ~dst:router_vid.(g).(r) ~kind:Infiniband ~latency:ib_dn
         ~ns_per_byte:(nsb pr.ib_gbs) ~ports:[ tx ]);
    ignore
      (add_link b ~src:router_vid.(g).(r) ~dst:nic ~kind:Infiniband ~latency:ib_up
         ~ns_per_byte:(nsb pr.ib_gbs) ~ports:[ rx ])
  done;
  let nv = b.nv in
  let vnode = Array.make nv (-1) in
  let vnic = Array.make nv false in
  let vgroup = Array.make nv (-1) in
  let vrouter = Array.make nv (-1) in
  Array.iteri (fun gi v -> vnode.(v) <- gi / gpus_per_node) gpu_vid;
  Array.iteri (fun n v -> vnode.(v) <- n) host_vid;
  Array.iteri (fun n v -> vnode.(v) <- n) node_sw;
  Array.iteri
    (fun n v ->
      vnode.(v) <- n;
      vnic.(v) <- true)
    nic_vid;
  Array.iteri
    (fun g per ->
      Array.iteri
        (fun r v ->
          vgroup.(v) <- g;
          vrouter.(v) <- r)
        per)
    router_vid;
  (* Position of a vertex in the router fabric: its (group, router) plus
     the chain of vertices from it down to (excluding) the router. *)
  let position v =
    if vgroup.(v) >= 0 then Some (vgroup.(v), vrouter.(v), [])
    else
      let n = vnode.(v) in
      if n < 0 then None
      else
        let g = n / per_group and r = n mod per_group / p in
        let chain =
          if vnic.(v) then [ v ]
          else
            let sw = node_sw.(n) in
            (if v = sw then [ v ] else [ v; sw ]) @ [ nic_vid.(n) ]
        in
        Some (g, r, chain)
  in
  let spath src dst =
    let nsd = vnode.(src) and ndd = vnode.(dst) in
    if nsd >= 0 && nsd = ndd then begin
      (* Same node: never leaves the node switch. *)
      let sw = node_sw.(nsd) in
      let head = if src = sw then [ src ] else [ src; sw ] in
      Some (head @ if dst = sw then [] else [ dst ])
    end
    else
      match (position src, position dst) with
      | None, _ | _, None -> None
      | Some (gs, rs, up), Some (gd, rd, down) ->
        let mid =
          if gs = gd then
            if rs = rd then [ router_vid.(gs).(rs) ]
            else [ router_vid.(gs).(rs); router_vid.(gd).(rd) ]
          else begin
            let os = owner gs gd and od = owner gd gs in
            [ router_vid.(gs).(rs) ]
            @ (if os <> rs then [ router_vid.(gs).(os) ] else [])
            @ [ router_vid.(gd).(od) ]
            @ if od <> rd then [ router_vid.(gd).(rd) ] else []
          end
        in
        Some (up @ mid @ List.rev down)
  in
  let two_pcie = Time.add pr.pcie_latency pr.pcie_latency in
  let ibx n = Time.ns (n * Time.to_ns pr.ib_latency) in
  let s_min_gpu =
    if gpus_per_node >= 2 then Some pr.nvlink_latency
    else if nodes >= 2 && p >= 2 then Some (Time.add two_pcie pr.ib_latency)
    else if nodes >= 2 && a >= 2 then Some (Time.add two_pcie (ibx 2))
    else if nodes >= 2 then Some (Time.add two_pcie (ibx 4))
    else None
  in
  let s_max_gpu =
    if groups >= 2 then Some (Time.add two_pcie (ibx 6))
    else if nodes > p then Some (Time.add two_pcie (ibx 2))
    else if nodes >= 2 then Some (Time.add two_pcie pr.ib_latency)
    else if gpus_per_node >= 2 then Some pr.nvlink_latency
    else None
  in
  let structural =
    {
      sm_path = spath;
      sm_min_gpu = s_min_gpu;
      sm_max_gpu = s_max_gpu;
    }
  in
  build ~structural b
    ~name:(Printf.sprintf "dragonfly_%s_%dg_a%dp%dh%d" pr.pname groups a p h)
    ~nodes ~gpu_vid ~host_vid ~gpu_eport ~gpu_iport

(* ------------------------------------------------------------------ *)
(* Specs                                                               *)
(* ------------------------------------------------------------------ *)

type spec =
  | Hgx
  | Ring
  | Pcie_only
  | Dgx of { nodes : int }
  | Fat_tree of { arity : int; rails : int; gpus_per_node : int }
  | Dragonfly of { a : int; p : int; h : int; gpus_per_node : int }

let pos_int what s =
  match int_of_string_opt s with
  | Some n when n > 0 -> Ok n
  | _ -> Error (Printf.sprintf "bad %s %S in topology spec" what s)

let spec_of_string s =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ ("hgx" | "nvswitch") ] -> Ok Hgx
  | [ "ring" ] -> Ok Ring
  | [ ("pcie" | "pcie_only" | "pcie-only") ] -> Ok Pcie_only
  | [ "dgx" ] -> Ok (Dgx { nodes = 2 })
  | [ "dgx"; n ] -> (
    match int_of_string_opt n with
    | Some nodes when nodes > 0 -> Ok (Dgx { nodes })
    | _ -> Error (Printf.sprintf "bad node count %S in topology spec" n))
  | ("fat-tree" | "fat_tree" | "fattree") :: rest -> (
    match rest with
    | [] -> Ok (Fat_tree { arity = 4; rails = 1; gpus_per_node = 8 })
    | [ ar ] ->
      let* arity = pos_int "arity" ar in
      Ok (Fat_tree { arity; rails = 1; gpus_per_node = 8 })
    | [ ar; ra ] ->
      let* arity = pos_int "arity" ar in
      let* rails = pos_int "rail count" ra in
      Ok (Fat_tree { arity; rails; gpus_per_node = 8 })
    | [ ar; ra; gp ] ->
      let* arity = pos_int "arity" ar in
      let* rails = pos_int "rail count" ra in
      let* gpus_per_node = pos_int "gpus-per-node" gp in
      Ok (Fat_tree { arity; rails; gpus_per_node })
    | _ -> Error (Printf.sprintf "too many fields in fat-tree spec %S" s))
  | "dragonfly" :: rest -> (
    match rest with
    | [] -> Ok (Dragonfly { a = 4; p = 2; h = 2; gpus_per_node = 8 })
    | [ av; pv; hv ] ->
      let* a = pos_int "a (routers per group)" av in
      let* p = pos_int "p (nodes per router)" pv in
      let* h = pos_int "h (global links per router)" hv in
      Ok (Dragonfly { a; p; h; gpus_per_node = 8 })
    | [ av; pv; hv; gp ] ->
      let* a = pos_int "a (routers per group)" av in
      let* p = pos_int "p (nodes per router)" pv in
      let* h = pos_int "h (global links per router)" hv in
      let* gpus_per_node = pos_int "gpus-per-node" gp in
      Ok (Dragonfly { a; p; h; gpus_per_node })
    | _ -> Error (Printf.sprintf "dragonfly spec %S needs A:P:H or A:P:H:GPN" s))
  | _ ->
    Error
      (Printf.sprintf
         "unknown topology %S (expected hgx, ring, pcie, dgx[:NODES], \
          fat-tree[:ARITY[:RAILS[:GPN]]] or dragonfly[:A:P:H[:GPN]])"
         s)

let spec_to_string = function
  | Hgx -> "hgx"
  | Ring -> "ring"
  | Pcie_only -> "pcie"
  | Dgx { nodes } -> Printf.sprintf "dgx:%d" nodes
  | Fat_tree { arity; rails; gpus_per_node } ->
    Printf.sprintf "fat-tree:%d:%d:%d" arity rails gpus_per_node
  | Dragonfly { a; p; h; gpus_per_node } ->
    Printf.sprintf "dragonfly:%d:%d:%d:%d" a p h gpus_per_node

let validate spec ~gpus =
  if gpus <= 0 then Error (Printf.sprintf "need at least one GPU, got %d" gpus)
  else
    match spec with
    | Hgx | Ring | Pcie_only -> Ok ()
    | Dgx { nodes } ->
      if gpus mod nodes <> 0 then
        Error
          (Printf.sprintf "%d GPUs do not split evenly across %d nodes (try --gpus %d)" gpus
             nodes
             (gpus + nodes - (gpus mod nodes)))
      else Ok ()
    | Fat_tree { gpus_per_node; _ } ->
      if gpus mod gpus_per_node <> 0 then
        Error
          (Printf.sprintf "%d GPUs are not a multiple of %d GPUs per node (try --gpus %d)" gpus
             gpus_per_node
             (gpus + gpus_per_node - (gpus mod gpus_per_node)))
      else Ok ()
    | Dragonfly { a; p; h; gpus_per_node } ->
      if gpus mod gpus_per_node <> 0 then
        Error
          (Printf.sprintf "%d GPUs are not a multiple of %d GPUs per node (try --gpus %d)" gpus
             gpus_per_node
             (gpus + gpus_per_node - (gpus mod gpus_per_node)))
      else begin
        let nodes = gpus / gpus_per_node in
        let groups = (nodes + (a * p) - 1) / (a * p) in
        if groups > 1 && groups - 1 > a * h then
          Error
            (Printf.sprintf
               "%d nodes make %d dragonfly groups, exceeding the global-link budget a*h+1 = %d \
                (raise a or h)"
               nodes groups
               ((a * h) + 1))
        else Ok ()
      end

let instantiate spec ~profile ~gpus =
  match validate spec ~gpus with
  | Error msg -> invalid_arg ("Topology.instantiate: " ^ msg)
  | Ok () -> (
    match spec with
    | Hgx -> hgx ~profile ~gpus
    | Ring -> ring ~profile ~gpus
    | Pcie_only -> pcie_only ~profile ~gpus
    | Dgx { nodes } -> dgx_cluster ~profile ~nodes ~gpus_per_node:(gpus / nodes)
    | Fat_tree { arity; rails; gpus_per_node } ->
      fat_tree ~profile ~arity ~rails ~nodes:(gpus / gpus_per_node) ~gpus_per_node
    | Dragonfly { a; p; h; gpus_per_node } ->
      dragonfly ~profile ~a ~p ~h ~nodes:(gpus / gpus_per_node) ~gpus_per_node)

(* ------------------------------------------------------------------ *)
(* Route resolution                                                    *)
(* ------------------------------------------------------------------ *)

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

(* The dead-component restriction for route computation: [None] while the
   machine is healthy (keeping the fault-free search byte-identical to the
   pre-failure code path), the surviving-subgraph predicate once degraded. *)
let dead_of t = if t.degraded then Some (t.dead_vs, t.dead_ls) else None

(* Fetch (or compute) the cached shortest-path row for [src], evicting the
   oldest row first when the cache is full. Caller holds the lock. *)
let row_for t tb src =
  match tb.rows.(src) with
  | Some r -> r
  | None ->
    let r = dijkstra_row ?dead:(dead_of t) ~nv:(Array.length t.vs) ~adj:t.adj src in
    if tb.live >= t.cap then begin
      match List.rev tb.fifo with
      | [] -> ()
      | oldest :: rest ->
        tb.rows.(oldest) <- None;
        tb.fifo <- List.rev rest;
        tb.live <- tb.live - 1
    end;
    tb.rows.(src) <- Some r;
    tb.fifo <- src :: tb.fifo;
    tb.live <- tb.live + 1;
    r

let links_of_row t (r : row) dst =
  if r.dist.(dst) = max_int then None
  else begin
    let rec walk v acc =
      if v = r.rsrc then acc
      else
        let l = t.ls.(r.pred.(v)) in
        walk l.lsrc (l.lid :: acc)
    in
    Some (Array.of_list (walk dst []))
  end

let links_of_vseq t (s : structural) vseq =
  let nv = Array.length t.vs in
  let rec go = function
    | u :: (v :: _ as rest) -> (
      match Hashtbl.find_opt s.edge ((u * nv) + v) with
      | Some lid -> lid :: go rest
      | None ->
        invalid_arg
          (Printf.sprintf "Topology.%s: structural route uses a missing edge %s -> %s" t.tname
             t.vs.(u).vname t.vs.(v).vname))
    | _ -> []
  in
  Array.of_list (go vseq)

(* Whether a structural vertex path survives the dead set: every vertex
   alive and every consecutive hop's (lowest-id) link alive. Only consulted
   while degraded — a failed rail, spine or router sends the pair to the
   Dijkstra fallback, which re-routes over the surviving graph and thereby
   exploits the fabric's remaining path diversity. A missing edge is left
   for {!links_of_vseq} to diagnose, as before. *)
let vseq_alive t (s : structural) vseq =
  let nv = Array.length t.vs in
  let rec go = function
    | [] -> true
    | [ u ] -> not t.dead_vs.(u)
    | u :: (v :: _ as rest) ->
      (not t.dead_vs.(u))
      && (match Hashtbl.find_opt s.edge ((u * nv) + v) with
         | Some lid -> not t.dead_ls.(lid)
         | None -> true)
      && go rest
  in
  go vseq

(* The links of the shortest route, or None when unreachable. Caller holds
   the lock. *)
let resolve_links t ~src ~dst =
  if src = dst then Some [||]
  else
    match t.router with
    | Tables tb -> links_of_row t (row_for t tb src) dst
    | Structural s -> (
      match s.spath src dst with
      | Some vseq when (not t.degraded) || vseq_alive t s vseq -> Some (links_of_vseq t s vseq)
      | Some _ | None -> links_of_row t (row_for t s.stables src) dst)

let resolve_latency t ~src ~dst =
  if src = dst then Some Time.zero
  else
    let sum lids =
      Array.fold_left (fun acc lid -> Time.add acc t.ls.(lid).llatency) Time.zero lids
    in
    match t.router with
    | Tables tb ->
      let r = row_for t tb src in
      if r.dist.(dst) = max_int then None else Some (Time.ns r.dist.(dst))
    | Structural s -> (
      match s.spath src dst with
      | Some vseq when (not t.degraded) || vseq_alive t s vseq -> Some (sum (links_of_vseq t s vseq))
      | Some _ | None ->
        let r = row_for t s.stables src in
        if r.dist.(dst) = max_int then None else Some (Time.ns r.dist.(dst)))

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let name t = t.tname
let num_gpus t = t.gpus
let num_nodes t = t.nodes
let num_vertices t = Array.length t.vs
let vertices t = Array.to_list t.vs
let links t = Array.to_list t.ls
let ports t = Array.to_list t.ps

let routing_kind t = match t.router with Tables _ -> "tables" | Structural _ -> "structural"

let set_route_cache t n =
  with_lock t (fun () ->
      t.cap <- max 1 n;
      let trim tb =
        while tb.live > t.cap do
          match List.rev tb.fifo with
          | [] -> tb.live <- 0
          | oldest :: rest ->
            tb.rows.(oldest) <- None;
            tb.fifo <- List.rev rest;
            tb.live <- tb.live - 1
        done
      in
      match t.router with Tables tb -> trim tb | Structural s -> trim s.stables)

let route_rows_cached t =
  with_lock t (fun () ->
      match t.router with Tables tb -> tb.live | Structural s -> s.stables.live)

(* ------------------------------------------------------------------ *)
(* Fail-stop degradation                                               *)
(* ------------------------------------------------------------------ *)

(* Drop every cached shortest-path row and bump the epoch. Rows cached
   before a failure were computed on the then-healthy graph; recomputation
   under [dead_of t] re-resolves around the corpses. The epoch lets
   downstream per-pair memos (the interconnect) notice staleness without a
   callback protocol. Caller holds the lock. *)
let flush_routes t =
  let flush tb =
    List.iter (fun s -> tb.rows.(s) <- None) tb.fifo;
    tb.fifo <- [];
    tb.live <- 0
  in
  (match t.router with Tables tb -> flush tb | Structural s -> flush s.stables);
  t.degraded <- true;
  t.route_epoch <- t.route_epoch + 1

let vertex_named t name =
  let n = String.lowercase_ascii (String.trim name) in
  let found = ref None in
  Array.iter (fun v -> if !found = None && String.equal v.vname n then found := Some v.vid) t.vs;
  !found

let require_vertex t name op =
  match vertex_named t name with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Topology.%s: no vertex named %S in %s (see pp_links for names)" op name
         t.tname)

let fail_link t ~src ~dst =
  let u = require_vertex t src "fail_link" and v = require_vertex t dst "fail_link" in
  with_lock t (fun () ->
      let hit = ref false in
      Array.iter
        (fun l ->
          if
            ((l.lsrc = u && l.ldst = v) || (l.lsrc = v && l.ldst = u))
            && not t.dead_ls.(l.lid)
          then begin
            t.dead_ls.(l.lid) <- true;
            hit := true
          end)
        t.ls;
      if !hit then flush_routes t)

let fail_switch t ~name =
  let v = require_vertex t name "fail_switch" in
  with_lock t (fun () ->
      let hit = ref (not t.dead_vs.(v)) in
      t.dead_vs.(v) <- true;
      Array.iter
        (fun l ->
          if (l.lsrc = v || l.ldst = v) && not t.dead_ls.(l.lid) then begin
            t.dead_ls.(l.lid) <- true;
            hit := true
          end)
        t.ls;
      if !hit then flush_routes t)

let degraded t = t.degraded
let route_epoch t = t.route_epoch

let dead_vertices t =
  t.vs |> Array.to_list
  |> List.filter_map (fun v -> if t.dead_vs.(v.vid) then Some v.vname else None)

let dead_link_count t =
  Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 t.dead_ls

let check_gpu t g op =
  if g < 0 || g >= t.gpus then invalid_arg (Printf.sprintf "Topology.%s: no such GPU %d" op g)

let node_of_gpu t g =
  check_gpu t g "node_of_gpu";
  match t.vs.(t.gpu_vid.(g)).kind with Gpu { node; _ } -> node | _ -> assert false

let gpu_vertex t g =
  check_gpu t g "gpu_vertex";
  t.gpu_vid.(g)

let host_vertex t ~node =
  if node < 0 || node >= t.nodes then
    invalid_arg (Printf.sprintf "Topology.host_vertex: no such node %d" node);
  t.host_vid.(node)

let gpu_egress_port t g =
  check_gpu t g "gpu_egress_port";
  t.gpu_eport.(g)

let gpu_ingress_port t g =
  check_gpu t g "gpu_ingress_port";
  t.gpu_iport.(g)

let check_vid t v op =
  if v < 0 || v >= Array.length t.vs then
    invalid_arg (Printf.sprintf "Topology.%s: no such vertex %d" op v)

let no_route t ~src ~dst op =
  let msg =
    Printf.sprintf "Topology.%s: no route from %s to %s" op t.vs.(src).vname t.vs.(dst).vname
  in
  if not t.degraded then invalid_arg msg
  else begin
    (* On a healthy machine an unroutable public pair is a caller bug; on a
       degraded one it is a diagnosed network partition. *)
    let count a = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 a in
    let dead_names =
      t.vs |> Array.to_list
      |> List.filter_map (fun v -> if t.dead_vs.(v.vid) then Some v.vname else None)
    in
    raise
      (Partitioned
         (Printf.sprintf "%s: network partitioned by fail-stop events (%d dead link%s, %d dead vertex%s%s)"
            msg (count t.dead_ls)
            (if count t.dead_ls = 1 then "" else "s")
            (count t.dead_vs)
            (if count t.dead_vs = 1 then "" else "es")
            (match dead_names with [] -> "" | ns -> ": " ^ String.concat ", " ns)))
  end

let reachable t ~src ~dst =
  check_vid t src "reachable";
  check_vid t dst "reachable";
  with_lock t (fun () -> resolve_latency t ~src ~dst <> None)

let route t ~src ~dst =
  check_vid t src "route";
  check_vid t dst "route";
  match with_lock t (fun () -> resolve_links t ~src ~dst) with
  | Some lids -> Array.to_list (Array.map (fun lid -> t.ls.(lid)) lids)
  | None -> no_route t ~src ~dst "route"

let route_latency t ~src ~dst =
  check_vid t src "route_latency";
  check_vid t dst "route_latency";
  match with_lock t (fun () -> resolve_latency t ~src ~dst) with
  | Some l -> l
  | None -> no_route t ~src ~dst "route_latency"

let route_ns_per_byte t ~src ~dst =
  check_vid t src "route_ns_per_byte";
  check_vid t dst "route_ns_per_byte";
  match with_lock t (fun () -> resolve_links t ~src ~dst) with
  | None -> no_route t ~src ~dst "route_ns_per_byte"
  | Some [||] -> t.vs.(src).local_ns_per_byte
  | Some lids ->
    Array.fold_left (fun acc lid -> Float.max acc t.ls.(lid).lns_per_byte) 0.0 lids

(* Port dedup via a reusable bitset (cleared back by walking the result, so
   the scratch cost is O(route length), not O(ports)). The same path serves
   the interconnect's lazy pair fill. *)
let route_ports t ~src ~dst =
  check_vid t src "route_ports";
  check_vid t dst "route_ports";
  let res =
    with_lock t (fun () ->
        match resolve_links t ~src ~dst with
        | None -> None
        | Some lids ->
          let seen = t.dedup in
          let acc = ref [] in
          Array.iter
            (fun lid ->
              List.iter
                (fun pp ->
                  if Bytes.get seen pp = '\000' then begin
                    Bytes.set seen pp '\001';
                    acc := pp :: !acc
                  end)
                t.ls.(lid).lports)
            lids;
          List.iter (fun pp -> Bytes.set seen pp '\000') !acc;
          Some (List.rev !acc))
  in
  match res with Some l -> l | None -> no_route t ~src ~dst "route_ports"

(* Reference shortest path, always freshly computed with the deterministic
   Dijkstra and never cached: the oracle the structural routers are tested
   against. Computed on the surviving graph once the machine is degraded,
   so it doubles as the degraded-routing oracle. *)
let dijkstra_reference t ~src ~dst =
  check_vid t src "dijkstra_reference";
  check_vid t dst "dijkstra_reference";
  if src = dst then Some ([], Time.zero)
  else
    let r = dijkstra_row ?dead:(dead_of t) ~nv:(Array.length t.vs) ~adj:t.adj src in
    match links_of_row t r dst with
    | None -> None
    | Some lids -> Some (Array.to_list lids, Time.ns r.dist.(dst))

let fold_pairs xs ys f =
  List.fold_left
    (fun acc a ->
      List.fold_left
        (fun acc c -> if a = c then acc else f acc ~src:a ~dst:c)
        acc ys)
    None xs

let min_gpu_pair_latency t =
  match t.router with
  | Structural s -> if t.gpus >= 2 then s.s_min_gpu else None
  | Tables _ ->
    let g = Array.to_list t.gpu_vid in
    fold_pairs g g (fun acc ~src ~dst ->
        let l = route_latency t ~src ~dst in
        match acc with Some m when Time.(m <= l) -> acc | _ -> Some l)

let max_gpu_pair_latency t =
  match t.router with
  | Structural s -> if t.gpus >= 2 then s.s_max_gpu else None
  | Tables _ ->
    let g = Array.to_list t.gpu_vid in
    fold_pairs g g (fun acc ~src ~dst ->
        let l = route_latency t ~src ~dst in
        match acc with Some m when Time.(m >= l) -> acc | _ -> Some l)

let string_of_link_kind = function
  | Nvlink -> "nvlink"
  | Pcie -> "pcie"
  | Infiniband -> "infiniband"

let string_of_vertex_kind = function
  | Gpu _ -> "gpu"
  | Host _ -> "host"
  | Nic _ -> "nic"
  | Switch _ -> "switch"

let pp fmt t =
  Format.fprintf fmt "%s: %d GPU%s across %d node%s (%d vertices, %d links, %d ports)" t.tname
    t.gpus
    (if t.gpus = 1 then "" else "s")
    t.nodes
    (if t.nodes = 1 then "" else "s")
    (Array.length t.vs) (Array.length t.ls) (Array.length t.ps)

let pp_links fmt t =
  Array.iter
    (fun l ->
      Format.fprintf fmt "  %-28s %-10s %8s %7.0f GB/s  [%s]@."
        (Printf.sprintf "%s -> %s" t.vs.(l.lsrc).vname t.vs.(l.ldst).vname)
        (string_of_link_kind l.lkind) (Time.to_string l.llatency) (1.0 /. l.lns_per_byte)
        (String.concat ", " (List.map (fun p -> t.ps.(p).pname) l.lports)))
    t.ls
