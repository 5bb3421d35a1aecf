module Nv = Cpufree_comm.Nvshmem

type dir = Up | Down

type t = {
  nv : Nv.t;
  from_above : Nv.signal;  (* set by PE-1: halo rows above me are ready *)
  from_below : Nv.signal;  (* set by PE+1 *)
}

let create nv ~label =
  let t =
    {
      nv;
      from_above = Nv.signal_malloc nv ~label:(label ^ ".from_above") ();
      from_below = Nv.signal_malloc nv ~label:(label ^ ".from_below") ();
    }
  in
  (* The initial grid already provides every iteration-1 halo. *)
  t

let neighbor t ~pe = function
  | Up -> if pe > 0 then Some (pe - 1) else None
  | Down -> if pe < Nv.n_pes t.nv - 1 then Some (pe + 1) else None

let inbound_flag t = function Up -> t.from_above | Down -> t.from_below

(* The flag a [dir]-directed put must raise at the destination: my Up
   neighbour receives my rows as its from-below halo. *)
let outbound_flag t = function Up -> t.from_below | Down -> t.from_above

let wait_halo t ~pe ~dir ~iter =
  match neighbor t ~pe dir with
  | None -> ()
  | Some src ->
    (* iter is 1-based; iteration 1's halos are the initial contents. *)
    Nv.signal_wait_ge t.nv ~expect_from:src ~pe ~sig_var:(inbound_flag t dir) (iter - 1)

let put_boundary t ~from_pe ~dir ~src ~src_pos ~dst ~dst_pos ~len ~iter =
  match neighbor t ~pe:from_pe dir with
  | None -> ()
  | Some to_pe ->
    Nv.putmem_signal_nbi t.nv ~from_pe ~to_pe ~src ~src_pos ~dst ~dst_pos ~len
      ~sig_var:(outbound_flag t dir) ~sig_op:Nv.Signal_set ~sig_value:iter

let signal_only t ~from_pe ~dir ~iter =
  match neighbor t ~pe:from_pe dir with
  | None -> ()
  | Some to_pe ->
    Nv.signal_op_remote t.nv ~from_pe ~to_pe ~sig_var:(outbound_flag t dir)
      ~sig_op:Nv.Signal_set ~sig_value:iter

let inbound_value t ~pe ~dir = Nv.signal_read (inbound_flag t dir) ~pe
