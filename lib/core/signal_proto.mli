(** The halo-availability signaling protocol of §4.1.1.

    Each PE owns two flag pairs on the symmetric heap — one per vertical
    neighbour direction. A neighbour signals that the halo values {e for}
    iteration [t] are committed by setting the flag to [t]; a boundary
    thread block waits for its inbound flag to reach the current iteration
    before computing, then pushes its new boundary into the neighbour's halo
    with a combined put+signal carrying [t + 1].

    Flags start at 0 and iteration numbering is 1-based, so the first
    iteration's wait passes immediately: the initial grid contents serve as
    the halos of iteration 1. *)

type dir = Up | Down
(** [Up]: towards PE-1 (the neighbour owning the rows above mine);
    [Down]: towards PE+1. *)

type t

val create : Cpufree_comm.Nvshmem.t -> label:string -> t
(** Allocates the two symmetric signal variables ("from-above" and
    "from-below"). *)

val neighbor : t -> pe:int -> dir -> int option
(** The neighbouring PE in a direction, if any (non-periodic chain). *)

val wait_halo : t -> pe:int -> dir:dir -> iter:int -> unit
(** Block until the halo coming from direction [dir] holds the values needed
    by iteration [iter] (1-based). No-op when there is no neighbour. *)

val put_boundary :
  t -> from_pe:int -> dir:dir -> src:Cpufree_gpu.Buffer.t -> src_pos:int ->
  dst:Cpufree_comm.Nvshmem.sym -> dst_pos:int -> len:int -> iter:int -> unit
(** Commit this PE's freshly computed boundary of iteration [iter] into the
    [dir] neighbour's halo and signal availability for iteration [iter + 1]
    ([nvshmemx_putmem_signal_nbi_block]). No-op without a neighbour. *)

val signal_only : t -> from_pe:int -> dir:dir -> iter:int -> unit
(** Signal halo availability without a payload (used after strided [iput]
    which has no combined signaling variant, §5.3.1). *)

val inbound_value : t -> pe:int -> dir:dir -> int
(** Current value of the inbound flag (tests/diagnostics). *)
