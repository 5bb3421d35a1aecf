(** The scenario daemon: simulation-as-a-service over a Unix domain socket.

    One server owns a listening socket, a result cache, and a worker domain
    with a {!Cpufree_core.Pool} underneath it. The accept/read loop
    (the calling domain) parses {!Protocol} frames and serves what it can
    without simulating: [stats] snapshots, [shutdown], and [run] requests
    whose digest is already cached. Everything else is admitted to a
    bounded queue — or refused with an [overload] response when
    [max_queue] runs are already in flight.

    The worker drains the queue in batches, coalesces requests with equal
    digests (and re-checks the cache, so a request that raced a completing
    identical run becomes a hit instead of a second simulation), fans the
    unique scenarios out over the pool, publishes results to the cache,
    and responds. Responses to one connection never interleave: every
    frame write is serialized under an I/O lock.

    Because simulations are deterministic, a cache hit is byte-identical
    to a recompute; setting [CPUFREE_SERVE_SELFCHECK] (or
    [config.selfcheck]) makes the server prove that on every hit and
    abort — loudly — on a mismatch, which is the debug harness for the
    cache key. *)

type config = {
  socket_path : string;
  cache_capacity : int;  (** result-cache entries (default 128) *)
  max_queue : int;  (** in-flight admission bound (default 64) *)
  jobs : int;  (** simulation pool width (default {!Cpufree_core.Pool.default_jobs}) *)
  selfcheck : bool;
      (** recompute every cache hit and [exit 1] unless byte-equal
          (default: set iff [CPUFREE_SERVE_SELFCHECK] is set) *)
}

val default_config : socket_path:string -> config

val run : config -> unit
(** Bind (unlinking any stale socket file first), serve until a [shutdown]
    request, drain in-flight work, answer the shutdown, and clean up — the
    socket file is removed on the way out. Blocks the calling domain.
    @raise Unix.Unix_error when the socket cannot be bound. *)
