(** Persistent domain pool for independent simulations.

    Every simulation owns its engine and shares no mutable state with
    another, so a batch of them fans out across host cores (OCaml 5
    domains). A pool spawns its workers once and wakes them per batch;
    items are claimed one at a time off a shared cursor, so long items do
    not serialize behind short ones. Results come back in input order:
    {!map} is observationally [List.map], whatever the pool size.

    A pool of one job spawns no domain and runs everything on the caller:
    a process may still [fork] safely afterwards. *)

type t

val default_jobs : unit -> int
(** Pool size used when [?jobs] is omitted: the [CPUFREE_JOBS] environment
    variable if set (must be a positive integer, otherwise
    [Invalid_argument]), else [Domain.recommended_domain_count ()]. *)

val create : jobs:int -> t
(** [jobs - 1] worker domains plus the calling domain, which takes part in
    every {!run}. @raise Invalid_argument when [jobs < 1]. *)

val run : t -> n:int -> (int -> unit) -> unit
(** [run t ~n f] executes [f 0 .. f (n-1)], each exactly once, across the
    pool, and returns when all have completed. What the caller wrote before
    [run] is visible to every [f]; what [f] wrote is visible to the caller
    after. [f] must not raise. *)

val shutdown : t -> unit
(** Stop and join the worker domains. The pool must not be used afterwards. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?jobs f xs] applies [f] to every element of [xs] on a pool of
    [jobs] (default {!default_jobs}, clamped to at least 1 and at most
    [List.length xs]) and returns the results in input order. With one job
    this is exactly [List.map f xs] on the calling domain. If any
    application raises, every item still runs and the exception of the
    lowest-index failing element is re-raised. [f] must not share mutable
    state across elements. *)

val map_reduce :
  ?jobs:int -> map:('a -> 'b) -> reduce:('acc -> 'b -> 'acc) -> init:'acc -> 'a list -> 'acc
(** [map_reduce ~map ~reduce ~init xs] folds the mapped results in input
    order: deterministic even when [reduce] is not commutative. *)
