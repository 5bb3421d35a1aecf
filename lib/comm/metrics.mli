(** Communication accounting: total communication time and the
    computation/communication overlap ratio, computed from an execution
    trace (the quantities of Figure 2.2). *)

type interval = Cpufree_engine.Time.t * Cpufree_engine.Time.t

val intervals_of_kind : Cpufree_engine.Trace.t -> kind:Cpufree_engine.Trace.kind -> interval list
(** Merged intervals of all spans of a kind, across all lanes. *)

val comm_time : Cpufree_engine.Trace.t -> Cpufree_engine.Time.t
(** Wall-clock during which at least one device was communicating. *)

val compute_time : Cpufree_engine.Trace.t -> Cpufree_engine.Time.t

val overlap_ratio : Cpufree_engine.Trace.t -> float
(** Fraction of communication wall-clock hidden under computation
    (0 when there is no communication). *)

val comm_fraction : Cpufree_engine.Trace.t -> total:Cpufree_engine.Time.t -> float
(** Communication wall-clock as a fraction of a run's total time. *)
