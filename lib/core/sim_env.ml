(* Re-export of {!Cpufree_obs.Sim_env} under [Cpufree_core], the name the
   repository benchmark ([perfbench/]) uses. Kept for that caller alone:
   new code names [Cpufree_obs.Sim_env] directly. *)
include Cpufree_obs.Sim_env
