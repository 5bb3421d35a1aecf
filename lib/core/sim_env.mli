(** Re-export of {!Cpufree_obs.Sim_env}, kept because the repository
    benchmark names it [Cpufree_core.Sim_env]. *)

include module type of struct
  include Cpufree_obs.Sim_env
end
