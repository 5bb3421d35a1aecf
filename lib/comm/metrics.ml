module E = Cpufree_engine
module Time = E.Time
module Iv = E.Intervals

type interval = Time.t * Time.t

let intervals_of_kind trace ~kind =
  Iv.merge
    (List.filter_map
       (fun s -> if s.E.Trace.kind = kind then Some (s.E.Trace.t0, s.E.Trace.t1) else None)
       (E.Trace.spans trace))

let comm_time trace = Iv.total (intervals_of_kind trace ~kind:E.Trace.Communication)
let compute_time trace = Iv.total (intervals_of_kind trace ~kind:E.Trace.Compute)

let overlap_ratio trace =
  let comm = intervals_of_kind trace ~kind:E.Trace.Communication in
  let comp = intervals_of_kind trace ~kind:E.Trace.Compute in
  let comm_total = Iv.total comm in
  if Time.equal comm_total Time.zero then 0.0
  else
    Time.to_sec_float (Iv.total (Iv.intersect comm comp)) /. Time.to_sec_float comm_total

let comm_fraction trace ~total:run_total =
  if Time.equal run_total Time.zero then 0.0
  else Time.to_sec_float (comm_time trace) /. Time.to_sec_float run_total
