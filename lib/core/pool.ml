(* Workers sleep on [work_cv] until [run] publishes a task under a new
   phase number; every participant (the caller included) then claims item
   indices off [cursor], and the caller waits on [done_cv] until the
   in-flight count drains. Publishing under the mutex is the
   happens-before edge that makes the caller's writes visible to the
   workers, and the final lock/unlock makes theirs visible back. *)

type t = {
  jobs : int;
  lock : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  mutable phase : int;
  mutable stop : bool;
  mutable nitems : int;
  mutable task : int -> unit;
  cursor : int Atomic.t;
  mutable inflight : int;
  mutable domains : unit Domain.t list;
}

let default_jobs () =
  match Sys.getenv_opt "CPUFREE_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None ->
      invalid_arg (Printf.sprintf "CPUFREE_JOBS: expected a positive integer, got %S" s))
  | None -> Domain.recommended_domain_count ()

let drain t =
  let rec go () =
    let i = Atomic.fetch_and_add t.cursor 1 in
    if i < t.nitems then begin
      t.task i;
      go ()
    end
  in
  go ()

(* One participant is done with the current phase. *)
let leave t =
  Mutex.lock t.lock;
  t.inflight <- t.inflight - 1;
  if t.inflight = 0 then Condition.broadcast t.done_cv;
  Mutex.unlock t.lock

let worker t () =
  let rec loop seen =
    Mutex.lock t.lock;
    while (not t.stop) && t.phase = seen do
      Condition.wait t.work_cv t.lock
    done;
    if t.stop then Mutex.unlock t.lock
    else begin
      let phase = t.phase in
      Mutex.unlock t.lock;
      drain t;
      leave t;
      loop phase
    end
  in
  loop 0

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be positive";
  let t =
    {
      jobs;
      lock = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      phase = 0;
      stop = false;
      nitems = 0;
      task = ignore;
      cursor = Atomic.make 0;
      inflight = 0;
      domains = [];
    }
  in
  t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker t));
  t

let run t ~n f =
  if t.jobs = 1 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    Mutex.lock t.lock;
    t.task <- f;
    t.nitems <- n;
    Atomic.set t.cursor 0;
    t.inflight <- t.jobs;
    t.phase <- t.phase + 1;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.lock;
    drain t;
    leave t;
    Mutex.lock t.lock;
    while t.inflight <> 0 do
      Condition.wait t.done_cv t.lock
    done;
    Mutex.unlock t.lock
  end

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.lock;
  List.iter Domain.join t.domains;
  t.domains <- []

let map ?jobs f xs =
  let jobs = match jobs with Some j -> Stdlib.max 1 j | None -> default_jobs () in
  let input = Array.of_list xs in
  let n = Array.length input in
  let jobs = Stdlib.min jobs n in
  if jobs <= 1 then List.map f xs
  else begin
    let results = Array.make n None in
    let pool = create ~jobs in
    Fun.protect
      ~finally:(fun () -> shutdown pool)
      (fun () ->
        run pool ~n (fun i ->
            results.(i) <-
              Some
                (match f input.(i) with
                | v -> Ok v
                | exception e -> Error (e, Printexc.get_raw_backtrace ()))));
    (* Input order: the lowest-index failure is the one re-raised. *)
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end

let map_reduce ?jobs ~map:f ~reduce ~init xs = List.fold_left reduce init (map ?jobs f xs)
