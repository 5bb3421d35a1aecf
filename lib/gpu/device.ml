(* [lanes] memoises the lane names built so far, newest first. Partitions
   running on other domains may race on it: the list is immutable, so a
   racer sees either list and at worst builds a name twice. *)
type t = {
  id : int;
  arch : Arch.t;
  eng : Cpufree_engine.Engine.t;
  mutable lanes : (string * string) list;
}

let create eng ~arch ~id =
  if id < 0 then invalid_arg "Device.create: negative id";
  { id; arch; eng; lanes = [] }

let id t = t.id
let arch t = t.arch
let engine t = t.eng

let lane t sub =
  let rec find = function
    | (s, l) :: rest -> if String.equal s sub then l else find rest
    | [] ->
      let l = Printf.sprintf "gpu%d.%s" t.id sub in
      t.lanes <- (sub, l) :: t.lanes;
      l
  in
  find t.lanes

let main_lane t = Printf.sprintf "gpu%d" t.id
let co_resident_blocks t = Arch.co_resident_blocks t.arch
