module E = Cpufree_engine

type t = {
  ename : string;
  flag : E.Sync.Flag.t;  (* completed generation count *)
  mutable gen : int;  (* recorded generation count *)
}

let create eng ~name = { ename = name; flag = E.Sync.Flag.create ~name eng 0; gen = 0 }
let name t = t.ename

let record t stream =
  t.gen <- t.gen + 1;
  let gen = t.gen in
  Stream.enqueue stream (fun () ->
      E.Sync.Flag.set t.flag gen)

let query t = E.Sync.Flag.get t.flag >= t.gen
let synchronize t = E.Sync.Flag.wait_ge t.flag t.gen

let stream_wait stream t =
  let gen = t.gen in
  Stream.enqueue stream (fun () ->
      E.Sync.Flag.wait_ge t.flag gen)
