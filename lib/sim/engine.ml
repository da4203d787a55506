module Telemetry = Activermt_telemetry.Telemetry

type event = { time : float; seq : int; thunk : unit -> unit }

type t = {
  queue : event Stdx.Heap.t;
  mutable clock : float;
  mutable next_seq : int;
  scheduled : Telemetry.counter;
  processed : Telemetry.counter;
  depth : Telemetry.gauge;
}

let compare_events a b =
  match compare a.time b.time with 0 -> compare a.seq b.seq | c -> c

let create ?(telemetry = Telemetry.default) () =
  {
    queue = Stdx.Heap.create ~cmp:compare_events;
    clock = 0.0;
    next_seq = 0;
    scheduled = Telemetry.counter telemetry "sim.events.scheduled";
    processed = Telemetry.counter telemetry "sim.events.processed";
    depth = Telemetry.gauge telemetry "sim.queue_depth";
  }

let now t = t.clock

let schedule_at t ~time thunk =
  let time = Float.max time t.clock in
  Stdx.Heap.push t.queue { time; seq = t.next_seq; thunk };
  t.next_seq <- t.next_seq + 1;
  Telemetry.bump t.scheduled

let schedule t ~delay thunk = schedule_at t ~time:(t.clock +. delay) thunk

let step t =
  match Stdx.Heap.pop t.queue with
  | None -> false
  | Some e ->
    t.clock <- e.time;
    Telemetry.bump t.processed;
    Telemetry.set t.depth (float_of_int (Stdx.Heap.length t.queue));
    e.thunk ();
    true

let run ?until t =
  let continue () =
    match until with
    | None -> true
    | Some limit -> (
      match Stdx.Heap.peek t.queue with
      | Some e when e.time > limit ->
        t.clock <- limit;
        false
      | Some _ -> true
      | None ->
        t.clock <- Float.max t.clock limit;
        false)
  in
  while continue () && step t do
    ()
  done

let pending t = Stdx.Heap.length t.queue
