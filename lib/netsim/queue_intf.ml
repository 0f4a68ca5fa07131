type action = Enqueued | Marked | Dropped

type t = {
  name : string;
  enqueue : Packet.t -> action;
  dequeue : unit -> Packet.t;
  pkts : unit -> int;
  bytes : unit -> int;
  counters : unit -> (string * int) list;
}
