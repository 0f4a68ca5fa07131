(* FIFO of packets on a growable ring: [Stdlib.Queue] conses a cell per
   [add], and the queue disciplines enqueue once per packet per hop.
   Vacated slots are overwritten with [Packet.dummy] so dequeued packets
   don't leak through the array. *)

type t = {
  mutable items : Packet.t array;
  mutable head : int;
  mutable len : int;
}

let create () = { items = Array.make 16 Packet.dummy; head = 0; len = 0 }
let length q = q.len
let is_empty q = q.len = 0

let add q pkt =
  let cap = Array.length q.items in
  if q.len = cap then begin
    let a = Array.make (cap * 2) Packet.dummy in
    for i = 0 to q.len - 1 do
      a.(i) <- q.items.((q.head + i) land (cap - 1))
    done;
    q.items <- a;
    q.head <- 0
  end;
  let mask = Array.length q.items - 1 in
  q.items.((q.head + q.len) land mask) <- pkt;
  q.len <- q.len + 1

let take q =
  if q.len = 0 then Packet.dummy
  else begin
    let pkt = q.items.(q.head) in
    if Engine.Audit.invariants_on () && pkt == Packet.dummy then
      Engine.Audit.fail
        "Pktq: occupied slot holds the dummy packet (ring index corruption \
         at head=%d len=%d cap=%d)"
        q.head q.len (Array.length q.items);
    q.items.(q.head) <- Packet.dummy;
    q.head <- (q.head + 1) land (Array.length q.items - 1);
    q.len <- q.len - 1;
    pkt
  end
