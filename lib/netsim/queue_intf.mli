(** Common interface for bottleneck queue disciplines.

    A queue decides, per arriving packet, whether to enqueue, enqueue with
    an ECN mark, or drop.  The owning {!Link} drives dequeues and reports
    arrivals/drops to its monitor. *)

type action =
  | Enqueued
  | Marked  (** enqueued with the ECN congestion-experienced bit set *)
  | Dropped

type t = {
  name : string;
  enqueue : Packet.t -> action;
  dequeue : unit -> Packet.t;
      (** head of the queue, or {!Packet.dummy} when it is empty (compare
          with [==]); returning the packet itself allocates nothing *)
  pkts : unit -> int;  (** current queue length in packets *)
  bytes : unit -> int;  (** current queue length in bytes *)
  counters : unit -> (string * int) list;
      (** cumulative discipline counters (enqueued/dropped/marked/peak
          occupancy, ...) for the observability layer; names are unique
          and stable within one queue *)
}
