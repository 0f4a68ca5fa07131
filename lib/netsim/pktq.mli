(** Growable ring-buffer FIFO of packets; enqueue/dequeue never cons
    (unlike [Stdlib.Queue]). *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool
val add : t -> Packet.t -> unit

(** Remove and return the head, or {!Packet.dummy} when empty. *)
val take : t -> Packet.t
