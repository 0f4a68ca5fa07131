(** Network node: routes packets by destination and dispatches packets
    addressed to itself to per-flow agent handlers. *)

type t

val create : id:int -> t
val id : t -> int

(** Route packets destined to node [dst] over [link], replacing any
    earlier route to [dst].  Node ids index a dense table, so they should
    be small; a negative [dst] raises [Invalid_argument]. *)
val add_route : t -> dst:int -> Link.t -> unit

(** Route for any destination without an explicit entry. *)
val set_default_route : t -> Link.t -> unit

(** Register the handler for packets of [flow] terminating here.  Small
    non-negative flow ids go into a dense dispatch array (delivery is a
    bounds-checked load); negative or very large ids fall back to a
    hash table. *)
val attach : t -> flow:int -> (Packet.t -> unit) -> unit

val detach : t -> flow:int -> unit

(** [reserve t ~flows:n] pre-sizes the dense dispatch table for flow ids
    [0 .. n-1] in one allocation, avoiding doubling-growth overshoot.
    Many-flow engines call this once up front; attaching without a
    reservation still works (the table grows amortized). *)
val reserve : t -> flows:int -> unit

(** Deliver a packet to this node: dispatch locally if [pkt.dst] is this
    node, otherwise forward along the route.  Packets for unknown flows or
    destinations are silently discarded (counted). *)
val receive : t -> Packet.t -> unit

(** Entry point for locally generated packets (agents call this). *)
val inject : t -> Packet.t -> unit

(** Packets discarded for lack of a route or local handler. *)
val discarded : t -> int

(** Hook invoked for every discarded packet, before pooled shells are
    released (monitoring / per-flow accounting in the fuzzer). *)
val on_discard : t -> (Packet.t -> unit) -> unit
