(** Binary min-heap of timed events with FIFO tie-breaking.

    Events scheduled for the same time are popped in insertion order, which
    matters for deterministic simulation of ack-clocked protocols. *)

type 'a t

val create : unit -> 'a t

(** [add t ~time v] schedules [v] at [time].  [time] must be finite. *)
val add : 'a t -> time:float -> 'a -> unit

(** {2 Explicit sequence numbers}

    [add] tie-breaks equal timestamps by a global insertion counter.
    Aggregating schedulers (the consolidated RTO wheel) need to place one
    physical entry at the logical position an individual insertion {e
    would} have had: [alloc_seq] burns one counter value without
    inserting, and [add_with_seq] inserts at a previously allocated seq.
    The caller must preserve pop-order: never insert a (time, seq) pair
    that sorts before an event already dequeued. *)

(** Advance the insertion counter by one and return the burned value. *)
val alloc_seq : 'a t -> int

(** [add_with_seq t ~time ~seq v] schedules [v] at [time] with the
    explicit tie-break [seq] (from {!alloc_seq}).  Raises
    [Invalid_argument] if [seq] was never allocated. *)
val add_with_seq : 'a t -> time:float -> seq:int -> 'a -> unit

(** Insertion seq of the earliest event.  Raises [Invalid_argument] on an
    empty heap. *)
val min_seq : 'a t -> int

(** Remove and return the earliest event, or [None] if empty. *)
val pop : 'a t -> (float * 'a) option

(** [take_until t ~until ~none] removes and returns the earliest event's
    value if its time is at most [until], and returns [none] — leaving
    the heap as it was — if the heap is empty or its earliest event lies
    beyond [until].  {!taken_time} then reads the timestamp.  Allocates
    nothing. *)
val take_until : 'a t -> until:float -> none:'a -> 'a

(** Time of the event the last successful {!take_until} returned. *)
val taken_time : 'a t -> float

(** Earliest event time without removing it. *)
val peek_time : 'a t -> float option

val size : 'a t -> int
val is_empty : 'a t -> bool

(** Drop all events.  Vacated slots are overwritten so the GC can reclaim
    the dropped payloads immediately. *)
val clear : 'a t -> unit
