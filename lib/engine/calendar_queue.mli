(** ns-2-style calendar queue: amortized O(1) timed-event scheduling.

    A bucketed timer ring with automatic resize of bucket count and width,
    matching {!Event_heap}'s API and ordering contract exactly: events pop
    in lexicographic (time, insertion-order) order, so FIFO within equal
    timestamps.  Steady-state add/pop allocates nothing — nodes live in
    pooled parallel arrays and are linked into buckets by index, and a
    per-bucket tail index makes the in-order insert O(1). *)

type 'a t

val create : unit -> 'a t

(** [add t ~time v] schedules [v] at [time].  [time] must be finite and
    non-negative.  Adding behind the last dequeued time is permitted but
    slow; the simulator never does it. *)
val add : 'a t -> time:float -> 'a -> unit

(** {2 Explicit sequence numbers}

    Same contract as {!Event_heap.alloc_seq}/{!Event_heap.add_with_seq}:
    burn a tie-break counter value without inserting, then insert at an
    explicitly chosen seq.  Used by the consolidated RTO wheel to place
    its single simulator entry at the exact logical position a per-flow
    insertion would have had.  The caller must preserve pop-order: never
    insert a (time, seq) pair sorting before an already dequeued event. *)

(** Advance the insertion counter by one and return the burned value. *)
val alloc_seq : 'a t -> int

(** [add_with_seq t ~time ~seq v] schedules [v] at [time] with the
    explicit tie-break [seq].  [seq] may come from another queue's
    counter (the wheel stores simulator seqs); it only has to be
    non-negative and respect pop-order. *)
val add_with_seq : 'a t -> time:float -> seq:int -> 'a -> unit

(** Insertion seq of the earliest event.  Raises [Invalid_argument] on an
    empty queue. *)
val min_seq : 'a t -> int

(** Remove and return the earliest event, or [None] if empty. *)
val pop : 'a t -> (float * 'a) option

(** [take_until t ~until ~none] removes and returns the earliest event's
    value if its time is at most [until], and returns [none] — leaving
    the queue as it was — if the queue is empty or its earliest event
    lies beyond [until].  One bucket scan finds, tests and removes the
    minimum; {!taken_time} then reads its timestamp.  Allocates
    nothing.  The simulator's drain loop is built on it. *)
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

(** {2 Introspection} — exposed for tests and the resize-policy bench. *)

(** Current number of buckets in the ring (a power of two). *)
val buckets : 'a t -> int

(** Current bucket width in seconds. *)
val width : 'a t -> float
