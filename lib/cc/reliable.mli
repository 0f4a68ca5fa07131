(** Reliable-transport core shared by the windowed senders ({!Window_cc},
    {!Bbr}, {!Vegas}).

    It owns the mechanism all three use: the sequence space and its
    counters, the srtt/rttvar estimator, the backed-off retransmit timer,
    ack classification, the three-dupack trigger, NewReno recovery
    bookkeeping and the go-back-N rewind.  A sender keeps only its policy
    (how its window or pacing rate responds, and its own Karn bookkeeping)
    and calls these functions directly, in its own order.  The core calls
    back into the sender only when the retransmit timer expires.

    The record is exposed so senders read and write the fields on the
    per-ack path without an extra call. *)

type t = {
  sim : Engine.Sim.t;
  src : Netsim.Node.t;
  dst : Netsim.Node.t;
  flow_id : int;
  pkt_size : int;
  min_rto : float;  (** RTO floor, applied before the backoff *)
  sink : Sink.t;
  mutable running : bool;
  mutable snd_una : int;  (** lowest unacked sequence number *)
  mutable snd_nxt : int;  (** next sequence number to send *)
  mutable high_water : int;  (** highest sequence ever transmitted + 1 *)
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;  (** recovery ends once an ack passes this *)
  mutable srtt : float;
  mutable rttvar : float;
  mutable rtt_valid : bool;
  mutable backoff : float;
  mutable rto_timer : Engine.Sim.timer;
      (** one reusable timer for the flow's lifetime: re-arming per ack
          allocates nothing *)
  mutable on_timeout : unit -> unit;
      (** the sender's timeout response; see {!create} *)
  mutable pkts_sent : int;
  mutable bytes_sent : int;
  mutable timeouts : int;
  mutable fast_rtx : int;
  mutable rtx_pkts : int;
}

(** Attach the acking sink on [dst] and build a stopped core.  The RTO
    is floored at [min_rto] (default 0.2 s) before a ×2 backoff capped at
    64×, and is never above 64 s.  When the timer expires with data
    outstanding, the core counts the timeout, doubles the backoff, runs
    {!go_back_n} and then calls [on_timeout], which the sender sets after
    creation; it must retransmit [snd_nxt] and re-arm the timer. *)
val create :
  ?min_rto:float ->
  ?sack:bool ->
  ?delayed_acks:bool ->
  sim:Engine.Sim.t ->
  src:Netsim.Node.t ->
  dst:Netsim.Node.t ->
  flow:int ->
  pkt_size:int ->
  unit ->
  t

val inflight : t -> int

(** Send data packet [seq] and count it.  Returns [true] for a
    retransmission (below [high_water]), which a sender must never time
    (Karn); a first transmission advances [high_water]. *)
val transmit : t -> seq:int -> bool

(** Fold one RTT sample into srtt/rttvar (gains 1/8 and 1/4; the first
    sample sets srtt and rttvar = srtt/2). *)
val rtt_sample : t -> float -> unit

(** Current retransmit timeout: [srtt + 4 rttvar] (1 s before the first
    sample), floored at [min_rto], times the backoff, capped at 64 s. *)
val rto : t -> float

(** Arm the timer for {!rto} while running with data outstanding,
    otherwise disarm it. *)
val restart_rto : t -> unit

(** {!restart_rto} unless the timer is already armed. *)
val ensure_rto : t -> unit

(** Stop sending and disarm the timer. *)
val stop : t -> unit

type ack =
  | Ignore  (** sender stopped, or not a cumulative ack *)
  | Stale
      (** below [snd_una] (from before a go-back-N rewind, or reordered),
          or nothing is outstanding: no news, and never a dupack *)
  | Dup  (** exactly [snd_una] with data outstanding *)
  | New  (** advances [snd_una] to {!cum_seq} *)

(** Classify an arriving packet; changes no state. *)
val classify : t -> Netsim.Packet.t -> ack

(** The cumulative point of an ack (0 for any other packet). *)
val cum_seq : Netsim.Packet.t -> int

(** Return a consumed ack to the packet pool.  Each sender is the sole
    consumer of its sink's acks and calls this once per arrival. *)
val release : Netsim.Packet.t -> unit

(** Count a duplicate ack.  [true] on the third one outside recovery and
    past [recover]: the fast-retransmit trigger. *)
val dup_ack : t -> bool

(** Count a fast-retransmit episode and enter NewReno recovery until an
    ack passes the current [snd_nxt]. *)
val enter_recovery : t -> unit

type progress =
  | Open  (** not in recovery *)
  | Full  (** the ack ended recovery *)
  | Partial  (** still in recovery: the hole at [snd_una] is lost too *)

(** Advance [snd_una] to [cum], reset the backoff and update recovery;
    [Open] and [Full] clear the dupack count. *)
val new_ack : t -> int -> progress

(** Abandon recovery and rewind [snd_nxt] to [snd_una]; dupacks from
    the old window cannot trigger a fast retransmit until everything
    sent so far is acked (RFC 6582 s4). *)
val go_back_n : t -> unit

(** Leave recovery with no dupacks, as between recovery episodes. *)
val clear_recovery : t -> unit

(** Fast-forward: fold fluid-model packets into the counters and the
    sink. *)
val credit : t -> sent:int -> delivered:int -> unit

(** Fast-forward thaw: jump the whole frontier (and the sink's) past
    everything transmitted or received plus [delivered] credited
    packets, clear recovery and the backoff; returns the new frontier. *)
val jump : t -> delivered:int -> int

(** The uniform flow handle; counters, delivered bytes and srtt come from
    the core. *)
val flow :
  t ->
  protocol:string ->
  start:(unit -> unit) ->
  stop:(unit -> unit) ->
  current_rate:(unit -> float) ->
  ff:Flow.ff_ops option ->
  Flow.t
