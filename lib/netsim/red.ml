type params = {
  min_th : float;
  max_th : float;
  w_q : float;
  max_p : float;
  capacity : int;
  gentle : bool;
  ecn : bool;
  mean_pkt_tx_time : float;
}

let default_params =
  {
    min_th = 5.;
    max_th = 15.;
    w_q = 0.002;
    max_p = 0.1;
    capacity = 60;
    gentle = true;
    ecn = false;
    mean_pkt_tx_time = 0.001;
  }

(* [avg] and [idle_since] live in a floatarray cell: a mutable float field
   in this mixed record would box on every store, and [avg] is updated once
   per arrival.  [idle_since] uses nan as "not idle". *)
type state = {
  q : Pktq.t;
  mutable bytes : int;
  avg : floatarray;
  mutable count : int;
  idle_since : floatarray;  (** nan when busy, else the time the queue emptied *)
  (* cumulative counters for the observability layer *)
  mutable n_enqueued : int;
  mutable n_early_drop : int;  (** probabilistic (RED) drops *)
  mutable n_forced_drop : int;  (** buffer overflow / beyond-ceiling drops *)
  mutable n_marked : int;
  mutable peak_pkts : int;
}

let make_with_introspection ~sim ~rng p =
  if p.min_th <= 0. || p.max_th <= p.min_th then
    invalid_arg "Red.make: need 0 < min_th < max_th";
  let s =
    {
      q = Pktq.create ();
      bytes = 0;
      avg = Float.Array.make 1 0.;
      count = -1;
      idle_since = Float.Array.make 1 0.;
      n_enqueued = 0;
      n_early_drop = 0;
      n_forced_drop = 0;
      n_marked = 0;
      peak_pkts = 0;
    }
  in
  (* The floatarray cells are read and written in place: a helper
     returning the average would box it on every arrival. *)
  let update_avg () =
    let t0 = Float.Array.unsafe_get s.idle_since 0 in
    let avg = Float.Array.unsafe_get s.avg 0 in
    if Float.is_nan t0 then
      Float.Array.unsafe_set s.avg 0
        (avg +. (p.w_q *. (float_of_int (Pktq.length s.q) -. avg)))
    else begin
      (* Decay the average as if the queue had been draining small packets
         during the idle period. *)
      let m = (Engine.Sim.now sim -. t0) /. p.mean_pkt_tx_time in
      Float.Array.unsafe_set s.avg 0 (avg *. ((1. -. p.w_q) ** m));
      Float.Array.unsafe_set s.idle_since 0 Float.nan
    end
  in
  (* Decide the fate of an arrival once the average is up to date.  Returns
     the probabilistic verdict; the caller still enforces buffer overflow. *)
  let early_verdict () : Queue_intf.action =
    let avg = Float.Array.unsafe_get s.avg 0 in
    if avg < p.min_th then begin
      s.count <- -1;
      Queue_intf.Enqueued
    end
    else if avg < p.max_th || (p.gentle && avg < 2. *. p.max_th) then begin
      let p_b =
        if avg < p.max_th then
          p.max_p *. (avg -. p.min_th) /. (p.max_th -. p.min_th)
        else p.max_p +. ((1. -. p.max_p) *. (avg -. p.max_th) /. p.max_th)
      in
      (* Uniformize by the count of arrivals since the last drop. *)
      s.count <- s.count + 1;
      let denom = 1. -. (float_of_int s.count *. p_b) in
      let p_a =
        if denom <= 0. then 1.
        else begin
          (* [Float.min 1.] spelled out so it cannot box. *)
          let q = p_b /. denom in
          if q >= 1. then 1. else q
        end
      in
      if Engine.Rng.bernoulli rng ~p:p_a then begin
        s.count <- 0;
        if p.ecn then Queue_intf.Marked else Queue_intf.Dropped
      end
      else Queue_intf.Enqueued
    end
    else begin
      (* Average beyond the (gentle) ceiling: forced drop even with ECN. *)
      s.count <- 0;
      Queue_intf.Dropped
    end
  in
  let admit pkt =
    Pktq.add s.q pkt;
    s.bytes <- s.bytes + pkt.Packet.size;
    s.n_enqueued <- s.n_enqueued + 1;
    if Pktq.length s.q > s.peak_pkts then s.peak_pkts <- Pktq.length s.q
  in
  let enqueue (pkt : Packet.t) : Queue_intf.action =
    update_avg ();
    if Pktq.length s.q >= p.capacity then begin
      s.count <- 0;
      s.n_forced_drop <- s.n_forced_drop + 1;
      Queue_intf.Dropped
    end
    else begin
      match early_verdict () with
      | Queue_intf.Dropped ->
        s.n_early_drop <- s.n_early_drop + 1;
        Queue_intf.Dropped
      | Queue_intf.Marked ->
        pkt.Packet.ecn <- true;
        admit pkt;
        s.n_marked <- s.n_marked + 1;
        Queue_intf.Marked
      | Queue_intf.Enqueued ->
        admit pkt;
        Queue_intf.Enqueued
    end
  in
  let dequeue () =
    let pkt = Pktq.take s.q in
    if pkt != Packet.dummy then begin
      s.bytes <- s.bytes - pkt.Packet.size;
      if Engine.Audit.invariants_on () && s.bytes < 0 then
        Engine.Audit.fail
          "Red: byte occupancy went negative (%d) after dequeueing pkt of \
           %d bytes"
          s.bytes pkt.Packet.size;
      if Pktq.is_empty s.q then
        Float.Array.unsafe_set s.idle_since 0 (Engine.Sim.now sim)
    end;
    pkt
  in
  let queue =
    {
      Queue_intf.name = "red";
      enqueue;
      dequeue;
      pkts = (fun () -> Pktq.length s.q);
      bytes = (fun () -> s.bytes);
      counters =
        (fun () ->
          [
            ("enqueued", s.n_enqueued);
            ("early_drop", s.n_early_drop);
            ("forced_drop", s.n_forced_drop);
            ("marked", s.n_marked);
            ("peak_pkts", s.peak_pkts);
          ]);
    }
  in
  (queue, fun () -> Float.Array.get s.avg 0)

let make ~sim ~rng p = fst (make_with_introspection ~sim ~rng p)
