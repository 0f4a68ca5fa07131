type t = {
  sim : Engine.Sim.t;
  src : Netsim.Node.t;
  dst : Netsim.Node.t;
  flow_id : int;
  pkt_size : int;
  min_rto : float;
  sink : Sink.t;
  mutable running : bool;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable high_water : int;
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  mutable srtt : float;
  mutable rttvar : float;
  mutable rtt_valid : bool;
  mutable backoff : float;
  mutable rto_timer : Engine.Sim.timer;
  mutable on_timeout : unit -> unit;
  mutable pkts_sent : int;
  mutable bytes_sent : int;
  mutable timeouts : int;
  mutable fast_rtx : int;
  mutable rtx_pkts : int;
}

let max_rto = 64.
let max_backoff = 64.
let dupack_threshold = 3

let inflight r = r.snd_nxt - r.snd_una

let go_back_n r =
  r.in_recovery <- false;
  r.dupacks <- 0;
  (* Go-back-N: resume from the first hole; everything in flight is
     presumed lost (how ns-2's one-bit-ack TCPs behave on timeout). *)
  r.snd_nxt <- r.snd_una;
  r.recover <- r.high_water

let expire r =
  if r.running && r.snd_una < r.snd_nxt then begin
    r.timeouts <- r.timeouts + 1;
    r.backoff <- Float.min max_backoff (r.backoff *. 2.);
    go_back_n r;
    r.on_timeout ()
  end

let create ?(min_rto = 0.2) ?sack ?delayed_acks ~sim ~src ~dst ~flow ~pkt_size
    () =
  let sink =
    Sink.attach ?sack ?delayed_acks ~sim ~node:dst ~flow
      ~peer:(Netsim.Node.id src) ()
  in
  let r =
    {
      sim;
      src;
      dst;
      flow_id = flow;
      pkt_size;
      min_rto;
      sink;
      running = false;
      snd_una = 0;
      snd_nxt = 0;
      high_water = 0;
      dupacks = 0;
      in_recovery = false;
      recover = -1;
      srtt = 0.;
      rttvar = 0.;
      rtt_valid = false;
      backoff = 1.;
      rto_timer = Engine.Sim.timer sim ignore;
      on_timeout = ignore;
      pkts_sent = 0;
      bytes_sent = 0;
      timeouts = 0;
      fast_rtx = 0;
      rtx_pkts = 0;
    }
  in
  r.rto_timer <- Engine.Sim.timer sim (fun () -> expire r);
  r

let transmit r ~seq =
  let pkt =
    Netsim.Packet.make ~size:r.pkt_size ~seq ~flow:r.flow_id
      ~src:(Netsim.Node.id r.src) ~dst:(Netsim.Node.id r.dst)
      ~sent_at:(Engine.Sim.now r.sim) ()
  in
  r.pkts_sent <- r.pkts_sent + 1;
  r.bytes_sent <- r.bytes_sent + r.pkt_size;
  let rtx = seq < r.high_water in
  if rtx then r.rtx_pkts <- r.rtx_pkts + 1 else r.high_water <- seq + 1;
  Netsim.Node.inject r.src pkt;
  rtx

(* Inlined so the float sample reaches the estimator unboxed. *)
let[@inline] rtt_sample r sample =
  if r.rtt_valid then begin
    r.rttvar <- (0.75 *. r.rttvar) +. (0.25 *. Float.abs (r.srtt -. sample));
    r.srtt <- (0.875 *. r.srtt) +. (0.125 *. sample)
  end
  else begin
    r.srtt <- sample;
    r.rttvar <- sample /. 2.;
    r.rtt_valid <- true
  end

let rto r =
  let base = if r.rtt_valid then r.srtt +. (4. *. r.rttvar) else 1.0 in
  (* Floor *before* the exponential backoff multiplies in: a low-RTT path
     (srtt + 4*rttvar << min_rto) must not collapse the timer below
     [min_rto] and fire spurious retransmits. *)
  Float.min max_rto (Float.max r.min_rto base *. r.backoff)

let restart_rto r =
  if r.running && r.snd_una < r.snd_nxt then
    Engine.Sim.arm_after r.rto_timer (rto r)
  else Engine.Sim.disarm r.rto_timer

let ensure_rto r =
  if not (Engine.Sim.timer_armed r.rto_timer) then restart_rto r

let stop r =
  r.running <- false;
  Engine.Sim.disarm r.rto_timer

type ack = Ignore | Stale | Dup | New

let classify r (pkt : Netsim.Packet.t) =
  if not r.running then Ignore
  else
    match pkt.Netsim.Packet.payload with
    | Netsim.Packet.Ack { cum_seq; sack = _ } ->
      if cum_seq > r.snd_una then New
      else if cum_seq = r.snd_una && r.snd_una < r.snd_nxt then Dup
      else Stale
    | Netsim.Packet.Plain | Netsim.Packet.Rap_ack _ | Netsim.Packet.Tfrc_data _
    | Netsim.Packet.Tfrc_fb _ | Netsim.Packet.Tear_fb _ ->
      Ignore

let cum_seq (pkt : Netsim.Packet.t) =
  match pkt.Netsim.Packet.payload with
  | Netsim.Packet.Ack { cum_seq; sack = _ } -> cum_seq
  | Netsim.Packet.Plain | Netsim.Packet.Rap_ack _ | Netsim.Packet.Tfrc_data _
  | Netsim.Packet.Tfrc_fb _ | Netsim.Packet.Tear_fb _ ->
    0

let release = Netsim.Packet.release

let dup_ack r =
  r.dupacks <- r.dupacks + 1;
  (not r.in_recovery) && r.dupacks = dupack_threshold && r.snd_una > r.recover

let enter_recovery r =
  r.fast_rtx <- r.fast_rtx + 1;
  r.in_recovery <- true;
  r.recover <- r.snd_nxt

type progress = Open | Full | Partial

let new_ack r cum =
  r.snd_una <- cum;
  r.backoff <- 1.;
  if not r.in_recovery then begin
    r.dupacks <- 0;
    Open
  end
  else if cum > r.recover then begin
    r.in_recovery <- false;
    r.dupacks <- 0;
    Full
  end
  else Partial

let clear_recovery r =
  r.dupacks <- 0;
  r.in_recovery <- false;
  r.recover <- r.snd_una - 1

let credit r ~sent ~delivered =
  r.pkts_sent <- r.pkts_sent + sent;
  r.bytes_sent <- r.bytes_sent + (sent * r.pkt_size);
  Sink.ff_credit r.sink ~pkts:delivered ~pkt_size:r.pkt_size

let jump r ~delivered =
  let s = max r.high_water (Sink.cumulative r.sink) + delivered in
  r.snd_una <- s;
  r.snd_nxt <- s;
  r.high_water <- s;
  r.backoff <- 1.;
  clear_recovery r;
  Sink.fast_forward r.sink ~next_expected:s;
  s

let flow r ~protocol ~start ~stop ~current_rate ~ff =
  {
    Flow.id = r.flow_id;
    protocol;
    start;
    stop;
    pkts_sent = (fun () -> r.pkts_sent);
    bytes_sent = (fun () -> float_of_int r.bytes_sent);
    bytes_delivered = (fun () -> Sink.bytes_received r.sink);
    current_rate;
    srtt = (fun () -> r.srtt);
    stats =
      (fun () ->
        {
          Flow.sent_pkts = r.pkts_sent;
          sent_bytes = float_of_int r.bytes_sent;
          delivered_bytes = Sink.bytes_received r.sink;
          rtx_pkts = r.rtx_pkts;
          timeouts = r.timeouts;
          fast_rtx = r.fast_rtx;
          stat_srtt = r.srtt;
        });
    ff;
  }
