(* Vegas-style delay-based sender.

   The controller estimates the standing queue it keeps at the bottleneck
   from the gap between the measured RTT and the propagation RTT:

     diff = cwnd * (rtt - base_rtt) / rtt        (packets queued)

   and once per RTT nudges the window to keep alpha < diff < beta
   (Brakmo & Peterson's alpha/beta rule; +1 below alpha, -1 above beta,
   hold in between), with a gamma threshold that exits the
   double-every-other-RTT slow start the moment a standing queue forms.

   Two classic delay-CC pathologies are addressed the way the "gallery of
   solutions" survey recommends:
   - RTT noise: decisions use the *minimum* RTT sample of each RTT epoch,
     not individual (ack-compression-prone) samples.
   - Base-RTT drift: base_rtt is a windowed minimum over two rotating
     half-window buckets (~[base_rtt_window] seconds), so a route change
     or a long-lived standing queue cannot pin base_rtt to a stale value
     forever.

   RTT samples are per-sequence send timestamps, discarded when a
   sequence is retransmitted (Karn's rule: an ack for a retransmitted
   segment is ambiguous and is never timed).  Loss handling is
   deliberately plain — [Reliable]'s 3-dupack retransmit with a 3/4
   window decrease, and its go-back-N on RTO — because congestion
   avoidance is supposed to come from delay, not loss.  ECN marks are
   ignored for the same reason: the standing-queue estimate already sees
   the queue the marks advertise.

   The sender is ack-clocked (window-based), so it needs no pacer; the
   BBR-style sender in [Bbr] is the rate-paced one. *)

module Log = (val Logs.src_log (Logs.Src.create "cc.vegas") : Logs.LOG)

type config = {
  alpha : float; (* grow while the standing queue is below this (pkts) *)
  beta : float; (* shrink once it exceeds this (pkts) *)
  gamma : float; (* leave slow start once diff exceeds this (pkts) *)
  pkt_size : int;
  initial_window : float;
  max_window : float;
  base_rtt_window : float; (* base-RTT aging horizon, seconds *)
}

let default_config =
  {
    alpha = 2.;
    beta = 4.;
    gamma = 1.;
    pkt_size = 1000;
    initial_window = 2.;
    max_window = 10000.;
    base_rtt_window = 10.;
  }

type t = {
  cfg : config;
  r : Reliable.t;  (* sequence space, RTT/RTO, counters, sink *)
  (* window *)
  mutable cwnd : float;
  mutable in_slow_start : bool;
  mutable ss_grow : bool; (* slow start doubles every *other* RTT *)
  (* RTT measurement: send time per (first-transmission) sequence *)
  send_times : (int, float) Hashtbl.t;
  (* per-RTT epoch, min-filtered *)
  mutable epoch_end : int; (* decide when snd_una passes this *)
  mutable epoch_min_rtt : float;
  mutable epoch_samples : int;
  (* base-RTT aging: two rotating half-window minima *)
  mutable base_cur : float;
  mutable base_prev : float;
  mutable base_rotate_at : float;
  (* diagnostics *)
  mutable last_diff : float;
}

(* Karn: a retransmitted sequence can never yield an unambiguous
   sample. *)
let transmit t ~seq =
  if Reliable.transmit t.r ~seq then Hashtbl.remove t.send_times seq
  else Hashtbl.replace t.send_times seq (Engine.Sim.now t.r.sim)

let send_next t =
  transmit t ~seq:t.r.snd_nxt;
  t.r.snd_nxt <- t.r.snd_nxt + 1

let try_send t =
  if t.r.running then begin
    while
      float_of_int (Reliable.inflight t.r) < Float.floor t.cwnd
      && not t.r.in_recovery
    do
      send_next t
    done;
    Reliable.ensure_rto t.r
  end

let base_rtt t = Float.min t.base_cur t.base_prev

let rotate_base t =
  let now = Engine.Sim.now t.r.sim in
  if now >= t.base_rotate_at then begin
    t.base_prev <- t.base_cur;
    t.base_cur <- infinity;
    t.base_rotate_at <- now +. (t.cfg.base_rtt_window /. 2.)
  end

(* Every newly cum-acked first transmission yields a sample; the epoch
   keeps only the minimum (ack-compression noise filter), base_rtt keeps
   the windowed minimum, srtt/rttvar feed the RTO. *)
let sample_rtts t ~old_una ~cum =
  let now = Engine.Sim.now t.r.sim in
  for seq = old_una to cum - 1 do
    match Hashtbl.find_opt t.send_times seq with
    | None -> ()
    | Some sent_at ->
      Hashtbl.remove t.send_times seq;
      let sample = now -. sent_at in
      if t.epoch_samples = 0 || sample < t.epoch_min_rtt then
        t.epoch_min_rtt <- sample;
      t.epoch_samples <- t.epoch_samples + 1;
      if sample < t.base_cur then t.base_cur <- sample;
      Reliable.rtt_sample t.r sample
  done

(* Once-per-RTT window decision at the epoch boundary. *)
let vegas_update t =
  rotate_base t;
  if t.epoch_samples > 0 && Float.is_finite (base_rtt t) then begin
    let rtt = t.epoch_min_rtt in
    (* Samples feed the base filter first, so base <= rtt always; the min
       guards the instant right after a bucket rotation. *)
    let base = Float.min (base_rtt t) rtt in
    let diff = t.cwnd *. (rtt -. base) /. rtt in
    t.last_diff <- diff;
    if t.in_slow_start then begin
      if diff > t.cfg.gamma then begin
        (* A standing queue has formed: drain it and switch to the linear
           regime. *)
        t.in_slow_start <- false;
        t.cwnd <- Float.max 2. (t.cwnd *. base /. rtt)
      end
      else begin
        if t.ss_grow then t.cwnd <- Float.min t.cfg.max_window (t.cwnd *. 2.);
        t.ss_grow <- not t.ss_grow
      end
    end
    else if diff < t.cfg.alpha then
      t.cwnd <- Float.min t.cfg.max_window (t.cwnd +. 1.)
    else if diff > t.cfg.beta then t.cwnd <- Float.max 2. (t.cwnd -. 1.);
    Log.debug (fun m ->
        m "t=%.3f flow=%d vegas: rtt=%.4f base=%.4f diff=%.2f cwnd=%.1f%s"
          (Engine.Sim.now t.r.sim) t.r.flow_id rtt base diff t.cwnd
          (if t.in_slow_start then " (ss)" else ""))
  end;
  t.epoch_samples <- 0;
  t.epoch_min_rtt <- infinity;
  t.epoch_end <- t.r.snd_nxt

(* The core has counted the timeout, doubled the backoff and rewound. *)
let on_rto t =
  t.cwnd <- 2.;
  t.in_slow_start <- true;
  t.ss_grow <- false;
  send_next t;
  t.epoch_samples <- 0;
  t.epoch_min_rtt <- infinity;
  t.epoch_end <- t.r.snd_nxt;
  Reliable.restart_rto t.r

let on_new_ack t cum =
  sample_rtts t ~old_una:t.r.snd_una ~cum;
  (match Reliable.new_ack t.r cum with
  | Reliable.Partial ->
    (* Partial ack during recovery: the next hole is lost too. *)
    transmit t ~seq:t.r.snd_una
  | Reliable.Open | Reliable.Full -> if cum >= t.epoch_end then vegas_update t);
  Reliable.restart_rto t.r;
  try_send t

let on_dup_ack t =
  if Reliable.dup_ack t.r then begin
    Reliable.enter_recovery t.r;
    (* Vegas's gentler-than-halving decrease. *)
    t.cwnd <- Float.max 2. (t.cwnd *. 0.75);
    t.in_slow_start <- false;
    transmit t ~seq:t.r.snd_una;
    Reliable.restart_rto t.r
  end

let handle_ack t pkt =
  (match Reliable.classify t.r pkt with
  | Reliable.New -> on_new_ack t (Reliable.cum_seq pkt)
  | Reliable.Dup -> on_dup_ack t
  | Reliable.Stale | Reliable.Ignore -> ());
  Reliable.release pkt

let create ~sim ~src ~dst ~flow cfg =
  if cfg.initial_window < 1. then invalid_arg "Vegas: initial_window";
  if cfg.alpha < 0. || cfg.beta < cfg.alpha then
    invalid_arg "Vegas: need 0 <= alpha <= beta";
  let r = Reliable.create ~sim ~src ~dst ~flow ~pkt_size:cfg.pkt_size () in
  let t =
    {
      cfg;
      r;
      cwnd = cfg.initial_window;
      in_slow_start = true;
      ss_grow = true;
      send_times = Hashtbl.create 64;
      epoch_end = 0;
      epoch_min_rtt = infinity;
      epoch_samples = 0;
      base_cur = infinity;
      base_prev = infinity;
      base_rotate_at = Engine.Sim.now sim +. (cfg.base_rtt_window /. 2.);
      last_diff = 0.;
    }
  in
  r.on_timeout <- (fun () -> on_rto t);
  Netsim.Node.attach src ~flow (handle_ack t);
  t

let start t =
  if not t.r.running then begin
    t.r.running <- true;
    t.epoch_end <- t.r.snd_nxt;
    try_send t
  end

let stop t = Reliable.stop t.r

let flow t =
  Reliable.flow t.r ~protocol:"VEGAS"
    ~start:(fun () -> start t)
    ~stop:(fun () -> stop t)
    ~current_rate:(fun () ->
      if t.r.rtt_valid && t.r.srtt > 0. then
        t.cwnd *. float_of_int t.cfg.pkt_size /. t.r.srtt
      else 0.)
    ~ff:None

let cwnd t = t.cwnd
let srtt t = t.r.srtt
let rto t = Reliable.rto t.r
let in_slow_start t = t.in_slow_start
let standing_queue t = t.last_diff
let base_rtt_estimate t = if Float.is_finite (base_rtt t) then base_rtt t else 0.
let timeouts t = t.r.timeouts
let fast_retransmits t = t.r.fast_rtx
