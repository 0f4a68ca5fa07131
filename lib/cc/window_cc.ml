let log_src =
  Logs.Src.create "slowcc.window_cc" ~doc:"Windowed congestion control events"

module Log = (val Logs.src_log log_src)

type rule = {
  name : string;
  increase : float -> float;
  decrease : float -> float;
}

let aimd ~a ~b =
  if a <= 0. || b <= 0. || b >= 1. then invalid_arg "Window_cc.aimd";
  {
    name = Printf.sprintf "aimd(a=%g,b=%g)" a b;
    increase = (fun _ -> a);
    decrease = (fun w -> (1. -. b) *. w);
  }

let tcp_compatible_aimd ~b =
  let a = 4. *. ((2. *. b) -. (b *. b)) /. 3. in
  { (aimd ~a ~b) with name = Printf.sprintf "tcp(%g)" b }

let binomial ~k ~l ~a ~b =
  if a <= 0. || b <= 0. then invalid_arg "Window_cc.binomial";
  {
    name = Printf.sprintf "binomial(k=%g,l=%g,a=%g,b=%g)" k l a b;
    increase = (fun w -> a /. (w ** k));
    decrease = (fun w -> w -. (b *. (w ** l)));
  }

(* Deterministic steady-state sawtooth of [rule] at loss-event rate [p]:
   one loss event every 1/p packets.  A cycle starts at w0 = decrease(W),
   grows by increase(w) per RTT (the amount grow_window's per-ack
   increments sum to over one window of acks), and ends at peak W once
   the cycle has carried 1/p packets.  The peak is the fixed point of
   that map; iterate it.  For AIMD(1, 1/2) this reproduces the classic
   sqrt(3/(2p)) packets-per-RTT average (Analysis.Response_function's
   [pure_aimd]); for the binomial rules it is the paper's generalized
   sawtooth.  Returns (average packets per RTT, peak window), or [None]
   when [p] gives no finite cycle. *)
let sawtooth_model ~rule ~max_window ~p =
  if (not (Float.is_finite p)) || p <= 0. || p >= 1. then None
  else begin
    let target = 1. /. p in
    let cycle w_peak =
      let w = ref (Float.max 1. (rule.decrease w_peak)) in
      let pkts = ref 0. and rtts = ref 0 in
      while !pkts < target && !rtts < 1_000_000 do
        pkts := !pkts +. !w;
        incr rtts;
        w := Float.min max_window (!w +. Float.max 0. (rule.increase !w))
      done;
      (!w, !pkts, !rtts)
    in
    let w = ref 10. in
    (try
       for _ = 1 to 64 do
         let w', _, _ = cycle !w in
         if Float.abs (w' -. !w) <= 1e-9 *. Float.max 1. !w then begin
           w := w';
           raise Exit
         end;
         w := w'
       done
     with Exit -> ());
    let w_peak, pkts, rtts = cycle !w in
    if rtts = 0 then None else Some (pkts /. float_of_int rtts, w_peak)
  end

type variant = Reno | Tahoe

module IntSet = Set.Make (Int)

type config = {
  rule : rule;
  variant : variant;
  sack : bool;
  pkt_size : int;
  initial_window : float;
  initial_ssthresh : float option;
  max_window : float;
  min_rto : float;
  total_pkts : int option;
  react_to_ecn : bool;
  delayed_acks : bool;
  on_complete : (unit -> unit) option;
}

let default_config rule =
  {
    rule;
    variant = Reno;
    sack = false;
    pkt_size = 1000;
    initial_window = 2.;
    initial_ssthresh = None;
    max_window = 10000.;
    min_rto = 0.2;
    total_pkts = None;
    react_to_ecn = true;
    delayed_acks = false;
    on_complete = None;
  }

type t = {
  cfg : config;
  r : Reliable.t;  (* sequence space, RTT/RTO, counters, sink *)
  mutable finished : bool;
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable first_partial_done : bool;  (* NewReno "Impatient" timer rule *)
  mutable no_fastrtx_until : float;  (* quiet period after a timeout *)
  mutable ecn_guard : int;  (* no new ECN reduction until acked past this *)
  (* --- SACK scoreboard (cfg.sack only) --- *)
  mutable sacked : IntSet.t;  (* selectively acked seqs above snd_una *)
  mutable hole_rtx : IntSet.t;  (* holes retransmitted this recovery *)
  (* BSD-style RTT timing: one probe segment at a time, invalidated by any
     retransmission episode (Karn's algorithm).  Timing via cumulative
     acks of arbitrary segments would charge hole-recovery time to the
     path and blow up the estimate under heavy loss. *)
  mutable rtt_probe : (int * float) option;  (* seq, send time *)
  (* --- fluid fast-forward --- *)
  mutable ff_suspended : bool;
  mutable ff_delivered : int;  (* fluid pkts credited since suspend *)
}

(* Reno-style inflation: each dupack during fast recovery signals a packet
   that left the network, allowing one transmission.  Outside recovery
   dupacks never widen the window (duplicate data after a go-back-N
   retransmission would otherwise snowball). *)
let effective_window t =
  if t.r.in_recovery && not t.cfg.sack then
    t.cwnd +. float_of_int t.r.dupacks
  else t.cwnd
let inflight t = Reliable.inflight t.r

(* RFC 3517-style pipe estimate: selectively acked segments are no longer
   in the network. *)
let pipe t =
  if t.cfg.sack then inflight t - IntSet.cardinal t.sacked else inflight t

let transmit t ~seq =
  if Reliable.transmit t.r ~seq then begin
    (* Retransmission: never time it, and invalidate any probe it could
       overlap (Karn). *)
    match t.rtt_probe with
    | Some (probe_seq, _) when probe_seq >= seq -> t.rtt_probe <- None
    | Some _ | None -> ()
  end
  else if t.rtt_probe = None then
    t.rtt_probe <- Some (seq, Engine.Sim.now t.r.sim)

let send_next t =
  transmit t ~seq:t.r.snd_nxt;
  t.r.snd_nxt <- t.r.snd_nxt + 1

(* Merge the ack's SACK blocks into the scoreboard, pruning below the
   cumulative point. *)
let merge_sack t (pkt : Netsim.Packet.t) =
  (match pkt.Netsim.Packet.payload with
  | Netsim.Packet.Ack { sack; cum_seq = _ } ->
    List.iter
      (fun (lo, hi) ->
        for seq = lo to hi - 1 do
          if seq >= t.r.snd_una && seq < t.r.snd_nxt then
            t.sacked <- IntSet.add seq t.sacked
        done)
      sack
  | Netsim.Packet.Plain | Netsim.Packet.Rap_ack _ | Netsim.Packet.Tfrc_data _
  | Netsim.Packet.Tfrc_fb _ | Netsim.Packet.Tear_fb _ ->
    ());
  t.sacked <- IntSet.filter (fun seq -> seq >= t.r.snd_una) t.sacked

(* A hole is deemed lost when at least three selectively acked segments
   lie above it (the SACK analogue of three dupacks). *)
let next_lost_hole t =
  if IntSet.is_empty t.sacked then None
  else begin
    let above seq =
      IntSet.cardinal (IntSet.filter (fun x -> x > seq) t.sacked)
    in
    let rec scan seq =
      if seq >= t.r.snd_nxt then None
      else if IntSet.mem seq t.sacked then scan (seq + 1)
      else if IntSet.mem seq t.hole_rtx then scan (seq + 1)
      else if above seq >= 3 then Some seq
      else None
    in
    scan t.r.snd_una
  end

(* The core has counted the timeout, doubled the backoff and rewound to
   the first hole. *)
let on_rto t =
  Log.debug (fun m ->
      m "t=%.3f flow=%d rto: cwnd=%.1f backoff now %.0fx snd_una=%d"
        (Engine.Sim.now t.r.sim) t.r.flow_id t.cwnd t.r.backoff t.r.snd_una);
  t.ssthresh <- Float.max 2. (t.cfg.rule.decrease t.cwnd);
  t.cwnd <- 1.;
  t.sacked <- IntSet.empty;
  t.hole_rtx <- IntSet.empty;
  t.no_fastrtx_until <-
    Engine.Sim.now t.r.sim
    +. (if t.r.rtt_valid then t.r.srtt else t.cfg.min_rto);
  send_next t;
  Reliable.restart_rto t.r

let total_limit t =
  match t.cfg.total_pkts with Some n -> n | None -> max_int

let try_send t =
  if t.r.running then begin
    let limit = total_limit t in
    if t.cfg.sack then begin
      (* Fill the pipe: retransmit deemed-lost holes first, then new data. *)
      let progress = ref true in
      while !progress && float_of_int (pipe t) < Float.floor (effective_window t)
      do
        match next_lost_hole t with
        | Some hole ->
          transmit t ~seq:hole;
          t.hole_rtx <- IntSet.add hole t.hole_rtx
        | None ->
          if t.r.snd_nxt < limit then send_next t else progress := false
      done
    end
    else
      while
        t.r.snd_nxt < limit
        && float_of_int (inflight t) < Float.floor (effective_window t)
      do
        send_next t
      done;
    Reliable.ensure_rto t.r
  end

let sample_rtt t ~acked_up_to =
  match t.rtt_probe with
  | Some (seq, sent_at) when acked_up_to > seq ->
    t.rtt_probe <- None;
    Reliable.rtt_sample t.r (Engine.Sim.now t.r.sim -. sent_at)
  | Some _ | None -> ()

let grow_window t ~acked_pkts =
  for _ = 1 to acked_pkts do
    if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. 1.
    else t.cwnd <- t.cwnd +. (t.cfg.rule.increase t.cwnd /. t.cwnd)
  done;
  t.cwnd <- Float.min t.cwnd t.cfg.max_window

let congestion_decrease t =
  t.ssthresh <- Float.max 2. (t.cfg.rule.decrease t.cwnd);
  t.cwnd <- t.ssthresh

let complete t =
  if not t.finished then begin
    t.finished <- true;
    Reliable.stop t.r;
    match t.cfg.on_complete with Some f -> f () | None -> ()
  end

let enter_fast_recovery t =
  let r = t.r in
  Reliable.enter_recovery r;
  Log.debug (fun m ->
      m "t=%.3f flow=%d fast retransmit: cwnd=%.1f snd_una=%d"
        (Engine.Sim.now r.sim) r.flow_id t.cwnd r.snd_una);
  (match t.cfg.variant with
  | Reno ->
    t.first_partial_done <- false;
    t.hole_rtx <- IntSet.empty;
    congestion_decrease t;
    transmit t ~seq:r.snd_una
  | Tahoe ->
    (* Tahoe: retransmit, then slow-start from scratch. *)
    t.ssthresh <- Float.max 2. (t.cfg.rule.decrease t.cwnd);
    t.cwnd <- 1.;
    Reliable.go_back_n r;
    send_next t);
  Reliable.restart_rto r

let on_new_ack t cum =
  let r = t.r in
  let acked = cum - r.snd_una in
  sample_rtt t ~acked_up_to:cum;
  let progress = Reliable.new_ack r cum in
  if t.cfg.sack then begin
    t.sacked <- IntSet.filter (fun seq -> seq >= cum) t.sacked;
    t.hole_rtx <- IntSet.filter (fun seq -> seq >= cum) t.hole_rtx
  end;
  (match progress with
  | Reliable.Full ->
    (* Recovery over; window already set by the decrease. *)
    t.hole_rtx <- IntSet.empty;
    Reliable.restart_rto r
  | Reliable.Partial ->
    (* The next hole is lost too.  With SACK the scoreboard drives
       retransmissions from try_send; without it, retransmit the hole
       directly (NewReno).  Per NewReno's "Impatient" variant only the
       first partial ack restarts the retransmit timer, so recovery from a
       large loss burst ends in a timeout instead of dragging on for one
       hole per RTT. *)
    if not t.cfg.sack then transmit t ~seq:r.snd_una;
    r.dupacks <- max 0 (r.dupacks - acked);
    if not t.first_partial_done then begin
      t.first_partial_done <- true;
      Reliable.restart_rto r
    end
  | Reliable.Open ->
    grow_window t ~acked_pkts:acked;
    Reliable.restart_rto r);
  if r.snd_una >= total_limit t then complete t else try_send t

let on_dup_ack t =
  if Reliable.dup_ack t.r && Engine.Sim.now t.r.sim >= t.no_fastrtx_until then
    enter_fast_recovery t
  else try_send t

let on_ecn t =
  if t.cfg.react_to_ecn && t.r.snd_una > t.ecn_guard then begin
    congestion_decrease t;
    t.ecn_guard <- t.r.snd_nxt
  end

let handle_ack t (pkt : Netsim.Packet.t) =
  (match Reliable.classify t.r pkt with
  | Reliable.Ignore -> ()
  | kind -> (
    if t.cfg.sack then merge_sack t pkt;
    if pkt.Netsim.Packet.ecn then on_ecn t;
    match kind with
    | Reliable.New -> on_new_ack t (Reliable.cum_seq pkt)
    | Reliable.Dup -> on_dup_ack t
    | Reliable.Stale | Reliable.Ignore -> ()));
  Reliable.release pkt

let create ~sim ~src ~dst ~flow cfg =
  if cfg.initial_window < 1. then invalid_arg "Window_cc: initial_window";
  let r =
    Reliable.create ~min_rto:cfg.min_rto ~sack:cfg.sack
      ~delayed_acks:cfg.delayed_acks ~sim ~src ~dst ~flow
      ~pkt_size:cfg.pkt_size ()
  in
  let t =
    {
      cfg;
      r;
      finished = false;
      cwnd = cfg.initial_window;
      ssthresh =
        (match cfg.initial_ssthresh with
        | Some s -> s
        | None -> cfg.max_window);
      first_partial_done = false;
      no_fastrtx_until = 0.;
      ecn_guard = 0;
      sacked = IntSet.empty;
      hole_rtx = IntSet.empty;
      rtt_probe = None;
      ff_suspended = false;
      ff_delivered = 0;
    }
  in
  r.on_timeout <- (fun () -> on_rto t);
  Netsim.Node.attach src ~flow (handle_ack t);
  t

let start t =
  if not (t.r.running || t.finished) then begin
    t.r.running <- true;
    try_send t
  end

let stop t = Reliable.stop t.r

(* --- fluid fast-forward ------------------------------------------------ *)

(* Freeze the sender.  In-flight data drains to the sink (whose acks the
   non-running sender ignores and releases); the RTO must not fire while
   frozen.  Idempotent; a no-op unless the flow is actively running. *)
let ff_suspend t =
  if t.r.running && not t.ff_suspended then begin
    t.ff_suspended <- true;
    Reliable.stop t.r;
    t.rtt_probe <- None
  end

(* Fold fluid-model packets into the counters: [sent] offered to the
   path, [delivered] of them carried to the sink.  The seq frontier moves
   at resume, in one jump. *)
let ff_credit t ~sent ~delivered =
  if t.ff_suspended && sent >= 0 && delivered >= 0 then begin
    t.ff_delivered <- t.ff_delivered + delivered;
    Reliable.credit t.r ~sent ~delivered
  end

(* Analytic steady-state rate at loss-event rate [p], packets/s: the
   rule's sawtooth average over the flow's measured RTT.  0 until an RTT
   sample exists (the controller will not credit such a flow). *)
let ff_rate_pps t ~p =
  if t.r.rtt_valid && t.r.srtt > 0. then
    match sawtooth_model ~rule:t.cfg.rule ~max_window:t.cfg.max_window ~p with
    | Some (pkts_per_rtt, _) -> pkts_per_rtt /. t.r.srtt
    | None -> t.cwnd /. t.r.srtt  (* p = 0: keep the current window's rate *)
  else 0.

(* Thaw: re-seed exact packet-level state consistent with steady state at
   loss-event rate [p] and resume transmission.  The re-seed contract:
   the window is set to the sawtooth average (ssthresh to the
   post-decrease peak, as if a loss event had just ended a cycle); the
   seq/ack frontier jumps past everything ever transmitted plus the
   credited fluid packets, and the sink's receive frontier jumps with it,
   so the resumed exchange is hole-free; all loss-recovery machinery is
   cleared.  The bottleneck queue refills within the first RTT of
   resumed packet traffic. *)
let ff_resume t ~p =
  if t.ff_suspended then begin
    t.ff_suspended <- false;
    (match sawtooth_model ~rule:t.cfg.rule ~max_window:t.cfg.max_window ~p with
    | Some (avg, peak) when t.r.rtt_valid ->
      t.cwnd <- Float.min t.cfg.max_window (Float.max 1. avg);
      t.ssthresh <- Float.max 2. (t.cfg.rule.decrease peak)
    | Some _ | None -> ());
    let s = Reliable.jump t.r ~delivered:t.ff_delivered in
    t.ff_delivered <- 0;
    t.first_partial_done <- false;
    t.sacked <- IntSet.empty;
    t.hole_rtx <- IntSet.empty;
    t.rtt_probe <- None;
    t.ecn_guard <- s - 1;
    if not t.finished then begin
      t.r.running <- true;
      try_send t
    end
  end

(* Short transfers have a completion point the fluid model would blow
   through; only long-lived flows publish fast-forward hooks. *)
let ff_ops t =
  if t.cfg.total_pkts <> None then None
  else
    Some
      {
        Flow.ff_pkt_size = t.cfg.pkt_size;
        ff_rate_pps = (fun ~p -> ff_rate_pps t ~p);
        ff_suspend = (fun () -> ff_suspend t);
        ff_credit = (fun ~sent ~delivered -> ff_credit t ~sent ~delivered);
        ff_resume = (fun ~p -> ff_resume t ~p);
      }

(* --- state export/import ----------------------------------------------- *)

(* The slice of sender state the fast-forward re-seed contract covers;
   shared with [Flow_soa] so hybrid tests can compare the two engines
   field by field. *)
type state = {
  s_cwnd : float;
  s_ssthresh : float;
  s_snd_una : int;
  s_snd_nxt : int;
  s_high_water : int;
  s_srtt : float;
  s_rttvar : float;
  s_rtt_valid : bool;
  s_backoff : float;
}

let export_state t =
  {
    s_cwnd = t.cwnd;
    s_ssthresh = t.ssthresh;
    s_snd_una = t.r.snd_una;
    s_snd_nxt = t.r.snd_nxt;
    s_high_water = t.r.high_water;
    s_srtt = t.r.srtt;
    s_rttvar = t.r.rttvar;
    s_rtt_valid = t.r.rtt_valid;
    s_backoff = t.r.backoff;
  }

(* Import clears the transient loss-recovery machinery: an imported
   state is by definition between recovery episodes. *)
let import_state t s =
  let r = t.r in
  t.cwnd <- s.s_cwnd;
  t.ssthresh <- s.s_ssthresh;
  r.snd_una <- s.s_snd_una;
  r.snd_nxt <- s.s_snd_nxt;
  r.high_water <- s.s_high_water;
  r.srtt <- s.s_srtt;
  r.rttvar <- s.s_rttvar;
  r.rtt_valid <- s.s_rtt_valid;
  r.backoff <- s.s_backoff;
  Reliable.clear_recovery r;
  t.first_partial_done <- false;
  t.sacked <- IntSet.empty;
  t.hole_rtx <- IntSet.empty;
  t.rtt_probe <- None

let flow t =
  Reliable.flow t.r ~protocol:t.cfg.rule.name
    ~start:(fun () -> start t)
    ~stop:(fun () -> stop t)
    ~current_rate:(fun () ->
      if t.r.rtt_valid && t.r.srtt > 0. then
        t.cwnd *. float_of_int t.cfg.pkt_size /. t.r.srtt
      else 0.)
    ~ff:(ff_ops t)

let cwnd t = t.cwnd
let ssthresh t = t.ssthresh
let srtt t = t.r.srtt
let rto t = Reliable.rto t.r
let timeouts t = t.r.timeouts
let fast_retransmits t = t.r.fast_rtx
let retransmitted_pkts t = t.r.rtx_pkts
let finished t = t.finished
