(* Golden sender test: every reliable windowed sender (Window_cc in its
   Reno, SACK, Tahoe, ECN, finite-transfer and SQRT forms, BBR, Vegas)
   runs through one designed loss pattern that forces fast retransmits,
   NewReno partial acks and back-to-back timeouts.  Each case pins an MD5
   over the flow's [Flow.stats] counters plus [%.9f] of srtt and the RTO
   (final and largest seen), so any change to the shared loss-recovery
   machinery that moves a counter or the estimator shows up here.  [%.9f]
   keeps ulp-level srtt differences, which never reach a table, out of
   the pin. *)

type sender = {
  flow : Cc.Flow.t;
  rto : unit -> float;
  extra : unit -> string;  (* case-specific state folded into the pin *)
}

(* Clean for 1 s, a 1.5 s blackout (consecutive timeouts, so the backoff
   doubles), every 25th data packet lost for 2 s (several losses per
   window: partial acks), then every 40th for 3 s; the cycle repeats. *)
let pattern sim inner =
  Netsim.Loss_pattern.by_phase ~sim
    ~phases:[ (1.0, 0); (1.5, 1); (2.0, 25); (3.0, 40) ]
    inner

let dumbbell ?(queue = `Pattern) sim =
  let rng = Engine.Rng.create ~seed:11 in
  let queue =
    match queue with
    | `Pattern ->
      Netsim.Dumbbell.Custom
        (fun () -> pattern sim (Netsim.Droptail.make ~capacity:100))
    | `Red_ecn -> Netsim.Dumbbell.Red_ecn
  in
  Netsim.Dumbbell.create ~sim ~rng
    { (Netsim.Dumbbell.default_config ~bandwidth:10e6) with queue }

let window ?(cfg_of = Fun.id) ?(rule = Cc.Window_cc.tcp_compatible_aimd ~b:0.5)
    ?queue sim =
  let db = dumbbell ?queue sim in
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow = Netsim.Dumbbell.fresh_flow db in
  let done_at = ref Float.nan in
  let cfg =
    cfg_of
      {
        (Cc.Window_cc.default_config rule) with
        Cc.Window_cc.on_complete =
          Some (fun () -> done_at := Engine.Sim.now sim);
      }
  in
  let w = Cc.Window_cc.create ~sim ~src ~dst ~flow cfg in
  {
    flow = Cc.Window_cc.flow w;
    rto = (fun () -> Cc.Window_cc.rto w);
    extra =
      (fun () ->
        Printf.sprintf "cwnd=%.9f done=%.9f" (Cc.Window_cc.cwnd w) !done_at);
  }

let bbr sim =
  let db = dumbbell sim in
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow = Netsim.Dumbbell.fresh_flow db in
  let b = Cc.Bbr.create ~sim ~src ~dst ~flow Cc.Bbr.default_config in
  {
    flow = Cc.Bbr.flow b;
    rto = (fun () -> Cc.Bbr.rto b);
    extra = (fun () -> Printf.sprintf "mode=%s" (Cc.Bbr.mode b));
  }

let vegas sim =
  let db = dumbbell sim in
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow = Netsim.Dumbbell.fresh_flow db in
  let v = Cc.Vegas.create ~sim ~src ~dst ~flow Cc.Vegas.default_config in
  {
    flow = Cc.Vegas.flow v;
    rto = (fun () -> Cc.Vegas.rto v);
    extra = (fun () -> Printf.sprintf "cwnd=%.9f" (Cc.Vegas.cwnd v));
  }

let sqrt_rule =
  let a, b = Analysis.Binomial_calibration.sqrt_params ~gamma:256. () in
  Cc.Window_cc.binomial ~k:0.5 ~l:0.5 ~a ~b

let with_cfg f sim = window ~cfg_of:f sim
let on_red_ecn sim = window ~queue:`Red_ecn sim
let sqrt_flow sim = window ~rule:sqrt_rule sim

(* name, builder, whether the loss pattern applies (ECN runs on RED-ECN),
   pinned MD5 *)
let cases =
  let open Cc.Window_cc in
  [
    ("reno", with_cfg Fun.id, true, "f27394fb84dd39dd8d7fac6293698edc");
    ("sack", with_cfg (fun c -> { c with sack = true }),
     true, "ffefd8ab662bbfddde1b73c03abb9027");
    ("tahoe", with_cfg (fun c -> { c with variant = Tahoe }),
     true, "b211db1617af8e0b796b4cc759e3cd0d");
    ("ecn", on_red_ecn, false, "c73bb2c4768510d4aed301a6bd985dc4");
    ("transfer", with_cfg (fun c -> { c with total_pkts = Some 1000 }),
     true, "c73e63988a3a564ad8dbeaee4a898ad8");
    ("sqrt", sqrt_flow, true, "9d074ca334f87939a402eb000e84eadb");
    ("bbr", bbr, true, "66fb35228541152256d97b36ddef1775");
    ("vegas", vegas, true, "4ba8aa1fa435ce5545a8ef269bd6b09f");
  ]

let until = 20.

(* Run one case; return its pinned line and the largest RTO seen. *)
let run build =
  let sim = Engine.Sim.create () in
  let s = build sim in
  let max_rto = ref 0. in
  Engine.Sim.every sim ~interval:0.01 ~stop:until (fun () ->
      max_rto := Float.max !max_rto (s.rto ()));
  s.flow.Cc.Flow.start ();
  Engine.Sim.run ~until sim;
  let st = s.flow.Cc.Flow.stats () in
  let line =
    Printf.sprintf
      "sent=%d sent_b=%.0f dlv_b=%.0f rtx=%d to=%d frtx=%d srtt=%.9f rto=%.9f \
       max_rto=%.9f %s"
      st.Cc.Flow.sent_pkts st.Cc.Flow.sent_bytes st.Cc.Flow.delivered_bytes
      st.Cc.Flow.rtx_pkts st.Cc.Flow.timeouts st.Cc.Flow.fast_rtx
      st.Cc.Flow.stat_srtt (s.rto ()) !max_rto (s.extra ())
  in
  (line, st, !max_rto)

let test_case (name, build, lossy, pinned) =
  Alcotest.test_case name `Quick (fun () ->
      let line, st, max_rto = run build in
      if lossy then begin
        (* The pattern must exercise what the pin is meant to guard. *)
        Alcotest.(check bool) (name ^ ": fast retransmits") true
          (st.Cc.Flow.fast_rtx > 0);
        Alcotest.(check bool) (name ^ ": repeated timeouts") true
          (st.Cc.Flow.timeouts >= 2);
        Alcotest.(check bool)
          (Printf.sprintf "%s: backoff reached 4x (max rto %.3f)" name max_rto)
          true (max_rto >= 0.8)
      end;
      Alcotest.(check string) (name ^ ": " ^ line) pinned
        (Digest.to_hex (Digest.string line)))

let suite = List.map test_case cases
