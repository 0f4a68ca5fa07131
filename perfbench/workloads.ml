(* The three benchmark workloads, built from the simulator's public API
   so the harness owns [Engine.Sim.run] and can advance time in slices.

   Every input that varies with the workload seed (flow start times and
   the simulator's own RNG seed) is generated here from [seed]; the
   simulator receives only those generated values. *)

open Slowcc

type flow = {
  family : string;  (** "tcp", "sqrt", ... ; "rev" and "cbr" are not CC *)
  flow : Cc.Flow.t;
}

type t = {
  name : string;
  sim : Engine.Sim.t;
  links : Netsim.Link.t list;
  bottleneck : Netsim.Link.t;
  flows : flow list;  (** every per-object flow, forward and reverse *)
  soa : Cc.Flow_soa.t option;
  fluid : Fluid.t option;
  hosts : Netsim.Node.t list;  (** host nodes the harness created *)
  horizon : float;  (** simulated seconds the run covers *)
  slice : float;  (** simulated seconds between reference-kernel calls *)
  phase : unit -> string;  (** scenario phase at the current clock *)
  inputs : (string * string) list;  (** stated input size *)
  setup : (string * float) list;  (** wall seconds of each set-up call *)
}

let names = [ "restart"; "manyflow"; "hybrid" ]

(* Times each set-up call; [spans] keeps them in call order. *)
let timed spans name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  spans := (name, Unix.gettimeofday () -. t0) :: !spans;
  r

(* Start offsets in [0, 2) s, drawn from the workload seed. *)
let start_offsets ~seed n =
  let st = Random.State.make [| seed; 0x51C0 |] in
  List.init n (fun _ -> Random.State.float st 2.)

(* A forward flow of [protocol] on a fresh host pair, wired exactly as
   [Protocol.spawn] wires it but keeping the hosts, whose discard
   counters the benchmark reads. *)
let spawn env protocol =
  let db = env.Scenarios.db in
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow = Netsim.Dumbbell.fresh_flow db in
  ( Protocol.spawn_between protocol ~sim:env.Scenarios.sim ~src ~dst ~flow,
    [ src; dst ] )

let make_cbr env ~rate =
  let db = env.Scenarios.db in
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow = Netsim.Dumbbell.fresh_flow db in
  let cbr =
    Cc.Cbr.create ~sim:env.Scenarios.sim ~src ~dst ~flow ~rate ~pkt_size:1000
  in
  (cbr, [ src; dst ])

let spawn_groups env spans ~seed groups =
  let spawned =
    timed spans "spawn" (fun () ->
        List.concat_map
          (fun (family, protocol, count) ->
            List.init count (fun _ ->
                let f, hosts = spawn env protocol in
                ({ family; flow = f }, hosts)))
          groups)
  in
  let flows = List.map fst spawned in
  List.iter2
    (fun { flow; _ } at -> Engine.Sim.at env.Scenarios.sim at flow.Cc.Flow.start)
    flows
    (start_offsets ~seed (List.length flows));
  (flows, List.concat_map snd spawned)

let sqrt_gamma = 256.

(* SQRT calibration is memoised inside [Protocol]; the benchmark calls it
   directly so every set-up pays for it, as a fresh process does. *)
let calibrate spans =
  timed spans "calibration" (fun () ->
      ignore
        (Sys.opaque_identity
           (Analysis.Binomial_calibration.sqrt_params ~gamma:sqrt_gamma ())))

let finish ~name ~sim ~db ~spans ~flows ~soa ~fluid ~hosts ~horizon ~slice
    ~phase ~inputs =
  {
    name;
    sim;
    links = Netsim.Dumbbell.links db;
    bottleneck = Netsim.Dumbbell.bottleneck db;
    flows;
    soa;
    fluid;
    hosts;
    horizon;
    slice;
    phase;
    inputs;
    setup = List.rev !spans;
  }

let reverse_flows env spans =
  timed spans "reverse" (fun () -> Scenarios.add_reverse_traffic env ~n:2)
  |> List.map (fun f -> { family = "rev"; flow = f })

(* ------------------------------------------------------------------ *)
(* restart: Figs 3-5 CBR restart with a mixed-family forward load      *)
(* ------------------------------------------------------------------ *)

let restart_bandwidth = 60e6
let restart_horizon = 230.

let restart_groups =
  [
    ("tcp", Protocol.tcp ~gamma:2., 4);
    ("sqrt", Protocol.sqrt_ ~gamma:sqrt_gamma, 4);
    ("rap", Protocol.rap ~gamma:256., 3);
    ("tfrc", Protocol.tfrc ~conservative:true ~k:256 (), 3);
    ("bbr", Protocol.bbr, 3);
    ("vegas", Protocol.vegas (), 3);
  ]

let restart ~seed =
  let spans = ref [] in
  calibrate spans;
  let env =
    timed spans "env" (fun () ->
        Scenarios.make_env ~seed ~bandwidth:restart_bandwidth ())
  in
  let flows, hosts = spawn_groups env spans ~seed restart_groups in
  let rev = reverse_flows env spans in
  let cbr, cbr_hosts =
    timed spans "cbr" (fun () -> make_cbr env ~rate:(restart_bandwidth /. 2.))
  in
  let cbr_flow = Cc.Cbr.flow cbr in
  let sim = env.Scenarios.sim in
  Engine.Sim.at sim 0. cbr_flow.Cc.Flow.start;
  Engine.Sim.at sim 150. cbr_flow.Cc.Flow.stop;
  Engine.Sim.at sim 180. cbr_flow.Cc.Flow.start;
  let phase () =
    let t = Engine.Sim.now sim in
    if t < 150. then "cbr_on" else if t < 180. then "cbr_off" else "cbr_restart"
  in
  let flows = flows @ rev @ [ { family = "cbr"; flow = cbr_flow } ] in
  finish ~name:"restart" ~sim ~db:env.Scenarios.db ~spans ~flows ~soa:None
    ~fluid:None ~hosts:(hosts @ cbr_hosts) ~horizon:restart_horizon ~slice:1.0
    ~phase
    ~inputs:
      [
        ("flows", string_of_int (List.length flows));
        ("bandwidth_bps", Printf.sprintf "%.0f" restart_bandwidth);
        ("sim_s", Printf.sprintf "%g" restart_horizon);
      ]

(* ------------------------------------------------------------------ *)
(* manyflow: 10^5 struct-of-arrays TCP flows at a 16 kb/s fair share    *)
(* ------------------------------------------------------------------ *)

let manyflow_n = 100_000
let manyflow_horizon = 3.

let manyflow_params ~seed =
  {
    (Manyflow.default_params ~n:manyflow_n) with
    Manyflow.duration = manyflow_horizon;
    seed;
  }

let manyflow ~seed =
  let spans = ref [] in
  let p = manyflow_params ~seed in
  let b = timed spans "soa_build" (fun () -> Manyflow.build_soa p) in
  finish ~name:"manyflow" ~sim:b.Manyflow.sim ~db:b.Manyflow.db ~spans
    ~flows:[] ~soa:(Some b.Manyflow.eng) ~fluid:None ~hosts:[]
    ~horizon:manyflow_horizon ~slice:0.1
    ~phase:(fun () -> "steady")
    ~inputs:
      [
        ("flows", string_of_int manyflow_n);
        ("bandwidth_bps", Printf.sprintf "%.0f" p.Manyflow.bandwidth);
        ("sim_s", Printf.sprintf "%g" manyflow_horizon);
      ]

(* ------------------------------------------------------------------ *)
(* hybrid: Figs 7-9 square wave, fast-forward on                       *)
(* ------------------------------------------------------------------ *)

let hybrid_bandwidth = 15e6
let hybrid_period = 120.
let hybrid_warmup = 20.
let hybrid_periods = 30
let hybrid_horizon = hybrid_warmup +. (hybrid_period *. float_of_int hybrid_periods)
let hybrid_cbr_fraction = 2. /. 3.

let hybrid_groups =
  [ ("tcp", Protocol.tcp ~gamma:2., 5); ("tfrc", Protocol.tfrc ~k:6 (), 5) ]

(* CBR edges of the square wave: on at warmup + k*period, off half a
   period later. *)
let hybrid_edges =
  List.concat
    (List.init hybrid_periods (fun k ->
         let t = hybrid_warmup +. (hybrid_period *. float_of_int k) in
         [ t; t +. (hybrid_period /. 2.) ]))

let hybrid ~seed ~ff =
  let spans = ref [] in
  let env =
    timed spans "env" (fun () ->
        Scenarios.make_env ~seed ~bandwidth:hybrid_bandwidth ())
  in
  let flows, hosts = spawn_groups env spans ~seed hybrid_groups in
  let rev = reverse_flows env spans in
  let peak = hybrid_cbr_fraction *. hybrid_bandwidth in
  let cbr, cbr_hosts = timed spans "cbr" (fun () -> make_cbr env ~rate:peak) in
  let cbr_flow = Cc.Cbr.flow cbr in
  let sim = env.Scenarios.sim in
  List.iteri
    (fun i t ->
      Engine.Sim.at sim t
        (if i mod 2 = 0 then cbr_flow.Cc.Flow.start else cbr_flow.Cc.Flow.stop))
    hybrid_edges;
  let fluid =
    if ff then
      Some
        (timed spans "fluid" (fun () ->
             Fluid.create ~sim
               ~link:(Netsim.Dumbbell.bottleneck env.Scenarios.db)
               ~flows:(cbr_flow :: List.map (fun f -> f.flow) flows)
               ~aux:(List.map (fun f -> f.flow) rev)
               ~transients:hybrid_edges ()))
    else None
  in
  let phase () =
    match fluid with
    | Some f when Fluid.armed f -> "ff_frozen"
    | _ -> "ff_packet"
  in
  let flows = flows @ rev @ [ { family = "cbr"; flow = cbr_flow } ] in
  finish ~name:"hybrid" ~sim ~db:env.Scenarios.db ~spans ~flows ~soa:None
    ~fluid ~hosts:(hosts @ cbr_hosts) ~horizon:hybrid_horizon ~slice:10.0 ~phase
    ~inputs:
      [
        ("flows", string_of_int (List.length flows));
        ("bandwidth_bps", Printf.sprintf "%.0f" hybrid_bandwidth);
        ("sim_s", Printf.sprintf "%g" hybrid_horizon);
      ]

(* Share of the bottleneck capacity the CBR left over that the other
   flows used, over the whole run: the quantity [ff.util_err] compares
   between a hybrid run and a pure packet run. *)
let utilization w =
  let cbr_bits =
    List.fold_left
      (fun acc f ->
        if f.family = "cbr" then acc +. (8. *. f.flow.Cc.Flow.bytes_delivered ())
        else acc)
      0. w.flows
  in
  let capacity = Netsim.Link.bandwidth w.bottleneck *. w.horizon in
  ((8. *. Netsim.Link.bytes_out w.bottleneck) -. cbr_bits)
  /. (capacity -. cbr_bits)

let build ~seed = function
  | "restart" -> restart ~seed
  | "manyflow" -> manyflow ~seed
  | "hybrid" -> hybrid ~seed ~ff:true
  | w -> invalid_arg ("unknown workload " ^ w)
