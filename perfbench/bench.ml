(* Benchmark harness: builds one workload through the simulator's public
   API, advances it in slices with the reference kernel interleaved,
   digests and checks its outputs, and prints every metric by name and
   unit.  The last line of standard output is one JSON object.

     bench.exe --workload restart|manyflow|hybrid --seed N --seconds S
               --trace 0|1
     bench.exe --self-test

   [--trace 0] reports the end-to-end metrics; [--trace 1] makes one
   untraced and one traced repetition and reports the per-layer ones.
   See README.md for what each metric should move. *)

open Workloads

let now = Unix.gettimeofday

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nominal wall seconds one repetition takes on the machine the
   benchmark was sized on (2-core x86 VM); [--seconds] is divided by it
   to fix the number of repetitions, so the work a run does depends on
   its arguments only, never on the speed of the machine. *)
let rep_seconds = function
  | "restart" -> 5.5
  | "manyflow" -> 2.
  | "hybrid" -> 2.5
  | w -> invalid_arg w

(* Set-up is short next to a repetition, so it is also repeated on its
   own to give its median enough samples. *)
let min_setups = 31

(* ------------------------------------------------------------------ *)
(* One repetition                                                       *)
(* ------------------------------------------------------------------ *)

(* A traced run slice: its phase, wall and GC seconds, and the events and
   minor words it processed. *)
type slice = {
  phase : string;
  wall : float;
  gc : float;
  events : int;
  words : float;
}

type rep = {
  horizon : float;
  inputs : string;  (** stated input size *)
  counts : string;  (** exact counts, compared across processes *)
  setup_s : float;  (** start of the build to the first simulated event *)
  run_s : float;  (** wall seconds inside [Engine.Sim.run] *)
  ref_s : float;  (** wall seconds inside the reference kernel *)
  ref_ns : float array;  (** ns/iter of each interleaved kernel call *)
  ref_warm_ns : float array;
      (** traced repetitions only: ns/iter of a second call made right
          after each interleaved one, with the kernel's data warm *)
  minor_words : float;  (** allocated inside [Engine.Sim.run] *)
  major_collections : int;
  reduce_s : float;
  digest : string;
  failures : string list;
  wall : float;  (** the whole repetition *)
  slices : slice list;  (** traced repetitions only *)
  gc_setup : float;
  gc_reduce : float;
}

(* Uid-free digest of everything the run produced, plus the output
   invariants every seed must satisfy. *)
let reduce (w : Workloads.t) =
  let b = Buffer.create 65536 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  Printf.bprintf b "%s now=%h events=%d\n" w.name (Engine.Sim.now w.sim)
    (Engine.Sim.events_processed w.sim);
  List.iteri
    (fun i l ->
      Printf.bprintf b "link %d arr=%d drop=%d dep=%d dlv=%d bytes=%h\n" i
        (Netsim.Link.arrivals l) (Netsim.Link.drops l)
        (Netsim.Link.departures l) (Netsim.Link.delivered l)
        (Netsim.Link.bytes_out l);
      try Netsim.Link.check_conservation l
      with Engine.Audit.Violation m -> fail "link %d: %s" i m)
    w.links;
  List.iter
    (fun { family; flow } ->
      let s = flow.Cc.Flow.stats () in
      Printf.bprintf b "flow %d %s sent=%d sb=%h db=%h rtx=%d to=%d frtx=%d\n"
        flow.Cc.Flow.id family s.Cc.Flow.sent_pkts s.Cc.Flow.sent_bytes
        s.Cc.Flow.delivered_bytes s.Cc.Flow.rtx_pkts s.Cc.Flow.timeouts
        s.Cc.Flow.fast_rtx;
      if s.Cc.Flow.delivered_bytes > s.Cc.Flow.sent_bytes then
        fail "flow %d delivered %g > sent %g" flow.Cc.Flow.id
          s.Cc.Flow.delivered_bytes s.Cc.Flow.sent_bytes)
    w.flows;
  Option.iter
    (fun e ->
      for i = 0 to Cc.Flow_soa.n e - 1 do
        let sent = Cc.Flow_soa.bytes_sent e i
        and dlv = Cc.Flow_soa.bytes_delivered e i in
        Printf.bprintf b "soa %d %d %h %d %h %d %d %d\n" i
          (Cc.Flow_soa.pkts_sent e i) sent
          (Cc.Flow_soa.delivered_pkts e i)
          dlv
          (Cc.Flow_soa.retransmitted_pkts e i)
          (Cc.Flow_soa.timeouts e i)
          (Cc.Flow_soa.fast_retransmits e i);
        if dlv > sent then fail "soa flow %d delivered %g > sent %g" i dlv sent
      done)
    w.soa;
  Option.iter
    (fun f ->
      Printf.bprintf b "ff entries=%d exits=%d skipped=%h\n"
        (Slowcc.Fluid.entries f) (Slowcc.Fluid.exits f)
        (Slowcc.Fluid.skipped_sim_seconds f))
    w.fluid;
  (Digest.to_hex (Digest.string (Buffer.contents b)), List.rev !failures)

let inputs_line (w : Workloads.t) =
  Printf.sprintf "%s events=%d"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) w.inputs))
    (Engine.Sim.events_processed w.sim)

let counts_line (w : Workloads.t) ~minor_words ~major_collections ~digest =
  let ff =
    match w.fluid with
    | None -> "ff=none"
    | Some f ->
      Printf.sprintf "ff_entries=%d ff_exits=%d ff_skipped=%h"
        (Slowcc.Fluid.entries f) (Slowcc.Fluid.exits f)
        (Slowcc.Fluid.skipped_sim_seconds f)
  in
  Printf.sprintf "events=%d minor_words=%.0f major=%d %s digest=%s"
    (Engine.Sim.events_processed w.sim)
    minor_words major_collections ff digest

(* Build, run in slices with the kernel between them, reduce.  With
   [slice = None] the workload's own slice length is used; the self-test
   passes the horizon to run it in one [Engine.Sim.run]. *)
let run_rep ?slice ?(traced = false) ~build () =
  let gc () = if traced then Gcbusy.poll () else 0. in
  let g0 = gc () in
  let t0 = now () in
  let w = build () in
  let setup_s = now () -. t0 in
  let g1 = gc () in
  let slice_len = Option.value slice ~default:w.slice in
  let n = int_of_float (Float.ceil ((w.horizon /. slice_len) -. 1e-9)) in
  let ref_ns = Array.make n 0. in
  let ref_warm_ns = Array.make (if traced then n else 0) 0. in
  let run_s = ref 0. and ref_s = ref 0. and minor = ref 0. in
  let slices = ref [] and g_prev = ref g1 in
  let maj0 = (Gc.quick_stat ()).Gc.major_collections in
  for k = 1 to n do
    let until = Float.min w.horizon (float_of_int k *. slice_len) in
    let phase = w.phase () in
    let e0 = Engine.Sim.events_processed w.sim in
    let m0 = Gc.minor_words () in
    let s0 = now () in
    Engine.Sim.run ~until w.sim;
    let d = now () -. s0 in
    let words = Gc.minor_words () -. m0 in
    minor := !minor +. words;
    run_s := !run_s +. d;
    if traced then begin
      let g = gc () in
      let events = Engine.Sim.events_processed w.sim - e0 in
      slices := { phase; wall = d; gc = g -. !g_prev; events; words } :: !slices;
      g_prev := g
    end;
    let r = Refkernel.timed () in
    ref_s := !ref_s +. r;
    ref_ns.(k - 1) <- Refkernel.ns_per_iter r;
    if traced then ref_warm_ns.(k - 1) <- Refkernel.ns_per_iter (Refkernel.timed ())
  done;
  let maj1 = (Gc.quick_stat ()).Gc.major_collections in
  let g2 = gc () in
  let r0 = now () in
  let digest, failures = reduce w in
  let reduce_s = now () -. r0 in
  let g3 = gc () in
  ( {
    horizon = w.horizon;
    inputs = inputs_line w;
    counts =
      counts_line w ~minor_words:!minor ~major_collections:(maj1 - maj0) ~digest;
    setup_s;
    run_s = !run_s;
    ref_s = !ref_s;
    ref_ns;
    ref_warm_ns;
    minor_words = !minor;
    major_collections = maj1 - maj0;
    reduce_s;
    digest;
    failures;
    wall = now () -. t0;
    slices = List.rev !slices;
    gc_setup = g1 -. g0;
    gc_reduce = g3 -. g2;
  },
    w )

(* Simulated seconds per reference second: the run's wall time converted
   to reference seconds with the interleaved kernel's nominal-to-measured
   ratio, so machine drift felt by both cancels.  The kernel's median
   call stands for the run, so one call hit by an interrupt does not. *)
let sim_s_per_ref_s r =
  r.horizon
  /. (r.run_s *. Refkernel.nominal_ns_per_iter /. median r.ref_ns)

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "%-32s %.6g %s\n" x.name x.value x.unit_)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let print_inputs ~workload ~seed (r : rep) =
  Printf.printf "inputs: workload=%s seed=%d %s\n" workload seed r.inputs

let print_counts (r : rep) = Printf.printf "counts: %s\n" r.counts

let check_pinned ~workload ~seed (r : rep) =
  match Pinned.lookup ~workload ~seed with
  | Some d when d <> r.digest ->
    [ Printf.sprintf "digest %s differs from pinned %s" r.digest d ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics                                     *)
(* ------------------------------------------------------------------ *)

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let run_untraced ~workload ~seed ~seconds ~guard_failures =
  let build () = Workloads.build ~seed workload in
  let reps = max 1 (int_of_float (Float.round (seconds /. rep_seconds workload))) in
  let setups =
    Array.init (max 0 (min_setups - reps)) (fun _ ->
        let t0 = now () in
        ignore (Sys.opaque_identity (build ()));
        let d = now () -. t0 in
        Gc.compact ();
        d)
  in
  let results =
    List.init reps (fun _ ->
        let r, _ = run_rep ~build () in
        Gc.compact ();
        r)
  in
  let r0 = List.hd results in
  print_inputs ~workload ~seed r0;
  List.iter (Printf.printf "FAILED: %s\n") guard_failures;
  let failed = ref 0 in
  List.iteri
    (fun i r ->
      let failures =
        r.failures @ check_pinned ~workload ~seed r
        @ if r.digest <> r0.digest then [ "digest differs between repetitions" ]
          else []
      in
      if failures <> [] then incr failed;
      List.iter (Printf.printf "rep %d FAILED: %s\n" i) failures;
      Printf.printf
        "rep %d: setup %.4f s, run %.4f s, ref %.3f ns/iter, %.4g sim_s/ref_s\n"
        i r.setup_s r.run_s (median r.ref_ns) (sim_s_per_ref_s r);
      print_counts r)
    results;
  let per f = Array.of_list (List.map f results) in
  let setup_samples = Array.append setups (per (fun r -> r.setup_s)) in
  let ref_ns = median (Array.concat (List.map (fun r -> r.ref_ns) results)) in
  Printf.printf "ref.ns_per_iter %.4f (median per call)\n" ref_ns;
  Printf.printf "run.wall_s %.4f (median, not gated)\n" (median (per (fun r -> r.run_s)));
  print_result
    ~correct:(!failed = 0 && guard_failures = [])
    ~attempted:reps ~failed:!failed
    [
      m "setup_s" "s" (median setup_samples);
      m "sim_s_per_ref_s" "sim_s/ref_s" (median (per sim_s_per_ref_s));
      m "peak_heap_mb" "MB" (top_heap_mb ());
    ]

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                        *)
(* ------------------------------------------------------------------ *)

let families = [ "tcp"; "sqrt"; "rap"; "tfrc"; "bbr"; "vegas" ]
let phases = [ "cbr_on"; "cbr_off"; "cbr_restart"; "steady"; "ff_packet"; "ff_frozen" ]

(* Live bytes per flow that [Manyflow.build_soa] adds, measured between
   compactions; 0 for the per-object workloads. *)
let soa_state_bytes_per_flow ~seed workload =
  if workload <> "manyflow" then 0.
  else begin
    Gc.compact ();
    let live0 = (Gc.stat ()).Gc.live_words in
    let w = Workloads.build ~seed workload in
    Gc.compact ();
    let live1 = (Gc.stat ()).Gc.live_words in
    ignore (Sys.opaque_identity w);
    float_of_int ((live1 - live0) * (Sys.word_size / 8))
    /. float_of_int Workloads.manyflow_n
  end

(* The interleaved kernel's time over the same kernel's time with its data
   warm, paired call by call so machine drift cancels: above 1 when the
   preceding simulation slice slows the kernel down. *)
let interleave_ratio t = median t.ref_ns /. median t.ref_warm_ns

let layer_metrics ~state_bytes ~util_err ~(untraced : rep)
    (t : rep) (w : Workloads.t) =
  let fi = float_of_int in
  let events = fi (Engine.Sim.events_processed w.sim) in
  let per_event x = if events > 0. then x /. events else 0. in
  let run_ns = t.run_s *. 1e9 in
  let bl = w.bottleneck in
  let sum_slices f = List.fold_left (fun a s -> a +. f s) 0. t.slices in
  let gc_run = sum_slices (fun s -> s.gc) in
  let stats fam =
    List.filter_map
      (fun f -> if f.family = fam then Some (f.flow.Cc.Flow.stats ()) else None)
      w.flows
  in
  let sum fam g = fi (List.fold_left (fun a s -> a + g s) 0 (stats fam)) in
  let cc =
    List.concat_map
      (fun fam ->
        let c name g = m (Printf.sprintf "cc.%s.%s" fam name) "count" (sum fam g) in
        [
          c "sent_pkts" (fun s -> s.Cc.Flow.sent_pkts);
          c "rtx_pkts" (fun s -> s.Cc.Flow.rtx_pkts);
          c "timeouts" (fun s -> s.Cc.Flow.timeouts);
          c "fast_rtx" (fun s -> s.Cc.Flow.fast_rtx);
        ])
      families
  in
  let cc_stats = List.concat_map stats families in
  let bytes g = List.fold_left (fun a s -> a +. g s) 0. cc_stats in
  let sent = bytes (fun s -> s.Cc.Flow.sent_bytes) in
  let goodput =
    if sent > 0. then bytes (fun s -> s.Cc.Flow.delivered_bytes) /. sent else 0.
  in
  let phase_self p =
    sum_slices (fun s -> if s.phase = p then s.wall -. s.gc else 0.)
  in
  let ff_count f = match w.fluid with Some x -> fi (f x) | None -> 0. in
  let skipped =
    match w.fluid with Some x -> Slowcc.Fluid.skipped_sim_seconds x | None -> 0.
  in
  let soa_metric f = match w.soa with Some e -> fi (f e) | None -> 0. in
  let attributed = t.setup_s +. t.run_s +. t.ref_s +. t.reduce_s in
  let calibration_s =
    Option.value ~default:0. (List.assoc_opt "calibration" w.setup)
  in
  let speed_u = sim_s_per_ref_s untraced and speed_t = sim_s_per_ref_s t in
  [
    m "sim.events" "count" events;
    m "sim.events_per_sim_s" "1/s" (events /. w.horizon);
    m "sim.ns_per_event" "ns" (per_event run_ns);
    m "gc.minor_words_per_event" "words" (per_event t.minor_words);
    m "gc.major_collections" "count" (fi t.major_collections);
    m "gc.busy_share" "ratio" (gc_run /. t.run_s);
    m "link.arrivals" "count" (fi (Netsim.Link.arrivals bl));
    m "link.departures" "count" (fi (Netsim.Link.departures bl));
    m "link.drop_ratio" "ratio"
      (let a = Netsim.Link.arrivals bl in
       if a > 0 then fi (Netsim.Link.drops bl) /. fi a else 0.);
    m "link.ns_per_departure" "ns"
      (run_ns /. fi (max 1 (Netsim.Link.departures bl)));
    m "node.discarded" "count"
      (fi (List.fold_left (fun a n -> a + Netsim.Node.discarded n) 0 w.hosts));
  ]
  @ cc
  @ [
      m "cc.goodput_ratio" "ratio" goodput;
      m "soa.ns_per_flow_event" "ns"
        (if w.soa = None then 0. else per_event run_ns);
      m "soa.state_bytes_per_flow" "B" state_bytes;
      m "soa.wheel_size" "count" (soa_metric Cc.Flow_soa.wheel_size);
      m "soa.wheel_tracked" "count" (soa_metric Cc.Flow_soa.wheel_tracked);
      m "ff.entries" "count" (ff_count Slowcc.Fluid.entries);
      m "ff.exits" "count" (ff_count Slowcc.Fluid.exits);
      m "ff.skipped_sim_s" "s" skipped;
      m "ff.skip_share" "ratio" (skipped /. w.horizon);
      m "ff.util_err" "ratio" util_err;
      m "setup.build_s" "s" (t.setup_s -. calibration_s);
      m "setup.calibration_s" "s" calibration_s;
      m "self.setup_s" "s" (t.setup_s -. t.gc_setup);
      m "self.run_s" "s" (t.run_s -. gc_run);
      m "self.gc_s" "s" (t.gc_setup +. gc_run +. t.gc_reduce);
      m "self.ref_s" "s" t.ref_s;
      m "self.reduce_s" "s" (t.reduce_s -. t.gc_reduce);
    ]
  @ List.map (fun p -> m (Printf.sprintf "phase.%s_s" p) "s" (phase_self p)) phases
  @ [
      m "trace.unattributed_share" "ratio" ((t.wall -. attributed) /. t.wall);
      m "trace.overhead" "ratio" ((speed_u /. speed_t) -. 1.);
      m "trace.lost_events" "count" (fi (Gcbusy.lost_events ()));
      m "ref.ns_per_iter" "ns" (median t.ref_ns);
      m "ref.interleave_ratio" "ratio" (interleave_ratio t);
      m "run.wall_s" "s" t.run_s;
    ]

let run_traced ~workload ~seed ~guard_failures =
  let build () = Workloads.build ~seed workload in
  let state_bytes = soa_state_bytes_per_flow ~seed workload in
  let untraced, _ = run_rep ~build () in
  Gc.compact ();
  let traced, w = run_rep ~traced:true ~build () in
  Gc.compact ();
  let util_err =
    match w.fluid with
    | None -> 0.
    | Some _ ->
      let _, pure =
        run_rep ~slice:Workloads.hybrid_horizon
          ~build:(fun () -> Workloads.hybrid ~seed ~ff:false)
          ()
      in
      Float.abs (Workloads.utilization w -. Workloads.utilization pure)
  in
  print_inputs ~workload ~seed traced;
  let rep_failures r = r.failures @ check_pinned ~workload ~seed r in
  let untraced_failures = rep_failures untraced in
  let traced_failures =
    rep_failures traced
    @
    if traced.digest <> untraced.digest then
      [ "traced digest differs from untraced digest" ]
    else []
  in
  let failures = guard_failures @ untraced_failures @ traced_failures in
  List.iter (Printf.printf "FAILED: %s\n") failures;
  print_counts traced;
  List.iter
    (fun (name, d) -> Printf.printf "span setup.%s %.6f s\n" name d)
    w.setup;
  List.iter
    (fun p ->
      match List.filter (fun s -> s.phase = p) traced.slices with
      | [] -> ()
      | ss ->
        let sum f = List.fold_left (fun a s -> a +. f s) 0. ss in
        Printf.printf
          "span run.%s: %d slices, %.6f s, gc %.6f s, %.0f events, %.0f minor words\n"
          p (List.length ss)
          (sum (fun s -> s.wall))
          (sum (fun s -> s.gc))
          (sum (fun s -> float_of_int s.events))
          (sum (fun s -> s.words)))
    phases;
  Printf.printf "span reduce %.6f s\n" traced.reduce_s;
  let failed =
    List.length (List.filter (( <> ) []) [ untraced_failures; traced_failures ])
  in
  print_result ~correct:(failures = []) ~attempted:2 ~failed
    (layer_metrics ~state_bytes ~util_err ~untraced traced w)

(* ------------------------------------------------------------------ *)
(* Self-test                                                            *)
(* ------------------------------------------------------------------ *)

(* Determinism and kernel-guard checks; exits 1 on the first failure. *)
let self_test () =
  let ok = ref true in
  let check cond fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") msg;
        if not cond then ok := false)
      fmt
  in
  check (Refkernel.allocated_words () = 0.) "reference kernel allocates nothing";
  let seed = 1 in
  let ratios =
    List.map
      (fun workload ->
        let build () = Workloads.build ~seed workload in
        let sliced, _ = run_rep ~build () in
        let whole, _ = run_rep ~slice:sliced.horizon ~build () in
        let traced, _ = run_rep ~traced:true ~build () in
        check (sliced.failures = []) "%s: output invariants hold" workload;
        check (sliced.digest = whole.digest)
          "%s: sliced digest equals single Sim.run digest" workload;
        check (traced.digest = whole.digest)
          "%s: traced digest equals single Sim.run digest" workload;
        check (check_pinned ~workload ~seed sliced = [])
          "%s: digest matches the pinned one" workload;
        let ratio = interleave_ratio traced in
        Printf.printf "     %s: interleaved kernel %.3f ns/iter, %.3f x warm\n%!"
          workload (median traced.ref_ns) ratio;
        Gc.compact ();
        ratio)
      Workloads.names
  in
  let lo = List.fold_left Float.min infinity ratios
  and hi = List.fold_left Float.max 0. ratios in
  check (hi /. lo < 1.15 && lo > 0.85 && hi < 1.15)
    "kernel time per call does not depend on the workload (%.3f..%.3f)" lo hi;
  (* Counts must repeat bit-for-bit across processes. *)
  let counts workload =
    let ic =
      Unix.open_process_args_in Sys.executable_name
        [|
          Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
          "--seconds"; "1"; "--trace"; "0";
        |]
    in
    let lines = In_channel.input_all ic in
    ignore (Unix.close_process_in ic);
    String.split_on_char '\n' lines
    |> List.filter (fun l ->
           String.starts_with ~prefix:"counts:" l
           || String.starts_with ~prefix:"peak_heap_mb" l)
  in
  List.iter
    (fun workload ->
      let a = counts workload and b = counts workload in
      check (a <> [] && a = b) "%s: counts and peak heap repeat across processes"
        workload;
      List.iter (Printf.printf "     %s\n") a)
    Workloads.names;
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " restart | manyflow | hybrid");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measurement budget");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer");
      ("--self-test", Arg.Set self, " determinism and kernel-guard checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  Engine.Pool.tune_gc ();
  Engine.Fastforward.set_default Engine.Fastforward.Off;
  let guard_failures =
    let words = Refkernel.allocated_words () in
    if words = 0. then []
    else [ Printf.sprintf "reference kernel allocated %.0f minor words" words ]
  in
  if !self then self_test ()
  else if not (List.mem !workload Workloads.names) then begin
    prerr_endline ("unknown --workload " ^ !workload);
    exit 2
  end
  else if !trace = 1 then
    run_traced ~workload:!workload ~seed:!seed ~guard_failures
  else
    run_untraced ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~guard_failures
