(* Allocation budget of the per-event hot path: RNG draws, queue
   discipline enqueue/dequeue and timer re-arms allocate no minor-heap
   words.

   The budget is zero where the hot path is inlined across modules, as in
   release builds (the benchmark and the timed runs).  Dev builds compile
   every library [-opaque], so no call crosses a module boundary inlined
   and OCaml boxes each float that does cross one: there the budget is
   one boxed float (2 words) per float an operation passes or returns
   across a module boundary, and zero where none does. *)

let n = 10_000
let inlined = Build_profile.name = "release"

(* Minor words [f] allocates, after one warm-up call absorbs first-use
   growth (queue rings, the calendar's node pool). *)
let words f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let check_budget what ~boxed_floats_per_op f =
  let budget =
    if inlined then 0. else float_of_int (2 * boxed_floats_per_op * n)
  in
  let w = words f in
  if w > budget then
    Alcotest.failf "%s: %.0f minor words over %d operations (budget %.0f)"
      what w n budget

let test_rng_draws () =
  let rng = Engine.Rng.create ~seed:42 in
  (* Results land in a floatarray cell, which stores unboxed. *)
  let sink = Float.Array.make 1 0. in
  (* [Rng.float] returns a float across the module boundary. *)
  check_budget "Rng.float" ~boxed_floats_per_op:1 (fun () ->
      let acc = ref 0. in
      for _ = 1 to n do
        acc := !acc +. Engine.Rng.float rng
      done;
      Float.Array.set sink 0 !acc);
  let hits = ref 0 in
  check_budget "Rng.bernoulli" ~boxed_floats_per_op:0 (fun () ->
      for _ = 1 to n do
        if Engine.Rng.bernoulli rng ~p:0.5 then incr hits
      done);
  Alcotest.(check bool) "draws landed in [0, 1)" true
    (Float.Array.get sink 0 < float_of_int n && !hits > 0)

let mk_pkt seq = Netsim.Packet.make ~seq ~flow:0 ~src:0 ~dst:1 ~sent_at:0. ()

(* Each iteration offers one packet and, unless it was dropped, takes
   one: the occupancy stays at its starting level. *)
let pairs q pkts () =
  for i = 0 to n - 1 do
    let pkt = Array.unsafe_get pkts (i land 63) in
    match q.Netsim.Queue_intf.enqueue pkt with
    | Netsim.Queue_intf.Dropped -> ()
    | _ -> ignore (Sys.opaque_identity (q.Netsim.Queue_intf.dequeue ()))
  done

let test_droptail_pairs () =
  let q = Netsim.Droptail.make ~capacity:100 in
  let pkts = Array.init 64 mk_pkt in
  check_budget "droptail enqueue/dequeue" ~boxed_floats_per_op:0
    (pairs q pkts);
  (* Draining to empty returns the dummy without allocating either. *)
  check_budget "droptail dequeue on empty" ~boxed_floats_per_op:0 (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (q.Netsim.Queue_intf.dequeue ()))
      done)

let test_red_pairs () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:3 in
  let q, avg = Netsim.Red.make_with_introspection ~sim ~rng Netsim.Red.default_params in
  let pkts = Array.init 64 mk_pkt in
  (* A standing queue of 10, between min_th 5 and max_th 15: once the
     average passes min_th every arrival draws from the RNG. *)
  for i = 0 to 9 do
    ignore (q.Netsim.Queue_intf.enqueue pkts.(i))
  done;
  (* The draw passes its probability to [Rng.bernoulli] as a float. *)
  check_budget "RED enqueue/dequeue" ~boxed_floats_per_op:1 (pairs q pkts);
  Alcotest.(check bool)
    "the average passed min_th, so arrivals drew" true
    (avg () > Netsim.Red.default_params.Netsim.Red.min_th)

let test_sim_after_rearm () =
  let sim = Engine.Sim.create () in
  let left = ref 0 in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      Engine.Sim.after sim 0.001 tick
    end
  in
  (* [n] events: the first [after] and [n - 1] re-arms from [tick].  Each
     event's time crosses into the event queue and back out. *)
  check_budget "Sim.after re-arm" ~boxed_floats_per_op:2 (fun () ->
      left := n - 1;
      Engine.Sim.after sim 0.001 tick;
      Engine.Sim.run sim);
  Alcotest.(check int) "every re-arm ran" 0 !left

let suite =
  [
    Alcotest.test_case "rng draws" `Quick test_rng_draws;
    Alcotest.test_case "droptail enqueue/dequeue" `Quick test_droptail_pairs;
    Alcotest.test_case "red enqueue/dequeue" `Quick test_red_pairs;
    Alcotest.test_case "sim after re-arm" `Quick test_sim_after_rearm;
  ]
