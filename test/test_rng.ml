(* Determinism and distribution sanity of the SplitMix64 generator. *)

let test_determinism () =
  let a = Engine.Rng.create ~seed:42 and b = Engine.Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (Engine.Rng.float a)
      (Engine.Rng.float b)
  done

let test_seeds_differ () =
  let a = Engine.Rng.create ~seed:1 and b = Engine.Rng.create ~seed:2 in
  let va = List.init 10 (fun _ -> Engine.Rng.float a) in
  let vb = List.init 10 (fun _ -> Engine.Rng.float b) in
  Alcotest.(check bool) "different streams" true (va <> vb)

let test_split_independent () =
  let a = Engine.Rng.create ~seed:42 in
  let child = Engine.Rng.split a in
  let first_child_value = Engine.Rng.float child in
  (* Re-derive: the child stream must be a function of the parent state at
     split time only. *)
  let a2 = Engine.Rng.create ~seed:42 in
  let child2 = Engine.Rng.split a2 in
  ignore (Engine.Rng.float a2);
  Alcotest.(check (float 0.)) "child reproducible" first_child_value
    (Engine.Rng.float child2)

(* The SplitMix64 stream is part of every digest: these literals are the
   first draws of seed 42 and of its first split, so a change in how the
   state is stored cannot move the stream unnoticed. *)
let test_pinned_stream () =
  let check_floats what rng expected =
    List.iteri
      (fun i want ->
        Alcotest.(check (float 0.))
          (Printf.sprintf "%s draw %d" what i)
          want (Engine.Rng.float rng))
      expected
  in
  check_floats "seed 42"
    (Engine.Rng.create ~seed:42)
    [
      0x1.7bae644c5fd6dp-1;
      0x1.477f199d93378p-3;
      0x1.1d499d5c4c3e6p-2;
      0x1.607387fc392b8p-2;
    ];
  let parent = Engine.Rng.create ~seed:42 in
  let child = Engine.Rng.split parent in
  check_floats "split of seed 42" child
    [ 0x1.5f87eae99441cp-2; 0x1.e957a287fd648p-1; 0x1.f2059ce304a4p-2 ];
  (* The split consumed the parent's first draw. *)
  check_floats "seed 42 after split" parent
    [ 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2 ];
  Alcotest.(check int) "int draw" 882 (Engine.Rng.int parent 1000);
  Alcotest.(check int) "child int draw" 348 (Engine.Rng.int child 1000)

let test_int_bounds () =
  let rng = Engine.Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Engine.Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_int_rejects_nonpositive () =
  let rng = Engine.Rng.create ~seed:3 in
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Engine.Rng.int rng 0))

let test_int_unbiased () =
  (* Regression for the modulo-bias bug: [int] used to map the raw draw
     with a plain [mod], over-weighting small residues for bounds that do
     not divide 2^63.  With rejection sampling every bucket of a small
     bound must land within a few percent of n/bound. *)
  let rng = Engine.Rng.create ~seed:11 in
  let bound = 7 and n = 35_000 in
  let buckets = Array.make bound 0 in
  for _ = 1 to n do
    let v = Engine.Rng.int rng bound in
    buckets.(v) <- buckets.(v) + 1
  done;
  let expected = float_of_int n /. float_of_int bound in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d within 10%% (got %d, want ~%.0f)" i c
           expected)
        true (dev < 0.1))
    buckets

let test_uniform_bounds () =
  let rng = Engine.Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    let v = Engine.Rng.uniform rng ~lo:2. ~hi:5. in
    Alcotest.(check bool) "in range" true (v >= 2. && v < 5.)
  done

let test_float_mean () =
  let rng = Engine.Rng.create ~seed:5 in
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Engine.Rng.float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_exponential_mean () =
  let rng = Engine.Rng.create ~seed:6 in
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Engine.Rng.exponential rng ~mean:2.5
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 2.5" true (Float.abs (mean -. 2.5) < 0.15)

let test_bernoulli_rate () =
  let rng = Engine.Rng.create ~seed:7 in
  let n = 20000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Engine.Rng.bernoulli rng ~p:0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let prop_float_unit_interval =
  QCheck2.Test.make ~name:"float stays in [0,1)" ~count:100
    QCheck2.Gen.(int_range 1 1000000)
    (fun seed ->
      let rng = Engine.Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Engine.Rng.float rng in
        if not (v >= 0. && v < 1.) then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "pinned stream" `Quick test_pinned_stream;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects non-positive" `Quick test_int_rejects_nonpositive;
    Alcotest.test_case "int distribution unbiased" `Quick test_int_unbiased;
    Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    QCheck_alcotest.to_alcotest prop_float_unit_interval;
  ]
