(* Reference kernel: a fixed unit of machine work interleaved between
   simulation slices.  Its measured time says how fast the machine ran
   at that moment, so dividing it out of the run's wall time cancels the
   drift that the simulator and the kernel both feel.

   A single pointer chase or ALU loop tracks only part of the drift on a
   shared host: the simulator also streams through its minor heap, runs
   branchy priority-queue code and chases pointers.  The kernel therefore
   mixes four parts in fixed proportions, each standing in for one of
   those costs:
   - sequential writes through a 256 KiB buffer (allocation traffic);
   - four independent integer mixing streams (arithmetic);
   - push/pop on a 4096-slot binary min-heap (event-queue branches);
   - a dependent chase through a 256 KiB random cycle.

   The working set stays well inside L2 and is re-read before each timed
   call ([warm]).  Larger buffers tracked more of the simulator's drift
   but made the kernel's time depend on how much of them the preceding
   slice evicted, i.e. on the workload.

   It allocates nothing (checked by [allocated_words]), so a GC-policy
   change in the program under test cannot move the normaliser. *)

let stream_words = 1 lsl 15
let chase_words = 1 lsl 15
let heap_slots = 4096

(* One cycle through every slot (Sattolo's algorithm, fixed LCG). *)
let cycle =
  let a = Array.init chase_words Fun.id in
  let s = ref 0x2545F491 in
  for i = chase_words - 1 downto 1 do
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !s mod i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let buf = Array.make stream_words 0
let heap = Array.make heap_slots 0

(* The write position carries over between calls, so successive calls
   sweep the whole buffer as an allocating program sweeps its heap. *)
let stream_pos = ref 0
let chase_pos = ref 0

let stream n =
  let mask = stream_words - 1 in
  let p = ref !stream_pos in
  for i = 1 to n do
    let k = !p land mask in
    Array.unsafe_set buf k (i + (k lsr 3));
    incr p
  done;
  stream_pos := !p land mask;
  !p

let mix n =
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  for _ = 1 to n do
    a := !a lxor (!a lsl 13);
    a := !a lxor (!a lsr 7);
    b := !b lxor (!b lsl 11);
    b := !b lxor (!b lsr 5);
    c := (!c * 0x9E3779B1) + !a;
    d := (!d * 0x85EBCA6B) lxor !b
  done;
  !a + !b + !c + !d

(* Random pushes and min-pops that keep the heap between 2000 and 4000
   entries: data-dependent branches, as in an event queue. *)
let heap_ops n =
  let size = ref 0 and s = ref 12345 and acc = ref 0 in
  for i = 1 to n do
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    if !size < 2000 || (!size < 4000 && !s land 1 = 0) then begin
      let v = !s + i in
      let j = ref !size in
      incr size;
      while !j > 0 && Array.unsafe_get heap ((!j - 1) / 2) > v do
        Array.unsafe_set heap !j (Array.unsafe_get heap ((!j - 1) / 2));
        j := (!j - 1) / 2
      done;
      Array.unsafe_set heap !j v
    end
    else begin
      acc := !acc + Array.unsafe_get heap 0;
      decr size;
      let v = Array.unsafe_get heap !size in
      let j = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !j) + 1 in
        if l >= !size then sifting := false
        else begin
          let c =
            if l + 1 < !size && Array.unsafe_get heap (l + 1) < Array.unsafe_get heap l
            then l + 1
            else l
          in
          if Array.unsafe_get heap c < v then begin
            Array.unsafe_set heap !j (Array.unsafe_get heap c);
            j := c
          end
          else sifting := false
        end
      done;
      Array.unsafe_set heap !j v
    end
  done;
  !acc

let chase n =
  let j = ref !chase_pos and acc = ref 0 in
  for i = 1 to n do
    let k = Array.unsafe_get cycle !j in
    acc := !acc + (k lxor i);
    j := k
  done;
  chase_pos := !j;
  !acc

(* One call's work, about 1 ms on the machine it was sized on. *)
let work () = stream 300_000 + mix 60_000 + heap_ops 12_000 + chase 4_000

(* Work units per call, for reporting ns per unit. *)
let iters = 376_000

(* The reference second: one call costs [nominal_ns_per_iter * iters] ns
   on the machine the benchmark was sized on.  Changing it rescales every
   [sim_s_per_ref_s]; never change it between a parent and a child
   measurement. *)
let nominal_ns_per_iter = 2.0

(* Read everything the kernel touches, sequentially, so the timed call
   does not pay for whatever the previous simulation slice evicted. *)
let warm () =
  let s = ref 0 in
  for i = 0 to stream_words - 1 do
    s := !s + Array.unsafe_get buf i
  done;
  for i = 0 to chase_words - 1 do
    s := !s + Array.unsafe_get cycle i
  done;
  for i = 0 to heap_slots - 1 do
    s := !s + Array.unsafe_get heap i
  done;
  !s

(* One timed call: wall seconds. *)
let timed () =
  ignore (Sys.opaque_identity (warm ()));
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  Unix.gettimeofday () -. t0

let ns_per_iter seconds = seconds *. 1e9 /. float_of_int iters

(* Minor words one call allocates; must be 0. *)
let allocated_words () =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (work ()));
  Gc.minor_words () -. w0
