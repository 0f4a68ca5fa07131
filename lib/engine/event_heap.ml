(* Binary min-heap on parallel arrays.

   Entries used to be an [{ time; seq; value }] record, which cost one
   mixed record plus one boxed float per scheduled event.  The hot path
   (one add + one pop per simulator event) now touches three parallel
   arrays instead: a flat [float array] for times, an [int array] for the
   FIFO tie-break sequence and a uniform [Obj.t array] for the payloads —
   no per-event allocation at all once the arrays are warm.

   [vals] is created from an immediate dummy, so it is a uniform (pointer)
   array even when ['a] is [float]; payloads are boxed on the way in by
   [Obj.repr] exactly as any ['a] would be.  Vacated slots ([pop]/[clear])
   are overwritten with the dummy so completed events (closures, packets)
   become unreachable immediately instead of leaking through the array. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : Obj.t array;
  mutable len : int;
  mutable next_seq : int;
  staging : floatarray;
      (* cell 0: unboxed hand-off slot for [add]; cell 1: time of the
         event [take_until] last returned *)
  (* Last (time, seq) handed out by [take_until]; only read/written under
     [Audit.invariants_on] to assert (time, insertion-order) pop order. *)
  mutable last_pop_time : float;
  mutable last_pop_seq : int;
}

let initial_capacity = 256
let dummy : Obj.t = Obj.repr ()

let create () =
  {
    times = [||];
    seqs = [||];
    vals = [||];
    len = 0;
    next_seq = 0;
    staging = Float.Array.create 2;
    last_pop_time = Float.neg_infinity;
    last_pop_seq = -1;
  }

let grow t =
  let cap = Array.length t.times in
  let new_cap = if cap = 0 then initial_capacity else cap * 2 in
  let times = Array.make new_cap 0. in
  let seqs = Array.make new_cap 0 in
  let vals = Array.make new_cap dummy in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.vals 0 vals 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.vals <- vals

(* [i] precedes [j]: earlier time, or same time and inserted earlier.
   Indices are always < len, so unsafe accesses are in bounds. *)
let[@inline] lt t i j =
  let ti = Array.unsafe_get t.times i and tj = Array.unsafe_get t.times j in
  ti < tj
  || (ti = tj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

let[@inline] move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.vals dst (Array.unsafe_get t.vals src)

let[@inline] set t i ~time ~seq v =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.vals i v

(* Hole-based sift: carry the displaced element in locals and write it
   once at its final slot, halving the array writes of swap-based sifts. *)
let sift_up t i ~time ~seq v =
  let i = ref i in
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    let tp = Array.unsafe_get t.times parent in
    if time < tp || (time = tp && seq < Array.unsafe_get t.seqs parent) then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else continue_ := false
  done;
  set t !i ~time ~seq v

let sift_down t ~time ~seq v =
  let len = t.len in
  let i = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let left = (2 * !i) + 1 in
    if left >= len then continue_ := false
    else begin
      let right = left + 1 in
      let child =
        if right < len && lt t right left then right else left
      in
      let tc = Array.unsafe_get t.times child in
      if tc < time || (tc = time && Array.unsafe_get t.seqs child < seq) then begin
        move t ~src:child ~dst:!i;
        i := child
      end
      else continue_ := false
    end
  done;
  set t !i ~time ~seq v

(* Place [v] at the staged time with tie-break [seq]. *)
let add_node t ~seq v =
  let time = Float.Array.unsafe_get t.staging 0 in
  if t.len = Array.length t.times then grow t;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) ~time ~seq v

let add_staged t v =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  add_node t ~seq v

(* The staging slot lets an inlined caller hand the (unboxed) time to the
   out-of-line body without boxing it at the call boundary (no flambda, so
   a float crossing a plain call gets boxed; a floatarray store does not). *)
let[@inline] add t ~time value =
  if not (Float.is_finite time) then
    invalid_arg "Event_heap.add: non-finite time";
  Float.Array.unsafe_set t.staging 0 time;
  add_staged t (Obj.repr value)

let alloc_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let[@inline] add_with_seq t ~time ~seq value =
  if not (Float.is_finite time) then
    invalid_arg "Event_heap.add_with_seq: non-finite time";
  if seq < 0 || seq >= t.next_seq then
    invalid_arg "Event_heap.add_with_seq: seq was not allocated";
  Float.Array.unsafe_set t.staging 0 time;
  add_node t ~seq (Obj.repr value)

let is_empty t = t.len = 0
let size t = t.len

let peek_time t = if t.len = 0 then None else Some t.times.(0)

(* Insertion seq of the earliest event; callers check [is_empty] first. *)
let[@inline] min_seq t =
  if t.len = 0 then invalid_arg "Event_heap.min_seq: empty heap"
  else Array.unsafe_get t.seqs 0

let remove_top t =
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then begin
    let time = Array.unsafe_get t.times last in
    let seq = Array.unsafe_get t.seqs last in
    let v = Array.unsafe_get t.vals last in
    Array.unsafe_set t.vals last dummy;
    sift_down t ~time ~seq v
  end
  else Array.unsafe_set t.vals 0 dummy

let take_until t ~until ~none =
  if t.len = 0 then none
  else begin
    let time = Array.unsafe_get t.times 0 in
    if time > until then none
    else begin
      if Audit.invariants_on () then begin
        let seq = Array.unsafe_get t.seqs 0 in
        if
          time < t.last_pop_time
          || (time = t.last_pop_time && seq < t.last_pop_seq)
        then
          Audit.fail
            "Event_heap.take_until: popped (t=%.17g, seq=%d) after \
             (t=%.17g, seq=%d) — FIFO order at equal timestamps broken"
            time seq t.last_pop_time t.last_pop_seq;
        t.last_pop_time <- time;
        t.last_pop_seq <- seq
      end;
      Float.Array.unsafe_set t.staging 1 time;
      let v : 'a = Obj.obj (Array.unsafe_get t.vals 0) in
      remove_top t;
      v
    end
  end

let[@inline] taken_time t = Float.Array.unsafe_get t.staging 1

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) in
    let v : 'a = Obj.obj t.vals.(0) in
    remove_top t;
    Some (time, v)
  end

let clear t =
  Array.fill t.vals 0 t.len dummy;
  t.len <- 0;
  t.last_pop_time <- Float.neg_infinity;
  t.last_pop_seq <- -1
