(* ns-2-style calendar queue: a bucketed timer ring with automatic resize.

   Events live in pooled nodes held in parallel arrays ([times]/[seqs]/
   [vals]/[nexts]) and linked into per-bucket sorted lists by index, so
   steady-state add/pop touches no allocator at all — the same
   zero-allocation discipline as [Event_heap].  Each bucket covers a
   [width]-second window of the virtual clock; bucket [n land mask] holds
   events with [floor (time / width) = n].  Dequeue scans one calendar
   "year" (every bucket once) from the cursor; if nothing lies inside its
   own window the minimum is found by direct search, exactly as ns-2's
   scheduler does for sparse horizons.  Each bucket also keeps a tail
   index, so the common insert — an event later than everything already
   in its bucket — appends in O(1) instead of walking the list.

   Ordering is identical to [Event_heap]: lexicographic on (time, seq)
   where [seq] is the global insertion counter, so FIFO within equal
   timestamps.  Equal times always hash to the same bucket, and bucket
   lists are kept sorted by (time, seq), which makes the tie-break exact
   rather than approximate.

   The structure assumes the simulator's contract: times are finite,
   non-negative, and never earlier than the last dequeued time.  Earlier
   inserts are still handled correctly (the cursor moves back), they are
   just slower. *)

type 'a t = {
  (* node pool *)
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : Obj.t array;
  mutable nexts : int array;
  mutable free : int;  (* free-list head, -1 when the pool is full *)
  (* calendar *)
  mutable buckets : int array;  (* per-bucket list head, -1 when empty *)
  mutable tails : int array;
      (* per-bucket last node; meaningful only while the head is >= 0 *)
  mutable mask : int;  (* nbuckets - 1; nbuckets is a power of two *)
  mutable width : float;  (* seconds covered by one bucket *)
  mutable cur : int;  (* absolute bucket number of the search cursor *)
  mutable size : int;
  mutable next_seq : int;
  staging : floatarray;
      (* cell 0: unboxed hand-off slot for [add]; cell 1: time of the
         event [take_until] last returned *)
  (* Last (time, seq) handed out by [take_until]; only read/written under
     [Audit.invariants_on] to assert (time, insertion-order) pop order. *)
  mutable last_pop_time : float;
  mutable last_pop_seq : int;
}

let dummy : Obj.t = Obj.repr ()
let initial_nodes = 256
let initial_buckets = 8
let min_buckets = 8

let create () =
  {
    times = [||];
    seqs = [||];
    vals = [||];
    nexts = [||];
    free = -1;
    buckets = Array.make initial_buckets (-1);
    tails = Array.make initial_buckets (-1);
    mask = initial_buckets - 1;
    width = 0.01;
    cur = 0;
    size = 0;
    next_seq = 0;
    staging = Float.Array.create 2;
    last_pop_time = Float.neg_infinity;
    last_pop_seq = -1;
  }

let is_empty t = t.size = 0
let size t = t.size

(* Number of buckets currently in the ring (introspection / tests). *)
let buckets t = t.mask + 1
let width t = t.width

let grow_pool t =
  let cap = Array.length t.times in
  let new_cap = if cap = 0 then initial_nodes else cap * 2 in
  let times = Array.make new_cap 0. in
  let seqs = Array.make new_cap 0 in
  let vals = Array.make new_cap dummy in
  let nexts = Array.make new_cap (-1) in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.vals 0 vals 0 cap;
  Array.blit t.nexts 0 nexts 0 cap;
  (* Chain the new slots into the free list. *)
  for i = cap to new_cap - 2 do
    nexts.(i) <- i + 1
  done;
  nexts.(new_cap - 1) <- t.free;
  t.free <- cap;
  t.times <- times;
  t.seqs <- seqs;
  t.vals <- vals;
  t.nexts <- nexts

(* Absolute bucket number of [time] under the current width. *)
let[@inline] bucket_number t time = int_of_float (time /. t.width)

(* Insert node [n] (fields already set) into its bucket's sorted list.
   An event that sorts after the bucket's tail — the usual case, since
   the simulator schedules forward — appends in O(1); only one that sorts
   before the tail walks the list from the head. *)
let insert_node t n =
  let time = Array.unsafe_get t.times n in
  let seq = Array.unsafe_get t.seqs n in
  let bn = bucket_number t time in
  if bn < t.cur then t.cur <- bn;
  let b = bn land t.mask in
  let head = Array.unsafe_get t.buckets b in
  if head < 0 then begin
    Array.unsafe_set t.nexts n (-1);
    Array.unsafe_set t.buckets b n;
    Array.unsafe_set t.tails b n
  end
  else begin
    let tail = Array.unsafe_get t.tails b in
    let tt = Array.unsafe_get t.times tail in
    if time > tt || (time = tt && seq > Array.unsafe_get t.seqs tail) then begin
      Array.unsafe_set t.nexts n (-1);
      Array.unsafe_set t.nexts tail n;
      Array.unsafe_set t.tails b n
    end
    else if
      time < Array.unsafe_get t.times head
      || (time = Array.unsafe_get t.times head
          && seq < Array.unsafe_get t.seqs head)
    then begin
      Array.unsafe_set t.nexts n head;
      Array.unsafe_set t.buckets b n
    end
    else begin
      (* Walk to the last node that precedes [n]; it stops before the
         tail, which sorts after [n], so the tail stays put. *)
      let prev = ref head in
      let continue_ = ref true in
      while !continue_ do
        let nx = Array.unsafe_get t.nexts !prev in
        let tx = Array.unsafe_get t.times nx in
        if tx < time || (tx = time && Array.unsafe_get t.seqs nx < seq) then
          prev := nx
        else continue_ := false
      done;
      Array.unsafe_set t.nexts n (Array.unsafe_get t.nexts !prev);
      Array.unsafe_set t.nexts !prev n
    end
  end

(* Estimate a bucket width from the event-time distribution: three times
   the average separation of the ~32 earliest events (ns-2 samples near
   the head of the queue for the same reason — far-future stragglers must
   not stretch the buckets that the dense near-term traffic lives in). *)
let estimate_width t live =
  let n = Array.length live in
  if n < 2 then t.width
  else begin
    Array.sort Float.compare live;
    let k = min n 32 in
    let front = live.(k - 1) -. live.(0) in
    let gap =
      if front > 0. then front /. float_of_int (k - 1)
      else begin
        (* The earliest events are all simultaneous; fall back to the
           full range. *)
        let range = live.(n - 1) -. live.(0) in
        if range > 0. then range /. float_of_int n else 0.
      end
    in
    if gap > 0. then Float.max 1e-12 (3. *. gap) else t.width
  end

(* Rebuild the ring with [nb] buckets and a freshly estimated width.
   O(size); called when the event count crosses 2x or 0.5x the bucket
   count, so the amortized cost per operation is O(1). *)
let resize t nb =
  let live = Array.make t.size 0. in
  let nodes = Array.make t.size 0 in
  let j = ref 0 in
  Array.iter
    (fun head ->
      let n = ref head in
      while !n >= 0 do
        live.(!j) <- Array.unsafe_get t.times !n;
        nodes.(!j) <- !n;
        incr j;
        n := Array.unsafe_get t.nexts !n
      done)
    t.buckets;
  t.width <- estimate_width t live;
  t.buckets <- Array.make nb (-1);
  t.tails <- Array.make nb (-1);
  t.mask <- nb - 1;
  (* live is now sorted (estimate_width sorts it); reposition the cursor
     at the earliest event so the scan invariant [cur <= min bucket]
     holds. *)
  t.cur <- (if t.size = 0 then 0 else bucket_number t live.(0));
  Array.iter (fun n -> insert_node t n) nodes

(* Place a fresh node for [v] at the staged time with tie-break [seq]. *)
let add_node t ~seq v =
  let time = Float.Array.unsafe_get t.staging 0 in
  if t.free < 0 then grow_pool t;
  let n = t.free in
  t.free <- Array.unsafe_get t.nexts n;
  Array.unsafe_set t.times n time;
  Array.unsafe_set t.seqs n seq;
  Array.unsafe_set t.vals n v;
  insert_node t n;
  t.size <- t.size + 1;
  if t.size > 2 * (t.mask + 1) then resize t (2 * (t.mask + 1))

let add_staged t v =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  add_node t ~seq v

(* The staging slot lets an inlined caller hand the (unboxed) time to the
   out-of-line body without boxing it at the call boundary. *)
let[@inline] add t ~time value =
  if not (Float.is_finite time) || time < 0. then
    invalid_arg "Calendar_queue.add: time must be finite and non-negative";
  Float.Array.unsafe_set t.staging 0 time;
  add_staged t (Obj.repr value)

let alloc_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

(* Unlike [Event_heap.add_with_seq], no [seq < next_seq] guard: the
   consolidated RTO wheel is itself a calendar queue whose entries carry
   seqs allocated from the *simulator's* queue, so its own counter never
   advances. *)
let[@inline] add_with_seq t ~time ~seq value =
  if not (Float.is_finite time) || time < 0. then
    invalid_arg
      "Calendar_queue.add_with_seq: time must be finite and non-negative";
  if seq < 0 then invalid_arg "Calendar_queue.add_with_seq: negative seq";
  Float.Array.unsafe_set t.staging 0 time;
  add_node t ~seq (Obj.repr value)

(* Nothing inside its own window for a whole year: direct search over
   the bucket heads (each head is its bucket's minimum).  Rare — only
   sparse horizons reach it.  Compares by node index so only int refs
   are live (no boxed float accumulator). *)
let direct_search t =
  let nb = t.mask + 1 in
  let best_b = ref (-1) in
  let best_n = ref (-1) in
  for b = 0 to nb - 1 do
    let h = Array.unsafe_get t.buckets b in
    if
      h >= 0
      && (!best_n < 0
         || Array.unsafe_get t.times h < Array.unsafe_get t.times !best_n
         || (Array.unsafe_get t.times h = Array.unsafe_get t.times !best_n
             && Array.unsafe_get t.seqs h < Array.unsafe_get t.seqs !best_n))
    then begin
      best_b := b;
      best_n := h
    end
  done;
  t.cur <- bucket_number t (Array.unsafe_get t.times !best_n);
  !best_b

(* Find the node to dequeue: the bucket (relative index) holding the
   earliest event, positioning [t.cur] on its year.  Assumes size > 0.
   A while loop over int refs, not a local recursive function — a [let
   rec] closure here would be allocated on every pop. *)
let find_min_bucket t =
  let nb = t.mask + 1 in
  let c = ref t.cur in
  let k = ref 0 in
  let found = ref (-1) in
  while !found < 0 && !k < nb do
    let b = !c land t.mask in
    let h = Array.unsafe_get t.buckets b in
    (* The window check divides exactly like [bucket_number] does —
       mixing a multiplication here would disagree with placement at
       bucket boundaries (different rounding) and skip the true minimum
       in favor of a later year's event. *)
    if h >= 0 && Array.unsafe_get t.times h /. t.width < float_of_int (!c + 1)
    then begin
      t.cur <- !c;
      found := b
    end
    else begin
      incr c;
      incr k
    end
  done;
  if !found >= 0 then !found else direct_search t

let remove_head t b =
  let n = Array.unsafe_get t.buckets b in
  Array.unsafe_set t.buckets b (Array.unsafe_get t.nexts n);
  Array.unsafe_set t.nexts n t.free;
  t.free <- n;
  t.size <- t.size - 1;
  let v = Array.unsafe_get t.vals n in
  Array.unsafe_set t.vals n dummy;
  let nb = t.mask + 1 in
  (* Shrink at size < nb/4, not ns-2's nb/2: paired with growth at
     2*nb this leaves an 8x hysteresis band, so a pending-event count
     that breathes with the congestion window (2-4x over an RTT) never
     thrashes the ring through rebuild storms. *)
  if nb > min_buckets && t.size < nb / 4 then resize t (nb / 2);
  v

(* One bucket scan: the scan that finds the minimum also decides whether
   it is due. *)
let take_until t ~until ~none =
  if t.size = 0 then none
  else begin
    let b = find_min_bucket t in
    let n = Array.unsafe_get t.buckets b in
    let time = Array.unsafe_get t.times n in
    if time > until then none
    else begin
      if Audit.invariants_on () then begin
        let seq = Array.unsafe_get t.seqs n in
        if
          time < t.last_pop_time
          || (time = t.last_pop_time && seq < t.last_pop_seq)
        then
          Audit.fail
            "Calendar_queue.take_until: popped (t=%.17g, seq=%d) after \
             (t=%.17g, seq=%d) — FIFO order at equal timestamps broken"
            time seq t.last_pop_time t.last_pop_seq;
        t.last_pop_time <- time;
        t.last_pop_seq <- seq
      end;
      Float.Array.unsafe_set t.staging 1 time;
      Obj.obj (remove_head t b)
    end
  end

let[@inline] taken_time t = Float.Array.unsafe_get t.staging 1

let peek_time t =
  if t.size = 0 then None
  else
    Some (Array.unsafe_get t.times (Array.unsafe_get t.buckets (find_min_bucket t)))

(* Insertion seq of the earliest event; [Invalid_argument] when empty. *)
let min_seq t =
  if t.size = 0 then invalid_arg "Calendar_queue.min_seq: empty queue"
  else begin
    let b = find_min_bucket t in
    Array.unsafe_get t.seqs (Array.unsafe_get t.buckets b)
  end

let pop t =
  if t.size = 0 then None
  else begin
    let b = find_min_bucket t in
    let n = Array.unsafe_get t.buckets b in
    let time = Array.unsafe_get t.times n in
    let v = remove_head t b in
    Some (time, Obj.obj v)
  end

let clear t =
  Array.fill t.vals 0 (Array.length t.vals) dummy;
  let cap = Array.length t.nexts in
  for i = 0 to cap - 2 do
    t.nexts.(i) <- i + 1
  done;
  if cap > 0 then t.nexts.(cap - 1) <- -1;
  t.free <- (if cap > 0 then 0 else -1);
  Array.fill t.buckets 0 (Array.length t.buckets) (-1);
  t.size <- 0;
  t.cur <- 0;
  t.last_pop_time <- Float.neg_infinity;
  t.last_pop_seq <- -1
