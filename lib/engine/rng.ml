(* The 64-bit SplitMix state lives in an 8-byte [Bytes]: a [mutable
   state : int64] field would box a fresh Int64 on every draw, whereas
   the bytes primitives load and store it unboxed.  Only this module
   reads the bytes, so native byte order is fine. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let[@inline] next_int64 t =
  let z = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_int64 t)

(* [@inline] so a caller compiled against this module keeps the draw
   unboxed (53 random bits into [0,1)). *)
let[@inline] float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1. /. 9007199254740992.)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over a 63-bit draw: plain [Int64.rem] makes the
     low residues appear once more than the high ones whenever the bound
     does not divide 2^63.  Redraw in the final partial interval instead;
     with range = 2^63, (range mod b) = ((max_int mod b) + 1) mod b. *)
  let b = Int64.of_int bound in
  let leftover = Int64.rem (Int64.add (Int64.rem Int64.max_int b) 1L) b in
  let cutoff = Int64.sub Int64.max_int leftover in
  let rec draw () =
    let v = Int64.shift_right_logical (next_int64 t) 1 in
    if v <= cutoff then Int64.to_int (Int64.rem v b) else draw ()
  in
  draw ()

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let exponential t ~mean =
  let u = float t in
  (* Guard against log 0. *)
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u

let[@inline] bernoulli t ~p = float t < p
