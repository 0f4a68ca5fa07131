(* GC busy time from the runtime's own event ring ([runtime_events],
   shipped with OCaml 5.1).  Only the traced run starts the ring; the
   untraced runs never touch it.

   Runtime phases nest (a minor collection contains its root-scanning
   phases), so busy time is the time during which at least one phase is
   open.  Phases that are bookkeeping rather than collection work are
   skipped. *)

open Runtime_events

let depth = ref 0
let since = ref 0L
let busy_ns = ref 0L
let lost = ref 0

let counted = function
  | EV_EXPLICIT_GC_STAT | EV_EXPLICIT_GC_SET | EV_DOMAIN_CONDITION_WAIT ->
    false
  | _ -> true

let callbacks =
  Callbacks.create
    ~runtime_begin:(fun _ ts ph ->
      if counted ph then begin
        if !depth = 0 then since := Timestamp.to_int64 ts;
        incr depth
      end)
    ~runtime_end:(fun _ ts ph ->
      if counted ph && !depth > 0 then begin
        decr depth;
        if !depth = 0 then
          busy_ns := Int64.add !busy_ns (Int64.sub (Timestamp.to_int64 ts) !since)
      end)
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

let cursor =
  lazy
    (start ();
     create_cursor None)

(* Cumulative GC busy seconds seen so far. *)
let poll () =
  ignore (read_poll (Lazy.force cursor) callbacks None);
  Int64.to_float !busy_ns /. 1e9

let lost_events () = !lost
