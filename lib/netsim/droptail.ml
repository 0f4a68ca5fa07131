let make ~capacity =
  if capacity <= 0 then invalid_arg "Droptail.make: capacity must be positive";
  let q = Pktq.create () in
  let bytes = ref 0 in
  let enqueued = ref 0 in
  let dropped = ref 0 in
  let peak_pkts = ref 0 in
  let enqueue (pkt : Packet.t) : Queue_intf.action =
    if Pktq.length q >= capacity then begin
      incr dropped;
      Queue_intf.Dropped
    end
    else begin
      Pktq.add q pkt;
      bytes := !bytes + pkt.Packet.size;
      incr enqueued;
      if Pktq.length q > !peak_pkts then peak_pkts := Pktq.length q;
      Queue_intf.Enqueued
    end
  in
  let dequeue () =
    let pkt = Pktq.take q in
    if pkt != Packet.dummy then begin
      bytes := !bytes - pkt.Packet.size;
      if Engine.Audit.invariants_on () && !bytes < 0 then
        Engine.Audit.fail
          "Droptail: byte occupancy went negative (%d) after dequeueing \
           pkt of %d bytes"
          !bytes pkt.Packet.size
    end;
    pkt
  in
  {
    Queue_intf.name = "droptail";
    enqueue;
    dequeue;
    pkts = (fun () -> Pktq.length q);
    bytes = (fun () -> !bytes);
    counters =
      (fun () ->
        [
          ("enqueued", !enqueued);
          ("dropped", !dropped);
          ("peak_pkts", !peak_pkts);
        ]);
  }
