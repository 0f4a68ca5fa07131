(* Output digests pinned for the default seeds 1-10 of each workload.
   A run of a pinned (workload, seed) whose digest differs fails its
   output check.  A change that legitimately changes simulated output
   re-pins these from the [counts:] lines of a [--seconds 1] run. *)

let digests =
  [
    ("restart", 1, "70161c772b3a90ebe7b82bb44677a337");
    ("restart", 2, "d48f3ebb2c007552f24f0ae49385e15c");
    ("restart", 3, "032044b8de804309b4d6169154682f1b");
    ("restart", 4, "a4705167e6c4a28f0d70c64a0ff55517");
    ("restart", 5, "7041db05df0c1ee306543a569296f438");
    ("restart", 6, "2ca2e421dcd4878bd5fb1136d3647a96");
    ("restart", 7, "20a594bbbd59e454b3052e7948110dab");
    ("restart", 8, "fe33ac7fa59ca6a6cf403a9e78c70968");
    ("restart", 9, "97b7c64d88cbc9d840b8868809cc2fb2");
    ("restart", 10, "d3dad3cd380043096b189d2921426b34");
    ("manyflow", 1, "9e8cff3197dc20e60664500c66d101cf");
    ("manyflow", 2, "fd04060993a843873cb7f5a93456e58c");
    ("manyflow", 3, "a726a762ad0dae4fa3e8560ebf4c208a");
    ("manyflow", 4, "53923f6c3bc33a2a21a28bff583b268b");
    ("manyflow", 5, "0763a295eb601220a195e5b7de6bd80a");
    ("manyflow", 6, "ffc0f6993e3b4eb62bbb450a05608531");
    ("manyflow", 7, "c7f7a86fbc425c19824714f588ee42ca");
    ("manyflow", 8, "e5c5b56fa97990bd72cddb396739eecc");
    ("manyflow", 9, "127cada6ce6c653273510f51fdecfd36");
    ("manyflow", 10, "5435af6082e5b249535acd2ad34b3392");
    ("hybrid", 1, "f14ec4e7174ecc6c4822a769c71b58e1");
    ("hybrid", 2, "019d61534397794cf6645f95b8abc588");
    ("hybrid", 3, "d767bdd94c46ffbb4319f85d92474201");
    ("hybrid", 4, "45574aa5b04e1d03bd66e5affe953167");
    ("hybrid", 5, "f4b33fab606865cd905970910f568b1e");
    ("hybrid", 6, "1dc4847615ac5308e91a113c1d3ec753");
    ("hybrid", 7, "1e17fa40291c21f077a2a94dc2e54224");
    ("hybrid", 8, "56f06e4c550d6e7ad895e578d580cde3");
    ("hybrid", 9, "7ab24cab0d513140c002d365d5a33a8e");
    ("hybrid", 10, "abc9641d1a923ca898403fdc8157e8ea");
  ]

let lookup ~workload ~seed =
  List.find_map
    (fun (w, s, d) -> if w = workload && s = seed then Some d else None)
    digests
