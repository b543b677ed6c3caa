(* Statistics of the benchmark on synthetic inputs: the tail-percentile
   rule, the unattributed share of hand-built span lists, and
   fingerprint comparison. *)

let span name depth start_s dur_s self_s : Mcs_obs.Obs.span =
  { name; depth; start_s; dur_s; self_s; alloc_w = 0. }

let close = Alcotest.float 1e-9
let iota n = Array.init n (fun i -> float_of_int (i + 1))

let test_median () =
  Alcotest.check close "odd" 2. (Pstats.median [| 3.; 1.; 2. |]);
  Alcotest.check close "even" 2.5 (Pstats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check close "non-finite ignored" 2. (Pstats.median [| Float.nan; 2.; Float.infinity |]);
  Alcotest.(check bool) "empty" true (Float.is_nan (Pstats.median [||]))

let test_nearest_rank () =
  Alcotest.check close "p50 of 1..100" 50. (Pstats.nearest_rank (iota 100) ~p:0.5);
  Alcotest.check close "p95 of 1..100" 95. (Pstats.nearest_rank (iota 100) ~p:0.95);
  Alcotest.check close "p0 is the minimum" 1. (Pstats.nearest_rank (iota 7) ~p:0.)

let tail = Alcotest.testable (fun f (t : Pstats.tail) -> Format.fprintf f "p%g=%g (%d/%d)" t.p t.value t.beyond t.samples) ( = )

let test_tail_rule () =
  (* 200 samples: p95 has exactly 10 beyond it, so it is kept. *)
  Alcotest.(check (option tail)) "p95 kept at n=200"
    (Some { Pstats.p = 0.95; value = 190.; samples = 200; beyond = 10 })
    (Pstats.tail_percentile ~p:0.95 (iota 200));
  (* 100 samples: p95 would leave 5 beyond; fall back to p90. *)
  Alcotest.(check (option tail)) "p95 capped at n=100"
    (Some { Pstats.p = 0.9; value = 90.; samples = 100; beyond = 10 })
    (Pstats.tail_percentile ~p:0.95 (iota 100));
  Alcotest.(check (option tail)) "median untouched"
    (Some { Pstats.p = 0.5; value = 50.; samples = 100; beyond = 50 })
    (Pstats.tail_percentile ~p:0.5 (iota 100));
  Alcotest.(check (option tail)) "too few samples" None
    (Pstats.tail_percentile ~p:0.5 (iota 10));
  Alcotest.(check (option tail)) "11 samples leave the minimum"
    (Some { Pstats.p = 1. /. 11.; value = 1.; samples = 11; beyond = 10 })
    (Pstats.tail_percentile ~p:0.99 (iota 11))

(* Completion order: root r [0,10] with children a [1,4] (which holds
   grandchild g [2,3]) and b [5,7]; then a second root r [10,12] whose
   child online.run [10,11.5] wraps a phase p [10.5,11]. Each span's
   self time is its duration minus its direct children's. *)
let trace =
  [
    span "g" 2 2. 1. 1.; span "a" 1 1. 3. 2.; span "b" 1 5. 2. 2.;
    span "r" 0 0. 10. 5.; span "p" 2 10.5 0.5 0.5;
    span "online.run" 1 10. 1.5 1.; span "r" 0 10. 2. 0.5;
  ]

let test_unattributed () =
  Alcotest.check close "roots' and wrappers' self time over root time"
    ((5. +. 0.5 +. 1.) /. 12.)
    (Pstats.unattributed_frac trace);
  Alcotest.check close "fully covered root" 0.
    (Pstats.unattributed_frac [ span "c" 1 0. 4. 4.; span "r" 0 0. 4. 0. ]);
  Alcotest.check close "a wrapper alone at the root is all uncovered" 1.
    (Pstats.unattributed_frac [ span "online.run" 0 0. 3. 3. ]);
  Alcotest.check close "a phase named like a root is not a root" (2. /. 6.)
    (Pstats.unattributed_frac [ span "r" 1 0. 4. 4.; span "r" 0 0. 6. 2. ]);
  Alcotest.check close "no spans" 0. (Pstats.unattributed_frac [])

let test_fingerprint () =
  let outputs = [| 1.5; 2.25; Float.nan; 1e300 |] in
  let reference = Pstats.fingerprint outputs in
  Alcotest.(check int) "identical" 0 (Pstats.mismatches ~reference (Pstats.fingerprint (Array.copy outputs)));
  let corrupted = Array.copy outputs in
  corrupted.(1) <- Float.succ corrupted.(1);
  Alcotest.(check int) "one ulp is a mismatch" 1 (Pstats.mismatches ~reference (Pstats.fingerprint corrupted));
  Alcotest.(check bool) "digest changes" false
    (Pstats.digest reference = Pstats.digest (Pstats.fingerprint corrupted));
  Alcotest.(check int) "missing items count" 2
    (Pstats.mismatches ~reference (Pstats.fingerprint [| 1.5; 2.25 |]));
  Alcotest.(check int) "-0. differs from 0." 1
    (Pstats.mismatches ~reference:(Pstats.fingerprint [| 0. |]) (Pstats.fingerprint [| -0. |]))

let () =
  Alcotest.run "pstats"
    [
      ( "order statistics",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
        ] );
      ( "spans",
        [
          Alcotest.test_case "unattributed share" `Quick test_unattributed;
        ] );
      ("fingerprints", [ Alcotest.test_case "mismatches" `Quick test_fingerprint ]);
    ]
