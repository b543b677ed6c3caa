(* Race-profile suite: `dune exec --profile race test/test_race.exe`.

   Enables the Hb vector-clock tracker (lib/serve/hb.ml) and replays
   the multi-domain serve scenarios: a correctly synchronised run must
   report zero happens-before violations, and a deliberately seeded
   race must report exactly one — the fixture that proves the tracker
   can see what the static LOCK rules reason about. Plus an MPMC
   stress test of Squeue under real domain contention. *)

module Grid5000 = Mcs_platform.Grid5000
module Prng = Mcs_prng.Prng
module Hb = Mcs_serve.Hb
module Squeue = Mcs_serve.Squeue
module Service = Mcs_serve.Service

let random_ptgs n seed =
  let rng = Prng.create ~seed in
  List.init n (fun id ->
      Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)

let workload n seed ~mean =
  List.combine (random_ptgs n seed)
    (Array.to_list
       (Mcs_experiments.Workload.poisson_releases
          (Prng.create ~seed:(seed + 1))
          ~mean ~count:n))

(* --- happens-before: serve stack is clean -------------------------- *)

let test_serve_hb_clean () =
  Hb.enable ();
  let cfg =
    {
      Service.default_config with
      Service.shards = 4;
      mode = Service.Domains;
      capture_logs = true;
    }
  in
  let report =
    Service.run_stream cfg (Grid5000.grid ()) (workload 40 11 ~mean:2.)
  in
  Hb.disable ();
  Alcotest.(check int) "everything served" 40 report.Service.submitted;
  Alcotest.(check (list string)) "no happens-before violations" []
    (Hb.violations ())

let test_squeue_hb_clean () =
  Hb.enable ();
  let q = Squeue.create ~capacity:8 in
  let consumer =
    Domain.spawn (fun () ->
        let seen = ref Float.neg_infinity and total = ref 0 in
        let closed = ref false in
        while not !closed do
          let b = Squeue.wait_batch q ~seen:!seen in
          total := !total + List.length b.Squeue.msgs;
          seen := b.Squeue.watermark;
          closed := b.Squeue.closed
        done;
        !total)
  in
  for i = 1 to 100 do
    ignore (Squeue.push q ~block:true i);
    if i mod 10 = 0 then Squeue.advance_watermark q (float_of_int i)
  done;
  Squeue.close q;
  let total = Domain.join consumer in
  Hb.disable ();
  Alcotest.(check int) "all delivered" 100 total;
  Alcotest.(check (list string)) "queue protocol is race-free" []
    (Hb.violations ())

(* --- happens-before: a seeded race is caught ----------------------- *)

let test_seeded_race () =
  Hb.enable ();
  let state = Hb.loc "seeded.state" in
  (* Two domains write the same tracked region with no sync edge
     between them: exactly the second write to reach the tracker
     reports (tick-before-check makes concurrent accesses asymmetric,
     see Hb.write). *)
  let d = Domain.spawn (fun () -> Hb.write state) in
  Hb.write state;
  Domain.join d;
  Hb.disable ();
  Alcotest.(check int) "exactly one violation" 1
    (List.length (Hb.violations ()));
  Alcotest.(check bool) "names the seeded loc" true
    (String.length (List.hd (Hb.violations ())) > 0
    && String.starts_with ~prefix:"race on 'seeded.state'"
         (List.hd (Hb.violations ())))

let test_guarded_pair_clean () =
  Hb.enable ();
  let sync = Hb.sync "seeded.lock" in
  let state = Hb.loc "seeded.guarded" in
  let lock = Mutex.create () in
  let touch () =
    Mutex.protect lock @@ fun () -> Hb.region sync @@ fun () -> Hb.write state
  in
  let d = Domain.spawn touch in
  touch ();
  Domain.join d;
  Hb.disable ();
  Alcotest.(check (list string)) "lock-ordered writes are clean" []
    (Hb.violations ())

(* --- MPMC stress --------------------------------------------------- *)

let test_squeue_mpmc_stress () =
  Hb.enable ();
  let producers = 4 and consumers = 3 and per_producer = 500 in
  let q = Squeue.create ~capacity:16 in
  let cons =
    Array.init consumers (fun _ ->
        Domain.spawn (fun () ->
            let got = ref [] and closed = ref false in
            while not !closed do
              let b = Squeue.wait_batch q ~seen:Float.neg_infinity in
              got := List.rev_append b.Squeue.msgs !got;
              closed := b.Squeue.closed && b.Squeue.msgs = []
            done;
            List.rev !got))
  in
  let prods =
    Array.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per_producer - 1 do
              ignore (Squeue.push q ~block:true (p, i))
            done))
  in
  Array.iter Domain.join prods;
  Squeue.close q;
  let batches = Array.map Domain.join cons in
  Hb.disable ();
  (* Whatever is left after the consumers exited is still drainable. *)
  let leftovers = (Squeue.drain q).Squeue.msgs in
  let all = List.concat (leftovers :: Array.to_list batches) in
  Alcotest.(check int) "conservation: every push delivered exactly once"
    (producers * per_producer)
    (List.length all);
  Alcotest.(check int) "no duplicates"
    (producers * per_producer)
    (List.length (List.sort_uniq compare all));
  (* FIFO per producer within each consumer: queue order is global
     push order, and each drain takes a contiguous prefix, so any one
     consumer's view of any one producer must be increasing. *)
  Array.iter
    (fun batch ->
      let last = Array.make producers (-1) in
      List.iter
        (fun (p, i) ->
          Alcotest.(check bool) "per-producer order preserved" true
            (i > last.(p));
          last.(p) <- i)
        batch)
    batches;
  Alcotest.(check (list string)) "stress run is race-free" []
    (Hb.violations ())

let () =
  Alcotest.run "mcs-race"
    [
      ( "race",
        [
          Alcotest.test_case "serve scenarios HB-clean" `Quick
            test_serve_hb_clean;
          Alcotest.test_case "squeue protocol HB-clean" `Quick
            test_squeue_hb_clean;
          Alcotest.test_case "seeded race: exactly one violation" `Quick
            test_seeded_race;
          Alcotest.test_case "guarded pair: zero violations" `Quick
            test_guarded_pair_clean;
          Alcotest.test_case "squeue MPMC stress" `Quick
            test_squeue_mpmc_stress;
        ] );
    ]
