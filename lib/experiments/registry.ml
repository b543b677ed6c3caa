type entry = {
  id : string;
  aliases : string list;
  title : string;
  run : runs:int -> Mcs_util.Table.t list;
}

let entry id aliases title run = { id; aliases; title; run }

let all =
  [
    entry "table1" [ "t1" ] "Table 1 — platform subsets" (fun ~runs:_ ->
        [ Table1.table () ]);
    entry "fig1" [ "f1" ] "Figure 1 — ready-task vs global ordering"
      (fun ~runs -> Fig_ready_vs_global.tables ~runs ());
    entry "fig2" [ "f2" ] "Figure 2 — mu sweep for WPS-work (random PTGs)"
      (fun ~runs -> Fig_mu_sweep.figure2 ~runs ());
    entry "fig3" [ "f3" ] "Figure 3 — 8 strategies on random PTGs"
      (fun ~runs -> Fig_strategies.figure3 ~runs ());
    entry "fig4" [ "f4" ] "Figure 4 — 8 strategies on FFT PTGs" (fun ~runs ->
        Fig_strategies.figure4 ~runs ());
    entry "fig5" [ "f5" ] "Figure 5 — 6 strategies on Strassen PTGs"
      (fun ~runs -> Fig_strategies.figure5 ~runs ());
    entry "x1" [ "constraint" ]
      "X1 — constraint satisfaction audit (Section 4's 99% claim)"
      (fun ~runs -> [ Exp_constraint.table ~runs () ]);
    entry "x2" [ "packing" ] "X2 — ablation: allocation packing" (fun ~runs ->
        [ Exp_ablation.packing_table ~runs () ]);
    entry "x3" [ "scrap" ] "X3 — ablation: SCRAP vs SCRAP-MAX" (fun ~runs ->
        [ Exp_ablation.procedure_table ~runs () ]);
    entry "x4" [ "validation" ]
      "X4 — validation: estimated vs simulated makespans" (fun ~runs ->
        [ Exp_validation.table ~runs () ]);
    entry "x5" [ "arrivals" ]
      "X5 — extension: staggered submission times (future work, Section 8)"
      (fun ~runs -> [ Exp_arrivals.table ~runs () ]);
    entry "x6" [ "single" ]
      "X6 — extension: single-PTG algorithm families (HEFT / M-HEFT / HCPA)"
      (fun ~runs -> [ Exp_single_ptg.table ~runs () ]);
    entry "x7" [ "online" ]
      "X7 — extension: online dynamic β vs offline approximation"
      (fun ~runs -> [ Exp_online.table ~runs () ]);
    entry "x8" [ "faults" ]
      "X8 — extension: fault injection across the eight β strategies"
      (fun ~runs -> [ Exp_faults.table ~runs () ]);
    entry "x9" [ "malleable" ]
      "X9 — extension: malleable vs moldable execution under bursts"
      (fun ~runs -> [ Exp_malleable.table ~runs () ]);
  ]

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun e -> e.id = name || List.mem name e.aliases) all
