type entry = {
  id : string;
  description : string;
  plan : Runner.Plan.t;
}

let all =
  [
    {
      id = "table1";
      description = "Table 1: benchmarks and baseline IPC";
      plan = Table1.plan;
    };
    {
      id = "fig3";
      description = "Figure 3: branch MPKI under EDS / immediate / delayed profiling";
      plan = Fig3.plan;
    };
    {
      id = "fig4";
      description = "Figure 4: IPC error vs SFG order k (perfect caches & bpred)";
      plan = Fig4.plan;
    };
    {
      id = "table3";
      description = "Table 3: SFG node counts vs k";
      plan = Table3.plan;
    };
    {
      id = "fig5";
      description = "Figure 5: immediate vs delayed branch profiling accuracy";
      plan = Fig5.plan;
    };
    {
      id = "fig6";
      description = "Figure 6: absolute IPC/EPC accuracy (+ EDP, Section 4.2.3)";
      plan = Fig6.plan;
    };
    {
      id = "cov";
      description = "Section 4.1: IPC CoV vs synthetic trace length";
      plan = Cov.plan;
    };
    {
      id = "fig7";
      description = "Figure 7: HLS vs SMART-HLS";
      plan = Fig7.plan;
    };
    {
      id = "fig8";
      description = "Figure 8: program phases and SimPoint comparison";
      plan = Fig8.plan;
    };
    {
      id = "table4";
      description = "Table 4: relative accuracy across design-point steps";
      plan = Table4.plan;
    };
    {
      id = "dse";
      description = "Section 4.6: EDP design space exploration";
      plan = Sec46.plan;
    };
    {
      id = "inorder";
      description = "In-order + WAW/WAR extension (Section 2.1.1 future work; repo addition)";
      plan = Inorder.plan;
    };
    {
      id = "fp";
      description = "Floating-point workload accuracy (repo addition)";
      plan = Fp_suite.plan;
    };
    {
      id = "baselines";
      description = "Analytical vs HLS vs SFG accuracy (repo addition)";
      plan = Baselines.plan;
    };
    {
      id = "predictors";
      description = "Predictor-design robustness: hybrid vs gshare vs bimodal (repo addition)";
      plan = Predictors.plan;
    };
    {
      id = "ablation";
      description = "Ablations: FIFO size, dependency cap, squash semantics (repo addition)";
      plan = Ablation.plan;
    };
    {
      id = "speed";
      description = "Section 4.1: simulation speed and speedups";
      plan = Speed.plan;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all
let ids () = List.map (fun e -> e.id) all
