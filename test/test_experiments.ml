(* Tests for the experiment harness (scaled-down runs of every paper
   artifact, asserting the qualitative shapes the paper reports). *)

module Runner = Noc_experiments.Runner
module Pipeline = Noc_pipeline.Pipeline
module Random_suite = Noc_experiments.Random_suite
module Msb_tables = Noc_experiments.Msb_tables
module Tradeoff = Noc_experiments.Tradeoff
module Energy_split = Noc_experiments.Energy_split
module Ablation = Noc_experiments.Ablation

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

let test_runner_names () =
  Alcotest.(check (list string)) "algo names" [ "EAS-base"; "EAS"; "EDF" ]
    (List.map Pipeline.algo_name Pipeline.all_algos)

let test_runner_savings () =
  Alcotest.(check (float 1e-9)) "savings" 0.25 (Runner.savings ~baseline:100. 75.)

let test_runner_evaluate () =
  let platform = Noc_tgff.Category.platform in
  let params = { Noc_tgff.Params.default with n_tasks = 30 } in
  let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed:0 in
  List.iter
    (fun algo ->
      let e = Runner.evaluate algo platform ctg in
      Alcotest.(check int)
        (Pipeline.algo_name algo ^ " no resource violations")
        0 e.Runner.resource_violations;
      Alcotest.(check bool) "positive energy" true
        (e.Runner.metrics.Noc_sched.Metrics.total_energy > 0.))
    Pipeline.all_algos

let test_fig5_shape_scaled () =
  (* A scaled category-I run must preserve the paper's headline: EAS
     beats EDF on every benchmark and EAS misses nothing. *)
  let result =
    Random_suite.run ~indices:[ 0; 1; 2 ] ~scale:0.12 Noc_tgff.Category.Category_i
  in
  Alcotest.(check int) "three rows" 3 (List.length result.Random_suite.rows);
  List.iter
    (fun (r : Random_suite.row) ->
      let energy (e : Runner.evaluation) = e.Runner.metrics.Noc_sched.Metrics.total_energy in
      Alcotest.(check bool) "EAS cheaper than EDF" true (energy r.eas < energy r.edf);
      Alcotest.(check int) "EAS meets deadlines" 0
        (Noc_sched.Metrics.miss_count r.eas.Runner.metrics))
    result.Random_suite.rows;
  Alcotest.(check bool) "positive average excess" true
    (result.Random_suite.average_edf_excess > 0.);
  Alcotest.(check bool) "render works" true
    (contains_substring (Random_suite.render result) "EDF consumes")

let test_msb_table_shape () =
  let result = Msb_tables.run Msb_tables.Encoder in
  Alcotest.(check int) "three clips" 3 (List.length result.Msb_tables.rows);
  List.iter
    (fun (r : Msb_tables.row) ->
      let energy (e : Runner.evaluation) = e.Runner.metrics.Noc_sched.Metrics.total_energy in
      Alcotest.(check bool) "positive savings" true (energy r.eas < energy r.edf);
      Alcotest.(check int) "EAS meets the frame rate" 0
        (Noc_sched.Metrics.miss_count r.eas.Runner.metrics))
    result.Msb_tables.rows;
  let rendered = Msb_tables.render result in
  Alcotest.(check bool) "renders savings row" true
    (contains_substring rendered "Energy Savings")

let test_tradeoff_shape () =
  (* Fig. 7's shape: EAS energy is (weakly) higher at ratio 1.8 than at
     1.0 and stays below EDF throughout. *)
  let points = Tradeoff.run ~ratios:[ 1.0; 1.4; 1.8 ] () in
  let energy (e : Runner.evaluation) = e.Runner.metrics.Noc_sched.Metrics.total_energy in
  (match points with
  | [ p10; _; p18 ] ->
    Alcotest.(check bool) "tighter costs energy" true (energy p18.Tradeoff.eas > energy p10.Tradeoff.eas);
    List.iter
      (fun (p : Tradeoff.point) ->
        Alcotest.(check bool) "EAS below EDF" true
          (energy p.Tradeoff.eas < energy p.Tradeoff.edf))
      points
  | _ -> Alcotest.fail "expected three points");
  Alcotest.(check bool) "render works" true
    (contains_substring (Tradeoff.render points) "performance ratio")

let test_energy_split_shape () =
  (* The paper's in-text claim: both energy components drop, and the
     average hop count drops. *)
  let r = Energy_split.run () in
  Alcotest.(check bool) "computation drops" true
    (r.Energy_split.eas.Noc_sched.Metrics.computation_energy
    < r.Energy_split.edf.Noc_sched.Metrics.computation_energy);
  Alcotest.(check bool) "communication drops" true
    (r.Energy_split.eas.Noc_sched.Metrics.communication_energy
    < r.Energy_split.edf.Noc_sched.Metrics.communication_energy);
  Alcotest.(check bool) "hops drop" true
    (r.Energy_split.eas.Noc_sched.Metrics.average_hops
    < r.Energy_split.edf.Noc_sched.Metrics.average_hops)

let test_ablation_shape () =
  let rows = Ablation.run ~seeds:[ 0; 2 ] () in
  List.iter
    (fun (r : Ablation.row) ->
      Alcotest.(check int) "aware replays without misses" 0 r.Ablation.aware_replay_misses;
      Alcotest.(check (float 1e-6)) "aware replays exactly" 0. r.Ablation.aware_max_deviation;
      Alcotest.(check bool) "fixed-delay blocks on links" true
        (r.Ablation.fixed_link_waiting > 0.))
    rows;
  Alcotest.(check bool) "some fixed replay misses deadlines" true
    (List.exists (fun (r : Ablation.row) -> r.Ablation.fixed_replay_misses > 0) rows);
  Alcotest.(check bool) "render works" true
    (contains_substring (Ablation.render rows) "Contention ablation")

let suite =
  [
    Alcotest.test_case "runner names" `Quick test_runner_names;
    Alcotest.test_case "runner savings" `Quick test_runner_savings;
    Alcotest.test_case "runner evaluate" `Quick test_runner_evaluate;
    Alcotest.test_case "fig5 shape (scaled)" `Slow test_fig5_shape_scaled;
    Alcotest.test_case "MSB table shape" `Slow test_msb_table_shape;
    Alcotest.test_case "tradeoff shape" `Slow test_tradeoff_shape;
    Alcotest.test_case "energy split shape" `Slow test_energy_split_shape;
    Alcotest.test_case "ablation shape" `Slow test_ablation_shape;
  ]
