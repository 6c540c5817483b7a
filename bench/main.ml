(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md's experiment index), plus Bechamel
   micro-benchmarks of the schedulers and the timeline substrate.

   Usage:
     dune exec bench/main.exe                 # every experiment, paper size
     dune exec bench/main.exe -- --quick      # scaled-down graphs
     dune exec bench/main.exe -- fig5 tab1    # a subset
     dune exec bench/main.exe -- --json BENCH_timeline.json
                                              # persisted bench gate only
     dune exec bench/main.exe -- parallel    # serial-vs-parallel gate,
                                              # persists BENCH_parallel.json

   Experiments: fig5 fig6 tab1 tab2 tab3 fig7 split ablation faults
   parallel micro. *)

let section title =
  Printf.printf "\n================ %s ================\n%!" title

let run_fig ~quick kind title =
  section title;
  let scale = if quick then Some 0.2 else None in
  let result = Noc_experiments.Random_suite.run ?scale kind in
  print_string (Noc_experiments.Random_suite.render result)

let fig5 ~quick = run_fig ~quick Noc_tgff.Category.Category_i
    "Fig. 5: random benchmarks, category I (energy, nJ)"

let fig6 ~quick = run_fig ~quick Noc_tgff.Category.Category_ii
    "Fig. 6: random benchmarks, category II (tight deadlines)"

let tab which title =
  section title;
  print_string (Noc_experiments.Msb_tables.render (Noc_experiments.Msb_tables.run which))

let fig7 () =
  section "Fig. 7: performance / energy trade-off";
  print_string (Noc_experiments.Tradeoff.render (Noc_experiments.Tradeoff.run ()))

let split () =
  section "Sec. 6.2 in-text: computation/communication energy split";
  print_string (Noc_experiments.Energy_split.render (Noc_experiments.Energy_split.run ()))

let ablation () =
  section "Ablation: contention-aware vs fixed-delay communication";
  print_string (Noc_experiments.Ablation.render (Noc_experiments.Ablation.run ()))

let topo () =
  section "Extension (Sec. 7): mesh vs torus vs honeycomb";
  print_string
    (Noc_experiments.Topology_compare.render (Noc_experiments.Topology_compare.run ()))

let weights () =
  section "Ablation: slack-weighting schemes (EAS Step 1)";
  print_string
    (Noc_experiments.Weight_ablation.render (Noc_experiments.Weight_ablation.run ()))

let buffering () =
  section "Eq. (1) validation: measured buffering energy";
  print_string (Noc_experiments.Buffering.render (Noc_experiments.Buffering.run ()))

let baselines () =
  section "Extended baselines: EAS vs EDF vs DLS vs energy-greedy";
  print_string
    (Noc_experiments.Baselines_compare.render (Noc_experiments.Baselines_compare.run ()))

let repair_moves ~quick =
  section "Ablation: repair move kinds (EAS Step 3)";
  let scale = if quick then Some 0.3 else None in
  print_string
    (Noc_experiments.Repair_ablation.render (Noc_experiments.Repair_ablation.run ?scale ()))

let faults ~quick =
  section "Reliability: Monte-Carlo fault campaign (EAS vs EDF survivability)";
  let result =
    if quick then Noc_experiments.Fault_campaign.run ~scale:0.08 ~n_graphs:2 ~n_trials:2 ()
    else Noc_experiments.Fault_campaign.run ()
  in
  print_string (Noc_experiments.Fault_campaign.render result);
  let file = "BENCH_faults.json" in
  let oc = open_out file in
  output_string oc (Noc_experiments.Fault_campaign.to_json result);
  close_out oc;
  Printf.printf "wrote %s\n" file

let micro () =
  section "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:4 ~rows:4 () in
  let params = { Noc_tgff.Params.default with n_tasks = 60 } in
  let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed:0 in
  let msb = Noc_msb.Graphs.integrated ~platform:Noc_msb.Platforms.av_3x3
      ~clip:Noc_msb.Profile.Foreman () in
  let tests =
    Test.make_grouped ~name:"nocsched"
      [
        Test.make ~name:"eas/tgff-60"
          (Staged.stage (fun () ->
               ignore (Noc_eas.Eas.schedule platform ctg)));
        Test.make ~name:"eas-base/tgff-60"
          (Staged.stage (fun () ->
               ignore (Noc_eas.Eas.schedule ~repair:false platform ctg)));
        Test.make ~name:"edf/tgff-60"
          (Staged.stage (fun () -> ignore (Noc_edf.Edf.schedule platform ctg)));
        Test.make ~name:"eas/msb-40"
          (Staged.stage (fun () ->
               ignore (Noc_eas.Eas.schedule Noc_msb.Platforms.av_3x3 msb)));
        Test.make ~name:"budget/tgff-60"
          (Staged.stage (fun () -> ignore (Noc_eas.Budget.compute ctg)));
        Test.make ~name:"simulate/msb-40"
          (Staged.stage
             (let s =
                (Noc_eas.Eas.schedule Noc_msb.Platforms.av_3x3 msb).schedule
              in
              fun () -> ignore (Noc_sim.Executor.run Noc_msb.Platforms.av_3x3 msb s)));
        Test.make ~name:"timeline-indexed/reserve-gap"
          (Staged.stage (fun () ->
               let tl = Noc_util.Timeline.create () in
               for i = 0 to 99 do
                 let start = float_of_int (2 * i) in
                 Noc_util.Timeline.reserve tl
                   (Noc_util.Interval.make ~start ~stop:(start +. 1.))
               done;
               ignore (Noc_util.Timeline.earliest_gap tl ~after:0. ~duration:1.5)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with Some (t :: _) -> t | Some [] | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) -> Printf.printf "%-28s %12.1f ns/run (%.3f ms)\n" name ns (ns /. 1e6))
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* Persisted bench gate (--json FILE): timeline micro-benchmark medians
   and end-to-end EAS wall times, written as machine-readable JSON so
   later PRs have a recorded trajectory to regress against. The same
   operations run against the indexed Timeline and the naive
   Timeline_reference model, giving each report a built-in baseline. *)

module Json_bench = struct
  module Interval = Noc_util.Interval

  (* The operations the gate exercises, over either implementation. *)
  module type TIMELINE = sig
    type t

    val create : unit -> t
    val reserve : t -> Interval.t -> unit
    val release : t -> Interval.t -> unit
    val earliest_gap : t -> after:float -> duration:float -> float
  end

  let median samples =
    let a = Array.of_list samples in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

  let time_s f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0

  let median_of ~repeats f = median (List.init repeats (fun _ -> time_s f))

  module Ops (T : TIMELINE) = struct
    (* Unit slots at even starts: [0,1) [2,3) ... — every probe lands in
       a populated table with gaps everywhere. *)
    let build n =
      let tl = T.create () in
      for i = 0 to n - 1 do
        let start = float_of_int (2 * i) in
        T.reserve tl (Interval.make ~start ~stop:(start +. 1.))
      done;
      tl

    (* ns per reserve when appending [slots] reservations to a fresh
       table (the scheduler's dominant pattern). *)
    let bench_reserve ~repeats ~slots =
      let per_run () = ignore (build slots) in
      median_of ~repeats per_run *. 1e9 /. float_of_int slots

    (* ns per earliest-gap query against a prebuilt [slots]-slot table,
       with deterministic pseudo-random release times. *)
    let bench_gap ~repeats ~slots =
      let tl = build slots in
      let queries = 1_000 in
      let per_run () =
        let rng = Noc_util.Prng.create ~seed:0xbe7c in
        for _ = 1 to queries do
          let after = Noc_util.Prng.float rng ~bound:(float_of_int (2 * slots)) in
          ignore (T.earliest_gap tl ~after ~duration:0.5)
        done
      in
      median_of ~repeats per_run *. 1e9 /. float_of_int queries

    (* ns per journal entry undone: reserve a burst at the end of a
       [slots]-slot table, then release it in reverse order — exactly
       what Resource_state.rollback does after the reference level
       scheduler's tentative F(i,k) probe. *)
    let bench_rollback ~repeats ~slots =
      let tl = build slots in
      let burst = 100 in
      let base = float_of_int (2 * slots) in
      let ivs =
        List.init burst (fun i ->
            let start = base +. float_of_int (2 * i) in
            Interval.make ~start ~stop:(start +. 1.))
      in
      let per_run () =
        List.iter (fun iv -> T.reserve tl iv) ivs;
        List.iter (fun iv -> T.release tl iv) (List.rev ivs)
      in
      median_of ~repeats per_run *. 1e9 /. float_of_int (2 * burst)
  end

  module Indexed = Ops (Noc_util.Timeline)
  module Reference = Ops (Noc_oracle.Timeline_reference)

  type row = { op : string; slots : int; indexed_ns : float; reference_ns : float }

  let micro_rows () =
    List.concat_map
      (fun slots ->
        (* The O(n^2) reference rebuild at 10k slots is slow; three
           repeats keep the gate under a few seconds. *)
        let repeats = if slots >= 10_000 then 3 else 7 in
        [
          {
            op = "reserve";
            slots;
            indexed_ns = Indexed.bench_reserve ~repeats ~slots;
            reference_ns = Reference.bench_reserve ~repeats ~slots;
          };
          {
            op = "gap";
            slots;
            indexed_ns = Indexed.bench_gap ~repeats ~slots;
            reference_ns = Reference.bench_gap ~repeats ~slots;
          };
          {
            op = "rollback";
            slots;
            indexed_ns = Indexed.bench_rollback ~repeats ~slots;
            reference_ns = Reference.bench_rollback ~repeats ~slots;
          };
        ])
      [ 1_000; 10_000 ]

  (* Pre-kernel baseline: the category-I EAS median recorded by this
     gate before the flat-array kernel landed (BENCH_timeline.json
     history). The kernel PR's acceptance bar is >= 5x against it. *)
  let eas_baseline_s = 0.0642
  let eas_speedup_threshold = 5.

  let eas_rows () =
    let platform = Noc_tgff.Category.platform in
    let params = Noc_tgff.Category.params Noc_tgff.Category.Category_i in
    List.map
      (fun index ->
        let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed:(1_000 + index) in
        let wall =
          median_of ~repeats:3 (fun () ->
              ignore (Noc_eas.Eas.schedule platform ctg))
        in
        (Printf.sprintf "category-i/%d" index, wall))
      (List.init 10 Fun.id)

  let run file =
    (* Open the output before the measurements so a bad path fails in
       milliseconds, not after the full bench. *)
    let oc =
      try open_out file
      with Sys_error msg ->
        Printf.eprintf "cannot write bench output: %s\n" msg;
        exit 1
    in
    let rows = micro_rows () in
    let eas = eas_rows () in
    let combined which =
      List.fold_left
        (fun acc r ->
          if r.slots = 10_000 && (r.op = "reserve" || r.op = "gap") then
            acc +. which r
          else acc)
        0. rows
    in
    let speedup =
      combined (fun r -> r.reference_ns) /. combined (fun r -> r.indexed_ns)
    in
    let buf = Buffer.create 2048 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"schema\": \"nocsched/bench-timeline/v2\",\n";
    Buffer.add_string buf "  \"timeline_ns_per_op\": [\n";
    List.iteri
      (fun i r ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"op\": %S, \"slots\": %d, \"indexed\": %.1f, \"reference\": \
              %.1f}%s\n"
             r.op r.slots r.indexed_ns r.reference_ns
             (if i = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string buf "  ],\n";
    Buffer.add_string buf
      (Printf.sprintf "  \"speedup_reserve_gap_10k_vs_reference\": %.1f,\n" speedup);
    Buffer.add_string buf "  \"eas_wall_s\": [\n";
    List.iteri
      (fun i (name, wall) ->
        Buffer.add_string buf
          (Printf.sprintf "    {\"benchmark\": %S, \"median_s\": %.4f}%s\n" name wall
             (if i = List.length eas - 1 then "" else ",")))
      eas;
    Buffer.add_string buf "  ],\n";
    let walls = Array.of_list (List.map snd eas) in
    let p50 = Noc_util.Stats.percentile walls ~p:50. in
    let p90 = Noc_util.Stats.percentile walls ~p:90. in
    let eas_speedup = eas_baseline_s /. p50 in
    Buffer.add_string buf
      (Printf.sprintf "  \"eas_category_i_p50_s\": %.4f,\n" p50);
    Buffer.add_string buf
      (Printf.sprintf "  \"eas_category_i_p90_s\": %.4f,\n" p90);
    Buffer.add_string buf
      (Printf.sprintf "  \"eas_baseline_s\": %.4f,\n" eas_baseline_s);
    Buffer.add_string buf
      (Printf.sprintf "  \"eas_speedup_vs_baseline\": %.1f\n" eas_speedup);
    Buffer.add_string buf "}\n";
    output_string oc (Buffer.contents buf);
    close_out oc;
    print_string (Buffer.contents buf);
    Printf.printf "wrote %s\n" file;
    if speedup < 5. then begin
      Printf.eprintf
        "bench gate FAILED: reserve+gap at 10k slots only %.1fx faster than the \
         reference list implementation (need >= 5x)\n"
        speedup;
      exit 1
    end;
    if eas_speedup < eas_speedup_threshold then begin
      Printf.eprintf
        "bench gate FAILED: category-I EAS p50 wall time %.4f s is only %.1fx \
         faster than the %.4f s pre-kernel baseline (need >= %.1fx)\n"
        p50 eas_speedup eas_baseline_s eas_speedup_threshold;
      exit 1
    end
end

(* ------------------------------------------------------------------ *)
(* Parallel bench gate (parallel): serial vs parallel campaign wall
   times plus a bit-for-bit divergence check, persisted as
   BENCH_parallel.json. The divergence gate is unconditional — the pool
   must be invisible in the results at every job count. The speedup gate
   only binds when the machine actually exposes a second core; on a
   single-core host the run still records the measured ratio so the
   trajectory is visible across environments. *)

module Parallel_bench = struct
  let threshold = 1.7

  (* Every field of a suite result except the wall-clock runtimes,
     rendered as hex floats so serial and parallel runs are compared bit
     for bit. *)
  let fingerprint (result : Noc_experiments.Random_suite.result) =
    let buf = Buffer.create 4096 in
    let eval (e : Noc_experiments.Runner.evaluation) =
      let m = e.Noc_experiments.Runner.metrics in
      Buffer.add_string buf
        (Printf.sprintf
           "%s total=%h comp=%h comm=%h mk=%h hops=%h miss=%d rv=%d; "
           (Noc_experiments.Runner.algo_name e.Noc_experiments.Runner.algo)
           m.Noc_sched.Metrics.total_energy m.Noc_sched.Metrics.computation_energy
           m.Noc_sched.Metrics.communication_energy m.Noc_sched.Metrics.makespan
           m.Noc_sched.Metrics.average_hops
           (Noc_sched.Metrics.miss_count m)
           e.Noc_experiments.Runner.resource_violations)
    in
    List.iter
      (fun (r : Noc_experiments.Random_suite.row) ->
        Buffer.add_string buf (Printf.sprintf "row %d: " r.index);
        eval r.eas_base;
        eval r.eas;
        eval r.edf;
        Buffer.add_char buf '\n')
      result.Noc_experiments.Random_suite.rows;
    Buffer.add_string buf
      (Printf.sprintf "avg_edf_excess=%h\n"
         result.Noc_experiments.Random_suite.average_edf_excess);
    Buffer.contents buf

  let run ~quick file =
    let oc =
      try open_out file
      with Sys_error msg ->
        Printf.eprintf "cannot write bench output: %s\n" msg;
        exit 1
    in
    let scale = if quick then Some 0.3 else None in
    let suite jobs =
      Noc_experiments.Random_suite.run ~jobs ?scale Noc_tgff.Category.Category_i
    in
    let jobs = max 2 (Noc_util.Pool.default_jobs ()) in
    let cores = Domain.recommended_domain_count () in
    (* Divergence first (also warms code paths and route memos), then
       the timed runs. *)
    let suite_divergence = fingerprint (suite 1) <> fingerprint (suite jobs) in
    let campaign j =
      Noc_experiments.Fault_campaign.to_json
        (Noc_experiments.Fault_campaign.run ~jobs:j ~scale:0.08 ~n_graphs:2
           ~n_trials:2 ())
    in
    let campaign_divergence = campaign 1 <> campaign jobs in
    let serial_wall = Json_bench.median_of ~repeats:3 (fun () -> ignore (suite 1)) in
    let parallel_wall =
      Json_bench.median_of ~repeats:3 (fun () -> ignore (suite jobs))
    in
    let speedup = serial_wall /. parallel_wall in
    let gate_enforced = cores >= 2 in
    let divergence = suite_divergence || campaign_divergence in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"schema\": \"nocsched/bench-parallel/v1\",\n";
    Buffer.add_string buf
      (Printf.sprintf "  \"workload\": \"random-suite/category-i%s\",\n"
         (if quick then " (scale 0.3)" else ""));
    Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" jobs);
    Buffer.add_string buf (Printf.sprintf "  \"cores_available\": %d,\n" cores);
    Buffer.add_string buf (Printf.sprintf "  \"serial_wall_s\": %.4f,\n" serial_wall);
    Buffer.add_string buf
      (Printf.sprintf "  \"parallel_wall_s\": %.4f,\n" parallel_wall);
    Buffer.add_string buf (Printf.sprintf "  \"speedup\": %.3f,\n" speedup);
    Buffer.add_string buf (Printf.sprintf "  \"gate_threshold\": %.1f,\n" threshold);
    Buffer.add_string buf
      (Printf.sprintf "  \"gate_enforced\": %b,\n" gate_enforced);
    Buffer.add_string buf
      (Printf.sprintf "  \"random_suite_divergence\": %b,\n" suite_divergence);
    Buffer.add_string buf
      (Printf.sprintf "  \"fault_campaign_divergence\": %b\n" campaign_divergence);
    Buffer.add_string buf "}\n";
    output_string oc (Buffer.contents buf);
    close_out oc;
    print_string (Buffer.contents buf);
    Printf.printf "wrote %s\n" file;
    if divergence then begin
      Printf.eprintf
        "bench gate FAILED: parallel results diverge from the serial run \
         (random suite: %b, fault campaign: %b)\n"
        suite_divergence campaign_divergence;
      exit 1
    end;
    if gate_enforced && speedup < threshold then begin
      Printf.eprintf
        "bench gate FAILED: %d-domain speedup only %.2fx on %d cores (need >= \
         %.1fx)\n"
        jobs speedup cores threshold;
      exit 1
    end
end

(* ------------------------------------------------------------------ *)
(* Observability bench gate (obs): cost of the Noc_obs instrumentation,
   persisted as BENCH_obs.json.

   Two gates:
   - Disabled overhead <= 3% of the untraced category-I suite wall time.
     There is no un-instrumented binary to diff against, so the bound is
     analytic: an enabled run counts how many instrumented calls the
     suite actually makes (counter increments, spans, decision records),
     micro-benchmarks price one *disabled* call of each primitive, and
     the product over the disabled wall time bounds the drag the
     always-compiled-in instrumentation can add. The enabled/disabled
     wall ratio is recorded as well (informational, not gated — it
     includes real work: buffering events, wall-clock reads).
   - Determinism: counter totals and the decision-log export must be
     bit-identical at --jobs 1, 2 and 4. Route memos are warmed first so
     the in-process cache state is the same for every measured run. *)

module Obs_bench = struct
  let overhead_threshold_pct = 3.0
  let job_counts = [ 1; 2; 4 ]

  let suite ~jobs () =
    ignore
      (Noc_experiments.Random_suite.run ~jobs ~scale:0.2 Noc_tgff.Category.Category_i)

  let disable_all () =
    Noc_obs.Counters.set_enabled false;
    Noc_obs.Trace.set_enabled false;
    Noc_obs.Decisions.set_enabled false

  let reset_all () =
    Noc_obs.Counters.reset ();
    Noc_obs.Trace.reset ();
    Noc_obs.Decisions.reset ()

  (* ns per disabled call: time [n] calls of [f] through the same
     loop-plus-indirect-call harness as an empty closure and charge the
     primitive the difference, so the price is the marginal cost of the
     call itself (real sites call the primitives directly). *)
  let price =
    let loop ~n g =
      Json_bench.median_of ~repeats:5 (fun () ->
          for _ = 1 to n do
            g ()
          done)
    in
    fun ~n f ->
      let baseline = loop ~n (fun () -> ()) in
      Float.max 0. ((loop ~n f -. baseline) *. 1e9 /. float_of_int n)

  let run file =
    let oc =
      try open_out file
      with Sys_error msg ->
        Printf.eprintf "cannot write bench output: %s\n" msg;
        exit 1
    in
    disable_all ();
    reset_all ();
    (* Warm code paths and the shared platform's route memo: later runs
       all see the same fully-populated cache. *)
    suite ~jobs:1 ();
    let disabled_wall = Json_bench.median_of ~repeats:3 (fun () -> suite ~jobs:1 ()) in
    (* Count the instrumented calls one enabled run actually makes. *)
    reset_all ();
    Noc_obs.Counters.set_enabled true;
    Noc_obs.Trace.set_enabled true;
    Noc_obs.Decisions.set_enabled true;
    suite ~jobs:1 ();
    let counter_ops =
      List.fold_left (fun acc (_, v) -> acc + v) 0 (Noc_obs.Counters.snapshot ())
    in
    let span_ops = Noc_obs.Trace.event_count () in
    let decision_ops = Noc_obs.Decisions.count () in
    let enabled_wall = Json_bench.median_of ~repeats:3 (fun () -> suite ~jobs:1 ()) in
    disable_all ();
    reset_all ();
    (* Price one disabled call of each primitive. *)
    let c = Noc_obs.Counters.counter "bench.obs.disabled" in
    let counter_ns = price ~n:10_000_000 (fun () -> Noc_obs.Counters.incr c) in
    let noop = Fun.const () in
    let span_ns =
      price ~n:1_000_000 (fun () -> Noc_obs.Trace.span "bench/noop" noop)
    in
    let finishes = Array.make 16 1.0 in
    let decision_ns =
      price ~n:1_000_000 (fun () ->
          Noc_obs.Decisions.record ~task:0 ~rule:"regret" ~chosen:0
            ~budgeted_deadline:1.0 ~finishes)
    in
    let estimated_overhead_pct =
      (float_of_int counter_ops *. counter_ns
      +. (float_of_int span_ops *. span_ns)
      +. (float_of_int decision_ops *. decision_ns))
      /. (disabled_wall *. 1e9)
      *. 100.
    in
    (* Determinism across job counts: counters and decision log must not
       depend on how the pool carved up the campaign. *)
    let captures =
      List.map
        (fun jobs ->
          reset_all ();
          Noc_obs.Counters.set_enabled true;
          Noc_obs.Decisions.set_enabled true;
          suite ~jobs ();
          let snapshot = Noc_obs.Counters.snapshot () in
          let decisions = Noc_obs.Decisions.export_jsonl () in
          disable_all ();
          reset_all ();
          (jobs, snapshot, decisions))
        job_counts
    in
    let counters_identical, decisions_identical =
      match captures with
      | [] | [ _ ] -> (true, true)
      | (_, snap1, dec1) :: rest ->
        ( List.for_all (fun (_, snap, _) -> snap = snap1) rest,
          List.for_all (fun (_, _, dec) -> dec = dec1) rest )
    in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"schema\": \"nocsched/bench-obs/v1\",\n";
    Buffer.add_string buf
      "  \"workload\": \"random-suite/category-i (scale 0.2)\",\n";
    Buffer.add_string buf
      (Printf.sprintf "  \"disabled_wall_s\": %.4f,\n" disabled_wall);
    Buffer.add_string buf
      (Printf.sprintf "  \"enabled_wall_s\": %.4f,\n" enabled_wall);
    Buffer.add_string buf
      (Printf.sprintf "  \"enabled_over_disabled\": %.3f,\n"
         (enabled_wall /. disabled_wall));
    Buffer.add_string buf
      (Printf.sprintf
         "  \"instrumented_calls\": {\"counter\": %d, \"span\": %d, \"decision\": \
          %d},\n"
         counter_ops span_ops decision_ops);
    Buffer.add_string buf
      (Printf.sprintf
         "  \"disabled_call_ns\": {\"counter\": %.2f, \"span\": %.2f, \"decision\": \
          %.2f},\n"
         counter_ns span_ns decision_ns);
    Buffer.add_string buf
      (Printf.sprintf "  \"estimated_disabled_overhead_pct\": %.4f,\n"
         estimated_overhead_pct);
    Buffer.add_string buf
      (Printf.sprintf "  \"overhead_threshold_pct\": %.1f,\n" overhead_threshold_pct);
    Buffer.add_string buf
      (Printf.sprintf "  \"jobs_checked\": [%s],\n"
         (String.concat ", " (List.map string_of_int job_counts)));
    Buffer.add_string buf
      (Printf.sprintf "  \"counters_identical_across_jobs\": %b,\n" counters_identical);
    Buffer.add_string buf
      (Printf.sprintf "  \"decisions_identical_across_jobs\": %b\n" decisions_identical);
    Buffer.add_string buf "}\n";
    output_string oc (Buffer.contents buf);
    close_out oc;
    print_string (Buffer.contents buf);
    Printf.printf "wrote %s\n" file;
    if estimated_overhead_pct > overhead_threshold_pct then begin
      Printf.eprintf
        "bench gate FAILED: disabled instrumentation overhead %.3f%% exceeds %.1f%%\n"
        estimated_overhead_pct overhead_threshold_pct;
      exit 1
    end;
    if not (counters_identical && decisions_identical) then begin
      Printf.eprintf
        "bench gate FAILED: observability output depends on --jobs (counters \
         identical: %b, decisions identical: %b)\n"
        counters_identical decisions_identical;
      exit 1
    end
end

(* ------------------------------------------------------------------ *)
(* Scheduling-service bench gate (serve): drives a real daemon over its
   Unix socket and persists BENCH_serve.json.

   Three measurements, two gates:
   - Handler latency ([Server.handle_line], the figure the daemon's
     serve/<op> histograms record), cold (every request a cache miss:
     full EAS + certification) vs warm (every request a certified cache
     hit). Timed in-process so the single-core scheduling jitter of
     running client and daemon domains side by side does not pollute
     the tail. Gate: warm p99 at least [warm_speedup_threshold]x below
     cold p99 — the cache must make repeat requests essentially free.
   - Sustained warm requests/sec through a real daemon over its Unix
     socket (informational: it is dominated by the round trip, not by
     scheduling).
   - Incremental rescheduling: the Fault_resched migrate-rebuild-repair
     ladder the daemon runs for [reschedule] requests vs a full EAS
     re-run on the same degraded platform, timed in-process so both
     sides pay identical instrumentation. Gate: ladder median at least
     [resched_speedup_threshold]x faster. *)

module Serve_bench = struct
  let warm_speedup_threshold = 10.
  let resched_speedup_threshold = 2.
  let n_graphs = 8
  let n_tasks = 60
  let warm_rounds = 50
  let fault_spec = "pe:5"

  let percentile samples ~p =
    Noc_util.Stats.percentile (Array.of_list samples) ~p

  let assert_ok reply =
    match Noc_obs.Json.parse reply with
    | Ok obj when Noc_obs.Json.member "ok" obj = Some (Noc_obs.Json.Bool true) ->
      obj
    | Ok _ | Error _ ->
      Printf.eprintf "serve bench: daemon refused a request: %s\n" reply;
      exit 1

  let int_member name obj =
    match Noc_obs.Json.member name obj with
    | Some (Noc_obs.Json.Number n) -> int_of_float n
    | Some _ | None -> -1

  let run file =
    let oc =
      try open_out file
      with Sys_error msg ->
        Printf.eprintf "cannot write bench output: %s\n" msg;
        exit 1
    in
    let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:4 ~rows:4 () in
    Noc_noc.Platform.warm_routes platform;
    let params = { Noc_tgff.Params.default with n_tasks } in
    let graphs =
      List.init n_graphs (fun i ->
          Noc_tgff.Generate.generate ~params ~platform ~seed:(3_000 + i))
    in
    let lines =
      List.map
        (fun ctg ->
          Noc_serve.Protocol.(
            request_to_line
              (Schedule
                 {
                   ctg_text = Noc_ctg.Ctg_io.to_string ctg;
                   mesh = (4, 4);
                   algo = Noc_experiments.Runner.Eas;
                   decisions = false;
                   dvfs = None;
                 })))
        graphs
    in
    (* Handler latency, in-process: one server state, cold pass fills
       the cache, warm passes hit it. *)
    let state =
      Noc_serve.Server.make_state
        (Noc_serve.Server.default_config ~socket_path:"unused")
    in
    let timed line =
      let t0 = Unix.gettimeofday () in
      let reply, _ = Noc_serve.Server.handle_line state line in
      ignore (assert_ok reply);
      (Unix.gettimeofday () -. t0) *. 1000.
    in
    let cold = List.map timed lines in
    let warm =
      List.concat (List.init warm_rounds (fun _ -> List.map timed lines))
    in
    (* Wire throughput: the same warm workload through a real daemon
       over its Unix socket. *)
    let socket_path =
      Printf.sprintf "%s/nocsched-bench-serve-%d.sock"
        (Filename.get_temp_dir_name ()) (Unix.getpid ())
    in
    let ready = Atomic.make false in
    let daemon =
      Domain.spawn (fun () ->
          Noc_serve.Server.run
            ~on_ready:(fun () -> Atomic.set ready true)
            { Noc_serve.Server.socket_path; capacity = 64; jobs = None })
    in
    while not (Atomic.get ready) do
      Unix.sleepf 0.002
    done;
    let wire_requests, wire_wall, stats_reply =
      Noc_serve.Client.with_connection ~socket_path (fun client ->
          let send line = ignore (assert_ok (Noc_serve.Client.request client line)) in
          List.iter send lines;
          let t0 = Unix.gettimeofday () in
          let n = ref 0 in
          for _ = 1 to warm_rounds do
            List.iter send lines;
            n := !n + List.length lines
          done;
          let wire_wall = Unix.gettimeofday () -. t0 in
          let stats_reply =
            assert_ok
              (Noc_serve.Client.request client
                 Noc_serve.Protocol.(request_to_line Stats))
          in
          ignore
            (assert_ok
               (Noc_serve.Client.request client
                  Noc_serve.Protocol.(request_to_line Shutdown)));
          (!n, wire_wall, stats_reply))
    in
    Domain.join daemon;
    let cache_stats =
      match Noc_obs.Json.member "cache" stats_reply with
      | Some obj ->
        (int_member "hits" obj, int_member "misses" obj, int_member "evictions" obj)
      | None -> (-1, -1, -1)
    in
    let cold_p50 = percentile cold ~p:50. and cold_p99 = percentile cold ~p:99. in
    let warm_p50 = percentile warm ~p:50. and warm_p99 = percentile warm ~p:99. in
    let warm_speedup = cold_p99 /. warm_p99 in
    let requests_per_sec = float_of_int wire_requests /. wire_wall in
    (* Incremental reschedule vs full degraded re-run, in-process. *)
    let faults =
      match Noc_fault.Fault_set.of_strings [ fault_spec ] with
      | Ok f -> f
      | Error msg ->
        Printf.eprintf "serve bench: bad fault spec: %s\n" msg;
        exit 1
    in
    let degraded = Noc_fault.Fault_set.degraded faults platform in
    let full_reruns = ref 0 in
    let resched_rows =
      List.map
        (fun ctg ->
          let base = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule in
          let outcome = Noc_eas.Fault_resched.run platform ctg ~faults base in
          if outcome.Noc_eas.Fault_resched.stats.Noc_eas.Fault_resched.used_full_rerun
          then incr full_reruns;
          let incremental_s =
            Json_bench.median_of ~repeats:3 (fun () ->
                ignore (Noc_eas.Fault_resched.run platform ctg ~faults base))
          in
          let full_s =
            Json_bench.median_of ~repeats:3 (fun () ->
                ignore (Noc_eas.Eas.schedule ~degraded platform ctg))
          in
          (incremental_s, full_s))
        graphs
    in
    let incremental_median =
      Json_bench.median (List.map fst resched_rows) *. 1000.
    in
    let full_median = Json_bench.median (List.map snd resched_rows) *. 1000. in
    let resched_speedup = full_median /. incremental_median in
    let hits, misses, evictions = cache_stats in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"schema\": \"nocsched/bench-serve/v1\",\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"workload\": \"tgff %d-task x%d on 4x4 mesh, eas, unix socket\",\n"
         n_tasks n_graphs);
    Buffer.add_string buf
      (Printf.sprintf "  \"requests_per_sec\": %.0f,\n" requests_per_sec);
    Buffer.add_string buf
      (Printf.sprintf "  \"cold_p50_ms\": %.3f,\n  \"cold_p99_ms\": %.3f,\n"
         cold_p50 cold_p99);
    Buffer.add_string buf
      (Printf.sprintf "  \"warm_p50_ms\": %.3f,\n  \"warm_p99_ms\": %.3f,\n"
         warm_p50 warm_p99);
    Buffer.add_string buf
      (Printf.sprintf "  \"warm_speedup_p99\": %.1f,\n" warm_speedup);
    Buffer.add_string buf
      (Printf.sprintf "  \"warm_speedup_threshold\": %.1f,\n"
         warm_speedup_threshold);
    Buffer.add_string buf
      (Printf.sprintf
         "  \"cache\": {\"hits\": %d, \"misses\": %d, \"evictions\": %d},\n" hits
         misses evictions);
    Buffer.add_string buf (Printf.sprintf "  \"fault\": %S,\n" fault_spec);
    Buffer.add_string buf
      (Printf.sprintf "  \"resched_incremental_median_ms\": %.3f,\n"
         incremental_median);
    Buffer.add_string buf
      (Printf.sprintf "  \"resched_full_rerun_median_ms\": %.3f,\n" full_median);
    Buffer.add_string buf
      (Printf.sprintf "  \"resched_speedup\": %.2f,\n" resched_speedup);
    Buffer.add_string buf
      (Printf.sprintf "  \"resched_speedup_threshold\": %.1f,\n"
         resched_speedup_threshold);
    Buffer.add_string buf
      (Printf.sprintf "  \"resched_ladder_full_reruns\": %d\n" !full_reruns);
    Buffer.add_string buf "}\n";
    output_string oc (Buffer.contents buf);
    close_out oc;
    print_string (Buffer.contents buf);
    Printf.printf "wrote %s\n" file;
    if warm_speedup < warm_speedup_threshold then begin
      Printf.eprintf
        "bench gate FAILED: warm cache-hit p99 %.3f ms is only %.1fx below the \
         cold-schedule p99 %.3f ms (need >= %.1fx)\n"
        warm_p99 warm_speedup cold_p99 warm_speedup_threshold;
      exit 1
    end;
    if resched_speedup < resched_speedup_threshold then begin
      Printf.eprintf
        "bench gate FAILED: incremental reschedule median %.3f ms is only %.2fx \
         faster than the %.3f ms full re-run (need >= %.1fx)\n"
        incremental_median resched_speedup full_median resched_speedup_threshold;
      exit 1
    end
end

(* ------------------------------------------------------------------ *)
(* Turn-model routing bench gate (routing): relation-proof wall time
   per model on the 8x8 acceptance mesh, plus a Monte-Carlo detour
   survivability sweep over sampled two-link-fault sets on the 4x4
   mesh (the fault_campaign seeding idiom). Persists BENCH_routing.json.

   Three gates:
   - Every model's relation proof on 8x8 must come back clean — zero
     diagnostics, acyclic CDG (the PR's acceptance criterion).
   - Soundness of the turn-legal detour search: on every sampled fault
     set whose degraded route set stays entirely inside a model's
     turn-legal walk set, the CDG must be acyclic (Glass & Ni, checked
     empirically). Fault sets that force a BFS fallback — a failed
     west link can strand west-first, and odd-even provably has no
     turn-legal 5->6 route under the PR-3 pair — carry no guarantee
     and are reported informationally.
   - The explicit PR-3 two-fault case must be solved by west-first:
     all detours turn-legal and the route set acyclic. *)
module Routing_bench = struct
  module Turn_model = Noc_noc.Turn_model
  module Deadlock = Noc_analysis.Deadlock
  module Fault_set = Noc_fault.Fault_set

  let n_fault_sets = 12
  let proof_repeats = 5

  let median samples = Noc_util.Stats.percentile (Array.of_list samples) ~p:50.

  let run file =
    let oc =
      try open_out file
      with Sys_error msg ->
        Printf.eprintf "cannot write bench output: %s\n" msg;
        exit 1
    in
    (* Relation proofs on the 8x8 acceptance mesh. *)
    let proof_platform =
      Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:8 ~rows:8 ()
    in
    let proofs =
      List.map
        (fun routing ->
          let samples =
            List.init proof_repeats (fun _ ->
                let t0 = Unix.gettimeofday () in
                ignore (Deadlock.check_routing ~routing proof_platform);
                (Unix.gettimeofday () -. t0) *. 1000.)
          in
          let diagnostics = Deadlock.check_routing ~routing proof_platform in
          let cdg = Deadlock.cdg_of_routing routing proof_platform in
          ( routing,
            median samples,
            List.length diagnostics,
            Noc_analysis.Cdg.n_channels cdg,
            Noc_analysis.Cdg.n_dependencies cdg ))
        Turn_model.all
    in
    (* Monte-Carlo detour survivability on the 4x4 mesh: sampled
       two-link fault sets plus the explicit PR-3 pair. *)
    let sample_platform =
      Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:4 ~rows:4 ()
    in
    let fault_sets =
      List.init n_fault_sets (fun i ->
          ( Printf.sprintf "sample-%d" i,
            Fault_set.sample ~seed:(700 + i) ~platform:sample_platform
              ~n_link_faults:2 ~n_pe_faults:0 () ))
      @ [
          ( "pr3-two-fault",
            match Fault_set.of_strings [ "link:5-6"; "link:9-5" ] with
            | Ok f -> f
            | Error msg ->
              Printf.eprintf "routing bench: bad fault spec: %s\n" msg;
              exit 1 );
        ]
    in
    let all_turn_legal routing topo routes =
      List.for_all
        (fun route ->
          let rec ok = function
            | prev :: (via :: next :: _ as rest) ->
              Turn_model.turn_legal routing topo ~prev ~via ~next && ok rest
            | _ -> true
          in
          ok route)
        routes
    in
    let survival =
      List.map
        (fun routing ->
          let platform =
            Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~routing ~cols:4
              ~rows:4 ()
          in
          let topo = Noc_noc.Platform.topology platform in
          let per_set =
            List.map
              (fun (label, faults) ->
                let cyclic =
                  List.exists
                    (fun (d : Noc_analysis.Diagnostic.t) ->
                      d.rule = "deadlock/cyclic-cdg")
                    (Deadlock.check_degraded platform faults)
                in
                let routes, _ =
                  Deadlock.degraded_routes (Fault_set.degraded faults platform)
                in
                (label, (all_turn_legal routing topo routes, not cyclic)))
              fault_sets
          in
          (routing, per_set))
        Turn_model.all
    in
    (* Render, persist, gate. *)
    Printf.printf "relation proofs (8x8 mesh, median of %d runs):\n" proof_repeats;
    List.iter
      (fun (routing, ms, diags, channels, deps) ->
        Printf.printf "  %-10s  %7.2f ms  %d diagnostics  %d channels  %d deps\n"
          (Turn_model.name routing) ms diags channels deps)
      proofs;
    Printf.printf "degraded-detour survivability (4x4 mesh, %d fault sets):\n"
      (List.length fault_sets);
    List.iter
      (fun (routing, per_set) ->
        let count f = List.length (List.filter (fun (_, r) -> f r) per_set) in
        let acyclic = count snd and legal = count fst in
        let pr3_legal, pr3_acyclic = List.assoc "pr3-two-fault" per_set in
        Printf.printf
          "  %-10s  %2d/%d acyclic  %2d/%d fully turn-legal  (pr3 two-fault: \
           %s, %s)\n"
          (Turn_model.name routing) acyclic (List.length per_set) legal
          (List.length per_set)
          (if pr3_acyclic then "acyclic" else "cyclic")
          (if pr3_legal then "turn-legal" else "BFS fallback"))
      survival;
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"schema\": \"nocsched/bench-routing/v1\",\n";
    Buffer.add_string buf "  \"proof_mesh\": \"8x8\",\n";
    Buffer.add_string buf "  \"proofs\": [\n";
    List.iteri
      (fun i (routing, ms, diags, channels, deps) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"routing\": \"%s\", \"wall_ms\": %.3f, \"diagnostics\": %d, \
              \"channels\": %d, \"dependencies\": %d}%s\n"
             (Turn_model.name routing) ms diags channels deps
             (if i < List.length proofs - 1 then "," else "")))
      proofs;
    Buffer.add_string buf "  ],\n";
    Buffer.add_string buf "  \"campaign_mesh\": \"4x4\",\n";
    Buffer.add_string buf
      (Printf.sprintf "  \"fault_sets\": %d,\n" (List.length fault_sets));
    Buffer.add_string buf "  \"survival\": [\n";
    List.iteri
      (fun i (routing, per_set) ->
        let count f = List.length (List.filter (fun (_, r) -> f r) per_set) in
        let pr3_legal, pr3_acyclic = List.assoc "pr3-two-fault" per_set in
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"routing\": \"%s\", \"acyclic\": %d, \"turn_legal\": %d, \
              \"total\": %d, \"pr3_acyclic\": %b, \"pr3_turn_legal\": %b}%s\n"
             (Turn_model.name routing) (count snd) (count fst)
             (List.length per_set) pr3_acyclic pr3_legal
             (if i < List.length survival - 1 then "," else "")))
      survival;
    Buffer.add_string buf "  ],\n";
    let proofs_clean = List.for_all (fun (_, _, d, _, _) -> d = 0) proofs in
    let legal_implies_acyclic =
      List.for_all
        (fun (_, per_set) ->
          List.for_all (fun (_, (legal, acyclic)) -> (not legal) || acyclic)
            per_set)
        survival
    in
    let pr3_legal, pr3_acyclic =
      List.assoc "pr3-two-fault" (List.assoc Turn_model.West_first survival)
    in
    let pr3_solved = pr3_legal && pr3_acyclic in
    Buffer.add_string buf
      (Printf.sprintf
         "  \"gate\": {\"proofs_clean\": %b, \"legal_implies_acyclic\": %b, \
          \"pr3_solved_by_west_first\": %b}\n"
         proofs_clean legal_implies_acyclic pr3_solved);
    Buffer.add_string buf "}\n";
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "wrote %s\n" file;
    if not proofs_clean then begin
      Printf.eprintf
        "bench gate FAILED: a turn-model relation proof on the 8x8 mesh \
         reported diagnostics\n";
      exit 1
    end;
    if not legal_implies_acyclic then begin
      Printf.eprintf
        "bench gate FAILED: a fully turn-legal degraded route set has a \
         cyclic CDG (turn-model theorem violated)\n";
      exit 1
    end;
    if not pr3_solved then begin
      Printf.eprintf
        "bench gate FAILED: west-first no longer solves the PR-3 two-fault \
         case (turn-legal %b, acyclic %b)\n"
        pr3_legal pr3_acyclic;
      exit 1
    end
end

(* Mapping-search bench gate (mapping): delta-eval latency vs a full
   objective recompute on the category-III acceptance instance
   (~2000 tasks on the 16x16 mesh), search determinism across job
   counts and chain prefixes, and the persisted energy/latency Pareto
   table. Persists BENCH_mapping.json.

   Three gates:
   - A swap scored with [Objective.swap_delta] (O(incident arcs)) must
     be >= 20x faster than [Objective.full_value] at acceptance scale.
   - At balance weight 0 the annealed point's pinned-EAS energy must
     not exceed the identity mapping's on any swept mesh: chain 0
     starts from identity and the pure-energy objective equals the
     Eq.-3 total, so the best static survivor can only improve on it.
   - [Search.run] must return identical results at jobs 1/2/4, and the
     first chains of a wider search must reproduce a narrower one
     (per-chain PRNG streams depend only on (seed, chain)). *)
module Mapping_bench = struct
  module Objective = Noc_map.Objective
  module Search = Noc_map.Search

  let delta_speedup_threshold = 20.
  let samples = 50
  let delta_batch = 200
  let full_batch = 5

  let percentile samples ~p =
    Noc_util.Stats.percentile (Array.of_list samples) ~p

  (* Everything [Search.run] computed, in a structurally comparable
     shape (floats compare bitwise under (=) here — the invariance
     being gated is exact, not approximate). *)
  let digest (r : Search.result) =
    ( List.map
        (fun (c : Search.chain_result) ->
          (c.chain, c.value, c.accepted, Array.to_list c.best_mapping))
        r.chain_results,
      List.map
        (fun (c : Search.candidate) ->
          ( Search.origin_name c.origin, c.static_value, c.energy, c.makespan,
            c.misses, Array.to_list c.mapping ))
        r.candidates,
      Array.to_list r.winner.mapping )

  let chain_digests (r : Search.result) =
    List.map
      (fun (c : Search.chain_result) ->
        (c.chain, c.value, c.accepted, Array.to_list c.best_mapping))
      r.chain_results

  let run ~quick file =
    let oc =
      try open_out file
      with Sys_error msg ->
        Printf.eprintf "cannot write bench output: %s\n" msg;
        exit 1
    in
    (* Delta vs full recompute on the acceptance instance. The deltas
       are ~100 ns each, so both paths are timed in batches and the
       percentiles are over per-batch means. *)
    let cols, rows, scale = if quick then (8, 8, 0.2) else (16, 16, 1.0) in
    let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols ~rows () in
    let params =
      Noc_tgff.Category.scaled_params Noc_tgff.Category.Category_iii ~scale
    in
    let seed = Noc_tgff.Category.seed_of Noc_tgff.Category.Category_iii 1 in
    let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed in
    let kernel = Noc_eas.Kernel.build platform ctg in
    let tables = Objective.lift platform kernel ctg in
    let n_tasks = Noc_ctg.Ctg.n_tasks ctg in
    let state =
      Objective.create tables
        (Search.identity_mapping ~n_tasks ~n_pes:(cols * rows))
    in
    let rng = Noc_util.Prng.create ~seed:7 in
    let pairs =
      (* Fixed proposal set so the RNG is outside the timed region. *)
      Array.init delta_batch (fun _ ->
          ( Noc_util.Prng.int rng ~bound:n_tasks,
            Noc_util.Prng.int rng ~bound:n_tasks ))
    in
    let time_batch n f =
      let t0 = Unix.gettimeofday () in
      for i = 0 to n - 1 do
        f i
      done;
      (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e9
    in
    let sink = ref 0. in
    let delta_ns =
      List.init samples (fun _ ->
          time_batch delta_batch (fun i ->
              let a, b = pairs.(i) in
              sink := !sink +. Objective.swap_delta state ~a ~b))
    in
    let mapping = Objective.mapping state in
    let full_ns =
      List.init samples (fun _ ->
          time_batch full_batch (fun _ ->
              sink := !sink +. Objective.full_value tables mapping))
    in
    ignore !sink;
    let delta_p50 = percentile delta_ns ~p:50. in
    let delta_p99 = percentile delta_ns ~p:99. in
    let full_p50 = percentile full_ns ~p:50. in
    let full_p99 = percentile full_ns ~p:99. in
    let delta_speedup = full_p50 /. delta_p50 in
    (* Determinism on a smaller instance (the invariance is exact at
       every size; this keeps four full searches cheap). *)
    let det_platform =
      Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:8 ~rows:8 ()
    in
    let det_params =
      Noc_tgff.Category.scaled_params Noc_tgff.Category.Category_iii ~scale:0.25
    in
    let det_ctg =
      Noc_tgff.Generate.generate ~params:det_params ~platform:det_platform ~seed
    in
    let det_kernel = Noc_eas.Kernel.build det_platform det_ctg in
    let search ?chains jobs =
      let params =
        match chains with
        | None -> Search.default_params
        | Some chains -> { Search.default_params with chains }
      in
      Search.run ~jobs ~params ~kernel:det_kernel det_platform det_ctg
    in
    let r1 = search 1 in
    let jobs_invariant =
      digest (search 2) = digest r1 && digest (search 4) = digest r1
    in
    let chain_prefix_invariant =
      (* The first 2 chains of the default 4-chain search must be the
         2-chain search verbatim (streams keyed by (seed, chain)). *)
      let narrow = chain_digests (search ~chains:2 1) in
      List.filteri (fun i _ -> i < List.length narrow) (chain_digests r1)
      = narrow
    in
    (* The persisted Pareto table, one annealed point per balance
       weight vs the identity placement. *)
    let pareto =
      if quick then
        Noc_experiments.Topology_compare.pareto ~meshes:[ (8, 8) ] ~scale:0.2 ()
      else Noc_experiments.Topology_compare.pareto ()
    in
    let sa_vs_identity =
      List.map
        (fun (r : Noc_experiments.Topology_compare.pareto_row) ->
          let find label =
            List.find
              (fun (p : Noc_experiments.Topology_compare.point) -> p.label = label)
              r.points
          in
          (r.mesh, find "identity", find "sa/balance=0"))
        pareto.Noc_experiments.Topology_compare.rows
    in
    let energy_gate =
      (* Tiny relative epsilon: the two pinned-EAS totals are summed in
         schedule order, the static objective in table order. *)
      List.for_all
        (fun ( _,
               (id : Noc_experiments.Topology_compare.point),
               (sa : Noc_experiments.Topology_compare.point) ) ->
          sa.energy <= id.energy *. (1. +. 1e-9))
        sa_vs_identity
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"schema\": \"nocsched/bench-mapping/v1\",\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"workload\": \"category-III tgff (%d tasks, %d arcs) on %dx%d mesh\",\n"
         n_tasks (Noc_ctg.Ctg.n_edges ctg) cols rows);
    Buffer.add_string buf
      (Printf.sprintf "  \"delta_p50_ns\": %.1f,\n  \"delta_p99_ns\": %.1f,\n"
         delta_p50 delta_p99);
    Buffer.add_string buf
      (Printf.sprintf "  \"full_p50_ns\": %.1f,\n  \"full_p99_ns\": %.1f,\n"
         full_p50 full_p99);
    Buffer.add_string buf
      (Printf.sprintf "  \"delta_speedup_p50\": %.1f,\n" delta_speedup);
    Buffer.add_string buf
      (Printf.sprintf "  \"delta_speedup_threshold\": %.1f,\n"
         delta_speedup_threshold);
    Buffer.add_string buf "  \"sa_vs_identity\": [\n";
    List.iteri
      (fun i ( (mcols, mrows),
               (id : Noc_experiments.Topology_compare.point),
               (sa : Noc_experiments.Topology_compare.point) ) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"mesh\": \"%dx%d\", \"identity_nj\": %.1f, \"sa_nj\": %.1f, \
              \"saving_pct\": %.1f, \"sa_misses\": %d, \"sa_cert_errors\": %d}%s\n"
             mcols mrows id.energy sa.energy
             ((id.energy -. sa.energy) /. id.energy *. 100.)
             sa.misses sa.cert_errors
             (if i < List.length sa_vs_identity - 1 then "," else "")))
      sa_vs_identity;
    Buffer.add_string buf "  ],\n";
    Buffer.add_string buf "  \"pareto\":\n";
    Buffer.add_string buf
      (Noc_experiments.Topology_compare.pareto_to_json pareto);
    Buffer.add_string buf "  ,\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"gate\": {\"delta_speedup_ok\": %b, \"sa_energy_le_identity\": %b, \
          \"jobs_invariant\": %b, \"chain_prefix_invariant\": %b}\n"
         (delta_speedup >= delta_speedup_threshold)
         energy_gate jobs_invariant chain_prefix_invariant);
    Buffer.add_string buf "}\n";
    output_string oc (Buffer.contents buf);
    close_out oc;
    print_string (Noc_experiments.Topology_compare.render_pareto pareto);
    Printf.printf
      "delta %.0f ns vs full recompute %.0f ns (p50): %.0fx; jobs invariant: %b; \
       chain prefix invariant: %b\n"
      delta_p50 full_p50 delta_speedup jobs_invariant chain_prefix_invariant;
    Printf.printf "wrote %s\n" file;
    if delta_speedup < delta_speedup_threshold then begin
      Printf.eprintf
        "bench gate FAILED: swap delta-eval p50 %.0f ns is only %.1fx faster \
         than the %.0f ns full recompute (need >= %.1fx)\n"
        delta_p50 delta_speedup full_p50 delta_speedup_threshold;
      exit 1
    end;
    if not energy_gate then begin
      Printf.eprintf
        "bench gate FAILED: an annealed balance=0 point costs more pinned-EAS \
         energy than the identity mapping\n";
      exit 1
    end;
    if not jobs_invariant then begin
      Printf.eprintf
        "bench gate FAILED: Search.run results differ across --jobs 1/2/4\n";
      exit 1
    end;
    if not chain_prefix_invariant then begin
      Printf.eprintf
        "bench gate FAILED: the first chains of a 4-chain search do not \
         reproduce the 2-chain search\n";
      exit 1
    end
end

(* DVFS slack-reclamation gate (dvfs): runs the EAS vs EAS+DVFS
   ablation campaign and persists BENCH_dvfs.json.

   Four gates:
   - Every category-I row must reclaim energy (> 0 nJ): the paper's
     sparse suites leave real slack, so a zero here means the pass
     stopped finding it.
   - No scaled schedule may miss a deadline its unscaled schedule met
     (the reclamation pass only ever slows a task into proven slack).
   - Every scaled schedule must pass [Certify.check_scaled] — the gate
     counts certification failures and requires zero.
   - The campaign's rows must be structurally identical at
     --jobs 1/2/4 (fixed work list fanned over the pool). *)
module Dvfs_bench = struct
  module C = Noc_experiments.Dvfs_campaign

  let digest rows =
    List.map
      (fun (r : C.row) ->
        ( r.name, r.tasks, r.eas_energy, r.dvfs_energy, r.downclocked,
          r.base_misses, r.scaled_misses, r.certified ))
      rows

  let run ~quick file =
    let oc =
      try open_out file
      with Sys_error msg ->
        Printf.eprintf "cannot write bench output: %s\n" msg;
        exit 1
    in
    let campaign jobs =
      if quick then C.run ~jobs ~indices:[ 0; 1 ] ~scale:0.3 ()
      else C.run ~jobs ()
    in
    let rows = campaign 1 in
    let jobs_invariant =
      digest (campaign 2) = digest rows && digest (campaign 4) = digest rows
    in
    let cat1 = List.filter (fun (r : C.row) -> r.category = "cat1") rows in
    let cat1_reclaims =
      cat1 <> [] && List.for_all (fun (r : C.row) -> r.reclaimed > 0.) cat1
    in
    let new_misses =
      List.exists (fun (r : C.row) -> r.scaled_misses > r.base_misses) rows
    in
    let cert_failures =
      List.length (List.filter (fun (r : C.row) -> not r.certified) rows)
    in
    let total_before =
      List.fold_left (fun a (r : C.row) -> a +. r.eas_energy) 0. rows
    in
    let total_after =
      List.fold_left (fun a (r : C.row) -> a +. r.dvfs_energy) 0. rows
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"schema\": \"nocsched/bench-dvfs/v1\",\n";
    Buffer.add_string buf
      (Printf.sprintf "  \"vf_levels\": \"%s\",\n"
         (Noc_dvfs.Vf_table.to_string Noc_dvfs.Vf_table.default));
    Buffer.add_string buf "  \"rows\": [\n";
    List.iteri
      (fun i (r : C.row) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"name\": \"%s\", \"category\": \"%s\", \"tasks\": %d, \
              \"eas_nj\": %.1f, \"dvfs_nj\": %.1f, \"saving_pct\": %.1f, \
              \"downclocked\": %d, \"base_misses\": %d, \"scaled_misses\": %d, \
              \"certified\": %b}%s\n"
             r.name r.category r.tasks r.eas_energy r.dvfs_energy
             (C.saving r *. 100.)
             r.downclocked r.base_misses r.scaled_misses r.certified
             (if i < List.length rows - 1 then "," else "")))
      rows;
    Buffer.add_string buf "  ],\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"total_eas_nj\": %.1f,\n  \"total_dvfs_nj\": %.1f,\n\
         \  \"total_saving_pct\": %.1f,\n"
         total_before total_after
         ((total_before -. total_after) /. total_before *. 100.));
    Buffer.add_string buf
      (Printf.sprintf
         "  \"gate\": {\"cat1_reclaims\": %b, \"no_new_misses\": %b, \
          \"cert_failures\": %d, \"jobs_invariant\": %b}\n"
         cat1_reclaims (not new_misses) cert_failures jobs_invariant);
    Buffer.add_string buf "}\n";
    output_string oc (Buffer.contents buf);
    close_out oc;
    print_string (C.render rows);
    Printf.printf
      "total %.1f -> %.1f nJ (%.1f%% reclaimed); jobs invariant: %b\n"
      total_before total_after
      ((total_before -. total_after) /. total_before *. 100.)
      jobs_invariant;
    Printf.printf "wrote %s\n" file;
    if not cat1_reclaims then begin
      Printf.eprintf
        "bench gate FAILED: a category-I benchmark reclaimed no energy\n";
      exit 1
    end;
    if new_misses then begin
      Printf.eprintf
        "bench gate FAILED: a scaled schedule misses a deadline its unscaled \
         schedule met\n";
      exit 1
    end;
    if cert_failures > 0 then begin
      Printf.eprintf
        "bench gate FAILED: %d scaled schedule(s) failed certification\n"
        cert_failures;
      exit 1
    end;
    if not jobs_invariant then begin
      Printf.eprintf
        "bench gate FAILED: dvfs campaign rows differ across --jobs 1/2/4\n";
      exit 1
    end
end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (match args with
  | [ "--json"; file ] ->
    Json_bench.run file;
    exit 0
  | "--json" :: _ ->
    prerr_endline "usage: bench/main.exe --json FILE";
    exit 2
  | _ -> ());
  let quick = List.mem "--quick" args in
  let wanted = List.filter (fun a -> a <> "--quick") args in
  let all =
    [
      "fig5"; "fig6"; "tab1"; "tab2"; "tab3"; "fig7"; "split"; "ablation"; "topo";
      "weights"; "repairmoves"; "baselines"; "buffering"; "faults";
      "parallel"; "obs"; "serve"; "routing"; "mapping"; "dvfs";
    ]
  in
  let wanted = if wanted = [] then all else wanted in
  let t0 = Unix.gettimeofday () in
  List.iter
    (function
      | "fig5" -> fig5 ~quick
      | "fig6" -> fig6 ~quick
      | "tab1" -> tab Noc_experiments.Msb_tables.Encoder "Table 1: A/V encoder"
      | "tab2" -> tab Noc_experiments.Msb_tables.Decoder "Table 2: A/V decoder"
      | "tab3" ->
        tab Noc_experiments.Msb_tables.Integrated "Table 3: A/V encoder/decoder"
      | "fig7" -> fig7 ()
      | "split" -> split ()
      | "ablation" -> ablation ()
      | "topo" -> topo ()
      | "weights" -> weights ()
      | "repairmoves" -> repair_moves ~quick
      | "baselines" -> baselines ()
      | "buffering" -> buffering ()
      | "faults" -> faults ~quick
      | "parallel" ->
        section "Parallel execution: serial vs pooled campaign gate";
        Parallel_bench.run ~quick "BENCH_parallel.json"
      | "obs" ->
        section "Observability: disabled-overhead and determinism gate";
        Obs_bench.run "BENCH_obs.json"
      | "serve" ->
        section "Scheduling service: cache-hit latency and reschedule gate";
        Serve_bench.run "BENCH_serve.json"
      | "routing" ->
        section "Turn-model routing: relation proofs and detour survivability";
        Routing_bench.run "BENCH_routing.json"
      | "mapping" ->
        section "Mapping search: delta-eval, determinism and Pareto gate";
        Mapping_bench.run ~quick "BENCH_mapping.json"
      | "dvfs" ->
        section "DVFS slack reclamation: energy, deadline and certification gate";
        Dvfs_bench.run ~quick "BENCH_dvfs.json"
      | "micro" -> micro ()
      | other ->
        Printf.eprintf "unknown experiment %S (known: %s micro)\n" other
          (String.concat " " all);
        exit 2)
    wanted;
  Printf.printf "\ntotal wall time: %.1f s\n" (Unix.gettimeofday () -. t0)
