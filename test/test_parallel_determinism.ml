(* Parallel determinism: the experiment campaigns must produce
   bit-for-bit identical results at every job count. Each campaign runs
   at --jobs 1 (the pre-pool serial semantics), 2 and 4, and the results
   are compared field by field — everything except the wall-clock
   runtimes, which are the only fields allowed to vary. *)

let job_counts = [ 1; 2; 4 ]

(* Exact (hex-float) rendering of an evaluation minus its runtime. *)
let evaluation_fingerprint (e : Noc_experiments.Runner.evaluation) =
  let m = e.Noc_experiments.Runner.metrics in
  Printf.sprintf "%s total=%h comp=%h comm=%h mk=%h hops=%h miss=%d rv=%d"
    (Noc_pipeline.Pipeline.algo_name e.Noc_experiments.Runner.algo)
    m.Noc_sched.Metrics.total_energy m.Noc_sched.Metrics.computation_energy
    m.Noc_sched.Metrics.communication_energy m.Noc_sched.Metrics.makespan
    m.Noc_sched.Metrics.average_hops
    (Noc_sched.Metrics.miss_count m)
    e.Noc_experiments.Runner.resource_violations

let suite_fingerprint (r : Noc_experiments.Random_suite.result) =
  String.concat "\n"
    (Printf.sprintf "avg=%h" r.Noc_experiments.Random_suite.average_edf_excess
     :: List.map
          (fun (row : Noc_experiments.Random_suite.row) ->
            Printf.sprintf "%d | %s | %s | %s" row.index
              (evaluation_fingerprint row.eas_base)
              (evaluation_fingerprint row.eas)
              (evaluation_fingerprint row.edf))
          r.Noc_experiments.Random_suite.rows)

let test_random_suite_jobs_invariant () =
  (* The 50-seed corpus at a small scale: wide enough that the pool's
     chunk claiming actually interleaves, small enough for CI. *)
  let indices = List.init 50 Fun.id in
  let run jobs =
    suite_fingerprint
      (Noc_experiments.Random_suite.run ~jobs ~indices ~scale:0.1
         Noc_tgff.Category.Category_i)
  in
  let serial = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "random suite identical at jobs=%d" jobs)
        serial (run jobs))
    (List.tl job_counts)

let test_fault_campaign_jobs_invariant () =
  (* The campaign's JSON report carries no timing fields, so whole-string
     equality is the exact field-wise comparison. *)
  let run jobs =
    Noc_experiments.Fault_campaign.to_json
      (Noc_experiments.Fault_campaign.run ~jobs ~scale:0.08 ~n_graphs:2
         ~n_trials:3 ())
  in
  let serial = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "fault campaign identical at jobs=%d" jobs)
        serial (run jobs))
    (List.tl job_counts)

let test_obs_jobs_invariant () =
  (* Observability must not break determinism: the counter totals and the
     sorted decision log captured around a campaign are bit-identical at
     every job count. Routes are warmed by an untracked run first so the
     shared route memo starts from the same state for every job count. *)
  let indices = List.init 20 Fun.id in
  let run jobs =
    ignore
      (Noc_experiments.Random_suite.run ~jobs ~indices ~scale:0.08
         Noc_tgff.Category.Category_i)
  in
  run 1;
  let capture jobs =
    Noc_obs.Counters.reset ();
    Noc_obs.Decisions.reset ();
    Noc_obs.Counters.set_enabled true;
    Noc_obs.Decisions.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Noc_obs.Counters.set_enabled false;
        Noc_obs.Decisions.set_enabled false)
      (fun () ->
        run jobs;
        let counters =
          String.concat "\n"
            (List.map
               (fun (name, v) -> Printf.sprintf "%s=%d" name v)
               (Noc_obs.Counters.snapshot ()))
        in
        (counters, Noc_obs.Decisions.export_jsonl ()))
  in
  let serial_counters, serial_decisions = capture 1 in
  Alcotest.(check bool) "counters were collected" true (serial_counters <> "");
  Alcotest.(check bool) "decisions were collected" true (serial_decisions <> "");
  List.iter
    (fun jobs ->
      let counters, decisions = capture jobs in
      Alcotest.(check string)
        (Printf.sprintf "counters identical at jobs=%d" jobs)
        serial_counters counters;
      Alcotest.(check string)
        (Printf.sprintf "decision log identical at jobs=%d" jobs)
        serial_decisions decisions)
    (List.tl job_counts)

let test_schedule_path_jobs_invariant () =
  (* The schedule path itself (nocsched schedule --jobs N): the inner
     candidate walks fan out over the pool, and the resulting schedule —
     placements and transactions down to the float bits — must not
     depend on the job count. *)
  let platform = Noc_tgff.Category.platform in
  let params =
    { (Noc_tgff.Category.params Noc_tgff.Category.Category_i) with
      Noc_tgff.Params.n_tasks = 120 }
  in
  let schedule_fingerprint (s : Noc_sched.Schedule.t) =
    String.concat " "
      (List.init (Noc_sched.Schedule.n_tasks s) (fun i ->
           let p = Noc_sched.Schedule.placement s i in
           Printf.sprintf "%d:%d:%h:%h" i p.Noc_sched.Schedule.pe
             p.Noc_sched.Schedule.start p.Noc_sched.Schedule.finish)
      @ Array.to_list
          (Array.map
             (fun (t : Noc_sched.Schedule.transaction) ->
               Printf.sprintf "e%d:%h:%h" t.Noc_sched.Schedule.edge
                 t.Noc_sched.Schedule.start t.Noc_sched.Schedule.finish)
             (Noc_sched.Schedule.transactions s)))
  in
  List.iter
    (fun seed ->
      let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed in
      let run jobs =
        schedule_fingerprint
          (Noc_pipeline.Pipeline.schedule_of ~jobs Noc_pipeline.Pipeline.Eas
             platform ctg)
      in
      let serial = run 1 in
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d schedule identical at jobs=%d" seed jobs)
            serial (run jobs))
        (List.tl job_counts))
    [ 0; 1; 2 ]

let suite =
  [
    Alcotest.test_case "schedule path invariant under --jobs" `Quick
      test_schedule_path_jobs_invariant;
    Alcotest.test_case "random suite invariant under --jobs" `Slow
      test_random_suite_jobs_invariant;
    Alcotest.test_case "fault campaign invariant under --jobs" `Slow
      test_fault_campaign_jobs_invariant;
    Alcotest.test_case "counters and decisions invariant under --jobs" `Slow
      test_obs_jobs_invariant;
  ]
