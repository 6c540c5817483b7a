type dvfs = {
  table : Noc_dvfs.Vf_table.t;
  reclaim : Noc_dvfs.Reclaim.result;
  scaled_diagnostics : Noc_analysis.Diagnostic.t list;
  scaled_metrics : Noc_sched.Metrics.t;
}

type result = {
  schedule : Noc_sched.Schedule.t;
  runtime_seconds : float;
  metrics : Noc_sched.Metrics.t;
  diagnostics : Noc_analysis.Diagnostic.t list;
  dvfs : dvfs option;
}

let reclaim table platform ctg base =
  let r = Noc_dvfs.Reclaim.run ~table ctg base in
  let scaled = r.Noc_dvfs.Reclaim.schedule in
  {
    table;
    reclaim = r;
    scaled_diagnostics =
      Noc_analysis.Certify.check_scaled
        ~ratios:(Noc_dvfs.Vf_table.ratios table)
        ~annotations:r.Noc_dvfs.Reclaim.annotations ~base platform ctg scaled;
    scaled_metrics = Noc_sched.Metrics.compute platform ctg scaled;
  }

let run ?kernel ?pinned ?jobs ?vf algo platform ctg =
  let t0 = Noc_util.Clock.wall_s () in
  let schedule = Runner.schedule_of ?kernel ?pinned ?jobs algo platform ctg in
  let runtime_seconds = Noc_util.Clock.wall_s () -. t0 in
  let metrics = Noc_sched.Metrics.compute platform ctg schedule in
  let diagnostics =
    Noc_analysis.Certify.check
      ~claimed_energy:metrics.Noc_sched.Metrics.total_energy platform ctg schedule
  in
  let dvfs = Option.map (fun table -> reclaim table platform ctg schedule) vf in
  { schedule; runtime_seconds; metrics; diagnostics; dvfs }

let mesh_platform ?routing (cols, rows) =
  Noc_noc.Platform.heterogeneous_mesh ~seed:42 ?routing ~cols ~rows ()
