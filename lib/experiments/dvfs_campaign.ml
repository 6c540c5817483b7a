(* EAS vs EAS+DVFS ablation: schedule each benchmark with EAS, reclaim
   its slack with the discrete V/f ladder, and re-certify the scaled
   schedule against the base. Work items are a fixed list fanned over
   the domain pool, so the output is bit-identical at every --jobs
   count. *)

module Pipeline = Noc_pipeline.Pipeline

type row = {
  name : string;
  category : string;
  tasks : int;
  eas_energy : float;
  dvfs_energy : float;
  reclaimed : float;
  downclocked : int;
  base_misses : int;
  scaled_misses : int;
  certified : bool;
}

type work = { w_name : string; w_category : string; w_build : unit -> Noc_noc.Platform.t * Noc_ctg.Ctg.t }

let category_work kind ~scale indices =
  let cat_name, label =
    match kind with
    | Noc_tgff.Category.Category_i -> ("Category I", "cat1")
    | Noc_tgff.Category.Category_ii -> ("Category II", "cat2")
    | Noc_tgff.Category.Category_iii -> ("Category III", "cat3")
  in
  List.map
    (fun index ->
      {
        w_name = Printf.sprintf "%s #%d" cat_name index;
        w_category = label;
        w_build =
          (fun () ->
            let platform = Noc_tgff.Category.platform in
            let ctg =
              if scale >= 1. then Noc_tgff.Category.benchmark kind ~index
              else
                Noc_tgff.Generate.generate
                  ~params:(Noc_tgff.Category.scaled_params kind ~scale)
                  ~platform
                  ~seed:(Noc_tgff.Category.seed_of kind index)
            in
            (platform, ctg));
      })
    indices

let msb_work =
  let clip = Noc_msb.Profile.Foreman in
  [
    ( "encoder/foreman", Noc_msb.Platforms.av_2x2,
      fun platform -> Noc_msb.Graphs.encoder ~platform ~clip () );
    ( "decoder/foreman", Noc_msb.Platforms.av_2x2,
      fun platform -> Noc_msb.Graphs.decoder ~platform ~clip () );
    ( "integrated/foreman", Noc_msb.Platforms.av_3x3,
      fun platform -> Noc_msb.Graphs.integrated ~platform ~clip () );
  ]
  |> List.map (fun (name, platform, build) ->
         {
           w_name = name;
           w_category = "msb";
           w_build = (fun () -> (platform, build platform));
         })

let evaluate ~table work =
  let platform, ctg = work.w_build () in
  let p = Pipeline.run Runner.Eas platform ctg in
  let d = Pipeline.reclaim table platform ctg p.Pipeline.schedule in
  let eas_energy = p.Pipeline.metrics.Noc_sched.Metrics.total_energy in
  let reclaimed = Noc_dvfs.Reclaim.reclaimed d.Pipeline.reclaim in
  let cert_errors, _, _ =
    Noc_analysis.Diagnostic.count d.Pipeline.scaled_diagnostics
  in
  {
    name = work.w_name;
    category = work.w_category;
    tasks = Noc_ctg.Ctg.n_tasks ctg;
    eas_energy;
    dvfs_energy = eas_energy -. reclaimed;
    reclaimed;
    downclocked = d.Pipeline.reclaim.Noc_dvfs.Reclaim.downclocked;
    base_misses = Noc_sched.Metrics.miss_count p.Pipeline.metrics;
    scaled_misses = Noc_sched.Metrics.miss_count d.Pipeline.scaled_metrics;
    certified = cert_errors = 0;
  }

let run ?jobs ?(table = Noc_dvfs.Vf_table.default) ?(indices = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ])
    ?(scale = 1.) () =
  Noc_noc.Platform.warm_routes Noc_tgff.Category.platform;
  let work =
    category_work Noc_tgff.Category.Category_i ~scale indices
    @ category_work Noc_tgff.Category.Category_ii ~scale indices
    @ msb_work
  in
  Noc_util.Pool.map_list ?jobs
    (fun w ->
      Runner.traced ~label:("dvfs/" ^ w.w_category ^ "/" ^ w.w_name) @@ fun () ->
      evaluate ~table w)
    work

let saving row =
  if row.eas_energy <= 0. then 0. else row.reclaimed /. row.eas_energy

let render ?(table = Noc_dvfs.Vf_table.default) rows =
  let header =
    [
      "benchmark"; "tasks"; "EAS (nJ)"; "EAS+DVFS (nJ)"; "reclaimed"; "downclocked";
      "misses"; "certified";
    ]
  in
  let cells =
    List.map
      (fun r ->
        [
          r.name;
          string_of_int r.tasks;
          Noc_util.Text_table.float_cell ~decimals:0 r.eas_energy;
          Noc_util.Text_table.float_cell ~decimals:0 r.dvfs_energy;
          Noc_util.Text_table.percent_cell (saving r);
          Printf.sprintf "%d/%d" r.downclocked r.tasks;
          Printf.sprintf "%d->%d" r.base_misses r.scaled_misses;
          (if r.certified then "yes" else "NO");
        ])
      rows
  in
  Printf.sprintf
    "Ablation: EAS vs EAS+DVFS slack reclamation (EAS Step 4).\n\
     Discrete V/f ladder {%s} x f_max, P ~ k.f^3, linear slowdown; starts,\n\
     communication windows and deadlines are frozen, so the reclaimed\n\
     energy stacks on EAS's and every scaled schedule re-certifies.\n%s\n"
    (Noc_dvfs.Vf_table.to_string table)
    (Noc_util.Text_table.render ~header cells)
