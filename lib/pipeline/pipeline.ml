type algo = Eas | Eas_base | Edf

let all_algos = [ Eas_base; Eas; Edf ]

let algo_name = function
  | Eas -> "EAS"
  | Eas_base -> "EAS-base"
  | Edf -> "EDF"

let algo_wire algo = String.lowercase_ascii (algo_name algo)

let algo_of_string s =
  match String.lowercase_ascii s with
  | "eas" -> Ok Eas
  | "eas-base" -> Ok Eas_base
  | "edf" -> Ok Edf
  | other -> Error (Printf.sprintf "algo %S must be eas, eas-base or edf" other)

let mesh_of_string s =
  match String.split_on_char 'x' (String.lowercase_ascii s) with
  | [ c; r ] -> (
    match (int_of_string_opt c, int_of_string_opt r) with
    | Some cols, Some rows when cols > 0 && rows > 0 -> Ok (cols, rows)
    | _ -> Error (Printf.sprintf "mesh %S must be COLSxROWS with positive integers" s))
  | _ -> Error (Printf.sprintf "mesh %S must look like 4x4" s)

let mesh_name (cols, rows) = Printf.sprintf "%dx%d" cols rows

(* Division instead of [cols * rows], which can wrap around to the
   graph's PE count for absurd meshes. *)
let check_fits ((cols, rows) as mesh) ctg =
  let n = Noc_ctg.Ctg.n_pes ctg in
  if n mod rows = 0 && n / rows = cols then Ok ()
  else
    Error
      (Printf.sprintf "graph expects %d PEs but mesh %s has %d" n (mesh_name mesh)
         (cols * rows))

let vf_ladder ~dvfs ~unpaired levels =
  match (dvfs, levels) with
  | false, Some _ -> Error unpaired
  | false, None -> Ok None
  | true, levels -> Ok (Some (Option.value levels ~default:Noc_dvfs.Vf_table.default))

let schedule_of ?comm_model ?kernel ?pinned ?jobs algo platform ctg =
  match algo with
  | Eas ->
    (Noc_eas.Eas.schedule ?comm_model ?kernel ?pinned ?jobs platform ctg).schedule
  | Eas_base ->
    (Noc_eas.Eas.schedule ~repair:false ?comm_model ?kernel ?pinned ?jobs platform
       ctg)
      .schedule
  | Edf ->
    if pinned <> None then
      invalid_arg "Pipeline.schedule_of: EDF does not take a pinned mapping";
    Noc_edf.Edf.schedule ?comm_model platform ctg

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
  let schedule = schedule_of ?kernel ?pinned ?jobs algo platform ctg in
  let runtime_seconds = Noc_util.Clock.wall_s () -. t0 in
  let metrics = Noc_sched.Metrics.compute platform ctg schedule in
  let diagnostics =
    Noc_analysis.Certify.check
      ~claimed_energy:metrics.Noc_sched.Metrics.total_energy platform ctg schedule
  in
  let dvfs = Option.map (fun table -> reclaim table platform ctg schedule) vf in
  { schedule; runtime_seconds; metrics; diagnostics; dvfs }

(* Detour routes legitimately diverge from the deterministic-route
   energy of Metrics, so no claimed energy is cross-checked. *)
let reschedule platform ctg ~faults base =
  let outcome = Noc_eas.Fault_resched.run platform ctg ~faults base in
  let schedule = outcome.Noc_eas.Fault_resched.schedule in
  (outcome, Noc_analysis.Certify.check platform ctg schedule)

let mesh_platform ?routing (cols, rows) =
  Noc_noc.Platform.heterogeneous_mesh ~seed:42 ?routing ~cols ~rows ()
