module Json = Noc_obs.Json
module Pipeline = Noc_pipeline.Pipeline

let schema = "nocsched/serve/v1"

type request =
  | Schedule of {
      ctg_text : string;
      mesh : int * int;
      algo : Pipeline.algo;
      decisions : bool;
      dvfs : Noc_dvfs.Vf_table.t option;
    }
  | Simulate of {
      ctg_text : string;
      mesh : int * int;
      algo : Pipeline.algo;
      faults : string list;
      self_timed : bool;
    }
  | Reschedule of {
      ctg_text : string;
      mesh : int * int;
      algo : Pipeline.algo;
      faults : string list;
    }
  | Stats
  | Shutdown

let op_name = function
  | Schedule _ -> "schedule"
  | Simulate _ -> "simulate"
  | Reschedule _ -> "reschedule"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

(* ------------------------------------------------------------------ *)
(* Field accessors over a parsed object.                               *)

let string_field ~default name obj =
  match Json.member name obj with
  | None -> Ok default
  | Some (Json.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let bool_field ~default name obj =
  match Json.member name obj with
  | None -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let string_list_field name obj =
  match Json.member name obj with
  | None -> Ok []
  | Some (Json.List items) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Json.String s :: rest -> go (s :: acc) rest
      | _ :: _ -> Error (Printf.sprintf "field %S must be a list of strings" name)
    in
    go [] items
  | Some _ -> Error (Printf.sprintf "field %S must be a list of strings" name)

(* ------------------------------------------------------------------ *)
(* Request parsing.                                                    *)

let ( let* ) = Result.bind

let ctg_mesh_algo obj =
  let* ctg_text =
    match Json.member "ctg" obj with
    | Some (Json.String s) -> Ok s
    | Some _ -> Error "field \"ctg\" must be a string"
    | None -> Error "missing field \"ctg\""
  in
  let* mesh_text = string_field ~default:"4x4" "mesh" obj in
  let* mesh = Pipeline.mesh_of_string mesh_text in
  let* algo_text = string_field ~default:"eas" "algo" obj in
  let* algo = Pipeline.algo_of_string algo_text in
  Ok (ctg_text, mesh, algo)

let parse_request line =
  match Json.parse line with
  | Error msg -> Error ("malformed request JSON: " ^ msg)
  | Ok (Json.Obj _ as obj) ->
    let id =
      match Json.member "id" obj with Some (Json.String s) -> Some s | _ -> None
    in
    let* request =
      let* op =
        match Json.member "op" obj with
        | Some (Json.String s) -> Ok s
        | Some _ -> Error "field \"op\" must be a string"
        | None -> Error "missing field \"op\""
      in
      match op with
      | "schedule" ->
        let* ctg_text, mesh, algo = ctg_mesh_algo obj in
        let* decisions = bool_field ~default:false "decisions" obj in
        let* dvfs_flag = bool_field ~default:false "dvfs" obj in
        let* vf_levels =
          match Json.member "vf_levels" obj with
          | None -> Ok None
          | Some (Json.String s) -> (
            match Noc_dvfs.Vf_table.of_string s with
            | Ok t -> Ok (Some t)
            | Error msg -> Error (Printf.sprintf "field \"vf_levels\": %s" msg))
          | Some _ -> Error "field \"vf_levels\" must be a string"
        in
        let* dvfs =
          Pipeline.vf_ladder ~dvfs:dvfs_flag
            ~unpaired:"field \"vf_levels\" needs \"dvfs\": true" vf_levels
        in
        Ok (Schedule { ctg_text; mesh; algo; decisions; dvfs })
      | "simulate" ->
        let* ctg_text, mesh, algo = ctg_mesh_algo obj in
        let* faults = string_list_field "faults" obj in
        let* self_timed = bool_field ~default:false "self_timed" obj in
        Ok (Simulate { ctg_text; mesh; algo; faults; self_timed })
      | "reschedule" ->
        let* ctg_text, mesh, algo = ctg_mesh_algo obj in
        let* faults = string_list_field "faults" obj in
        Ok (Reschedule { ctg_text; mesh; algo; faults })
      | "stats" -> Ok Stats
      | "shutdown" -> Ok Shutdown
      | other ->
        Error
          (Printf.sprintf
             "unknown op %S (known: schedule, simulate, reschedule, stats, shutdown)"
             other)
    in
    Ok (request, id)
  | Ok _ -> Error "malformed request: expected a JSON object"

(* ------------------------------------------------------------------ *)
(* Printing.                                                           *)

let with_id id fields =
  match id with None -> fields | Some id -> ("id", Json.String id) :: fields

let request_to_line ?id request =
  let problem ctg_text mesh algo =
    [
      ("ctg", Json.String ctg_text);
      ("mesh", Json.String (Pipeline.mesh_name mesh));
      ("algo", Json.String (Pipeline.algo_wire algo));
    ]
  in
  let faults_field faults =
    ("faults", Json.List (List.map (fun f -> Json.String f) faults))
  in
  let fields =
    match request with
    | Schedule { ctg_text; mesh; algo; decisions; dvfs } ->
      problem ctg_text mesh algo
      @ [ ("decisions", Json.Bool decisions) ]
      @ (match dvfs with
        | None -> []
        | Some table ->
          [
            ("dvfs", Json.Bool true);
            ("vf_levels", Json.String (Noc_dvfs.Vf_table.to_string table));
          ])
    | Simulate { ctg_text; mesh; algo; faults; self_timed } ->
      problem ctg_text mesh algo
      @ [ faults_field faults; ("self_timed", Json.Bool self_timed) ]
    | Reschedule { ctg_text; mesh; algo; faults } ->
      problem ctg_text mesh algo @ [ faults_field faults ]
    | Stats | Shutdown -> []
  in
  Json.to_string
    (Json.Obj (with_id id (("op", Json.String (op_name request)) :: fields)))

let error_line ?id msg =
  Json.to_string
    (Json.Obj
       (with_id id
          [
            ("schema", Json.String schema); ("ok", Json.Bool false);
            ("error", Json.String msg);
          ]))

let ok_line ?id ~op fields =
  Json.to_string
    (Json.Obj
       (with_id id
          ([
             ("schema", Json.String schema); ("ok", Json.Bool true);
             ("op", Json.String op);
           ]
          @ fields)))
