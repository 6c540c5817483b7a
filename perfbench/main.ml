(* nocsched benchmark: one command, four workloads.

     main.exe --workload <cat1_pipeline|cat2_repair|cat3_map|serve_mix>
              --seed <n> --seconds <s> --trace <0|1> [--smoke]

   Prints a run manifest line, then as its last line one JSON object
   with the keys correct, attempted, failed and metrics. With --trace 0
   the metrics are the end-to-end ones, measured with tracing off; with
   --trace 1 they are the per-layer ones, from a run that alternates
   untraced and traced passes. --smoke shrinks every workload to a few
   inputs. See perfbench/README.md for the workloads and metrics. *)

open Common

(* The seed later performance claims must also hold on; it is not used
   while tuning the benchmark or a change. *)
let held_out_seed = 7331

let setup_repetitions = 3

(* ------------------------------------------------------------------ *)
(* Per-layer metrics, emitted under the same names on every workload;
   a layer a workload does not exercise reads 0. Times are per-op means
   except the three serve handler classes, which are medians. *)

type layer_inputs = {
  acc : Layers.acc;
  count : string -> float;  (** Per-op mean delta of a counter. *)
  op_wall_ms : float;
  trace_overhead_pct : float;
  misses_before_repair : float;  (** Per-op mean. *)
  deadline_misses : float;  (** Per-op mean, failed ops included. *)
  serve : (string * float) list;
}

let per_layer l =
  let t = Layers.layer_ms l.acc and c = l.count in
  let evals = c "eas.finish_time.evaluations" and reused = c "eas.finish_time.reused" in
  let rebuilds = c "eas.repair.rebuilds" in
  let accepted = c "eas.repair.accepted_swaps" +. c "eas.repair.accepted_migrations" in
  let proposed = c "map.sa.proposed" in
  let serve name = Option.value (List.assoc_opt name l.serve) ~default:0. in
  [
    metric "op_wall_ms" "ms" l.op_wall_ms;
    metric "ctg_io.parse_ms" "ms" (t "ctg_io");
    metric "kernel.build_ms" "ms" (t "kernel");
    metric "budget.ms" "ms" (t "budget");
    metric "level_sched.ms" "ms" (t "level_sched");
    metric "level_sched.finish_time_evals" "count/op" evals;
    metric "level_sched.finish_time_reuse_ratio" "ratio" (ratio reused (evals +. reused));
    metric "level_sched.misses_before_repair" "count/op" l.misses_before_repair;
    metric "repair.ms" "ms" (t "repair");
    metric "repair.rebuilds" "count/op" rebuilds;
    metric "repair.accepted_moves" "count/op" accepted;
    metric "repair.accept_ratio" "ratio" (ratio accepted rebuilds);
    metric "repair.reservations" "count/op" (c "sched.resource_state.reservations");
    metric "repair.transactions" "count/op" (c "sched.comm.transactions");
    metric "map.search_ms" "ms" (t "map");
    metric "map.sa_proposed" "count/op" proposed;
    metric "map.sa_accept_ratio" "ratio" (ratio (c "map.sa.accepted") proposed);
    metric "certify.ms" "ms" (t "certify");
    metric "certify.scaled_ms" "ms" (t "certify_scaled");
    metric "dvfs.reclaim_ms" "ms" (t "dvfs");
    metric "dvfs.downclocked" "count/op" (c "dvfs.downclocked");
    metric "metrics.ms" "ms" (t "metrics");
    metric "schedule_io.encode_ms" "ms" (t "schedule_io");
    metric "sim.replay_ms" "ms" (t "sim");
    metric "sim.events" "count/op" (c "sim.events");
    metric "serve.hit_handler_ms" "ms" (serve "hit_handler_ms");
    metric "serve.miss_handler_ms" "ms" (serve "miss_handler_ms");
    metric "serve.reschedule_handler_ms" "ms" (serve "reschedule_handler_ms");
    metric "serve.wire_overhead_ms" "ms" (serve "wire_overhead_ms");
    metric "serve.cache_hit_ratio" "ratio" (serve "cache_hit_ratio");
    metric "serve.cache_evictions" "count/op" (serve "cache_evictions");
    metric "unattributed_ms" "ms" (t Layers.unattributed);
    metric "trace_overhead_pct" "%" l.trace_overhead_pct;
    metric "deadline_misses" "count/op" l.deadline_misses;
  ]

(* ------------------------------------------------------------------ *)
(* Workload drivers.                                                   *)

let pct_over ~base v = 100. *. ratio (v -. base) base

let batch kind ~trace_file ~seed ~seconds ~traced ~smoke ~tally =
  let max_inputs = if smoke then 2 else max_int in
  let env, setup_s =
    repeated_setup ~times:(if smoke then 1 else setup_repetitions) (fun () ->
        Batch.setup kind ~seed ~max_inputs)
  in
  let slots, passes, acc = Batch.run env ~seconds ~traced ~trace_file ~tally in
  let samples_of extra =
    ("setup_s", if smoke then 1 else setup_repetitions) :: ("peak_rss_mb", 1) :: extra
  in
  let seeds =
    Array.to_list
      (Array.map
         (fun (i : Batch.input) ->
           Json.Number (float_of_int (Noc_tgff.Category.seed_of (Batch.category kind) i.index)))
         env.Batch.inputs)
  in
  if not traced then
    let metrics, samples = Batch.end_to_end slots passes ~setup_s in
    (metrics, samples_of samples, seeds, [])
  else begin
    Batch.check_against_eas env slots ~tally;
    let n = float_of_int (Array.length slots) in
    (* The reservation and transaction counts are the repair call's. *)
    let names = Array.append Batch.op_counters Batch.repair_counters in
    let count name =
      match Array.find_index (String.equal name) names with
      | None -> 0.
      | Some k ->
        Array.fold_left
          (fun s (slot : Batch.per_input) ->
            match slot.counters with Some c -> s +. float_of_int c.(k) | None -> s)
          0. slots
        /. n
    in
    (* Trace overhead over the inputs that completed in both modes. *)
    let both =
      List.filter
        (fun (s : Batch.per_input) -> s.plain_walls <> [] && s.traced_walls <> [])
        (Array.to_list slots)
    in
    let sum_medians f = sum (List.map (fun s -> median (f s)) both) in
    let plain = sum_medians (fun s -> s.Batch.plain_walls)
    and traced_w = sum_medians (fun s -> s.Batch.traced_walls) in
    let per_input f = sum (List.map f (Array.to_list slots)) /. n in
    let misses_before_repair =
      per_input (fun s ->
          match s.Batch.first with
          | Some o -> float_of_int o.Batch.misses_before_repair
          | None -> 0.)
    in
    ( per_layer
        {
          acc;
          count;
          op_wall_ms = Layers.wall_ms acc;
          trace_overhead_pct = pct_over ~base:plain traced_w;
          misses_before_repair;
          deadline_misses = per_input (fun s -> float_of_int s.Batch.worst_misses);
          serve = [];
        },
      samples_of [ ("traced_ops", acc.Layers.n_ops) ],
      seeds,
      [] )
  end

let serve ~trace_file ~seed ~seconds ~traced ~smoke ~tally =
  let scale = if smoke then 8 else 1 in
  let times = if smoke then 1 else setup_repetitions in
  (* Each set-up but the last is torn down again before the next. *)
  let env, setup_s =
    let kept = ref None in
    repeated_setup ~times (fun () ->
        Option.iter Serve_mix.shutdown !kept;
        let env = Serve_mix.setup ~seed ~scale in
        kept := Some env;
        env)
  in
  let result =
    Fun.protect
      ~finally:(fun () -> Serve_mix.shutdown env)
      (fun () -> Serve_mix.run env ~seconds ~traced ~trace_file ~tally)
  in
  let seeds =
    List.map (fun s -> Json.Number (float_of_int s)) (Serve_mix.graph_seeds ~scale)
  in
  let samples_of extra = ("setup_s", times) :: ("peak_rss_mb", 1) :: extra in
  let stream = Serve_mix.describe env result in
  if not traced then
    let metrics, samples = Serve_mix.end_to_end env result ~setup_s in
    (metrics, samples_of samples, seeds, stream)
  else begin
    let reqs = result.Serve_mix.traced in
    let n_req = float_of_int (List.length reqs) in
    let cycle_total f =
      sum (List.map f result.Serve_mix.per_cycle)
    in
    let count name =
      match Array.find_index (String.equal name) Serve_mix.daemon_counters with
      | None -> 0.
      | Some k -> cycle_total (fun (c, _) -> float_of_int c.(k)) /. n_req
    in
    let handlers cls =
      match List.filter (fun r -> r.Serve_mix.cls = cls) reqs with
      | [] -> 0.
      | rs -> ms (median (List.map (fun r -> r.Serve_mix.handler) rs))
    in
    let mean_ms f = ms (mean (List.map f reqs)) in
    let hits = cycle_total (fun (_, (h, _, _)) -> h)
    and misses = cycle_total (fun (_, (_, m, _)) -> m)
    and evictions = cycle_total (fun (_, (_, _, e)) -> e) in
    let plain = mean (Serve_mix.untraced_wires result)
    and traced_w = mean (List.map (fun r -> r.Serve_mix.wire) reqs) in
    ( per_layer
        {
          acc = result.Serve_mix.layer_acc;
          count;
          op_wall_ms = mean_ms (fun r -> r.Serve_mix.wire);
          trace_overhead_pct = pct_over ~base:plain traced_w;
          misses_before_repair = 0.;
          deadline_misses = mean (List.map (fun r -> r.Serve_mix.misses) reqs);
          serve =
            [
              ("hit_handler_ms", handlers Serve_mix.Hit);
              ("miss_handler_ms", handlers Serve_mix.Miss);
              ("reschedule_handler_ms", handlers Serve_mix.Resched_miss);
              ("wire_overhead_ms", mean_ms (fun r -> r.Serve_mix.wire -. r.Serve_mix.handler));
              ("cache_hit_ratio", ratio hits (hits +. misses));
              ("cache_evictions", evictions /. n_req);
            ];
        },
      samples_of [ ("traced_ops", List.length reqs) ],
      seeds,
      stream )
  end

(* ------------------------------------------------------------------ *)
(* Manifest.                                                           *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let git_rev () =
  let trim = String.trim in
  try
    let head = trim (read_file ".git/HEAD") in
    match String.split_on_char ' ' head with
    | [ "ref:"; ref_ ] -> (
      try trim (read_file (Filename.concat ".git" ref_))
      with Sys_error _ ->
        read_file ".git/packed-refs" |> String.split_on_char '\n'
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with
               | [ sha; r ] when r = ref_ -> Some sha
               | _ -> None)
        |> Option.value ~default:"unknown")
    | _ -> head
  with Sys_error _ -> "none (not a git checkout)"

(* FNV-1a over every source file of lib/ and perfbench/, in path order:
   identifies the code measured when no git metadata is present. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  in
  List.fold_left
    (fun h p -> Noc_util.Fnv.fold (Noc_util.Fnv.fold h p) (read_file p))
    Noc_util.Fnv.offset_basis
    (files "lib" @ files "perfbench")
  |> Noc_util.Fnv.to_hex

let manifest ~workload ~seed ~seconds ~traced ~smoke ~samples ~seeds ~extra =
  let int n = Json.Number (float_of_int n) in
  Json.Obj
    [
      ( "manifest",
        Json.Obj
          ([
             ("schema", Json.String "nocsched/perfbench/v1");
             ("workload", Json.String workload);
             ("seed", int seed);
             ("held_out_seed", int held_out_seed);
             ("seconds", Json.Number seconds);
             ("trace", Json.Bool traced);
             ("smoke", Json.Bool smoke);
             ("git_rev", Json.String (git_rev ()));
             ("source_digest", Json.String (source_digest ()));
             ("ocaml_version", Json.String Sys.ocaml_version);
             ("nproc", int (Domain.recommended_domain_count ()));
             ("jobs", int 1);
             ("workload_seeds", Json.List seeds);
             ("samples", Json.Obj (List.map (fun (k, v) -> (k, int v)) samples));
           ]
          @ extra) );
    ]

(* ------------------------------------------------------------------ *)

let workloads = [ "cat1_pipeline"; "cat2_repair"; "cat3_map"; "serve_mix" ]

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10. and trace = ref 0 in
  let smoke = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, " measured run length");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--smoke", Arg.Set smoke, " a few inputs per workload");
    ]
  in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1 [--smoke]" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds <= 0.
     || (!trace <> 0 && !trace <> 1)
  then begin
    Arg.usage (Arg.align spec) usage;
    exit 2
  end;
  let traced = !trace = 1 and seed = !seed and seconds = !seconds and smoke = !smoke in
  (* Each traced pass overwrites it, so the last one is kept. *)
  let trace_file = Printf.sprintf "%s/trace-%s-%d.json" work_dir !workload seed in
  let tally = Common.tally () in
  let metrics, samples, seeds, extra =
    let batch kind = batch kind ~trace_file ~seed ~seconds ~traced ~smoke ~tally in
    match !workload with
    | "cat1_pipeline" -> batch Batch.Cat1
    | "cat2_repair" -> batch Batch.Cat2
    | "cat3_map" -> batch Batch.Cat3
    | _ -> serve ~trace_file ~seed ~seconds ~traced ~smoke ~tally
  in
  let samples = ("attempted", tally.attempted) :: samples in
  print_endline
    (Json.to_string
       (manifest ~workload:!workload ~seed ~seconds ~traced ~smoke ~samples ~seeds ~extra));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (correct tally));
            ("attempted", Json.Number (float_of_int tally.attempted));
            ("failed", Json.Number (float_of_int tally.failed));
            ("metrics", metrics_json metrics);
          ]))
