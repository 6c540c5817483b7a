(* The batch workloads: category-I and category-II suites through the
   staged EAS pipeline, category-III graphs through mapping search.

   One op takes one graph from CTG text to an encoded, certified,
   replayed schedule:

     parse -> kernel -> budget -> level_sched -> repair (on misses)
       -> certify -> dvfs reclaim -> certify_scaled -> metrics
       -> encode (schedule format v3) -> time-triggered replay

   On category III, budget/level_sched/repair are replaced by
   {!Noc_map.Search.run} with default parameters (which schedules its
   survivors with pinned EAS). Every call into the library runs inside a
   span named after its layer, so a traced pass yields per-layer self
   times. Batch workloads run with [jobs = 1]. *)

open Common
module Platform = Noc_noc.Platform
module Ctg = Noc_ctg.Ctg
module Ctg_io = Noc_ctg.Ctg_io
module Category = Noc_tgff.Category
module Schedule = Noc_sched.Schedule
module Schedule_io = Noc_sched.Schedule_io
module Metrics = Noc_sched.Metrics
module Certify = Noc_analysis.Certify
module Diagnostic = Noc_analysis.Diagnostic
module Reclaim = Noc_dvfs.Reclaim
module Vf_table = Noc_dvfs.Vf_table
module Executor = Noc_sim.Executor
module Search = Noc_map.Search
module Kernel = Noc_eas.Kernel
module Counters = Noc_obs.Counters
module Trace = Noc_obs.Trace

type kind = Cat1 | Cat2 | Cat3

type input = { index : int; text : string }
type env = { kind : kind; platform : Platform.t; inputs : input array }

(* Graphs per run: the paper's ten-graph suites for categories I and II,
   the first eight category-III graphs (the mapping presets). *)
let suite_size = function Cat1 | Cat2 -> 10 | Cat3 -> 8

let category = function
  | Cat1 -> Category.Category_i
  | Cat2 -> Category.Category_ii
  | Cat3 -> Category.Category_iii

(* Every category runs a fixed suite and the seed sets the order it is
   processed in: per-graph cost varies too much between fresh graphs for
   a run's percentiles to be comparable across seeds (see README.md). *)
let indices kind ~seed =
  let order = Array.init (suite_size kind) Fun.id in
  Noc_util.Prng.shuffle (Noc_util.Prng.create ~seed) order;
  order

let setup kind ~seed ~max_inputs =
  let side = match kind with Cat3 -> 8 | Cat1 | Cat2 -> 4 in
  let platform = Platform.heterogeneous_mesh ~seed:42 ~cols:side ~rows:side () in
  Platform.warm_routes platform;
  let cat = category kind in
  let indices = indices kind ~seed in
  let indices = Array.sub indices 0 (min max_inputs (Array.length indices)) in
  let inputs =
    Array.map
      (fun index ->
        let ctg = Category.benchmark ~platform cat ~index in
        { index; text = Ctg_io.to_string ctg })
      indices
  in
  { kind; platform; inputs }

(* ------------------------------------------------------------------ *)
(* One op.                                                             *)

let span name f = Trace.span ~cat:Layers.category name f

(* Counters read per op in traced passes: deltas over the whole op, and
   separately over the repair call for the two counters level
   scheduling also moves. *)
let op_counters =
  [|
    "eas.finish_time.evaluations";
    "eas.finish_time.reused";
    "eas.repair.rebuilds";
    "eas.repair.accepted_swaps";
    "eas.repair.accepted_migrations";
    "map.sa.proposed";
    "map.sa.accepted";
    "dvfs.downclocked";
    "sim.events";
  |]

let repair_counters = [| "sched.resource_state.reservations"; "sched.comm.transactions" |]
let no_repair = Array.map (fun _ -> 0) repair_counters

let read names = Array.map (fun n -> Counters.value (Counters.counter n)) names

let delta names f =
  let before = read names in
  let v = f () in
  (v, Array.map2 ( - ) (read names) before)

type output = {
  ctg : Ctg.t;
  base : Schedule.t;  (** The delivered unscaled schedule. *)
  reclaimed : Reclaim.result;
  diags : Diagnostic.t list;
  scaled_diags : Diagnostic.t list;
  metrics : Metrics.t;
  encoded : string;
  replay : Executor.outcome;
  repair_deltas : int array;
  misses_before_repair : int;  (** Level scheduling's misses; 0 on category III. *)
}

let ok_exn = function Ok v -> v | Error msg -> failwith msg

let schedule_graph env ~traced ctg =
  let platform = env.platform in
  let kernel = span "kernel" (fun () -> Kernel.build platform ctg) in
  match env.kind with
  | Cat3 ->
    let result = span "map" (fun () -> Search.run ~jobs:1 ~kernel platform ctg) in
    (result.Search.winner.Search.schedule, no_repair, 0)
  | Cat1 | Cat2 ->
    let budget = span "budget" (fun () -> Noc_eas.Budget.compute ~kernel ctg) in
    let base =
      span "level_sched" (fun () ->
          Noc_eas.Level_sched.run ~jobs:1 ~kernel platform ctg budget)
    in
    match Noc_eas.Eas.count_misses ctg base with
    | 0 -> (base, no_repair, 0)
    | misses ->
      let repair () = fst (Noc_eas.Repair.run ~kernel platform ctg base) in
      let repaired, deltas =
        span "repair" (fun () ->
            if traced then delta repair_counters repair else (repair (), no_repair))
      in
      (repaired, deltas, misses)

let ratios = Vf_table.ratios Vf_table.default

let op env ~traced input =
  span "op" @@ fun () ->
  let platform = env.platform in
  let ctg = span "ctg_io" (fun () -> ok_exn (Ctg_io.of_string input.text)) in
  let base, repair_deltas, misses_before_repair = schedule_graph env ~traced ctg in
  let diags = span "certify" (fun () -> Certify.check platform ctg base) in
  let reclaimed = span "dvfs" (fun () -> Reclaim.run ctg base) in
  let scaled_diags =
    span "certify_scaled" (fun () ->
        Certify.check_scaled ~ratios ~annotations:reclaimed.Reclaim.annotations ~base
          platform ctg reclaimed.Reclaim.schedule)
  in
  let metrics = span "metrics" (fun () -> Metrics.compute platform ctg base) in
  let encoded =
    span "schedule_io" (fun () ->
        Schedule_io.to_string ~dvfs:reclaimed.Reclaim.annotations
          reclaimed.Reclaim.schedule)
  in
  let replay = span "sim" (fun () -> Executor.run platform ctg base) in
  {
    ctg;
    base;
    reclaimed;
    diags;
    scaled_diags;
    metrics;
    encoded;
    replay;
    repair_deltas;
    misses_before_repair;
  }

(* ------------------------------------------------------------------ *)
(* Checks.                                                             *)

let first_error diags =
  List.find_opt (fun d -> d.Diagnostic.severity = Diagnostic.Error) diags
  |> Option.map (Format.asprintf "%a" Diagnostic.pp)

let delivered_energy o = o.metrics.Metrics.total_energy -. Reclaim.reclaimed o.reclaimed

(* The replayed placements coincide with the plan. *)
let realises o =
  let planned = Schedule.placements o.base
  and realised = Schedule.placements o.replay.Executor.realised in
  Array.length planned = Array.length realised
  && Array.for_all2
       (fun (p : Schedule.placement) (r : Schedule.placement) ->
         p.pe = r.pe
         && Noc_util.Stats.fequal p.start r.start
         && Noc_util.Stats.fequal p.finish r.finish)
       planned realised

let check env o =
  match (first_error o.diags, first_error o.scaled_diags) with
  | Some d, _ -> Some ("certify: " ^ d)
  | None, Some d -> Some ("certify_scaled: " ^ d)
  | None, None ->
    let certified_energy = Certify.energy env.platform o.ctg o.base in
    if not (Noc_util.Stats.fequal ~eps:1e-9 certified_energy o.metrics.Metrics.total_energy)
    then
      Some
        (Printf.sprintf "energy %.17g differs from Certify.energy %.17g"
           o.metrics.Metrics.total_energy certified_energy)
    else if Metrics.miss_count o.metrics > 0 then Some "deadline misses"
    else if not (realises o) then Some "replay does not realise the plan"
    else if o.replay.Executor.deadline_misses <> [] then Some "replay misses deadlines"
    else None

(* ------------------------------------------------------------------ *)
(* Runs.                                                               *)

type per_input = {
  mutable first : output option;
  mutable plain_walls : float list;  (** Untraced op wall times, s. *)
  mutable traced_walls : float list;
  mutable counters : int array option;  (** Per-op counter deltas. *)
  mutable worst_misses : int;
      (** Most deadline misses any op delivered, failed ops included. *)
}

let run env ~seconds ~traced ~trace_file ~tally =
  let n = Array.length env.inputs in
  let slots =
    Array.init n (fun _ ->
        { first = None; plain_walls = []; traced_walls = []; counters = None; worst_misses = 0 })
  in
  let layer_acc = Layers.acc () in
  let pid = (Domain.self () :> int) in
  let plain_passes = ref [] in
  (* Runs input [i] once; returns the op's wall time unless it raised. *)
  let one ~traced_pass i =
    let input = env.inputs.(i) and slot = slots.(i) in
    let fail msg = report_op tally (Some (Printf.sprintf "input %d: %s" input.index msg)) in
    match
      timed (fun () ->
          if traced_pass then delta op_counters (fun () -> op env ~traced:true input)
          else (op env ~traced:false input, [||]))
    with
    | exception e ->
      fail (Printexc.to_string e);
      None
    | (o, counters), wall ->
      slot.worst_misses <- max slot.worst_misses (Metrics.miss_count o.metrics);
      if traced_pass then begin
        slot.traced_walls <- wall :: slot.traced_walls;
        let counters = Array.append counters o.repair_deltas in
        match slot.counters with
        | Some prev when prev <> counters ->
          run_error tally
            (Printf.sprintf "counters of input %d differ between traced passes" input.index)
        | Some _ -> ()
        | None -> slot.counters <- Some counters
      end
      else slot.plain_walls <- wall :: slot.plain_walls;
      (match check env o with
      | Some msg -> fail msg
      | None -> (
        match slot.first with
        | None ->
          slot.first <- Some o;
          report_op tally None
        | Some f when f.encoded <> o.encoded -> fail "output differs between passes"
        | Some _ -> report_op tally None));
      Some wall
  in
  let all ~traced_pass = List.init n (one ~traced_pass) |> List.filter_map Fun.id in
  let traced_passes = ref 0 in
  let pass i =
    (* A traced run alternates untraced and traced passes so that the
       trace overhead is measured on the same inputs. *)
    if traced && i mod 2 = 1 then begin
      incr traced_passes;
      let walls, ops =
        Layers.traced_section ~file:trace_file ~pid ~roots:[ "op" ] (fun () -> all ~traced_pass:true)
      in
      match ops with
      | Error msg -> run_error tally msg
      | Ok ops ->
        if List.length ops <> List.length walls then
          run_error tally
            (Printf.sprintf "trace holds %d ops, expected %d" (List.length ops)
               (List.length walls));
        List.iter (Layers.add layer_acc) ops
    end
    else plain_passes := all ~traced_pass:false :: !plain_passes
  in
  (* At least two traced passes, so that their counters are compared. *)
  run_passes ~seconds ~min_passes:(if traced then 4 else 1) pass;
  if traced && !traced_passes < 2 then run_error tally "fewer than two traced passes ran";
  (slots, List.rev !plain_passes, layer_acc)

(* The staged pipeline must deliver exactly what the one-call scheduler
   delivers. *)
let check_against_eas env slots ~tally =
  Array.iteri
    (fun i slot ->
      match (env.kind, slot.first) with
      | Cat3, _ | _, None -> ()
      | (Cat1 | Cat2), Some o ->
        let eas = (Noc_eas.Eas.schedule ~jobs:1 env.platform o.ctg).Noc_eas.Eas.schedule in
        if Schedule_io.to_string eas <> Schedule_io.to_string o.base then
          run_error tally
            (Printf.sprintf "input %d: staged pipeline differs from Eas.schedule"
               env.inputs.(i).index))
    slots

(* Latency percentiles are taken over the inputs, of each input's median
   op time. *)
let end_to_end slots passes ~setup_s =
  let walls = List.filter (( <> ) []) (Array.to_list (Array.map (fun s -> s.plain_walls) slots)) in
  let ops = List.fold_left (fun n w -> n + List.length w) 0 walls in
  let medians = List.map median walls in
  let firsts = List.filter_map (fun s -> s.first) (Array.to_list slots) in
  (* Summed in a canonical order, so the float total does not depend on
     the processing order the seed picked. *)
  let energy = sum (List.sort compare (List.map delivered_energy firsts)) in
  ( [
      metric "throughput_ops_s" "1/s" (throughput passes);
      metric "latency_p50_ms" "ms" (ms (percentile medians ~p:50.));
      metric "latency_p90_ms" "ms" (ms (percentile medians ~p:90.));
      metric "latency_p99_ms" "ms" (ms (percentile medians ~p:99.));
      metric "energy_nj" "nJ" energy;
      metric "setup_s" "s" setup_s;
      metric "peak_rss_mb" "MB" (peak_rss_mb ());
    ],
    (* Samples behind each metric: per-pass rates, per-input medians
       (each over one op per pass), and one pass of distinct inputs. *)
    let inputs = Array.length slots in
    [
      ("ops", ops);
      ("throughput_ops_s", List.length passes);
      ("latency_p50_ms", inputs);
      ("latency_p90_ms", inputs);
      ("latency_p99_ms", inputs);
      ("energy_nj", inputs);
    ] )
