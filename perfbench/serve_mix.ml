(* The serve workload: a live daemon ({!Noc_serve.Server.run}) in its own
   domain, driven closed-loop by one client connection.

   The client replays a seeded cycle of request lines over a pool of
   60-task graphs. A few hot graphs are asked for often (plain and DVFS
   schedules); the many cold graphs once a cycle, in a session of plain,
   DVFS and single-PE-fault reschedule requests. The pool's keys
   outnumber the schedule cache, so cache hits sit beside misses,
   inserts and evictions. After one untimed warm-up cycle
   every cycle starts from the same cache state, so whole cycles are
   timed and their counters repeat exactly.

   The proportions below are chosen, not taken from a recorded stream:
   none exists for this daemon. Every run's manifest states the share
   of each request kind and handler class, and how many of the pool's
   reschedules reach the repair cap (see [describe]).

   Every reply is checked: it is [ok], schedules are [certified], and it
   equals (up to the [cached]/[base_cached] flags) the reply an
   in-process server gives the first time it sees the same line. In a
   traced run a shadow in-process server replays each line after the
   daemon answered it; its {!Noc_serve.Server.handle_line} time is the
   handler time of that request, and the wire overhead is the client's
   round trip minus it. *)

open Common
module Server = Noc_serve.Server
module Client = Noc_serve.Client
module Protocol = Noc_serve.Protocol
module Counters = Noc_obs.Counters
module Trace = Noc_obs.Trace

let hot_graphs = 16
let cold_graphs = 64

(* A cycle touches 32 hot and 112 cold keys. A cold key meets the 143
   others between two of its requests, more than the cache holds, so it
   always misses. A hot plain key is asked for ten times a cycle and is
   never evicted, so hot misses, whose number would depend on the order,
   stay rare and cheap: a DVFS key whose base schedule is still cached.
   At capacity 64 a cycle held about four full hot misses, which set p99
   for some seeds and not for others. *)
let capacity = 112
let mesh = (4, 4)

type kind = Plain | Dvfs | Resched | Stats

type request = { line : string; kind : kind; ctg_text : string; fault : string }

type env = { cycle : request array; scale : int; daemon : unit Domain.t; client : Client.t }

(* ------------------------------------------------------------------ *)
(* Inputs.                                                             *)

let request_line kind ~ctg_text ~fault =
  let algo = Noc_experiments.Runner.Eas in
  Protocol.request_to_line
    (match kind with
    | Plain -> Protocol.Schedule { ctg_text; mesh; algo; decisions = false; dvfs = None }
    | Dvfs ->
      Protocol.Schedule
        { ctg_text; mesh; algo; decisions = false; dvfs = Some Noc_dvfs.Vf_table.default }
    | Resched -> Protocol.Reschedule { ctg_text; mesh; algo; faults = [ fault ] }
    | Stats -> Protocol.Stats)

(* The graph pool is fixed, like the paper's suites: 60-task graphs in
   the category-I deadline regime (tightness 2.5), generator seeds
   [graph_seed_base + g].

   Requests per graph and cycle: hot graphs 10 plain and 4 DVFS
   schedules, each sent on its own; cold graph [i] one session of a plain
   schedule, then a DVFS schedule when [i] is even, then a single-PE-fault
   reschedule when [i] is a multiple of four. The seed shuffles the hot
   requests, the cold sessions and the [stats] requests, which decides
   what the LRU cache holds when each request arrives. A cold key is
   asked for once per cycle and the cycle touches more keys than the
   cache holds, so every cold request recomputes. Within a session the
   DVFS schedule and the reschedule always find their base schedule
   cached, so what a cold request costs does not depend on the seed. *)
let graph_seed_base = 5_000

let mix ~hot i =
  if hot then [ (Plain, 10); (Dvfs, 4) ]
  else
    [
      (Plain, 1);
      (Dvfs, if i mod 2 = 0 then 1 else 0);
      (Resched, if i mod 4 = 0 then 1 else 0);
    ]

let pool_size ~scale = max 1 (hot_graphs / scale) + max 1 (cold_graphs / scale)
let graph_seeds ~scale = List.init (pool_size ~scale) (fun g -> graph_seed_base + g)

let make_cycle ~seed ~scale =
  let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:4 ~rows:4 () in
  Noc_noc.Platform.warm_routes platform;
  let params =
    { Noc_tgff.Params.default with Noc_tgff.Params.n_tasks = 60; deadline_tightness = 2.5 }
  in
  let hot = max 1 (hot_graphs / scale) and cold = max 1 (cold_graphs / scale) in
  (* Units of the shuffle: single hot requests and whole cold sessions. *)
  let units =
    List.init (hot + cold) (fun g ->
        let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed:(graph_seed_base + g) in
        let ctg_text = Noc_ctg.Ctg_io.to_string ctg in
        let fault = Printf.sprintf "pe:%d" (g * 7 mod 16) in
        let requests =
          List.concat_map
            (fun (kind, n) ->
              let req = { line = request_line kind ~ctg_text ~fault; kind; ctg_text; fault } in
              List.init n (fun _ -> req))
            (mix ~hot:(g < hot) (g - hot))
        in
        if g < hot then List.map (fun req -> [ req ]) requests else [ requests ])
    |> List.concat
  in
  let stats =
    { line = request_line Stats ~ctg_text:"" ~fault:""; kind = Stats; ctg_text = ""; fault = "" }
  in
  let units = Array.of_list (units @ List.init (max 1 (8 / scale)) (fun _ -> [ stats ])) in
  Noc_util.Prng.shuffle (Noc_util.Prng.create ~seed) units;
  Array.of_list (List.concat (Array.to_list units))

(* The smoke run shrinks the cache with the pool, so it still evicts. *)
let config ~scale socket_path =
  { Server.socket_path; capacity = max 1 (capacity / scale); jobs = None }

(* Set-up: inputs, then a daemon bound and a client connected. *)
let setup ~seed ~scale =
  let cycle = make_cycle ~seed ~scale in
  ensure_dir work_dir;
  let socket_path = Printf.sprintf "%s/serve-%d.sock" work_dir (Unix.getpid ()) in
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Server.run ~on_ready:(fun () -> Atomic.set ready true) (config ~scale socket_path))
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.0002
  done;
  let client = Client.connect ~socket_path () in
  { cycle; scale; daemon; client }

let shutdown env =
  ignore (Client.request env.client (Protocol.request_to_line Protocol.Shutdown));
  Client.close env.client;
  Domain.join env.daemon

(* ------------------------------------------------------------------ *)
(* Reply checks.                                                       *)

let parse reply = match Json.parse reply with Ok j -> j | Error _ -> Json.Null

let member name j = Json.member name j

let normalise = function
  | Json.Obj fields ->
    Json.to_string
      (Json.Obj (List.filter (fun (k, _) -> k <> "cached" && k <> "base_cached") fields))
  | j -> Json.to_string j

let number name j = match member name j with Some (Json.Number n) -> n | _ -> nan

type seen = { expected : string; energy : float }

let check_json ~reference ~seen (req : request) reply_json =
  if member "ok" reply_json <> Some (Json.Bool true) then
    Some
      (match member "error" reply_json with
      | Some (Json.String e) -> "reply not ok: " ^ e
      | _ -> "reply not ok")
  else
    match req.kind with
    | Stats -> None
    | Plain | Dvfs | Resched ->
      if member "certified" reply_json <> Some (Json.Bool true) then Some "not certified"
      else
        let expected =
          match Hashtbl.find_opt seen req.line with
          | Some s -> s.expected
          | None ->
            let one_shot = parse (fst (Server.handle_line reference req.line)) in
            let s = { expected = normalise one_shot; energy = number "energy" one_shot } in
            Hashtbl.replace seen req.line s;
            s.expected
        in
        if normalise reply_json <> expected then Some "reply differs from the in-process result"
        else None

(* A line's replies differ only in their cache flags, so each distinct
   reply text is checked once and remembered by its digest. *)
let check ~reference ~seen ~verified (req : request) reply =
  let digest = Noc_util.Fnv.fnv1a64 reply in
  let known = Option.value (Hashtbl.find_opt verified req.line) ~default:[] in
  if List.mem digest known then None
  else
    let err = check_json ~reference ~seen req (parse reply) in
    if err = None then Hashtbl.replace verified req.line (digest :: known);
    err

(* ------------------------------------------------------------------ *)
(* The run.                                                            *)

let daemon_counters =
  [|
    "eas.finish_time.evaluations";
    "eas.finish_time.reused";
    "eas.repair.rebuilds";
    "eas.repair.accepted_swaps";
    "eas.repair.accepted_migrations";
    "sched.resource_state.reservations";
    "sched.comm.transactions";
    "dvfs.downclocked";
    "sim.events";
  |]

let read () = Array.map (fun n -> Counters.value (Counters.counter n)) daemon_counters

let cache_stats client =
  let j = parse (Client.request client (Protocol.request_to_line Protocol.Stats)) in
  match member "cache" j with
  | Some c -> (number "hits" c, number "misses" c, number "evictions" c)
  | None -> (nan, nan, nan)

(* Handler classes: a cache hit of any kind, a schedule computed afresh,
   a reschedule computed afresh, and [stats]. *)
type cls = Hit | Miss | Resched_miss | Other

let classify (req : request) reply_json =
  match req.kind with
  | Stats -> Other
  | _ when member "cached" reply_json = Some (Json.Bool true) -> Hit
  | Plain | Dvfs -> Miss
  | Resched -> Resched_miss

type traced_req = { cls : cls; wire : float; handler : float; misses : float }

type result = {
  cycles : float array list;  (** Untraced round trips of each timed cycle, s, by position. *)
  classes : cls array;  (** Handler class of each position of a timed cycle. *)
  traced : traced_req list;
  per_cycle : (int array * (float * float * float)) list;
      (** Daemon counter and cache-stat deltas of each traced cycle. *)
  layer_acc : Layers.acc;
  seen : (string, seen) Hashtbl.t;
}

let run env ~seconds ~traced ~trace_file ~tally =
  let config = config ~scale:env.scale "unused" in
  let reference = Server.make_state { config with capacity = 1024 } in
  let shadow = if traced then Some (Server.make_state config) else None in
  let seen = Hashtbl.create 256 and verified = Hashtbl.create 256 in
  let len = Array.length env.cycle in
  let cycles = ref [] and traced_reqs = ref [] and per_cycle = ref [] in
  let classes = Array.make len Other and classified = ref false in
  let layer_acc = Layers.acc () in
  let pid = (Domain.self () :> int) in
  let cycle_counters = ref [||] in
  let send ~walls ~traced_cycle pos (req : request) =
    let before = if traced_cycle then read () else [||] in
    let reply, wire = timed (fun () -> Client.request env.client req.line) in
    let daemon_delta = if traced_cycle then Array.map2 ( - ) (read ()) before else [||] in
    if traced_cycle then cycle_counters := Array.map2 ( + ) !cycle_counters daemon_delta;
    let handler =
      match shadow with
      | None -> 0.
      | Some state ->
        let before = read () in
        let (shadow_reply, _), handler =
          timed (fun () ->
              Trace.span ~cat:Layers.category "serve.handler" (fun () ->
                  Server.handle_line state req.line))
        in
        let shadow_delta = Array.map2 ( - ) (read ()) before in
        if traced_cycle && shadow_delta <> daemon_delta then
          run_error tally "shadow server counters differ from the daemon's";
        if req.kind <> Stats && shadow_reply <> reply then
          run_error tally "shadow server reply differs from the daemon's";
        handler
    in
    let err = check ~reference ~seen ~verified req reply in
    match walls with
    | None -> Option.iter (fun e -> run_error tally ("warm-up: " ^ e)) err
    | Some walls ->
      if traced_cycle then begin
        let j = parse reply in
        let cls = classify req j in
        if cls <> classes.(pos) then
          run_error tally "a request met another cache state than in the first timed cycle";
        let misses = match member "misses" j with Some (Json.Number n) -> n | _ -> 0. in
        traced_reqs := { cls; wire; handler; misses } :: !traced_reqs
      end
      else begin
        walls.(pos) <- wire;
        if not !classified then classes.(pos) <- classify req (parse reply)
      end;
      report_op tally err
  in
  let cycle ?walls ~traced_cycle () = Array.iteri (send ~walls ~traced_cycle) env.cycle in
  (* Warm-up: fills the daemon's cache (and the shadow's) and computes
     the expected replies. *)
  cycle ~traced_cycle:false ();
  let traced_cycles = ref 0 in
  let pass i =
    let walls = Array.make len 0. in
    if traced && i mod 2 = 1 then begin
      incr traced_cycles;
      let h0, m0, e0 = cache_stats env.client in
      cycle_counters := Array.map (fun _ -> 0) daemon_counters;
      let (), ops =
        Layers.traced_section ~file:trace_file ~pid ~roots:[ "serve.handler" ] (fun () ->
            cycle ~walls ~traced_cycle:true ())
      in
      let h1, m1, e1 = cache_stats env.client in
      per_cycle := (!cycle_counters, (h1 -. h0, m1 -. m0, e1 -. e0)) :: !per_cycle;
      match ops with
      | Error msg -> run_error tally msg
      | Ok ops -> List.iter (Layers.add layer_acc) ops
    end
    else begin
      cycle ~walls ~traced_cycle:false ();
      classified := true;
      cycles := walls :: !cycles
    end
  in
  (* A traced run alternates untraced and traced cycles, the first one
     untraced; at least two traced cycles are compared. *)
  run_passes ~seconds ~min_passes:(if traced then 4 else 1) pass;
  if traced && !traced_cycles < 2 then run_error tally "fewer than two traced cycles ran";
  (match !per_cycle with
  | first :: rest ->
    if List.exists (fun c -> c <> first) rest then
      run_error tally "counters differ between traced cycles"
  | [] -> ());
  {
    cycles = List.rev !cycles;
    classes;
    traced = !traced_reqs;
    per_cycle = !per_cycle;
    layer_acc;
    seen;
  }

let untraced_wires r = List.concat_map Array.to_list r.cycles

(* Latency percentiles are taken over the positions of the cycle, of each
   position's median round trip over the timed cycles. Every timed cycle
   meets the same cache state, so a position is always a hit or always a
   miss, as a batch input is always the same graph.

   [stats] positions are left out of the percentiles (not out of the
   throughput). A [stats] reply summarises every latency the process has
   recorded, sorting all of them each time, so its cost grows with the
   requests served before it: on a 2-core VM, from about 0.2 ms in the
   first timed cycle to 5 ms in the last of a 25-s run. Being the slowest requests after
   three reschedules, they would set p99, and a faster daemon, serving
   more requests in the run, would show a slower p99. *)
let end_to_end env r ~setup_s =
  let positions = Array.length env.cycle and n_cycles = List.length r.cycles in
  let medians =
    List.init positions Fun.id
    |> List.filter (fun k -> env.cycle.(k).kind <> Stats)
    |> List.map (fun k -> median (List.map (fun c -> c.(k)) r.cycles))
  in
  let timed_positions = List.length medians in
  let distinct = Hashtbl.create 256 in
  Array.iter
    (fun (req : request) -> if req.kind <> Stats then Hashtbl.replace distinct req.line ())
    env.cycle;
  (* Summed in a canonical order, so the float total does not depend on
     the cycle order the seed picked. *)
  let energy =
    Hashtbl.fold
      (fun line () es ->
        match Hashtbl.find_opt r.seen line with
        | Some s -> s.energy :: es
        | None -> es (* refused: already counted as a failed op *))
      distinct []
    |> List.sort compare |> sum
  in
  ( [
      metric "throughput_ops_s" "1/s" (throughput (List.map Array.to_list r.cycles));
      metric "latency_p50_ms" "ms" (ms (percentile medians ~p:50.));
      metric "latency_p90_ms" "ms" (ms (percentile medians ~p:90.));
      metric "latency_p99_ms" "ms" (ms (percentile medians ~p:99.));
      metric "energy_nj" "nJ" energy;
      metric "setup_s" "s" setup_s;
      metric "peak_rss_mb" "MB" (peak_rss_mb ());
    ],
    (* Samples behind each metric: per-cycle rates, per-position medians
       (each over one request per cycle), and the distinct schedule
       requests of one cycle. *)
    [
      ("ops", positions * n_cycles);
      ("throughput_ops_s", n_cycles);
      ("latency_p50_ms", timed_positions);
      ("latency_p90_ms", timed_positions);
      ("latency_p99_ms", timed_positions);
      ("latency_cycles", n_cycles);
      ("energy_nj", Hashtbl.length distinct);
    ] )

(* ------------------------------------------------------------------ *)
(* What the stream is made of, for the manifest.                      *)

(* {!Noc_eas.Repair.run}'s default rebuild cap, which the daemon's
   reschedule ladder runs under. *)
let repair_cap = 4_000

(* One pool reschedule run one-shot in process: whether its incremental
   repair reached the rebuild cap, and whether the full re-run won. *)
let probe_reschedule platform (req : request) =
  let ok = function Ok v -> v | Error msg -> failwith msg in
  let ctg = ok (Noc_ctg.Ctg_io.of_string req.ctg_text) in
  let base = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule in
  let faults = ok (Noc_fault.Fault_set.of_strings [ req.fault ]) in
  let outcome = Noc_eas.Fault_resched.run platform ctg ~faults base in
  let stats = outcome.Noc_eas.Fault_resched.stats in
  let at_cap =
    match stats.Noc_eas.Fault_resched.repair with
    | Some r -> r.Noc_eas.Repair.evaluations >= repair_cap
    | None -> false
  in
  (at_cap, stats.Noc_eas.Fault_resched.used_full_rerun)

let describe env r =
  let n = float_of_int (Array.length env.cycle) in
  let share_of xs p =
    let k = Array.fold_left (fun k x -> if p x then k + 1 else k) 0 xs in
    Json.Number (float_of_int k /. n)
  in
  let kinds = Array.map (fun (req : request) -> req.kind) env.cycle in
  let reschedules =
    List.sort_uniq compare
      (List.filter (fun (req : request) -> req.kind = Resched) (Array.to_list env.cycle))
  in
  let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:4 ~rows:4 () in
  let probes = List.map (probe_reschedule platform) reschedules in
  let count p = Json.Number (float_of_int (List.length (List.filter p probes))) in
  [
    ( "serve_stream",
      Json.Obj
        [
          ("requests_per_cycle", Json.Number n);
          ( "request_shares",
            Json.Obj
              [
                ("plain", share_of kinds (( = ) Plain));
                ("dvfs", share_of kinds (( = ) Dvfs));
                ("reschedule", share_of kinds (( = ) Resched));
                ("stats", share_of kinds (( = ) Stats));
              ] );
          ( "class_shares",
            Json.Obj
              [
                ("hit", share_of r.classes (( = ) Hit));
                ("miss", share_of r.classes (( = ) Miss));
                ("reschedule_miss", share_of r.classes (( = ) Resched_miss));
                ("stats", share_of r.classes (( = ) Other));
              ] );
          ("pool_reschedules", Json.Number (float_of_int (List.length probes)));
          ("reschedules_at_repair_cap", count fst);
          ("reschedules_full_rerun", count snd);
        ] );
  ]
