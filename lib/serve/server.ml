module Json = Noc_obs.Json
module Counters = Noc_obs.Counters
module Decisions = Noc_obs.Decisions
module Ctg = Noc_ctg.Ctg
module Ctg_io = Noc_ctg.Ctg_io
module Edge = Noc_ctg.Edge
module Platform = Noc_noc.Platform
module Schedule = Noc_sched.Schedule
module Schedule_io = Noc_sched.Schedule_io
module Metrics = Noc_sched.Metrics
module Fault_set = Noc_fault.Fault_set
module Pipeline = Noc_pipeline.Pipeline
module Certify = Noc_analysis.Certify
module Diagnostic = Noc_analysis.Diagnostic

type config = { socket_path : string; capacity : int; jobs : int option }

let default_config ~socket_path = { socket_path; capacity = 64; jobs = None }

(* A cached result. [ctg] is the graph the schedule's transaction labels
   refer to: a digest-equal request whose edges are declared in another
   order gets its transactions relabelled through the arc-endpoint map
   (see [relabel]). [resched] carries the incremental-rescheduling stats
   when the entry came from a [reschedule] request. *)
type entry = {
  ctg : Ctg.t;
  schedule : Schedule.t;
  text : string;
  energy : float;
  makespan : float;
  misses : int;
  decisions : string option;
  resched : (int * int * bool) option;  (* migrated, rerouted, full_rerun *)
  dvfs : (Noc_dvfs.Vf_table.t * Schedule_io.annotation array * int * float) option;
      (* ladder, per-task annotations, downclocked, reclaimed nJ — the
         entry's schedule/text are then the scaled (format v3) ones *)
}

type state = {
  config : config;
  platforms : (int * int, Platform.t * string) Hashtbl.t;
      (** Warm platform and its memoized content digest per mesh. *)
  platforms_lock : Mutex.t;
  schedules : entry Cache.t;
  kernels : Noc_eas.Kernel.t Cache.t;
  parses : (Ctg.t * string) Cache.t;
      (** [ctg_text -> (parsed graph, Ctg.digest)]: a warm cache hit
          costs neither the text parse nor the canonical-serialization
          digest, only the wire-JSON parse. Keyed by the raw request
          text, so only byte-identical texts short-circuit; a permuted
          but digest-equal text takes the slow path once and then hits
          the schedule cache through {!relabel}. *)
  requests : int Atomic.t;
  errors : int Atomic.t;
}

let make_state config =
  Counters.set_enabled true;
  {
    config;
    platforms = Hashtbl.create 4;
    platforms_lock = Mutex.create ();
    schedules = Cache.create ~capacity:config.capacity;
    kernels = Cache.create ~capacity:(max 8 config.capacity);
    parses = Cache.create ~capacity:(max 8 config.capacity);
    requests = Atomic.make 0;
    errors = Atomic.make 0;
  }

(* {!Pipeline.mesh_platform}, as in the CLI front end, so the daemon
   serves bit-identical schedules to one-shot `nocsched schedule` runs.
   Routes are warmed before the platform is published so pool workers
   only ever read the memo. *)
let platform_for state mesh =
  Mutex.lock state.platforms_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock state.platforms_lock)
    (fun () ->
      match Hashtbl.find_opt state.platforms mesh with
      | Some pd -> pd
      | None ->
        let p = Pipeline.mesh_platform mesh in
        Platform.warm_routes p;
        let pd = (p, Platform.digest p) in
        Hashtbl.replace state.platforms mesh pd;
        pd)

(* Parse-and-digest, memoized on the raw text (see [state.parses]). *)
let parse_graph state ctg_text =
  match Cache.find state.parses ctg_text with
  | Some v -> Ok v
  | None -> (
    match Ctg_io.of_string ctg_text with
    | Error _ as e -> e
    | Ok ctg ->
      let v = (ctg, Ctg.digest ctg) in
      Cache.add state.parses ctg_text v;
      Ok v)

(* ------------------------------------------------------------------ *)
(* Decision-log capture.                                               *)

(* Reproduces a fresh one-shot process: ambient run label "" and a
   sequence counter starting at 0 ([with_run] resets both). Global
   state, so decision-carrying requests are never fanned over the pool
   (see [parallel_ok]). *)
let capture_decisions f =
  Decisions.reset ();
  Decisions.set_enabled true;
  let result =
    Fun.protect
      ~finally:(fun () -> Decisions.set_enabled false)
      (fun () -> Decisions.with_run "" f)
  in
  let jsonl = Decisions.export_jsonl () in
  Decisions.reset ();
  (result, jsonl)

(* ------------------------------------------------------------------ *)
(* Cache-hit relabelling.                                              *)

let same_edges a b =
  Ctg.n_edges a = Ctg.n_edges b
  && Array.for_all2
       (fun (x : Edge.t) (y : Edge.t) ->
         x.src = y.src && x.dst = y.dst && x.volume = y.volume)
       (Ctg.edges a) (Ctg.edges b)

(* Serialise with the entry's DVFS annotations when it carries them, so
   a relabelled scaled entry keeps its format-v3 text. *)
let entry_text (entry : entry) schedule =
  match entry.dvfs with
  | Some (_, annotations, _, _) -> Schedule_io.to_string ~dvfs:annotations schedule
  | None -> Schedule_io.to_string schedule

(* A digest-equal graph may still declare its edges in another order
   (edge ids are labels, not semantics — the digest sorts arcs by
   endpoints). The cached schedule is the right answer, but its
   transaction labels refer to the cached graph; remap each transaction
   to the request graph's id for the same (src, dst) arc. Ctg validation
   guarantees arcs are unique per endpoint pair, so the map is a
   bijection when the graphs really are the same problem; any mismatch
   (an FNV collision) falls back to a fresh computation. *)
let relabel (entry : entry) (ctg : Ctg.t) =
  if same_edges entry.ctg ctg then Some { entry with ctg }
  else if Ctg.n_edges entry.ctg <> Ctg.n_edges ctg then None
  else
    let by_arc = Hashtbl.create (Ctg.n_edges ctg) in
    Array.iter
      (fun (e : Edge.t) -> Hashtbl.replace by_arc (e.src, e.dst) e)
      (Ctg.edges ctg);
    let out = Array.make (Ctg.n_edges ctg) None in
    try
      Array.iter
        (fun (tr : Schedule.transaction) ->
          let cached_edge = Ctg.edge entry.ctg tr.edge in
          match Hashtbl.find_opt by_arc (cached_edge.src, cached_edge.dst) with
          | Some e when e.volume = cached_edge.volume && out.(e.id) = None ->
            out.(e.id) <- Some { tr with edge = e.id }
          | Some _ | None -> raise Exit)
        (Schedule.transactions entry.schedule);
      let transactions = Array.map (function Some t -> t | None -> raise Exit) out in
      let schedule =
        Schedule.make ~placements:(Schedule.placements entry.schedule) ~transactions
      in
      (* Decision records name tasks and PEs, never edge ids, so they
         survive the relabelling unchanged — as do DVFS annotations. *)
      Some { entry with ctg; schedule; text = entry_text entry schedule }
    with Exit | Invalid_argument _ -> None

(* The entry cached under [key], relabelled to the request's graph;
   [None] (compute afresh) when there is none, when relabelling fails,
   or when the request wants a decision log the entry does not carry. *)
let cached state key ctg ~want_decisions =
  match Option.bind (Cache.find state.schedules key) (fun e -> relabel e ctg) with
  | Some { decisions = None; _ } when want_decisions -> None
  | hit -> hit

(* ------------------------------------------------------------------ *)
(* Scheduling.                                                         *)

(* Kernels are reused across runs — [Kernel.build] is deterministic and
   the kernel is read-only after construction, so reuse is bit-neutral.
   EDF takes no kernel, so it neither builds nor caches one. *)
let kernel_for state platform ctg algo ~digests =
  let ctg_digest, platform_digest = digests in
  match algo with
  | Pipeline.Edf -> None
  | Pipeline.Eas | Pipeline.Eas_base -> (
    let key = ctg_digest ^ ":" ^ platform_digest in
    match Cache.find state.kernels key with
    | Some k -> Some k
    | None ->
      let k = Noc_eas.Kernel.build platform ctg in
      Cache.add state.kernels key k;
      Some k)

let certification_error diags =
  let errors, warnings, _ = Diagnostic.count diags in
  if errors = 0 then None
  else
    Some
      (Printf.sprintf "schedule failed certification: %d error(s), %d warning(s); first: %s"
         errors warnings
         (match
            List.find_opt
              (fun d -> d.Diagnostic.severity = Diagnostic.Error)
              diags
          with
         | Some d -> Format.asprintf "%a" Diagnostic.pp d
         | None -> "?"))

(* A full (cache-miss) run of the certified pipeline, with its decision
   log when wanted; [Error] when the base schedule does not certify. *)
let run_pipeline ?vf state platform ctg algo ~digests ~want_decisions =
  let kernel = kernel_for state platform ctg algo ~digests in
  let run () = Pipeline.run ?kernel ?vf algo platform ctg in
  let p, decisions =
    if want_decisions then
      let p, d = capture_decisions run in
      (p, Some d)
    else (run (), None)
  in
  match certification_error p.Pipeline.diagnostics with
  | Some msg -> Error msg
  | None -> Ok (p, decisions)

let compute_fresh state platform ctg algo ~digests ~want_decisions =
  run_pipeline state platform ctg algo ~digests ~want_decisions
  |> Result.map (fun ((p : Pipeline.result), decisions) ->
         {
           ctg;
           schedule = p.schedule;
           text = Schedule_io.to_string p.schedule;
           energy = p.metrics.Metrics.total_energy;
           makespan = p.metrics.Metrics.makespan;
           misses = Metrics.miss_count p.metrics;
           decisions;
           resched = None;
           dvfs = None;
         })

(* The memoised schedule for (algo, ctg, platform) with no faults.
   Returns the entry (relabelled to the request's graph), whether it was
   served from the cache, and the cache key. A hit that needs a decision
   log the entry does not carry is recomputed in full (and the richer
   entry replaces the cached one). *)
let empty_fault_digest = Digest.fault_set Fault_set.empty

let obtain state platform ctg algo ~digests ~want_decisions =
  let ctg_digest, platform_digest = digests in
  let key =
    Digest.make ~algo ~ctg_digest ~platform_digest
      ~fault_digest:empty_fault_digest ()
  in
  match cached state key ctg ~want_decisions with
  | Some entry -> Ok (entry, true, key)
  | None ->
    compute_fresh state platform ctg algo ~digests ~want_decisions
    |> Result.map (fun entry ->
           Cache.add state.schedules key entry;
           (entry, false, key))

(* ------------------------------------------------------------------ *)
(* Request handlers.                                                   *)

let num n = Json.Number n
let int_num n = Json.Number (float_of_int n)

let schedule_fields ~cached ~key ~algo (entry : entry) =
  [
    ("cached", Json.Bool cached);
    ("key", Json.String key);
    ("algo", Json.String (Pipeline.algo_wire algo));
    ("certified", Json.Bool true);
    ("energy", num entry.energy);
    ("makespan", num entry.makespan);
    ("misses", int_num entry.misses);
    ("schedule", Json.String entry.text);
  ]

let with_graph state ?id ~ctg_text ~mesh k =
  match parse_graph state ctg_text with
  | Error msg -> Protocol.error_line ?id ("ctg: " ^ msg)
  | Ok (ctg, ctg_digest) -> (
    (* Before [platform_for]: a mismatched mesh must cost neither a
       platform build nor a memo slot. *)
    match Pipeline.check_fits mesh ctg with
    | Error msg -> Protocol.error_line ?id msg
    | Ok () ->
      let platform, platform_digest = platform_for state mesh in
      k platform ctg ~digests:(ctg_digest, platform_digest))

let decisions_field ~decisions (entry : entry) fields =
  match entry.decisions with
  | Some d when decisions -> fields @ [ ("decisions", Json.String d) ]
  | Some _ | None -> fields

(* DVFS slack reclamation over the committed base schedule. The scaled
   entry lives under its own cache key ({!Digest.vf_table} segment), so
   a [--dvfs] request never aliases a cached unscaled schedule and vice
   versa. When a decision log is wanted the EAS placements and the
   downclocks must share one run label for CLI bit-parity, so the fresh
   path wraps schedule + reclaim in a single [capture_decisions];
   otherwise the base comes through the normal (possibly cached)
   [obtain] path and only the cheap reclamation pass runs. *)
let handle_dvfs_schedule state ?id ~algo ~decisions ~table platform ctg ~digests =
  let ctg_digest, platform_digest = digests in
  let dkey =
    Digest.make ~dvfs_digest:(Digest.vf_table table) ~algo ~ctg_digest
      ~platform_digest ~fault_digest:empty_fault_digest ()
  in
  let reply ~cached ~base_cached (entry : entry) =
    let table, downclocked, reclaimed =
      match entry.dvfs with
      | Some (t, _, d, rj) -> (t, d, rj)
      | None -> (table, 0, 0.)
    in
    schedule_fields ~cached ~key:dkey ~algo entry
    @ [
        ("dvfs", Json.Bool true);
        ("vf_levels", Json.String (Noc_dvfs.Vf_table.to_string table));
        ("downclocked", int_num downclocked);
        ("reclaimed", num reclaimed);
        ("base_cached", Json.Bool base_cached);
      ]
    |> decisions_field ~decisions entry
    |> Protocol.ok_line ?id ~op:"schedule"
  in
  let fresh () =
    let base_result =
      if decisions then
        run_pipeline ~vf:table state platform ctg algo ~digests ~want_decisions:true
        |> Result.map (fun ((p : Pipeline.result), dlog) ->
               (p.metrics.Metrics.total_energy, false, dlog, Option.get p.dvfs))
      else
        match obtain state platform ctg algo ~digests ~want_decisions:false with
        | Error msg -> Error msg
        | Ok (base_entry, base_cached, _) ->
          Ok
            ( base_entry.energy,
              base_cached,
              None,
              Pipeline.reclaim table platform ctg base_entry.schedule )
    in
    match base_result with
    | Error msg -> Protocol.error_line ?id msg
    | Ok (base_energy, base_cached, dlog, d) -> (
      match certification_error d.Pipeline.scaled_diagnostics with
      | Some msg -> Protocol.error_line ?id ("dvfs: " ^ msg)
      | None ->
        let r = d.Pipeline.reclaim in
        let annotations = r.Noc_dvfs.Reclaim.annotations in
        let scaled = r.Noc_dvfs.Reclaim.schedule in
        let reclaimed = Noc_dvfs.Reclaim.reclaimed r in
        let entry =
          {
            ctg;
            schedule = scaled;
            text = Schedule_io.to_string ~dvfs:annotations scaled;
            energy = base_energy -. reclaimed;
            makespan = Schedule.makespan scaled;
            misses = Metrics.miss_count d.Pipeline.scaled_metrics;
            decisions = dlog;
            resched = None;
            dvfs = Some (table, annotations, r.Noc_dvfs.Reclaim.downclocked, reclaimed);
          }
        in
        Cache.add state.schedules dkey entry;
        reply ~cached:false ~base_cached entry)
  in
  match cached state dkey ctg ~want_decisions:decisions with
  | Some entry -> reply ~cached:true ~base_cached:true entry
  | None -> fresh ()

let handle_schedule state ?id ~ctg_text ~mesh ~algo ~decisions ~dvfs () =
  with_graph state ?id ~ctg_text ~mesh @@ fun platform ctg ~digests ->
  match dvfs with
  | Some table ->
    handle_dvfs_schedule state ?id ~algo ~decisions ~table platform ctg ~digests
  | None -> (
    match obtain state platform ctg algo ~digests ~want_decisions:decisions with
    | Error msg -> Protocol.error_line ?id msg
    | Ok (entry, cached, key) ->
      schedule_fields ~cached ~key ~algo entry
      |> decisions_field ~decisions entry
      |> Protocol.ok_line ?id ~op:"schedule")

let handle_simulate state ?id ~ctg_text ~mesh ~algo ~faults ~self_timed () =
  match Fault_set.of_strings faults with
  | Error msg -> Protocol.error_line ?id ("faults: " ^ msg)
  | Ok faults -> (
    with_graph state ?id ~ctg_text ~mesh @@ fun platform ctg ~digests ->
    match obtain state platform ctg algo ~digests ~want_decisions:false with
    | Error msg -> Protocol.error_line ?id msg
    | Ok (entry, cached, key) ->
      let discipline =
        if self_timed then Noc_sim.Executor.Self_timed
        else Noc_sim.Executor.Time_triggered
      in
      let outcome =
        Noc_sim.Executor.run ~discipline ~faults platform ctg entry.schedule
      in
      Protocol.ok_line ?id ~op:"simulate"
        (schedule_fields ~cached ~key ~algo entry
        @ [
            ( "sim_misses",
              int_num (List.length outcome.Noc_sim.Executor.deadline_misses) );
            ("lost_tasks", int_num (List.length outcome.Noc_sim.Executor.lost_tasks));
            ("waiting_time", num outcome.Noc_sim.Executor.waiting_time);
            ( "realised_makespan",
              num (Schedule.makespan outcome.Noc_sim.Executor.realised) );
          ]))

let resched_fields = function
  | None -> []
  | Some (migrated, rerouted, full_rerun) ->
    [
      ("migrated", int_num migrated);
      ("rerouted", int_num rerouted);
      ("full_rerun", Json.Bool full_rerun);
    ]

let handle_reschedule state ?id ~ctg_text ~mesh ~algo ~faults () =
  match Fault_set.of_strings faults with
  | Error msg -> Protocol.error_line ?id ("faults: " ^ msg)
  | Ok faults -> (
    with_graph state ?id ~ctg_text ~mesh @@ fun platform ctg ~digests ->
    let ctg_digest, platform_digest = digests in
    let full_key =
      Digest.make ~algo ~ctg_digest ~platform_digest
        ~fault_digest:(Digest.fault_set faults) ()
    in
    let fresh () =
      match obtain state platform ctg algo ~digests ~want_decisions:false with
      | Error msg -> Protocol.error_line ?id ("base schedule: " ^ msg)
      | Ok (base, base_cached, _) -> (
        match Pipeline.reschedule platform ctg ~faults base.schedule with
        | exception Invalid_argument msg ->
          Protocol.error_line ?id ("reschedule: " ^ msg)
        | outcome, diags ->
          let schedule = outcome.Noc_eas.Fault_resched.schedule in
          (* The certifier's own Eq.-3 total: detour routes diverge from
             the deterministic-route energy of Metrics. *)
          (match certification_error diags with
          | Some msg -> Protocol.error_line ?id msg
          | None ->
            let stats = outcome.Noc_eas.Fault_resched.stats in
            let entry =
              {
                ctg;
                schedule;
                text = Schedule_io.to_string schedule;
                energy = Certify.energy platform ctg schedule;
                makespan = Schedule.makespan schedule;
                misses = stats.Noc_eas.Fault_resched.misses;
                decisions = None;
                dvfs = None;
                resched =
                  Some
                    ( stats.Noc_eas.Fault_resched.migrated_tasks,
                      stats.Noc_eas.Fault_resched.rerouted_transactions,
                      stats.Noc_eas.Fault_resched.used_full_rerun );
              }
            in
            Cache.add state.schedules full_key entry;
            Protocol.ok_line ?id ~op:"reschedule"
              (schedule_fields ~cached:false ~key:full_key ~algo entry
              @ resched_fields entry.resched
              @ [ ("base_cached", Json.Bool base_cached) ])))
    in
    match cached state full_key ctg ~want_decisions:false with
    | Some entry ->
      Protocol.ok_line ?id ~op:"reschedule"
        (schedule_fields ~cached:true ~key:full_key ~algo entry
        @ resched_fields entry.resched)
    | None -> fresh ())

let cache_json c =
  Json.Obj
    [
      ("capacity", int_num (Cache.capacity c));
      ("entries", int_num (Cache.length c));
      ("hits", int_num (Cache.hits c));
      ("misses", int_num (Cache.misses c));
      ("evictions", int_num (Cache.evictions c));
    ]

let handle_stats state ?id () =
  let latency =
    Counters.summaries ()
    |> List.filter (fun (name, _) -> String.starts_with ~prefix:"serve/" name)
    |> List.map (fun (name, s) ->
           ( name,
             Json.Obj
               [
                 ("count", int_num s.Counters.count);
                 ("p50_ms", num s.Counters.p50);
                 ("p99_ms", num s.Counters.p99);
               ] ))
  in
  Protocol.ok_line ?id ~op:"stats"
    [
      ("requests", int_num (Atomic.get state.requests));
      ("errors", int_num (Atomic.get state.errors));
      ("cache", cache_json state.schedules);
      ("kernel_cache", cache_json state.kernels);
      ("parse_cache", cache_json state.parses);
      ("latency", Json.Obj latency);
    ]

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                           *)

let latency_hist op = Counters.histogram ("serve/" ^ op)

let dispatch state ?id = function
  | Protocol.Schedule { ctg_text; mesh; algo; decisions; dvfs } ->
    (handle_schedule state ?id ~ctg_text ~mesh ~algo ~decisions ~dvfs (), false)
  | Protocol.Simulate { ctg_text; mesh; algo; faults; self_timed } ->
    (handle_simulate state ?id ~ctg_text ~mesh ~algo ~faults ~self_timed (), false)
  | Protocol.Reschedule { ctg_text; mesh; algo; faults } ->
    (handle_reschedule state ?id ~ctg_text ~mesh ~algo ~faults (), false)
  | Protocol.Stats -> (handle_stats state ?id (), false)
  | Protocol.Shutdown -> (Protocol.ok_line ?id ~op:"shutdown" [], true)

let handle_line state line =
  Atomic.incr state.requests;
  match Protocol.parse_request line with
  | Error msg ->
    Atomic.incr state.errors;
    (Protocol.error_line msg, false)
  | Ok (request, id) ->
    let op = Protocol.op_name request in
    let t0 = Unix.gettimeofday () in
    let reply, stop =
      try dispatch state ?id request with
      | Failure msg -> (Protocol.error_line ?id msg, false)
      | Invalid_argument msg -> (Protocol.error_line ?id ("invalid argument: " ^ msg), false)
      | exn -> (Protocol.error_line ?id ("internal error: " ^ Printexc.to_string exn), false)
    in
    Counters.observe (latency_hist op) ((Unix.gettimeofday () -. t0) *. 1000.);
    if String.length reply >= String.length {|{"error"|}
       && String.sub reply 0 8 = {|{"error"|}
    then Atomic.incr state.errors;
    (reply, stop)

(* Requests safe to fan over the domain pool: pure schedule lookups.
   Decision capture mutates the global decision log, and fault-carrying
   requests walk lazily-filled degraded route tables — both stay serial. *)
let parallel_ok line =
  match Protocol.parse_request line with
  | Ok (Protocol.Schedule { decisions = false; _ }, _) -> true
  | Ok ((Protocol.Schedule _ | Protocol.Simulate _ | Protocol.Reschedule _
        | Protocol.Stats | Protocol.Shutdown), _)
  | Error _ -> false

let handle_batch state lines =
  match state.config.jobs with
  | Some jobs when jobs > 1 && List.length lines > 1 && List.for_all parallel_ok lines
    -> Noc_util.Pool.map_list ~jobs (handle_line state) lines
  | Some _ | None -> List.map (handle_line state) lines

(* ------------------------------------------------------------------ *)
(* Socket loop.                                                        *)

type conn = { fd : Unix.file_descr; buf : Buffer.t }

(* Complete lines accumulated so far; the unterminated tail stays in the
   buffer for the next read. *)
let drain_lines buf =
  let s = Buffer.contents buf in
  let rec go start acc =
    match String.index_from_opt s start '\n' with
    | Some i -> go (i + 1) (String.sub s start (i - start) :: acc)
    | None ->
      Buffer.clear buf;
      Buffer.add_substring buf s start (String.length s - start);
      List.rev acc
  in
  go 0 []

let write_all fd s =
  let bytes = Bytes.of_string s in
  let len = Bytes.length bytes in
  let rec go off =
    if off < len then
      let n = Unix.write fd bytes off (len - off) in
      go (off + n)
  in
  go 0

(* A live daemon answers a connect on its socket; a leftover file from
   a crashed one refuses it. Only the latter may be unlinked: taking
   over a live daemon's path would leave it running but unreachable
   once our own cleanup removed the file. *)
let claim_socket path =
  let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let live =
    Fun.protect ~finally:(fun () -> Unix.close probe) @@ fun () ->
    match Unix.connect probe (Unix.ADDR_UNIX path) with
    | () -> true
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> false
  in
  if live then failwith ("a daemon is already listening on " ^ path);
  try Unix.unlink path with Unix.Unix_error _ -> ()

let run ?on_ready config =
  let state = make_state config in
  claim_socket config.socket_path;
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Bind before installing the cleanup: a bind lost to a daemon that
     started in between must not unlink that daemon's socket. *)
  (try Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path)
   with e ->
     Unix.close listen_fd;
     raise e);
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 8 in
  let close_conn fd =
    Hashtbl.remove conns fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let cleanup () =
    Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
    Hashtbl.reset conns;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    try Unix.unlink config.socket_path with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Unix.listen listen_fd 64;
  Option.iter (fun f -> f ()) on_ready;
  Noc_obs.Log.infof "serve: listening on %s" config.socket_path;
  let chunk = Bytes.create 65536 in
  let stop = ref false in
  while not !stop do
    let fds =
      listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
    in
    let readable, _, _ =
      try Unix.select fds [] [] (-1.0)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (* Collect every complete request line that arrived this round,
       keeping (connection, line) pairs aligned so each reply goes back
       to the connection that asked, in request order. *)
    let batch = ref [] in
    List.iter
      (fun fd ->
        if fd = listen_fd then begin
          match Unix.accept listen_fd with
          | client, _ ->
            Hashtbl.replace conns client { fd = client; buf = Buffer.create 4096 }
          | exception Unix.Unix_error _ -> ()
        end
        else
          match Hashtbl.find_opt conns fd with
          | None -> ()
          | Some conn -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> close_conn fd
            | n ->
              Buffer.add_subbytes conn.buf chunk 0 n;
              List.iter (fun line -> batch := (conn, line) :: !batch) (drain_lines conn.buf)
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
            | exception Unix.Unix_error _ -> close_conn fd))
      readable;
    let batch = List.rev !batch in
    (match batch with
    | [] -> ()
    | _ :: _ ->
      let replies = handle_batch state (List.map snd batch) in
      List.iter2
        (fun (conn, _) (reply, is_shutdown) ->
          if is_shutdown then stop := true;
          if Hashtbl.mem conns conn.fd then
            try write_all conn.fd (reply ^ "\n")
            with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
              close_conn conn.fd)
        batch replies)
  done
