(* Tests for the scheduling daemon (lib/serve): LRU cache semantics,
   protocol parsing and structured errors, cache-hit bit-identity
   (including relabelling for permuted edge declarations), certification
   of served schedules, concurrent clients against a live daemon, and a
   differential test against one-shot `nocsched schedule` output. *)

module Cache = Noc_serve.Cache
module Protocol = Noc_serve.Protocol
module Server = Noc_serve.Server
module Client = Noc_serve.Client
module Json = Noc_obs.Json
module Ctg = Noc_ctg.Ctg
module Ctg_io = Noc_ctg.Ctg_io
module Task = Noc_ctg.Task
module Edge = Noc_ctg.Edge
module Pipeline = Noc_pipeline.Pipeline

let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:4 ~rows:4 ()

let graph ?(tasks = 20) seed =
  let params = { Noc_tgff.Params.default with n_tasks = tasks } in
  Noc_tgff.Generate.generate ~params ~platform ~seed

let mk_state ?(capacity = 64) ?jobs () =
  Server.make_state { Server.socket_path = "unused"; capacity; jobs }

let schedule_line ?(algo = Pipeline.Eas) ?(decisions = false) ?dvfs ?id ctg =
  Protocol.request_to_line ?id
    (Protocol.Schedule
       { ctg_text = Ctg_io.to_string ctg; mesh = (4, 4); algo; decisions; dvfs })

let reschedule_line ?(algo = Pipeline.Eas) ?id ~faults ctg =
  Protocol.request_to_line ?id
    (Protocol.Reschedule
       { ctg_text = Ctg_io.to_string ctg; mesh = (4, 4); algo; faults })

let parse_reply reply =
  match Json.parse reply with
  | Ok obj -> obj
  | Error msg -> Alcotest.failf "unparseable reply %S: %s" reply msg

let is_ok obj = Json.member "ok" obj = Some (Json.Bool true)

let str_member name obj =
  match Json.member name obj with
  | Some (Json.String s) -> s
  | _ -> Alcotest.failf "reply lacks string field %S" name

let bool_member name obj =
  match Json.member name obj with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "reply lacks bool field %S" name

let num_member name obj =
  match Json.member name obj with
  | Some (Json.Number n) -> n
  | _ -> Alcotest.failf "reply lacks number field %S" name

let expect_ok state line =
  let reply, stop = Server.handle_line state line in
  Alcotest.(check bool) "not a shutdown" false stop;
  let obj = parse_reply reply in
  if not (is_ok obj) then Alcotest.failf "request refused: %s" reply;
  obj

let expect_error state line =
  let reply, stop = Server.handle_line state line in
  Alcotest.(check bool) "not a shutdown" false stop;
  let obj = parse_reply reply in
  Alcotest.(check bool) "ok is false" false (is_ok obj);
  Alcotest.(check string) "schema present" Protocol.schema
    (str_member "schema" obj);
  str_member "error" obj

(* ------------------------------------------------------------------ *)
(* LRU cache *)

let test_cache_basics () =
  let c = Cache.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Cache.capacity c);
  Alcotest.(check bool) "miss on empty" true (Cache.find c "a" = None);
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Alcotest.(check bool) "hit a" true (Cache.find c "a" = Some 1);
  (* b is now least recently used: inserting c evicts it. *)
  Cache.add c "c" 3;
  Alcotest.(check int) "still at capacity" 2 (Cache.length c);
  Alcotest.(check bool) "b evicted" true (Cache.find c "b" = None);
  Alcotest.(check bool) "a survived" true (Cache.find c "a" = Some 1);
  Alcotest.(check bool) "c present" true (Cache.find c "c" = Some 3);
  Alcotest.(check int) "evictions" 1 (Cache.evictions c);
  Alcotest.(check int) "hits" 3 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c);
  (* Replacing an existing key never evicts. *)
  Cache.add c "c" 30;
  Alcotest.(check int) "replace keeps both" 2 (Cache.length c);
  Alcotest.(check int) "replace does not evict" 1 (Cache.evictions c);
  Alcotest.(check bool) "replaced value" true (Cache.find c "c" = Some 30);
  Alcotest.(check (list string)) "MRU order" [ "c"; "a" ] (Cache.keys c)

let test_cache_invalid_capacity () =
  Alcotest.(check bool) "capacity 0 rejected" true
    (try
       ignore (Cache.create ~capacity:0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_protocol_roundtrip () =
  let requests =
    [
      Protocol.Schedule
        {
          ctg_text = "x\ny";
          mesh = (4, 4);
          algo = Pipeline.Eas;
          decisions = true;
          dvfs = None;
        };
      Protocol.Schedule
        {
          ctg_text = "x";
          mesh = (4, 4);
          algo = Pipeline.Eas;
          decisions = false;
          dvfs = Some Noc_dvfs.Vf_table.default;
        };
      Protocol.Simulate
        {
          ctg_text = "x";
          mesh = (3, 3);
          algo = Pipeline.Edf;
          faults = [ "pe:1"; "link:3-7" ];
          self_timed = true;
        };
      Protocol.Reschedule
        { ctg_text = "x"; mesh = (8, 8); algo = Pipeline.Eas_base; faults = [ "pe:2" ] };
      Protocol.Stats;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      match Protocol.parse_request (Protocol.request_to_line ~id:"r1" r) with
      | Ok (r', id) ->
        Alcotest.(check bool)
          (Protocol.op_name r ^ " round-trips") true (r = r');
        Alcotest.(check (option string)) "id echoed" (Some "r1") id
      | Error msg -> Alcotest.failf "%s failed to re-parse: %s" (Protocol.op_name r) msg)
    requests

(* Each rejected line with its exact wire error: clients match on these
   strings, so a parser change must not reword them. *)
let test_protocol_errors () =
  List.iter
    (fun (line, expected) ->
      match Protocol.parse_request line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error msg -> Alcotest.(check string) line expected msg)
    [
      ("{oops", {|malformed request JSON: at byte 1: expected ", found o|});
      ("42", "malformed request: expected a JSON object");
      ( {|{"op": "frobnicate"}|},
        {|unknown op "frobnicate" (known: schedule, simulate, reschedule, stats, shutdown)|}
      );
      (* a schedule without a ctg *)
      ({|{"op": "schedule"}|}, {|missing field "ctg"|});
      ( {|{"op": "schedule", "ctg": "x", "mesh": "4x"}|},
        {|mesh "4x" must be COLSxROWS with positive integers|} );
      ( {|{"op": "schedule", "ctg": "x", "mesh": "0x4"}|},
        {|mesh "0x4" must be COLSxROWS with positive integers|} );
      ( {|{"op": "schedule", "ctg": "x", "algo": "HEFT"}|},
        {|algo "heft" must be eas, eas-base or edf|} );
      ( {|{"op": "schedule", "ctg": "x", "vf_levels": "1,0.5"}|},
        {|field "vf_levels" needs "dvfs": true|} );
      ( {|{"op": "schedule", "ctg": "x", "dvfs": true, "vf_levels": "1,abc"}|},
        {|field "vf_levels": level "abc" is not a number|} );
      ( {|{"op": "schedule", "ctg": "x", "dvfs": "yes"}|},
        {|field "dvfs" must be a boolean|} );
    ]

(* ------------------------------------------------------------------ *)
(* Server: structured errors *)

let test_malformed_requests () =
  let state = mk_state () in
  let err = expect_error state "{not json" in
  Alcotest.(check bool) "names the parse failure" true (String.length err > 0);
  ignore (expect_error state {|{"op": "teleport"}|});
  let err =
    expect_error state
      (Protocol.request_to_line
         (Protocol.Schedule
            {
              ctg_text = "garbage";
              mesh = (4, 4);
              algo = Pipeline.Eas;
              decisions = false;
              dvfs = None;
            }))
  in
  Alcotest.(check bool) "ctg error prefixed" true
    (String.length err >= 4 && String.sub err 0 4 = "ctg:");
  let err =
    expect_error state
      (Protocol.request_to_line
         (Protocol.Reschedule
            {
              ctg_text = Ctg_io.to_string (graph 0);
              mesh = (4, 4);
              algo = Pipeline.Eas;
              faults = [ "pe:bogus" ];
            }))
  in
  Alcotest.(check bool) "fault error prefixed" true
    (String.length err >= 7 && String.sub err 0 7 = "faults:");
  (* A mesh mismatch is an error reply, not a crash. *)
  ignore
    (expect_error state
       (Protocol.request_to_line
          (Protocol.Schedule
             {
               ctg_text = Ctg_io.to_string (graph 0);
               mesh = (3, 3);
               algo = Pipeline.Eas;
               decisions = false;
               dvfs = None;
             })))


(* A mesh the graph cannot fit is refused from the two numbers alone,
   before any platform is built or memoised for it: even an absurd mesh
   answers at once, and the next request is served as usual. *)
let test_mesh_mismatch_fails_fast () =
  let state = mk_state () in
  let line mesh =
    Protocol.request_to_line
      (Protocol.Schedule
         {
           ctg_text = Ctg_io.to_string (graph 0);
           mesh;
           algo = Pipeline.Eas;
           decisions = false;
           dvfs = None;
         })
  in
  let t0 = Unix.gettimeofday () in
  let err = expect_error state (line (1000, 1000)) in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check string) "structured error"
    "graph expects 16 PEs but mesh 1000x1000 has 1000000" err;
  Alcotest.(check bool)
    (Printf.sprintf "answered in %.3f s (< 1 s)" elapsed)
    true (elapsed < 1.);
  let reply, _ = Server.handle_line state (line (4, 4)) in
  Alcotest.(check bool) "next request answered" true (is_ok (parse_reply reply))

(* ------------------------------------------------------------------ *)
(* Server: cache behaviour and bit-identity *)

let certify_reply_schedule ?ctg obj =
  let ctg =
    match ctg with
    | Some g -> g
    | None -> Alcotest.fail "certify_reply_schedule needs the graph"
  in
  match Noc_sched.Schedule_io.of_string platform ctg (str_member "schedule" obj) with
  | Error msg -> Alcotest.failf "reply schedule does not parse: %s" msg
  | Ok schedule ->
    let diags = Noc_analysis.Certify.check platform ctg schedule in
    let errors, _, _ = Noc_analysis.Diagnostic.count diags in
    Alcotest.(check int) "certifier errors" 0 errors

let test_cached_hit_bit_identity () =
  let state = mk_state () in
  let g = graph 1 in
  let line = schedule_line g in
  let first = expect_ok state line in
  let second = expect_ok state line in
  Alcotest.(check bool) "first is a miss" false (bool_member "cached" first);
  Alcotest.(check bool) "second is a hit" true (bool_member "cached" second);
  Alcotest.(check string) "schedules bit-identical"
    (str_member "schedule" first) (str_member "schedule" second);
  Alcotest.(check string) "same cache key" (str_member "key" first)
    (str_member "key" second);
  Alcotest.(check bool) "certified" true (bool_member "certified" second);
  (* The daemon's schedule is the one-shot scheduler's schedule. *)
  let direct = Pipeline.schedule_of Pipeline.Eas platform g in
  Alcotest.(check string) "identical to direct run"
    (Noc_sched.Schedule_io.to_string direct)
    (str_member "schedule" first);
  certify_reply_schedule ~ctg:g second

(* A graph whose edges are declared in a different order (with
   correspondingly different edge ids) digests identically — the
   scheduling problem is the same — but the cached schedule's
   transaction labels must be rewritten for the request's ids. *)
let pipeline_tasks () =
  let times = Array.init 16 (fun k -> 2. +. (0.25 *. float_of_int (k mod 4))) in
  let energies = Array.init 16 (fun k -> 8. +. float_of_int (k mod 5)) in
  [|
    Task.make ~id:0 ~exec_times:times ~energies ();
    Task.make ~id:1 ~exec_times:times ~energies ();
    Task.make ~id:2 ~exec_times:times ~energies ();
    Task.make ~id:3 ~exec_times:times ~energies ~deadline:200. ();
  |]

let test_permuted_edges_hit () =
  let tasks = pipeline_tasks () in
  let edges_a =
    [|
      Edge.make ~id:0 ~src:0 ~dst:1 ~volume:64.;
      Edge.make ~id:1 ~src:0 ~dst:2 ~volume:96.;
      Edge.make ~id:2 ~src:1 ~dst:3 ~volume:128.;
      Edge.make ~id:3 ~src:2 ~dst:3 ~volume:32.;
    |]
  in
  let edges_b =
    [|
      Edge.make ~id:0 ~src:2 ~dst:3 ~volume:32.;
      Edge.make ~id:1 ~src:1 ~dst:3 ~volume:128.;
      Edge.make ~id:2 ~src:0 ~dst:1 ~volume:64.;
      Edge.make ~id:3 ~src:0 ~dst:2 ~volume:96.;
    |]
  in
  let ga = Ctg.make_exn ~tasks ~edges:edges_a in
  let gb = Ctg.make_exn ~tasks ~edges:edges_b in
  Alcotest.(check string) "digest ignores edge declaration order"
    (Ctg.digest ga) (Ctg.digest gb);
  let state = mk_state () in
  let ra = expect_ok state (schedule_line ga) in
  let rb = expect_ok state (schedule_line gb) in
  Alcotest.(check bool) "permuted request served from cache" true
    (bool_member "cached" rb);
  (* The relabelled reply must be the right answer for gb, not ga: same
     placements, same arcs, gb's edge ids. *)
  let sa = str_member "schedule" ra and sb = str_member "schedule" rb in
  Alcotest.(check bool) "labels rewritten" true (sa <> sb);
  certify_reply_schedule ~ctg:gb rb;
  let direct = Pipeline.schedule_of Pipeline.Eas platform gb in
  Alcotest.(check string) "identical to scheduling gb directly"
    (Noc_sched.Schedule_io.to_string direct) sb

let test_eviction_at_capacity () =
  let state = mk_state ~capacity:1 () in
  let ga = graph 2 and gb = graph 3 in
  let r1 = expect_ok state (schedule_line ga) in
  Alcotest.(check bool) "miss" false (bool_member "cached" r1);
  let r2 = expect_ok state (schedule_line ga) in
  Alcotest.(check bool) "hit while resident" true (bool_member "cached" r2);
  ignore (expect_ok state (schedule_line gb));
  let r3 = expect_ok state (schedule_line ga) in
  Alcotest.(check bool) "evicted by gb, recomputed" false (bool_member "cached" r3);
  Alcotest.(check string) "recomputation is bit-identical"
    (str_member "schedule" r1) (str_member "schedule" r3);
  let stats = expect_ok state (Protocol.request_to_line Protocol.Stats) in
  match Json.member "cache" stats with
  | Some cache ->
    Alcotest.(check bool) "evictions counted" true (num_member "evictions" cache >= 2.)
  | None -> Alcotest.fail "stats reply lacks cache object"

let test_reschedule_incremental () =
  let state = mk_state () in
  let g = graph 4 in
  ignore (expect_ok state (schedule_line g));
  let line = reschedule_line ~faults:[ "pe:1" ] g in
  let r1 = expect_ok state line in
  Alcotest.(check bool) "fresh reschedule" false (bool_member "cached" r1);
  Alcotest.(check bool) "base came from the cache" true
    (bool_member "base_cached" r1);
  Alcotest.(check bool) "certified" true (bool_member "certified" r1);
  (* Stats of the incremental ladder are reported. *)
  ignore (num_member "migrated" r1);
  ignore (num_member "rerouted" r1);
  let r2 = expect_ok state line in
  Alcotest.(check bool) "repeat reschedule hits the cache" true
    (bool_member "cached" r2);
  Alcotest.(check string) "bit-identical on the hit" (str_member "schedule" r1)
    (str_member "schedule" r2);
  (* The served schedule equals running the ladder directly. *)
  let faults =
    match Noc_fault.Fault_set.of_strings [ "pe:1" ] with
    | Ok f -> f
    | Error msg -> Alcotest.fail msg
  in
  let base = Pipeline.schedule_of Pipeline.Eas platform g in
  let direct = (Noc_eas.Fault_resched.run platform g ~faults base).Noc_eas.Fault_resched.schedule in
  Alcotest.(check string) "identical to the direct ladder"
    (Noc_sched.Schedule_io.to_string direct)
    (str_member "schedule" r1)

let test_simulate_request () =
  let state = mk_state () in
  let g = graph 5 in
  let line =
    Protocol.request_to_line
      (Protocol.Simulate
         {
           ctg_text = Ctg_io.to_string g;
           mesh = (4, 4);
           algo = Pipeline.Eas;
           faults = [];
           self_timed = false;
         })
  in
  let r = expect_ok state line in
  ignore (num_member "sim_misses" r);
  ignore (num_member "lost_tasks" r);
  ignore (num_member "waiting_time" r);
  ignore (num_member "realised_makespan" r);
  (* The simulate request warms the schedule cache too. *)
  let r2 = expect_ok state (schedule_line g) in
  Alcotest.(check bool) "schedule after simulate is a hit" true
    (bool_member "cached" r2)

let test_stats_shape () =
  let state = mk_state () in
  ignore (expect_ok state (schedule_line (graph 6)));
  ignore (expect_error state "{broken");
  let stats = expect_ok state (Protocol.request_to_line Protocol.Stats) in
  Alcotest.(check bool) "requests counted" true (num_member "requests" stats >= 2.);
  Alcotest.(check bool) "errors counted" true (num_member "errors" stats >= 1.);
  (match Json.member "latency" stats with
  | Some (Json.Obj fields) ->
    let schedule_hist =
      match List.assoc_opt "serve/schedule" fields with
      | Some h -> h
      | None -> Alcotest.fail "no serve/schedule histogram"
    in
    Alcotest.(check bool) "histogram has samples" true
      (num_member "count" schedule_hist >= 1.);
    ignore (num_member "p50_ms" schedule_hist);
    ignore (num_member "p99_ms" schedule_hist)
  | _ -> Alcotest.fail "stats reply lacks latency object");
  match Json.member "parse_cache" stats with
  | Some _ -> ()
  | None -> Alcotest.fail "stats reply lacks parse_cache object"

(* ------------------------------------------------------------------ *)
(* Differential: the daemon's reply vs one-shot `nocsched schedule`.   *)

(* Resolved against the test executable, not the cwd, so the test also
   works under `dune exec` from the workspace root. *)
let binary =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "nocsched.exe"))

(* [dvfs] adds `--dvfs` to the one-shot run and the default ladder to
   the request: the scaled (format v3) schedule and the decision log,
   EAS placements followed by the downclocks, must match byte for byte. *)
let one_shot_differential ~dvfs ~tasks () =
  let ctg_file = Filename.temp_file "serve_diff" ".ctg" in
  let sched_file = Filename.temp_file "serve_diff" ".sched" in
  let dec_file = Filename.temp_file "serve_diff" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ ctg_file; sched_file; dec_file ])
    (fun () ->
      let g = graph ~tasks 7 in
      Ctg_io.save ~path:ctg_file g;
      let command =
        Printf.sprintf
          "%s schedule %s%s --save-schedule %s --decisions %s --quiet >/dev/null 2>&1"
          binary (Filename.quote ctg_file)
          (if dvfs then " --dvfs" else "")
          (Filename.quote sched_file) (Filename.quote dec_file)
      in
      Alcotest.(check int) "one-shot run exits 0" 0 (Sys.command command);
      let read f = In_channel.with_open_bin f In_channel.input_all in
      let state = mk_state () in
      let dvfs = if dvfs then Some Noc_dvfs.Vf_table.default else None in
      let reply = expect_ok state (schedule_line ~decisions:true ?dvfs g) in
      Alcotest.(check string) "daemon schedule = one-shot --save-schedule"
        (read sched_file) (str_member "schedule" reply);
      Alcotest.(check string) "daemon decision log = one-shot --decisions"
        (read dec_file) (str_member "decisions" reply))

(* ------------------------------------------------------------------ *)
(* Live daemon: concurrent clients over the Unix socket.               *)

let test_concurrent_clients () =
  let socket_path =
    Printf.sprintf "%s/nocsched-test-serve-%d.sock" (Filename.get_temp_dir_name ())
      (Unix.getpid ())
  in
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Server.run
          ~on_ready:(fun () -> Atomic.set ready true)
          { Server.socket_path; capacity = 16; jobs = Some 2 })
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  (* Expected energies, computed directly. *)
  let energy_of g =
    let s = Pipeline.schedule_of Pipeline.Eas platform g in
    (Noc_sched.Metrics.compute platform g s).Noc_sched.Metrics.total_energy
  in
  let seeds_a = [ 10; 11; 12 ] and seeds_b = [ 13; 14; 15 ] in
  (* The client domains only collect replies: Alcotest's checks print
     through a formatter that is not safe to share across domains, so
     every assertion runs on the main domain after the joins. *)
  let client_loop name seeds =
    Client.with_connection ~retries:100 ~socket_path (fun c ->
        List.map
          (fun seed ->
            let id = Printf.sprintf "%s-%d" name seed in
            (seed, id, Client.request c (schedule_line ~id (graph seed))))
          seeds)
  in
  (* Two clients in parallel domains, interleaving requests. *)
  let da = Domain.spawn (fun () -> client_loop "a" seeds_a) in
  let db = Domain.spawn (fun () -> client_loop "b" seeds_b) in
  let ra = Domain.join da and rb = Domain.join db in
  List.iter
    (fun (seed, id, reply) ->
      let obj = parse_reply reply in
      if not (is_ok obj) then Alcotest.failf "daemon refused: %s" reply;
      Alcotest.(check string) "reply routed to the right request" id
        (str_member "id" obj);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "energy for seed %d" seed)
        (energy_of (graph seed)) (num_member "energy" obj))
    (ra @ rb);
  (* Clean shutdown through the protocol; the socket file disappears. *)
  let reply =
    Client.one_shot ~retries:10 ~socket_path
      (Protocol.request_to_line Protocol.Shutdown)
  in
  Alcotest.(check bool) "shutdown acknowledged" true (is_ok (parse_reply reply));
  Domain.join daemon;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket_path)

(* Starts a daemon on [socket_path] in its own domain and returns once
   it listens. *)
let spawn_daemon socket_path =
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Server.run
          ~on_ready:(fun () -> Atomic.set ready true)
          { Server.socket_path; capacity = 4; jobs = None })
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  daemon

let expect_stats socket_path =
  let reply =
    Client.one_shot ~retries:10 ~socket_path (Protocol.request_to_line Protocol.Stats)
  in
  Alcotest.(check bool) "stats answered" true (is_ok (parse_reply reply))

let shutdown_daemon socket_path daemon =
  let reply =
    Client.one_shot ~retries:10 ~socket_path
      (Protocol.request_to_line Protocol.Shutdown)
  in
  Alcotest.(check bool) "shutdown acknowledged" true (is_ok (parse_reply reply));
  Domain.join daemon;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket_path)

let test_second_daemon_refused () =
  let socket_path =
    Printf.sprintf "%s/nocsched-test-serve-twice-%d.sock"
      (Filename.get_temp_dir_name ()) (Unix.getpid ())
  in
  let daemon = spawn_daemon socket_path in
  let expected = "a daemon is already listening on " ^ socket_path in
  (match Server.run { Server.socket_path; capacity = 4; jobs = None } with
  | () -> Alcotest.fail "second daemon started on a live socket"
  | exception Failure msg -> Alcotest.(check string) "refusal" expected msg);
  (* The CLI reports the same refusal and exits non-zero. *)
  let err_file = Filename.temp_file "serve_twice" ".err" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove err_file with Sys_error _ -> ())
    (fun () ->
      let command =
        Printf.sprintf "%s serve --socket %s >/dev/null 2>%s" binary
          (Filename.quote socket_path) (Filename.quote err_file)
      in
      Alcotest.(check bool) "CLI exits non-zero" true (Sys.command command <> 0);
      let err = In_channel.with_open_bin err_file In_channel.input_all in
      Alcotest.(check string) "CLI message" ("nocsched: " ^ expected ^ "\n") err);
  Alcotest.(check bool) "socket file kept" true (Sys.file_exists socket_path);
  expect_stats socket_path;
  shutdown_daemon socket_path daemon

let test_stale_socket_replaced () =
  let socket_path =
    Printf.sprintf "%s/nocsched-test-serve-stale-%d.sock"
      (Filename.get_temp_dir_name ()) (Unix.getpid ())
  in
  (* A socket file left behind by a daemon that died without cleanup:
     bound, never listened on, closed without unlinking. *)
  (try Sys.remove socket_path with Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket_path);
  Unix.close fd;
  Alcotest.(check bool) "stale file present" true (Sys.file_exists socket_path);
  let daemon = spawn_daemon socket_path in
  expect_stats socket_path;
  shutdown_daemon socket_path daemon

(* A --dvfs request must never be answered from the unscaled cache (or
   vice versa): the V/f ladder is its own cache-key segment. *)
let test_dvfs_no_cache_aliasing () =
  let state = mk_state () in
  let g = graph 5 in
  let plain = expect_ok state (schedule_line g) in
  let scaled = expect_ok state (schedule_line ~dvfs:Noc_dvfs.Vf_table.default g) in
  Alcotest.(check bool) "keys differ" true
    (str_member "key" plain <> str_member "key" scaled);
  Alcotest.(check bool) "scaled reply is not the cached unscaled one" false
    (bool_member "cached" scaled);
  Alcotest.(check bool) "but its base schedule was reused" true
    (bool_member "base_cached" scaled);
  Alcotest.(check bool) "scaled schedule is format v3" true
    (String.starts_with ~prefix:"schedule 3\n" (str_member "schedule" scaled));
  Alcotest.(check bool) "unscaled schedule stays v2" true
    (String.starts_with ~prefix:"schedule 2\n" (str_member "schedule" plain));
  Alcotest.(check bool) "reclaims energy" true (num_member "reclaimed" scaled > 0.);
  Alcotest.(check bool) "energy drops accordingly" true
    (num_member "energy" scaled
     < num_member "energy" plain -. (num_member "reclaimed" scaled /. 2.));
  Alcotest.(check bool) "certified" true (bool_member "certified" scaled);
  (* Replays hit their own entries, bit-identically. *)
  let scaled2 = expect_ok state (schedule_line ~dvfs:Noc_dvfs.Vf_table.default g) in
  Alcotest.(check bool) "scaled replay is a hit" true (bool_member "cached" scaled2);
  Alcotest.(check string) "scaled replay bit-identical"
    (str_member "schedule" scaled) (str_member "schedule" scaled2);
  let plain2 = expect_ok state (schedule_line g) in
  Alcotest.(check bool) "plain replay is a hit" true (bool_member "cached" plain2);
  Alcotest.(check string) "plain replay still unscaled"
    (str_member "schedule" plain) (str_member "schedule" plain2);
  (* A different ladder is a different key. *)
  let table = Result.get_ok (Noc_dvfs.Vf_table.of_string "1,0.9") in
  let other = expect_ok state (schedule_line ~dvfs:table g) in
  Alcotest.(check bool) "other ladder misses" false (bool_member "cached" other);
  Alcotest.(check bool) "other ladder has its own key" true
    (str_member "key" other <> str_member "key" scaled)

let suite =
  [
    Alcotest.test_case "cache basics" `Quick test_cache_basics;
    Alcotest.test_case "cache invalid capacity" `Quick test_cache_invalid_capacity;
    Alcotest.test_case "protocol round-trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol errors" `Quick test_protocol_errors;
    Alcotest.test_case "malformed requests" `Quick test_malformed_requests;
    Alcotest.test_case "mismatched mesh fails fast" `Quick test_mesh_mismatch_fails_fast;
    Alcotest.test_case "cached hit bit-identity" `Quick test_cached_hit_bit_identity;
    Alcotest.test_case "permuted edges hit" `Quick test_permuted_edges_hit;
    Alcotest.test_case "eviction at capacity" `Quick test_eviction_at_capacity;
    Alcotest.test_case "incremental reschedule" `Quick test_reschedule_incremental;
    Alcotest.test_case "simulate request" `Quick test_simulate_request;
    Alcotest.test_case "stats shape" `Quick test_stats_shape;
    Alcotest.test_case "one-shot differential" `Quick
      (one_shot_differential ~dvfs:false ~tasks:18);
    Alcotest.test_case "one-shot dvfs differential" `Quick
      (one_shot_differential ~dvfs:true ~tasks:40);
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "dvfs never aliases the unscaled cache" `Quick
      test_dvfs_no_cache_aliasing;
    Alcotest.test_case "second daemon refused, first still answers stats" `Quick
      test_second_daemon_refused;
    Alcotest.test_case "stale socket file replaced" `Quick test_stale_socket_replaced;
  ]
