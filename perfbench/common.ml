(* Helpers shared by the workloads: clocks, order statistics, metric
   records, correctness tallies and process facts. *)

module Json = Noc_obs.Json

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Linear-interpolation percentile (Noc_util.Stats convention). *)
let percentile xs ~p = Noc_util.Stats.percentile (Array.of_list xs) ~p
let median xs = percentile xs ~p:50.
let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0. then 0. else a /. b
let ms s = s *. 1000.

(* Ops per second of op time, as the median over passes: each element
   of [passes] holds the op times of one pass. *)
let throughput passes =
  median (List.map (fun ws -> float_of_int (List.length ws) /. sum ws) passes)

(* [chunks n xs] splits [xs] into consecutive groups of [n]. *)
let chunks n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k + 1 = n then go (List.rev (x :: cur) :: acc) [] 0 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun m ->
         (m.name, Json.Obj [ ("value", Json.Number m.value); ("unit", Json.String m.unit_) ]))
       metrics)

(* Correctness bookkeeping: every op attempted, every op whose output
   failed a check, plus run-level checks (trace validity, counter
   repeatability) that belong to no single op. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable run_errors : string list;
}

let tally () = { attempted = 0; failed = 0; run_errors = [] }

let report_op t = function
  | None -> t.attempted <- t.attempted + 1
  | Some msg ->
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1;
    if t.failed <= 5 then prerr_endline ("perfbench: op failed: " ^ msg)

let run_error t msg =
  prerr_endline ("perfbench: check failed: " ^ msg);
  t.run_errors <- msg :: t.run_errors

let correct t = t.failed = 0 && t.run_errors = []

(* Runs [f] [times] times and keeps the last result; the set-up time is
   the median of the repetitions. *)
let repeated_setup ~times f =
  let rec go i acc =
    let v, dt = timed f in
    if i >= times then (v, median (dt :: acc)) else go (i + 1) (dt :: acc)
  in
  go 1 []

(* Whole passes over a workload's inputs, continued while the next pass
   is expected to end nearer the run length than stopping now would:
   the pass count is round(seconds / pass time), at least [min_passes]. *)
let run_passes ~seconds ~min_passes pass =
  let t0 = now () in
  let rec go i =
    let t = now () in
    pass i;
    let last = now () -. t in
    if i + 1 < min_passes || now () -. t0 +. (0.5 *. last) < seconds then go (i + 1)
  in
  go 0

(* Peak resident set of this process: VmHWM where /proc exists, the
   OCaml major heap's high-water mark otherwise. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
          | Some _ -> scan ()
        in
        scan ())
  in
  match (try from_proc () with Sys_error _ | Scanf.Scan_failure _ -> None) with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* Scratch directory for sockets and exported traces, inside the
   directory the benchmark runs from. *)
let work_dir = ".perfbench"
