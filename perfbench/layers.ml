(* Per-layer self times read back from an exported Chrome trace.

   The benchmark wraps each public call in a span named after its layer
   (category [category]) inside one root span per op. Spans that lib/
   records on its own (eas/..., dvfs/reclaim, sim/execute, map/...) are
   charged to the layer they belong to; any other span inherits its
   parent's layer. A span's self time is its duration minus the time its
   direct children cover, so per op the layer times plus the root's own
   self time ("unattributed") add up to the root span's duration. *)

module Json = Noc_obs.Json

type span = { name : string; cat : string; ts : float; dur : float; pid : int }

let category = "perfbench"

let unattributed = "unattributed"

let lib_layer name =
  match name with
  | "eas/kernel" | "map/kernel" -> Some "kernel"
  | "eas/budget" -> Some "budget"
  | "eas/level_sched" -> Some "level_sched"
  | "eas/repair" -> Some "repair"
  | "dvfs/reclaim" -> Some "dvfs"
  | "sim/execute" -> Some "sim"
  | _ when String.starts_with ~prefix:"map/" name -> Some "map"
  | _ -> None

let number = function Some (Json.Number n) -> Some n | _ -> None

let spans_of_trace text =
  match Json.parse text with
  | Error msg -> Error msg
  | Ok doc -> (
    match Json.member "traceEvents" doc with
    | Some (Json.List events) ->
      Ok
        (List.filter_map
           (fun ev ->
             match
               ( Json.member "ph" ev,
                 Json.member "name" ev,
                 Json.member "cat" ev,
                 number (Json.member "ts" ev),
                 number (Json.member "dur" ev),
                 number (Json.member "pid" ev) )
             with
             | ( Some (Json.String "X"),
                 Some (Json.String name),
                 Some (Json.String cat),
                 Some ts,
                 Some dur,
                 Some pid ) ->
               Some { name; cat; ts; dur; pid = int_of_float pid }
             | _ -> None)
           events)
    | Some _ | None -> Error "trace has no traceEvents array")

(* Tolerance (µs) for float rounding at span boundaries. *)
let eps = 0.5

let contains parent child =
  child.ts +. eps >= parent.ts && child.ts +. child.dur <= parent.ts +. parent.dur +. eps

type node = { span : span; layer : string; mutable children_us : float }

let bump tbl key v =
  Hashtbl.replace tbl key (v +. Option.value (Hashtbl.find_opt tbl key) ~default:0.)

(* [ops ~pid ~roots spans] returns, for every span on domain [pid] whose
   name is in [roots] (in start order), the root span and the self time
   in milliseconds charged to each layer within it. *)
let ops ~pid ~roots spans =
  let spans =
    List.filter (fun s -> s.pid = pid) spans
    |> List.sort (fun a b -> compare (a.ts, -.a.dur) (b.ts, -.b.dur))
  in
  let results = ref [] in
  let current = ref None in
  let charge layer us =
    match !current with
    | None -> ()
    | Some (_, tbl) -> bump tbl layer (us /. 1000.)
  in
  let finish node = charge node.layer (node.span.dur -. node.children_us) in
  let close_root () =
    match !current with
    | Some (root, tbl) ->
      results := (root, List.of_seq (Hashtbl.to_seq tbl)) :: !results;
      current := None
    | None -> ()
  in
  let rec pop stack s =
    match stack with
    | top :: rest when not (contains top.span s) ->
      finish top;
      if rest = [] then close_root ();
      pop rest s
    | _ -> stack
  in
  let stack =
    List.fold_left
      (fun stack s ->
        match pop stack s with
        | [] ->
          if s.cat = category && List.mem s.name roots then begin
            current := Some (s, Hashtbl.create 16);
            [ { span = s; layer = unattributed; children_us = 0. } ]
          end
          else []
        | parent :: _ as stack ->
          parent.children_us <- parent.children_us +. s.dur;
          let layer =
            if s.cat = category then s.name
            else Option.value (lib_layer s.name) ~default:parent.layer
          in
          { span = s; layer; children_us = 0. } :: stack)
      [] spans
  in
  List.iter finish stack;
  close_root ();
  List.rev !results

(* Per-op means over every traced op of a run. *)
type acc = { mutable n_ops : int; mutable wall_ms : float; per_layer : (string, float) Hashtbl.t }

let acc () = { n_ops = 0; wall_ms = 0.; per_layer = Hashtbl.create 16 }

let add acc (root, layers) =
  acc.n_ops <- acc.n_ops + 1;
  acc.wall_ms <- acc.wall_ms +. (root.dur /. 1000.);
  List.iter (fun (layer, ms) -> bump acc.per_layer layer ms) layers

let per_op acc total = if acc.n_ops = 0 then 0. else total /. float_of_int acc.n_ops
let layer_ms acc layer = per_op acc (Option.value (Hashtbl.find_opt acc.per_layer layer) ~default:0.)
let wall_ms acc = per_op acc acc.wall_ms

(* One traced section: tracing and counters on, then the trace is
   exported, written under [file], validated with Trace_check and read
   back into per-op layer times. Counting is left as it was found: off
   in batch runs, on in the daemon, which turns it on to serve [stats],
   so untraced passes run as in an untraced run. *)
let traced_section ~file ~pid ~roots f =
  let counting = Noc_obs.Counters.is_enabled () in
  Noc_obs.Trace.reset ();
  Noc_obs.Counters.reset ();
  Noc_obs.Counters.set_enabled true;
  Noc_obs.Trace.set_enabled true;
  let v =
    Fun.protect
      ~finally:(fun () ->
        Noc_obs.Trace.set_enabled false;
        Noc_obs.Counters.set_enabled counting)
      f
  in
  let text = Noc_obs.Trace.export () in
  Noc_obs.Trace.reset ();
  Common.ensure_dir Common.work_dir;
  Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc text);
  let ops =
    match Noc_obs.Trace_check.check ~require_counters:true text with
    | Error msg -> Error ("trace_check: " ^ msg)
    | Ok () -> spans_of_trace text |> Result.map (ops ~pid ~roots)
  in
  (v, ops)
