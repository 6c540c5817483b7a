(* Differential harness: the incremental search-and-repair (Repair:
   recorded base, prefix replay, early abort) must return exactly what
   the full-rebuild reference (Repair_reference) returns — the same
   schedule text and the same evaluation and acceptance counts — on the
   category-II suite, the move-set and fixed-delay ablations, degraded
   fabrics and tight random graphs. *)

module Repair = Noc_eas.Repair
module Rebuild = Noc_eas.Rebuild
module Reference = Noc_oracle.Repair_reference
module Eas = Noc_eas.Eas
module Kernel = Noc_eas.Kernel
module Category = Noc_tgff.Category
module Params = Noc_tgff.Params
module Fault_set = Noc_fault.Fault_set
module Schedule_io = Noc_sched.Schedule_io

type case = {
  label : string;
  ctg : Noc_ctg.Ctg.t;
  degraded : Noc_noc.Degraded.t option;
  healthy_input : bool;  (* schedule the input on the fault-free mesh *)
  comm_model : Noc_sched.Comm_sched.model option;
  moves : Repair.moves option;
}

let platform = Category.platform
let cat2_suite = lazy (Array.of_list (Category.suite Category.Category_ii))

let cat2 ?degraded ?comm_model ?moves ~tag index =
  {
    label = Printf.sprintf "cat-ii/%d/%s" index tag;
    ctg = (Lazy.force cat2_suite).(index);
    degraded;
    healthy_input = false;
    comm_model;
    moves;
  }

let view specs =
  match Fault_set.of_strings specs with
  | Ok faults -> Fault_set.degraded faults platform
  | Error msg -> failwith msg

let degraded_cat2 specs index =
  cat2 ~degraded:(view specs) ~tag:(String.concat "," specs) index

let random_case seed =
  let params =
    { Params.default with Params.n_tasks = 60; deadline_tightness = 1.3 }
  in
  {
    label = Printf.sprintf "random-60/seed-%d" seed;
    ctg = Noc_tgff.Generate.generate ~params ~platform ~seed;
    degraded = None;
    healthy_input = false;
    comm_model = None;
    moves = None;
  }

(* A schedule made for the healthy mesh, repaired on a fabric where no
   link enters PE 5. For these seeds the current schedule needs a
   disconnected pair, so the recorded base stops short (every candidate
   replays from that step at the latest) until migrations move the
   stranded receivers away. *)
let stranded_case seed =
  {
    (random_case seed) with
    label = Printf.sprintf "stranded/seed-%d" seed;
    degraded = Some (view [ "link:1-5"; "link:4-5"; "link:6-5"; "link:9-5" ]);
    healthy_input = true;
  }

(* Runs both repairs from the same EAS-base schedule; returns the
   number of evaluations so the corpus can assert it exercised the
   search. *)
let check case =
  let { ctg; degraded; healthy_input; comm_model; moves; label } = case in
  let kernel = Kernel.build ?degraded platform ctg in
  let base =
    if healthy_input then
      (Eas.schedule ~repair:false ?comm_model platform ctg).Eas.schedule
    else
      (Eas.schedule ~repair:false ?comm_model ?degraded ~kernel platform ctg).Eas.schedule
  in
  if healthy_input then begin
    let assignment, rank = Rebuild.of_schedule base in
    Alcotest.(check bool)
      (label ^ ": the input needs a disconnected pair")
      true
      (match Rebuild.run ?comm_model ?degraded platform ctg ~assignment ~rank with
      | _ -> false
      | exception Invalid_argument _ -> true)
  end;
  let got, stats =
    Repair.run ?comm_model ?degraded ~kernel ?moves platform ctg base
  in
  let want, want_stats =
    Reference.run ?comm_model ?degraded ~kernel ?moves platform ctg base
  in
  let field name get =
    Alcotest.(check int) (label ^ ": " ^ name) (get want_stats) (get stats)
  in
  field "evaluations" (fun (s : Repair.stats) -> s.evaluations);
  field "accepted swaps" (fun (s : Repair.stats) -> s.accepted_swaps);
  field "accepted migrations" (fun (s : Repair.stats) -> s.accepted_migrations);
  Alcotest.(check string)
    (label ^ ": schedule text")
    (Schedule_io.to_string want) (Schedule_io.to_string got);
  stats.evaluations

let check_all cases () =
  let evaluations = List.fold_left (fun acc case -> acc + check case) 0 cases in
  Alcotest.(check bool) "the corpus exercises the search" true (evaluations > 0)

(* Replay against full rebuilds on arbitrary (assignment, rank) pairs.
   Random ranks, unlike the start-time ranks repair derives, often let
   a re-ranked task overtake the base's pop before either swapped task
   is reached, so the prefix scan matters. Many candidates share one
   base, moving its frontier both ways. *)
let test_replay_matches_run () =
  let n_pes = Noc_noc.Platform.n_pes platform in
  let never _ _ = false in
  for seed = 0 to 9 do
    let ctg = (random_case seed).ctg in
    let n = Noc_ctg.Ctg.n_tasks ctg in
    let rng = Random.State.make [| seed |] in
    let assignment = Array.init n (fun _ -> Random.State.int rng n_pes) in
    let rank = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = rank.(i) in
      rank.(i) <- rank.(j);
      rank.(j) <- tmp
    done;
    let base = Rebuild.base platform ctg ~assignment ~rank in
    for candidate = 0 to 29 do
      let assignment = Array.copy assignment and rank = Array.copy rank in
      let t1 = Random.State.int rng n and t2 = Random.State.int rng n in
      let changed =
        if candidate mod 3 = 0 then begin
          assignment.(t1) <- Random.State.int rng n_pes;
          [ t1 ]
        end
        else begin
          let r1 = rank.(t1) in
          rank.(t1) <- rank.(t2);
          rank.(t2) <- r1;
          [ t1; t2 ]
        end
      in
      let label = Printf.sprintf "seed %d candidate %d" seed candidate in
      let want = Rebuild.run platform ctg ~assignment ~rank in
      match Rebuild.replay base ~assignment ~rank ~changed ~hopeless:never with
      | Some got ->
        Alcotest.(check string) label (Schedule_io.to_string want)
          (Schedule_io.to_string got)
      | None -> Alcotest.fail (label ^ ": replay stopped without being told to")
    done
  done

let suite =
  [
    Alcotest.test_case "replay equals a full rebuild" `Quick test_replay_matches_run;
    Alcotest.test_case "category-II suite, both moves" `Slow
      (check_all (List.init 10 (fun i -> cat2 ~tag:"both" i)));
    Alcotest.test_case "move-set and fixed-delay ablations" `Slow
      (check_all
         [
           cat2 ~moves:Repair.Lts_only ~tag:"lts-only" 6;
           cat2 ~moves:Repair.Gtm_only ~tag:"gtm-only" 7;
           cat2 ~comm_model:Noc_sched.Comm_sched.Fixed_delay ~tag:"fixed-delay" 8;
         ]);
    Alcotest.test_case "degraded fabrics" `Slow
      (check_all
         [
           degraded_cat2 [ "link:5-6" ] 0;
           degraded_cat2 [ "link:1-2"; "link:9-13" ] 4;
           degraded_cat2 [ "link:5-6"; "link:6-5"; "link:10-11" ] 6;
         ]);
    Alcotest.test_case "random 60-task graphs at tightness 1.3" `Quick
      (check_all (List.init 8 random_case));
    Alcotest.test_case "schedules stranded by a fault set" `Quick
      (check_all [ stranded_case 4; stranded_case 12 ]);
  ]
