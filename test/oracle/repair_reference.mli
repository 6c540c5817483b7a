(** The original search-and-repair implementation of EAS Step 3, kept
    verbatim as the differential-test oracle for {!Repair} — the same
    role [Level_sched_reference] plays for the level scheduler.

    Every candidate swap or migration is scored by re-list-scheduling
    the whole graph with {!Rebuild.run} and counting misses over the
    finished schedule. {!Repair} replays only the suffix of the list
    schedule a move can change and stops a candidate once it provably
    cannot win; the [test_repair_diff] suite asserts that both return
    the same schedule text and the same statistics. Do not optimise
    this module. *)

type moves = Repair.moves = Both | Lts_only | Gtm_only

type stats = Repair.stats = {
  accepted_swaps : int;
  accepted_migrations : int;
  evaluations : int;
}

val run :
  ?comm_model:Noc_sched.Comm_sched.model ->
  ?degraded:Noc_noc.Degraded.t ->
  ?kernel:Kernel.t ->
  ?max_evaluations:int ->
  ?moves:moves ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  Noc_sched.Schedule.t ->
  Noc_sched.Schedule.t * stats
(** See {!Repair.run}: same contract, same results, one full rebuild per
    candidate. *)
