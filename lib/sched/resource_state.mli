(** Mutable scheduling state: one schedule table per PE and per link.

    Every list scheduler commits through {!Partial}, and candidate
    probes query the tables read-only (see [Noc_eas.Kernel]). Each
    reservation is journalled, and a {!mark} / {!rollback} pair undoes
    everything reserved in between in O(reservations undone), restoring
    the tables exactly (timelines keep reservations uncoalesced). The
    pair serves two callers:
    - the repair search's prefix reuse ([Noc_eas.Rebuild.replay]): a
      mark before every step of the recorded base schedule, so each
      candidate rolls back to the first step it can change and replays
      only the rest;
    - the reference level scheduler in the test tree, which evaluates
      [F(i,k)] the paper's literal way ("the schedule tables of both
      links and the PEs will be restored every time a F(i,k) is
      calculated") as the oracle for the read-only probes. *)

type t

val create : Noc_noc.Platform.t -> t
val platform : t -> Noc_noc.Platform.t

val pe_table : t -> int -> Noc_util.Timeline.t
val link_table : t -> Noc_noc.Routing.link -> Noc_util.Timeline.t

val reserve_pe : t -> pe:int -> Noc_util.Interval.t -> unit
(** Journalled PE reservation. Raises [Invalid_argument] on overlap. *)

val reserve_link : t -> Noc_noc.Routing.link -> Noc_util.Interval.t -> unit

val earliest_pe_gap : t -> pe:int -> after:float -> duration:float -> float
val earliest_route_gap :
  t -> route:Noc_noc.Routing.link list -> after:float -> duration:float -> float
(** Earliest slot simultaneously free on every link of the route: the
    paper's merged path schedule table (Fig. 3). With an empty route the
    answer is [after]. *)

type mark

val mark : t -> mark
val rollback : t -> mark -> unit
(** [rollback t m] releases every reservation made since [mark t]
    returned [m]. Marks must be rolled back innermost-first: a rollback
    invalidates every mark taken after [m], and rolling back to one
    raises [Invalid_argument]. *)
