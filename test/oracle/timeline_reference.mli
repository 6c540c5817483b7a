(** Naive schedule-table model: the executable specification of
    {!Timeline}.

    This is the original sorted-list implementation, kept as a reference
    whose behaviour is obviously correct (every operation is a plain walk
    of an immutable sorted list). The qcheck differential tests replay
    random operation traces against this model and the indexed
    {!Timeline} and require them to agree observation-for-observation.
    Never use this in scheduler code — every operation is O(n). *)

type t

val create : unit -> t
val busy : t -> Interval.t list
val is_free : t -> Interval.t -> bool
val earliest_gap : t -> after:float -> duration:float -> float
val reserve : t -> Interval.t -> unit
val release : t -> Interval.t -> unit
val utilisation : t -> horizon:float -> float
val span : t -> float
val merged_busy : t list -> after:float -> Interval.t list
val earliest_gap_multi : t list -> after:float -> duration:float -> float
val pp : Format.formatter -> t -> unit
