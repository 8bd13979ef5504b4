(** Lloyd's k-means with k-means++ seeding and a BIC score for model
    selection, as used by SimPoint (Sherwood et al., ASPLOS 2002) to
    cluster basic-block vectors. *)

type result = {
  k : int;
  assignment : int array;  (** cluster index per point *)
  centroids : float array array;
  sse : float;  (** sum of squared distances to assigned centroids *)
}

val cluster : Prng.t -> points:float array array -> k:int -> result
(** Lloyd iterations stop when no assignment changes, or after 100.
    Raises [Invalid_argument] on an empty point set or [k <= 0]. When
    [k] exceeds the number of distinct points, fewer clusters may end up
    non-empty. *)

val best :
  ?max_clusters:int -> Prng.t -> points:float array array -> result
(** Cluster for k in [1, max_clusters] (default 10) and keep the
    smallest k whose BIC reaches 90% of the best observed score —
    SimPoint's selection rule. *)
