(** Dense-array fast path for Algorithm 1 + Algorithm 2.

    Produces exactly what [Select.score] over [Candidate.generate_all]
    produces — same candidates in the same (ascending start id) order,
    bit-identical costs and Eq. 4 totals, hence the identical chosen
    allocation — but from flat float arrays: the α·CL vector and
    per-node capacities are computed once and shared across all V
    starts, each start's ranking uses heap-based partial selection (only
    the prefix covering the request is popped) and Eq. 4 totals read the
    dense NL matrix directly instead of going through two hashtable
    lookups per pair. O(V·(V + k log V)) instead of O(V² log V), with
    far smaller constants.

    [~starts:(Top_k k)] additionally prunes the start sweep: candidate
    starts are ranked by a cheap O(V) α·CL + β·mean-NL-degree proxy and
    only the best [k] expand. Each surviving candidate's raw Eq. 4
    costs are bit-identical to its exhaustive counterpart; only the
    per-candidate-set normalization sees fewer candidates, so the
    chosen start can differ — the qcheck regret property in
    test_core.ml bounds how much. The pruned path reads NL in factored
    form and never materializes the O(V²) matrix.

    The naive pipeline is retained as the reference implementation;
    qcheck properties in test_core.ml assert equivalence across random
    snapshots, weights and requests. *)

type starts =
  | All  (** exhaustive sweep: every usable node starts a candidate *)
  | Top_k of int
      (** expand only the [k] best starts by the O(V) proxy score;
          [k >= V] degenerates to [All] *)

val parse_starts : string -> (starts, string) result
(** ["all"] (case-insensitive) or a positive integer. *)

val starts_label : starts -> string
(** ["all"] or the candidate count — stable, parseable by
    {!parse_starts}; used in bench baseline keys and CLI printers. *)

val default_starts : unit -> starts
(** Process-wide default start mode, initialized from the
    [RM_ALLOC_STARTS] environment variable ([All] when unset or
    unparseable) and overridable via {!set_default_starts} (the
    [--starts] CLI knob). *)

val set_default_starts : starts -> unit
(** Raises [Invalid_argument] for [Top_k k] with [k < 1]. *)

val scored_all :
  ?starts:starts ->
  loads:Compute_load.t ->
  net:Network_load.t ->
  capacity:(int -> int) ->
  request:Request.t ->
  unit ->
  Select.scored list
(** [loads] and [net] must come from the same snapshot (their usable
    sets must coincide). [starts] defaults to {!default_starts}; with
    [Top_k k < V] the result lists only the [k] expanded candidates
    (still in ascending start-id order). Raises [Invalid_argument] when
    no node is usable, the models disagree, [Top_k k < 1], the
    request's process count is not positive, or any CL/NL model value
    consulted is non-finite (a NaN cost would silently corrupt the heap
    order and diverge from the naive compare-based sort). *)

val best :
  ?starts:starts ->
  loads:Compute_load.t ->
  net:Network_load.t ->
  capacity:(int -> int) ->
  request:Request.t ->
  unit ->
  Select.scored
(** [Select.best_scored] over {!scored_all}. *)
