(** The four allocation policies of the evaluation (§5).

    - {e Random}: the required number of nodes drawn uniformly from the
      usable set (a user picking hosts blindly).
    - {e Sequential}: a random start node, then topologically consecutive
      hostnames ("users often tend to select consecutive nodes").
    - {e Load-aware}: the usable nodes with minimal compute load CL.
    - {e Network-and-load-aware}: the paper's contribution —
      Algorithm 1 candidates scored by Algorithm 2.

    Every policy fills nodes up to their per-node capacity ({!Request.capacity_of})
    and falls back to round-robin oversubscription when the whole
    cluster cannot cover the request, so results stay comparable. *)

type policy =
  | Random
  | Sequential
  | Load_aware
  | Network_load_aware
  | Hierarchical
      (** the §3.3.2/§6 two-level variant; not part of the paper's
          evaluated four (see {!all}) but selectable everywhere *)

val name : policy -> string
val all : policy list
(** The paper's four, in its reporting order: random, sequential,
    load-aware, network-and-load-aware. [Hierarchical] is deliberately
    not included so the reproduction tables stay faithful. *)

val of_name : string -> policy option

type engine =
  | Auto
      (** flat below {!auto_hierarchical_threshold} usable nodes,
          grouped above it *)
  | Flat  (** always the flat (single-level) candidate sweep *)
  | Grouped  (** always the two-level {!Hierarchical.allocate} *)

val auto_hierarchical_threshold : unit -> int
(** Usable-node count above which [Auto] routes the
    network-and-load-aware policy through {!Hierarchical.allocate}
    (2048). *)

val set_auto_hierarchical_threshold : int -> unit
(** Moves the threshold so the routing test can reach both sides of it
    on a small cluster; nothing else sets it. Raises
    [Invalid_argument] below 1. *)

val allocate :
  ?starts:Dense_alloc.starts ->
  ?engine:engine ->
  policy:policy ->
  snapshot:Rm_monitor.Snapshot.t ->
  weights:Weights.t ->
  request:Request.t ->
  rng:Rm_stats.Rng.t ->
  unit ->
  (Allocation.t, Allocation.error) result
(** [Error No_usable_nodes] when the snapshot has no usable node;
    otherwise always succeeds (oversubscribing if needed). Randomized
    policies draw from [rng]; the two aware policies are deterministic
    given the snapshot.

    Models (Eq. 1/2/3) come from {!Model_cache} — repeated calls
    against the same snapshot and weights share one build — and the
    network-and-load-aware policy runs on the {!Dense_alloc} kernels,
    whose exhaustive sweep is byte-identical to {!allocate_naive}.

    [starts] (default {!Dense_alloc.default_starts}, the
    [RM_ALLOC_STARTS] / [--starts] knob) prunes the candidate-start
    sweep; [engine] (default [Auto]) picks between the flat sweep and
    the two-level allocator for the network-and-load-aware policy —
    with [Auto], clusters above {!auto_hierarchical_threshold} usable
    nodes route through {!Hierarchical.allocate} under the
    ["network-load-aware"] policy label. Both knobs only affect the
    network-and-load-aware and hierarchical policies. *)

val allocate_audited :
  ?starts:Dense_alloc.starts ->
  ?engine:engine ->
  stale_excluded:int list ->
  policy:policy ->
  snapshot:Rm_monitor.Snapshot.t ->
  weights:Weights.t ->
  request:Request.t ->
  rng:Rm_stats.Rng.t ->
  unit ->
  (Allocation.t, Allocation.error) result
(** {!allocate}, with the audit record annotated: when the broker has
    already dropped stale nodes from the snapshot it passes their ids
    here so [rmctl explain] can say why they are missing. *)

val allocate_naive :
  policy:policy ->
  snapshot:Rm_monitor.Snapshot.t ->
  weights:Weights.t ->
  request:Request.t ->
  rng:Rm_stats.Rng.t ->
  (Allocation.t, Allocation.error) result
(** The pre-fast-path reference implementation: models rebuilt from the
    snapshot on every call, Algorithm 1/2 via [Candidate.generate_all]
    and [Select.score]. Retained for the equivalence property test and
    the before/after rows of [bench scale]; allocations are identical
    to {!allocate} by construction (and by test). *)
