(** Scalable two-level variant of the allocator.

    §3.3.2 notes the flat algorithm "may need to be adapted for larger
    scale by grouping the nodes based on cluster topology and
    calculating inter-group bandwidth/latency". This module implements
    that adaptation: nodes are grouped by edge switch, Algorithms 1–2
    run over *groups* using group-mean compute loads and group-mean
    inter/intra network loads, and the flat algorithm then runs only on
    the members of the winning group set.

    Complexity drops from O(V² log V) to O(G² log G + W² log W), where
    G is the switch count and W the size of the selected group union. *)

type group = {
  switch : int;
  members : int list;  (** usable nodes on the switch *)
  capacity : int;  (** Σ per-node capacity *)
  mean_compute_load : float;
}

val groups :
  snapshot:Rm_monitor.Snapshot.t ->
  loads:Compute_load.t ->
  capacity:(int -> int) ->
  group list
(** One group per switch that has at least one usable node. *)

val group_network_load : Network_load.t -> group -> group -> float
(** Mean NL over member pairs; for a group with itself, the mean over
    its internal pairs (0 for singletons). *)

val allocate :
  ?dense:bool ->
  ?starts:Dense_alloc.starts ->
  ?policy_label:string ->
  snapshot:Rm_monitor.Snapshot.t ->
  weights:Weights.t ->
  request:Request.t ->
  unit ->
  (Allocation.t, Allocation.error) result
(** Group-level Algorithm 1+2 to choose switches, then the flat
    allocator restricted to their members. Falls back to the flat
    algorithm when the cluster has a single switch.

    [dense] (default true) routes the top-level models through
    {!Model_cache} and the flat stage through the {!Dense_alloc}
    kernels; [~dense:false] is the retained naive reference. Both paths
    return identical allocations. [starts] is forwarded to the flat
    {!Dense_alloc} stage (the naive reference stays exhaustive).
    [policy_label] (default ["hierarchical"]) names the resulting
    allocation's policy — {!Policies.allocate} passes the requesting
    policy's name when it auto-routes large clusters here. *)
