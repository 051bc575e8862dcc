(** Grant overlays: live allocations become first-class load sources.

    The resident daemon's grants used to be bookkeeping only — an
    active allocation left the monitored world untouched, so two
    concurrent clients could be handed overlapping nodes and every
    contention measurement was fiction. An {!t} registry holds one
    entry per live grant (per-node compute load plus per-edge traffic
    demand), and {!apply} composes the registry onto a captured
    {!Snapshot.t}: node loads gain the granted compute load, and the
    measured bandwidth rows of overlaid nodes lose the traffic their
    grants are assumed to push. The broker's CL_v (Eq. 1) and NL
    (Eq. 2) then see prior grants without waiting for the (virtual-
    time-paced) monitor daemons to observe them.

    Composition is snapshot-level on purpose: the daemon advances
    virtual time by ~10 ms per refresh, so a [World]-level job overlay
    would stay invisible to the 6 s/300 s daemon sampling cadences for
    the daemon's whole wall-clock lifetime.

    Invariants (qcheck-gated in [test_service.ml]):
    - an empty registry applies as the physical identity — a daemon
      with no live grant decides on the raw capture, bit-identical;
    - the registry is conservative: the sum of overlay load equals the
      sum over live entries, and removal restores exactly what
      registration added (no leaked or negative load). *)

type t

val create : node_count:int -> t
(** A registry for a cluster of [node_count] nodes. Entries are
    validated against this bound at registration time. *)

type handle = int

val register :
  t ->
  load:(int * float) list ->
  traffic:((int * int) * float) list ->
  handle
(** Add one grant's footprint. [load] maps node id to added compute
    load (runnable-queue contribution, typically ranks on that node ×
    a per-rank figure); [traffic] maps undirected node pairs to MB/s
    of assumed demand. Raises [Invalid_argument] on out-of-range
    nodes, self-edges, or negative/non-finite figures. *)

val set :
  t ->
  handle ->
  load:(int * float) list ->
  traffic:((int * int) * float) list ->
  unit
(** Replace a live entry in place — how a grow or shrink re-shapes a
    grant's footprint. Raises [Invalid_argument] if the
    handle is not live (same validation as {!register} otherwise). *)

val remove : t -> handle -> unit
(** Drop an entry. Idempotent: removing a dead handle is a no-op. *)

val is_empty : t -> bool
val active : t -> int

val total_load : t -> float
(** Sum of all per-node load contributions across live entries. *)

val total_traffic_mb_s : t -> float
(** Sum of all per-edge traffic demands across live entries. *)

val load_on : t -> node:int -> float
(** Composed extra load on one node (0 outside any entry). *)

val incident_traffic_mb_s : t -> node:int -> float
(** Sum of traffic demands on edges touching [node]. *)

val nodes : t -> int list
(** Sorted, deduplicated node ids touched by any live entry. *)

val apply : t -> Snapshot.t -> Snapshot.t
(** Compose the registry onto a snapshot. An empty registry returns
    the snapshot itself (physical identity, [==]). Otherwise the
    result shares the cluster, live set, peak and latency matrices
    with its base; [nodes] is rebuilt with the overlay load added to
    every running-means view (a grant is modeled as sustained
    occupancy), and [bw_mb_s] is copied with the rows/columns of
    overlaid nodes reduced by each endpoint's incident traffic,
    clamped at zero. [written_at] is untouched, so the broker's
    staleness gate keeps reflecting real monitor freshness. *)
