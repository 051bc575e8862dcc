(* Memoized Eq. 1/Eq. 2/Eq. 3 models.

   Every Broker.decide used to rebuild Compute_load (O(V) SAW pipeline),
   Network_load (O(V²) matrix construction) and Effective_procs from
   scratch — and a broker with a wait threshold built Compute_load
   twice per decision. The cache shares one model bundle per
   (snapshot, weights) pair across Broker.mean_load_per_core,
   Policies.allocate, Hierarchical.allocate and every pending job scored
   against the same snapshot in one scheduler tick.

   Keying: a snapshot is matched physically (the same record), which
   subsumes the documented identity (time + usable set) because
   Snapshot.t's fields are immutable — deriving a snapshot with a new
   time or live set allocates a new record and therefore misses.
   Weights are compared structurally (a flat float record). The models
   are pure functions of (snapshot, weights), so hits are observably
   identical to rebuilding.

   The hit/miss counters are Atomic so readers on several domains never
   tear them; the slot array itself is effectively single-writer (the
   scheduler/broker tick), as in the rest of rm_core — snapshots must
   not be mutated in place after first being scored. *)

module Snapshot = Rm_monitor.Snapshot
module Telemetry = Rm_telemetry

type t = {
  snapshot : Snapshot.t;
  weights : Weights.t;
  loads : Compute_load.t Lazy.t;
  net : Network_load.t Lazy.t;
  pc : Effective_procs.t Lazy.t;
}

(* A handful of slots, replaced round-robin: a scheduler tick touches
   one or two snapshots (shared + exclusive-restricted), sweeps a few
   weight settings at most. *)
let slot_count = 8

let slots : t option array = Array.make slot_count None
let next = ref 0
let hit_count = Atomic.make 0
let miss_count = Atomic.make 0

let m_hits = Telemetry.Metrics.counter "core.model_cache.hits"
let m_misses = Telemetry.Metrics.counter "core.model_cache.misses"

let build snapshot ~weights =
  let loads = lazy (Compute_load.of_snapshot snapshot ~weights) in
  {
    snapshot;
    weights;
    loads;
    net = lazy (Network_load.of_snapshot snapshot ~weights);
    pc = lazy (Effective_procs.of_snapshot snapshot ~loads:(Lazy.force loads));
  }

let find_slot snapshot ~weights =
  let found = ref None in
  for i = 0 to slot_count - 1 do
    match slots.(i) with
    | Some e when e.snapshot == snapshot && e.weights = weights ->
      found := Some (i, e)
    | Some _ | None -> ()
  done;
  !found

let insert e =
  slots.(!next) <- Some e;
  next := (!next + 1) mod slot_count;
  e

let get snapshot ~weights =
  match find_slot snapshot ~weights with
  | Some (_, e) ->
    Atomic.incr hit_count;
    Telemetry.Metrics.incr m_hits;
    e
  | None ->
    Atomic.incr miss_count;
    Telemetry.Metrics.incr m_misses;
    insert (build snapshot ~weights)

let get_derived snapshot ~prev ~touched ~weights =
  match find_slot snapshot ~weights with
  | Some (_, e) ->
    Atomic.incr hit_count;
    Telemetry.Metrics.incr m_hits;
    e
  | None ->
    Atomic.incr miss_count;
    Telemetry.Metrics.incr m_misses;
    let patched =
      match find_slot prev ~weights with
      | Some (i, pe) when Lazy.is_val pe.net ->
        (match
           Nl_delta.derive ~next:snapshot ~weights ~touched
             (Lazy.force pe.net)
         with
        | Some net ->
          (* derive consumed the predecessor's network model in place;
             the old bundle must not stay reachable under its own
             snapshot key with a now-wrong model. *)
          slots.(i) <- None;
          (* Compute_load and Effective_procs are pure functions of
             (live, nodes, weights) — Snapshot.usable never reads the
             clock — so a derived snapshot that shares both arrays
             physically (the monitor-tick shape: same node records, new
             network readings) can carry the predecessor's models
             forward instead of paying the O(V) SAW pipeline again. *)
          let loads, pc =
            if
              snapshot.Snapshot.nodes == prev.Snapshot.nodes
              && snapshot.Snapshot.live == prev.Snapshot.live
            then (pe.loads, pe.pc)
            else
              let loads =
                lazy (Compute_load.of_snapshot snapshot ~weights)
              in
              ( loads,
                lazy
                  (Effective_procs.of_snapshot snapshot
                     ~loads:(Lazy.force loads)) )
          in
          Some { snapshot; weights; loads; net = Lazy.from_val net; pc }
        | None -> None)
      | Some _ | None -> None
    in
    insert (match patched with Some e -> e | None -> build snapshot ~weights)

let prime_derived snapshot ~prev ~weights =
  match find_slot snapshot ~weights with
  | Some _ -> ()
  | None when snapshot == prev -> ()
  | None ->
    (match find_slot prev ~weights with
    | Some (_, pe) when Lazy.is_val pe.net ->
      (match Nl_delta.touched_of ~prev:(Lazy.force pe.net) ~next:snapshot with
      | Some touched -> ignore (get_derived snapshot ~prev ~touched ~weights)
      | None -> ())
    | Some _ | None -> ())

let loads t = Lazy.force t.loads
let net t = Lazy.force t.net
let pc t = Lazy.force t.pc

let hits () = Atomic.get hit_count
let misses () = Atomic.get miss_count

let clear () =
  Array.fill slots 0 slot_count None;
  next := 0
