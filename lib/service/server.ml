(* Resident allocation daemon: accept loop, connection workers, and the
   tick thread that owns all broker decisions.

   Thread layout (systhreads — one runtime lock, so these interleave on
   a single domain, which is exactly what `Model_cache` requires):

   - accept thread: `Unix.select` with a short timeout so it can notice
     the stop flag, then `accept` and hand the connection to a fresh
     worker thread. Once a lease has passed it also hands the tick
     thread a sweep, so an idle daemon reclaims expired grants;
   - worker threads: speak the `Wire` line protocol (or answer a
     one-shot HTTP GET for /metrics scrapes). Allocate, grow, shrink
     and release requests are *submitted* to the admission queue and
     the worker blocks on an ivar; status/metrics are answered inline
     under the state mutex. Workers never call `Broker.decide`;
   - tick thread: sole consumer of the admission queue and sole caller
     of `Broker.decide`. The whole batch is served from one snapshot,
     refreshed only when it is older than `tick_s` of wall time (0
     refreshes before every batch). Every live grant is overlaid onto
     that snapshot and its nodes are held out of the pool, so each
     decision sees the load that earlier grants committed.

   Virtual time: the daemon embeds the same simulated world the CLI
   commands build (`Sim` + `World` + monitor `System`). Wall time and
   virtual time advance on different clocks; each snapshot refresh
   advances virtual time by `virtual_tick_s` so the monitored state
   keeps evolving under sustained load.

   Shutdown: signal handlers only set an atomic flag; `run` polls it
   and calls `stop`, which (1) marks the server draining so new
   allocates get `shutting_down`, (2) stops the accept loop, (3) closes
   the admission queue and joins the tick thread — which by
   construction serves every already-admitted request first — then
   (4) grace-waits for workers, flushes the `Spill` sink and writes a
   final metrics exposition. *)

module Sim = Rm_engine.Sim
module Cluster = Rm_cluster.Cluster
module World = Rm_workload.World
module Scenario = Rm_workload.Scenario
module System = Rm_monitor.System
module Snapshot = Rm_monitor.Snapshot
module Overlay = Rm_monitor.Overlay
module Broker = Rm_core.Broker
module Model_cache = Rm_core.Model_cache
module Allocation = Rm_core.Allocation
module Policies = Rm_core.Policies
module Request = Rm_core.Request
module Malleable = Rm_malleable.Malleable
module Executor = Rm_mpisim.Executor
module Telemetry = Rm_telemetry
module Metrics = Rm_telemetry.Metrics

type endpoint = Unix_socket of string | Tcp of int

type config = {
  endpoint : endpoint;
  scenario : Scenario.t;
  seed : int;
  start_time : float;  (** virtual seconds; keep past [System.warm_up_s] *)
  nodes : int option;
      (** [Some n]: homogeneous n-node cluster instead of the IIT-K
          reference — smaller for tests, larger for load studies. *)
  tick_s : float;  (** wall-clock snapshot refresh period *)
  virtual_tick_s : float;  (** virtual seconds added per refresh *)
  max_pending : int;  (** admission queue bound (backpressure) *)
  max_batch : int;  (** most requests served from one queue take *)
  batching : bool;
      (** must be [true]: requests are always served in per-tick
          batches. [create] refuses [false]. *)
  broker : Broker.config;
  retry_after_s : float;  (** hint attached to retry responses *)
  metrics_out : string option;  (** final exposition written on stop *)
  spill_dir : string option;  (** trace spill sink, flushed on stop *)
  horizon_s : float;  (** monitor daemons scheduled this far ahead *)
  reconfig_data_mb_per_proc : float;
      (** redistribution payload assumed per moved rank when answering
          grow/shrink — the daemon has no per-job data model, so the
          delay it reports uses this flat figure *)
  reconfig_overhead_s : float;
      (** fixed cost added to every reported reconfiguration delay *)
  overlay : bool;
      (** must be [true]: grants are first-class load sources. Each
          active allocation overlays compute load and traffic onto the
          decision snapshot and holds its nodes out of the grantable pool
          until released (or its lease expires). [create] refuses
          [false]. *)
  default_lease_s : float option;
      (** lease applied when an allocate carries no [lease_s]; [None]
          grants without expiry (a crashed client then pins overlayed
          capacity until an operator releases it). *)
  overlay_load_per_proc : float;
      (** default compute load each granted rank overlays on its node *)
  overlay_traffic_mb_s_per_proc : float;
      (** default MB/s each rank pushes to its ring neighbour *)
}

let default_config ~endpoint =
  {
    endpoint;
    scenario = Scenario.normal;
    seed = 42;
    start_time = 1200.0;
    nodes = None;
    tick_s = 0.01;
    virtual_tick_s = 0.01;
    max_pending = 1024;
    max_batch = 256;
    batching = true;
    broker = Broker.default_config;
    retry_after_s = 0.05;
    metrics_out = None;
    spill_dir = None;
    horizon_s = 2_592_000.0;
    reconfig_data_mb_per_proc = 64.0;
    reconfig_overhead_s = 30.0;
    overlay = true;
    default_lease_s = None;
    overlay_load_per_proc = 1.0;
    overlay_traffic_mb_s_per_proc = 8.0;
  }

(* --- one-shot synchronisation cell -------------------------------------- *)

module Ivar = struct
  type 'a t = { m : Mutex.t; c : Condition.t; mutable v : 'a option }

  let create () = { m = Mutex.create (); c = Condition.create (); v = None }

  let fill t v =
    Mutex.lock t.m;
    t.v <- Some v;
    Condition.signal t.c;
    Mutex.unlock t.m

  let read t =
    Mutex.lock t.m;
    while t.v = None do
      Condition.wait t.c t.m
    done;
    let v = Option.get t.v in
    Mutex.unlock t.m;
    v
end

(* Admission-queue payload. Reconfiguration directives ride the same
   queue as allocates so the tick thread stays the sole caller of
   `Broker.decide` / `Policies.allocate` (and therefore the sole
   `Model_cache` user) — workers never touch the allocator. The reply
   is the finished wire response: building it (including the alloc
   table update) happens on the tick thread too. *)
type work =
  | Alloc_work of Wire.allocate
  | Grow_work of Wire.grow
  | Shrink_work of { alloc_id : int; delta_procs : int }
  | Release_work of { alloc_id : int }
      (** the release recomposes the world, which must happen on the
          tick thread (sole [Model_cache] user) *)

type pending = {
  work : work;
  enqueued_at : float;  (* wall clock, for the latency histogram *)
  reply : Wire.response Ivar.t;
}

(* What the tick thread takes off the admission queue: a request, or a
   lease sweep handed over by the accept loop while no batch runs. *)
type job = Request of pending | Sweep

(* Everything the daemon knows about one live grant. The overlay
   handle ties the allocation to its load/traffic footprint in the
   registry; the lease (wall clock) bounds how long a silent client
   can hold it. *)
type alloc_state = {
  allocation : Allocation.t;
  handle : Overlay.handle;
  expires_at : float option;  (* wall clock; None = no lease *)
  lease_s : float option;  (* duration granted, echoed on the wire *)
  load_per_proc : float;
  traffic_mb_s_per_proc : float;
}

type t = {
  config : config;
  sim : Sim.t;
  world : World.t;
  monitor : System.t;
  rng : Rm_stats.Rng.t;  (* decision rng; tick thread only *)
  queue : job Batcher.t;
  state_mutex : Mutex.t;
      (* guards: snapshot, composed, decide, snapshot_taken_at,
         virtual_time, allocs, tombstones, overlays, next_alloc_id,
         served, batches, sim/world/monitor advancement *)
  mutable snapshot : Snapshot.t;  (* raw monitor capture *)
  mutable composed : Snapshot.t;
      (* snapshot with grant overlays applied; == snapshot when no
         grant is live. The model cache's patch chain follows it. *)
  mutable decide : Snapshot.t;
      (* what the broker sees: [composed] restricted by the held-node
         set *)
  overlays : Overlay.t;
  mutable snapshot_taken_at : float;  (* wall clock *)
  mutable virtual_time : float;
  allocs : (int, alloc_state) Hashtbl.t;
  tombstones : (int, [ `Released | `Expired ]) Hashtbl.t;
      (* every id that was ever live and is no more — distinguishes a
         double release from a never-granted id. Ids are never reused,
         so this grows with the grant count; at daemon request rates
         that is cheap bookkeeping. *)
  mutable next_alloc_id : int;
  mutable served : int;
  mutable batches : int;
  started_at : float;
  stop_requested : bool Atomic.t;
  draining : bool Atomic.t;
  stopped : bool Atomic.t;
  workers : int Atomic.t;
  listen_fd : Unix.file_descr;
  mutable accept_thread : Thread.t option;
  mutable tick_thread : Thread.t option;
  spill : Telemetry.Spill.t option;
}

(* --- metrics ------------------------------------------------------------ *)

let m_requests = Metrics.counter "core.service.requests"
let m_batches = Metrics.counter "core.service.batches"

let m_batch_size =
  Metrics.histogram
    ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0 |]
    "core.service.batch_size"

let m_queue_depth = Metrics.gauge "core.service.queue_depth"
let m_retry = Metrics.counter "core.service.retry_after"
let m_rejected = Metrics.counter "core.service.rejected"
let m_active = Metrics.gauge "core.service.active_allocations"
let m_connections = Metrics.gauge "core.service.connections"
let m_snapshots = Metrics.counter "core.service.snapshots"
let m_reconfigs = Metrics.counter "core.service.reconfigs"
let m_lease_granted = Metrics.counter "service.lease.granted"
let m_lease_expired = Metrics.counter "service.lease.expired"
let m_lease_active = Metrics.gauge "service.lease.active"

let latency_metric_name = "service.request_latency_s"

(* Decade-spaced default buckets cannot separate a 2 ms p50 from an
   8 ms p99; use a 1-2.5-5 ladder from 100 µs to 10 s instead. *)
let latency_buckets =
  [|
    1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 1e-2; 2.5e-2; 5e-2; 0.1; 0.25;
    0.5; 1.0; 2.5; 5.0; 10.0;
  |]

let latency_histogram ~policy =
  Metrics.histogram ~buckets:latency_buckets
    ~labels:[ ("policy", Policies.name policy) ]
    latency_metric_name

(* --- environment -------------------------------------------------------- *)

(* Same shape as rmctl's make_env, but the cluster size is overridable
   and the monitor horizon is the daemon's lifetime, not one day. *)
let make_cluster = function
  | None -> Cluster.iitk_reference ()
  | Some n ->
    if n <= 0 then invalid_arg "Server: nodes must be positive";
    let rec switches n = if n <= 10 then [ n ] else 10 :: switches (n - 10) in
    Cluster.homogeneous ~nodes_per_switch:(switches n) ()

let open_endpoint = function
  | Unix_socket path ->
    if String.length path > 100 then
      invalid_arg "Server: unix socket path too long";
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64;
    fd

let create config =
  (* Checked here, not on the tick thread: a take of zero would kill
     that thread and leave every allocate waiting forever. *)
  if config.max_batch <= 0 then invalid_arg "Server: max_batch must be positive";
  if not config.batching then invalid_arg "Server: batching cannot be turned off";
  if not config.overlay then invalid_arg "Server: overlay cannot be turned off";
  let cluster = make_cluster config.nodes in
  let sim = Sim.create () in
  let world =
    World.create ~cluster ~scenario:config.scenario ~seed:config.seed
  in
  let rng = Rm_stats.Rng.create (config.seed + 1) in
  let monitor =
    System.start ~sim ~world ~rng
      ~until:(config.start_time +. config.horizon_s)
      ()
  in
  Sim.run_until sim config.start_time;
  World.advance world ~now:config.start_time;
  let snapshot = System.snapshot monitor ~time:config.start_time in
  let spill =
    Option.map
      (fun dir ->
        let s = Telemetry.Spill.create ~dir () in
        Telemetry.Spill.install s;
        s)
      config.spill_dir
  in
  {
    config;
    sim;
    world;
    monitor;
    rng;
    queue = Batcher.create ~max_pending:config.max_pending;
    state_mutex = Mutex.create ();
    snapshot;
    composed = snapshot;
    decide = snapshot;
    overlays = Overlay.create ~node_count:(Cluster.node_count cluster);
    snapshot_taken_at = Unix.gettimeofday ();
    virtual_time = config.start_time;
    allocs = Hashtbl.create 64;
    tombstones = Hashtbl.create 64;
    next_alloc_id = 1;
    served = 0;
    batches = 0;
    started_at = Unix.gettimeofday ();
    stop_requested = Atomic.make false;
    draining = Atomic.make false;
    stopped = Atomic.make false;
    workers = Atomic.make 0;
    listen_fd = open_endpoint config.endpoint;
    accept_thread = None;
    tick_thread = None;
    spill;
  }

(* --- allocation table & overlay composition ------------------------------ *)

(* The assumed footprint of one grant: every granted rank contributes
   [load_per_proc] runnable load on its node, and pushes
   [traffic_mb_s_per_proc] to its ring neighbour — a halo-exchange-
   shaped demand over the allocation's nodes in placement order
   (single-node allocations push nothing onto the network). *)
let footprint ~load_per_proc ~traffic_mb_s_per_proc (a : Allocation.t) =
  let entries = a.Allocation.entries in
  let load =
    if load_per_proc <= 0.0 then []
    else
      List.map
        (fun (e : Allocation.entry) ->
          (e.Allocation.node, float_of_int e.Allocation.procs *. load_per_proc))
        entries
  in
  let ring = Array.of_list entries in
  let k = Array.length ring in
  let traffic =
    if k < 2 || traffic_mb_s_per_proc <= 0.0 then []
    else
      List.init
        (if k = 2 then 1 else k)
        (fun i ->
          let src = ring.(i) and dst = ring.((i + 1) mod k) in
          ( (src.Allocation.node, dst.Allocation.node),
            float_of_int src.Allocation.procs *. traffic_mb_s_per_proc ))
  in
  (load, traffic)

let held_nodes_locked t =
  Hashtbl.fold
    (fun _ st acc -> Allocation.node_ids st.allocation @ acc)
    t.allocs []

(* Rebuild [composed]/[decide] after a registry or table change.
   [touched] lists the nodes whose load/traffic footprint moved, so
   the new composed snapshot's network model rides the O(touched·V)
   incremental patch (PR 7) from the previous composed snapshot
   instead of a full O(V²) re-derivation. Caller holds state_mutex;
   tick thread only (Model_cache discipline). *)
let recompose_locked t ~touched =
  let prev = t.composed in
  let composed = Overlay.apply t.overlays t.snapshot in
  t.composed <- composed;
  if composed != prev then
    ignore
      (Model_cache.get_derived composed ~prev ~touched
         ~weights:t.config.broker.Broker.weights
        : Model_cache.t);
  let held = held_nodes_locked t in
  t.decide <-
    (if held = [] then composed else Snapshot.restrict composed ~exclude:held)

let leased_count_locked t =
  Hashtbl.fold
    (fun _ st n -> if st.expires_at <> None then n + 1 else n)
    t.allocs 0

let refresh_alloc_gauges_locked t =
  Metrics.set m_active (float_of_int (Hashtbl.length t.allocs));
  Metrics.set m_lease_active (float_of_int (leased_count_locked t))

(* Runs on the tick thread (decisions and their table updates live
   there). Returns the fresh id plus the lease actually granted. *)
let register_allocation t allocation ~(params : Wire.allocate) =
  let { default_lease_s; overlay_load_per_proc; overlay_traffic_mb_s_per_proc; _ } =
    t.config
  in
  let wall = Unix.gettimeofday () in
  let lease_s =
    match params.Wire.lease_s with Some _ as l -> l | None -> default_lease_s
  in
  let load_per_proc =
    Option.value params.Wire.load_per_proc ~default:overlay_load_per_proc
  in
  let traffic_mb_s_per_proc =
    Option.value params.Wire.traffic_mb_s_per_proc
      ~default:overlay_traffic_mb_s_per_proc
  in
  let load, traffic =
    footprint ~load_per_proc ~traffic_mb_s_per_proc allocation
  in
  Mutex.lock t.state_mutex;
  let id = t.next_alloc_id in
  t.next_alloc_id <- id + 1;
  let st =
    {
      allocation;
      handle = Overlay.register t.overlays ~load ~traffic;
      expires_at = Option.map (fun l -> wall +. l) lease_s;
      lease_s;
      load_per_proc;
      traffic_mb_s_per_proc;
    }
  in
  Hashtbl.replace t.allocs id st;
  recompose_locked t ~touched:(Allocation.node_ids allocation);
  if st.expires_at <> None then Metrics.incr m_lease_granted;
  refresh_alloc_gauges_locked t;
  Mutex.unlock t.state_mutex;
  (id, lease_s)

(* Caller holds state_mutex. Removes the grant and its overlay entry
   but does not recompose — callers batch removals and recompose once. *)
let drop_allocation_locked t ~alloc_id ~reason =
  match Hashtbl.find_opt t.allocs alloc_id with
  | None -> None
  | Some st ->
    Hashtbl.remove t.allocs alloc_id;
    Hashtbl.replace t.tombstones alloc_id reason;
    Overlay.remove t.overlays st.handle;
    refresh_alloc_gauges_locked t;
    Some st

(* Tick thread: the overlay recomposition touches `Model_cache`. *)
let release_allocation t ~alloc_id =
  Mutex.lock t.state_mutex;
  let outcome =
    match drop_allocation_locked t ~alloc_id ~reason:`Released with
    | Some st ->
      recompose_locked t ~touched:(Allocation.node_ids st.allocation);
      `Released
    | None -> (
      match Hashtbl.find_opt t.tombstones alloc_id with
      | Some reason -> `Already_released reason
      | None -> `Unknown)
  in
  Mutex.unlock t.state_mutex;
  outcome

let lookup_allocation t ~alloc_id =
  Mutex.lock t.state_mutex;
  let a = Hashtbl.find_opt t.allocs alloc_id in
  Mutex.unlock t.state_mutex;
  a

(* Only replace a registered id — a concurrent release wins over a
   reconfiguration still in flight for the same allocation. The
   overlay footprint is re-shaped to the new allocation, so a shrink
   that empties a node returns it to the grantable pool immediately. *)
let replace_allocation t ~alloc_id allocation =
  Mutex.lock t.state_mutex;
  (match Hashtbl.find_opt t.allocs alloc_id with
  | None -> ()
  | Some st ->
    let old_nodes = Allocation.node_ids st.allocation in
    Hashtbl.replace t.allocs alloc_id { st with allocation };
    let load, traffic =
      footprint ~load_per_proc:st.load_per_proc
        ~traffic_mb_s_per_proc:st.traffic_mb_s_per_proc allocation
    in
    Overlay.set t.overlays st.handle ~load ~traffic;
    recompose_locked t
      ~touched:(List.sort_uniq compare (old_nodes @ Allocation.node_ids allocation)));
  Mutex.unlock t.state_mutex

(* Lease sweep — tick thread, before each batch and whenever the accept
   loop hands one over. Expired grants are dropped in one pass and the
   world recomposed once, so a crashed client cannot pin overlayed
   capacity past its lease. *)
let sweep_leases t ~wall =
  Mutex.lock t.state_mutex;
  let expired =
    Hashtbl.fold
      (fun id st acc ->
        match st.expires_at with
        | Some at when at <= wall -> (id, st) :: acc
        | _ -> acc)
      t.allocs []
  in
  if expired <> [] then begin
    let touched = ref [] in
    List.iter
      (fun (id, st) ->
        ignore (drop_allocation_locked t ~alloc_id:id ~reason:`Expired);
        Metrics.incr m_lease_expired;
        touched := Allocation.node_ids st.allocation @ !touched)
      expired;
    recompose_locked t ~touched:(List.sort_uniq compare !touched)
  end;
  Mutex.unlock t.state_mutex

(* --- tick thread -------------------------------------------------------- *)

(* Advance virtual time one tick and recapture. Caller holds state_mutex. *)
let refresh_snapshot_locked t ~wall =
  let prev_composed = t.composed in
  t.virtual_time <- t.virtual_time +. t.config.virtual_tick_s;
  Sim.run_until t.sim t.virtual_time;
  World.advance t.world ~now:t.virtual_time;
  t.snapshot <- System.snapshot t.monitor ~time:t.virtual_time;
  t.snapshot_taken_at <- wall;
  (* If the previous tick's network model is cached and the usable set
     held, patch it forward to the new snapshot (O(touched·V)) instead
     of letting the next decision rebuild O(V²) from scratch. The
     decision path reads the *composed* snapshot, so that is the chain
     the priming follows. *)
  let composed = Overlay.apply t.overlays t.snapshot in
  t.composed <- composed;
  Model_cache.prime_derived composed ~prev:prev_composed
    ~weights:t.config.broker.Broker.weights;
  let held = held_nodes_locked t in
  t.decide <-
    (if held = [] then composed else Snapshot.restrict composed ~exclude:held);
  Metrics.incr m_snapshots

(* --- tick-thread response construction -----------------------------------

   Everything below runs on the tick thread: allocator calls, table
   updates and wire-response assembly. A worker only submits the work
   item and blocks on its ivar for the finished response. *)

let alloc_error_response e =
  let code =
    match e with
    | Allocation.Insufficient_capacity _ -> Wire.Insufficient_capacity
    | Allocation.No_usable_nodes -> Wire.No_usable_nodes
  in
  Wire.Error { code; message = Format.asprintf "%a" Allocation.pp_error e }

let unknown_alloc alloc_id =
  Wire.Error
    {
      code = Wire.Unknown_alloc;
      message = Printf.sprintf "no active allocation #%d" alloc_id;
    }

let already_released alloc_id reason =
  Wire.Error
    {
      code = Wire.Already_released;
      message =
        Printf.sprintf "allocation #%d was already %s" alloc_id
          (match reason with
          | `Released -> "released"
          | `Expired -> "dropped (lease expired)");
    }

(* An id that is not in the live table: tombstoned ids get the typed
   already-released error, never-granted ids stay unknown_alloc. *)
let missing_alloc t ~alloc_id =
  Mutex.lock t.state_mutex;
  let tomb = Hashtbl.find_opt t.tombstones alloc_id in
  Mutex.unlock t.state_mutex;
  match tomb with
  | Some reason -> already_released alloc_id reason
  | None -> unknown_alloc alloc_id

let release_response t ~alloc_id =
  match release_allocation t ~alloc_id with
  | `Released -> Wire.Released { alloc_id }
  | `Already_released reason -> already_released alloc_id reason
  | `Unknown -> unknown_alloc alloc_id

let reconfig_rejected message =
  Wire.Error { code = Wire.Reconfig_rejected; message }

let policy_or_default t policy =
  Option.value policy ~default:t.config.broker.Broker.policy

let serve_alloc t ~snapshot (params : Wire.allocate) =
  let outcome =
    try Batcher.serve_one ~base:t.config.broker ~snapshot ~rng:t.rng params
    with exn ->
      Printf.eprintf "brokerd: decision failed: %s\n%!" (Printexc.to_string exn);
      Error Allocation.No_usable_nodes
  in
  match outcome with
  | Ok (Broker.Allocated allocation) ->
    let alloc_id, lease_s = register_allocation t allocation ~params in
    Wire.Allocated { alloc_id; allocation; expires_s = lease_s }
  | Ok (Broker.Wait { mean_load_per_core; threshold }) ->
    Metrics.incr m_retry;
    Wire.Retry
      {
        after_s = t.config.retry_after_s;
        reason = Wire.Overloaded { mean_load_per_core; threshold };
      }
  | Error e -> alloc_error_response e

(* Price a transition with the live world model (per-node NIC rates
   under degradation), charging the daemon's flat per-rank payload —
   the service has no per-job data model. *)
let reconfig_delay_s t ~from_alloc ~to_alloc =
  Executor.redistribution_delay_s ~world:t.world ~from_alloc ~to_alloc
    ~data_mb_per_proc:t.config.reconfig_data_mb_per_proc
    ~overhead_s:t.config.reconfig_overhead_s ()

let finish_reconfig t ~alloc_id ~cur merged =
  let moved_procs = Malleable.moved_procs ~from_:cur ~to_:merged in
  let delay_s = reconfig_delay_s t ~from_alloc:cur ~to_alloc:merged in
  replace_allocation t ~alloc_id merged;
  Metrics.incr m_reconfigs;
  Wire.Reconfigured { alloc_id; allocation = merged; moved_procs; delay_s }

(* Grow [cur] by the delta: place the extra ranks with the job's
   current nodes hidden (the delta must land elsewhere — growing in
   place is not a redistribution), then merge and price the move. *)
let grow_allocation t ~snapshot ~cur (g : Wire.grow) =
  let request =
    Request.make ?ppn:g.Wire.grow_ppn ~alpha:g.Wire.grow_alpha
      ~procs:g.Wire.delta_procs ()
  in
  let snapshot = Snapshot.restrict snapshot ~exclude:(Allocation.node_ids cur) in
  match
    Policies.allocate ?starts:t.config.broker.Broker.starts
      ~policy:(policy_or_default t g.Wire.grow_policy)
      ~snapshot ~weights:t.config.broker.Broker.weights ~request ~rng:t.rng ()
  with
  | Error e -> alloc_error_response e
  | Ok extra ->
    finish_reconfig t ~alloc_id:g.Wire.alloc_id ~cur
      (Malleable.merge ~base:cur ~extra)

let shrink_allocation t ~alloc_id ~cur ~delta_procs =
  let target = Allocation.total_procs cur - delta_procs in
  match Malleable.shrink_to cur ~target_procs:target with
  | None ->
    reconfig_rejected
      (Printf.sprintf
         "cannot shrink allocation #%d from %d to %d procs (at least one must \
          remain)"
         alloc_id (Allocation.total_procs cur) target)
  | Some small -> finish_reconfig t ~alloc_id ~cur small

let serve_work t ~snapshot = function
  | Alloc_work params -> serve_alloc t ~snapshot params
  | Release_work { alloc_id } -> release_response t ~alloc_id
  | Grow_work g -> (
    match lookup_allocation t ~alloc_id:g.Wire.alloc_id with
    | None -> missing_alloc t ~alloc_id:g.Wire.alloc_id
    | Some st -> grow_allocation t ~snapshot ~cur:st.allocation g)
  | Shrink_work { alloc_id; delta_procs } -> (
    match lookup_allocation t ~alloc_id with
    | None -> missing_alloc t ~alloc_id
    | Some st -> shrink_allocation t ~alloc_id ~cur:st.allocation ~delta_procs)

let work_policy t = function
  | Alloc_work (params : Wire.allocate) -> policy_or_default t params.Wire.policy
  | Grow_work g -> policy_or_default t g.Wire.grow_policy
  | Shrink_work _ | Release_work _ -> t.config.broker.Broker.policy

let serve_batch t batch =
  let wall = Unix.gettimeofday () in
  sweep_leases t ~wall;
  Mutex.lock t.state_mutex;
  if wall -. t.snapshot_taken_at >= t.config.tick_s then
    refresh_snapshot_locked t ~wall;
  Mutex.unlock t.state_mutex;
  let n = List.length batch in
  Metrics.incr m_batches;
  Metrics.observe m_batch_size (float_of_int n);
  Metrics.set m_queue_depth (float_of_int (Batcher.depth t.queue));
  List.iter
    (fun p ->
      (* A grant earlier in this batch re-shaped the world; read the
         recomposed decision snapshot. With no grant in between this
         is the same physical record, so the model cache still hits. *)
      Mutex.lock t.state_mutex;
      let snapshot = t.decide in
      Mutex.unlock t.state_mutex;
      let response =
        try serve_work t ~snapshot p.work
        with exn ->
          Printf.eprintf "brokerd: request failed: %s\n%!"
            (Printexc.to_string exn);
          Wire.Error
            {
              code = Wire.Bad_request;
              message = "internal error: " ^ Printexc.to_string exn;
            }
      in
      Metrics.observe
        (latency_histogram ~policy:(work_policy t p.work))
        (Unix.gettimeofday () -. p.enqueued_at);
      Mutex.lock t.state_mutex;
      t.served <- t.served + 1;
      Mutex.unlock t.state_mutex;
      Ivar.fill p.reply response)
    batch;
  Mutex.lock t.state_mutex;
  t.batches <- t.batches + 1;
  Mutex.unlock t.state_mutex

(* A take that holds only sweeps is not a batch: it sweeps, and serves,
   counts and times nothing. A batch sweeps at its top anyway. *)
let tick_loop t =
  let rec loop () =
    match Batcher.take t.queue ~max:t.config.max_batch with
    | [] -> ()  (* queue closed and drained *)
    | jobs ->
      (match
         List.filter_map (function Request p -> Some p | Sweep -> None) jobs
       with
      | [] -> sweep_leases t ~wall:(Unix.gettimeofday ())
      | batch -> serve_batch t batch);
      loop ()
  in
  loop ()

(* --- request handling (workers) ----------------------------------------- *)

let status_info t =
  Mutex.lock t.state_mutex;
  let info =
    {
      Wire.daemon_version = Wire.version;
      uptime_s = Unix.gettimeofday () -. t.started_at;
      virtual_time = t.virtual_time;
      active_allocations = Hashtbl.length t.allocs;
      queue_depth = Batcher.depth t.queue;
      served = t.served;
      batches = t.batches;
      batching = true;
      draining = Atomic.get t.draining;
      cache_hits = Model_cache.hits ();
      cache_misses = Model_cache.misses ();
      overlay = true;
      active_leases = leased_count_locked t;
    }
  in
  Mutex.unlock t.state_mutex;
  info

(* Submit a work item to the admission queue and block on the finished
   response. Used for every op the tick thread must serve. *)
let submit_work t work =
  if Atomic.get t.draining then
    Wire.Error { code = Wire.Shutting_down; message = "daemon is draining" }
  else begin
    let p =
      { work; enqueued_at = Unix.gettimeofday (); reply = Ivar.create () }
    in
    match Batcher.submit t.queue (Request p) with
    | `Queue_full ->
      Metrics.incr m_rejected;
      Wire.Retry { after_s = t.config.retry_after_s; reason = Wire.Queue_full }
    | `Closed ->
      Wire.Error { code = Wire.Shutting_down; message = "daemon is draining" }
    | `Queued -> Ivar.read p.reply
  end

let handle_request t = function
  | Wire.Allocate params -> submit_work t (Alloc_work params)
  | Wire.Grow g -> submit_work t (Grow_work g)
  | Wire.Shrink { alloc_id; delta_procs } ->
    submit_work t (Shrink_work { alloc_id; delta_procs })
  | Wire.Release { alloc_id } -> submit_work t (Release_work { alloc_id })
  | Wire.Status -> Wire.Status_info (status_info t)
  | Wire.Metrics -> Wire.Metrics_text (Telemetry.Prometheus.render_registry ())

(* The longest request line a connection may send. Past it the rest of
   the line is read and dropped, so one client cannot make the daemon
   hold more than this of it. *)
let max_line_bytes = 65_536

(* [input_line] with that bound: [`Line l] without its newline (a final
   unterminated line counts), or [`Too_long] once the line has passed
   [max_line_bytes] and the rest of it has been skipped. Raises
   End_of_file at end of input, as [input_line] does. *)
let read_line ic =
  let buf = Buffer.create 256 in
  let rec skip () =
    match input_char ic with
    | '\n' -> ()
    | _ -> skip ()
    | exception End_of_file -> ()
  in
  let rec go () =
    match input_char ic with
    | '\n' -> `Line (Buffer.contents buf)
    | _ when Buffer.length buf >= max_line_bytes ->
      skip ();
      `Too_long
    | c ->
      Buffer.add_char buf c;
      go ()
    | exception End_of_file ->
      if Buffer.length buf = 0 then raise End_of_file
      else `Line (Buffer.contents buf)
  in
  go ()

let handle_line t line =
  Metrics.incr m_requests;
  let decoded =
    match line with
    | `Line line -> Wire.decode_request line
    | `Too_long ->
      Error
        {
          Wire.err_id = None;
          code = Wire.Bad_request;
          message =
            Printf.sprintf "request line longer than %d bytes" max_line_bytes;
        }
  in
  match decoded with
  | Ok { req_id; request } ->
    Wire.encode_response { resp_id = req_id; response = handle_request t request }
  | Error { err_id; code; message } ->
    Wire.encode_response
      {
        resp_id = Option.value err_id ~default:0;
        response = Wire.Error { code; message };
      }

(* --- HTTP scrape path ---------------------------------------------------- *)

let is_http_line line =
  List.exists
    (fun m -> String.length line > String.length m && String.sub line 0 (String.length m) = m)
    [ "GET "; "HEAD "; "POST "; "PUT " ]

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let serve_http t ic oc first_line =
  (* Drain request headers so the peer's write side is not reset. *)
  (try
     while
       match read_line ic with
       | `Line l -> String.trim l <> ""
       | `Too_long -> true
     do
       ()
     done
   with End_of_file -> ());
  let path =
    match String.split_on_char ' ' first_line with
    | _ :: path :: _ -> path
    | _ -> "/"
  in
  let response =
    match path with
    | "/metrics" ->
      http_response ~status:"200 OK"
        ~content_type:Telemetry.Prometheus.content_type
        (Telemetry.Prometheus.render_registry ())
    | "/status" ->
      http_response ~status:"200 OK" ~content_type:"application/json"
        (Rm_telemetry.Json.to_string (Wire.status_to_json (status_info t)) ^ "\n")
    | _ ->
      http_response ~status:"404 Not Found" ~content_type:"text/plain"
        "not found\n"
  in
  output_string oc response;
  flush oc

(* --- connection workers -------------------------------------------------- *)

let worker t fd =
  Atomic.incr t.workers;
  Metrics.set m_connections (float_of_int (Atomic.get t.workers));
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr t.workers;
      Metrics.set m_connections (float_of_int (Atomic.get t.workers));
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      try
        match read_line ic with
        | `Line first when is_http_line first -> serve_http t ic oc first
        | first ->
          let rec loop line =
            output_string oc (handle_line t line);
            output_char oc '\n';
            flush oc;
            loop (read_line ic)
          in
          loop first
      with End_of_file | Sys_error _ | Unix.Unix_error _ -> ())

(* True once a live grant's lease has passed. *)
let lease_passed t ~wall =
  Mutex.lock t.state_mutex;
  let passed =
    Hashtbl.fold
      (fun _ st passed ->
        passed
        || match st.expires_at with Some at -> at <= wall | None -> false)
      t.allocs false
  in
  Mutex.unlock t.state_mutex;
  passed

(* Besides accepting, each wake (at least every 200 ms) hands the tick
   thread a sweep once a lease has passed: batches sweep on their own,
   but an idle daemon runs none. *)
let accept_loop t =
  let rec loop () =
    if Atomic.get t.stop_requested then ()
    else begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept t.listen_fd with
        | fd, _ -> ignore (Thread.create (worker t) fd)
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if lease_passed t ~wall:(Unix.gettimeofday ()) then
        ignore
          (Batcher.submit t.queue Sweep : [ `Queued | `Queue_full | `Closed ]);
      loop ()
    end
  in
  loop ()

(* --- lifecycle ----------------------------------------------------------- *)

let start t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  t.tick_thread <- Some (Thread.create tick_loop t);
  t.accept_thread <- Some (Thread.create accept_loop t)

let request_stop t = Atomic.set t.stop_requested true

let write_final_exposition t =
  match t.config.metrics_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Telemetry.Prometheus.render_registry ());
    close_out oc

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    Atomic.set t.draining true;
    Atomic.set t.stop_requested true;
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.config.endpoint with
    | Unix_socket path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ());
    (* Closing the queue lets the tick thread drain every admitted
       request (each worker gets its ivar filled) and then exit. *)
    Batcher.close t.queue;
    Option.iter Thread.join t.tick_thread;
    (* Grace period for workers still writing their last response. *)
    let deadline = Unix.gettimeofday () +. 2.0 in
    while Atomic.get t.workers > 0 && Unix.gettimeofday () < deadline do
      Thread.delay 0.01
    done;
    Option.iter
      (fun s ->
        Telemetry.Trace.set_sink None;
        Telemetry.Spill.close s)
      t.spill;
    write_final_exposition t
  end

(* Foreground entry point for `rmctl serve` / `brokerd`: installs signal
   handlers that only flip an atomic (no allocation, no locking in the
   handler), then polls until asked to stop and shuts down cleanly. *)
let run t =
  let on_signal _ = Atomic.set t.stop_requested true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  start t;
  while not (Atomic.get t.stop_requested) do
    Thread.delay 0.1
  done;
  stop t
