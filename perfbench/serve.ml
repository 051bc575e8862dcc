(* The serve workloads: brokerd (`Server`) in this process, driven over
   its Unix socket by one closed-loop `Client` connection.

   The untraced run times the client's round trips. The traced run
   first serves one round over the socket (its digest is the reference
   and its release/reshape round trips are timed), then replays the
   same request sequence through a replica of the daemon's tick path,
   calling each layer's public functions in the daemon's order and
   recording one span per call. The replica's decision digest must
   equal the socket round's, or its per-layer figures are marked stale. *)

module Server = Rm_service.Server
module Client = Rm_service.Client
module Wire = Rm_service.Wire
module Sim = Rm_engine.Sim
module Rng = Rm_stats.Rng
module Cluster = Rm_cluster.Cluster
module World = Rm_workload.World
module System = Rm_monitor.System
module Snapshot = Rm_monitor.Snapshot
module Overlay = Rm_monitor.Overlay
module Broker = Rm_core.Broker
module Policies = Rm_core.Policies
module Model_cache = Rm_core.Model_cache
module Request = Rm_core.Request
module Allocation = Rm_core.Allocation
module Malleable = Rm_malleable.Malleable
module Executor = Rm_mpisim.Executor
module Json = Rm_telemetry.Json
module Metrics = Rm_telemetry.Metrics
module M = Measure

type spec = {
  name : string;
  nodes : int option;  (** [None]: the 60-node IIT-K reference cluster *)
  refresh : bool;
      (** snapshot refreshed before every request; otherwise the refresh
          period outlasts the run and every request is decided on the
          start-up monitor view plus the live grants' overlay *)
  max_live : int;  (** grants the client keeps live at most *)
}

let iitk = { name = "serve-iitk"; nodes = None; refresh = true; max_live = 3 }
let v256 = { name = "serve-v256"; nodes = Some 256; refresh = false; max_live = 8 }

let node_count spec = Option.value spec.nodes ~default:60
let ppn = 4

(* The closed loop attempts whole rounds until the run has lasted its
   seconds and at least [min_rounds] rounds. A round holds [passes]
   passes over the request mix — 132 allocates, so each round's p90 has
   13 samples beyond it. *)
let passes = 4
let tail_p = 0.9
let min_rounds = 6
let setups = 3

(* --- request stream -------------------------------------------------------- *)

type op =
  | Alloc of { procs : int; alpha : float }
  | Release of { slot : int }  (** slot = index in the client's live list *)
  | Grow of { slot : int; delta : int }
  | Shrink of { slot : int; delta : int }
  | Status

let sizes = List.init 11 (fun i -> 8 + (4 * i))  (* 8..48 procs *)
let alphas = [ 0.25; 0.5; 0.75 ]
let max_grant = 56  (* a grow never takes a grant past 14 nodes *)

let remove_nth l n = List.filteri (fun i _ -> i <> n) l

(* One round: every (size, alpha) pair allocated [passes] times, in
   seeded order;
   before an allocate that would exceed [max_live] a seeded live grant
   is released; every third allocate is followed by a grow of a seeded
   grant and every third (offset by one) by a shrink; the round ends by
   releasing every grant and asking for status. The generator tracks
   grant sizes itself, so the stream is fixed before any request is
   sent. *)
let round_ops spec ~seed =
  let rng = Rng.create seed in
  let mix =
    Array.of_list
      (List.concat
         (List.init passes (fun _ ->
              List.concat_map (fun p -> List.map (fun a -> (p, a)) alphas) sizes)))
  in
  Rng.shuffle rng mix;
  let live = ref [] in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  let pick pred =
    let slots = List.concat (List.mapi (fun i p -> if pred p then [ i ] else []) !live) in
    List.nth slots (Rng.int rng (List.length slots))
  in
  let resize slot f = live := List.mapi (fun i p -> if i = slot then f p else p) !live in
  Array.iteri
    (fun k (procs, alpha) ->
      if List.length !live = spec.max_live then begin
        let slot = Rng.int rng spec.max_live in
        emit (Release { slot });
        live := remove_nth !live slot
      end;
      emit (Alloc { procs; alpha });
      live := !live @ [ procs ];
      match k mod 3 with
      | 1 ->
        let delta = if Rng.bool rng then 4 else 8 in
        let slot = pick (fun p -> p + delta <= max_grant) in
        emit (Grow { slot; delta });
        resize slot (fun p -> p + delta)
      | 2 ->
        let slot = pick (fun p -> p >= 8) in
        emit (Shrink { slot; delta = 4 });
        resize slot (fun p -> p - 4)
      | _ -> ())
    mix;
  List.iter (fun _ -> emit (Release { slot = 0 })) !live;
  emit Status;
  List.rev !ops

(* --- the client's ledger and the output checks ----------------------------- *)

type grant = { id : int; alpha : float; mutable alloc : Allocation.t }

(* The request an operation makes, or [None] when the ledger has no
   grant at the slot (an earlier operation failed). *)
let request_of (ledger : grant list) op =
  let at slot f = Option.map f (List.nth_opt ledger slot) in
  match op with
  | Alloc { procs; alpha } ->
    Some
      (Wire.Allocate
         {
           procs;
           ppn = Some ppn;
           alpha;
           policy = None;
           wait_threshold = None;
           lease_s = None;
           load_per_proc = None;
           traffic_mb_s_per_proc = None;
         })
  | Release { slot } -> at slot (fun g -> Wire.Release { alloc_id = g.id })
  | Grow { slot; delta } ->
    at slot (fun g ->
        Wire.Grow
          {
            alloc_id = g.id;
            delta_procs = delta;
            grow_ppn = Some ppn;
            grow_alpha = g.alpha;
            grow_policy = None;
          })
  | Shrink { slot; delta } ->
    at slot (fun g -> Wire.Shrink { alloc_id = g.id; delta_procs = delta })
  | Status -> Some Wire.Status

(* The same request through the client's wrappers. *)
let send client = function
  | Wire.Allocate a -> Client.allocate client ?ppn:a.Wire.ppn ~alpha:a.alpha ~procs:a.procs
  | Wire.Release { alloc_id } -> Client.release client ~alloc_id
  | Wire.Grow g ->
    Client.grow client ?ppn:g.Wire.grow_ppn ~alpha:g.grow_alpha ~alloc_id:g.alloc_id
      ~delta_procs:g.delta_procs
  | Wire.Shrink { alloc_id; delta_procs } -> Client.shrink client ~alloc_id ~delta_procs
  | _ -> Client.status client

let digest_response d = function
  | Wire.Allocated { allocation; _ } ->
    M.add d "A";
    M.add_entries d allocation
  | Wire.Reconfigured { allocation; moved_procs; delay_s; _ } ->
    M.add d (Printf.sprintf "R%d" moved_procs);
    M.add_float d delay_s;
    M.add_entries d allocation
  | Wire.Released _ -> M.add d "F"
  | Wire.Status_info s -> M.add d (Printf.sprintf "S%d" s.Wire.active_allocations)
  | r -> M.add d (Format.asprintf "X%a" Wire.pp_response r)

let shape_violations ~nodes ~others (a : Allocation.t) =
  let ids = Allocation.node_ids a in
  List.concat
    [
      List.filter_map
        (fun (e : Allocation.entry) ->
          if e.Allocation.procs > ppn then
            Some (Printf.sprintf "node %d holds %d ranks > ppn %d" e.node e.procs ppn)
          else if e.node < 0 || e.node >= nodes then
            Some (Printf.sprintf "node %d out of range" e.node)
          else None)
        a.Allocation.entries;
      (if List.length (List.sort_uniq compare ids) <> List.length ids then
         [ "a node appears twice" ]
       else []);
      List.filter_map
        (fun g ->
          match List.filter (fun n -> List.mem n ids) (Allocation.node_ids g.alloc) with
          | [] -> None
          | shared ->
            Some
              (Printf.sprintf "shares nodes %s with live grant #%d"
                 (String.concat "," (List.map string_of_int shared))
                 g.id))
        others;
    ]

(* Check one response against what the request demands, and update the
   ledger. Returns the violations. *)
let check_and_apply ~nodes (ledger : grant list ref) op response =
  let others slot = remove_nth !ledger slot in
  let total = Allocation.total_procs in
  match (op, response) with
  | Alloc { procs; alpha }, Wire.Allocated { alloc_id; allocation; _ } ->
    let v =
      (if total allocation <> procs then
         [ Printf.sprintf "granted %d ranks for %d" (total allocation) procs ]
       else [])
      @ shape_violations ~nodes ~others:!ledger allocation
    in
    ledger := !ledger @ [ { id = alloc_id; alpha; alloc = allocation } ];
    v
  | Release { slot }, Wire.Released { alloc_id } ->
    let g = List.nth !ledger slot in
    ledger := others slot;
    if alloc_id <> g.id then [ Printf.sprintf "released #%d for #%d" alloc_id g.id ]
    else []
  | Grow { slot; delta }, Wire.Reconfigured { allocation; moved_procs; _ }
  | Shrink { slot; delta }, Wire.Reconfigured { allocation; moved_procs; _ } ->
    let g = List.nth !ledger slot in
    let sign = match op with Grow _ -> 1 | _ -> -1 in
    let want = total g.alloc + (sign * delta) in
    let kept =
      (* a grow keeps every old placement; a shrink only drops ranks *)
      List.for_all
        (fun (e : Allocation.entry) ->
          let before = Allocation.procs_on g.alloc ~node:e.Allocation.node in
          if sign > 0 then before = 0 || before = e.procs
          else before >= e.procs)
        allocation.Allocation.entries
    in
    let v =
      (if total allocation <> want then
         [ Printf.sprintf "reshaped to %d ranks, want %d" (total allocation) want ]
       else [])
      @ (if moved_procs <> delta then
           [ Printf.sprintf "moved %d ranks for a delta of %d" moved_procs delta ]
         else [])
      @ (if kept then [] else [ "existing placements were moved" ])
      @ shape_violations ~nodes ~others:(others slot) allocation
    in
    g.alloc <- allocation;
    v
  | Status, Wire.Status_info s ->
    if s.Wire.active_allocations <> 0 then
      [ Printf.sprintf "%d allocations still active after the final releases"
          s.active_allocations ]
    else []
  | _, r -> [ Format.asprintf "unexpected response %a" Wire.pp_response r ]

(* --- the daemon -------------------------------------------------------------- *)

let daemon_config spec ~socket =
  {
    (Server.default_config ~endpoint:(Server.Unix_socket socket)) with
    nodes = spec.nodes;
    tick_s = (if spec.refresh then 0.0 else infinity);
    overlay = true;
    batching = true;
    default_lease_s = None;
  }

let socket_counter = ref 0

type daemon = { server : Server.t; client : Client.t; config : Server.config }

(* Set-up: the daemon (cluster, world, monitor warm-up, threads) and the
   client connection — everything before the first timed request. *)
let start_daemon spec =
  M.ensure_dir M.out_dir;
  incr socket_counter;
  let socket =
    Printf.sprintf "%s/brokerd-%d-%d.sock" M.out_dir (Unix.getpid ()) !socket_counter
  in
  let config = daemon_config spec ~socket in
  let server = Server.create config in
  Server.start server;
  { server; client = Client.connect (`Unix socket); config }

let stop_daemon d =
  Client.close d.client;
  Server.stop d.server

(* --- the replica of the daemon's tick path --------------------------------- *)

type rgrant = { r_alloc : Allocation.t; handle : Overlay.handle }

type replica = {
  config : Server.config;
  refresh : bool;
  sim : Sim.t;
  world : World.t;
  monitor : System.t;
  rng : Rng.t;
  overlays : Overlay.t;
  mutable snapshot : Snapshot.t;
  mutable composed : Snapshot.t;
  mutable decide : Snapshot.t;
  mutable vtime : float;
  grants : (int, rgrant) Hashtbl.t;
  mutable next_id : int;
}

(* The daemon's cluster: the IIT-K reference, or switches of ten. *)
let cluster_of = function
  | None -> Cluster.iitk_reference ()
  | Some n ->
    let rec switches n = if n <= 10 then [ n ] else 10 :: switches (n - 10) in
    Cluster.homogeneous ~nodes_per_switch:(switches n) ()

let replica_create (spec : spec) (config : Server.config) ~on_world ~on_monitor =
  let cluster = cluster_of config.Server.nodes in
  let sim = Sim.create () in
  let world =
    on_world (fun () ->
        World.create ~cluster ~scenario:config.scenario ~seed:config.seed)
  in
  let rng = Rng.create (config.seed + 1) in
  let monitor, snapshot =
    on_monitor (fun () ->
        let monitor =
          System.start ~sim ~world ~rng
            ~until:(config.start_time +. config.horizon_s)
            ()
        in
        Sim.run_until sim config.start_time;
        World.advance world ~now:config.start_time;
        (monitor, System.snapshot monitor ~time:config.start_time))
  in
  {
    config;
    refresh = spec.refresh;
    sim;
    world;
    monitor;
    rng;
    overlays = Overlay.create ~node_count:(Cluster.node_count cluster);
    snapshot;
    composed = snapshot;
    decide = snapshot;
    vtime = config.start_time;
    grants = Hashtbl.create 16;
    next_id = 1;
  }

(* The footprint brokerd assumes for a grant: each rank adds
   [overlay_load_per_proc] of load on its node and pushes
   [overlay_traffic_mb_s_per_proc] to its ring neighbour. *)
let footprint (config : Server.config) (a : Allocation.t) =
  let entries = a.Allocation.entries in
  let load =
    if config.Server.overlay_load_per_proc <= 0.0 then []
    else
      List.map
        (fun (e : Allocation.entry) ->
          (e.Allocation.node, float_of_int e.procs *. config.overlay_load_per_proc))
        entries
  in
  let ring = Array.of_list entries in
  let k = Array.length ring in
  let traffic =
    if k < 2 || config.overlay_traffic_mb_s_per_proc <= 0.0 then []
    else
      List.init
        (if k = 2 then 1 else k)
        (fun i ->
          let src = ring.(i) and dst = ring.((i + 1) mod k) in
          ( (src.Allocation.node, dst.Allocation.node),
            float_of_int src.procs *. config.overlay_traffic_mb_s_per_proc ))
  in
  (load, traffic)

let weights r = r.config.Server.broker.Broker.weights

let restrict_held tr r composed =
  let held =
    Hashtbl.fold (fun _ g acc -> Allocation.node_ids g.r_alloc @ acc) r.grants []
  in
  if held = [] then composed
  else
    Tracer.span tr "monitor.restrict" (fun () ->
        Snapshot.restrict composed ~exclude:held)

let refresh tr r =
  let prev_composed = r.composed in
  r.vtime <- r.vtime +. r.config.virtual_tick_s;
  Tracer.span tr "engine.run_until" (fun () -> Sim.run_until r.sim r.vtime);
  Tracer.span tr "workload.advance" (fun () -> World.advance r.world ~now:r.vtime);
  r.snapshot <-
    Tracer.span tr "monitor.capture" (fun () -> System.snapshot r.monitor ~time:r.vtime);
  let composed =
    Tracer.span tr "monitor.overlay" (fun () -> Overlay.apply r.overlays r.snapshot)
  in
  r.composed <- composed;
  Tracer.span tr "core.derive" (fun () ->
      Model_cache.prime_derived composed ~prev:prev_composed ~weights:(weights r));
  r.decide <- restrict_held tr r composed

let recompose tr r ~touched =
  let prev = r.composed in
  let composed =
    Tracer.span tr "monitor.overlay" (fun () -> Overlay.apply r.overlays r.snapshot)
  in
  r.composed <- composed;
  if composed != prev then
    Tracer.span tr "core.derive" (fun () ->
        ignore
          (Model_cache.get_derived composed ~prev ~touched ~weights:(weights r)
            : Model_cache.t));
  r.decide <- restrict_held tr r composed

let unexpected what = Wire.Error { code = Wire.Bad_request; message = what }

(* A grow's merge or a shrink's cut, priced and applied like the daemon's
   finish_reconfig: moved ranks, redistribution delay, then the grant's
   overlay footprint re-shaped and the world recomposed. *)
let reshape tr r ~alloc_id ~cur surgery =
  match
    Tracer.span tr "malleable.reshape" (fun () ->
        Option.map
          (fun next ->
            ( next,
              Malleable.moved_procs ~from_:cur ~to_:next,
              Executor.redistribution_delay_s ~world:r.world ~from_alloc:cur
                ~to_alloc:next
                ~data_mb_per_proc:r.config.Server.reconfig_data_mb_per_proc
                ~overhead_s:r.config.reconfig_overhead_s () ))
          (surgery ()))
  with
  | None -> unexpected "reshape rejected"
  | Some (next, moved_procs, delay_s) ->
    let g = Hashtbl.find r.grants alloc_id in
    let load, traffic = footprint r.config next in
    Tracer.span tr "monitor.overlay" (fun () ->
        Overlay.set r.overlays g.handle ~load ~traffic);
    Hashtbl.replace r.grants alloc_id { g with r_alloc = next };
    recompose tr r
      ~touched:
        (List.sort_uniq compare (Allocation.node_ids cur @ Allocation.node_ids next));
    Wire.Reconfigured { alloc_id; allocation = next; moved_procs; delay_s }

let replica_handle tr r (request : Wire.request) =
  let base = r.config.Server.broker in
  let snapshot = r.decide in
  match request with
  | Wire.Allocate a -> (
    let config =
      {
        base with
        Broker.policy = Option.value a.Wire.policy ~default:base.Broker.policy;
        wait_threshold =
          (match a.Wire.wait_threshold with
          | Some _ as w -> w
          | None -> base.Broker.wait_threshold);
      }
    in
    let request = Request.make ?ppn:a.Wire.ppn ~alpha:a.Wire.alpha ~procs:a.Wire.procs () in
    match
      Tracer.span tr "core.decide" (fun () ->
          Broker.decide ~config ~snapshot ~request ~rng:r.rng)
    with
    | Ok (Broker.Allocated allocation) ->
      let alloc_id = r.next_id in
      r.next_id <- alloc_id + 1;
      let load, traffic = footprint r.config allocation in
      let handle =
        Tracer.span tr "monitor.overlay" (fun () -> Overlay.register r.overlays ~load ~traffic)
      in
      Hashtbl.replace r.grants alloc_id { r_alloc = allocation; handle };
      recompose tr r ~touched:(Allocation.node_ids allocation);
      Wire.Allocated { alloc_id; allocation; expires_s = None }
    | Ok (Broker.Wait _) -> unexpected "wait"
    | Error _ -> unexpected "allocation error")
  | Wire.Release { alloc_id } -> (
    match Hashtbl.find_opt r.grants alloc_id with
    | None -> unexpected "unknown grant"
    | Some g ->
      Hashtbl.remove r.grants alloc_id;
      Tracer.span tr "monitor.overlay" (fun () -> Overlay.remove r.overlays g.handle);
      recompose tr r ~touched:(Allocation.node_ids g.r_alloc);
      Wire.Released { alloc_id })
  | Wire.Grow g -> (
    match Hashtbl.find_opt r.grants g.Wire.alloc_id with
    | None -> unexpected "unknown grant"
    | Some { r_alloc = cur; _ } -> (
      let policy = Option.value g.Wire.grow_policy ~default:base.Broker.policy in
      let request =
        Request.make ?ppn:g.Wire.grow_ppn ~alpha:g.Wire.grow_alpha ~procs:g.Wire.delta_procs
          ()
      in
      let snapshot =
        Tracer.span tr "monitor.restrict" (fun () ->
            Snapshot.restrict snapshot ~exclude:(Allocation.node_ids cur))
      in
      match
        Tracer.span tr "core.decide" (fun () ->
            Policies.allocate ?starts:base.Broker.starts ~policy ~snapshot
              ~weights:base.Broker.weights ~request ~rng:r.rng ())
      with
      | Error _ -> unexpected "grow error"
      | Ok extra ->
        reshape tr r ~alloc_id:g.Wire.alloc_id ~cur (fun () ->
            Some (Malleable.merge ~base:cur ~extra))))
  | Wire.Shrink { alloc_id; delta_procs } -> (
    match Hashtbl.find_opt r.grants alloc_id with
    | None -> unexpected "unknown grant"
    | Some { r_alloc = cur; _ } ->
      reshape tr r ~alloc_id ~cur (fun () ->
          Malleable.shrink_to cur ~target_procs:(Allocation.total_procs cur - delta_procs)))
  | Wire.Status ->
    Wire.Status_info
      {
        daemon_version = Wire.version;
        uptime_s = 0.0;
        virtual_time = r.vtime;
        active_allocations = Hashtbl.length r.grants;
        queue_depth = 0;
        served = 0;
        batches = 0;
        batching = true;
        draining = false;
        cache_hits = Model_cache.hits ();
        cache_misses = Model_cache.misses ();
        overlay = true;
        active_leases = 0;
      }
  | _ -> unexpected "unsupported request"

(* One request through the replica in the daemon's order: decode, the
   tick's refresh (status is answered inline, without one), the
   decision and its overlay bookkeeping, encode. *)
let replica_serve tr r ~req_id request =
  let line = Wire.encode_request { Wire.req_id; request } in
  Tracer.span tr ~req:req_id "request" (fun () ->
      match Tracer.span tr "service.wire" (fun () -> Wire.decode_request line) with
      | Error e -> unexpected e.Wire.message
      | Ok { Wire.request; _ } ->
        if r.refresh && request <> Wire.Status then refresh tr r;
        let response = replica_handle tr r request in
        ignore
          (Tracer.span tr "service.wire" (fun () ->
               Wire.encode_response { Wire.resp_id = req_id; response })
            : string);
        response)

(* --- pricing: job_runtime_s and the quality check --------------------------- *)

(* A reference miniMD job (s = 32, the paper's default 100 steps) with
   the grant's rank count, priced against a replica of the daemon's
   world at its start time. *)
let price ~tr (spec : spec) (config : Server.config) ~seed grants =
  let world =
    World.create ~cluster:(cluster_of config.Server.nodes) ~scenario:config.scenario
      ~seed:config.seed
  in
  World.advance world ~now:config.start_time;
  let estimate allocation =
    let app =
      Rm_apps.Minimd.app ~config:(Rm_apps.Minimd.default_config ~s:32)
        ~ranks:(Allocation.total_procs allocation)
    in
    Tracer.span tr "mpisim.estimate" (fun () ->
        Executor.estimate_duration_s ~world ~allocation ~app ())
  in
  let rng = Rng.create (seed + 17) in
  let random_like (a : Allocation.t) =
    let k = Allocation.total_procs a / ppn in
    Allocation.make ~policy:"random"
      ~entries:
        (List.map
           (fun node -> { Allocation.node; procs = ppn })
           (Rng.sample_without_replacement rng ~k ~n:(node_count spec)))
  in
  let broker = List.map estimate grants in
  let random = List.map (fun a -> estimate (random_like a)) grants in
  (M.mean broker, M.mean random)

(* --- runs -------------------------------------------------------------------- *)

type round = {
  allocs : float list;  (** allocate round trips *)
  granted : int;
  wall : float;  (** the whole round's request stream *)
}

type phase = {
  mutable alloc_s : float list;
  mutable release_s : float list;
  mutable reshape_s : float list;
  mutable per_round : round list;  (** newest first *)
  mutable round1 : Allocation.t list;  (** round 1's grants, in order *)
  digest : M.digest;  (** round 1's decisions *)
}

let new_phase () =
  {
    alloc_s = [];
    release_s = [];
    reshape_s = [];
    per_round = [];
    round1 = [];
    digest = M.digest ();
  }

let rounds p = List.length p.per_round

(* One round through [exec], timing and checking every operation. *)
let run_round (spec : spec) ~checks ~phase ~exec ops =
  let ledger = ref [] in
  let first = phase.per_round = [] in
  let allocs = ref [] and granted = ref 0 in
  let t0 = M.now () in
  let step op request =
    let t0 = M.now () in
    let response = exec request in
    let dt = M.now () -. t0 in
    (match (op, response) with
    | Alloc _, Wire.Allocated { allocation; _ } ->
      incr granted;
      if first then phase.round1 <- allocation :: phase.round1
    | _ -> ());
    (match op with
    | Alloc _ -> allocs := dt :: !allocs
    | Release _ -> phase.release_s <- dt :: phase.release_s
    | Grow _ | Shrink _ -> phase.reshape_s <- dt :: phase.reshape_s
    | Status -> ());
    if first then digest_response phase.digest response;
    M.record checks ~what:spec.name
      (check_and_apply ~nodes:(node_count spec) ledger op response)
  in
  List.iter
    (fun op ->
      match request_of !ledger op with
      | Some request -> step op request
      | None ->
        M.record checks ~what:spec.name
          [ "no live grant at that place in the ledger (an earlier operation failed)" ])
    ops;
  phase.per_round <-
    { allocs = !allocs; granted = !granted; wall = M.now () -. t0 } :: phase.per_round;
  phase.alloc_s <- !allocs @ phase.alloc_s;
  if first then phase.round1 <- List.rev phase.round1

let socket_exec (d : daemon) request = send d.client request

let run_socket_rounds spec ~checks ~ops ~until d =
  Model_cache.clear ();
  let phase = new_phase () in
  let t0 = M.now () in
  while not (until phase (M.now () -. t0)) do
    run_round spec ~checks ~phase ~exec:(socket_exec d) ops
  done;
  phase

let quality_check checks ~broker ~random =
  M.record checks ~what:"placement quality"
    (if broker < random then []
     else
       [
         Printf.sprintf
           "broker grants price at %.3f s, not below random placements at %.3f s"
           broker random;
       ])

let untraced (spec : spec) ~entry ~seed ~seconds =
  let ops = round_ops spec ~seed in
  let checks = M.checks () in
  (* Several set-ups, the median reported; the last one serves. *)
  let rec set_up k acc =
    (* later set-ups start from a compacted heap, like the first *)
    if acc <> [] then Gc.compact ();
    let t0 = if acc = [] then entry else M.now () in
    let d = start_daemon spec in
    let acc = (M.now () -. t0) :: acc in
    if k = 1 then (d, acc)
    else begin
      stop_daemon d;
      set_up (k - 1) acc
    end
  in
  let d, setup_samples = set_up setups [] in
  let phase =
    run_socket_rounds spec ~checks ~ops d ~until:(fun p t ->
        t >= seconds && rounds p >= min_rounds)
  in
  stop_daemon d;
  let broker, random =
    price ~tr:(Tracer.create ()) spec d.config ~seed phase.round1
  in
  quality_check checks ~broker ~random;
  (* Per-round figures, then the median over rounds: a slow stretch of
     the host moves a few rounds, not the median. *)
  let over_rounds f = M.median (List.map f phase.per_round) in
  let per_round_allocs = List.length (List.hd phase.per_round).allocs in
  {
    M.checks;
    metrics =
      [
        M.metric "setup_s" "s" (M.median setup_samples);
        M.metric "op_p50_ms" "ms"
          (M.ms (over_rounds (fun r -> M.percentile (M.sorted r.allocs) 0.5)));
        M.metric "op_tail_ms" "ms"
          (M.ms (over_rounds (fun r -> M.percentile (M.sorted r.allocs) tail_p)));
        M.metric "ops_per_s" "1/s"
          (over_rounds (fun r -> float_of_int r.granted /. r.wall));
        M.metric "job_runtime_s" "s" broker;
        M.metric "peak_rss_mb" "MB" (M.peak_rss_mb ());
      ];
    info =
      [
        ("digest", Json.Str (M.hex phase.digest));
        ("rounds", Json.Num (float_of_int (rounds phase)));
        ("ops_per_round", Json.Num (float_of_int (List.length ops)));
        ("allocs_per_round", Json.Num (float_of_int per_round_allocs));
        ("tail_percentile", Json.Num tail_p);
        ("tail_beyond_per_round", Json.Num (float_of_int (M.beyond ~n:per_round_allocs tail_p)));
        ( "run_p99_ms",
          Json.Num (M.ms (M.percentile (M.sorted phase.alloc_s) 0.99)) );
        ("random_runtime_s", Json.Num random);
        ("setup_samples_s", Json.Arr (List.rev_map (fun x -> Json.Num x) setup_samples));
      ];
  }

let traced (spec : spec) ~seed ~seconds =
  let ops = round_ops spec ~seed in
  let checks = M.checks () in
  (* Reference: one round over the socket, untraced. *)
  let daemon_ms = ref 0.0 in
  let d = M.timed_ms daemon_ms (fun () -> start_daemon spec) in
  let sock = run_socket_rounds spec ~checks ~ops d ~until:(fun p _ -> rounds p >= 1) in
  stop_daemon d;
  (* Replay through the replica, one span per layer call. *)
  let tr = Tracer.create () in
  let world_ms = ref 0.0 and monitor_ms = ref 0.0 in
  let r =
    replica_create spec d.config ~on_world:(M.timed_ms world_ms)
      ~on_monitor:(M.timed_ms monitor_ms)
  in
  Model_cache.clear ();
  Metrics.reset ();
  Rm_telemetry.Runtime.enable ();
  let hits0 = Model_cache.hits () and misses0 = Model_cache.misses () in
  let req_id = ref 0 in
  let exec request =
    incr req_id;
    replica_serve tr r ~req_id:!req_id request
  in
  let replay = new_phase () in
  let t0 = M.now () in
  while rounds replay = 0 || M.now () -. t0 < seconds do
    run_round spec ~checks ~phase:replay ~exec ops
  done;
  let hits = Model_cache.hits () - hits0 and misses = Model_cache.misses () - misses0 in
  let counters =
    List.map
      (fun n -> (n, Layers.registry n))
      [
        "core.nl.delta_applied";
        "core.nl.delta_invalidated";
        "monitor.daemon.ticks";
        "monitor.store.pair_writes";
      ]
  in
  Rm_telemetry.Runtime.disable ();
  let broker, random = price ~tr spec d.config ~seed sock.round1 in
  quality_check checks ~broker ~random;
  let digest = M.hex sock.digest and replica_digest = M.hex replay.digest in
  if digest <> replica_digest then
    Printf.eprintf
      "perfbench: replica digest %s differs from the daemon's %s; per-layer figures are stale\n%!"
      replica_digest digest;
  M.ensure_dir M.out_dir;
  let trace_path = Printf.sprintf "%s/trace-%s-%d.json" M.out_dir spec.name seed in
  Tracer.write tr ~path:trace_path;
  let requests = List.filter (fun (s : Tracer.span) -> s.Tracer.name = "request") tr.Tracer.spans in
  let n = List.length ops in
  let is_alloc = Array.of_list (List.map (function Alloc _ -> true | _ -> false) ops) in
  let traced_alloc_p50_ms =
    M.ms
      (M.median
         (List.filter_map
            (fun (s : Tracer.span) ->
              if is_alloc.((s.Tracer.req - 1) mod n) then Some (s.stop -. s.start) else None)
            requests))
  in
  let metrics =
    Layers.complete
      (Layers.of_spans tr
      @ counters
      @ [
          ("service.release.p50_us", 1e6 *. M.median sock.release_s);
          ("service.reshape.p50_us", 1e6 *. M.median sock.reshape_s);
          ("core.model_cache.hits", float_of_int hits);
          ("core.model_cache.misses", float_of_int misses);
          ("setup.world.ms", !world_ms);
          ("setup.monitor.ms", !monitor_ms);
          ("setup.daemon.ms", !daemon_ms);
        ])
  in
  {
    M.checks;
    metrics;
    info =
      [
        ("digest", Json.Str digest);
        ("replica_digest", Json.Str replica_digest);
        ("per_layer_stale", Json.Bool (digest <> replica_digest));
        ("replay_rounds", Json.Num (float_of_int (rounds replay)));
        ("socket_alloc_p50_ms", Json.Num (M.ms (M.median sock.alloc_s)));
        ("traced_alloc_p50_ms", Json.Num traced_alloc_p50_ms);
        ("job_runtime_s", Json.Num broker);
        ("random_runtime_s", Json.Num random);
        ("trace_file", Json.Str trace_path);
        ( "self_time_shares",
          Json.Obj (List.map (fun (n, s) -> (n, Json.Num s)) (Tracer.shares tr)) );
      ];
  }
