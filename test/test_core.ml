(* Tests for rm_core: SAW pipeline, Eq. 1-4, Algorithms 1-2, the four
   policies, brute-force comparison, broker. Fixtures hand-build
   snapshots so every quantity is exact. *)

module Rng = Rm_stats.Rng
module Matrix = Rm_stats.Matrix
module Running_means = Rm_stats.Running_means
module Node = Rm_cluster.Node
module Topology = Rm_cluster.Topology
module Cluster = Rm_cluster.Cluster
module Snapshot = Rm_monitor.Snapshot
module Saw = Rm_core.Saw
module Weights = Rm_core.Weights
module Request = Rm_core.Request
module Allocation = Rm_core.Allocation
module Compute_load = Rm_core.Compute_load
module Network_load = Rm_core.Network_load
module Effective_procs = Rm_core.Effective_procs
module Candidate = Rm_core.Candidate
module Select = Rm_core.Select
module Policies = Rm_core.Policies
module Brute_force = Rm_core.Brute_force
module Broker = Rm_core.Broker
module Dense_alloc = Rm_core.Dense_alloc
module Model_cache = Rm_core.Model_cache
module Nl_delta = Rm_core.Nl_delta

let check_float = Alcotest.(check (float 1e-9))
let flat v : Running_means.view = { instant = v; m1 = v; m5 = v; m15 = v }

(* A fixture: [specs] is a list of per-node (cores, load); all on one
   switch unless [switches] given; uniform bandwidth/latency unless
   overridden afterwards. *)
let fixture ?(switches = [||]) ?(bw = 118.0) ?(lat = 70.0) specs : Snapshot.t =
  let n = List.length specs in
  let switch_of i = if Array.length switches = 0 then 0 else switches.(i) in
  let nswitches =
    if Array.length switches = 0 then 1
    else 1 + Array.fold_left max 0 switches
  in
  let node_switch = Array.init n switch_of in
  let topology = Topology.create ~node_switch ~switches:nswitches () in
  let nodes =
    List.mapi
      (fun i (cores, _load) ->
        Node.make ~id:i
          ~hostname:(Printf.sprintf "n%d" i)
          ~cores ~freq_ghz:3.0 ~mem_gb:16.0 ~switch:(switch_of i))
      specs
  in
  let cluster = Cluster.make ~nodes ~topology in
  let infos =
    Array.of_list
      (List.mapi
         (fun i (_, load) ->
           Some
             {
               Snapshot.static = Cluster.node cluster i;
               users = 1;
               load = flat load;
               util_pct = flat 20.0;
               nic_mb_s = flat 1.0;
               mem_avail_gb = flat 12.0;
               written_at = 0.0;
             })
         specs)
  in
  let mk init diagonal =
    let m = Matrix.square n ~init in
    for i = 0 to n - 1 do
      Matrix.set m i i diagonal
    done;
    m
  in
  let bw_m = mk bw infinity in
  let lat_m = mk lat 0.0 in
  let peak = mk 118.0 infinity in
  {
    Snapshot.time = 0.0;
    cluster;
    live = List.init n (fun i -> i);
    nodes = infos;
    bw_mb_s = bw_m;
    peak_bw_mb_s = peak;
    lat_us = lat_m;
  }

let weights = Weights.paper_default

(* --- Saw --------------------------------------------------------------- *)

let test_saw_normalize_sums_to_one () =
  let out = Saw.normalize [| 1.0; 2.0; 3.0 |] in
  check_float "sum 1" 1.0 (Array.fold_left ( +. ) 0.0 out);
  check_float "proportional" (1.0 /. 6.0) out.(0)

let test_saw_normalize_zero_column () =
  let out = Saw.normalize [| 0.0; 0.0 |] in
  Alcotest.(check (array (float 1e-9))) "all zeros" [| 0.0; 0.0 |] out

let test_saw_normalize_tiny_negative_ok () =
  let out = Saw.normalize [| 1e-16 *. -1.0; 1.0 |] in
  check_float "clamped" 0.0 out.(0)

let test_saw_normalize_rejects_negative () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Saw.normalize [| -1.0; 1.0 |]);
       false
     with Invalid_argument _ -> true)

let test_saw_directionalize () =
  let out = Saw.directionalize Saw.Maximize [| 1.0; 3.0; 2.0 |] in
  Alcotest.(check (array (float 1e-9))) "max - x" [| 2.0; 0.0; 1.0 |] out;
  let id = Saw.directionalize Saw.Minimize [| 1.0; 2.0 |] in
  Alcotest.(check (array (float 1e-9))) "identity" [| 1.0; 2.0 |] id

let test_saw_combine () =
  let out = Saw.combine [ (0.5, [| 1.0; 2.0 |]); (2.0, [| 3.0; 1.0 |]) ] in
  Alcotest.(check (array (float 1e-9))) "weighted sum" [| 6.5; 3.0 |] out

let test_saw_combine_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Saw.combine: ragged columns")
    (fun () -> ignore (Saw.combine [ (1.0, [| 1.0 |]); (1.0, [| 1.0; 2.0 |]) ]))

let test_saw_constant_column_neutral () =
  (* A constant column contributes equally, so rankings are unaffected. *)
  let base = Saw.combine [ (1.0, Saw.prepare Saw.Minimize [| 1.0; 2.0; 4.0 |]) ] in
  let with_const =
    Saw.combine
      [
        (1.0, Saw.prepare Saw.Minimize [| 1.0; 2.0; 4.0 |]);
        (1.0, Saw.prepare Saw.Minimize [| 5.0; 5.0; 5.0 |]);
      ]
  in
  let rank a = List.sort (fun i j -> Float.compare a.(i) a.(j)) [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "same ranking" (rank base) (rank with_const)

(* --- Weights / Request / Allocation ------------------------------------- *)

let test_weights_paper_sum () =
  check_float "attribute weights sum to 1" 1.0 (Weights.attribute_weight_sum weights);
  check_float "net weights" 1.0 (weights.Weights.w_lt +. weights.Weights.w_bw)

let test_weights_validate () =
  Weights.validate weights;
  Alcotest.(check bool) "negative rejected" true
    (try
       Weights.validate { weights with Weights.w_load = -0.1 };
       false
     with Invalid_argument _ -> true)

let test_request_defaults () =
  let r = Request.make ~procs:16 () in
  check_float "alpha" 0.5 r.Request.alpha;
  check_float "beta" 0.5 r.Request.beta;
  Alcotest.(check int) "capacity uses effective" 7
    (Request.capacity_of r ~effective:7)

let test_request_ppn_override () =
  let r = Request.make ~ppn:4 ~alpha:0.3 ~procs:16 () in
  Alcotest.(check int) "ppn wins" 4 (Request.capacity_of r ~effective:7);
  check_float "beta" 0.7 r.Request.beta

let test_request_validation () =
  Alcotest.(check bool) "procs > 0" true
    (try ignore (Request.make ~procs:0 ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "alpha range" true
    (try ignore (Request.make ~alpha:1.5 ~procs:1 ()); false
     with Invalid_argument _ -> true)

let test_allocation_accessors () =
  let a =
    Allocation.make ~policy:"x"
      ~entries:[ { Allocation.node = 3; procs = 4 }; { Allocation.node = 1; procs = 2 } ]
  in
  Alcotest.(check int) "total" 6 (Allocation.total_procs a);
  Alcotest.(check (list int)) "nodes" [ 3; 1 ] (Allocation.node_ids a);
  Alcotest.(check int) "procs_on" 4 (Allocation.procs_on a ~node:3);
  Alcotest.(check int) "procs_on absent" 0 (Allocation.procs_on a ~node:9)

let test_allocation_validation () =
  Alcotest.(check bool) "duplicate node" true
    (try
       ignore
         (Allocation.make ~policy:"x"
            ~entries:
              [ { Allocation.node = 1; procs = 1 }; { Allocation.node = 1; procs = 1 } ]);
       false
     with Invalid_argument _ -> true)

(* --- Compute_load (Eq. 1) ------------------------------------------------- *)

let test_compute_load_orders_by_load () =
  let snap = fixture [ (8, 0.2); (8, 5.0); (8, 1.0) ] in
  let cl = Compute_load.of_snapshot snap ~weights in
  let g n = Compute_load.get cl ~node:n in
  Alcotest.(check bool) "loaded node costs more" true (g 1 > g 2 && g 2 > g 0)

let test_compute_load_prefers_big_nodes () =
  (* Equal dynamics; only static attributes differ. *)
  let snap = fixture [ (12, 1.0); (8, 1.0) ] in
  let cl = Compute_load.of_snapshot snap ~weights in
  Alcotest.(check bool) "more cores = lower cost" true
    (Compute_load.get cl ~node:0 < Compute_load.get cl ~node:1)

let test_compute_load_total () =
  let snap = fixture [ (8, 1.0); (8, 1.0) ] in
  let cl = Compute_load.of_snapshot snap ~weights in
  check_float "total = sum" 
    (Compute_load.get cl ~node:0 +. Compute_load.get cl ~node:1)
    (Compute_load.total cl ~nodes:[ 0; 1 ])

let test_compute_load_unusable_rejected () =
  let snap = fixture [ (8, 1.0); (8, 1.0) ] in
  let snap = { snap with Snapshot.live = [ 0 ] } in
  let cl = Compute_load.of_snapshot snap ~weights in
  Alcotest.(check (list int)) "only live usable" [ 0 ] (Compute_load.usable cl);
  Alcotest.(check bool) "get on unusable raises" true
    (try ignore (Compute_load.get cl ~node:1); false
     with Invalid_argument _ -> true)

let test_compute_load_cpu_load_1m () =
  let snap = fixture [ (8, 2.5) ] in
  let cl = Compute_load.of_snapshot snap ~weights in
  check_float "raw 1m load" 2.5 (Compute_load.cpu_load_1m cl ~node:0)

(* --- Network_load (Eq. 2) -------------------------------------------------- *)

let test_network_load_zero_when_uniform_full_bw () =
  (* Full bandwidth everywhere: complement = 0; latency uniform: NL equal. *)
  let snap = fixture [ (8, 1.0); (8, 1.0); (8, 1.0) ] in
  let nl = Network_load.of_snapshot snap ~weights in
  let v01 = Network_load.get nl ~u:0 ~v:1 in
  let v02 = Network_load.get nl ~u:0 ~v:2 in
  check_float "uniform" v01 v02;
  check_float "self zero" 0.0 (Network_load.get nl ~u:1 ~v:1)

let test_network_load_prefers_good_links () =
  let snap = fixture [ (8, 1.0); (8, 1.0); (8, 1.0) ] in
  (* Pair (0,1) congested: low available bandwidth, high latency. *)
  Matrix.set snap.Snapshot.bw_mb_s 0 1 10.0;
  Matrix.set snap.Snapshot.bw_mb_s 1 0 10.0;
  Matrix.set snap.Snapshot.lat_us 0 1 500.0;
  Matrix.set snap.Snapshot.lat_us 1 0 500.0;
  let nl = Network_load.of_snapshot snap ~weights in
  Alcotest.(check bool) "congested pair costs more" true
    (Network_load.get nl ~u:0 ~v:1 > Network_load.get nl ~u:0 ~v:2);
  check_float "raw complement" 108.0 (Network_load.bw_complement_mb_s nl ~u:0 ~v:1);
  check_float "raw latency" 500.0 (Network_load.latency_us nl ~u:0 ~v:1)

let test_network_load_symmetry () =
  let snap = fixture [ (8, 1.0); (8, 1.0); (8, 1.0) ] in
  Matrix.set snap.Snapshot.bw_mb_s 0 2 50.0;
  Matrix.set snap.Snapshot.bw_mb_s 2 0 50.0;
  let nl = Network_load.of_snapshot snap ~weights in
  check_float "symmetric" (Network_load.get nl ~u:0 ~v:2) (Network_load.get nl ~u:2 ~v:0)

let test_network_load_edges_totals () =
  let snap = fixture [ (8, 1.0); (8, 1.0); (8, 1.0) ] in
  Matrix.set snap.Snapshot.bw_mb_s 0 1 10.0;
  Matrix.set snap.Snapshot.bw_mb_s 1 0 10.0;
  let nl = Network_load.of_snapshot snap ~weights in
  let total = Network_load.total_edges nl ~nodes:[ 0; 1; 2 ] in
  let expect =
    Network_load.get nl ~u:0 ~v:1 +. Network_load.get nl ~u:0 ~v:2
    +. Network_load.get nl ~u:1 ~v:2
  in
  check_float "sum over pairs" expect total;
  check_float "mean over pairs" (expect /. 3.0)
    (Network_load.mean_edges nl ~nodes:[ 0; 1; 2 ]);
  check_float "singleton mean" 0.0 (Network_load.mean_edges nl ~nodes:[ 2 ])

(* --- Effective_procs (Eq. 3) ------------------------------------------------ *)

let test_eq3_idle () = Alcotest.(check int) "idle" 12 (Effective_procs.of_load ~cores:12 ~load:0.0)

let test_eq3_partial () =
  Alcotest.(check int) "load 2.3 -> 12-3" 9
    (Effective_procs.of_load ~cores:12 ~load:2.3);
  Alcotest.(check int) "load 5 -> 7" 7 (Effective_procs.of_load ~cores:12 ~load:5.0)

let test_eq3_modulo_wrap () =
  (* The paper's formula wraps: load 14 on 12 cores -> 12 - (14 mod 12). *)
  Alcotest.(check int) "wrap" 10 (Effective_procs.of_load ~cores:12 ~load:14.0);
  Alcotest.(check int) "exact multiple gives full" 12
    (Effective_procs.of_load ~cores:12 ~load:12.0)

let test_eq3_bounds () =
  for load10 = 0 to 300 do
    let pc = Effective_procs.of_load ~cores:8 ~load:(float_of_int load10 /. 10.0) in
    Alcotest.(check bool) "in [1, cores]" true (pc >= 1 && pc <= 8)
  done

let test_eq3_of_snapshot () =
  let snap = fixture [ (12, 2.3); (8, 0.0) ] in
  let cl = Compute_load.of_snapshot snap ~weights in
  let pc = Effective_procs.of_snapshot snap ~loads:cl in
  Alcotest.(check (list (pair int int)))
    "per node" [ (0, 9); (1, 8) ]
    (Effective_procs.to_list pc);
  Alcotest.(check int) "O(1) lookup" 9 (Effective_procs.get pc ~node:0);
  Alcotest.(check int) "absent defaults to 1" 1 (Effective_procs.get pc ~node:42)

(* --- Candidate (Algorithm 1) ------------------------------------------------- *)

let capacity_of snap request =
  let cl = Compute_load.of_snapshot snap ~weights in
  let pc = Effective_procs.of_snapshot snap ~loads:cl in
  fun node ->
    Request.capacity_of request ~effective:(Effective_procs.get pc ~node)

let test_candidate_starts_with_start () =
  let snap = fixture [ (8, 0.1); (8, 3.0); (8, 0.2); (8, 0.3) ] in
  let cl = Compute_load.of_snapshot snap ~weights in
  let nl = Network_load.of_snapshot snap ~weights in
  let request = Request.make ~ppn:4 ~procs:8 () in
  let c =
    Candidate.generate ~start:1 ~loads:cl ~net:nl
      ~capacity:(capacity_of snap request) ~request
  in
  Alcotest.(check int) "start first" 1 (List.hd c.Candidate.nodes);
  Alcotest.(check int) "covers request" 8 (Candidate.total_procs c)

let test_candidate_greedy_prefers_low_cost () =
  (* Start at 0; node 2 is quiet, node 1 heavily loaded: 2 joins first. *)
  let snap = fixture [ (8, 0.1); (8, 6.0); (8, 0.1) ] in
  let cl = Compute_load.of_snapshot snap ~weights in
  let nl = Network_load.of_snapshot snap ~weights in
  let request = Request.make ~ppn:4 ~procs:8 () in
  let c =
    Candidate.generate ~start:0 ~loads:cl ~net:nl
      ~capacity:(capacity_of snap request) ~request
  in
  Alcotest.(check (list int)) "0 then 2" [ 0; 2 ] c.Candidate.nodes

let test_candidate_network_steers_selection () =
  (* All equal load; pair (0,1) has poor bandwidth, (0,2) good: starting
     from 0, node 2 must join before node 1. *)
  let snap = fixture [ (8, 1.0); (8, 1.0); (8, 1.0) ] in
  Matrix.set snap.Snapshot.bw_mb_s 0 1 5.0;
  Matrix.set snap.Snapshot.bw_mb_s 1 0 5.0;
  let cl = Compute_load.of_snapshot snap ~weights in
  let nl = Network_load.of_snapshot snap ~weights in
  let request = Request.make ~ppn:4 ~alpha:0.3 ~procs:8 () in
  let c =
    Candidate.generate ~start:0 ~loads:cl ~net:nl
      ~capacity:(capacity_of snap request) ~request
  in
  Alcotest.(check (list int)) "avoids bad link" [ 0; 2 ] c.Candidate.nodes

let test_candidate_round_robin_overflow () =
  (* 2 nodes x 4 ppn = 8 capacity, but 11 processes requested: the 3
     extra are dealt round-robin. *)
  let snap = fixture [ (8, 0.0); (8, 0.0) ] in
  let cl = Compute_load.of_snapshot snap ~weights in
  let nl = Network_load.of_snapshot snap ~weights in
  let request = Request.make ~ppn:4 ~procs:11 () in
  let c =
    Candidate.generate ~start:0 ~loads:cl ~net:nl
      ~capacity:(capacity_of snap request) ~request
  in
  Alcotest.(check int) "total procs" 11 (Candidate.total_procs c);
  let procs = List.map snd c.Candidate.assignment in
  Alcotest.(check (list int)) "round robin 6,5" [ 6; 5 ] procs

let test_candidate_addition_cost () =
  let snap = fixture [ (8, 0.0); (8, 4.0) ] in
  let cl = Compute_load.of_snapshot snap ~weights in
  let nl = Network_load.of_snapshot snap ~weights in
  let request = Request.make ~alpha:1.0 ~procs:2 () in
  check_float "A_v(v) = 0" 0.0
    (Candidate.addition_cost ~loads:cl ~net:nl ~request ~start:0 0);
  check_float "alpha=1: pure CL" (Compute_load.get cl ~node:1)
    (Candidate.addition_cost ~loads:cl ~net:nl ~request ~start:0 1)

let test_candidate_all_count () =
  let snap = fixture [ (8, 0.0); (8, 0.0); (8, 0.0); (8, 0.0) ] in
  let cl = Compute_load.of_snapshot snap ~weights in
  let nl = Network_load.of_snapshot snap ~weights in
  let request = Request.make ~ppn:2 ~procs:4 () in
  let cs =
    Candidate.generate_all ~loads:cl ~net:nl
      ~capacity:(capacity_of snap request) ~request
  in
  Alcotest.(check int) "|V| candidates" 4 (List.length cs);
  List.iter
    (fun (c : Candidate.t) ->
      Alcotest.(check int) "each covers" 4 (Candidate.total_procs c))
    cs

(* --- Select (Algorithm 2, Eq. 4) ---------------------------------------------- *)

let test_select_minimizes_total () =
  (* Two switches; switch 1's pair links are degraded. Starting nodes on
     switch 0 give candidates confined there -> lower network cost. *)
  let snap =
    fixture ~switches:[| 0; 0; 1; 1 |]
      [ (8, 1.0); (8, 1.0); (8, 1.0); (8, 1.0) ]
  in
  (* Degrade everything touching switch 1. *)
  List.iter
    (fun (i, j) ->
      Matrix.set snap.Snapshot.bw_mb_s i j 10.0;
      Matrix.set snap.Snapshot.bw_mb_s j i 10.0)
    [ (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ];
  let cl = Compute_load.of_snapshot snap ~weights in
  let nl = Network_load.of_snapshot snap ~weights in
  let request = Request.make ~ppn:4 ~alpha:0.3 ~procs:8 () in
  let candidates =
    Candidate.generate_all ~loads:cl ~net:nl
      ~capacity:(capacity_of snap request) ~request
  in
  let best = Select.best ~candidates ~loads:cl ~net:nl ~request in
  Alcotest.(check (list int)) "confined to switch 0" [ 0; 1 ]
    (List.sort compare best.Select.candidate.Candidate.nodes)

let test_select_scores_all () =
  let snap = fixture [ (8, 0.0); (8, 1.0); (8, 2.0) ] in
  let cl = Compute_load.of_snapshot snap ~weights in
  let nl = Network_load.of_snapshot snap ~weights in
  let request = Request.make ~ppn:4 ~procs:8 () in
  let candidates =
    Candidate.generate_all ~loads:cl ~net:nl
      ~capacity:(capacity_of snap request) ~request
  in
  let scored = Select.score ~candidates ~loads:cl ~net:nl ~request in
  Alcotest.(check int) "same count" (List.length candidates) (List.length scored);
  let best = Select.best ~candidates ~loads:cl ~net:nl ~request in
  List.iter
    (fun s ->
      Alcotest.(check bool) "best is minimal" true
        (best.Select.total <= s.Select.total +. 1e-12))
    scored

let test_select_alpha_one_is_load_only () =
  (* With alpha=1 the winner must contain the lowest-CL nodes. *)
  let snap = fixture [ (8, 5.0); (8, 0.1); (8, 0.2); (8, 6.0) ] in
  let cl = Compute_load.of_snapshot snap ~weights in
  let nl = Network_load.of_snapshot snap ~weights in
  let request = Request.make ~ppn:4 ~alpha:1.0 ~procs:8 () in
  let candidates =
    Candidate.generate_all ~loads:cl ~net:nl
      ~capacity:(capacity_of snap request) ~request
  in
  let best = Select.best ~candidates ~loads:cl ~net:nl ~request in
  Alcotest.(check (list int)) "two quiet nodes" [ 1; 2 ]
    (List.sort compare best.Select.candidate.Candidate.nodes)

(* --- Policies ------------------------------------------------------------------ *)

let busy_snapshot () =
  let snap =
    fixture ~switches:[| 0; 0; 0; 1; 1; 1 |]
      [ (8, 0.1); (8, 4.0); (8, 0.2); (8, 0.1); (8, 5.0); (8, 0.3) ]
  in
  snap

let test_policies_satisfy_request () =
  let snap = busy_snapshot () in
  let request = Request.make ~ppn:4 ~procs:8 () in
  let rng = Rng.create 1 in
  List.iter
    (fun policy ->
      match Policies.allocate ~policy ~snapshot:snap ~weights ~request ~rng () with
      | Ok a ->
        Alcotest.(check int)
          (Policies.name policy ^ " total")
          8 (Allocation.total_procs a);
        Alcotest.(check string) "policy label" (Policies.name policy)
          a.Allocation.policy
      | Error _ -> Alcotest.fail "allocation failed")
    Policies.all

let test_policy_load_aware_picks_quiet () =
  let snap = busy_snapshot () in
  let request = Request.make ~ppn:4 ~procs:8 () in
  let rng = Rng.create 1 in
  match
    Policies.allocate ~policy:Policies.Load_aware ~snapshot:snap ~weights
      ~request ~rng ()
  with
  | Ok a ->
    let nodes = List.sort compare (Allocation.node_ids a) in
    Alcotest.(check bool) "avoids loaded nodes 1 and 4" true
      ((not (List.mem 1 nodes)) && not (List.mem 4 nodes))
  | Error _ -> Alcotest.fail "allocation failed"

let test_policy_sequential_consecutive () =
  let snap = busy_snapshot () in
  let request = Request.make ~ppn:4 ~procs:8 () in
  let rng = Rng.create 42 in
  match
    Policies.allocate ~policy:Policies.Sequential ~snapshot:snap ~weights
      ~request ~rng ()
  with
  | Ok a ->
    (match Allocation.node_ids a with
    | [ a1; a2 ] ->
      Alcotest.(check bool) "consecutive (mod n)" true
        (a2 = (a1 + 1) mod 6)
    | _ -> Alcotest.fail "expected two nodes")
  | Error _ -> Alcotest.fail "allocation failed"

let test_policy_random_uses_rng () =
  let snap = busy_snapshot () in
  let request = Request.make ~ppn:4 ~procs:8 () in
  let collect seed =
    let rng = Rng.create seed in
    match
      Policies.allocate ~policy:Policies.Random ~snapshot:snap ~weights ~request ~rng ()
    with
    | Ok a -> Allocation.node_ids a
    | Error _ -> []
  in
  let distinct =
    List.sort_uniq compare (List.init 20 (fun s -> collect s))
  in
  Alcotest.(check bool) "different draws differ" true (List.length distinct > 1)

let test_policy_network_aware_deterministic () =
  let snap = busy_snapshot () in
  let request = Request.make ~ppn:4 ~alpha:0.3 ~procs:8 () in
  let run seed =
    match
      Policies.allocate ~policy:Policies.Network_load_aware ~snapshot:snap
        ~weights ~request ~rng:(Rng.create seed) ()
    with
    | Ok a -> Allocation.node_ids a
    | Error _ -> []
  in
  Alcotest.(check (list int)) "rng-independent" (run 1) (run 999)

let test_policy_no_usable_nodes () =
  let snap = busy_snapshot () in
  let snap = { snap with Snapshot.live = [] } in
  let request = Request.make ~procs:4 () in
  match
    Policies.allocate ~policy:Policies.Random ~snapshot:snap ~weights ~request
      ~rng:(Rng.create 1) ()
  with
  | Error Allocation.No_usable_nodes -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected No_usable_nodes"

let test_policy_oversubscribes_when_needed () =
  let snap = fixture [ (8, 0.0); (8, 0.0) ] in
  let request = Request.make ~ppn:4 ~procs:20 () in
  List.iter
    (fun policy ->
      match
        Policies.allocate ~policy ~snapshot:snap ~weights ~request
          ~rng:(Rng.create 3) ()
      with
      | Ok a ->
        Alcotest.(check int) (Policies.name policy) 20 (Allocation.total_procs a)
      | Error _ -> Alcotest.fail "should oversubscribe")
    Policies.all

let test_policy_hierarchical_via_policies () =
  let snap = busy_snapshot () in
  let request = Request.make ~ppn:4 ~procs:8 () in
  match
    Policies.allocate ~policy:Policies.Hierarchical ~snapshot:snap ~weights
      ~request ~rng:(Rng.create 1) ()
  with
  | Ok a ->
    Alcotest.(check int) "covers" 8 (Allocation.total_procs a);
    Alcotest.(check string) "label" "hierarchical" a.Allocation.policy
  | Error _ -> Alcotest.fail "hierarchical policy failed"

let test_policy_names_roundtrip () =
  List.iter
    (fun p ->
      match Policies.of_name (Policies.name p) with
      | Some p' -> Alcotest.(check bool) "roundtrip" true (p = p')
      | None -> Alcotest.fail "name not found")
    Policies.all;
  Alcotest.(check bool) "unknown" true (Policies.of_name "bogus" = None);
  Alcotest.(check bool) "hierarchical resolvable" true
    (Policies.of_name "hierarchical" = Some Policies.Hierarchical);
  Alcotest.(check bool) "not in the paper's four" false
    (List.mem Policies.Hierarchical Policies.all)

(* --- Brute force ------------------------------------------------------------------ *)

let test_brute_force_matches_exhaustive_small () =
  let snap = fixture [ (8, 3.0); (8, 0.1); (8, 0.2); (8, 4.0) ] in
  let cl = Compute_load.of_snapshot snap ~weights in
  let nl = Network_load.of_snapshot snap ~weights in
  let request = Request.make ~ppn:4 ~alpha:1.0 ~procs:8 () in
  match
    Brute_force.best_subset ~loads:cl ~net:nl
      ~capacity:(capacity_of snap request) ~request ~max_nodes:4
  with
  | Some (nodes, score) ->
    Alcotest.(check (list int)) "quietest pair optimal" [ 1; 2 ]
      (List.sort compare nodes);
    check_float "objective consistent" score
      (Brute_force.objective ~loads:cl ~net:nl ~request ~nodes)
  | None -> Alcotest.fail "no subset found"

let test_greedy_never_better_than_brute_force () =
  (* Sanity: brute force is a lower bound on the greedy objective. *)
  for seed = 0 to 9 do
    let loads = List.init 5 (fun i -> (8, float_of_int ((seed + i) mod 5))) in
    let snap = fixture loads in
    let cl = Compute_load.of_snapshot snap ~weights in
    let nl = Network_load.of_snapshot snap ~weights in
    let request = Request.make ~ppn:4 ~alpha:0.5 ~procs:10 () in
    let capacity = capacity_of snap request in
    let candidates = Candidate.generate_all ~loads:cl ~net:nl ~capacity ~request in
    let greedy = Select.best ~candidates ~loads:cl ~net:nl ~request in
    let greedy_obj =
      Brute_force.objective ~loads:cl ~net:nl ~request
        ~nodes:greedy.Select.candidate.Candidate.nodes
    in
    match Brute_force.best_subset ~loads:cl ~net:nl ~capacity ~request ~max_nodes:5 with
    | Some (_, opt) ->
      Alcotest.(check bool) "greedy >= optimal" true (greedy_obj >= opt -. 1e-12)
    | None -> Alcotest.fail "brute force found nothing"
  done

let test_brute_force_guard () =
  let specs = List.init 21 (fun _ -> (8, 0.0)) in
  let snap = fixture specs in
  let cl = Compute_load.of_snapshot snap ~weights in
  let nl = Network_load.of_snapshot snap ~weights in
  let request = Request.make ~procs:4 () in
  Alcotest.check_raises "guard"
    (Invalid_argument "Brute_force.best_subset: too many nodes") (fun () ->
      ignore
        (Brute_force.best_subset ~loads:cl ~net:nl
           ~capacity:(fun _ -> 4)
           ~request ~max_nodes:21))

(* --- Broker ----------------------------------------------------------------------- *)

let test_broker_allocates_by_default () =
  let snap = busy_snapshot () in
  let request = Request.make ~ppn:4 ~procs:8 () in
  match
    Broker.decide ~config:Broker.default_config ~snapshot:snap ~request
      ~rng:(Rng.create 1)
  with
  | Ok (Broker.Allocated a) ->
    Alcotest.(check int) "total" 8 (Allocation.total_procs a)
  | Ok (Broker.Wait _) -> Alcotest.fail "should not wait by default"
  | Error _ -> Alcotest.fail "error"

let test_broker_recommends_waiting () =
  let snap = fixture [ (8, 30.0); (8, 28.0) ] in
  let config = { Broker.default_config with Broker.wait_threshold = Some 0.9 } in
  let request = Request.make ~ppn:4 ~procs:8 () in
  match Broker.decide ~config ~snapshot:snap ~request ~rng:(Rng.create 1) with
  | Ok (Broker.Wait { mean_load_per_core; threshold }) ->
    check_float "threshold echoed" 0.9 threshold;
    Alcotest.(check bool) "load reported" true (mean_load_per_core > 3.0)
  | Ok (Broker.Allocated _) -> Alcotest.fail "should wait"
  | Error _ -> Alcotest.fail "error"

let test_broker_threshold_not_exceeded () =
  let snap = fixture [ (8, 0.1); (8, 0.2) ] in
  let config = { Broker.default_config with Broker.wait_threshold = Some 0.9 } in
  let request = Request.make ~ppn:4 ~procs:8 () in
  match Broker.decide ~config ~snapshot:snap ~request ~rng:(Rng.create 1) with
  | Ok (Broker.Allocated _) -> ()
  | Ok (Broker.Wait _) -> Alcotest.fail "quiet cluster should allocate"
  | Error _ -> Alcotest.fail "error"

let test_broker_mean_load_per_core () =
  let snap = fixture [ (8, 4.0); (8, 0.0) ] in
  check_float "mean load/core" (4.0 /. 16.0)
    (Broker.mean_load_per_core snap ~weights)

(* [age] some node records, leaving the rest freshly written. *)
let aged_snapshot ~now ~stale specs =
  let snap = { (fixture specs) with Snapshot.time = now } in
  Array.iteri
    (fun i info ->
      match info with
      | Some info ->
        let written_at = if List.mem i stale then 0.0 else now in
        snap.Snapshot.nodes.(i) <- Some { info with Snapshot.written_at }
      | None -> ())
    snap.Snapshot.nodes;
  snap

let test_broker_excludes_stale_records () =
  (* Nodes 0 and 1 are idle but their records are 1000 s old; 2 and 3
     are loaded but fresh. With the gate on, the allocation must land on
     the fresh pair despite the worse scores. *)
  let snap =
    aged_snapshot ~now:1000.0 ~stale:[ 0; 1 ]
      [ (8, 0.0); (8, 0.0); (8, 4.0); (8, 4.0) ]
  in
  let request = Request.make ~ppn:4 ~procs:8 () in
  let config = { Broker.default_config with Broker.max_staleness_s = 120.0 } in
  (match Broker.decide ~config ~snapshot:snap ~request ~rng:(Rng.create 1) with
  | Ok (Broker.Allocated a) ->
    List.iter
      (fun (e : Allocation.entry) ->
        Alcotest.(check bool)
          (Printf.sprintf "node %d is fresh" e.Allocation.node)
          true
          (e.Allocation.node >= 2))
      a.Allocation.entries
  | Ok (Broker.Wait _) -> Alcotest.fail "should allocate"
  | Error _ -> Alcotest.fail "fresh nodes should suffice");
  (* Default config (infinite staleness budget): the idle stale pair
     wins, proving the gate is what shrank the eligible set. *)
  match
    Broker.decide ~config:Broker.default_config ~snapshot:snap ~request
      ~rng:(Rng.create 1)
  with
  | Ok (Broker.Allocated a) ->
    Alcotest.(check bool) "stale-but-idle nodes used without the gate" true
      (List.exists (fun (e : Allocation.entry) -> e.Allocation.node <= 1)
         a.Allocation.entries)
  | _ -> Alcotest.fail "ungated decision failed"

let test_broker_all_stale_is_an_error () =
  let snap =
    aged_snapshot ~now:1000.0 ~stale:[ 0; 1; 2; 3 ]
      [ (8, 0.0); (8, 0.0); (8, 0.0); (8, 0.0) ]
  in
  let config = { Broker.default_config with Broker.max_staleness_s = 60.0 } in
  let request = Request.make ~ppn:4 ~procs:8 () in
  match Broker.decide ~config ~snapshot:snap ~request ~rng:(Rng.create 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "every record is stale; nothing is eligible"

let test_broker_stale_exclusions_audited () =
  Rm_telemetry.Runtime.enable ();
  Rm_telemetry.Audit.clear ();
  let snap =
    aged_snapshot ~now:1000.0 ~stale:[ 1 ]
      [ (8, 0.0); (8, 0.0); (8, 0.0); (8, 0.0) ]
  in
  let config = { Broker.default_config with Broker.max_staleness_s = 120.0 } in
  let request = Request.make ~ppn:4 ~procs:8 () in
  (match Broker.decide ~config ~snapshot:snap ~request ~rng:(Rng.create 1) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "decision failed");
  let record =
    match Rm_telemetry.Audit.last () with
    | Some r -> r
    | None -> Alcotest.fail "no audit record"
  in
  Rm_telemetry.Runtime.disable ();
  Rm_telemetry.Audit.clear ();
  Alcotest.(check (list int)) "stale nodes reported" [ 1 ]
    record.Rm_telemetry.Audit.stale_excluded;
  Alcotest.(check bool) "explanation mentions staleness" true
    (let hay = Format.asprintf "%a" Rm_telemetry.Audit.pp_explain record in
     let needle = "stale" in
     let h = String.length hay and n = String.length needle in
     let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
     go 0)

(* --- qcheck: allocator invariants ---------------------------------------------- *)

let qcheck = QCheck_alcotest.to_alcotest

let loads_gen = QCheck.Gen.(list_size (return 6) (float_bound_inclusive 8.0))

let prop_nl_aware_covers_any_loads =
  QCheck.Test.make ~name:"network-load-aware covers request on any loads"
    ~count:100 (QCheck.make loads_gen)
    (fun loads ->
      let snap = fixture (List.map (fun l -> (8, l)) loads) in
      let request = Request.make ~ppn:4 ~procs:12 () in
      match
        Policies.allocate ~policy:Policies.Network_load_aware ~snapshot:snap
          ~weights ~request ~rng:(Rng.create 0) ()
      with
      | Ok a -> Allocation.total_procs a = 12
      | Error _ -> false)

let prop_candidate_nodes_distinct =
  QCheck.Test.make ~name:"candidate nodes are distinct" ~count:100
    (QCheck.make loads_gen)
    (fun loads ->
      let snap = fixture (List.map (fun l -> (8, l)) loads) in
      let cl = Compute_load.of_snapshot snap ~weights in
      let nl = Network_load.of_snapshot snap ~weights in
      let request = Request.make ~ppn:4 ~procs:16 () in
      let cs =
        Candidate.generate_all ~loads:cl ~net:nl
          ~capacity:(capacity_of snap request) ~request
      in
      List.for_all
        (fun (c : Candidate.t) ->
          let ns = c.Candidate.nodes in
          List.length ns = List.length (List.sort_uniq compare ns))
        cs)

(* --- Dense fast path == naive reference ------------------------------------ *)

(* A randomized fixture driven by one PRNG stream: node count, core
   mix, loads, switch layout and per-pair link degradations all vary,
   so the dense/naive comparison sees asymmetric topologies, cost ties
   and oversubscription. *)
let random_fixture rng =
  let n = 3 + Rng.int rng 6 in
  let nswitches = 1 + Rng.int rng 2 in
  let switches = Array.init n (fun i -> i mod nswitches) in
  let specs =
    List.init n (fun _ ->
        ( (if Rng.bool rng then 8 else 12),
          Rng.uniform rng ~lo:0.0 ~hi:8.0 ))
  in
  let snap = fixture ~switches specs in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rng.bernoulli rng ~p:0.3 then begin
        let bw = Rng.uniform rng ~lo:5.0 ~hi:118.0 in
        let lat = Rng.uniform rng ~lo:70.0 ~hi:500.0 in
        Matrix.set snap.Snapshot.bw_mb_s i j bw;
        Matrix.set snap.Snapshot.bw_mb_s j i bw;
        Matrix.set snap.Snapshot.lat_us i j lat;
        Matrix.set snap.Snapshot.lat_us j i lat
      end
    done
  done;
  snap

let random_request rng =
  (* alpha hits the 0.0 and 1.0 boundaries; procs ranges from trivially
     satisfiable to cluster-wide oversubscription. *)
  let alpha = 0.1 *. float_of_int (Rng.int rng 11) in
  let procs = 1 + Rng.int rng 40 in
  let ppn = if Rng.bool rng then Some (1 + Rng.int rng 8) else None in
  Request.make ?ppn ~alpha ~procs ()

let prop_dense_matches_naive =
  QCheck.Test.make
    ~name:"dense fast path returns identical allocations to naive (all policies)"
    ~count:150
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let snap = random_fixture rng in
      let request = random_request rng in
      List.for_all
        (fun policy ->
          Model_cache.clear ();
          let fast =
            Policies.allocate ~policy ~snapshot:snap ~weights ~request
              ~rng:(Rng.create (seed + 1)) ()
          in
          let naive =
            Policies.allocate_naive ~policy ~snapshot:snap ~weights ~request
              ~rng:(Rng.create (seed + 1))
          in
          fast = naive)
        (Policies.all @ [ Policies.Hierarchical ]))

(* Stronger than allocation equality: the whole scored table must match
   bit-for-bit (costs, totals, candidate order), so ties keep breaking
   the same way no matter how close two totals are. *)
let prop_dense_scored_table_bit_identical =
  QCheck.Test.make
    ~name:"dense scored table is bit-identical to Candidate+Select"
    ~count:150
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let snap = random_fixture rng in
      let request = random_request rng in
      let cl = Compute_load.of_snapshot snap ~weights in
      let nl = Network_load.of_snapshot snap ~weights in
      let capacity = capacity_of snap request in
      let dense = Dense_alloc.scored_all ~loads:cl ~net:nl ~capacity ~request () in
      let naive =
        Select.score
          ~candidates:
            (Candidate.generate_all ~loads:cl ~net:nl ~capacity ~request)
          ~loads:cl ~net:nl ~request
      in
      List.length dense = List.length naive
      && List.for_all2
           (fun (d : Select.scored) (s : Select.scored) ->
             d.Select.candidate = s.Select.candidate
             && Float.equal d.Select.compute_cost s.Select.compute_cost
             && Float.equal d.Select.network_cost s.Select.network_cost
             && Float.equal d.Select.total s.Select.total)
           dense naive)

(* Like [random_fixture] but at a caller-chosen node count: the pruned
   regret property needs tens of nodes, where pruning operates.
   Degradations are sparser (the pair count is quadratic in n). *)
let sized_random_fixture rng n =
  let nswitches = 1 + Rng.int rng 4 in
  let switches = Array.init n (fun i -> i mod nswitches) in
  let specs =
    List.init n (fun _ ->
        ( (if Rng.bool rng then 8 else 12),
          Rng.uniform rng ~lo:0.0 ~hi:8.0 ))
  in
  let snap = fixture ~switches specs in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rng.bernoulli rng ~p:0.05 then begin
        let bw = Rng.uniform rng ~lo:5.0 ~hi:118.0 in
        let lat = Rng.uniform rng ~lo:70.0 ~hi:500.0 in
        Matrix.set snap.Snapshot.bw_mb_s i j bw;
        Matrix.set snap.Snapshot.bw_mb_s j i bw;
        Matrix.set snap.Snapshot.lat_us i j lat;
        Matrix.set snap.Snapshot.lat_us j i lat
      end
    done
  done;
  snap

(* Regression: a NaN in the NL matrix used to corrupt the heap's float
   ordering silently (both [<] and [=] are false on NaN), making the
   dense path quietly diverge from the naive compare-based sort. Now it
   is rejected at entry. An infinite latency on one link is how a NaN
   arrives in practice: lat_sum becomes inf and inf /. inf is NaN. *)
let test_dense_rejects_nonfinite_nl () =
  let snap = fixture [ (8, 1.0); (8, 2.0); (8, 0.5) ] in
  Matrix.set snap.Snapshot.lat_us 0 1 infinity;
  Matrix.set snap.Snapshot.lat_us 1 0 infinity;
  let cl = Compute_load.of_snapshot snap ~weights in
  let nl = Network_load.of_snapshot snap ~weights in
  let request = Request.make ~ppn:4 ~procs:8 () in
  let capacity = capacity_of snap request in
  match
    Dense_alloc.scored_all ~loads:cl ~net:nl ~capacity ~request ()
  with
  | _ -> Alcotest.fail "expected Invalid_argument on non-finite NL"
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      "message names the model" true
      (String.length msg >= 13 && String.sub msg 0 13 = "Dense_alloc.s")

(* --- Model cache ------------------------------------------------------------- *)

let test_model_cache_hit_and_invalidation () =
  let snap = fixture [ (8, 1.0); (8, 2.0); (12, 0.5) ] in
  Model_cache.clear ();
  let h0 = Model_cache.hits () and m0 = Model_cache.misses () in
  let b1 = Model_cache.get snap ~weights in
  Alcotest.(check int) "first get misses" (m0 + 1) (Model_cache.misses ());
  let b2 = Model_cache.get snap ~weights in
  Alcotest.(check int) "second get hits" (h0 + 1) (Model_cache.hits ());
  Alcotest.(check bool) "one shared model build" true
    (Model_cache.loads b1 == Model_cache.loads b2);
  (* A later monitor update produces a new record: miss. *)
  let snap_t = { snap with Snapshot.time = snap.Snapshot.time +. 30.0 } in
  ignore (Model_cache.get snap_t ~weights);
  Alcotest.(check int) "time change misses" (m0 + 2) (Model_cache.misses ());
  (* Restricting the usable set produces a new record: miss. *)
  let snap_u = Snapshot.restrict snap ~exclude:[ 2 ] in
  ignore (Model_cache.get snap_u ~weights);
  Alcotest.(check int) "usable-set change misses" (m0 + 3)
    (Model_cache.misses ());
  (* Same record, different weights: miss. *)
  ignore (Model_cache.get snap ~weights:Weights.network_intensive);
  Alcotest.(check int) "weights change misses" (m0 + 4)
    (Model_cache.misses ());
  (* The original pair is still resident after all those misses. *)
  ignore (Model_cache.get snap ~weights);
  Alcotest.(check int) "original still cached" (h0 + 2) (Model_cache.hits ())

let test_model_cache_models_match_direct_build () =
  let snap = fixture [ (8, 3.0); (12, 1.0); (8, 0.0) ] in
  Model_cache.clear ();
  let b = Model_cache.get snap ~weights in
  let direct_cl = Compute_load.of_snapshot snap ~weights in
  List.iter
    (fun node ->
      check_float
        (Printf.sprintf "CL(%d)" node)
        (Compute_load.get direct_cl ~node)
        (Compute_load.get (Model_cache.loads b) ~node))
    (Compute_load.usable direct_cl);
  Alcotest.(check (list (pair int int)))
    "pc matches direct build"
    (Effective_procs.to_list
       (Effective_procs.of_snapshot snap ~loads:direct_cl))
    (Effective_procs.to_list (Model_cache.pc b))

(* --- Network_load factored form ---------------------------------------------- *)

let test_nl_raw_matches_matrix () =
  let rng = Rng.create 11 in
  let snap = random_fixture rng in
  let net = Network_load.of_snapshot snap ~weights in
  let r = Network_load.raw net in
  let m = Network_load.nl_matrix net in
  let v = List.length (Network_load.usable net) in
  for i = 0 to v - 1 do
    for j = 0 to v - 1 do
      if not (Float.equal (Network_load.raw_get r i j) (Matrix.get m i j))
      then
        Alcotest.failf "raw_get (%d,%d) not bit-equal to the NL matrix" i j
    done
  done

let test_nl_dense_degrees_match_brute_force () =
  let rng = Rng.create 23 in
  let snap = random_fixture rng in
  let net = Network_load.of_snapshot snap ~weights in
  let ids = Array.of_list (Network_load.usable net) in
  let v = Array.length ids in
  let deg = Network_load.dense_degrees net in
  Alcotest.(check int) "one degree per usable node" v (Array.length deg);
  for i = 0 to v - 1 do
    let sum = ref 0.0 in
    for j = 0 to v - 1 do
      if j <> i then
        sum := !sum +. Network_load.get net ~u:ids.(i) ~v:ids.(j)
    done;
    let expect = if v <= 1 then 0.0 else !sum /. float_of_int (v - 1) in
    check_float (Printf.sprintf "degree of dense %d" i) expect deg.(i)
  done

let test_nl_block_mean_table_matches_brute_force () =
  let rng = Rng.create 37 in
  let snap = random_fixture rng in
  let net = Network_load.of_snapshot snap ~weights in
  let ids = Array.of_list (Network_load.usable net) in
  let v = Array.length ids in
  let nblocks = 3 in
  (* Every fourth node is excluded (-1) to exercise the skip path. *)
  let block_of_dense =
    Array.init v (fun i -> if i mod 4 = 3 then -1 else i mod nblocks)
  in
  let table = Network_load.block_mean_table net ~block_of_dense ~nblocks in
  for a = 0 to nblocks - 1 do
    for b = a to nblocks - 1 do
      let sum = ref 0.0 and count = ref 0 in
      for i = 0 to v - 1 do
        for j = i + 1 to v - 1 do
          let ba = block_of_dense.(i) and bb = block_of_dense.(j) in
          if ba >= 0 && bb >= 0 && min ba bb = a && max ba bb = b then begin
            sum := !sum +. Network_load.get net ~u:ids.(i) ~v:ids.(j);
            incr count
          end
        done
      done;
      let expect =
        if !count = 0 then 0.0 else !sum /. float_of_int !count
      in
      check_float
        (Printf.sprintf "block pair (%d,%d)" a b)
        expect
        table.((a * nblocks) + b)
    done
  done

(* --- Incremental NL maintenance (Nl_delta) ------------------------------------ *)

(* A successor snapshot: copy the link matrices, redraw the rows and
   symmetric columns of [touched] (node ids; all-live fixtures make
   node id = dense index), bump the time so the record is new. *)
let perturbed_snapshot rng (snap : Snapshot.t) touched =
  let bw = Matrix.copy snap.Snapshot.bw_mb_s in
  let lat = Matrix.copy snap.Snapshot.lat_us in
  let n = List.length snap.Snapshot.live in
  List.iter
    (fun i ->
      for j = 0 to n - 1 do
        if j <> i then begin
          let b = Rng.uniform rng ~lo:5.0 ~hi:118.0 in
          let l = Rng.uniform rng ~lo:70.0 ~hi:500.0 in
          Matrix.set bw i j b;
          Matrix.set bw j i b;
          Matrix.set lat i j l;
          Matrix.set lat j i l
        end
      done)
    touched;
  {
    snap with
    Snapshot.time = snap.Snapshot.time +. 0.01;
    bw_mb_s = bw;
    lat_us = lat;
  }

let random_touched rng n =
  let nt = 1 + Rng.int rng (max 1 (n / 3)) in
  List.sort_uniq compare (List.init nt (fun _ -> Rng.int rng n))

(* Chained derives with renorm_threshold 0 must stay bit-identical to
   a from-scratch build after every step — the acceptance bar for the
   incremental path. *)
let prop_nl_delta_exact_renorm_bit_identical =
  QCheck.Test.make
    ~name:"derive with renorm_threshold 0 is bit-identical to rebuild"
    ~count:60
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let snap0 = random_fixture rng in
      let n = List.length snap0.Snapshot.live in
      let net = ref (Network_load.of_snapshot snap0 ~weights) in
      let snap = ref snap0 in
      let ok = ref true in
      for _ = 1 to 1 + Rng.int rng 4 do
        let touched = random_touched rng n in
        let next = perturbed_snapshot rng !snap touched in
        (match
           Nl_delta.derive ~renorm_threshold:0.0 ~next ~weights ~touched !net
         with
        | None ->
          (* Wide delta (2·|touched| > V): rebuild and keep chaining. *)
          net := Network_load.of_snapshot next ~weights
        | Some patched ->
          net := patched;
          let rebuilt = Network_load.of_snapshot next ~weights in
          let m1 = Network_load.nl_matrix patched in
          let m2 = Network_load.nl_matrix rebuilt in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              if not (Float.equal (Matrix.get m1 i j) (Matrix.get m2 i j))
              then ok := false
            done
          done);
        snap := next
      done;
      !ok)

(* At the default threshold the incremental row-sum adjustments may
   drift between exact passes — but only by ulps (≲1e-9 relative). *)
let prop_nl_delta_default_threshold_drift_bounded =
  QCheck.Test.make
    ~name:"derive at the default threshold drifts at most 1e-9 relative"
    ~count:60
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let snap0 = random_fixture rng in
      let n = List.length snap0.Snapshot.live in
      let net = ref (Network_load.of_snapshot snap0 ~weights) in
      let snap = ref snap0 in
      let ok = ref true in
      for _ = 1 to 2 + Rng.int rng 6 do
        let touched = random_touched rng n in
        let next = perturbed_snapshot rng !snap touched in
        (match Nl_delta.derive ~next ~weights ~touched !net with
        | None -> net := Network_load.of_snapshot next ~weights
        | Some patched ->
          net := patched;
          let rebuilt = Network_load.of_snapshot next ~weights in
          let m1 = Network_load.nl_matrix patched in
          let m2 = Network_load.nl_matrix rebuilt in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              let a = Matrix.get m1 i j and b = Matrix.get m2 i j in
              if
                Float.abs (a -. b)
                > 1e-9 *. Float.max 1.0 (Float.abs b)
              then ok := false
            done
          done);
        snap := next
      done;
      !ok)

let test_nl_delta_touched_of_recovers_changed_nodes () =
  let rng = Rng.create 3 in
  let snap =
    fixture [ (8, 1.0); (8, 2.0); (8, 0.5); (12, 3.0); (8, 4.0); (8, 0.0) ]
  in
  let net = Network_load.of_snapshot snap ~weights in
  let next = perturbed_snapshot rng snap [ 1; 4 ] in
  match Nl_delta.touched_of ~prev:net ~next with
  | Some l ->
    (* The changed nodes themselves — not every row their symmetric
       columns brush (that would be all of them). *)
    Alcotest.(check (list int)) "changed nodes recovered" [ 1; 4 ] l
  | None -> Alcotest.fail "usable sets match, expected Some"

let test_nl_delta_membership_change_invalidates () =
  let rng = Rng.create 5 in
  let snap = fixture [ (8, 1.0); (8, 2.0); (8, 0.5); (12, 3.0) ] in
  let net = Network_load.of_snapshot snap ~weights in
  let next = Snapshot.restrict snap ~exclude:[ 2 ] in
  (match Nl_delta.touched_of ~prev:net ~next with
  | None -> ()
  | Some _ -> Alcotest.fail "node-down must invalidate touched_of");
  (match Nl_delta.derive ~next ~weights ~touched:[ 0 ] net with
  | None -> ()
  | Some _ -> Alcotest.fail "node-down must invalidate derive");
  (* Same membership but different weights: never patch. *)
  let next_w = perturbed_snapshot rng snap [ 0 ] in
  match
    Nl_delta.derive ~next:next_w ~weights:Weights.network_intensive
      ~touched:[ 0 ] net
  with
  | None -> ()
  | Some _ -> Alcotest.fail "weight change must invalidate derive"

let test_nl_delta_wide_delta_invalidates () =
  let rng = Rng.create 7 in
  let snap = fixture [ (8, 1.0); (8, 2.0); (8, 0.5); (12, 3.0) ] in
  let net = Network_load.of_snapshot snap ~weights in
  let next = perturbed_snapshot rng snap [ 0; 1; 2; 3 ] in
  match Nl_delta.derive ~next ~weights ~touched:[ 0; 1; 2; 3 ] net with
  | None -> ()
  | Some _ ->
    Alcotest.fail "touching more than half the rows must force a rebuild"

(* --- Model cache: derived bundles and Domain-safe counters -------------------- *)

let test_model_cache_get_derived_patches_forward () =
  let rng = Rng.create 17 in
  let snap =
    fixture [ (8, 1.0); (8, 2.0); (8, 0.5); (12, 3.0); (8, 4.0); (8, 0.0) ]
  in
  Model_cache.clear ();
  let b0 = Model_cache.get snap ~weights in
  let net0 = Model_cache.net b0 in
  let touched = [ 1; 3 ] in
  let next = perturbed_snapshot rng snap touched in
  let m0 = Model_cache.misses () in
  let b1 = Model_cache.get_derived next ~prev:snap ~touched ~weights in
  Alcotest.(check int) "derived counts as a miss" (m0 + 1)
    (Model_cache.misses ());
  Alcotest.(check bool) "network model patched in place" true
    (Model_cache.net b1 == net0);
  (* The perturbed snapshot shares [nodes]/[live] physically, so the
     compute-load and procs models (pure functions of those) are
     carried forward rather than rebuilt. *)
  Alcotest.(check bool) "compute-load model carried forward" true
    (Model_cache.loads b1 == Model_cache.loads b0);
  Alcotest.(check bool) "effective-procs model carried forward" true
    (Model_cache.pc b1 == Model_cache.pc b0);
  (* 2 of 6 rows exceeds the default renorm threshold, so this patch
     renormalized: bit-identical to a rebuild. *)
  let rebuilt = Network_load.of_snapshot next ~weights in
  let m1 = Network_load.nl_matrix (Model_cache.net b1) in
  let m2 = Network_load.nl_matrix rebuilt in
  let n = List.length snap.Snapshot.live in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if not (Float.equal (Matrix.get m1 i j) (Matrix.get m2 i j)) then
        Alcotest.failf "patched NL (%d,%d) differs from rebuild" i j
    done
  done;
  (* The predecessor's slot was evicted (its model was consumed). *)
  let m_before = Model_cache.misses () in
  ignore (Model_cache.get snap ~weights);
  Alcotest.(check int) "prev slot evicted" (m_before + 1)
    (Model_cache.misses ());
  (* The derived bundle itself is resident. *)
  let h_before = Model_cache.hits () in
  ignore (Model_cache.get next ~weights);
  Alcotest.(check int) "derived bundle cached" (h_before + 1)
    (Model_cache.hits ())

let test_model_cache_prime_derived () =
  let rng = Rng.create 19 in
  let snap =
    fixture [ (8, 1.0); (8, 2.0); (8, 0.5); (12, 3.0); (8, 4.0); (8, 0.0) ]
  in
  Model_cache.clear ();
  let b0 = Model_cache.get snap ~weights in
  let net0 = Model_cache.net b0 in
  let next = perturbed_snapshot rng snap [ 2 ] in
  (* prime diffs the readings itself — no touched list from the caller. *)
  Model_cache.prime_derived next ~prev:snap ~weights;
  let h0 = Model_cache.hits () in
  let b1 = Model_cache.get next ~weights in
  Alcotest.(check int) "primed bundle hits" (h0 + 1) (Model_cache.hits ());
  Alcotest.(check bool) "primed via the incremental patch, not a rebuild"
    true
    (Model_cache.net b1 == net0)

let test_model_cache_counters_domain_safe () =
  Model_cache.clear ();
  let snap = fixture [ (8, 1.0); (8, 2.0) ] in
  ignore (Model_cache.get snap ~weights);
  let h0 = Model_cache.hits () in
  let spawned =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 500 do
              ignore (Model_cache.get snap ~weights)
            done))
  in
  List.iter Domain.join spawned;
  Alcotest.(check int) "no hit increments lost across domains" (h0 + 2000)
    (Model_cache.hits ())

(* --- Pruned candidate starts --------------------------------------------------- *)

(* Pruning only skips starts: each surviving candidate and its raw
   Eq. 4 costs must be bit-identical to its exhaustive counterpart
   (only the per-candidate-set normalization sees fewer rivals). *)
let prop_pruned_subset_costs_exact =
  QCheck.Test.make
    ~name:"Top_k candidates are a subset with bit-identical raw costs"
    ~count:100
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let snap = random_fixture rng in
      let request = random_request rng in
      let cl = Compute_load.of_snapshot snap ~weights in
      let nl = Network_load.of_snapshot snap ~weights in
      let capacity = capacity_of snap request in
      let v = List.length (Network_load.usable nl) in
      let k = 1 + Rng.int rng (max 1 (v - 1)) in
      let pruned =
        Dense_alloc.scored_all
          ~starts:(Dense_alloc.Top_k k)
          ~loads:cl ~net:nl ~capacity ~request ()
      in
      let all =
        Dense_alloc.scored_all ~starts:Dense_alloc.All ~loads:cl ~net:nl
          ~capacity ~request ()
      in
      List.length pruned = min k v
      && (* ascending start order, like the exhaustive table *)
      (let starts =
         List.map (fun (s : Select.scored) -> s.Select.candidate.Candidate.start)
           pruned
       in
       starts = List.sort compare starts)
      && List.for_all
           (fun (p : Select.scored) ->
             match
               List.find_opt
                 (fun (a : Select.scored) ->
                   a.Select.candidate.Candidate.start
                   = p.Select.candidate.Candidate.start)
                 all
             with
             | None -> false
             | Some a ->
               a.Select.candidate = p.Select.candidate
               && Float.equal a.Select.compute_cost p.Select.compute_cost
               && Float.equal a.Select.network_cost p.Select.network_cost)
           pruned)

let prop_pruned_topk_ge_v_is_exhaustive =
  QCheck.Test.make ~name:"Top_k with k >= V degenerates to All, bit-identical"
    ~count:60
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let snap = random_fixture rng in
      let request = random_request rng in
      let cl = Compute_load.of_snapshot snap ~weights in
      let nl = Network_load.of_snapshot snap ~weights in
      let capacity = capacity_of snap request in
      let v = List.length (Network_load.usable nl) in
      let pruned =
        Dense_alloc.scored_all
          ~starts:(Dense_alloc.Top_k (v + Rng.int rng 3))
          ~loads:cl ~net:nl ~capacity ~request ()
      in
      let all =
        Dense_alloc.scored_all ~starts:Dense_alloc.All ~loads:cl ~net:nl
          ~capacity ~request ()
      in
      List.length pruned = List.length all
      && List.for_all2
           (fun (a : Select.scored) (b : Select.scored) ->
             a.Select.candidate = b.Select.candidate
             && Float.equal a.Select.total b.Select.total)
           pruned all)

(* The pruned winner may legitimately differ from the exhaustive one
   (Algorithm 2's normalization is per candidate set), but judged under
   the EXHAUSTIVE normalization it must stay close to the true optimum.
   Measured at the property's own distribution (V in 40..80, k in
   {4,8,16,32}): worst regret 0.025 over 6000 samples — the bound
   carries ~6× headroom. (On 3-8 node toy fixtures regret is
   intrinsically coarse — pruning there isn't the operating regime.) *)
let pruned_regret_bound = 0.15

let prop_pruned_regret_bounded =
  QCheck.Test.make
    ~name:"Top_k winner's exhaustively-normalized regret is bounded"
    ~count:60
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let snap = sized_random_fixture rng (40 + Rng.int rng 41) in
      let request = random_request rng in
      let cl = Compute_load.of_snapshot snap ~weights in
      let nl = Network_load.of_snapshot snap ~weights in
      let capacity = capacity_of snap request in
      let v = List.length (Network_load.usable nl) in
      let k = [| 4; 8; 16; 32 |].(Rng.int rng 4) in
      let k = min k (v - 1) in
      let pw =
        Dense_alloc.best
          ~starts:(Dense_alloc.Top_k k)
          ~loads:cl ~net:nl ~capacity ~request ()
      in
      let all =
        Dense_alloc.scored_all ~starts:Dense_alloc.All ~loads:cl ~net:nl
          ~capacity ~request ()
      in
      match
        List.find_opt
          (fun (a : Select.scored) ->
            a.Select.candidate.Candidate.start
            = pw.Select.candidate.Candidate.start)
          all
      with
      | None -> false
      | Some exh ->
        let best_total =
          List.fold_left
            (fun acc (s : Select.scored) -> Float.min acc s.Select.total)
            infinity all
        in
        exh.Select.total -. best_total <= pruned_regret_bound)

let test_pruned_never_materializes_nl () =
  let rng = Rng.create 29 in
  let snap = random_fixture rng in
  let cl = Compute_load.of_snapshot snap ~weights in
  let nl = Network_load.of_snapshot snap ~weights in
  let request = Request.make ~ppn:4 ~procs:8 () in
  let capacity = capacity_of snap request in
  ignore
    (Dense_alloc.scored_all
       ~starts:(Dense_alloc.Top_k 2)
       ~loads:cl ~net:nl ~capacity ~request ());
  Alcotest.(check bool) "factored reads only: no O(V²) NL matrix" true
    (match Network_load.nl_cached nl with None -> true | Some _ -> false)

let test_pruned_rejects_nonfinite_nl () =
  let snap = fixture [ (8, 1.0); (8, 2.0); (8, 0.5) ] in
  Matrix.set snap.Snapshot.lat_us 0 1 infinity;
  Matrix.set snap.Snapshot.lat_us 1 0 infinity;
  let cl = Compute_load.of_snapshot snap ~weights in
  let nl = Network_load.of_snapshot snap ~weights in
  let request = Request.make ~ppn:4 ~procs:8 () in
  let capacity = capacity_of snap request in
  match
    Dense_alloc.scored_all
      ~starts:(Dense_alloc.Top_k 2)
      ~loads:cl ~net:nl ~capacity ~request ()
  with
  | _ -> Alcotest.fail "expected Invalid_argument on non-finite NL"
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      "message names the model" true
      (String.length msg >= 13 && String.sub msg 0 13 = "Dense_alloc.s")

let test_starts_parse_and_default_knob () =
  (match Dense_alloc.parse_starts "All" with
  | Ok Dense_alloc.All -> ()
  | _ -> Alcotest.fail {|"All" should parse (case-insensitive)|});
  (match Dense_alloc.parse_starts " 8 " with
  | Ok (Dense_alloc.Top_k 8) -> ()
  | _ -> Alcotest.fail {|" 8 " should parse as Top_k 8|});
  (match Dense_alloc.parse_starts "0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "0 starts must be rejected");
  (match Dense_alloc.parse_starts "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must be rejected");
  Alcotest.(check string) "label all" "all"
    (Dense_alloc.starts_label Dense_alloc.All);
  Alcotest.(check string) "label k" "8"
    (Dense_alloc.starts_label (Dense_alloc.Top_k 8));
  let before = Dense_alloc.default_starts () in
  Fun.protect
    ~finally:(fun () -> Dense_alloc.set_default_starts before)
    (fun () ->
      Dense_alloc.set_default_starts (Dense_alloc.Top_k 2);
      let snap = fixture [ (8, 1.0); (8, 2.0); (8, 0.5); (12, 3.0) ] in
      let cl = Compute_load.of_snapshot snap ~weights in
      let nl = Network_load.of_snapshot snap ~weights in
      let request = Request.make ~ppn:4 ~procs:8 () in
      let capacity = capacity_of snap request in
      let scored =
        Dense_alloc.scored_all ~loads:cl ~net:nl ~capacity ~request ()
      in
      Alcotest.(check int) "global default applies" 2 (List.length scored);
      Alcotest.check_raises "rejects Top_k 0"
        (Invalid_argument "Dense_alloc: Top_k starts must be >= 1")
        (fun () -> Dense_alloc.set_default_starts (Dense_alloc.Top_k 0)))

(* --- Engine routing (Policies.Auto → Hierarchical) ----------------------------- *)

let test_policies_auto_routes_to_hierarchical () =
  let rng = Rng.create 99 in
  let snap = random_fixture rng in
  let request = Request.make ~ppn:4 ~procs:10 () in
  let before = Policies.auto_hierarchical_threshold () in
  Fun.protect
    ~finally:(fun () -> Policies.set_auto_hierarchical_threshold before)
    (fun () ->
      Policies.set_auto_hierarchical_threshold 1;
      Model_cache.clear ();
      let run engine =
        Policies.allocate ~engine ~policy:Policies.Network_load_aware
          ~snapshot:snap ~weights ~request ~rng:(Rng.create 1) ()
      in
      let auto = run Policies.Auto in
      let grouped = run Policies.Grouped in
      let flat = run Policies.Flat in
      Alcotest.(check bool) "above the threshold Auto is Grouped" true
        (auto = grouped);
      (match auto with
      | Ok a ->
        Alcotest.(check string) "keeps the requesting policy's label"
          "network-load-aware" a.Allocation.policy
      | Error _ -> Alcotest.fail "auto allocation failed");
      (match flat with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "flat allocation failed");
      Alcotest.check_raises "threshold knob rejects < 1"
        (Invalid_argument
           "Policies.set_auto_hierarchical_threshold: must be >= 1")
        (fun () -> Policies.set_auto_hierarchical_threshold 0))

let prop_compute_load_nonnegative =
  QCheck.Test.make ~name:"compute load is non-negative" ~count:100
    (QCheck.make loads_gen)
    (fun loads ->
      let snap = fixture (List.map (fun l -> (8, l)) loads) in
      let cl = Compute_load.of_snapshot snap ~weights in
      List.for_all (fun n -> Compute_load.get cl ~node:n >= -1e-12)
        (Compute_load.usable cl))

let suites =
  [
    ( "core.saw",
      [
        Alcotest.test_case "normalize sums to one" `Quick test_saw_normalize_sums_to_one;
        Alcotest.test_case "zero column" `Quick test_saw_normalize_zero_column;
        Alcotest.test_case "tiny negative ok" `Quick test_saw_normalize_tiny_negative_ok;
        Alcotest.test_case "rejects negative" `Quick test_saw_normalize_rejects_negative;
        Alcotest.test_case "directionalize" `Quick test_saw_directionalize;
        Alcotest.test_case "combine" `Quick test_saw_combine;
        Alcotest.test_case "ragged rejected" `Quick test_saw_combine_ragged;
        Alcotest.test_case "constant column neutral" `Quick
          test_saw_constant_column_neutral;
      ] );
    ( "core.weights_request_allocation",
      [
        Alcotest.test_case "paper weights sum" `Quick test_weights_paper_sum;
        Alcotest.test_case "weights validate" `Quick test_weights_validate;
        Alcotest.test_case "request defaults" `Quick test_request_defaults;
        Alcotest.test_case "ppn override" `Quick test_request_ppn_override;
        Alcotest.test_case "request validation" `Quick test_request_validation;
        Alcotest.test_case "allocation accessors" `Quick test_allocation_accessors;
        Alcotest.test_case "allocation validation" `Quick test_allocation_validation;
      ] );
    ( "core.compute_load",
      [
        Alcotest.test_case "orders by load" `Quick test_compute_load_orders_by_load;
        Alcotest.test_case "prefers big nodes" `Quick test_compute_load_prefers_big_nodes;
        Alcotest.test_case "total" `Quick test_compute_load_total;
        Alcotest.test_case "unusable rejected" `Quick test_compute_load_unusable_rejected;
        Alcotest.test_case "raw 1m load" `Quick test_compute_load_cpu_load_1m;
        qcheck prop_compute_load_nonnegative;
      ] );
    ( "core.network_load",
      [
        Alcotest.test_case "uniform" `Quick test_network_load_zero_when_uniform_full_bw;
        Alcotest.test_case "prefers good links" `Quick test_network_load_prefers_good_links;
        Alcotest.test_case "symmetry" `Quick test_network_load_symmetry;
        Alcotest.test_case "edge totals" `Quick test_network_load_edges_totals;
        Alcotest.test_case "raw reads match the matrix" `Quick
          test_nl_raw_matches_matrix;
        Alcotest.test_case "dense degrees match brute force" `Quick
          test_nl_dense_degrees_match_brute_force;
        Alcotest.test_case "block mean table matches brute force" `Quick
          test_nl_block_mean_table_matches_brute_force;
      ] );
    ( "core.nl_delta",
      [
        qcheck prop_nl_delta_exact_renorm_bit_identical;
        qcheck prop_nl_delta_default_threshold_drift_bounded;
        Alcotest.test_case "touched_of recovers changed nodes" `Quick
          test_nl_delta_touched_of_recovers_changed_nodes;
        Alcotest.test_case "membership/weight change invalidates" `Quick
          test_nl_delta_membership_change_invalidates;
        Alcotest.test_case "wide delta invalidates" `Quick
          test_nl_delta_wide_delta_invalidates;
      ] );
    ( "core.effective_procs",
      [
        Alcotest.test_case "idle" `Quick test_eq3_idle;
        Alcotest.test_case "partial" `Quick test_eq3_partial;
        Alcotest.test_case "modulo wrap" `Quick test_eq3_modulo_wrap;
        Alcotest.test_case "bounds" `Quick test_eq3_bounds;
        Alcotest.test_case "of snapshot" `Quick test_eq3_of_snapshot;
      ] );
    ( "core.candidate",
      [
        Alcotest.test_case "starts with start" `Quick test_candidate_starts_with_start;
        Alcotest.test_case "greedy prefers low cost" `Quick
          test_candidate_greedy_prefers_low_cost;
        Alcotest.test_case "network steers selection" `Quick
          test_candidate_network_steers_selection;
        Alcotest.test_case "round-robin overflow" `Quick
          test_candidate_round_robin_overflow;
        Alcotest.test_case "addition cost" `Quick test_candidate_addition_cost;
        Alcotest.test_case "generate_all count" `Quick test_candidate_all_count;
        qcheck prop_candidate_nodes_distinct;
      ] );
    ( "core.select",
      [
        Alcotest.test_case "minimizes total" `Quick test_select_minimizes_total;
        Alcotest.test_case "scores all" `Quick test_select_scores_all;
        Alcotest.test_case "alpha=1 load only" `Quick test_select_alpha_one_is_load_only;
      ] );
    ( "core.policies",
      [
        Alcotest.test_case "satisfy request" `Quick test_policies_satisfy_request;
        Alcotest.test_case "load-aware picks quiet" `Quick test_policy_load_aware_picks_quiet;
        Alcotest.test_case "sequential consecutive" `Quick test_policy_sequential_consecutive;
        Alcotest.test_case "random uses rng" `Quick test_policy_random_uses_rng;
        Alcotest.test_case "network-aware deterministic" `Quick
          test_policy_network_aware_deterministic;
        Alcotest.test_case "no usable nodes" `Quick test_policy_no_usable_nodes;
        Alcotest.test_case "oversubscribes" `Quick test_policy_oversubscribes_when_needed;
        Alcotest.test_case "hierarchical via policies" `Quick
          test_policy_hierarchical_via_policies;
        Alcotest.test_case "names roundtrip" `Quick test_policy_names_roundtrip;
        Alcotest.test_case "auto engine routes to hierarchical" `Quick
          test_policies_auto_routes_to_hierarchical;
        qcheck prop_nl_aware_covers_any_loads;
      ] );
    ( "core.dense_alloc",
      [
        qcheck prop_dense_matches_naive;
        qcheck prop_dense_scored_table_bit_identical;
        Alcotest.test_case "rejects non-finite NL" `Quick
          test_dense_rejects_nonfinite_nl;
        qcheck prop_pruned_subset_costs_exact;
        qcheck prop_pruned_topk_ge_v_is_exhaustive;
        qcheck prop_pruned_regret_bounded;
        Alcotest.test_case "pruned path never materializes NL" `Quick
          test_pruned_never_materializes_nl;
        Alcotest.test_case "pruned path rejects non-finite NL" `Quick
          test_pruned_rejects_nonfinite_nl;
        Alcotest.test_case "starts parse + default knob" `Quick
          test_starts_parse_and_default_knob;
      ] );
    ( "core.model_cache",
      [
        Alcotest.test_case "hit and invalidation" `Quick
          test_model_cache_hit_and_invalidation;
        Alcotest.test_case "models match direct build" `Quick
          test_model_cache_models_match_direct_build;
        Alcotest.test_case "get_derived patches forward" `Quick
          test_model_cache_get_derived_patches_forward;
        Alcotest.test_case "prime_derived warms the next tick" `Quick
          test_model_cache_prime_derived;
        Alcotest.test_case "counters are domain-safe" `Quick
          test_model_cache_counters_domain_safe;
      ] );
    ( "core.brute_force",
      [
        Alcotest.test_case "matches exhaustive" `Quick
          test_brute_force_matches_exhaustive_small;
        Alcotest.test_case "greedy >= optimal" `Quick
          test_greedy_never_better_than_brute_force;
        Alcotest.test_case "guard" `Quick test_brute_force_guard;
      ] );
    ( "core.broker",
      [
        Alcotest.test_case "allocates by default" `Quick test_broker_allocates_by_default;
        Alcotest.test_case "recommends waiting" `Quick test_broker_recommends_waiting;
        Alcotest.test_case "threshold not exceeded" `Quick
          test_broker_threshold_not_exceeded;
        Alcotest.test_case "mean load per core" `Quick test_broker_mean_load_per_core;
        Alcotest.test_case "excludes stale records" `Quick
          test_broker_excludes_stale_records;
        Alcotest.test_case "all stale is an error" `Quick
          test_broker_all_stale_is_an_error;
        Alcotest.test_case "stale exclusions audited" `Quick
          test_broker_stale_exclusions_audited;
      ] );
  ]
