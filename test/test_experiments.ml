(* Integration tests for rm_experiments: harness protocol, end-to-end
   monitor -> allocator -> executor runs, experiment generators. *)

module Harness = Rm_experiments.Harness
module Sweep = Rm_experiments.Sweep
module Traces = Rm_experiments.Traces
module Bandwidth_map = Rm_experiments.Bandwidth_map
module Render = Rm_experiments.Render
module Policies = Rm_core.Policies
module Weights = Rm_core.Weights
module Request = Rm_core.Request
module Allocation = Rm_core.Allocation
module Scenario = Rm_workload.Scenario
module Cluster = Rm_cluster.Cluster
module Matrix = Rm_stats.Matrix
module Timeseries = Rm_stats.Timeseries

let small_cluster () =
  Cluster.homogeneous ~cores:8 ~freq_ghz:3.0 ~nodes_per_switch:[ 4; 4 ] ()

let small_env ?(scenario = Scenario.normal) ?(seed = 3) () =
  let env =
    Harness.make_env ~cluster:(small_cluster ()) ~scenario ~seed
      ~horizon:50_000.0 ()
  in
  Harness.warm env;
  env

let app_of ~ranks =
  Rm_apps.Minimd.app
    ~config:{ (Rm_apps.Minimd.default_config ~s:8) with Rm_apps.Minimd.steps = 20 }
    ~ranks

(* --- Render -------------------------------------------------------------- *)

let test_render_table_alignment () =
  let s =
    Render.table_str ~header:[ "a"; "bb" ]
      ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let lines = String.split_on_char '\n' s in
  (* header + rule + 2 rows + trailing empty fragment. *)
  Alcotest.(check int) "5 fragments" 5 (List.length lines);
  Alcotest.(check bool) "has rule" true
    (String.exists (fun c -> c = '-') (List.nth lines 1))

let test_render_table_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Render.table: ragged row")
    (fun () -> ignore (Render.table_str ~header:[ "a" ] ~rows:[ [ "1"; "2" ] ]))

let test_render_sparkline () =
  Alcotest.(check int) "one char per point" 5
    (String.length (Render.sparkline [| 1.0; 2.0; 3.0; 2.0; 1.0 |]));
  Alcotest.(check string) "empty" "" (Render.sparkline [||])

let test_render_heatmap_scale () =
  let m = Matrix.square 2 ~init:1.0 in
  Matrix.set m 0 1 5.0;
  let s = Render.heatmap_str ~values:m () in
  Alcotest.(check bool) "mentions scale" true
    (String.length s > 0
    && String.split_on_char '\n' s
       |> List.exists (fun l -> String.length l >= 5 && String.sub l 0 5 = "scale"))

(* --- Harness -------------------------------------------------------------- *)

let test_harness_warm_populates_monitor () =
  let env = small_env () in
  let snap = Harness.snapshot env in
  Alcotest.(check int) "8 usable nodes" 8
    (List.length (Rm_monitor.Snapshot.usable snap))

let test_harness_run_app () =
  let env = small_env () in
  let request = Request.make ~ppn:4 ~alpha:0.3 ~procs:8 () in
  let r =
    Harness.run_app env ~policy:Policies.Network_load_aware
      ~weights:Weights.paper_default ~request ~app_of
  in
  Alcotest.(check int) "8 procs placed" 8 (Allocation.total_procs r.Harness.allocation);
  Alcotest.(check bool) "time positive" true
    (r.Harness.stats.Rm_mpisim.Executor.total_time_s > 0.0);
  Alcotest.(check bool) "group metrics sane" true
    (r.Harness.group_latency_us >= 0.0 && r.Harness.group_bw_complement >= 0.0)

let test_harness_compare_runs_all_policies () =
  let env = small_env () in
  let request = Request.make ~ppn:4 ~alpha:0.3 ~procs:8 () in
  let runs =
    Harness.compare_policies env ~weights:Weights.paper_default ~request ~app_of
      ~gap_s:5.0 ()
  in
  Alcotest.(check int) "four runs" 4 (List.length runs);
  Alcotest.(check (list string)) "paper order"
    [ "random"; "sequential"; "load-aware"; "network-load-aware" ]
    (List.map (fun (p, _) -> Policies.name p) runs)

let test_harness_gains () =
  let g = Harness.gains_vs ~baseline_times:[| 10.0; 10.0 |] ~ours_times:[| 5.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "50%" 50.0 g;
  let s = Harness.summarize_gains [| 10.0; 20.0; 60.0 |] in
  Alcotest.(check (float 1e-9)) "avg" 30.0 s.Harness.average;
  Alcotest.(check (float 1e-9)) "median" 20.0 s.Harness.median;
  Alcotest.(check (float 1e-9)) "max" 60.0 s.Harness.maximum

let test_harness_time_advances () =
  let env = small_env () in
  let w = Harness.world env in
  let t0 = Rm_workload.World.now w in
  Harness.idle env ~seconds:100.0;
  Alcotest.(check bool) "idle advances" true (Rm_workload.World.now w >= t0 +. 100.0)

(* --- End-to-end: ours beats random on a contended cluster ------------------ *)

let test_e2e_nl_aware_beats_random () =
  (* Averaged over repetitions on a busy cluster, the paper's allocator
     must beat random allocation. *)
  let env = small_env ~scenario:Scenario.busy ~seed:11 () in
  let request = Request.make ~ppn:4 ~alpha:0.3 ~procs:8 () in
  let total = ref 0.0 and total_random = ref 0.0 in
  for _ = 1 to 3 do
    let runs =
      Harness.compare_policies env ~weights:Weights.paper_default ~request
        ~app_of ~gap_s:10.0 ()
    in
    List.iter
      (fun (p, (r : Harness.run_result)) ->
        let t = r.Harness.stats.Rm_mpisim.Executor.total_time_s in
        match p with
        | Policies.Network_load_aware -> total := !total +. t
        | Policies.Random -> total_random := !total_random +. t
        | Policies.Sequential | Policies.Load_aware
        | Policies.Hierarchical -> ())
      runs
  done;
  Alcotest.(check bool) "ours faster than random" true (!total < !total_random)

(* --- Sweep ---------------------------------------------------------------- *)

let tiny_spec seed : Sweep.spec =
  {
    Sweep.label = "tiny";
    size_label = "s";
    procs_list = [ 8 ];
    sizes = [ 8 ];
    reps = 2;
    ppn = 4;
    alpha = 0.3;
    weights = Weights.paper_default;
    scenario = Scenario.normal;
    seed;
    app_of =
      (fun ~size ~ranks ->
        Rm_apps.Minimd.app
          ~config:
            { (Rm_apps.Minimd.default_config ~s:size) with Rm_apps.Minimd.steps = 10 }
          ~ranks);
  }

let test_sweep_records_complete () =
  let result = Sweep.run (tiny_spec 5) in
  (* 1 procs x 1 size x 2 reps x 4 policies. *)
  Alcotest.(check int) "8 records" 8 (List.length result.Sweep.records);
  List.iter
    (fun policy ->
      let times = Sweep.cell_times result ~procs:8 ~size:8 ~policy in
      Alcotest.(check int) (Policies.name policy) 2 (Array.length times))
    Policies.all

let test_sweep_renders () =
  let result = Sweep.run (tiny_spec 6) in
  let times = Sweep.render_times result ~title:"t" in
  Alcotest.(check bool) "times mentions procs" true
    (String.length times > 0);
  let gains = Sweep.render_gains result ~title:"g" in
  Alcotest.(check bool) "gains mentions load-aware" true
    (String.length gains > 0);
  let fig5 = Sweep.render_load_per_core result ~title:"f" in
  Alcotest.(check bool) "fig5 nonempty" true (String.length fig5 > 0)

let test_sweep_csv () =
  let result = Sweep.run (tiny_spec 8) in
  let csv = Sweep.to_csv result in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (* header + 8 records. *)
  Alcotest.(check int) "rows" 9 (List.length lines);
  Alcotest.(check bool) "header fields" true
    (String.length (List.hd lines) > 0
    && String.split_on_char ',' (List.hd lines) |> List.length = 10)

let test_render_csv_quoting () =
  let csv = Render.csv ~header:[ "a"; "b" ] ~rows:[ [ "x,y"; "z\"q" ] ] in
  Alcotest.(check string) "quoted" "a,b\n\"x,y\",\"z\"\"q\"\n" csv

let test_sweep_gains_finite () =
  let result = Sweep.run (tiny_spec 7) in
  List.iter
    (fun baseline ->
      Array.iter
        (fun g -> Alcotest.(check bool) "finite" true (Float.is_finite g))
        (Sweep.gains_over result ~baseline))
    [ Policies.Random; Policies.Sequential; Policies.Load_aware ]

(* --- Queue study ------------------------------------------------------------- *)

module Queue_study = Rm_experiments.Queue_study

let test_queue_study_structure () =
  let rows = Queue_study.run ~seed:7 ~job_count:3 () in
  Alcotest.(check int) "four policies" 4 (List.length rows);
  List.iter
    (fun (r : Queue_study.policy_row) ->
      Alcotest.(check int) "all jobs finish" 3
        r.Queue_study.summary.Rm_sched.Scheduler.jobs_finished;
      Alcotest.(check bool) "turnaround positive" true
        (r.Queue_study.summary.Rm_sched.Scheduler.mean_turnaround_s > 0.0))
    rows;
  Alcotest.(check bool) "renders" true (String.length (Queue_study.render rows) > 0)

(* --- Chaos study -------------------------------------------------------- *)

module Chaos_study = Rm_experiments.Chaos_study
module Scheduler = Rm_sched.Scheduler

let test_chaos_off_matches_baseline () =
  (* The chaos harness with no plan must be the queue study bit for bit:
     same outcomes, same timestamps. The resilience knobs (liveness
     poll, staleness gate, checkpointing) only act when a fault fires. *)
  let policy = Rm_core.Policies.Network_load_aware in
  let baseline =
    List.find
      (fun (r : Queue_study.policy_row) -> r.Queue_study.policy = policy)
      (Queue_study.run ~seed:83 ~job_count:3 ())
  in
  let sched, injector = Chaos_study.run_sched ~seed:83 ~job_count:3 ~policy () in
  Alcotest.(check bool) "no injector" true (injector = None);
  let s = Scheduler.summary sched in
  let b = baseline.Queue_study.summary in
  Alcotest.(check int) "same finished" b.Scheduler.jobs_finished
    s.Scheduler.jobs_finished;
  Alcotest.(check (float 0.0)) "same mean wait" b.Scheduler.mean_wait_s
    s.Scheduler.mean_wait_s;
  Alcotest.(check (float 0.0)) "same mean turnaround" b.Scheduler.mean_turnaround_s
    s.Scheduler.mean_turnaround_s;
  Alcotest.(check (float 0.0)) "same max wait" b.Scheduler.max_wait_s
    s.Scheduler.max_wait_s

let test_chaos_heavy_terminates_every_job () =
  (* Under the heavy plan no job may be left hanging: every submission
     ends Finished or Rejected. *)
  let policy = Rm_core.Policies.Load_aware in
  let cluster = Rm_cluster.Cluster.iitk_reference () in
  let plan =
    match
      Chaos_study.plan_of_intensity ~cluster
        ~first_after_s:
          (Rm_monitor.System.warm_up_s Rm_monitor.System.default_cadence)
        ~seed:100 Chaos_study.Heavy
    with
    | Some p -> p
    | None -> Alcotest.fail "heavy plan missing"
  in
  let sched, injector = Chaos_study.run_sched ~seed:83 ~job_count:4 ~plan ~policy () in
  let injector = match injector with Some i -> i | None -> Alcotest.fail "no injector" in
  Alcotest.(check bool) "faults fired" true (Rm_faults.Injector.injected injector > 0);
  Alcotest.(check int) "nothing queued" 0 (List.length (Scheduler.queued sched));
  Alcotest.(check int) "nothing running" 0 (List.length (Scheduler.running sched));
  Alcotest.(check int) "nothing failed-pending" 0
    (List.length (Scheduler.failed sched));
  Alcotest.(check int) "all jobs accounted for" 4
    (List.length (Scheduler.finished sched)
    + List.length (Scheduler.rejected sched))

let test_chaos_rows_and_render () =
  let rows =
    Chaos_study.run ~seed:83 ~job_count:2
      ~intensities:[ Chaos_study.Off; Chaos_study.Light ] ()
  in
  Alcotest.(check int) "intensities x policies" 8 (List.length rows);
  List.iter
    (fun (r : Chaos_study.row) ->
      Alcotest.(check bool) "goodput in [0,1]" true
        (r.Chaos_study.goodput >= 0.0 && r.Chaos_study.goodput <= 1.0);
      Alcotest.(check bool) "jobs accounted" true
        (r.Chaos_study.finished + r.Chaos_study.rejected = 2);
      if r.Chaos_study.intensity = Chaos_study.Off then begin
        Alcotest.(check int) "off: no faults" 0 r.Chaos_study.faults_injected;
        Alcotest.(check int) "off: no requeues" 0 r.Chaos_study.requeues;
        Alcotest.(check (float 0.0)) "off: nothing wasted" 0.0
          r.Chaos_study.wasted_node_s
      end)
    rows;
  Alcotest.(check bool) "renders" true
    (String.length (Chaos_study.render rows) > 0)

let test_interference_structure () =
  let i = Queue_study.interference ~seed:13 () in
  Alcotest.(check bool) "alone positive" true (i.Queue_study.alone_s > 0.0);
  Alcotest.(check bool) "aware at most as much overlap as random... or both small"
    true
    (i.Queue_study.aware_overlap >= 0 && i.Queue_study.random_overlap >= 0);
  Alcotest.(check bool) "aware beside not much worse than alone" true
    (i.Queue_study.beside_aware_s < 2.0 *. i.Queue_study.alone_s);
  Alcotest.(check bool) "renders" true
    (String.length (Queue_study.render_interference i) > 0)

(* --- Trace experiments ------------------------------------------------------- *)

let test_traces_structure () =
  let r = Traces.run ~hours:2.0 ~sample_period_s:600.0 ~nodes:6 ~seed:1 () in
  (* 2 h at 10-min samples: 13 points including t=0. *)
  Alcotest.(check int) "13 samples" 13 (Timeseries.length r.Traces.load_a);
  Alcotest.(check int) "avg same length" 13 (Timeseries.length r.Traces.load_avg);
  let util = Timeseries.value_summary r.Traces.util_avg in
  Alcotest.(check bool) "util in range" true
    (util.Rm_stats.Descriptive.min >= 0.0 && util.Rm_stats.Descriptive.max <= 100.0);
  Alcotest.(check bool) "render nonempty" true
    (String.length (Traces.render r) > 100)

let test_bandwidth_map_structure () =
  let r = Bandwidth_map.run ~nodes:12 ~sweeps:2 ~hours:0.5 ~seed:2 () in
  Alcotest.(check int) "12x12 heatmap" 12 (Matrix.rows r.Bandwidth_map.heat);
  Alcotest.(check bool) "proximity effect" true
    (r.Bandwidth_map.same_switch_mean > r.Bandwidth_map.cross_switch_mean);
  Alcotest.(check int) "three pairs" 3 (List.length r.Bandwidth_map.pair_series);
  Alcotest.(check bool) "render nonempty" true
    (String.length (Bandwidth_map.render r) > 100)

(* --- Matrix: the scenario × policy × engine experiment matrix ----------- *)

module Emat = Rm_experiments.Matrix
module Dash = Rm_experiments.Dashboard

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Budget 0 disables the wall-clock throughput loop, so the whole run
   is virtual-time-deterministic. *)
let tiny_spec =
  {
    Emat.spec_name = "tiny";
    seed = 7;
    scenarios = [ "uniform"; "chaos-heavy" ];
    policies = [ "random"; "network-load-aware" ];
    engines = [ "naive"; "dense" ];
    budget = { Emat.alloc_budget_s = 0.0; job_count = 2 };
    rules =
      [
        {
          Emat.on_scenario = Some "chaos-heavy";
          on_policy = Some "random";
          on_engine = None;
          action = Emat.Skip "test-skip";
        };
      ];
  }

let tiny_artifact = lazy (Emat.run tiny_spec)

let test_matrix_tiny_run () =
  let a = Lazy.force tiny_artifact in
  Alcotest.(check string) "schema" Emat.schema_version a.Emat.schema;
  Alcotest.(check int) "2x2x2 cells" 8 (List.length a.Emat.cells);
  let skipped, ran =
    List.partition
      (fun (c : Emat.cell) -> c.Emat.status <> Emat.Ran)
      a.Emat.cells
  in
  Alcotest.(check int) "skip rule hits both engines" 2 (List.length skipped);
  List.iter
    (fun (c : Emat.cell) ->
      Alcotest.(check string) "skips are chaos-heavy" "chaos-heavy"
        c.Emat.scenario;
      Alcotest.(check string) "skips are random" "random" c.Emat.policy;
      Alcotest.(check bool) "skipped cells carry no sched result" true
        (c.Emat.sched = None))
    skipped;
  List.iter
    (fun (c : Emat.cell) ->
      Alcotest.(check bool) "budget 0 means no rate" true
        (c.Emat.allocs_per_sec = None && c.Emat.reps = 0);
      match c.Emat.sched with
      | None -> Alcotest.fail "ran cell without sched result"
      | Some s ->
        Alcotest.(check bool) "jobs finished" true (s.Emat.jobs_finished > 0);
        Alcotest.(check bool) "slo present" true (s.Emat.slo <> None);
        Alcotest.(check bool) "makespan positive" true (s.Emat.makespan_s > 0.0);
        Alcotest.(check bool) "goodput in (0,1]" true
          (s.Emat.goodput > 0.0 && s.Emat.goodput <= 1.0);
        let allocs =
          match List.assoc_opt "core.allocations" s.Emat.counters with
          | Some v -> v
          | None -> -1.0
        in
        Alcotest.(check bool) "core.allocations counted" true (allocs > 0.0);
        if c.Emat.scenario = "chaos-heavy" then
          Alcotest.(check bool) "chaos cells saw faults" true
            (s.Emat.faults_injected > 0))
    ran;
  (* the engine axis shares one scheduler run per (scenario, policy) *)
  let naive =
    List.find
      (fun (c : Emat.cell) ->
        c.Emat.scenario = "uniform" && c.Emat.policy = "random"
        && c.Emat.engine = "naive")
      a.Emat.cells
  in
  let dense =
    List.find
      (fun (c : Emat.cell) ->
        c.Emat.scenario = "uniform" && c.Emat.policy = "random"
        && c.Emat.engine = "dense")
      a.Emat.cells
  in
  Alcotest.(check bool) "sched results engine-invariant" true
    (naive.Emat.sched = dense.Emat.sched)

(* Satellite: chaos plans must seed from cell coordinates, never wall
   clock — two runs of the same zero-budget spec are bit-identical. *)
let test_matrix_deterministic_rerun () =
  let a = Lazy.force tiny_artifact in
  let b = Emat.run tiny_spec in
  Alcotest.(check string) "re-run is bit-identical" (Emat.to_string a)
    (Emat.to_string b)

let test_matrix_cell_seed_pinned () =
  Alcotest.(check int) "chaos-heavy/random/naive @ seed 83" 185284584
    (Emat.cell_seed ~seed:83 ~scenario:"chaos-heavy" ~policy:"random"
       ~engine:"naive");
  Alcotest.(check int) "uniform/network-load-aware/dense @ seed 83" 824096403
    (Emat.cell_seed ~seed:83 ~scenario:"uniform"
       ~policy:"network-load-aware" ~engine:"dense");
  Alcotest.(check bool) "coordinates change the seed" true
    (Emat.cell_seed ~seed:1 ~scenario:"a" ~policy:"b" ~engine:"c"
    <> Emat.cell_seed ~seed:1 ~scenario:"a" ~policy:"b" ~engine:"d")

let test_matrix_spec_validation () =
  let bad l = match Emat.validate_spec l with Ok () -> false | Error _ -> true in
  Alcotest.(check bool) "quick spec valid" true
    (Emat.validate_spec Emat.quick_spec = Ok ());
  Alcotest.(check bool) "full spec valid" true
    (Emat.validate_spec Emat.full_spec = Ok ());
  Alcotest.(check bool) "unknown scenario rejected" true
    (bad { tiny_spec with Emat.scenarios = [ "marsupial" ] });
  Alcotest.(check bool) "unknown policy rejected" true
    (bad { tiny_spec with Emat.policies = [ "psychic" ] });
  Alcotest.(check bool) "unknown engine rejected" true
    (bad { tiny_spec with Emat.engines = [ "dense-par4" ] });
  Alcotest.(check bool) "empty axis rejected" true
    (bad { tiny_spec with Emat.engines = [] });
  Alcotest.(check bool) "zero jobs rejected" true
    (bad
       {
         tiny_spec with
         Emat.budget = { Emat.alloc_budget_s = 0.0; job_count = 0 };
       })

(* --- gate semantics, on hand-built artifacts --------------------------- *)

let mk_cell ?(status = Emat.Ran) ?rate ?(finished = 3) ?(goodput = 1.0)
    ~scenario ~policy ~engine () =
  {
    Emat.scenario;
    policy;
    engine;
    status;
    allocs_per_sec = rate;
    reps = (match rate with Some _ -> 100 | None -> 0);
    sched =
      (match status with
      | Emat.Skipped _ -> None
      | Emat.Ran ->
        Some
          {
            Emat.jobs_finished = finished;
            rejected = 0;
            requeues = 1;
            faults_injected = 2;
            makespan_s = 1200.0;
            goodput;
            mean_turnaround_s = 300.5;
            slo =
              Some
                {
                  Emat.wait_p50 = 1.0;
                  wait_p90 = 2.0;
                  wait_p99 = 3.0;
                  mean_wait_s = 1.5;
                  max_queue_depth = 4;
                  mean_queue_depth = 1.25;
                };
            counters = [ ("core.allocations", 42.0) ];
          });
  }

let mk_artifact ?(cores = 8) cells =
  {
    Emat.schema = Emat.schema_version;
    spec = { tiny_spec with Emat.rules = [] };
    cores;
    cells;
  }

let test_matrix_gate () =
  let base =
    mk_artifact
      [
        mk_cell ~rate:100.0 ~scenario:"uniform" ~policy:"random"
          ~engine:"naive" ();
        mk_cell ~rate:100.0 ~scenario:"uniform" ~policy:"random"
          ~engine:"dense" ();
      ]
  in
  let same = mk_artifact [ mk_cell ~rate:90.0 ~scenario:"uniform"
                             ~policy:"random" ~engine:"naive" () ] in
  (* identical → pass; missing dense cell → skip *)
  let gated = Emat.gate ~baseline:base ~current:same () in
  Alcotest.(check int) "one entry per baseline cell" 2 (List.length gated);
  Alcotest.(check bool) "gate ok" true (Emat.gate_ok gated);
  Alcotest.(check bool) "missing cell skipped" true
    (List.exists
       (fun (g : Emat.gated) ->
         g.Emat.g_engine = "dense"
         && match g.Emat.verdict with Emat.Skip_gate _ -> true | _ -> false)
       gated);
  (* rate collapse past the ratio → fail *)
  let slow = mk_artifact [ mk_cell ~rate:10.0 ~scenario:"uniform"
                             ~policy:"random" ~engine:"naive" () ] in
  Alcotest.(check bool) "2x ratio catches a 10x collapse" false
    (Emat.gate_ok (Emat.gate ~baseline:base ~current:slow ()));
  Alcotest.(check bool) "wider ratio tolerates it" true
    (Emat.gate_ok (Emat.gate ~ratio:20.0 ~baseline:base ~current:slow ()));
  (* differing core counts: rates not compared ... *)
  let slow_elsewhere =
    mk_artifact ~cores:4
      [ mk_cell ~rate:10.0 ~scenario:"uniform" ~policy:"random"
          ~engine:"naive" () ]
  in
  Alcotest.(check bool) "cores mismatch skips the rate gate" true
    (Emat.gate_ok (Emat.gate ~baseline:base ~current:slow_elsewhere ()));
  (* ... but deterministic fields still gate *)
  let dropped_jobs =
    mk_artifact ~cores:4
      [ mk_cell ~rate:100.0 ~finished:1 ~scenario:"uniform" ~policy:"random"
          ~engine:"naive" () ]
  in
  Alcotest.(check bool) "fewer finished jobs fails across cores" false
    (Emat.gate_ok (Emat.gate ~baseline:base ~current:dropped_jobs ()));
  let leaky =
    mk_artifact
      [ mk_cell ~rate:100.0 ~goodput:0.5 ~scenario:"uniform" ~policy:"random"
          ~engine:"naive" () ]
  in
  Alcotest.(check bool) "goodput drop past 0.1 fails" false
    (Emat.gate_ok (Emat.gate ~baseline:base ~current:leaky ()))

(* --- artifact codec: qcheck encode → decode → encode fixpoint ---------- *)

let qcheck = QCheck_alcotest.to_alcotest

let name_gen = QCheck.Gen.oneofl [ "uniform"; "hotspot"; "chaos-heavy"; "x" ]
let pos_float_gen = QCheck.Gen.float_bound_inclusive 1.0e6

let budget_gen =
  QCheck.Gen.(
    let* alloc_budget_s = pos_float_gen in
    let* job_count = 1 -- 50 in
    return { Emat.alloc_budget_s; job_count })

let rule_gen =
  QCheck.Gen.(
    let* on_scenario = opt name_gen in
    let* on_policy = opt name_gen in
    let* on_engine = opt name_gen in
    let* action =
      oneof
        [
          map (fun s -> Emat.Skip s) name_gen;
          map (fun b -> Emat.Budget b) budget_gen;
        ]
    in
    return { Emat.on_scenario; on_policy; on_engine; action })

let spec_gen =
  QCheck.Gen.(
    let* spec_name = name_gen in
    let* seed = 0 -- 10_000 in
    let* scenarios = list_size (1 -- 3) name_gen in
    let* policies = list_size (1 -- 3) name_gen in
    let* engines = list_size (1 -- 3) name_gen in
    let* budget = budget_gen in
    let* rules = list_size (0 -- 3) rule_gen in
    return { Emat.spec_name; seed; scenarios; policies; engines; budget; rules })

let slo_gen =
  QCheck.Gen.(
    let* wait_p50 = pos_float_gen in
    let* wait_p90 = pos_float_gen in
    let* wait_p99 = pos_float_gen in
    let* mean_wait_s = pos_float_gen in
    let* max_queue_depth = 0 -- 100 in
    let* mean_queue_depth = pos_float_gen in
    return
      {
        Emat.wait_p50; wait_p90; wait_p99; mean_wait_s; max_queue_depth;
        mean_queue_depth;
      })

let sched_gen =
  QCheck.Gen.(
    let* jobs_finished = 0 -- 50 in
    let* rejected = 0 -- 10 in
    let* requeues = 0 -- 10 in
    let* faults_injected = 0 -- 10 in
    let* makespan_s = pos_float_gen in
    let* goodput = float_bound_inclusive 1.0 in
    let* mean_turnaround_s = pos_float_gen in
    let* slo = opt slo_gen in
    let* counters = list_size (0 -- 4) (pair name_gen pos_float_gen) in
    return
      {
        Emat.jobs_finished; rejected; requeues; faults_injected; makespan_s;
        goodput; mean_turnaround_s; slo; counters;
      })

let cell_gen =
  QCheck.Gen.(
    let* scenario = name_gen in
    let* policy = name_gen in
    let* engine = name_gen in
    let* skipped = opt name_gen in
    match skipped with
    | Some reason ->
      return
        {
          Emat.scenario; policy; engine;
          status = Emat.Skipped reason;
          allocs_per_sec = None;
          reps = 0;
          sched = None;
        }
    | None ->
      let* allocs_per_sec = opt pos_float_gen in
      let* reps = 0 -- 10_000 in
      let* sched = opt sched_gen in
      return
        { Emat.scenario; policy; engine; status = Emat.Ran; allocs_per_sec;
          reps; sched })

let artifact_gen =
  QCheck.Gen.(
    let* spec = spec_gen in
    let* cores = 1 -- 256 in
    let* cells = list_size (0 -- 8) cell_gen in
    return { Emat.schema = Emat.schema_version; spec; cores; cells })

(* Counters decode through an assoc list, so duplicate keys would be
   ambiguous; the runner never emits them and neither does the
   generator (dedup below). Floats are finite by construction — the
   emitter turns non-finite into null. *)
let dedup_counters (a : Emat.artifact) =
  let dedup l =
    List.fold_left
      (fun acc (k, v) -> if List.mem_assoc k acc then acc else acc @ [ (k, v) ])
      [] l
  in
  {
    a with
    Emat.cells =
      List.map
        (fun (c : Emat.cell) ->
          {
            c with
            Emat.sched =
              Option.map
                (fun s -> { s with Emat.counters = dedup s.Emat.counters })
                c.Emat.sched;
          })
        a.Emat.cells;
  }

let prop_matrix_artifact_roundtrip =
  QCheck.Test.make ~name:"matrix artifact encode/decode/encode is a fixpoint"
    ~count:200
    (QCheck.make artifact_gen)
    (fun a ->
      let a = dedup_counters a in
      let s = Emat.to_string a in
      match Emat.of_string s with
      | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m
      | Ok b ->
        if Emat.to_string b <> s then
          QCheck.Test.fail_reportf "re-encode differs:\n%s\nvs\n%s" s
            (Emat.to_string b)
        else true)

let test_matrix_decode_errors () =
  let err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "garbage" true (err (Emat.of_string "nonsense"));
  Alcotest.(check bool) "wrong schema" true
    (err (Emat.of_string "{\"schema\":\"rm-matrix/v0\"}"));
  Alcotest.(check bool) "missing fields" true
    (err (Emat.of_string "{\"schema\":\"rm-matrix/v1\"}"))

(* --- dashboard --------------------------------------------------------- *)

let test_dashboard_renders () =
  let current =
    mk_artifact
      [
        mk_cell ~rate:100.0 ~scenario:"uniform" ~policy:"random"
          ~engine:"naive" ();
        mk_cell ~rate:400.0 ~scenario:"uniform" ~policy:"random"
          ~engine:"dense" ();
        mk_cell
          ~status:(Emat.Skipped "why not")
          ~scenario:"chaos-heavy" ~policy:"random" ~engine:"naive" ();
      ]
  in
  let baseline = mk_artifact [ mk_cell ~rate:1_000_000.0 ~scenario:"uniform"
                                 ~policy:"random" ~engine:"naive" () ] in
  let bench_allocator =
    Rm_telemetry.Json.of_string
      {|{"schema":"rm-bench-allocator/v1","rows":[
         {"v":60,"policy":"network-load-aware","engine":"dense-warm","allocs_per_sec":1000.0,"reps":10},
         {"v":1024,"policy":"network-load-aware","engine":"dense-warm","allocs_per_sec":50.0,"reps":10}]}|}
  in
  let bench_serve =
    Rm_telemetry.Json.of_string
      {|{"schema":"rm-bench-serve/v1","speedup":3.5,"rows":[
         {"mode":"batched","allocs_per_sec":1700.0,"p50_ms":18.0,"p99_ms":50.0}]}|}
  in
  let input =
    Dash.make
      ~history:[ ("old", baseline) ]
      ~baseline ~ratio:2.0 ~bench_allocator ~bench_serve ~current ()
  in
  let md = Dash.markdown input in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "markdown has %S" needle) true
        (contains md needle))
    [
      "RM perf dashboard"; "## Cells"; "Heatmaps"; "Baseline gate";
      "FAIL uniform/random/naive"; "Trends across runs";
      "Allocator scaling (BENCH_allocator.json"; "dense-warm";
      "Serve daemon (BENCH_serve.json"; "batched speedup: 3.50x";
      "skipped: why not"; "Cells CSV";
    ];
  let html = Dash.html input in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "html has %S" needle) true
        (contains html needle))
    [
      "<!DOCTYPE html>"; "badge fail"; "Heatmaps"; "dense-warm";
      "batched speedup: 3.50x"; "</html>";
    ];
  (* the failing gate the renderers annotate is the one gate computes *)
  Alcotest.(check bool) "verdicts expose the regression" false
    (Emat.gate_ok (Dash.verdicts input));
  (* no baseline → no gating, renders clean *)
  let ungated = Dash.make ~current () in
  Alcotest.(check int) "no baseline, no verdicts" 0
    (List.length (Dash.verdicts ungated));
  Alcotest.(check bool) "ungated markdown renders" true
    (contains (Dash.markdown ungated) "nothing gated")

let suites =
  [
    ( "experiments.render",
      [
        Alcotest.test_case "table alignment" `Quick test_render_table_alignment;
        Alcotest.test_case "table ragged" `Quick test_render_table_ragged;
        Alcotest.test_case "sparkline" `Quick test_render_sparkline;
        Alcotest.test_case "heatmap scale" `Quick test_render_heatmap_scale;
      ] );
    ( "experiments.harness",
      [
        Alcotest.test_case "warm populates monitor" `Quick
          test_harness_warm_populates_monitor;
        Alcotest.test_case "run app" `Quick test_harness_run_app;
        Alcotest.test_case "compare runs all" `Quick
          test_harness_compare_runs_all_policies;
        Alcotest.test_case "gains math" `Quick test_harness_gains;
        Alcotest.test_case "time advances" `Quick test_harness_time_advances;
      ] );
    ( "experiments.e2e",
      [
        Alcotest.test_case "ours beats random" `Slow test_e2e_nl_aware_beats_random;
      ] );
    ( "experiments.sweep",
      [
        Alcotest.test_case "records complete" `Quick test_sweep_records_complete;
        Alcotest.test_case "renders" `Quick test_sweep_renders;
        Alcotest.test_case "gains finite" `Quick test_sweep_gains_finite;
        Alcotest.test_case "csv export" `Quick test_sweep_csv;
        Alcotest.test_case "csv quoting" `Quick test_render_csv_quoting;
      ] );
    ( "experiments.queue",
      [
        Alcotest.test_case "queue study" `Slow test_queue_study_structure;
        Alcotest.test_case "interference" `Slow test_interference_structure;
      ] );
    ( "experiments.chaos",
      [
        Alcotest.test_case "off matches baseline" `Slow
          test_chaos_off_matches_baseline;
        Alcotest.test_case "heavy terminates every job" `Slow
          test_chaos_heavy_terminates_every_job;
        Alcotest.test_case "rows and render" `Slow test_chaos_rows_and_render;
      ] );
    ( "experiments.figures",
      [
        Alcotest.test_case "fig1 traces" `Quick test_traces_structure;
        Alcotest.test_case "fig2 bandwidth map" `Quick test_bandwidth_map_structure;
      ] );
    ( "experiments.matrix",
      [
        Alcotest.test_case "tiny run covers the grid" `Slow test_matrix_tiny_run;
        Alcotest.test_case "zero-budget rerun is bit-identical" `Slow
          test_matrix_deterministic_rerun;
        Alcotest.test_case "cell seeds pinned" `Quick
          test_matrix_cell_seed_pinned;
        Alcotest.test_case "spec validation" `Quick test_matrix_spec_validation;
        Alcotest.test_case "baseline gate semantics" `Quick test_matrix_gate;
        Alcotest.test_case "decode errors are Errors" `Quick
          test_matrix_decode_errors;
      ]
      @ [ qcheck prop_matrix_artifact_roundtrip ] );
    ( "experiments.dashboard",
      [ Alcotest.test_case "markdown and html render" `Quick
          test_dashboard_renders ] );
  ]
