(* The batch-day workload: `Scheduler` with the paper-default broker
   (network-and-load-aware, time-shared nodes) on the 60-node IIT-K
   cluster over a simulated working day of seeded miniMD/miniFE
   arrivals. The timed operation is one simulated minute
   (`Sim.run_until`). Every round is a fresh day from a fresh set-up on
   the same inputs, so every round must make the same decisions. *)

module Sim = Rm_engine.Sim
module Rng = Rm_stats.Rng
module Cluster = Rm_cluster.Cluster
module World = Rm_workload.World
module Scenario = Rm_workload.Scenario
module System = Rm_monitor.System
module Scheduler = Rm_sched.Scheduler
module Request = Rm_core.Request
module Allocation = Rm_core.Allocation
module Executor = Rm_mpisim.Executor
module App = Rm_mpisim.App
module Model_cache = Rm_core.Model_cache
module Json = Rm_telemetry.Json
module M = Measure

(* The cluster's own background (world and monitor seeds) is fixed; the
   job stream comes from the workload seed. *)
let world_seed = 2020
let ppn = 4
let slice_s = 60.0
let gap_s = 240.0
let horizon_s = 86_400.0
let tail_p = 0.9
let setups = 3

type kind = Md of int | Fe of int

type job = { name : string; kind : kind; procs : int; at : float }

(* Paper problem sizes. Step counts are scaled per size so every job
   runs for roughly 20-30 simulated minutes at 16 procs: long enough
   that jobs overlap, and no single size dominates the day's mean. *)
let app_of kind ~ranks =
  match kind with
  | Md s ->
    let steps = match s with 24 -> 150_000 | 32 -> 100_000 | _ -> 35_000 in
    Rm_apps.Minimd.app ~config:{ (Rm_apps.Minimd.default_config ~s) with steps } ~ranks
  | Fe nx ->
    let cg_iterations = match nx with 144 -> 100_000 | 256 -> 25_000 | _ -> 12_000 in
    Rm_apps.Minife.app
      ~config:{ (Rm_apps.Minife.default_config ~nx) with cg_iterations }
      ~ranks

(* 48 jobs: three sizes of each app, each at 8, 16, 32 and 64 procs,
   twice over, arriving one every [gap_s] from a minute after the
   monitor's warm-up. They come in eight waves of six, one job of each
   size per wave, so the day's load profile is alike for every seed;
   the seed orders each wave and decides which wave runs each size at
   which process count. *)
let kinds = [| Md 24; Md 32; Md 48; Fe 144; Fe 256; Fe 384 |]
let procs_choices = [| 8; 16; 32; 64 |]
let repeats = 2

let jobs ~seed ~warm =
  let rng = Rng.create seed in
  let waves () =
    let procs_of =
      Array.map
        (fun _ ->
          let p = Array.copy procs_choices in
          Rng.shuffle rng p;
          p)
        kinds
    in
    List.concat
      (List.init (Array.length procs_choices) (fun wave ->
           let order = Array.init (Array.length kinds) Fun.id in
           Rng.shuffle rng order;
           Array.to_list order |> List.map (fun k -> (kinds.(k), procs_of.(k).(wave)))))
  in
  List.concat (List.init repeats (fun _ -> waves ()))
  |> List.mapi (fun i (kind, procs) ->
         {
           name = Printf.sprintf "job%02d" i;
           kind;
           procs;
           at = warm +. slice_s +. (float_of_int i *. gap_s);
         })

type day = { sim : Sim.t; world : World.t; sched : Scheduler.t; ids : (int * job) list }

(* Set-up: world, monitor warm-up and scheduler, then every submission
   (each scheduled at its arrival time on the simulation). *)
let set_up ~seed ?(on_world = fun f -> f ()) ?(on_monitor = fun f -> f ())
    ?(on_sched = fun f -> f ()) ?(on_submit = fun f -> f ()) () =
  let sim = Sim.create () in
  let world =
    on_world (fun () ->
        World.create ~cluster:(Cluster.iitk_reference ()) ~scenario:Scenario.normal
          ~seed:world_seed)
  in
  let rng = Rng.create (world_seed + 5) in
  let warm = System.warm_up_s System.default_cadence in
  let monitor =
    on_monitor (fun () ->
        let m = System.start ~sim ~world ~rng ~until:horizon_s () in
        Sim.run_until sim warm;
        m)
  in
  let sched =
    on_sched (fun () -> Scheduler.create ~sim ~world ~monitor ~rng ~horizon:horizon_s ())
  in
  let ids =
    List.map
      (fun j ->
        ( on_submit (fun () ->
              Scheduler.submit sched ~name:j.name ~at:j.at
                ~request:(Request.make ~ppn ~alpha:0.5 ~procs:j.procs ())
                ~app_of:(app_of j.kind) ()),
          j ))
      (jobs ~seed ~warm)
  in
  { sim; world; sched; ids }

(* Minutes until every job has finished; each minute's wall time is a
   sample. *)
let run_day ?(on_slice = fun f -> f ()) d =
  let n = List.length d.ids in
  let samples = ref [] in
  while List.length (Scheduler.finished d.sched) < n && Sim.now d.sim < horizon_s do
    let t0 = M.now () in
    on_slice (fun () -> Sim.run_until d.sim (Sim.now d.sim +. slice_s));
    samples := (M.now () -. t0) :: !samples
  done;
  !samples

(* Fastest single-rank compute rate on the cluster: one core's share of
   the fastest node's Node.flops_per_sec. *)
let fastest_rank_flops =
  lazy
    (Array.fold_left
       (fun acc (node : Rm_cluster.Node.t) ->
         Float.max acc
           (Rm_cluster.Node.flops_per_sec node /. float_of_int node.Rm_cluster.Node.cores))
       0.0
       (Cluster.nodes (Cluster.iitk_reference ())))

(* A lower bound on a job's simulated run time: the slowest rank's flops
   at the fastest rate, over the steps the estimator samples,
   extrapolated to every step the same way the estimator does. *)
let compute_bound_s (app : App.t) =
  let sample = min 64 app.App.iterations in
  let flops = ref 0.0 in
  for iter = 0 to sample - 1 do
    let phase = app.App.phase ~iter in
    let worst = ref 0.0 in
    for r = 0 to app.App.ranks - 1 do
      worst := Float.max !worst (phase.App.flops_per_rank r)
    done;
    flops := !flops +. !worst
  done;
  !flops /. float_of_int sample *. float_of_int app.App.iterations
  /. Lazy.force fastest_rank_flops

(* Check every job of a finished day, and digest its decisions. *)
let check_day checks d =
  let digest = M.digest () in
  let runtimes =
    List.map
      (fun (id, j) ->
        let violations, runtime =
          match Scheduler.state d.sched id with
          | Scheduler.Finished o ->
            let runtime = o.Scheduler.finished_at -. o.started_at in
            M.add digest j.name;
            M.add_float digest o.started_at;
            M.add_float digest o.finished_at;
            M.add digest (String.concat "," (List.map string_of_int o.nodes));
            let bound = compute_bound_s (app_of j.kind ~ranks:j.procs) in
            ( List.concat
                [
                  (if o.submitted_at <= o.started_at && o.started_at < o.finished_at then []
                   else
                     [
                       Printf.sprintf "times out of order: submit %.1f start %.1f finish %.1f"
                         o.submitted_at o.started_at o.finished_at;
                     ]);
                  (if o.procs = j.procs then []
                   else [ Printf.sprintf "ran on %d procs, requested %d" o.procs j.procs ]);
                  (if o.submitted_at = j.at then []
                   else [ Printf.sprintf "submitted at %.1f, due at %.1f" o.submitted_at j.at ]);
                  (if runtime >= bound then []
                   else
                     [
                       Printf.sprintf "ran %.3f s, below its compute-only bound %.3f s" runtime
                         bound;
                     ]);
                ],
              runtime )
          | Scheduler.Rejected why -> ([ "rejected: " ^ why ], nan)
          | _ -> ([ "did not finish by the end of the day" ], nan)
        in
        M.record checks ~what:j.name violations;
        runtime)
      d.ids
  in
  (M.hex digest, M.mean (List.filter Float.is_finite runtimes))

let untraced ~entry ~seed ~seconds =
  let checks = M.checks () in
  let setup_samples = ref [] in
  let fresh_day () =
    (* later set-ups start from a compacted heap, like the first *)
    if !setup_samples <> [] then Gc.compact ();
    let t0 = if !setup_samples = [] then entry else M.now () in
    let d = set_up ~seed () in
    setup_samples := (M.now () -. t0) :: !setup_samples;
    d
  in
  for _ = 2 to setups do
    ignore (fresh_day () : day)
  done;
  let slices = ref [] and digests = ref [] and runtime = ref nan in
  let started = M.now () in
  while !digests = [] || M.now () -. started < seconds do
    let d = fresh_day () in
    let day_slices = run_day d in
    slices := day_slices @ !slices;
    checks.M.attempted <- checks.M.attempted + List.length day_slices;
    let digest, mean_runtime = check_day checks d in
    (match !digests with
    | [] -> runtime := mean_runtime
    | first :: _ ->
      M.record checks ~what:"repeat day"
        (if digest = first then []
         else [ Printf.sprintf "day digest %s differs from the first day's %s" digest first ]));
    digests := !digests @ [ digest ]
  done;
  let sorted = M.sorted !slices in
  let busy = Array.fold_left ( +. ) 0.0 sorted in
  {
    M.checks;
    metrics =
      [
        M.metric "setup_s" "s" (M.median !setup_samples);
        M.metric "op_p50_ms" "ms" (M.ms (M.percentile sorted 0.5));
        M.metric "op_tail_ms" "ms" (M.ms (M.percentile sorted tail_p));
        M.metric "ops_per_s" "1/s" (float_of_int (Array.length sorted) /. busy);
        M.metric "job_runtime_s" "s" !runtime;
        M.metric "peak_rss_mb" "MB" (M.peak_rss_mb ());
      ];
    info =
      [
        ("digest", Json.Str (List.hd !digests));
        ("days", Json.Num (float_of_int (List.length !digests)));
        ("minute_samples", Json.Num (float_of_int (Array.length sorted)));
        ("tail_percentile", Json.Num tail_p);
        ("tail_beyond", Json.Num (float_of_int (M.beyond ~n:(Array.length sorted) tail_p)));
        ( "setup_samples_s",
          Json.Arr (List.rev_map (fun x -> Json.Num x) !setup_samples) );
      ];
  }

(* The allocation a finished job ran on, rebuilt from its node list with
   its ranks spread in block order — what the benchmark prices. *)
let placement_of (o : Scheduler.outcome) =
  let n = List.length o.Scheduler.nodes in
  Allocation.make ~policy:"replayed"
    ~entries:
      (List.mapi
         (fun i node ->
           { Allocation.node; procs = (o.procs / n) + if i < o.procs mod n then 1 else 0 })
         o.nodes)

let traced ~seed ~seconds:_ =
  let checks = M.checks () in
  (* Reference: one untraced day. *)
  let reference = set_up ~seed () in
  ignore (run_day reference : float list);
  let digest, _ = check_day checks reference in
  (* The traced day. *)
  let tr = Tracer.create () in
  let world_ms = ref 0.0 and monitor_ms = ref 0.0 and sched_ms = ref 0.0 in
  Model_cache.clear ();
  Rm_telemetry.Metrics.reset ();
  Rm_telemetry.Runtime.enable ();
  let hits0 = Model_cache.hits () and misses0 = Model_cache.misses () in
  let slice = ref 0 in
  let d =
    set_up ~seed ~on_world:(M.timed_ms world_ms) ~on_monitor:(M.timed_ms monitor_ms)
      ~on_sched:(M.timed_ms sched_ms)
      ~on_submit:(fun f -> Tracer.span tr "sched.submit" f)
      ()
  in
  ignore
    (run_day d ~on_slice:(fun f ->
         incr slice;
         Tracer.span tr ~req:!slice "engine.run_until" f)
      : float list);
  let hits = Model_cache.hits () - hits0 and misses = Model_cache.misses () - misses0 in
  let registry = Layers.registry in
  let counters =
    [
      ("monitor.capture.calls", registry "monitor.snapshot.captures");
      ( "core.decide.calls",
        registry "core.broker.allocated" +. registry "core.broker.wait"
        +. registry "core.broker.errors" );
      ("core.decide.ms", 1000.0 *. registry "core.allocate.wall_s");
      ("core.decide.rebuilds", float_of_int misses);
      ("core.model_cache.hits", float_of_int hits);
      ("core.model_cache.misses", float_of_int misses);
      ("core.nl.delta_applied", registry "core.nl.delta_applied");
      ("core.nl.delta_invalidated", registry "core.nl.delta_invalidated");
      ("sched.jobs_dispatched", registry "sched.jobs_dispatched");
      ("monitor.daemon.ticks", registry "monitor.daemon.ticks");
      ("monitor.store.pair_writes", registry "monitor.store.pair_writes");
    ]
  in
  Rm_telemetry.Runtime.disable ();
  let traced_digest, mean_runtime = check_day checks d in
  (* Price every finished job's placement the way the scheduler does at
     dispatch, against the day's world. *)
  List.iter
    (fun (o : Scheduler.outcome) ->
      let j = List.assoc o.Scheduler.job d.ids in
      ignore
        (Tracer.span tr "mpisim.estimate" (fun () ->
             Executor.estimate_duration_s ~world:d.world ~allocation:(placement_of o)
               ~app:(app_of j.kind ~ranks:o.procs) ())
          : float))
    (Scheduler.finished d.sched);
  if digest <> traced_digest then
    Printf.eprintf
      "perfbench: traced day digest %s differs from the untraced %s; per-layer figures are stale\n%!"
      traced_digest digest;
  let trace_path = Printf.sprintf "%s/trace-batch-day-%d.json" M.out_dir seed in
  M.ensure_dir M.out_dir;
  Tracer.write tr ~path:trace_path;
  {
    M.checks;
    metrics =
      Layers.complete
        (Layers.of_spans tr
        @ counters
        @ [
            ("setup.world.ms", !world_ms);
            ("setup.monitor.ms", !monitor_ms);
            ("setup.daemon.ms", !sched_ms);
          ]);
    info =
      [
        ("digest", Json.Str digest);
        ("traced_digest", Json.Str traced_digest);
        ("per_layer_stale", Json.Bool (digest <> traced_digest));
        ("job_runtime_s", Json.Num mean_runtime);
        ("trace_file", Json.Str trace_path);
        ( "self_time_shares",
          Json.Obj (List.map (fun (n, s) -> (n, Json.Num s)) (Tracer.shares tr)) );
      ];
  }
