(* rmctl — command-line front end to the resource manager on a simulated
   shared cluster.

     rmctl cluster                         describe the reference cluster
     rmctl snapshot   [opts]               monitor view at a point in time
     rmctl allocate   [opts]               one allocation decision
     rmctl compare    [opts]               run one job under all policies
     rmctl run        [opts]               allocate and execute one job
     rmctl forecast   [opts]               NWS-style forecaster demo
     rmctl record     [opts]               record a workload trace to CSV
     rmctl replay     [opts]               allocate against a recorded trace
     rmctl sched      JOBS.csv [opts]      run a job file through the scheduler
     rmctl chaos      [opts]               scheduler vs. a fault plan (node churn, outages)
     rmctl malleable  [opts]               rigid vs. grow/shrink malleability study
     rmctl explain    [opts]               audit one allocation decision
     rmctl metrics    [opts]               run a job with telemetry on, dump metrics
     rmctl serve      [opts]               resident allocation daemon (brokerd)
     rmctl slo        [opts]               per-policy scheduler SLO comparison
     rmctl check-export [opts]             validate exported trace / metrics files
     rmctl matrix     [opts]               run the scenario x policy x engine matrix
     rmctl dashboard  MATRIX.json [opts]   render an existing matrix artifact

   Every command simulates from scratch (deterministic in --seed), so
   invocations are reproducible and independent — except `serve`, which
   stays resident and keeps advancing its world until stopped. *)

open Cmdliner

module Sim = Rm_engine.Sim
module Cluster = Rm_cluster.Cluster
module Topology = Rm_cluster.Topology
module World = Rm_workload.World
module Scenario = Rm_workload.Scenario
module System = Rm_monitor.System
module Snapshot = Rm_monitor.Snapshot
module Policies = Rm_core.Policies
module Broker = Rm_core.Broker
module Request = Rm_core.Request
module Allocation = Rm_core.Allocation
module Weights = Rm_core.Weights
module Compute_load = Rm_core.Compute_load
module Executor = Rm_mpisim.Executor
module Telemetry = Rm_telemetry

(* --- common options -------------------------------------------------- *)

let scenario_t =
  Arg.(value & opt Cli_conv.scenario Scenario.normal
       & info [ "scenario" ] ~docv:"NAME" ~doc:"Background workload scenario.")

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let time_t =
  Arg.(value & opt float 1200.0
       & info [ "time" ] ~docv:"SECONDS"
           ~doc:"Simulated time at which to act (monitor warm-up is ~960s).")

let procs_t =
  Arg.(value & opt Cli_conv.positive_int 32
       & info [ "procs"; "n" ] ~docv:"N" ~doc:"Process count.")

let ppn_t =
  Arg.(value & opt (some Cli_conv.positive_int) (Some 4)
       & info [ "ppn" ] ~docv:"N" ~doc:"Processes per node (omit to use Eq. 3).")

let unit_float =
  Cli_conv.checked Arg.float ~expected:"a number in [0, 1]" (fun a ->
      a >= 0.0 && a <= 1.0)

let alpha_t =
  Arg.(value & opt unit_float 0.3
       & info [ "alpha" ] ~docv:"A" ~doc:"Eq. 4 compute weight; beta = 1 - alpha.")

let policy_t =
  Arg.(value & opt Cli_conv.policy Policies.Network_load_aware
       & info [ "policy" ] ~docv:"NAME"
           ~doc:"random | sequential | load-aware | network-load-aware.")

let app_t =
  Arg.(value & opt (enum [ ("minimd", `Md); ("minife", `Fe) ]) `Md
       & info [ "app" ] ~docv:"APP" ~doc:"minimd or minife.")

let size_t =
  Arg.(value & opt Cli_conv.positive_int 16
       & info [ "size" ] ~docv:"S" ~doc:"miniMD box edge s, or miniFE nx.")

(* Evaluates to () after setting the process-wide Dense_alloc starts
   mode, so commands list it like any other option; the dense candidate
   sweep (and everything built on it: broker, scheduler) picks it up. *)
let knobs_t =
  Term.(
    const (Option.iter Rm_core.Dense_alloc.set_default_starts)
    $ Arg.(
        value
        & opt (some Cli_conv.starts) None
        & info [ "starts" ] ~docv:"K"
            ~doc:
              "Candidate start nodes for the network-load-aware sweep: \
               $(b,all) (exhaustive, the default; also \
               $(b,RM_ALLOC_STARTS)) or a positive count K to expand \
               only the top-K starts by the O(V) CL+degree proxy score. \
               Pruning trades a bounded score regret for an up-to-V/K \
               speedup."))

(* --- environment ------------------------------------------------------ *)

let make_env ~scenario ~seed ~time =
  let cluster = Cluster.iitk_reference () in
  let sim = Sim.create () in
  let world = World.create ~cluster ~scenario ~seed in
  let rng = Rm_stats.Rng.create (seed + 1) in
  let monitor = System.start ~sim ~world ~rng ~until:(time +. 86_400.0) () in
  Sim.run_until sim time;
  World.advance world ~now:time;
  (cluster, sim, world, monitor, rng)

let app_of kind size ~ranks =
  match kind with
  | `Md -> Rm_apps.Minimd.app ~config:(Rm_apps.Minimd.default_config ~s:size) ~ranks
  | `Fe -> Rm_apps.Minife.app ~config:(Rm_apps.Minife.default_config ~nx:size) ~ranks

(* --- cluster ----------------------------------------------------------- *)

let cluster_cmd =
  let run () =
    let cluster = Cluster.iitk_reference () in
    Format.printf "%a@.@." Cluster.pp cluster;
    let topo = Cluster.topology cluster in
    for s = 0 to Topology.switch_count topo - 1 do
      let members = Topology.nodes_of_switch topo s in
      Format.printf "switch %d (%d nodes):@." s (List.length members);
      List.iter
        (fun i -> Format.printf "  %a@." Rm_cluster.Node.pp (Cluster.node cluster i))
        members
    done
  in
  Cmd.v (Cmd.info "cluster" ~doc:"Describe the reference cluster.")
    Term.(const run $ const ())

(* --- snapshot ------------------------------------------------------------ *)

let snapshot_cmd =
  let run scenario seed time =
    let cluster, _sim, _world, monitor, _rng = make_env ~scenario ~seed ~time in
    let snap = System.snapshot monitor ~time in
    let loads = Compute_load.of_snapshot snap ~weights:Weights.paper_default in
    let usable = Compute_load.usable loads in
    Format.printf "t=%.0fs scenario=%s usable=%d/%d staleness=%.0fs@.@." time
      scenario.Scenario.name (List.length usable)
      (Cluster.node_count cluster) (Snapshot.max_staleness snap);
    let ranked =
      List.sort
        (fun a b ->
          Float.compare (Compute_load.get loads ~node:a) (Compute_load.get loads ~node:b))
        usable
    in
    let show n =
      match Snapshot.node_info snap n with
      | Some info ->
        Format.printf "  %-9s CL=%.4f load1m=%.2f util=%.0f%% nic=%.1fMB/s users=%d@."
          info.Snapshot.static.Rm_cluster.Node.hostname
          (Compute_load.get loads ~node:n)
          info.Snapshot.load.Rm_stats.Running_means.m1
          info.Snapshot.util_pct.Rm_stats.Running_means.m1
          info.Snapshot.nic_mb_s.Rm_stats.Running_means.m1 info.Snapshot.users
      | None -> ()
    in
    let rec take k = function [] -> [] | x :: r -> if k = 0 then [] else x :: take (k - 1) r in
    Format.printf "best nodes by compute load (Eq. 1):@.";
    List.iter show (take 5 ranked);
    Format.printf "worst nodes:@.";
    List.iter show (take 5 (List.rev ranked));
    Format.printf "@.mean load/core across cluster: %.2f@."
      (Broker.mean_load_per_core snap ~weights:Weights.paper_default)
  in
  Cmd.v (Cmd.info "snapshot" ~doc:"Show the monitor's view of the cluster.")
    Term.(const run $ scenario_t $ seed_t $ time_t)

(* --- allocate --------------------------------------------------------------- *)

let allocate_cmd =
  let run () scenario seed time procs ppn alpha policy wait =
    let _cluster, _sim, _world, monitor, rng = make_env ~scenario ~seed ~time in
    let snap = System.snapshot monitor ~time in
    let request = Request.make ?ppn ~alpha ~procs () in
    let config =
      { Broker.default_config with Broker.policy; wait_threshold = wait }
    in
    Format.printf "%a via %s@." Request.pp request (Policies.name policy);
    match Broker.decide ~config ~snapshot:snap ~request ~rng with
    | Error e -> Format.printf "error: %a@." Allocation.pp_error e
    | Ok (Broker.Wait _ as d) -> Format.printf "%a@." Broker.pp_decision d
    | Ok (Broker.Allocated a) ->
      Format.printf "%a@.@.machinefile:@.%s@.%s@." Allocation.pp a
        (Rm_core.Hostfile.machinefile ~allocation:a ~cluster:_cluster)
        (Rm_core.Hostfile.mpirun_command ~allocation:a ~cluster:_cluster
           ~program:"./app")
  in
  let wait_t =
    Arg.(value & opt (some float) None
         & info [ "wait-threshold" ] ~docv:"LOAD"
             ~doc:"Recommend waiting above this mean load per core.")
  in
  Cmd.v (Cmd.info "allocate" ~doc:"Make one allocation decision.")
    Term.(const run $ knobs_t $ scenario_t $ seed_t $ time_t $ procs_t
          $ ppn_t $ alpha_t $ policy_t $ wait_t)

(* --- run ------------------------------------------------------------------- *)

let run_cmd =
  let run () scenario seed time procs ppn alpha policy app size use_mapping =
    let _cluster, _sim, world, monitor, rng = make_env ~scenario ~seed ~time in
    let snap = System.snapshot monitor ~time in
    let request = Request.make ?ppn ~alpha ~procs () in
    match
      Policies.allocate ~policy ~snapshot:snap ~weights:Weights.paper_default
        ~request ~rng ()
    with
    | Error e -> Format.printf "error: %a@." Allocation.pp_error e
    | Ok allocation ->
      Format.printf "%a@." Allocation.pp allocation;
      let app = app_of app size ~ranks:(Allocation.total_procs allocation) in
      let placement =
        if not use_mapping then None
        else begin
          let m = Rm_mpisim.Mapping.optimize ~app ~allocation in
          Format.printf
            "rank mapping: %.2f -> %.2f inter-node MB/iteration@."
            (m.Rm_mpisim.Mapping.default_inter_bytes /. 1e6)
            (m.Rm_mpisim.Mapping.mapped_inter_bytes /. 1e6);
          Some m.Rm_mpisim.Mapping.placement
        end
      in
      let stats = Executor.run ~world ~allocation ~app ?placement () in
      Format.printf "%a@." Executor.pp_stats stats
  in
  let map_t =
    Arg.(value & flag
         & info [ "map" ] ~doc:"Apply Treematch-style rank mapping before running.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Allocate and execute one MPI job.")
    Term.(const run $ knobs_t $ scenario_t $ seed_t $ time_t $ procs_t
          $ ppn_t $ alpha_t $ policy_t $ app_t $ size_t $ map_t)

(* --- compare ----------------------------------------------------------------- *)

let compare_cmd =
  let run () scenario seed time procs ppn alpha app size =
    let _cluster, sim, world, monitor, rng = make_env ~scenario ~seed ~time in
    Format.printf "%-20s %10s %8s %10s@." "policy" "time (s)" "comm%" "load/core";
    List.iter
      (fun policy ->
        Sim.run_until sim (World.now world);
        let snap = System.snapshot monitor ~time:(World.now world) in
        let request = Request.make ?ppn ~alpha ~procs () in
        match
          Policies.allocate ~policy ~snapshot:snap
            ~weights:Weights.paper_default ~request ~rng ()
        with
        | Error e -> Format.printf "%a@." Allocation.pp_error e
        | Ok allocation ->
          let app = app_of app size ~ranks:(Allocation.total_procs allocation) in
          let stats = Executor.run ~world ~allocation ~app () in
          Format.printf "%-20s %10.3f %8.0f %10.2f@." (Policies.name policy)
            stats.Executor.total_time_s
            (100.0 *. stats.Executor.comm_fraction)
            stats.Executor.mean_load_per_core)
      Policies.all
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run the same job under all four policies in sequence.")
    Term.(const run $ knobs_t $ scenario_t $ seed_t $ time_t $ procs_t
          $ ppn_t $ alpha_t $ app_t $ size_t)

(* --- forecast ----------------------------------------------------------------- *)

let forecast_cmd =
  let run scenario seed node hours =
    let cluster = Cluster.iitk_reference () in
    let world = World.create ~cluster ~scenario ~seed in
    let forecaster = Rm_forecast.Forecaster.create () in
    let period = 60.0 in
    let steps = int_of_float (hours *. 3600.0 /. period) in
    let abs_err = ref 0.0 and scored = ref 0 in
    for i = 1 to steps do
      let now = float_of_int i *. period in
      (match Rm_forecast.Forecaster.predict forecaster with
      | Some p ->
        World.advance world ~now;
        let truth = World.cpu_load world ~node in
        abs_err := !abs_err +. Float.abs (p -. truth);
        incr scored
      | None -> World.advance world ~now);
      Rm_forecast.Forecaster.observe forecaster (World.cpu_load world ~node)
    done;
    Format.printf "node %d CPU load, %d one-minute samples@." node steps;
    (match Rm_forecast.Forecaster.best_model forecaster with
    | Some m ->
      Format.printf "winning model: %s@." (Rm_forecast.Predictor.name m)
    | None -> ());
    Format.printf "adaptive forecaster MAE: %.3f@."
      (!abs_err /. float_of_int (max 1 !scored));
    Format.printf "per-model MAE:@.";
    List.iter
      (fun (m, e) ->
        Format.printf "  %-16s %.3f@." (Rm_forecast.Predictor.name m) e)
      (List.sort
         (fun (_, a) (_, b) -> Float.compare a b)
         (Rm_forecast.Forecaster.errors forecaster))
  in
  let node_t =
    Arg.(value & opt int 0 & info [ "node" ] ~docv:"N" ~doc:"Node to forecast.")
  in
  let hours_t =
    Arg.(value & opt float 6.0 & info [ "hours" ] ~docv:"H" ~doc:"Trace length.")
  in
  Cmd.v
    (Cmd.info "forecast"
       ~doc:"Demo the NWS-style adaptive forecaster on a node's CPU load.")
    Term.(const run $ scenario_t $ seed_t $ node_t $ hours_t)

(* --- record / replay ---------------------------------------------------------- *)

let record_cmd =
  let run scenario seed hours period out =
    let cluster = Cluster.iitk_reference () in
    let world = World.create ~cluster ~scenario ~seed in
    let traces = World.record_traces world ~hours ~period_s:period in
    let csv = Rm_workload.Trace_replay.to_csv traces in
    (match out with
    | None -> print_string csv
    | Some path ->
      let oc = open_out path in
      output_string oc csv;
      close_out oc;
      Format.printf "wrote %s (%d nodes, %.1f h at %.0f s)@." path
        (List.length traces) hours period)
  in
  let hours_t =
    Arg.(value & opt float 2.0 & info [ "hours" ] ~docv:"H" ~doc:"Trace length.")
  in
  let period_t =
    Arg.(value & opt float 60.0 & info [ "period" ] ~docv:"S" ~doc:"Sample period.")
  in
  let out_t =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output CSV (default stdout).")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Record a node-attribute trace of the simulated cluster to CSV.")
    Term.(const run $ scenario_t $ seed_t $ hours_t $ period_t $ out_t)

let replay_cmd =
  let run file time procs ppn alpha policy =
    let ic = open_in file in
    let len = in_channel_length ic in
    let csv = really_input_string ic len in
    close_in ic;
    let traces = Rm_workload.Trace_replay.of_csv csv in
    let cluster = Cluster.iitk_reference () in
    if List.length traces <> Cluster.node_count cluster then
      Format.printf
        "note: trace has %d nodes; the reference cluster has %d - aborting@."
        (List.length traces) (Cluster.node_count cluster)
    else begin
      let world = World.create_replay ~cluster ~traces ~seed:1 () in
      World.advance world ~now:time;
      let snap = Snapshot.of_truth ~time ~world in
      let request = Request.make ?ppn ~alpha ~procs () in
      match
        Policies.allocate ~policy ~snapshot:snap ~weights:Weights.paper_default
          ~request ~rng:(Rm_stats.Rng.create 1) ()
      with
      | Error e -> Format.printf "error: %a@." Allocation.pp_error e
      | Ok a ->
        Format.printf "%a@.%s@." Allocation.pp a
          (Rm_core.Hostfile.machinefile ~allocation:a ~cluster)
    end
  in
  let file_t =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE.csv" ~doc:"Recorded trace.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Allocate against a recorded trace instead of the live models.")
    Term.(const run $ file_t $ time_t $ procs_t $ ppn_t $ alpha_t $ policy_t)

(* --- explain ----------------------------------------------------------------- *)

let read_whole_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let explain_cmd =
  let run () scenario seed time procs ppn alpha beta policy wait json replay =
    let beta = match beta with Some b -> b | None -> 1.0 -. alpha in
    match replay with
    | Some file ->
      (* What-if replay: re-score saved audit candidates under new
         weights — no simulation at all. *)
      let records = Telemetry.Audit.of_jsonl (read_whole_file file) in
      if records = [] then begin
        Format.printf "%s: no audit records@." file;
        exit 1
      end;
      List.iteri
        (fun i record ->
          if i > 0 then Format.printf "@.";
          Format.printf "%a"
            Telemetry.Audit.pp_rescore
            (Telemetry.Audit.rescore record ~alpha ~beta))
        records
    | None ->
      Telemetry.Runtime.enable ();
      let _cluster, _sim, _world, monitor, rng = make_env ~scenario ~seed ~time in
      let snap = System.snapshot monitor ~time in
      let request = Request.make ?ppn ~alpha ~procs () in
      let config =
        { Broker.default_config with Broker.policy; wait_threshold = wait }
      in
      (match Broker.decide ~config ~snapshot:snap ~request ~rng with
      | Error e -> Format.printf "error: %a@." Allocation.pp_error e
      | Ok d -> Format.printf "%a@.@." Broker.pp_decision d);
      (match Telemetry.Audit.last () with
      | None -> Format.printf "no audit record captured@."
      | Some a ->
        if json then print_endline (Telemetry.Audit.to_json a)
        else Format.printf "%a" Telemetry.Audit.pp_explain a)
  in
  let wait_t =
    Arg.(value & opt (some float) None
         & info [ "wait-threshold" ] ~docv:"LOAD"
             ~doc:"Recommend waiting above this mean load per core.")
  in
  let json_t =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the raw audit record as one JSON line.")
  in
  let beta_t =
    Arg.(value & opt (some float) None
         & info [ "beta" ] ~docv:"B"
             ~doc:"Eq. 4 network weight for --replay (default 1 - alpha).")
  in
  let replay_t =
    Arg.(value & opt (some file) None
         & info [ "replay" ] ~docv:"AUDIT.jsonl"
             ~doc:"Re-score the saved audit records (as written by --json) \
                   under --alpha/--beta instead of simulating; prints an \
                   old-vs-new Eq. 4 table per record.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Make one allocation decision and explain it: per-node CL/pc, every \
          candidate's Eq. 4 score, and the chosen sub-graph's Algorithm 1 \
          growth order. With --replay, re-score a saved decision under new \
          Eq. 4 weights instead.")
    Term.(const run $ knobs_t $ scenario_t $ seed_t $ time_t $ procs_t
          $ ppn_t $ alpha_t $ beta_t $ policy_t $ wait_t $ json_t $ replay_t)

(* --- metrics ----------------------------------------------------------------- *)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let metrics_cmd =
  let run () scenario seed time procs ppn alpha policy app size trace_out
      trace_format metrics_out =
    Telemetry.Runtime.enable ();
    let _cluster, _sim, world, monitor, rng = make_env ~scenario ~seed ~time in
    let snap = System.snapshot monitor ~time in
    let request = Request.make ?ppn ~alpha ~procs () in
    (match
       Policies.allocate ~policy ~snapshot:snap ~weights:Weights.paper_default
         ~request ~rng ()
     with
    | Error e -> Format.printf "error: %a@." Allocation.pp_error e
    | Ok allocation ->
      Format.printf "%a@." Allocation.pp allocation;
      let app = app_of app size ~ranks:(Allocation.total_procs allocation) in
      let stats = Executor.run ~world ~allocation ~app () in
      Format.printf "%a@." Executor.pp_stats stats);
    Format.printf "@.=== metrics ===@.%s" (Rm_telemetry.Metrics.render ());
    Format.printf "@.=== trace ===@.%d events in buffer@."
      (Telemetry.Trace.length ());
    (match trace_out with
    | None -> ()
    | Some path ->
      let contents =
        match trace_format with
        | `Jsonl -> Telemetry.Trace.to_jsonl ()
        | `Chrome -> Telemetry.Trace_event.export_buffer ()
      in
      write_file path contents;
      Format.printf "wrote %s@." path);
    match metrics_out with
    | None -> ()
    | Some path ->
      write_file path (Telemetry.Prometheus.render_registry ());
      Format.printf "wrote %s@." path
  in
  let trace_out_t =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the virtual-time trace (see --trace-format).")
  in
  let trace_format_t =
    Arg.(value & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
         & info [ "trace-format" ] ~docv:"FMT"
             ~doc:"Trace file format: jsonl (one event per line) or chrome \
                   (trace_event JSON array, opens in Perfetto).")
  in
  let metrics_out_t =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write the metric registry as a Prometheus text exposition.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run one job end to end with telemetry enabled, then dump the \
          metrics registry and trace-buffer summary.")
    Term.(const run $ knobs_t $ scenario_t $ seed_t $ time_t $ procs_t
          $ ppn_t $ alpha_t $ policy_t $ app_t $ size_t $ trace_out_t
          $ trace_format_t $ metrics_out_t)

(* --- slo ---------------------------------------------------------------------- *)

let slo_cmd =
  let run () seed jobs =
    match Rm_experiments.Queue_study.run_slo ~seed ~job_count:jobs () with
    | [] ->
      print_endline
        "no dispatch-wait observations (no job ran); nothing to report"
    | reports -> print_string (Rm_sched.Slo.render reports)
  in
  let jobs_t =
    Arg.(value & opt int 10
         & info [ "jobs" ] ~docv:"N" ~doc:"Jobs in the synthetic afternoon.")
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:
         "Scheduler service levels per broker policy: the same job arrival \
          trace runs once per policy, and dispatch-wait p50/p90/p99 (from \
          the sched.dispatch_wait_s histogram) plus queue-depth statistics \
          are compared side by side.")
    Term.(const run $ knobs_t $ seed_t $ jobs_t)

(* --- check-export ------------------------------------------------------------- *)

let check_export_cmd =
  let check_trace path =
    let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
    match Telemetry.Json.of_string (read_whole_file path) with
    | exception Failure m -> fail "%s: not valid JSON: %s" path m
    | Telemetry.Json.Arr entries ->
      let metadata = ref 0 and events = ref 0 in
      let check_entry i entry =
        let str field =
          match Telemetry.Json.member field entry with
          | Telemetry.Json.Str s -> s
          | _ -> failwith (Printf.sprintf "entry %d: missing %s" i field)
        in
        let num field =
          match Telemetry.Json.member field entry with
          | Telemetry.Json.Num n -> n
          | _ -> failwith (Printf.sprintf "entry %d: missing %s" i field)
        in
        ignore (str "name");
        ignore (num "pid");
        match str "ph" with
        | "M" -> incr metadata
        | "B" | "E" | "i" ->
          ignore (num "ts");
          ignore (num "tid");
          incr events
        | ph -> failwith (Printf.sprintf "entry %d: unknown phase %S" i ph)
      in
      (try
         List.iteri check_entry entries;
         Ok (Printf.sprintf "%s: valid trace_event JSON (%d events, %d lanes)"
               path !events !metadata)
       with Failure m -> fail "%s: %s" path m)
    | _ -> fail "%s: top level is not a JSON array" path
  in
  let check_metrics path =
    match Telemetry.Prometheus.parse (read_whole_file path) with
    | exception Failure m -> Error (Printf.sprintf "%s: %s" path m)
    | [] -> Error (Printf.sprintf "%s: exposition has no samples" path)
    | samples ->
      Ok (Printf.sprintf "%s: valid exposition (%d samples)" path
            (List.length samples))
  in
  let run trace metrics =
    if trace = None && metrics = None then begin
      prerr_endline "check-export: nothing to check (need --trace/--metrics)";
      exit 2
    end;
    let results =
      List.filter_map Fun.id
        [
          Option.map check_trace trace;
          Option.map check_metrics metrics;
        ]
    in
    let failed = ref false in
    List.iter
      (function
        | Ok m -> print_endline m
        | Error m ->
          failed := true;
          prerr_endline ("check-export: " ^ m))
      results;
    if !failed then exit 1
  in
  let trace_t =
    Arg.(value & opt (some file) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Chrome trace_event JSON file to validate.")
  in
  let metrics_t =
    Arg.(value & opt (some file) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Prometheus text exposition to validate.")
  in
  Cmd.v
    (Cmd.info "check-export"
       ~doc:
         "Validate exported telemetry: --trace must be a trace_event JSON \
          array whose entries carry name/ph/ts/pid, --metrics must parse \
          as a Prometheus exposition with at least one sample. Exits \
          non-zero on any failure (used by CI).")
    Term.(const run $ trace_t $ metrics_t)

(* --- chaos ------------------------------------------------------------------- *)

let chaos_cmd =
  let module Chaos = Rm_experiments.Chaos_study in
  let module Scheduler = Rm_sched.Scheduler in
  let run () plan_file intensity policy minutes seed jobs check show_log
      trace_out metrics_out =
    if trace_out <> None || metrics_out <> None then Telemetry.Runtime.enable ();
    let cluster = Cluster.iitk_reference () in
    let warm = System.warm_up_s System.default_cadence in
    let window = float_of_int minutes *. 60.0 in
    (* [--minutes] bounds the arrival/fault window; the drain slack lets
       requeue backoffs and repairs play out so jobs reach a terminal
       state instead of being cut off mid-recovery. *)
    let horizon = warm +. window +. 7200.0 in
    let job_count =
      match jobs with Some j -> j | None -> max 1 (minutes * 60 / 600)
    in
    let plan =
      match plan_file with
      | Some file ->
        let p = Rm_faults.Fault_plan.of_json (read_whole_file file) in
        Rm_faults.Fault_plan.validate ~cluster p;
        Some p
      | None ->
        Chaos.plan_of_intensity ~cluster ~first_after_s:warm ~seed:(seed + 17)
          intensity
    in
    (match plan with
    | Some p -> Format.printf "%a@." Rm_faults.Fault_plan.pp p
    | None -> Format.printf "no faults (intensity off)@.");
    let sched, injector = Chaos.run_sched ~seed ~job_count ~horizon ?plan ~policy () in
    let finished = Scheduler.finished sched in
    List.iter
      (fun (o : Scheduler.outcome) ->
        Format.printf "%-12s waited %6.0fs ran %8.2fs on %d nodes, %d requeue(s)@."
          o.Scheduler.name
          (o.Scheduler.started_at -. o.Scheduler.submitted_at)
          (o.Scheduler.finished_at -. o.Scheduler.started_at)
          (List.length o.Scheduler.nodes) o.Scheduler.requeues)
      finished;
    List.iter
      (fun id ->
        match Scheduler.state sched id with
        | Scheduler.Rejected reason ->
          Format.printf "job %d rejected: %s@." id reason
        | _ -> ())
      (Scheduler.rejected sched);
    (match injector with
    | Some i when show_log -> Format.printf "@.%a@." Rm_faults.Injector.pp_log i
    | _ -> ());
    Format.printf
      "@.finished %d  rejected %d  requeues %d  wasted %.0f node-s  faults \
       %d injected / %d recovered@."
      (List.length finished)
      (List.length (Scheduler.rejected sched))
      (Scheduler.requeue_count sched)
      (Scheduler.wasted_node_seconds sched)
      (match injector with Some i -> Rm_faults.Injector.injected i | None -> 0)
      (match injector with Some i -> Rm_faults.Injector.recovered i | None -> 0);
    (match trace_out with
    | None -> ()
    | Some path ->
      write_file path (Telemetry.Trace_event.export_buffer ());
      Format.printf "wrote %s@." path);
    (match metrics_out with
    | None -> ()
    | Some path ->
      write_file path (Telemetry.Prometheus.render_registry ());
      Format.printf "wrote %s@." path);
    if check then begin
      let hung =
        Scheduler.queued sched @ Scheduler.running sched
        @ Scheduler.failed sched
      in
      if hung <> [] then begin
        Printf.eprintf "chaos: %d job(s) never reached a terminal state: %s\n%!"
          (List.length hung)
          (String.concat ", " (List.map string_of_int hung));
        exit 1
      end;
      Format.printf "chaos: all %d job(s) reached a terminal state@." job_count
    end
  in
  let intensity_arg =
    let parse s =
      match Chaos.intensity_of_name s with
      | Some i -> Ok i
      | None -> Error (`Msg (Printf.sprintf "unknown intensity %S" s))
    in
    Arg.conv (parse, fun ppf i -> Format.fprintf ppf "%s" (Chaos.intensity_name i))
  in
  let plan_t =
    Arg.(value & opt (some file) None
         & info [ "plan" ] ~docv:"PLAN.json"
             ~doc:"Fault plan to execute (overrides --intensity).")
  in
  let intensity_t =
    Arg.(value & opt intensity_arg Chaos.Heavy
         & info [ "intensity" ] ~docv:"LEVEL"
             ~doc:"Built-in plan when no --plan: off, light or heavy.")
  in
  let minutes_t =
    Arg.(value & opt int 30
         & info [ "minutes" ] ~docv:"N"
             ~doc:"Virtual minutes of job arrivals and faults after monitor \
                   warm-up (the run then drains until every job is terminal).")
  in
  let jobs_t =
    Arg.(value & opt (some int) None
         & info [ "jobs" ] ~docv:"N"
             ~doc:"Jobs to submit (default: one per 600s of --minutes).")
  in
  let check_t =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Exit non-zero unless every job finished or was rejected \
                   (no job left queued, running or failed).")
  in
  let log_t =
    Arg.(value & flag
         & info [ "log" ] ~doc:"Print the chronological fault occurrence log.")
  in
  let trace_out_t =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the run's Chrome trace_event JSON (enables telemetry).")
  in
  let metrics_out_t =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write the metric registry as a Prometheus text exposition \
                   (enables telemetry).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the scheduler's job mix under a fault plan — node churn, \
          switch outages, NIC degradation, daemon kills — with failure \
          detection, requeue backoff and virtual checkpointing enabled, \
          then report what the faults cost.")
    Term.(const run $ knobs_t $ plan_t $ intensity_t $ policy_t $ minutes_t
          $ seed_t
          $ jobs_t $ check_t $ log_t $ trace_out_t $ metrics_out_t)

(* --- malleable --------------------------------------------------------------- *)

let malleable_cmd =
  let module MS = Rm_experiments.Malleable_study in
  let run () seed jobs policy out check =
    let artifact = MS.run ~seed ?job_count:jobs ~policy () in
    print_string (MS.render artifact);
    (match out with
    | None -> ()
    | Some path ->
      write_file path (MS.to_string artifact);
      Format.printf "wrote %s@." path);
    if check then begin
      match MS.improvement_failures artifact with
      | [] -> Format.printf "malleable: every claim holds@."
      | failures ->
        List.iter (fun m -> prerr_endline ("malleable: " ^ m)) failures;
        exit 1
    end
  in
  let jobs_t =
    Arg.(value & opt (some int) None
         & info [ "jobs" ] ~docv:"N"
             ~doc:"Jobs per scheduler pass (default: the study's 10).")
  in
  let out_t =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the study artifact JSON (the BENCH_malleable.json \
                   schema).")
  in
  let check_t =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Exit non-zero unless every study claim holds (malleable \
                   beats rigid; shrink-recovery beats requeue-recovery).")
  in
  Cmd.v
    (Cmd.info "malleable"
       ~doc:
         "Run the malleability study: the hour-scale job mix through the \
          scheduler rigid vs. with grow/shrink bands, then under light node \
          churn with requeue-recovery vs. shrink-recovery, reporting \
          makespan, wait, goodput and the accepted/rejected directives.")
    Term.(const run $ knobs_t $ seed_t $ jobs_t $ policy_t $ out_t $ check_t)

(* --- sched ------------------------------------------------------------------- *)

let sched_cmd =
  let run () file scenario seed policy exclusive =
    let ic = open_in file in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    (* name,at_s,procs,ppn,alpha,app,size[,priority] — header optional. *)
    let parse_row lineno row =
      match String.split_on_char ',' (String.trim row) with
      | name :: at :: procs :: ppn :: alpha :: app :: size :: rest ->
        (try
           let kind =
             match String.trim app with
             | "minimd" -> `Md
             | "minife" -> `Fe
             | other -> failwith ("unknown app " ^ other)
           in
           Some
             ( String.trim name,
               float_of_string at,
               int_of_string procs,
               int_of_string ppn,
               float_of_string alpha,
               kind,
               int_of_string size,
               match rest with [ p ] -> int_of_string p | _ -> 0 )
         with Failure msg ->
           raise
             (Failure (Printf.sprintf "%s: line %d: %s" file lineno msg)))
      | [ "" ] | [] -> None
      | _ -> raise (Failure (Printf.sprintf "%s: line %d: bad row" file lineno))
    in
    let rows =
      String.split_on_char '\n' text
      |> List.filteri (fun i l ->
             not (i = 0 && String.length l >= 4 && String.sub l 0 4 = "name"))
      |> List.filter (fun l -> String.trim l <> "")
      |> List.mapi (fun i l -> parse_row (i + 1) l)
      |> List.filter_map Fun.id
    in
    let cluster = Cluster.iitk_reference () in
    let sim = Sim.create () in
    let world = World.create ~cluster ~scenario ~seed in
    let rng = Rm_stats.Rng.create (seed + 2) in
    let horizon =
      List.fold_left (fun acc (_, at, _, _, _, _, _, _) -> Float.max acc at)
        0.0 rows
      +. 50_000.0
    in
    let monitor = System.start ~sim ~world ~rng ~until:horizon () in
    let config =
      {
        Rm_sched.Scheduler.default_config with
        Rm_sched.Scheduler.broker = { Broker.default_config with Broker.policy };
        exclusive;
      }
    in
    let sched =
      Rm_sched.Scheduler.create ~sim ~world ~monitor ~config ~rng ~horizon ()
    in
    let warm = System.warm_up_s System.default_cadence in
    List.iter
      (fun (name, at, procs, ppn, alpha, kind, size, priority) ->
        ignore
          (Rm_sched.Scheduler.submit sched ~name ~at:(warm +. at) ~priority
             ~request:(Request.make ~ppn ~alpha ~procs ())
             ~app_of:(app_of kind size)
             ()))
      rows;
    let rec drain () =
      if
        List.length (Rm_sched.Scheduler.finished sched) < List.length rows
        && Sim.now sim < horizon
      then begin
        Sim.run_until sim (Sim.now sim +. 600.0);
        drain ()
      end
    in
    drain ();
    List.iter
      (fun (o : Rm_sched.Scheduler.outcome) ->
        Format.printf "%-12s waited %6.0fs ran %8.2fs on %d nodes@."
          o.Rm_sched.Scheduler.name
          (o.Rm_sched.Scheduler.started_at -. o.Rm_sched.Scheduler.submitted_at)
          (o.Rm_sched.Scheduler.finished_at -. o.Rm_sched.Scheduler.started_at)
          (List.length o.Rm_sched.Scheduler.nodes))
      (Rm_sched.Scheduler.finished sched);
    (try
       let s = Rm_sched.Scheduler.summary sched in
       Format.printf
         "@.finished %d; mean wait %.0fs; mean turnaround %.1fs@.@."
         s.Rm_sched.Scheduler.jobs_finished s.Rm_sched.Scheduler.mean_wait_s
         s.Rm_sched.Scheduler.mean_turnaround_s
     with Invalid_argument _ -> Format.printf "nothing finished@.");
    print_string (Rm_sched.Scheduler.render_timeline sched ())
  in
  let file_t =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"JOBS.csv"
             ~doc:"Rows: name,at_s,procs,ppn,alpha,app,size[,priority].")
  in
  let exclusive_t =
    Arg.(value & flag
         & info [ "exclusive" ]
             ~doc:"Space-share: hide busy nodes from the allocator.")
  in
  Cmd.v
    (Cmd.info "sched" ~doc:"Run a job file through the batch scheduler.")
    Term.(const run $ knobs_t $ file_t $ scenario_t $ seed_t $ policy_t
          $ exclusive_t)

(* --- matrix / dashboard: the experiment matrix and its rendering --------- *)

let matrix_load_artifact path =
  match Rm_experiments.Matrix.of_string (read_whole_file path) with
  | Ok a -> Ok a
  | Error m -> Error (Printf.sprintf "%s: %s" path m)

let matrix_side_json path =
  if Sys.file_exists path then
    match Telemetry.Json.of_string (read_whole_file path) with
    | j -> Some j
    | exception Failure _ -> None
  else None

let matrix_dashboard_input ~current ~priors ~baseline ~ratio ~bench_allocator
    ~bench_serve ~bench_malleable =
  let history =
    List.filter_map
      (fun file ->
        match matrix_load_artifact file with
        | Ok a -> Some (Filename.basename file, a)
        | Error m ->
          Printf.eprintf "matrix: prior artifact ignored (%s)\n%!" m;
          None)
      priors
  in
  Rm_experiments.Dashboard.make ~history ?baseline ~ratio
    ?bench_allocator:(matrix_side_json bench_allocator)
    ?bench_serve:(matrix_side_json bench_serve)
    ?bench_malleable:(matrix_side_json bench_malleable)
    ~current ()

let matrix_render_and_gate ~input ~html ~md =
  let module D = Rm_experiments.Dashboard in
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    Printf.printf "wrote %s\n%!" path
  in
  Option.iter (fun path -> write path (D.html input)) html;
  (match md with
  | Some path -> write path (D.markdown input)
  | None -> print_string (D.markdown input));
  match input.D.baseline with
  | None -> ()
  | Some _ ->
    let gated = D.verdicts input in
    print_string (Rm_experiments.Matrix.render_gate gated);
    if not (Rm_experiments.Matrix.gate_ok gated) then exit 1

let matrix_prior_t =
  Arg.(value & opt_all file []
       & info [ "prior" ] ~docv:"FILE"
           ~doc:"Prior rm-matrix artifact for trend sparklines (repeatable, \
                 oldest first).")

let matrix_ratio_t =
  Arg.(value & opt float 2.0
       & info [ "ratio" ]
           ~doc:"Throughput gate: fail a cell when its allocs/sec drops \
                 below baseline divided by this.")

let matrix_baseline_t =
  Arg.(value & opt (some file) None
       & info [ "baseline" ] ~docv:"FILE"
           ~doc:"Baseline rm-matrix artifact to gate against (exit 1 on any \
                 cell regression).")

let matrix_html_t =
  Arg.(value & opt (some string) None
       & info [ "html" ] ~docv:"FILE" ~doc:"Write the HTML dashboard here.")

let matrix_md_t =
  Arg.(value & opt (some string) None
       & info [ "md" ] ~docv:"FILE"
           ~doc:"Write the markdown summary here (default: stdout).")

let matrix_bench_allocator_t =
  Arg.(value & opt file "BENCH_allocator.json"
       & info [ "bench-allocator" ] ~docv:"FILE"
           ~doc:"Allocator scaling baseline to ingest for trend rows \
                 (ignored when absent).")

let matrix_bench_serve_t =
  Arg.(value & opt file "BENCH_serve.json"
       & info [ "bench-serve" ] ~docv:"FILE"
           ~doc:"Serve-daemon baseline to ingest for trend rows (ignored \
                 when absent).")

let matrix_bench_malleable_t =
  Arg.(value & opt file "BENCH_malleable.json"
       & info [ "bench-malleable" ] ~docv:"FILE"
           ~doc:"Malleability-study baseline to ingest for trend rows \
                 (ignored when absent).")

let matrix_cmd =
  let module M = Rm_experiments.Matrix in
  let run spec_file full out html md baseline ratio priors bench_allocator
      bench_serve bench_malleable =
    let spec =
      match spec_file with
      | Some file -> (
        match M.spec_of_json (Telemetry.Json.of_string (read_whole_file file))
        with
        | spec -> spec
        | exception Failure m ->
          Printf.eprintf "matrix: bad spec %s: %s\n%!" file m;
          exit 2)
      | None -> if full then M.full_spec else M.quick_spec
    in
    (match M.validate_spec spec with
    | Ok () -> ()
    | Error m ->
      Printf.eprintf "matrix: invalid spec: %s\n%!" m;
      exit 2);
    let artifact = M.run spec in
    (let oc = open_out out in
     output_string oc (M.to_string artifact);
     output_string oc "\n";
     close_out oc);
    Printf.printf "wrote %s (%s, %d cells)\n%!" out M.schema_version
      (List.length artifact.M.cells);
    let baseline =
      Option.map
        (fun file ->
          match matrix_load_artifact file with
          | Ok b -> b
          | Error m ->
            Printf.eprintf "matrix: bad baseline %s\n%!" m;
            exit 2)
        baseline
    in
    let input =
      matrix_dashboard_input ~current:artifact ~priors ~baseline ~ratio
        ~bench_allocator ~bench_serve ~bench_malleable
    in
    matrix_render_and_gate ~input ~html ~md
  in
  let spec_t =
    Arg.(value & opt (some file) None
         & info [ "spec" ] ~docv:"FILE"
             ~doc:"JSON matrix spec (the \"spec\" object of an artifact); \
                   default is the built-in quick spec.")
  in
  let full_t =
    Arg.(value & flag
         & info [ "full" ]
             ~doc:"Use the built-in full spec (5 scenarios x 3 policies x 5 \
                   engines) instead of the quick one.")
  in
  let out_t =
    Arg.(value & opt string "BENCH_matrix.json"
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Where to write the merged artifact.")
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Run the scenario x policy x engine experiment matrix and write \
          one merged rm-matrix/v1 artifact plus the rendered dashboard. \
          With --baseline, exits 1 when any cell regresses \
          (docs/OBSERVABILITY.md section 6).")
    Term.(const run $ spec_t $ full_t $ out_t $ matrix_html_t $ matrix_md_t
          $ matrix_baseline_t $ matrix_ratio_t $ matrix_prior_t
          $ matrix_bench_allocator_t $ matrix_bench_serve_t
          $ matrix_bench_malleable_t)

let dashboard_cmd =
  let run artifact html md baseline ratio priors bench_allocator bench_serve
      bench_malleable =
    let current =
      match matrix_load_artifact artifact with
      | Ok a -> a
      | Error m ->
        Printf.eprintf "dashboard: %s\n%!" m;
        exit 2
    in
    let baseline =
      Option.map
        (fun file ->
          match matrix_load_artifact file with
          | Ok b -> b
          | Error m ->
            Printf.eprintf "dashboard: bad baseline %s\n%!" m;
            exit 2)
        baseline
    in
    let input =
      matrix_dashboard_input ~current ~priors ~baseline ~ratio
        ~bench_allocator ~bench_serve ~bench_malleable
    in
    matrix_render_and_gate ~input ~html ~md
  in
  let artifact_t =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"MATRIX.json"
             ~doc:"The rm-matrix artifact to render.")
  in
  Cmd.v
    (Cmd.info "dashboard"
       ~doc:
         "Render an existing rm-matrix artifact into the HTML/markdown \
          dashboard without re-running anything; with --baseline, also \
          gates (exit 1 on regression).")
    Term.(const run $ artifact_t $ matrix_html_t $ matrix_md_t
          $ matrix_baseline_t $ matrix_ratio_t $ matrix_prior_t
          $ matrix_bench_allocator_t $ matrix_bench_serve_t
          $ matrix_bench_malleable_t)

let () =
  let info =
    Cmd.info "rmctl" ~version:"1.0.0"
      ~doc:"Network and load-aware resource manager for MPI programs (simulated)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ cluster_cmd; snapshot_cmd; allocate_cmd; run_cmd; compare_cmd;
            forecast_cmd; record_cmd; replay_cmd; sched_cmd; chaos_cmd;
            malleable_cmd;
            explain_cmd; metrics_cmd; Serve_cmd.cmd;
            slo_cmd; check_export_cmd; matrix_cmd; dashboard_cmd ]))
