(* The `serve` command — shared between `rmctl serve` and the
   standalone `brokerd` executable (same term, different command
   names). Builds a `Rm_service.Server`, prints where it is listening,
   and runs it in the foreground until SIGINT/SIGTERM. *)

open Cmdliner

module Scenario = Rm_workload.Scenario
module Policies = Rm_core.Policies
module Broker = Rm_core.Broker
module Server = Rm_service.Server
module Telemetry = Rm_telemetry

let socket_t =
  Arg.(value & opt string "/tmp/brokerd.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket to listen on (ignored with --port).")

let port_t =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"PORT"
           ~doc:"Listen on loopback TCP instead of the unix socket.")

let scenario_t =
  Arg.(value & opt Cli_conv.scenario Scenario.normal
       & info [ "scenario" ] ~docv:"NAME" ~doc:"Background workload scenario.")

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let time_t =
  Arg.(value & opt float 1200.0
       & info [ "time" ] ~docv:"SECONDS"
           ~doc:"Virtual start time (monitor warm-up is ~960s).")

let nodes_t =
  Arg.(value & opt (some Cli_conv.positive_int) None
       & info [ "nodes" ] ~docv:"N"
           ~doc:"Homogeneous N-node cluster instead of the IIT-K reference.")

let tick_ms_t =
  Arg.(value & opt float 10.0
       & info [ "tick-ms" ] ~docv:"MS"
           ~doc:"Wall-clock snapshot refresh period; requests arriving \
                 within one tick share a snapshot (and its model cache \
                 entry).")

let virtual_tick_t =
  Arg.(value & opt float 0.01
       & info [ "virtual-tick" ] ~docv:"SECONDS"
           ~doc:"Virtual seconds the simulated world advances per refresh.")

let max_pending_t =
  Arg.(value & opt Cli_conv.positive_int 1024
       & info [ "max-pending" ] ~docv:"N"
           ~doc:"Admission queue bound; beyond it clients get retry \
                 (queue_full).")

let max_batch_t =
  Arg.(value & opt Cli_conv.positive_int 256
       & info [ "max-batch" ] ~docv:"N"
           ~doc:"Most requests served from one queue take.")

let no_batch_t =
  Arg.(value & flag
       & info [ "no-batch" ]
           ~doc:"Per-request snapshot control mode: every request pays a \
                 fresh monitor capture (for comparison runs; slow).")

let policy_t =
  Arg.(value & opt Cli_conv.policy Policies.Network_load_aware
       & info [ "policy" ] ~docv:"NAME"
           ~doc:"Default policy for requests that do not pick their own.")

let starts_t =
  Arg.(value & opt (some Cli_conv.starts) None
       & info [ "starts" ] ~docv:"K"
           ~doc:"Candidate start nodes for the network-load-aware sweep: \
                 $(b,all) (exhaustive; also $(b,RM_ALLOC_STARTS)) or a \
                 positive count K to expand only the top-K starts by the \
                 O(V) CL+degree proxy score.")

let wait_threshold_t =
  Arg.(value & opt (some float) None
       & info [ "wait-threshold" ] ~docv:"LOAD"
           ~doc:"Mean load per core above which requests get a retry hint \
                 instead of an allocation.")

let max_staleness_t =
  Arg.(value & opt (some float) None
       & info [ "max-staleness" ] ~docv:"SECONDS"
           ~doc:"Exclude nodes whose monitor record is older than this.")

let retry_after_t =
  Arg.(value & opt float 0.05
       & info [ "retry-after" ] ~docv:"SECONDS"
           ~doc:"Hint attached to retry responses.")

let metrics_out_t =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write a final Prometheus exposition here on shutdown.")

let spill_dir_t =
  Arg.(value & opt (some string) None
       & info [ "spill-dir" ] ~docv:"DIR"
           ~doc:"Spill trace events to segment files in DIR; flushed on \
                 shutdown.")

let no_overlay_t =
  Arg.(value & flag
       & info [ "no-overlay" ]
           ~doc:"Bookkeeping-only grants: active allocations neither \
                 overlay load/traffic onto the decision snapshot nor hold \
                 their nodes out of the grantable pool (the pre-overlay \
                 daemon behavior; concurrent grants may overlap).")

let lease_t =
  Arg.(value & opt (some float) None
       & info [ "lease" ] ~docv:"SECONDS"
           ~doc:"Default lease for grants that do not request their own \
                 lease_s: expired allocations are swept and their overlay \
                 removed, so a crashed client cannot pin capacity. \
                 Unset means grants never expire.")

let overlay_load_t =
  Arg.(value & opt float 1.0
       & info [ "overlay-load-per-proc" ] ~docv:"LOAD"
           ~doc:"Default compute load each granted rank overlays on its \
                 node (overridden per request by load_per_proc).")

let overlay_traffic_t =
  Arg.(value & opt float 8.0
       & info [ "overlay-traffic" ] ~docv:"MB_S"
           ~doc:"Default MB/s each granted rank pushes to its ring \
                 neighbour (overridden per request by \
                 traffic_mb_s_per_proc).")

let serve socket port scenario seed time nodes tick_ms virtual_tick max_pending
    max_batch no_batch policy starts wait_threshold max_staleness retry_after
    metrics_out spill_dir no_overlay lease overlay_load overlay_traffic =
  Telemetry.Runtime.enable ();
  let endpoint =
    match port with
    | Some p -> Server.Tcp p
    | None -> Server.Unix_socket socket
  in
  let broker =
    {
      Broker.default_config with
      policy;
      starts;
      wait_threshold;
      max_staleness_s = Option.value max_staleness ~default:infinity;
    }
  in
  let config =
    {
      (Server.default_config ~endpoint) with
      scenario;
      seed;
      start_time = time;
      nodes;
      tick_s = tick_ms /. 1000.0;
      virtual_tick_s = virtual_tick;
      max_pending;
      max_batch;
      batching = not no_batch;
      broker;
      retry_after_s = retry_after;
      metrics_out;
      spill_dir;
      overlay = not no_overlay;
      default_lease_s = lease;
      overlay_load_per_proc = overlay_load;
      overlay_traffic_mb_s_per_proc = overlay_traffic;
    }
  in
  let t = Server.create config in
  (match endpoint with
  | Server.Unix_socket path ->
    Format.printf "brokerd: listening on %s (scenario %s, seed %d)@." path
      scenario.Scenario.name seed
  | Server.Tcp p ->
    Format.printf "brokerd: listening on 127.0.0.1:%d (scenario %s, seed %d)@."
      p scenario.Scenario.name seed);
  Format.printf
    "brokerd: policy %s, %s, tick %.0fms, %s; scrape GET /metrics on the \
     same socket; stop with SIGINT/SIGTERM@."
    (Policies.name policy)
    (if no_batch then "per-request snapshots" else "per-tick batching")
    tick_ms
    (if no_overlay then "grants bookkeeping-only"
     else
       match lease with
       | Some l -> Printf.sprintf "grant overlay on (lease %.0fs)" l
       | None -> "grant overlay on");
  Server.run t;
  Format.printf "brokerd: drained and stopped@."

let term =
  Term.(const serve $ socket_t $ port_t $ scenario_t $ seed_t $ time_t
        $ nodes_t $ tick_ms_t $ virtual_tick_t $ max_pending_t $ max_batch_t
        $ no_batch_t $ policy_t $ starts_t $ wait_threshold_t
        $ max_staleness_t $ retry_after_t $ metrics_out_t $ spill_dir_t
        $ no_overlay_t $ lease_t $ overlay_load_t $ overlay_traffic_t)

let doc =
  "Resident allocation daemon: accepts \
   allocate/release/grow/shrink/status/metrics requests over a JSON line \
   protocol (v3), batches each tick's pending requests against one \
   monitor snapshot, and serves Prometheus text on GET /metrics."

(* `rmctl serve` *)
let cmd = Cmd.v (Cmd.info "serve" ~doc) term

(* Standalone `brokerd`. *)
let standalone =
  Cmd.v (Cmd.info "brokerd" ~version:"1.0.0" ~doc) term
