(* Tests for rm_telemetry: metrics registry semantics, span nesting and
   ring eviction, trace determinism under a fixed seed, audit JSONL
   round-trips, and the JSON codec underneath them. *)

module Telemetry = Rm_telemetry
module Runtime = Telemetry.Runtime
module Metrics = Telemetry.Metrics
module Trace = Telemetry.Trace
module Audit = Telemetry.Audit
module Json = Telemetry.Json
module Rng = Rm_stats.Rng
module Sim = Rm_engine.Sim
module Cluster = Rm_cluster.Cluster
module World = Rm_workload.World
module Scenario = Rm_workload.Scenario
module System = Rm_monitor.System
module Snapshot = Rm_monitor.Snapshot
module Broker = Rm_core.Broker
module Request = Rm_core.Request

(* The registry, trace buffer and audit ring are process-global; every
   test runs against clean state and leaves telemetry disabled. *)
let scrub () =
  Runtime.disable ();
  Metrics.reset ();
  Trace.clear ();
  Audit.clear ()

let with_telemetry f =
  scrub ();
  Runtime.enable ();
  Fun.protect ~finally:scrub f

let check_float = Alcotest.(check (float 1e-9))

(* --- Metrics ----------------------------------------------------------- *)

let test_disabled_ops_are_noops () =
  scrub ();
  let c = Metrics.counter "t.disabled.c" in
  let g = Metrics.gauge "t.disabled.g" in
  let h = Metrics.histogram "t.disabled.h" in
  Metrics.incr c;
  Metrics.add c 5.0;
  Metrics.set g 3.0;
  Metrics.observe h 0.5;
  check_float "counter untouched" 0.0 (Metrics.value c);
  check_float "gauge untouched" 0.0 (Metrics.value g);
  Alcotest.(check int) "histogram untouched" 0 (Metrics.count h)

let test_counter_semantics () =
  with_telemetry (fun () ->
      let c = Metrics.counter "t.counter" in
      Metrics.incr c;
      Metrics.incr c;
      Metrics.add c 2.5;
      check_float "accumulates" 4.5 (Metrics.value c);
      Alcotest.check_raises "negative delta"
        (Invalid_argument "Metrics.add: negative counter delta") (fun () ->
          Metrics.add c (-1.0));
      Alcotest.check_raises "set on counter"
        (Invalid_argument "Metrics.set: not a gauge") (fun () ->
          Metrics.set c 1.0))

let test_gauge_semantics () =
  with_telemetry (fun () ->
      let g = Metrics.gauge "t.gauge" in
      Metrics.set g 7.0;
      Metrics.add g (-2.5);
      check_float "set then add" 4.5 (Metrics.value g);
      Alcotest.check_raises "incr on gauge"
        (Invalid_argument "Metrics.incr: not a counter") (fun () ->
          Metrics.incr g))

let test_histogram_semantics () =
  with_telemetry (fun () ->
      let h = Metrics.histogram ~buckets:[| 1.0; 10.0; 100.0 |] "t.hist" in
      List.iter (Metrics.observe h) [ 0.5; 1.0; 5.0; 50.0; 5000.0 ];
      Alcotest.(check int) "count" 5 (Metrics.count h);
      check_float "sum" 5056.5 (Metrics.value h);
      Alcotest.(check (list (pair (float 1e-9) int)))
        "per-bucket counts"
        [ (1.0, 2); (10.0, 1); (100.0, 1); (infinity, 1) ]
        (Metrics.bucket_counts h))

let test_label_families_and_identity () =
  with_telemetry (fun () ->
      let a = Metrics.counter ~labels:[ ("policy", "random") ] "t.family" in
      let b = Metrics.counter ~labels:[ ("policy", "nla") ] "t.family" in
      Metrics.incr a;
      check_float "members are distinct" 0.0 (Metrics.value b);
      (* Same identity (labels in any order) returns the same handle. *)
      let a' = Metrics.counter ~labels:[ ("policy", "random") ] "t.family" in
      Metrics.incr a';
      check_float "same handle" 2.0 (Metrics.value a);
      Alcotest.(check bool)
        "find locates the member" true
        (Metrics.find ~labels:[ ("policy", "nla") ] "t.family" <> None);
      Alcotest.check_raises "kind clash"
        (Invalid_argument "Metrics: t.family re-registered as a different kind")
        (fun () -> ignore (Metrics.gauge ~labels:[ ("policy", "nla") ] "t.family")))

let test_reset_keeps_handles () =
  with_telemetry (fun () ->
      let c = Metrics.counter "t.reset" in
      Metrics.incr c;
      Metrics.reset ();
      check_float "zeroed" 0.0 (Metrics.value c);
      Metrics.incr c;
      check_float "handle still live" 1.0 (Metrics.value c))

let test_render_mentions_nonzero () =
  with_telemetry (fun () ->
      let c = Metrics.counter "t.render.hits" in
      Metrics.add c 3.0;
      let dump = Metrics.render () in
      let contains hay needle =
        let h = String.length hay and n = String.length needle in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "named" true (contains dump "t.render.hits");
      Alcotest.(check bool) "valued" true (contains dump " 3"))

(* Four domains hammering the same handles: every update must land.
   Sums are exact because counter increments are integral and histogram
   observations use one CAS-looped add per value. *)
let test_parallel_updates_lose_nothing () =
  with_telemetry (fun () ->
      let c = Metrics.counter "t.par.counter" in
      let g = Metrics.gauge "t.par.gauge" in
      let h = Metrics.histogram ~buckets:[| 10.0; 100.0 |] "t.par.hist" in
      let domains = 4 and per_domain = 25_000 in
      let worker () =
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Metrics.incr c;
              Metrics.add g 1.0;
              Metrics.observe h (float_of_int (i mod 3))
            done)
      in
      let spawned = List.init domains (fun _ -> worker ()) in
      List.iter Domain.join spawned;
      let total = domains * per_domain in
      check_float "no lost counter increments" (float_of_int total)
        (Metrics.value c);
      check_float "no lost gauge adds" (float_of_int total) (Metrics.value g);
      Alcotest.(check int) "no lost observations" total (Metrics.count h);
      let bucket_total =
        List.fold_left (fun acc (_, n) -> acc + n) 0 (Metrics.bucket_counts h)
      in
      Alcotest.(check int) "bucket counts consistent" total bucket_total)

(* Concurrent registration of one identity must yield a single shared
   cell, never two handles that split the updates. *)
let test_parallel_registration_single_handle () =
  with_telemetry (fun () ->
      let domains = 4 and per_domain = 5_000 in
      let worker () =
        Domain.spawn (fun () ->
            let c = Metrics.counter ~labels:[ ("d", "x") ] "t.par.register" in
            for _ = 1 to per_domain do
              Metrics.incr c
            done)
      in
      let spawned = List.init domains (fun _ -> worker ()) in
      List.iter Domain.join spawned;
      match Metrics.find ~labels:[ ("d", "x") ] "t.par.register" with
      | None -> Alcotest.fail "metric not registered"
      | Some c ->
        check_float "all domains hit one cell"
          (float_of_int (domains * per_domain))
          (Metrics.value c))

let prop_bucket_counts_sum =
  QCheck.Test.make ~count:100 ~name:"histogram bucket counts sum to observations"
    QCheck.(list (float_range (-10.0) 1e4))
    (fun xs ->
      with_telemetry (fun () ->
          let h = Metrics.histogram "t.prop.hist" in
          List.iter (Metrics.observe h) xs;
          let total =
            List.fold_left (fun acc (_, n) -> acc + n) 0 (Metrics.bucket_counts h)
          in
          total = List.length xs && Metrics.count h = List.length xs))

(* --- Trace ------------------------------------------------------------- *)

let test_span_nesting_depth () =
  with_telemetry (fun () ->
      let outer = Trace.span_begin ~time:10.0 "outer" in
      let inner = Trace.span_begin ~time:11.0 "inner" in
      Trace.instant ~time:11.5 ~attrs:[ ("k", "v") ] "tick";
      Trace.span_end ~time:12.0 inner;
      Trace.span_end ~time:13.0 outer;
      match Trace.events () with
      | [ b0; b1; i; e1; e0 ] ->
        Alcotest.(check (list int))
          "depths" [ 0; 1; 2; 1; 0 ]
          (List.map (fun (e : Trace.event) -> e.depth) [ b0; b1; i; e1; e0 ]);
        Alcotest.(check (list int))
          "seqs increase" [ 0; 1; 2; 3; 4 ]
          (List.map (fun (e : Trace.event) -> e.seq) [ b0; b1; i; e1; e0 ]);
        Alcotest.(check string) "end matches begin" b1.name e1.name;
        Alcotest.(check bool) "end keeps attrs" true (e0.attrs = b0.attrs)
      | evs -> Alcotest.failf "expected 5 events, got %d" (List.length evs))

let test_span_end_idempotent () =
  with_telemetry (fun () ->
      let s = Trace.span_begin ~time:1.0 "once" in
      Trace.span_end ~time:2.0 s;
      Trace.span_end ~time:3.0 s;
      Alcotest.(check int) "double end is a no-op" 2 (Trace.length ()))

let test_disabled_span_is_inert () =
  scrub ();
  let s = Trace.span_begin ~time:1.0 "ghost" in
  Runtime.enable ();
  Trace.span_end ~time:2.0 s;
  Alcotest.(check int) "no events at all" 0 (Trace.length ());
  scrub ()

let test_ring_eviction_keeps_seq () =
  with_telemetry (fun () ->
      Trace.set_capacity 4;
      Fun.protect
        ~finally:(fun () -> Trace.set_capacity 4096)
        (fun () ->
          for i = 0 to 6 do
            Trace.instant ~time:(float_of_int i) "e"
          done;
          Alcotest.(check int) "bounded" 4 (Trace.length ());
          match Trace.events () with
          | first :: _ ->
            Alcotest.(check int) "oldest seq shows truncation" 3 first.seq
          | [] -> Alcotest.fail "buffer empty"))

let test_trace_exporters () =
  with_telemetry (fun () ->
      Trace.instant ~time:1.5 ~attrs:[ ("node", "3") ] "probe";
      let jsonl = Trace.to_jsonl () in
      let j = Json.of_string (String.trim jsonl) in
      Alcotest.(check string) "name" "probe" Json.(to_str (member "name" j));
      Alcotest.(check string) "kind" "I" Json.(to_str (member "kind" j));
      check_float "time" 1.5 Json.(to_float (member "t" j));
      Alcotest.(check string)
        "attr" "3"
        Json.(to_str (member "node" (member "attrs" j)));
      let csv = Trace.to_csv () in
      match String.split_on_char '\n' csv with
      | header :: row :: _ ->
        Alcotest.(check string) "csv header" "seq,time,kind,depth,name,attrs" header;
        Alcotest.(check string) "csv row" "0,1.500000,I,0,probe,node=3" row
      | _ -> Alcotest.fail "csv too short")

(* Two monitor runs with identical seeds must produce byte-identical
   traces: every timestamp comes from the virtual clock. *)
let monitored_trace ~seed =
  let sim = Sim.create () in
  let cluster = Cluster.homogeneous ~cores:8 ~nodes_per_switch:[ 3; 3 ] () in
  let world = World.create ~cluster ~scenario:Scenario.normal ~seed in
  let rng = Rng.create (seed + 17) in
  let sys = System.start ~sim ~world ~rng ~until:900.0 () in
  Sim.run_until sim 900.0;
  ignore (System.snapshot sys ~time:(Sim.now sim));
  Trace.events ()

let test_trace_determinism_under_seed () =
  let run () =
    with_telemetry (fun () -> monitored_trace ~seed:42)
  in
  let first = run () in
  let second = run () in
  Alcotest.(check bool) "trace is non-trivial" true (List.length first > 10);
  Alcotest.(check bool) "identical event lists" true (first = second)

(* --- Audit ------------------------------------------------------------- *)

let decide_with_audit ~wait_threshold =
  let cluster = Cluster.homogeneous ~cores:8 ~nodes_per_switch:[ 3; 3 ] () in
  let world = World.create ~cluster ~scenario:Scenario.normal ~seed:5 in
  World.advance world ~now:1800.0;
  let snapshot = Snapshot.of_truth ~time:1800.0 ~world in
  let config = { Broker.default_config with Broker.wait_threshold } in
  let request = Request.make ~ppn:4 ~procs:8 () in
  ignore (Broker.decide ~config ~snapshot ~request ~rng:(Rng.create 3));
  match Audit.last () with
  | Some r -> r
  | None -> Alcotest.fail "Broker.decide recorded no audit entry"

let test_audit_roundtrip_real_decision () =
  with_telemetry (fun () ->
      let r = decide_with_audit ~wait_threshold:None in
      Alcotest.(check bool) "nodes recorded" true (r.Audit.nodes <> []);
      Alcotest.(check bool) "candidates recorded" true (r.Audit.candidates <> []);
      Alcotest.(check bool) "a winner" true (r.Audit.chosen <> None);
      (match r.Audit.decision with
      | Audit.Allocated entries ->
        Alcotest.(check int) "procs placed" 8
          (List.fold_left (fun acc (_, p) -> acc + p) 0 entries)
      | _ -> Alcotest.fail "expected an Allocated decision");
      let back = Audit.of_json (Audit.to_json r) in
      Alcotest.(check bool) "exact round-trip" true (back = r))

let test_audit_wait_roundtrip () =
  with_telemetry (fun () ->
      let r = decide_with_audit ~wait_threshold:(Some 0.0) in
      (match r.Audit.decision with
      | Audit.Wait { threshold; _ } -> check_float "threshold" 0.0 threshold
      | _ -> Alcotest.fail "expected a Wait decision");
      let back = Audit.of_json (Audit.to_json r) in
      Alcotest.(check bool) "round-trip" true (back = r))

let test_audit_ring_and_jsonl () =
  with_telemetry (fun () ->
      Audit.set_capacity 3;
      Fun.protect
        ~finally:(fun () -> Audit.set_capacity 256)
        (fun () ->
          for i = 1 to 5 do
            Audit.record
              {
                Audit.time = float_of_int i;
                policy = "test";
                procs = i;
                ppn = None;
                alpha = 0.3;
                beta = 0.7;
                staleness_s = 0.0;
                usable = 0;
                stale_excluded = [];
                nodes = [];
                candidates = [];
                chosen = None;
                decision = Audit.Rejected "synthetic";
              }
          done;
          let kept = Audit.recent () in
          Alcotest.(check (list int))
            "newest three, oldest first" [ 3; 4; 5 ]
            (List.map (fun (r : Audit.t) -> r.Audit.procs) kept);
          let back = Audit.of_jsonl (Audit.to_jsonl kept) in
          Alcotest.(check bool) "jsonl round-trip" true (back = kept)))

let arbitrary_audit : Audit.t QCheck.arbitrary =
  let open QCheck.Gen in
  let fin = float_range (-1e6) 1e6 in
  let node_stat =
    map
      (fun (node, cl, pc, load_1m) -> { Audit.node; cl; pc; load_1m })
      (quad (int_bound 63) fin (int_bound 16) fin)
  in
  let step =
    map
      (fun (node, cost, procs) -> { Audit.node; cost; procs })
      (triple (int_bound 63) fin (int_bound 8))
  in
  let candidate =
    map
      (fun (start, steps, (compute_cost, network_cost, total)) ->
        { Audit.start; steps; compute_cost; network_cost; total })
      (triple (int_bound 63) (list_size (int_range 1 4) step)
         (triple fin fin fin))
  in
  let decision =
    oneof
      [
        map
          (fun entries -> Audit.Allocated entries)
          (list_size (int_range 0 4) (pair (int_bound 63) (int_range 1 8)));
        map
          (fun (m, t) -> Audit.Wait { mean_load_per_core = m; threshold = t })
          (pair fin fin);
        map (fun s -> Audit.Rejected s) (string_size ~gen:printable (int_bound 20));
      ]
  in
  let record =
    map
      (fun ((time, policy, procs, ppn),
            ((alpha, beta, staleness_s, usable), stale_excluded),
            (nodes, candidates, chosen, decision)) ->
        {
          Audit.time;
          policy;
          procs;
          ppn;
          alpha;
          beta;
          staleness_s;
          usable;
          stale_excluded;
          nodes;
          candidates;
          chosen;
          decision;
        })
      (triple
         (quad fin
            (string_size ~gen:printable (int_bound 12))
            (int_bound 512)
            (opt (int_range 1 16)))
         (pair
            (quad fin fin fin (int_bound 64))
            (list_size (int_bound 4) (int_bound 63)))
         (quad
            (list_size (int_bound 5) node_stat)
            (list_size (int_bound 3) candidate)
            (opt (int_bound 63))
            decision))
  in
  QCheck.make ~print:Audit.to_json record

let prop_audit_json_roundtrip =
  QCheck.Test.make ~count:100 ~name:"audit records round-trip through JSON"
    arbitrary_audit (fun r -> Audit.of_json (Audit.to_json r) = r)

(* --- JSON codec -------------------------------------------------------- *)

let test_json_escapes_and_nesting () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\tе");
        ("arr", Json.Arr [ Json.Null; Json.Bool true; Json.Num 3.0 ]);
        ("nested", Json.Obj [ ("x", Json.Num (-0.125)) ]);
      ]
  in
  Alcotest.(check bool) "round-trip" true (Json.of_string (Json.to_string v) = v);
  let nest n = String.make n '[' ^ String.make n ']' in
  Alcotest.(check bool) "512 levels parse" true
    (match Json.of_string (nest 512) with Json.Arr _ -> true | _ -> false);
  Alcotest.(check bool) "513 levels are refused" true
    (match Json.of_string (nest 513) with
    | _ -> false
    | exception Failure _ -> true)

let test_json_nonfinite_is_null () =
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Num nan));
  Alcotest.(check string)
    "inf in array" "[null]"
    (Json.to_string (Json.Arr [ Json.Num infinity ]))

let prop_json_float_roundtrip =
  QCheck.Test.make ~count:200 ~name:"finite floats round-trip exactly"
    QCheck.float (fun f ->
      QCheck.assume (Float.is_finite f);
      match Json.of_string (Json.to_string (Json.Num f)) with
      | Json.Num f' -> Float.equal f f' || (f = 0.0 && f' = 0.0)
      | _ -> false)

(* --- Prometheus exposition -------------------------------------------- *)

module Prometheus = Telemetry.Prometheus

(* The registry keeps handles registered across resets, so exposition
   tests render hand-filtered views rather than the whole snapshot. *)
let prom_views prefix =
  List.filter
    (fun (v : Metrics.view) ->
      String.length v.Metrics.name >= String.length prefix
      && String.sub v.Metrics.name 0 (String.length prefix) = prefix)
    (Metrics.snapshot ~consistent:true ())

let test_prometheus_golden () =
  with_telemetry (fun () ->
      let c = Metrics.counter "t.prom.hits" in
      Metrics.add c 3.0;
      let g = Metrics.gauge ~labels:[ ("policy", "net-aware") ] "t.prom.load" in
      Metrics.set g 2.5;
      let h = Metrics.histogram ~buckets:[| 1.0; 10.0 |] "t.prom.wait" in
      List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0 ];
      let golden =
        "# TYPE t_prom_hits counter\n\
         t_prom_hits 3\n\
         # TYPE t_prom_load gauge\n\
         t_prom_load{policy=\"net-aware\"} 2.5\n\
         # TYPE t_prom_wait histogram\n\
         t_prom_wait_bucket{le=\"1\"} 1\n\
         t_prom_wait_bucket{le=\"10\"} 2\n\
         t_prom_wait_bucket{le=\"+Inf\"} 3\n\
         t_prom_wait_sum 55.5\n\
         t_prom_wait_count 3\n"
      in
      Alcotest.(check string)
        "exposition matches golden" golden
        (Prometheus.render (prom_views "t.prom.")))

let test_prometheus_parse_roundtrip () =
  with_telemetry (fun () ->
      let c = Metrics.counter ~labels:[ ("app", "minimd") ] "t.promrt.runs" in
      Metrics.add c 7.0;
      let h = Metrics.histogram ~buckets:[| 0.5 |] "t.promrt.wait" in
      Metrics.observe h 0.25;
      let samples = Prometheus.parse (Prometheus.render (prom_views "t.promrt.")) in
      Alcotest.(check int) "sample count" 5 (List.length samples)
        (* 1 counter + 2 buckets + sum + count *);
      let find name =
        List.find (fun s -> s.Prometheus.sample_name = name) samples
      in
      check_float "counter value" 7.0 (find "t_promrt_runs").Prometheus.sample_value;
      Alcotest.(check (list (pair string string)))
        "counter labels" [ ("app", "minimd") ]
        (find "t_promrt_runs").Prometheus.sample_labels;
      check_float "inf bucket cumulative" 1.0
        (List.find
           (fun s ->
             s.Prometheus.sample_name = "t_promrt_wait_bucket"
             && s.Prometheus.sample_labels = [ ("le", "+Inf") ])
           samples)
          .Prometheus.sample_value)

let test_prometheus_label_escaping () =
  with_telemetry (fun () ->
      let tricky = "a\\b\"c\nd" in
      let g = Metrics.gauge ~labels:[ ("path", tricky) ] "t.promesc.g" in
      Metrics.set g 1.0;
      match Prometheus.parse (Prometheus.render (prom_views "t.promesc.")) with
      | [ s ] ->
        Alcotest.(check (list (pair string string)))
          "escaped label round-trips" [ ("path", tricky) ]
          s.Prometheus.sample_labels
      | samples -> Alcotest.failf "expected 1 sample, got %d" (List.length samples))

let test_prometheus_name_sanitization () =
  Alcotest.(check string) "dots" "sched_dispatch_wait_s"
    (Prometheus.metric_name "sched.dispatch_wait_s");
  Alcotest.(check string) "leading digit" "_5xx_total"
    (Prometheus.metric_name "5xx-total")

let test_consistent_snapshot_quiescent () =
  with_telemetry (fun () ->
      let h = Metrics.histogram ~buckets:[| 1.0 |] "t.consist.h" in
      List.iter (Metrics.observe h) [ 0.5; 2.0 ];
      let plain = prom_views "t.consist." in
      Runtime.enable ();
      let consistent =
        List.filter
          (fun (v : Metrics.view) ->
            String.length v.Metrics.name >= 10
            && String.sub v.Metrics.name 0 10 = "t.consist.")
          (Metrics.snapshot ~consistent:true ())
      in
      Alcotest.(check bool) "quiescent views agree" true (plain = consistent);
      List.iter
        (fun (v : Metrics.view) ->
          let bucket_total =
            List.fold_left (fun acc (_, n) -> acc + n) 0 v.Metrics.buckets
          in
          Alcotest.(check int) "buckets sum to count" v.Metrics.count
            bucket_total)
        consistent)

(* --- Chrome trace_event export ----------------------------------------- *)

module Trace_event = Telemetry.Trace_event

let test_trace_event_export () =
  with_telemetry (fun () ->
      let s = Trace.span_begin ~time:1.0 ~attrs:[ ("job", "j1") ] "sched.job" in
      Trace.instant ~time:1.5 "alloc.pick";
      Trace.span_end ~time:2.0 s;
      let str field j = Json.(to_str (member field j)) in
      let num field j = Json.(to_float (member field j)) in
      match Json.of_string (String.trim (Trace_event.export_buffer ())) with
      | Json.Arr [ m1; m2; b; i; e ] ->
        (* Two components, metadata lanes first. *)
        Alcotest.(check string) "metadata phase" "M" (str "ph" m1);
        Alcotest.(check string) "lane 1 names sched" "sched"
          (str "name" (Json.member "args" m1));
        Alcotest.(check string) "lane 2 names alloc" "alloc"
          (str "name" (Json.member "args" m2));
        (* Span begin. *)
        Alcotest.(check string) "begin name" "sched.job" (str "name" b);
        Alcotest.(check string) "begin phase" "B" (str "ph" b);
        check_float "ts is microseconds" 1e6 (num "ts" b);
        Alcotest.(check int) "pid" Trace_event.pid
          (int_of_float (num "pid" b));
        Alcotest.(check int) "sched lane" 1 (int_of_float (num "tid" b));
        Alcotest.(check string) "attr carried" "j1"
          (str "job" (Json.member "args" b));
        (* Instant. *)
        Alcotest.(check string) "instant phase" "i" (str "ph" i);
        Alcotest.(check string) "instant scope" "t" (str "s" i);
        Alcotest.(check int) "alloc lane" 2 (int_of_float (num "tid" i));
        check_float "instant ts" 1.5e6 (num "ts" i);
        (* Span end. *)
        Alcotest.(check string) "end phase" "E" (str "ph" e);
        check_float "end ts" 2e6 (num "ts" e)
      | Json.Arr entries ->
        Alcotest.failf "expected 5 records, got %d" (List.length entries)
      | _ -> Alcotest.fail "export is not a JSON array")

let test_trace_event_lane_assignment () =
  with_telemetry (fun () ->
      Trace.instant ~time:1.0 "mon.probe";
      Trace.instant ~time:2.0 "sched.tick";
      Trace.instant ~time:3.0 "mon.sweep";
      Alcotest.(check (list string))
        "components in first-appearance order" [ "mon"; "sched" ]
        (Trace_event.components (Trace.events ())))

(* --- Spill-to-disk sink ------------------------------------------------ *)

module Spill = Telemetry.Spill

let fresh_spill_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rm-spill-test-%d-%d" !counter (Hashtbl.hash Sys.argv))

let rm_rf_dir dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_spill_dir f =
  let dir = fresh_spill_dir () in
  Fun.protect ~finally:(fun () -> rm_rf_dir dir) (fun () -> f dir)

let test_spill_mirrors_ring () =
  with_telemetry (fun () ->
      with_spill_dir (fun dir ->
          let spill = Spill.create ~events_per_segment:8 ~dir () in
          Spill.install spill;
          Fun.protect
            ~finally:(fun () -> Spill.uninstall ())
            (fun () ->
              for i = 0 to 19 do
                Trace.instant ~time:(float_of_int i)
                  ~attrs:[ ("i", string_of_int i) ]
                  "spill.e"
              done;
              Spill.close spill;
              Alcotest.(check int) "three segments" 3
                (List.length (Spill.segments spill));
              Alcotest.(check bool) "disk equals ring" true
                (Spill.read_dir dir = Trace.events ()))))

let synthetic_event i =
  {
    Trace.seq = i;
    time = float_of_int i *. 0.5;
    name = "syn.e";
    kind = Trace.Instant;
    depth = 0;
    attrs = [ ("i", string_of_int i) ];
  }

let test_spill_retention () =
  with_spill_dir (fun dir ->
      let spill = Spill.create ~events_per_segment:4 ~max_segments:2 ~dir () in
      for i = 0 to 19 do
        Spill.append spill (synthetic_event i)
      done;
      Spill.close spill;
      Alcotest.(check bool) "at most 2 segments" true
        (List.length (Spill.segments spill) <= 2);
      Alcotest.(check (list int))
        "newest events survive"
        [ 12; 13; 14; 15; 16; 17; 18; 19 ]
        (List.map (fun (e : Trace.event) -> e.Trace.seq) (Spill.read_dir dir));
      match Spill.append spill (synthetic_event 20) with
      | () -> Alcotest.fail "append after close should raise"
      | exception Invalid_argument _ -> ())

(* Regression: [create] used to swallow the mkdir failure and crash a
   moment later opening the first segment, with an error that never
   named the spill directory. A directory path nested under a regular
   FILE fails with ENOTDIR for any uid (unlike permission bits, which
   root ignores), so it exercises the same path everywhere. *)
let test_spill_uncreatable_dir () =
  with_spill_dir (fun base ->
      Sys.mkdir base 0o755;
      let squatter = Filename.concat base "squatter" in
      let oc = open_out squatter in
      output_string oc "not a directory";
      close_out oc;
      Fun.protect
        ~finally:(fun () -> Sys.remove squatter)
        (fun () ->
          let dir = Filename.concat squatter "spill" in
          let contains hay needle =
            let h = String.length hay and n = String.length needle in
            let rec go i =
              i + n <= h && (String.sub hay i n = needle || go (i + 1))
            in
            go 0
          in
          (match Spill.create ~dir () with
          | _ -> Alcotest.fail "expected Sys_error for uncreatable dir"
          | exception Sys_error msg ->
            (* The message pins the path component that is actually in
               the way (the file posing as a directory). *)
            Alcotest.(check bool)
              (Printf.sprintf "error %S names the spill dir" msg)
              true
              (contains msg "cannot create spill dir" && contains msg squatter));
          (* A path component that exists but is a file fails the same
             way, before any mkdir is attempted. *)
          match Spill.create ~dir:squatter () with
          | _ -> Alcotest.fail "expected Sys_error for file-as-dir"
          | exception Sys_error msg ->
            Alcotest.(check bool)
              (Printf.sprintf "error %S says not a directory" msg)
              true
              (contains msg "not a directory" && contains msg squatter)))

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Satellite: [Spill.mkdir_p] is the named-path recursive mkdir other
   sinks reuse (bench --csv nests output under DIR). *)
let test_spill_mkdir_p_nested () =
  let base = fresh_spill_dir () in
  let nested = Filename.concat (Filename.concat base "a") "b" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun d -> if Sys.file_exists d then Sys.rmdir d)
        [ nested; Filename.concat base "a"; base ])
    (fun () ->
      Spill.mkdir_p nested;
      Alcotest.(check bool) "nested path created" true
        (Sys.is_directory nested);
      (* idempotent on an existing tree *)
      Spill.mkdir_p nested;
      Alcotest.(check bool) "still a directory" true (Sys.is_directory nested));
  (* a regular file on the path raises a Sys_error naming it *)
  let squat_base = fresh_spill_dir () in
  Sys.mkdir squat_base 0o755;
  let squatter = Filename.concat squat_base "file" in
  let oc = open_out squatter in
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove squatter;
      Sys.rmdir squat_base)
    (fun () ->
      match Spill.mkdir_p (Filename.concat squatter "deeper") with
      | () -> Alcotest.fail "expected Sys_error through a squatting file"
      | exception Sys_error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "error %S names the blocked path" msg)
          true (contains msg squatter))

(* Doc-drift lint (ISSUE 8): every dotted metric name registered by the
   libraries must appear in docs/OBSERVABILITY.md, so dashboard
   counters cannot silently go undocumented. Test-local metrics use the
   "t." prefix and bench-binary ones "bench."; both are exempt. The
   registry only holds names whose registration sites have executed,
   so the lint's coverage grows with the suite — which is the point:
   anything a test exercises must be documented. *)
let test_metric_names_documented () =
  let doc =
    let rec find dir depth =
      let candidate =
        Filename.concat dir (Filename.concat "docs" "OBSERVABILITY.md")
      in
      if Sys.file_exists candidate then Some candidate
      else if depth = 0 then None
      else find (Filename.concat dir Filename.parent_dir_name) (depth - 1)
    in
    match find Filename.current_dir_name 4 with
    | Some path ->
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    | None -> Alcotest.fail "docs/OBSERVABILITY.md not found from test cwd"
  in
  let exempt name =
    match String.index_opt name '.' with
    | None -> true
    | Some i -> List.mem (String.sub name 0 i) [ "t"; "test"; "bench"; "syn" ]
  in
  let names =
    List.sort_uniq compare
      (List.filter_map
         (fun (v : Metrics.view) ->
           if exempt v.Metrics.name then None else Some v.Metrics.name)
         (Metrics.snapshot ()))
  in
  let undocumented = List.filter (fun n -> not (contains doc n)) names in
  Alcotest.(check (list string))
    (Printf.sprintf "all %d registered metric names documented in \
                     docs/OBSERVABILITY.md" (List.length names))
    [] undocumented

let arbitrary_trace_event : Trace.event QCheck.arbitrary =
  let open QCheck.Gen in
  let printable_str = string_size ~gen:printable (int_bound 12) in
  let gen =
    map
      (fun ((seq, time, name), (kind, depth, attrs)) ->
        { Trace.seq; time; name; kind; depth; attrs })
      (pair
         (triple (int_bound 100_000) (float_range (-1e6) 1e6) printable_str)
         (triple
            (oneofl [ Trace.Span_begin; Trace.Span_end; Trace.Instant ])
            (int_bound 16)
            (list_size (int_bound 3) (pair printable_str printable_str))))
  in
  QCheck.make ~print:(fun e -> Json.to_string (Trace.event_to_json e)) gen

let prop_spill_roundtrip =
  QCheck.Test.make ~count:50 ~name:"spill segments round-trip any event list"
    QCheck.(list_of_size (QCheck.Gen.int_bound 40) arbitrary_trace_event)
    (fun events ->
      with_spill_dir (fun dir ->
          let spill = Spill.create ~events_per_segment:7 ~dir () in
          List.iter (Spill.append spill) events;
          Spill.close spill;
          Spill.read_dir dir = events))

(* ----------------------------------------------------------------------- *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "telemetry.metrics",
      [
        Alcotest.test_case "disabled ops are no-ops" `Quick
          test_disabled_ops_are_noops;
        Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
        Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
        Alcotest.test_case "histogram semantics" `Quick test_histogram_semantics;
        Alcotest.test_case "label families and identity" `Quick
          test_label_families_and_identity;
        Alcotest.test_case "reset keeps handles" `Quick test_reset_keeps_handles;
        Alcotest.test_case "render mentions non-zero metrics" `Quick
          test_render_mentions_nonzero;
        Alcotest.test_case "parallel updates lose nothing" `Quick
          test_parallel_updates_lose_nothing;
        Alcotest.test_case "parallel registration shares one handle" `Quick
          test_parallel_registration_single_handle;
      ]
      @ qsuite [ prop_bucket_counts_sum ] );
    ( "telemetry.trace",
      [
        Alcotest.test_case "span nesting depth" `Quick test_span_nesting_depth;
        Alcotest.test_case "span end is idempotent" `Quick
          test_span_end_idempotent;
        Alcotest.test_case "disabled span is inert" `Quick
          test_disabled_span_is_inert;
        Alcotest.test_case "ring eviction keeps global seq" `Quick
          test_ring_eviction_keeps_seq;
        Alcotest.test_case "jsonl and csv exporters" `Quick test_trace_exporters;
        Alcotest.test_case "deterministic under a fixed seed" `Quick
          test_trace_determinism_under_seed;
      ] );
    ( "telemetry.audit",
      [
        Alcotest.test_case "round-trips a real decision" `Quick
          test_audit_roundtrip_real_decision;
        Alcotest.test_case "round-trips a wait decision" `Quick
          test_audit_wait_roundtrip;
        Alcotest.test_case "bounded ring and jsonl" `Quick
          test_audit_ring_and_jsonl;
      ]
      @ qsuite [ prop_audit_json_roundtrip ] );
    ( "telemetry.json",
      [
        Alcotest.test_case "escapes and nesting" `Quick
          test_json_escapes_and_nesting;
        Alcotest.test_case "non-finite numbers become null" `Quick
          test_json_nonfinite_is_null;
      ]
      @ qsuite [ prop_json_float_roundtrip ] );
    ( "telemetry.prometheus",
      [
        Alcotest.test_case "golden exposition" `Quick test_prometheus_golden;
        Alcotest.test_case "parse round-trip" `Quick
          test_prometheus_parse_roundtrip;
        Alcotest.test_case "label escaping" `Quick test_prometheus_label_escaping;
        Alcotest.test_case "name sanitization" `Quick
          test_prometheus_name_sanitization;
        Alcotest.test_case "consistent snapshot" `Quick
          test_consistent_snapshot_quiescent;
      ] );
    ( "telemetry.trace_event",
      [
        Alcotest.test_case "chrome export fields" `Quick test_trace_event_export;
        Alcotest.test_case "lane assignment" `Quick
          test_trace_event_lane_assignment;
      ] );
    ( "telemetry.spill",
      [
        Alcotest.test_case "mirrors the ring" `Quick test_spill_mirrors_ring;
        Alcotest.test_case "newest-N retention" `Quick test_spill_retention;
        Alcotest.test_case "uncreatable dir named in error" `Quick
          test_spill_uncreatable_dir;
        Alcotest.test_case "mkdir_p nests and errors by name" `Quick
          test_spill_mkdir_p_nested;
      ]
      @ qsuite [ prop_spill_roundtrip ] );
    ( "telemetry.doclint",
      [
        Alcotest.test_case "registered metric names documented" `Quick
          test_metric_names_documented;
      ] );
  ]
