(* The per-layer metrics of a traced run, in one fixed order. Every
   workload reports every name; a figure a workload cannot observe from
   the benchmark's side of the layer boundary reads 0 (README.md says
   which figures show on which workload). *)

let names =
  [
    ("service.wire.calls", "count");
    ("service.wire.p50_us", "us");
    ("service.release.p50_us", "us");
    ("service.reshape.p50_us", "us");
    ("engine.run_until.calls", "count");
    ("engine.run_until.p50_us", "us");
    ("engine.run_until.ms", "ms");
    ("workload.advance.calls", "count");
    ("workload.advance.p50_us", "us");
    ("workload.advance.ms", "ms");
    ("monitor.capture.calls", "count");
    ("monitor.capture.p50_us", "us");
    ("monitor.capture.ms", "ms");
    ("monitor.capture.kw", "kw");
    ("monitor.overlay.calls", "count");
    ("monitor.overlay.p50_us", "us");
    ("monitor.overlay.ms", "ms");
    ("core.derive.calls", "count");
    ("core.derive.p50_us", "us");
    ("core.derive.ms", "ms");
    ("core.decide.calls", "count");
    ("core.decide.p50_us", "us");
    ("core.decide.ms", "ms");
    ("core.decide.kw", "kw");
    ("core.decide.rebuilds", "count");
    ("core.model_cache.hits", "count");
    ("core.model_cache.misses", "count");
    ("core.nl.delta_applied", "count");
    ("core.nl.delta_invalidated", "count");
    ("malleable.reshape.calls", "count");
    ("malleable.reshape.p50_us", "us");
    ("mpisim.estimate.calls", "count");
    ("mpisim.estimate.p50_us", "us");
    ("mpisim.estimate.ms", "ms");
    ("sched.jobs_dispatched", "count");
    ("monitor.daemon.ticks", "count");
    ("monitor.store.pair_writes", "count");
    ("setup.world.ms", "ms");
    ("setup.monitor.ms", "ms");
    ("setup.daemon.ms", "ms");
  ]

(* Figures aggregated from the spans named after each layer boundary. *)
let of_spans tr =
  List.concat_map
    (fun layer ->
      let l = Tracer.layer tr layer in
      if l.Tracer.calls = 0 then []
      else
        [
          (layer ^ ".calls", float_of_int l.calls);
          (layer ^ ".p50_us", l.p50_us);
          (layer ^ ".ms", l.self_ms);
          (layer ^ ".kw", l.kw_per_call);
          (layer ^ ".rebuilds", float_of_int l.rebuilds);
        ])
    [
      "service.wire";
      "engine.run_until";
      "workload.advance";
      "monitor.capture";
      "monitor.overlay";
      "core.derive";
      "core.decide";
      "malleable.reshape";
      "mpisim.estimate";
    ]

(* Registry values summed over every label set of one metric name. *)
let registry name =
  List.fold_left
    (fun acc (v : Rm_telemetry.Metrics.view) ->
      if v.Rm_telemetry.Metrics.name = name then acc +. v.value else acc)
    0.0
    (Rm_telemetry.Metrics.snapshot ())

(* The full metric list; later entries of [values] win over earlier ones. *)
let complete values =
  List.map
    (fun (name, unit_) ->
      let v =
        List.fold_left
          (fun acc (n, x) -> if n = name then x else acc)
          0.0 values
      in
      Measure.metric name unit_ v)
    names
