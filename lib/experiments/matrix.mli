(** Declarative scenario × policy × engine experiment matrix.

    A {!spec} names the axes (scenario families, broker policies,
    allocator engines), a per-cell measurement budget and skip/budget
    rules; {!run} executes every cell against the existing study
    substrates ({!Queue_study}'s job mix through the batch scheduler,
    {!Chaos_study}'s fault plans, trace replay via
    {!Rm_workload.World.record_traces}) and returns one merged,
    versioned artifact: per cell, allocator throughput, queue-level
    makespan/goodput, SLO percentiles from {!Rm_sched.Slo.report} and a
    selected set of telemetry counters.

    Determinism: every stochastic input is seeded from the cell's
    coordinates via {!cell_seed} (an FNV-1a hash of
    ["scenario|policy|engine"] mixed with the spec seed) — never from
    wall clock — so re-running the same spec with a zero throughput
    budget is bit-identical, chaos plans included. Scheduler-level
    results depend only on (scenario, policy) — the engine axis cannot
    change allocations (engines are output-equivalent by construction)
    — so they are computed once per (scenario, policy) pair and shared
    across the engine axis.

    The artifact serializes through {!Rm_telemetry.Json} under schema
    {!schema_version}; {!gate} compares two artifacts cell-by-cell for
    CI regression gating (see docs/OBSERVABILITY.md §6). *)

(** {2 Spec} *)

type family =
  | Background of Rm_workload.Scenario.t
      (** synthetic background load (uniform/hotspot/diurnal/...) *)
  | Replay of { hours : float; period_s : float }
      (** node attributes replayed from traces recorded off a seeded
          normal-scenario world *)
  | Chaos of Chaos_study.intensity
      (** normal background plus a seeded fault plan and the resilient
          scheduler config *)
  | Malleable_family of Rm_workload.Scenario.t
      (** background load with the malleability negotiation phase
          enabled ({!Rm_malleable.Malleable.default_config}) and every
          job submitted with a [procs/2 .. procs*2] band *)

val family_of_name : string -> family option
(** Resolves the documented scenario-family names: [uniform] (normal
    background), [hotspot], [diurnal] (the nightly scenario),
    [trace-replay], [chaos-light]/[chaos-heavy]/[chaos-off],
    [malleable] (normal background, malleable scheduler), plus any
    name {!Rm_workload.Scenario.by_name} accepts. *)

val family_names : string list
(** The canonical family aliases above, for doc/help output. *)

type engine =
  | Naive  (** {!Rm_core.Policies.allocate_naive}, the reference path *)
  | Dense  (** always the flat dense sweep *)
  | Hier  (** always the two-level {!Rm_core.Hierarchical} allocator *)
  | Auto  (** threshold routing, the production default *)

val engine_name : engine -> string
val engine_of_name : string -> engine option
(** [naive], [dense], [hierarchical], [auto]. *)

type budget = {
  alloc_budget_s : float;
      (** wall-clock seconds of allocator-throughput measurement per
          cell; 0 skips the timed loop entirely (fully deterministic
          artifact) *)
  job_count : int;  (** jobs in the scheduler run per (scenario, policy) *)
}

type rule_action =
  | Skip of string  (** skip matching cells, with a reason *)
  | Budget of budget  (** override the per-cell budget *)

type rule = {
  on_scenario : string option;  (** [None] matches every scenario *)
  on_policy : string option;
  on_engine : string option;
  action : rule_action;
}
(** First matching [Skip] wins; first matching [Budget] wins. A
    [Budget] rule whose [on_engine] is set only affects the throughput
    loop — the shared scheduler run takes its [job_count] from the
    first engine-agnostic match. *)

type spec = {
  spec_name : string;
  seed : int;
  scenarios : string list;  (** family names, see {!family_of_name} *)
  policies : string list;  (** {!Rm_core.Policies.of_name} names *)
  engines : string list;  (** {!engine_of_name} names *)
  budget : budget;  (** default per-cell budget *)
  rules : rule list;
}

val quick_spec : spec
(** The CI matrix: 4 scenarios (uniform, hotspot, chaos-heavy,
    malleable) × 3 policies (random, load-aware, network-load-aware) ×
    3 engines (naive, dense, hierarchical), small budgets. *)

val full_spec : spec
(** The full sweep: 6 scenario families (adds diurnal and
    trace-replay) × 3 policies × 4 engines (adds auto),
    with skip rules for redundant engine × policy combinations. *)

val validate_spec : spec -> (unit, string) result
(** Non-empty axes, resolvable names, sane budgets. {!run} calls this
    and raises [Invalid_argument] on [Error]. *)

val spec_to_json : spec -> Rm_telemetry.Json.t
val spec_of_json : Rm_telemetry.Json.t -> spec
(** Raises [Failure] on malformed input (the {!Rm_telemetry.Json}
    accessor convention). *)

(** {2 Deterministic seeding} *)

val fnv1a : string -> int
(** 32-bit FNV-1a of the string (always non-negative). *)

val cell_seed :
  seed:int -> scenario:string -> policy:string -> engine:string -> int
(** The seed every stochastic input of a cell derives from:
    [(seed + fnv1a (scenario ^ "|" ^ policy ^ "|" ^ engine)) land
    0x3FFFFFFF]. Exposed so tests can pin the values. *)

(** {2 Results} *)

type slo_summary = {
  wait_p50 : float;
  wait_p90 : float;
  wait_p99 : float;
  mean_wait_s : float;
  max_queue_depth : int;
  mean_queue_depth : float;
}

type sched_result = {
  jobs_finished : int;
  rejected : int;
  requeues : int;
  faults_injected : int;
  makespan_s : float;
      (** last finish time minus the monitor warm-up; 0 when nothing
          finished *)
  goodput : float;  (** useful node-s / (useful + wasted); 1 without faults *)
  mean_turnaround_s : float;
  slo : slo_summary option;
      (** [None] when no dispatch-wait data was recorded *)
  counters : (string * float) list;
      (** {!selected_counters}, summed across label families *)
}

type status = Ran | Skipped of string

type cell = {
  scenario : string;
  policy : string;
  engine : string;
  status : status;
  allocs_per_sec : float option;
      (** [None] when the throughput budget was 0 (or the cell was
          skipped) *)
  reps : int;  (** allocate calls timed by the throughput loop *)
  sched : sched_result option;  (** [None] only for skipped cells *)
}

type artifact = {
  schema : string;  (** always {!schema_version} *)
  spec : spec;
  cores : int;
      (** [Domain.recommended_domain_count] of the producing host —
          throughput gates are skipped across differing core counts *)
  cells : cell list;
}

val schema_version : string
(** ["rm-matrix/v1"]. *)

val selected_counters : string list
(** The telemetry counters each scheduler run captures into
    {!sched_result.counters}. *)

val run : spec -> artifact
(** Executes every cell (see module doc for the substrate per family).
    Raises [Invalid_argument] when {!validate_spec} rejects the spec. *)

(** {2 Artifact codec} *)

val to_json : artifact -> Rm_telemetry.Json.t
val to_string : artifact -> string

val of_json : Rm_telemetry.Json.t -> (artifact, string) result
val of_string : string -> (artifact, string) result
(** [Error] on parse failure, schema mismatch or missing fields — never
    raises. *)

(** {2 Baseline gate} *)

type verdict = Pass | Fail of string | Skip_gate of string

type gated = {
  g_scenario : string;
  g_policy : string;
  g_engine : string;
  verdict : verdict;
}

val gate :
  ?ratio:float -> baseline:artifact -> current:artifact -> unit -> gated list
(** One entry per baseline cell that ran. Deterministic fields always
    gate: fewer [jobs_finished] than baseline, or goodput more than 0.1
    below baseline, is a [Fail]. Throughput gates — current rate below
    baseline / [ratio] (default 2.0) — apply only when both artifacts
    record the same [cores] (the {!Rm_core} bench-baseline convention).
    Cells missing or skipped in [current] yield [Skip_gate]. *)

val gate_ok : gated list -> bool
(** No [Fail] entries. *)

val render_gate : gated list -> string
(** One line per non-[Pass] entry plus a summary line. *)
