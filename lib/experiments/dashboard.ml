module Json = Rm_telemetry.Json
module Mat = Rm_stats.Matrix

type input = {
  current : Matrix.artifact;
  history : (string * Matrix.artifact) list;
  baseline : Matrix.artifact option;
  ratio : float;
  bench_allocator : Json.t option;
  bench_serve : Json.t option;
  bench_malleable : Json.t option;
}

let make ?(history = []) ?baseline ?(ratio = 2.0) ?bench_allocator ?bench_serve
    ?bench_malleable ~current () =
  {
    current;
    history;
    baseline;
    ratio;
    bench_allocator;
    bench_serve;
    bench_malleable;
  }

let verdicts input =
  match input.baseline with
  | None -> []
  | Some baseline ->
    Matrix.gate ~ratio:input.ratio ~baseline ~current:input.current ()

(* --- shared extraction ------------------------------------------------- *)

let cell_key (c : Matrix.cell) =
  Printf.sprintf "%s/%s/%s" c.Matrix.scenario c.Matrix.policy c.Matrix.engine

let verdict_for gated (c : Matrix.cell) =
  List.find_opt
    (fun (g : Matrix.gated) ->
      g.Matrix.g_scenario = c.Matrix.scenario
      && g.Matrix.g_policy = c.Matrix.policy
      && g.Matrix.g_engine = c.Matrix.engine)
    gated

let verdict_label = function
  | None -> "-"
  | Some (g : Matrix.gated) -> (
    match g.Matrix.verdict with
    | Matrix.Pass -> "pass"
    | Matrix.Fail m -> "FAIL: " ^ m
    | Matrix.Skip_gate m -> "skip: " ^ m)

let rate_str = function
  | None -> "-"
  | Some r -> Printf.sprintf "%.0f" r

let cell_table_header =
  [
    "scenario"; "policy"; "engine"; "status"; "allocs/s"; "reps"; "finished";
    "requeues"; "faults"; "makespan (s)"; "goodput"; "p99 wait (s)"; "verdict";
  ]

let cell_table_row gated (c : Matrix.cell) =
  let sched f d = match c.Matrix.sched with None -> d | Some s -> f s in
  [
    c.Matrix.scenario;
    c.Matrix.policy;
    c.Matrix.engine;
    (match c.Matrix.status with
    | Matrix.Ran -> "ran"
    | Matrix.Skipped reason -> "skipped: " ^ reason);
    rate_str c.Matrix.allocs_per_sec;
    string_of_int c.Matrix.reps;
    sched (fun s -> string_of_int s.Matrix.jobs_finished) "-";
    sched (fun s -> string_of_int s.Matrix.requeues) "-";
    sched (fun s -> string_of_int s.Matrix.faults_injected) "-";
    sched (fun s -> Printf.sprintf "%.0f" s.Matrix.makespan_s) "-";
    sched (fun s -> Printf.sprintf "%.3f" s.Matrix.goodput) "-";
    sched
      (fun s ->
        match s.Matrix.slo with
        | None -> "-"
        | Some slo -> Printf.sprintf "%.1f" slo.Matrix.wait_p99)
      "-";
    verdict_label (verdict_for gated c);
  ]

(* Per-policy scenario × engine grid of allocs/sec; [infinity] marks
   holes (skipped cells, zero budgets), which the ramp renderer prints
   as blanks. *)
let rate_grid (a : Matrix.artifact) policy =
  let scenarios = a.Matrix.spec.Matrix.scenarios in
  let engines = a.Matrix.spec.Matrix.engines in
  let m =
    Mat.create ~rows:(List.length scenarios) ~cols:(List.length engines)
      ~init:infinity
  in
  let any = ref false in
  List.iteri
    (fun i sc ->
      List.iteri
        (fun j en ->
          match
            List.find_opt
              (fun (c : Matrix.cell) ->
                c.Matrix.scenario = sc && c.Matrix.policy = policy
                && c.Matrix.engine = en)
              a.Matrix.cells
          with
          | Some { Matrix.allocs_per_sec = Some r; _ } ->
            any := true;
            Mat.set m i j r
          | _ -> ())
        engines)
    scenarios;
  if !any then Some (Array.of_list scenarios, Array.of_list engines, m)
  else None

(* Sparkline points for one cell across history runs plus current. *)
let trend_points input extract (c : Matrix.cell) =
  let of_artifact (a : Matrix.artifact) =
    Option.bind
      (List.find_opt
         (fun (h : Matrix.cell) ->
           h.Matrix.scenario = c.Matrix.scenario
           && h.Matrix.policy = c.Matrix.policy
           && h.Matrix.engine = c.Matrix.engine)
         a.Matrix.cells)
      extract
  in
  List.filter_map of_artifact
    (List.map snd input.history @ [ input.current ])

(* --- BENCH_*.json ingestion ------------------------------------------- *)

(* rm-bench-allocator/v1: network-load-aware rows per engine across
   cluster sizes V — the scaling trend the scale bench gates on. *)
let allocator_trends j =
  match
    let rows = Json.to_list (Json.member "rows" j) in
    let parsed =
      List.filter_map
        (fun r ->
          match
            ( Json.to_int (Json.member "v" r),
              Json.to_str (Json.member "policy" r),
              Json.to_str (Json.member "engine" r),
              Json.to_float (Json.member "allocs_per_sec" r) )
          with
          | row -> Some row
          | exception Failure _ -> None)
        rows
    in
    let nl =
      List.filter (fun (_, p, _, _) -> p = "network-load-aware") parsed
    in
    let engines =
      List.sort_uniq compare (List.map (fun (_, _, e, _) -> e) nl)
    in
    List.filter_map
      (fun engine ->
        let pts =
          List.sort
            (fun (v1, _, _, _) (v2, _, _, _) -> compare v1 v2)
            (List.filter (fun (_, _, e, _) -> e = engine) nl)
        in
        match pts with
        | [] -> None
        | _ ->
          let vs = List.map (fun (v, _, _, _) -> v) pts in
          let rates = Array.of_list (List.map (fun (_, _, _, r) -> r) pts) in
          Some (engine, vs, rates))
      engines
  with
  | trends -> trends
  | exception Failure _ -> []

(* rm-bench-serve/v1: the daemon's row(s). overlaps (double-booked
   grants) defaults to 0 for pre-overlay artifacts. *)
let serve_rows j =
  match
    Json.to_list (Json.member "rows" j)
    |> List.filter_map (fun r ->
           match
             ( Json.to_str (Json.member "mode" r),
               Json.to_float (Json.member "allocs_per_sec" r),
               Json.to_float (Json.member "p50_ms" r),
               Json.to_float (Json.member "p99_ms" r),
               match Json.member "overlaps" r with
               | Json.Null -> 0
               | o -> Json.to_int o )
           with
           | row -> Some row
           | exception Failure _ -> None)
  with
  | rows -> rows
  | exception Failure _ -> []

(* rm-malleable/v1: one trend row per study arm — rigid/malleable
   makespans, then the two recovery arms' goodput. *)
let malleable_rows j =
  let num section field =
    match Json.member field (Json.member section j) with
    | Json.Num n -> Some n
    | _ -> None
  in
  let arm section fields =
    let vs = List.map (fun f -> num section f) fields in
    if List.for_all Option.is_some vs then
      Some (section, List.map Option.get vs)
    else None
  in
  match
    List.filter_map Fun.id
      [
        arm "rigid" [ "finished"; "makespan_s"; "mean_turnaround_s" ];
        arm "malleable" [ "finished"; "makespan_s"; "mean_turnaround_s" ];
        arm "requeue_recovery" [ "finished"; "goodput"; "wasted_node_s" ];
        arm "shrink_recovery" [ "finished"; "goodput"; "wasted_node_s" ];
      ]
  with
  | rows -> rows
  | exception Failure _ -> []

(* Render one malleable arm as table cells; the field mix differs
   between the study arms and the recovery arms, so label per arm. *)
let malleable_cells (section, vs) =
  match (section, vs) with
  | ("rigid" | "malleable"), [ finished; makespan; turnaround ] ->
    [
      section;
      Printf.sprintf "%.0f" finished;
      Printf.sprintf "makespan %.0fs" makespan;
      Printf.sprintf "turnaround %.0fs" turnaround;
    ]
  | _, [ finished; goodput; wasted ] ->
    [
      section;
      Printf.sprintf "%.0f" finished;
      Printf.sprintf "goodput %.2f" goodput;
      Printf.sprintf "wasted %.0f node-s" wasted;
    ]
  | _, _ -> [ section; "-"; "-"; "-" ]

(* --- markdown ---------------------------------------------------------- *)

let count_status (a : Matrix.artifact) =
  List.fold_left
    (fun (ran, skipped) (c : Matrix.cell) ->
      match c.Matrix.status with
      | Matrix.Ran -> (ran + 1, skipped)
      | Matrix.Skipped _ -> (ran, skipped + 1))
    (0, 0) a.Matrix.cells

let markdown input =
  let a = input.current in
  let gated = verdicts input in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ran, skipped = count_status a in
  add "# RM perf dashboard — spec `%s`\n\n" a.Matrix.spec.Matrix.spec_name;
  add "%d cells (%d ran, %d skipped), seed %d, %d cores, schema `%s`\n\n"
    (List.length a.Matrix.cells) ran skipped a.Matrix.spec.Matrix.seed
    a.Matrix.cores a.Matrix.schema;
  add "## Cells\n\n```\n%s```\n\n"
    (Render.table_str ~header:cell_table_header
       ~rows:(List.map (cell_table_row gated) a.Matrix.cells));
  let grids =
    List.filter_map
      (fun p -> Option.map (fun g -> (p, g)) (rate_grid a p))
      a.Matrix.spec.Matrix.policies
  in
  if grids <> [] then begin
    add "## Heatmaps — allocs/sec (ramp ` .:-=+*#%%@`, dark = fast)\n\n";
    List.iter
      (fun (policy, (row_labels, col_labels, values)) ->
        add "### %s\n\n```\n%s```\n\n" policy
          (Render.heatmap_str ~row_labels ~col_labels ~values ()))
      grids
  end;
  add "## Baseline gate\n\n";
  (match input.baseline with
  | None -> add "no baseline artifact provided — nothing gated\n\n"
  | Some b ->
    if b.Matrix.cores <> a.Matrix.cores then
      add
        "note: baseline ran on %d cores, this run on %d — allocs/sec \
         ratios not compared (deterministic fields still gate)\n\n"
        b.Matrix.cores a.Matrix.cores;
    add "ratio %.1f\n\n```\n%s```\n\n" input.ratio (Matrix.render_gate gated));
  if input.history <> [] then begin
    add "## Trends across runs (%s → current)\n\n"
      (String.concat ", " (List.map fst input.history));
    let rows =
      List.filter_map
        (fun (c : Matrix.cell) ->
          let rates =
            trend_points input (fun h -> h.Matrix.allocs_per_sec) c
          in
          let makespans =
            trend_points input
              (fun h ->
                Option.map (fun s -> s.Matrix.makespan_s) h.Matrix.sched)
              c
          in
          if List.length rates < 2 && List.length makespans < 2 then None
          else
            let spark = function
              | [] | [ _ ] -> "-"
              | pts -> Render.sparkline (Array.of_list pts)
            in
            let last = function
              | [] -> "-"
              | pts -> Printf.sprintf "%.0f" (List.nth pts (List.length pts - 1))
            in
            Some
              [
                cell_key c; spark rates; last rates; spark makespans;
                last makespans;
              ])
        a.Matrix.cells
    in
    if rows = [] then add "not enough overlapping cells to draw trends\n\n"
    else
      add "```\n%s```\n\n"
        (Render.table_str
           ~header:
             [
               "cell"; "allocs/s trend"; "latest"; "makespan trend";
               "latest (s)";
             ]
           ~rows)
  end;
  (match input.bench_allocator with
  | None -> ()
  | Some j -> (
    match allocator_trends j with
    | [] -> ()
    | trends ->
      add
        "## Allocator scaling (BENCH_allocator.json, network-load-aware)\n\n\
         ```\n\
         %s```\n\n"
        (Render.table_str
           ~header:[ "engine"; "allocs/s across V"; "V range"; "at max V" ]
           ~rows:
             (List.map
                (fun (engine, vs, rates) ->
                  [
                    engine;
                    Render.sparkline rates;
                    Printf.sprintf "%d..%d" (List.hd vs)
                      (List.nth vs (List.length vs - 1));
                    Printf.sprintf "%.0f" rates.(Array.length rates - 1);
                  ])
                trends))));
  (match input.bench_serve with
  | None -> ()
  | Some j -> (
    match serve_rows j with
    | [] -> ()
    | rows ->
      add "## Serve daemon (BENCH_serve.json)\n\n```\n%s```\n\n"
        (Render.table_str
           ~header:
             [ "mode"; "allocs/s"; "p50 (ms)"; "p99 (ms)"; "overlaps" ]
           ~rows:
             (List.map
                (fun (mode, rate, p50, p99, overlaps) ->
                  [
                    mode;
                    Printf.sprintf "%.0f" rate;
                    Printf.sprintf "%.1f" p50;
                    Printf.sprintf "%.1f" p99;
                    string_of_int overlaps;
                  ])
                rows))));
  (match input.bench_malleable with
  | None -> ()
  | Some j -> (
    match malleable_rows j with
    | [] -> ()
    | rows ->
      add "## Malleability study (BENCH_malleable.json)\n\n```\n%s```\n\n"
        (Render.table_str
           ~header:[ "arm"; "finished"; "headline"; "detail" ]
           ~rows:(List.map malleable_cells rows))));
  add "## Cells CSV\n\n```\n%s```\n"
    (Render.csv ~header:cell_table_header
       ~rows:(List.map (cell_table_row gated) a.Matrix.cells));
  Buffer.contents buf

(* --- html -------------------------------------------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let style =
  {css|
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; color: #1a1a1a; }
h1 { border-bottom: 2px solid #ddd; padding-bottom: .3rem; }
table { border-collapse: collapse; margin: .8rem 0; font-size: .85rem; }
th, td { border: 1px solid #ccc; padding: .25rem .55rem; text-align: right; }
th { background: #f2f2f2; }
td.l, th.l { text-align: left; }
.badge { border-radius: .6rem; padding: .1rem .5rem; font-size: .8rem; white-space: nowrap; }
.pass { background: #d4edda; color: #155724; }
.fail { background: #f8d7da; color: #721c24; }
.skip { background: #e2e3e5; color: #41464b; }
.spark { font-family: monospace; letter-spacing: .05em; }
.note { color: #666; font-size: .9rem; }
pre { background: #f7f7f7; padding: .6rem; overflow-x: auto; }
|css}

let verdict_badge = function
  | None -> "<span class=\"badge skip\">-</span>"
  | Some (g : Matrix.gated) -> (
    match g.Matrix.verdict with
    | Matrix.Pass -> "<span class=\"badge pass\">pass</span>"
    | Matrix.Fail m ->
      Printf.sprintf "<span class=\"badge fail\">FAIL: %s</span>" (escape m)
    | Matrix.Skip_gate m ->
      Printf.sprintf "<span class=\"badge skip\">skip: %s</span>" (escape m))

(* Background shade for a heatmap cell: light → saturated blue across
   the grid's finite range, white text once it gets dark. *)
let shade ~lo ~hi v =
  if not (Float.is_finite v) then ""
  else
    let t = if hi <= lo then 1.0 else (v -. lo) /. (hi -. lo) in
    let light = 95.0 -. (55.0 *. t) in
    Printf.sprintf " style=\"background:hsl(210,65%%,%.0f%%);color:%s\"" light
      (if t > 0.55 then "#fff" else "#000")

let html_table ?(first_col_left = true) ~header ~rows () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<table><tr>";
  List.iteri
    (fun i h ->
      Buffer.add_string buf
        (Printf.sprintf "<th%s>%s</th>"
           (if first_col_left && i = 0 then " class=\"l\"" else "")
           (escape h)))
    header;
  Buffer.add_string buf "</tr>\n";
  List.iter
    (fun row ->
      Buffer.add_string buf "<tr>";
      List.iteri
        (fun i cell ->
          Buffer.add_string buf
            (Printf.sprintf "<td%s>%s</td>"
               (if first_col_left && i = 0 then " class=\"l\"" else "")
               cell))
        row;
      Buffer.add_string buf "</tr>\n")
    rows;
  Buffer.add_string buf "</table>\n";
  Buffer.contents buf

let html input =
  let a = input.current in
  let gated = verdicts input in
  let buf = Buffer.create 16384 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ran, skipped = count_status a in
  add
    "<!DOCTYPE html>\n\
     <html><head><meta charset=\"utf-8\">\n\
     <title>RM perf dashboard — %s</title>\n\
     <style>%s</style></head><body>\n"
    (escape a.Matrix.spec.Matrix.spec_name)
    style;
  add "<h1>RM perf dashboard — spec <code>%s</code></h1>\n"
    (escape a.Matrix.spec.Matrix.spec_name);
  add
    "<p class=\"note\">%d cells (%d ran, %d skipped) · seed %d · %d cores · \
     schema <code>%s</code></p>\n"
    (List.length a.Matrix.cells) ran skipped a.Matrix.spec.Matrix.seed
    a.Matrix.cores (escape a.Matrix.schema);
  (* gate banner first: the page's one-glance answer *)
  (match input.baseline with
  | None ->
    add "<p class=\"note\">no baseline artifact — nothing gated</p>\n"
  | Some b ->
    let fails =
      List.filter
        (fun (g : Matrix.gated) ->
          match g.Matrix.verdict with Matrix.Fail _ -> true | _ -> false)
        gated
    in
    if fails = [] then
      add
        "<p><span class=\"badge pass\">gate: all %d compared cells pass \
         (ratio %.1f)</span></p>\n"
        (List.length gated) input.ratio
    else
      add
        "<p><span class=\"badge fail\">gate: %d of %d compared cells FAIL \
         (ratio %.1f)</span></p>\n"
        (List.length fails) (List.length gated) input.ratio;
    if b.Matrix.cores <> a.Matrix.cores then
      add
        "<p class=\"note\">baseline ran on %d cores, this run on %d — \
         allocs/sec ratios not compared (deterministic fields still \
         gate)</p>\n"
        b.Matrix.cores a.Matrix.cores);
  add "<h2>Cells</h2>\n";
  let rows =
    List.map
      (fun (c : Matrix.cell) ->
        let plain = cell_table_row gated c in
        (* replace the trailing plain-text verdict with a badge *)
        List.mapi
          (fun i v ->
            if i = List.length plain - 1 then
              verdict_badge (verdict_for gated c)
            else escape v)
          plain)
      a.Matrix.cells
  in
  Buffer.add_string buf (html_table ~header:cell_table_header ~rows ());
  let grids =
    List.filter_map
      (fun p -> Option.map (fun g -> (p, g)) (rate_grid a p))
      a.Matrix.spec.Matrix.policies
  in
  if grids <> [] then begin
    add "<h2>Heatmaps — allocs/sec</h2>\n";
    List.iter
      (fun (policy, (row_labels, col_labels, values)) ->
        add "<h3>%s</h3>\n<table><tr><th class=\"l\">scenario</th>"
          (escape policy);
        Array.iter (fun c -> add "<th>%s</th>" (escape c)) col_labels;
        add "</tr>\n";
        let lo = ref infinity and hi = ref neg_infinity in
        for i = 0 to Mat.rows values - 1 do
          for j = 0 to Mat.cols values - 1 do
            let v = Mat.get values i j in
            if Float.is_finite v then begin
              lo := Float.min !lo v;
              hi := Float.max !hi v
            end
          done
        done;
        Array.iteri
          (fun i r ->
            add "<tr><td class=\"l\">%s</td>" (escape r);
            for j = 0 to Mat.cols values - 1 do
              let v = Mat.get values i j in
              if Float.is_finite v then
                add "<td%s>%.0f</td>" (shade ~lo:!lo ~hi:!hi v) v
              else add "<td></td>"
            done;
            add "</tr>\n")
          row_labels;
        add "</table>\n")
      grids
  end;
  if input.history <> [] then begin
    add "<h2>Trends across runs (%s → current)</h2>\n"
      (escape (String.concat ", " (List.map fst input.history)));
    let rows =
      List.filter_map
        (fun (c : Matrix.cell) ->
          let rates =
            trend_points input (fun h -> h.Matrix.allocs_per_sec) c
          in
          let makespans =
            trend_points input
              (fun h ->
                Option.map (fun s -> s.Matrix.makespan_s) h.Matrix.sched)
              c
          in
          if List.length rates < 2 && List.length makespans < 2 then None
          else
            let spark = function
              | [] | [ _ ] -> "-"
              | pts ->
                Printf.sprintf "<span class=\"spark\">%s</span>"
                  (escape (Render.sparkline (Array.of_list pts)))
            in
            let last = function
              | [] -> "-"
              | pts ->
                Printf.sprintf "%.0f" (List.nth pts (List.length pts - 1))
            in
            Some
              [
                escape (cell_key c); spark rates; last rates; spark makespans;
                last makespans;
              ])
        a.Matrix.cells
    in
    if rows = [] then
      add "<p class=\"note\">not enough overlapping cells to draw trends</p>\n"
    else
      Buffer.add_string buf
        (html_table
           ~header:
             [
               "cell"; "allocs/s trend"; "latest"; "makespan trend";
               "latest (s)";
             ]
           ~rows ())
  end;
  (match input.bench_allocator with
  | None -> ()
  | Some j -> (
    match allocator_trends j with
    | [] -> ()
    | trends ->
      add
        "<h2>Allocator scaling (BENCH_allocator.json, \
         network-load-aware)</h2>\n";
      Buffer.add_string buf
        (html_table
           ~header:[ "engine"; "allocs/s across V"; "V range"; "at max V" ]
           ~rows:
             (List.map
                (fun (engine, vs, rates) ->
                  [
                    escape engine;
                    Printf.sprintf "<span class=\"spark\">%s</span>"
                      (escape (Render.sparkline rates));
                    Printf.sprintf "%d..%d" (List.hd vs)
                      (List.nth vs (List.length vs - 1));
                    Printf.sprintf "%.0f" rates.(Array.length rates - 1);
                  ])
                trends)
           ())));
  (match input.bench_serve with
  | None -> ()
  | Some j -> (
    match serve_rows j with
    | [] -> ()
    | rows ->
      add "<h2>Serve daemon (BENCH_serve.json)</h2>\n";
      Buffer.add_string buf
        (html_table
           ~header:
             [ "mode"; "allocs/s"; "p50 (ms)"; "p99 (ms)"; "overlaps" ]
           ~rows:
             (List.map
                (fun (mode, rate, p50, p99, overlaps) ->
                  [
                    escape mode;
                    Printf.sprintf "%.0f" rate;
                    Printf.sprintf "%.1f" p50;
                    Printf.sprintf "%.1f" p99;
                    string_of_int overlaps;
                  ])
                rows)
           ())));
  (match input.bench_malleable with
  | None -> ()
  | Some j -> (
    match malleable_rows j with
    | [] -> ()
    | rows ->
      add "<h2>Malleability study (BENCH_malleable.json)</h2>\n";
      Buffer.add_string buf
        (html_table
           ~header:[ "arm"; "finished"; "headline"; "detail" ]
           ~rows:(List.map (fun r -> List.map escape (malleable_cells r)) rows)
           ())));
  add "<h2>Cells CSV</h2>\n<pre>%s</pre>\n"
    (escape
       (Render.csv ~header:cell_table_header
          ~rows:(List.map (cell_table_row gated) a.Matrix.cells)));
  add "</body></html>\n";
  Buffer.contents buf
