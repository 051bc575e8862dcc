(* Spans recorded around the benchmark's calls into the program's
   layers. Spans stay in memory and are written once, at the end, as
   Chrome trace-event JSON; per-layer figures are aggregated from them.
   A span's self time is its duration minus the time its child spans
   cover. *)

module Json = Rm_telemetry.Json

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  req : int;  (** request (or slice) the span belongs to *)
  mutable start : float;
  mutable stop : float;
  mutable children_s : float;
  mutable kw : float;  (** minor-heap kilowords allocated inside *)
  mutable misses : int;  (** Model_cache misses incurred inside *)
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable stack : span list;
  origin : float;
}

let create () = { spans = []; next = 1; stack = []; origin = Measure.now () }

let span t ?req name f =
  let parent, inherited =
    match t.stack with p :: _ -> (p.id, p.req) | [] -> (0, 0)
  in
  let s =
    {
      id = t.next;
      name;
      parent;
      req = Option.value req ~default:inherited;
      start = 0.0;
      stop = 0.0;
      children_s = 0.0;
      kw = 0.0;
      misses = 0;
    }
  in
  t.next <- t.next + 1;
  t.stack <- s :: t.stack;
  let misses0 = Rm_core.Model_cache.misses () in
  let words0 = Gc.minor_words () in
  s.start <- Measure.now ();
  let finish () =
    let stop = Measure.now () in
    s.stop <- stop;
    s.kw <- (Gc.minor_words () -. words0) /. 1000.0;
    s.misses <- Rm_core.Model_cache.misses () - misses0;
    t.stack <- List.tl t.stack;
    (match t.stack with
    | p :: _ -> p.children_s <- p.children_s +. (stop -. s.start)
    | [] -> ());
    t.spans <- s :: t.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let self_s s = s.stop -. s.start -. s.children_s

(* --- per-layer aggregates ------------------------------------------------- *)

type layer = {
  calls : int;
  p50_us : float;  (** median duration per call *)
  self_ms : float;  (** total self time *)
  kw_per_call : float;
  rebuilds : int;  (** Model_cache misses inside the layer's calls *)
}

let layer t name =
  let mine = List.filter (fun s -> s.name = name) t.spans in
  let calls = List.length mine in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 mine in
  {
    calls;
    p50_us = 1e6 *. Measure.median (List.map (fun s -> s.stop -. s.start) mine);
    self_ms = 1e3 *. sum self_s;
    kw_per_call = (if calls = 0 then 0.0 else sum (fun s -> s.kw) /. float_of_int calls);
    rebuilds = List.fold_left (fun acc s -> acc + s.misses) 0 mine;
  }

(* Self-time share of every span name over the total time of the root
   spans, counting only spans that belong to a request or slice. *)
let shares t =
  let t = { t with spans = List.filter (fun s -> s.req > 0) t.spans } in
  let total =
    List.fold_left
      (fun acc s -> if s.parent = 0 then acc +. (s.stop -. s.start) else acc)
      0.0 t.spans
  in
  let names = List.sort_uniq compare (List.map (fun s -> s.name) t.spans) in
  List.map
    (fun name ->
      let self =
        List.fold_left
          (fun acc s -> if s.name = name then acc +. self_s s else acc)
          0.0 t.spans
      in
      (name, if total > 0.0 then self /. total else 0.0))
    names
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

(* --- export --------------------------------------------------------------- *)

let to_chrome t =
  let us x = Float.round ((x -. t.origin) *. 1e7) /. 10.0 in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (match String.index_opt s.name '.' with
             | Some i -> String.sub s.name 0 i
             | None -> s.name));
        ("ph", Json.Str "X");
        ("ts", Json.Num (us s.start));
        ("dur", Json.Num (us s.stop -. us s.start));
        ("pid", Json.Num 1.0);
        ("tid", Json.Num 1.0);
        ( "args",
          Json.Obj
            [
              ("id", Json.Num (float_of_int s.id));
              ("parent", Json.Num (float_of_int s.parent));
              ("req", Json.Num (float_of_int s.req));
              ("self_us", Json.Num (Float.round (self_s s *. 1e7) /. 10.0));
              ("kw", Json.Num s.kw);
            ] );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.rev_map event t.spans));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write t ~path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string (to_chrome t));
      Out_channel.output_char oc '\n')
