type kind = Counter | Gauge | Histogram

(* Cells are [Atomic.t] and the registry is mutex-guarded so metrics
   stay coherent when several threads or domains update them.
   Contended float adds go through a CAS loop on the boxed value; the
   disabled path is still a single [Runtime.is_enabled] load per site. *)
type t = {
  name : string;
  labels : (string * string) list;  (* sorted *)
  kind : kind;
  buckets : float array;  (* upper bounds, strictly increasing *)
  counts : int Atomic.t array;  (* length = Array.length buckets + 1 *)
  value : float Atomic.t;
  observations : int Atomic.t;
}

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0; 100.0; 1000.0 |]

let registry : (string * (string * string) list, t) Hashtbl.t =
  Hashtbl.create 64

let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

(* Retry until no concurrent writer slipped in between the read and the
   CAS; the CAS compares the boxed float physically, so re-reading the
   same box guarantees progress detection. *)
let rec atomic_add_float cell delta =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. delta)) then
    atomic_add_float cell delta

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

let register ~name ~labels ~kind ~buckets =
  let labels = normalize_labels labels in
  let key = (name, labels) in
  with_registry (fun () ->
      match Hashtbl.find_opt registry key with
      | Some m ->
        if m.kind <> kind then
          invalid_arg
            (Printf.sprintf "Metrics: %s re-registered as a different kind" name);
        m
      | None ->
        let m =
          {
            name;
            labels;
            kind;
            buckets;
            counts =
              (match kind with
              | Histogram ->
                Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0)
              | Counter | Gauge -> [||]);
            value = Atomic.make 0.0;
            observations = Atomic.make 0;
          }
        in
        Hashtbl.replace registry key m;
        m)

let counter ?(labels = []) name =
  register ~name ~labels ~kind:Counter ~buckets:[||]

let gauge ?(labels = []) name =
  register ~name ~labels ~kind:Gauge ~buckets:[||]

let histogram ?(labels = []) ?(buckets = default_buckets) name =
  let ok = ref (Array.length buckets > 0) in
  Array.iteri
    (fun i b -> if i > 0 && b <= buckets.(i - 1) then ok := false)
    buckets;
  if not !ok then
    invalid_arg "Metrics.histogram: buckets must be non-empty and increasing";
  register ~name ~labels ~kind:Histogram ~buckets

let incr m =
  if Runtime.is_enabled () then begin
    match m.kind with
    | Counter -> atomic_add_float m.value 1.0
    | Gauge | Histogram -> invalid_arg "Metrics.incr: not a counter"
  end

let add m delta =
  if Runtime.is_enabled () then begin
    match m.kind with
    | Counter ->
      if delta < 0.0 then invalid_arg "Metrics.add: negative counter delta";
      atomic_add_float m.value delta
    | Gauge -> atomic_add_float m.value delta
    | Histogram -> invalid_arg "Metrics.add: not a counter or gauge"
  end

let set m v =
  if Runtime.is_enabled () then begin
    match m.kind with
    | Gauge -> Atomic.set m.value v
    | Counter | Histogram -> invalid_arg "Metrics.set: not a gauge"
  end

let observe m v =
  if Runtime.is_enabled () then begin
    match m.kind with
    | Histogram ->
      let k = Array.length m.buckets in
      let rec slot i = if i >= k || v <= m.buckets.(i) then i else slot (i + 1) in
      let i = slot 0 in
      Atomic.incr m.counts.(i);
      atomic_add_float m.value v;
      Atomic.incr m.observations
    | Counter | Gauge -> invalid_arg "Metrics.observe: not a histogram"
  end

let value m = Atomic.get m.value
let count m = Atomic.get m.observations

let bucket_counts m =
  match m.kind with
  | Histogram ->
    List.init
      (Array.length m.counts)
      (fun i ->
        ( (if i < Array.length m.buckets then m.buckets.(i) else infinity),
          Atomic.get m.counts.(i) ))
  | Counter | Gauge -> []

type view = {
  name : string;
  labels : (string * string) list;
  kind : kind;
  value : float;
  count : int;
  buckets : (float * int) list;
}

let view_of (m : t) =
  {
    name = m.name;
    labels = m.labels;
    kind = m.kind;
    value = Atomic.get m.value;
    count = Atomic.get m.observations;
    buckets = bucket_counts m;
  }

(* A histogram's sum, count and buckets are separate atomics; a writer
   can land between any two reads. Re-read until the observation count
   is stable across the whole view (bounded retries — under sustained
   contention the last attempt wins, which is no worse than the
   one-shot read). *)
let consistent_view_of (m : t) =
  match m.kind with
  | Counter | Gauge -> view_of m
  | Histogram ->
    let rec go tries =
      let before = Atomic.get m.observations in
      let v = view_of m in
      if
        (v.count = before && Atomic.get m.observations = before) || tries >= 8
      then v
      else go (tries + 1)
    in
    go 0

let snapshot ?(consistent = false) () =
  let read = if consistent then consistent_view_of else view_of in
  with_registry (fun () ->
      Hashtbl.fold (fun _ (m : t) acc -> read m :: acc) registry [])
  |> List.sort (fun a b ->
         match compare a.name b.name with
         | 0 -> compare a.labels b.labels
         | c -> c)

let find ?(labels = []) name =
  with_registry (fun () ->
      Hashtbl.find_opt registry (name, normalize_labels labels))

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ (m : t) ->
          Atomic.set m.value 0.0;
          Atomic.set m.observations 0;
          Array.iter (fun c -> Atomic.set c 0) m.counts)
        registry)

let label_string labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
    ^ "}"

let render () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun v ->
      match v.kind with
      | Counter ->
        Buffer.add_string buf
          (Printf.sprintf "counter   %s%s %.6g\n" v.name
             (label_string v.labels) v.value)
      | Gauge ->
        Buffer.add_string buf
          (Printf.sprintf "gauge     %s%s %.6g\n" v.name
             (label_string v.labels) v.value)
      | Histogram ->
        Buffer.add_string buf
          (Printf.sprintf "histogram %s%s count=%d sum=%.6g%s\n" v.name
             (label_string v.labels) v.count v.value
             (if v.count = 0 then ""
              else
                " | "
                ^ String.concat " "
                    (List.filter_map
                       (fun (ub, n) ->
                         if n = 0 then None
                         else if Float.is_finite ub then
                           Some (Printf.sprintf "le%.3g:%d" ub n)
                         else Some (Printf.sprintf "inf:%d" n))
                       v.buckets))))
    (snapshot ());
  Buffer.contents buf
