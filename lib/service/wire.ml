(* JSON wire protocol for the resident allocation daemon (`brokerd` /
   `rmctl serve`).

   Transport framing is one JSON object per line in both directions.
   Every request carries the protocol version and a client-chosen
   request id; the matching response echoes that id, so a client may
   pipeline requests on one connection and correlate the replies.

     {"v":3,"id":7,"op":"allocate","procs":32,"ppn":4,"alpha":0.3,
      "policy":"network-load-aware"}
     {"v":3,"id":7,"ok":"allocated","alloc":3,"policy":"network-load-aware",
      "entries":[{"node":12,"procs":4}, ...]}

   Decisions the broker cannot satisfy *right now* but could later come
   back as `retry` responses with an `after_s` hint (broker Wait under a
   load threshold, admission-queue backpressure); hard failures come
   back as `error` responses with a machine-readable code. The codec
   validates on decode — a request that decodes `Ok` is safe to hand to
   `Request.make` / `Broker.decide` without re-checking — and never
   raises: malformed, truncated, deeply nested or duplicate-key lines
   all decode to an error. Numbers are emitted with `Json`'s
   round-trip-exact float format, so encode/decode is the identity on
   every well-formed message (qcheck-gated in `test_service.ml`). *)

module Json = Rm_telemetry.Json
module Policies = Rm_core.Policies
module Allocation = Rm_core.Allocation

(* The one protocol version this codec speaks: any other [v] is refused
   with [Unsupported_version]. *)
let version = 3

(* --- requests ---------------------------------------------------------- *)

type allocate = {
  procs : int;
  ppn : int option;
  alpha : float;  (* Eq. 4 compute weight; beta = 1 - alpha *)
  policy : Policies.policy option;
      (** [None] inherits the daemon's default policy. *)
  wait_threshold : float option;
      (** [None] inherits the daemon's default broker threshold. *)
  lease_s : float option;
      (** requested lease duration. [None] inherits the daemon's
          default lease (which may be unlimited). *)
  load_per_proc : float option;
      (** overlay compute load each granted rank contributes.
          [None] inherits the daemon's profile default. *)
  traffic_mb_s_per_proc : float option;
      (** overlay traffic each rank pushes to its ring neighbour.
          [None] inherits the daemon's profile default. *)
}

type grow = {
  alloc_id : int;
  delta_procs : int;  (* >= 1 *)
  grow_ppn : int option;
  grow_alpha : float;
  grow_policy : Policies.policy option;
      (** policy for placing the added procs; [None] inherits *)
}

type request =
  | Allocate of allocate
  | Release of { alloc_id : int }
  | Grow of grow  (** add [delta_procs] to a live allocation *)
  | Shrink of { alloc_id : int; delta_procs : int }
      (** retreat [delta_procs] from the allocation's tail entries *)
  | Status
  | Metrics

type req = { req_id : int; request : request }

(* --- responses --------------------------------------------------------- *)

type retry_reason =
  | Overloaded of { mean_load_per_core : float; threshold : float }
  | Queue_full

type error_code =
  | Bad_request
  | Unsupported_version
  | Shutting_down
  | Insufficient_capacity
  | No_usable_nodes
  | Unknown_alloc
  | Already_released
  | Reconfig_rejected

let error_code_name = function
  | Bad_request -> "bad_request"
  | Unsupported_version -> "unsupported_version"
  | Shutting_down -> "shutting_down"
  | Insufficient_capacity -> "insufficient_capacity"
  | No_usable_nodes -> "no_usable_nodes"
  | Unknown_alloc -> "unknown_alloc"
  | Already_released -> "already_released"
  | Reconfig_rejected -> "reconfig_rejected"

let error_code_of_name = function
  | "bad_request" -> Some Bad_request
  | "unsupported_version" -> Some Unsupported_version
  | "shutting_down" -> Some Shutting_down
  | "insufficient_capacity" -> Some Insufficient_capacity
  | "no_usable_nodes" -> Some No_usable_nodes
  | "unknown_alloc" -> Some Unknown_alloc
  | "already_released" -> Some Already_released
  | "reconfig_rejected" -> Some Reconfig_rejected
  | _ -> None

type status_info = {
  daemon_version : int;
  uptime_s : float;
  virtual_time : float;
  active_allocations : int;
  queue_depth : int;
  served : int;
  batches : int;
  batching : bool;  (** always [true]: the daemon has one mode *)
  draining : bool;
  cache_hits : int;
  cache_misses : int;
  overlay : bool;  (** always [true]: grants overlay load and hold nodes *)
  active_leases : int;  (** live allocations with an expiry *)
}

type response =
  | Allocated of {
      alloc_id : int;
      allocation : Allocation.t;
      expires_s : float option;
          (** lease duration granted, [None] = no expiry *)
    }
  | Reconfigured of {
      alloc_id : int;
      allocation : Allocation.t;  (** the new shape, post-directive *)
      moved_procs : int;  (** ranks whose home node changed *)
      delay_s : float;  (** modeled data-redistribution delay *)
    }  (** a grow or shrink directive was applied *)
  | Retry of { after_s : float; reason : retry_reason }
  | Released of { alloc_id : int }
  | Status_info of status_info
  | Metrics_text of string
  | Error of { code : error_code; message : string }

type resp = { resp_id : int; response : response }

(* --- encoding ---------------------------------------------------------- *)

let envelope id fields =
  Json.Obj
    (("v", Json.Num (float_of_int version))
    :: ("id", Json.Num (float_of_int id))
    :: fields)

let encode_request { req_id; request } =
  let fields =
    match request with
    | Allocate a ->
      [ ("op", Json.Str "allocate");
        ("procs", Json.Num (float_of_int a.procs)) ]
      @ (match a.ppn with
        | Some p -> [ ("ppn", Json.Num (float_of_int p)) ]
        | None -> [])
      @ [ ("alpha", Json.Num a.alpha) ]
      @ (match a.policy with
        | Some p -> [ ("policy", Json.Str (Policies.name p)) ]
        | None -> [])
      @ (match a.wait_threshold with
        | Some w -> [ ("wait_threshold", Json.Num w) ]
        | None -> [])
      @ (match a.lease_s with
        | Some l -> [ ("lease_s", Json.Num l) ]
        | None -> [])
      @ (match a.load_per_proc with
        | Some l -> [ ("load_per_proc", Json.Num l) ]
        | None -> [])
      @
      (match a.traffic_mb_s_per_proc with
      | Some tr -> [ ("traffic_mb_s_per_proc", Json.Num tr) ]
      | None -> [])
    | Release { alloc_id } ->
      [ ("op", Json.Str "release"); ("alloc", Json.Num (float_of_int alloc_id)) ]
    | Grow g ->
      [ ("op", Json.Str "grow");
        ("alloc", Json.Num (float_of_int g.alloc_id));
        ("delta", Json.Num (float_of_int g.delta_procs)) ]
      @ (match g.grow_ppn with
        | Some p -> [ ("ppn", Json.Num (float_of_int p)) ]
        | None -> [])
      @ [ ("alpha", Json.Num g.grow_alpha) ]
      @
      (match g.grow_policy with
      | Some p -> [ ("policy", Json.Str (Policies.name p)) ]
      | None -> [])
    | Shrink { alloc_id; delta_procs } ->
      [
        ("op", Json.Str "shrink");
        ("alloc", Json.Num (float_of_int alloc_id));
        ("delta", Json.Num (float_of_int delta_procs));
      ]
    | Status -> [ ("op", Json.Str "status") ]
    | Metrics -> [ ("op", Json.Str "metrics") ]
  in
  Json.to_string (envelope req_id fields)

let entries_to_json entries =
  Json.Arr
    (List.map
       (fun (e : Allocation.entry) ->
         Json.Obj
           [
             ("node", Json.Num (float_of_int e.Allocation.node));
             ("procs", Json.Num (float_of_int e.Allocation.procs));
           ])
       entries)

let status_to_json (s : status_info) =
  Json.Obj
    [
      ("daemon_version", Json.Num (float_of_int s.daemon_version));
      ("uptime_s", Json.Num s.uptime_s);
      ("virtual_time", Json.Num s.virtual_time);
      ("active_allocations", Json.Num (float_of_int s.active_allocations));
      ("queue_depth", Json.Num (float_of_int s.queue_depth));
      ("served", Json.Num (float_of_int s.served));
      ("batches", Json.Num (float_of_int s.batches));
      ("batching", Json.Bool s.batching);
      ("draining", Json.Bool s.draining);
      ("cache_hits", Json.Num (float_of_int s.cache_hits));
      ("cache_misses", Json.Num (float_of_int s.cache_misses));
      ("overlay", Json.Bool s.overlay);
      ("active_leases", Json.Num (float_of_int s.active_leases));
    ]

let encode_response { resp_id; response } =
  let fields =
    match response with
    | Allocated { alloc_id; allocation; expires_s } ->
      [
        ("ok", Json.Str "allocated");
        ("alloc", Json.Num (float_of_int alloc_id));
        ("policy", Json.Str allocation.Allocation.policy);
        ("entries", entries_to_json allocation.Allocation.entries);
      ]
      @
      (match expires_s with
      | Some e -> [ ("expires_s", Json.Num e) ]
      | None -> [])
    | Reconfigured { alloc_id; allocation; moved_procs; delay_s } ->
      [
        ("ok", Json.Str "reconfigured");
        ("alloc", Json.Num (float_of_int alloc_id));
        ("policy", Json.Str allocation.Allocation.policy);
        ("entries", entries_to_json allocation.Allocation.entries);
        ("moved", Json.Num (float_of_int moved_procs));
        ("delay_s", Json.Num delay_s);
      ]
    | Retry { after_s; reason } ->
      [ ("ok", Json.Str "retry"); ("after_s", Json.Num after_s) ]
      @ (match reason with
        | Queue_full -> [ ("reason", Json.Str "queue_full") ]
        | Overloaded { mean_load_per_core; threshold } ->
          [
            ("reason", Json.Str "overloaded");
            ("mean_load_per_core", Json.Num mean_load_per_core);
            ("threshold", Json.Num threshold);
          ])
    | Released { alloc_id } ->
      [ ("ok", Json.Str "released"); ("alloc", Json.Num (float_of_int alloc_id)) ]
    | Status_info s -> [ ("ok", Json.Str "status"); ("status", status_to_json s) ]
    | Metrics_text text ->
      [ ("ok", Json.Str "metrics"); ("exposition", Json.Str text) ]
    | Error { code; message } ->
      [
        ("error", Json.Str (error_code_name code));
        ("message", Json.Str message);
      ]
  in
  Json.to_string (envelope resp_id fields)

(* --- decoding ---------------------------------------------------------- *)

type decode_error = { err_id : int option; code : error_code; message : string }

exception Reject of error_code * string

let reject code fmt = Printf.ksprintf (fun m -> raise (Reject (code, m))) fmt

let as_int ~what = function
  | Json.Num n when Float.is_integer n && Float.abs n < 1e9 -> int_of_float n
  | Json.Null -> reject Bad_request "missing %s" what
  | _ -> reject Bad_request "%s must be an integer" what

let as_finite ~what = function
  | Json.Num n when Float.is_finite n -> n
  | Json.Null -> reject Bad_request "missing %s" what
  | _ -> reject Bad_request "%s must be a finite number" what

let as_string ~what = function
  | Json.Str s -> s
  | Json.Null -> reject Bad_request "missing %s" what
  | _ -> reject Bad_request "%s must be a string" what

let as_bool ~what = function
  | Json.Bool b -> b
  | _ -> reject Bad_request "%s must be a boolean" what

let decode_ppn_alpha_policy j =
  let ppn =
    match Json.member "ppn" j with
    | Json.Null -> None
    | v ->
      let p = as_int ~what:"ppn" v in
      if p <= 0 then reject Bad_request "ppn must be positive";
      Some p
  in
  let alpha =
    match Json.member "alpha" j with
    | Json.Null -> 0.5
    | v -> as_finite ~what:"alpha" v
  in
  if alpha < 0.0 || alpha > 1.0 then
    reject Bad_request "alpha must be in [0, 1]";
  let policy =
    match Json.member "policy" j with
    | Json.Null -> None
    | v -> (
      let name = as_string ~what:"policy" v in
      match Policies.of_name name with
      | Some p -> Some p
      | None -> reject Bad_request "unknown policy %S" name)
  in
  (ppn, alpha, policy)

let decode_allocate j =
  let procs = as_int ~what:"procs" (Json.member "procs" j) in
  if procs <= 0 then reject Bad_request "procs must be positive";
  let ppn, alpha, policy = decode_ppn_alpha_policy j in
  let wait_threshold =
    match Json.member "wait_threshold" j with
    | Json.Null -> None
    | v -> Some (as_finite ~what:"wait_threshold" v)
  in
  let lease_s =
    match Json.member "lease_s" j with
    | Json.Null -> None
    | v ->
      let l = as_finite ~what:"lease_s" v in
      if l <= 0.0 then reject Bad_request "lease_s must be positive";
      Some l
  in
  let nonneg what =
    match Json.member what j with
    | Json.Null -> None
    | v ->
      let x = as_finite ~what v in
      if x < 0.0 then reject Bad_request "%s must be >= 0" what;
      Some x
  in
  let load_per_proc = nonneg "load_per_proc" in
  let traffic_mb_s_per_proc = nonneg "traffic_mb_s_per_proc" in
  Allocate
    {
      procs;
      ppn;
      alpha;
      policy;
      wait_threshold;
      lease_s;
      load_per_proc;
      traffic_mb_s_per_proc;
    }

let decode_delta j =
  let delta = as_int ~what:"delta" (Json.member "delta" j) in
  if delta <= 0 then reject Bad_request "delta must be positive";
  delta

let decode_grow j =
  let alloc_id = as_int ~what:"alloc" (Json.member "alloc" j) in
  let delta_procs = decode_delta j in
  let grow_ppn, grow_alpha, grow_policy = decode_ppn_alpha_policy j in
  Grow { alloc_id; delta_procs; grow_ppn; grow_alpha; grow_policy }

(* The keys that occur more than once, in sorted order. Sorting keeps a
   hostile line of many distinct keys at n log n compares. *)
let repeated_keys fields =
  let rec go acc = function
    | a :: (b :: _ as rest) when String.equal a b ->
      go (match acc with x :: _ when String.equal x a -> acc | _ -> a :: acc) rest
    | _ :: rest -> go acc rest
    | [] -> List.rev acc
  in
  go [] (List.sort String.compare (List.map fst fields))

(* Shared by request and response decoding: parse the line, reject
   duplicate top-level keys, check the version, pull the id. The id is
   extracted first so even an unsupported-version or duplicate-key
   error can be correlated — unless the id itself is repeated. *)
let decode_envelope ?(seen_id = ref None) line =
  match Json.of_string line with
  | exception Failure m -> raise (Reject (Bad_request, m))
  | Json.Obj fields as j ->
    let repeated = repeated_keys fields in
    let id =
      match Json.member "id" j with
      | _ when List.mem "id" repeated -> None
      | Json.Num n when Float.is_integer n && Float.abs n < 1e9 ->
        Some (int_of_float n)
      | _ -> None
    in
    seen_id := id;
    (match repeated with
    | k :: _ -> reject Bad_request "duplicate key %S" k
    | [] -> ());
    (match Json.member "v" j with
    | Json.Num n when n = float_of_int version -> ()
    | Json.Null -> reject Bad_request "missing protocol version"
    | Json.Num n ->
      reject Unsupported_version "unsupported version %g (expected %d)" n version
    | _ -> reject Bad_request "version must be a number");
    (match id with
    | Some id -> (id, j)
    | None -> reject Bad_request "missing request id")
  | _ -> raise (Reject (Bad_request, "top level is not a JSON object"))

let decode_request line : (req, decode_error) result =
  let id = ref None in
  try
    let req_id, j = decode_envelope ~seen_id:id line in
    let request =
      match as_string ~what:"op" (Json.member "op" j) with
      | "allocate" -> decode_allocate j
      | "release" ->
        Release { alloc_id = as_int ~what:"alloc" (Json.member "alloc" j) }
      | "grow" -> decode_grow j
      | "shrink" ->
        Shrink
          {
            alloc_id = as_int ~what:"alloc" (Json.member "alloc" j);
            delta_procs = decode_delta j;
          }
      | "status" -> Status
      | "metrics" -> Metrics
      | op -> reject Bad_request "unknown op %S" op
    in
    Ok { req_id; request }
  with Reject (code, message) -> Error { err_id = !id; code; message }

let decode_entries j =
  match j with
  | Json.Arr items ->
    List.map
      (fun e ->
        {
          Allocation.node = as_int ~what:"entry node" (Json.member "node" e);
          procs = as_int ~what:"entry procs" (Json.member "procs" e);
        })
      items
  | _ -> reject Bad_request "entries must be an array"

let decode_status j =
  {
    daemon_version = as_int ~what:"daemon_version" (Json.member "daemon_version" j);
    uptime_s = as_finite ~what:"uptime_s" (Json.member "uptime_s" j);
    virtual_time = as_finite ~what:"virtual_time" (Json.member "virtual_time" j);
    active_allocations =
      as_int ~what:"active_allocations" (Json.member "active_allocations" j);
    queue_depth = as_int ~what:"queue_depth" (Json.member "queue_depth" j);
    served = as_int ~what:"served" (Json.member "served" j);
    batches = as_int ~what:"batches" (Json.member "batches" j);
    batching = as_bool ~what:"batching" (Json.member "batching" j);
    draining = as_bool ~what:"draining" (Json.member "draining" j);
    cache_hits = as_int ~what:"cache_hits" (Json.member "cache_hits" j);
    cache_misses = as_int ~what:"cache_misses" (Json.member "cache_misses" j);
    overlay = as_bool ~what:"overlay" (Json.member "overlay" j);
    active_leases = as_int ~what:"active_leases" (Json.member "active_leases" j);
  }

let decode_response line : (resp, string) result =
  try
    let resp_id, j = decode_envelope line in
    let response =
      match Json.member "error" j with
      | Json.Str name ->
        let code =
          match error_code_of_name name with
          | Some c -> c
          | None -> reject Bad_request "unknown error code %S" name
        in
        Error
          { code; message = as_string ~what:"message" (Json.member "message" j) }
      | Json.Null -> (
        match as_string ~what:"ok" (Json.member "ok" j) with
        | "allocated" ->
          let policy = as_string ~what:"policy" (Json.member "policy" j) in
          let entries = decode_entries (Json.member "entries" j) in
          let allocation =
            try Allocation.make ~policy ~entries
            with Invalid_argument m -> reject Bad_request "%s" m
          in
          let expires_s =
            match Json.member "expires_s" j with
            | Json.Null -> None
            | v ->
              let e = as_finite ~what:"expires_s" v in
              if e <= 0.0 then reject Bad_request "expires_s must be positive";
              Some e
          in
          Allocated
            {
              alloc_id = as_int ~what:"alloc" (Json.member "alloc" j);
              allocation;
              expires_s;
            }
        | "reconfigured" ->
          let policy = as_string ~what:"policy" (Json.member "policy" j) in
          let entries = decode_entries (Json.member "entries" j) in
          let allocation =
            try Allocation.make ~policy ~entries
            with Invalid_argument m -> reject Bad_request "%s" m
          in
          let moved_procs = as_int ~what:"moved" (Json.member "moved" j) in
          if moved_procs < 0 then reject Bad_request "moved must be >= 0";
          let delay_s = as_finite ~what:"delay_s" (Json.member "delay_s" j) in
          Reconfigured
            {
              alloc_id = as_int ~what:"alloc" (Json.member "alloc" j);
              allocation;
              moved_procs;
              delay_s;
            }
        | "retry" ->
          let after_s = as_finite ~what:"after_s" (Json.member "after_s" j) in
          let reason =
            match as_string ~what:"reason" (Json.member "reason" j) with
            | "queue_full" -> Queue_full
            | "overloaded" ->
              Overloaded
                {
                  mean_load_per_core =
                    as_finite ~what:"mean_load_per_core"
                      (Json.member "mean_load_per_core" j);
                  threshold =
                    as_finite ~what:"threshold" (Json.member "threshold" j);
                }
            | r -> reject Bad_request "unknown retry reason %S" r
          in
          Retry { after_s; reason }
        | "released" ->
          Released { alloc_id = as_int ~what:"alloc" (Json.member "alloc" j) }
        | "status" -> Status_info (decode_status (Json.member "status" j))
        | "metrics" ->
          Metrics_text (as_string ~what:"exposition" (Json.member "exposition" j))
        | ok -> reject Bad_request "unknown response kind %S" ok)
      | _ -> reject Bad_request "error must be a string code"
    in
    Ok { resp_id; response }
  with
  (* [Failure]: a nested member read on a non-object (an entry or the
     status body of the wrong JSON type). *)
  | Reject (_, message) | Failure message -> Result.Error message

(* --- pretty-printing ---------------------------------------------------- *)

let pp_response ppf = function
  | Allocated { alloc_id; allocation; expires_s } ->
    Format.fprintf ppf "allocated #%d %a%t" alloc_id Allocation.pp allocation
      (fun ppf ->
        match expires_s with
        | Some e -> Format.fprintf ppf " (lease %.0fs)" e
        | None -> ())
  | Reconfigured { alloc_id; allocation; moved_procs; delay_s } ->
    Format.fprintf ppf "reconfigured #%d %a (%d procs moved, %.1fs delay)"
      alloc_id Allocation.pp allocation moved_procs delay_s
  | Retry { after_s; reason } ->
    Format.fprintf ppf "retry in %.3fs (%s)" after_s
      (match reason with
      | Queue_full -> "queue full"
      | Overloaded { mean_load_per_core; threshold } ->
        Printf.sprintf "overloaded: mean load/core %.2f > %.2f"
          mean_load_per_core threshold)
  | Released { alloc_id } -> Format.fprintf ppf "released #%d" alloc_id
  | Status_info s ->
    Format.fprintf ppf
      "status: up %.1fs vt=%.0fs active=%d leased=%d depth=%d served=%d \
       batches=%d%s"
      s.uptime_s s.virtual_time s.active_allocations s.active_leases
      s.queue_depth s.served s.batches
      (if s.draining then " draining" else "")
  | Metrics_text text ->
    Format.fprintf ppf "metrics exposition (%d bytes)" (String.length text)
  | Error { code; message } ->
    Format.fprintf ppf "error %s: %s" (error_code_name code) message
