(* Tests for rm_service: wire codec round-trips (qcheck), decode
   rejection, admission-queue semantics, the batcher determinism
   invariant (a batch served from one snapshot is bit-identical to
   sequential one-shot decides, including Wait and staleness-exclusion
   cases), the daemon end to end over a unix socket, and the Slo
   service report. *)

module Rng = Rm_stats.Rng
module Matrix = Rm_stats.Matrix
module Running_means = Rm_stats.Running_means
module Node = Rm_cluster.Node
module Topology = Rm_cluster.Topology
module Cluster = Rm_cluster.Cluster
module Snapshot = Rm_monitor.Snapshot
module Policies = Rm_core.Policies
module Broker = Rm_core.Broker
module Allocation = Rm_core.Allocation
module Model_cache = Rm_core.Model_cache
module Wire = Rm_service.Wire
module Batcher = Rm_service.Batcher
module Server = Rm_service.Server
module Client = Rm_service.Client
module Slo = Rm_sched.Slo

let qcheck = QCheck_alcotest.to_alcotest

(* --- wire codec --------------------------------------------------------- *)

let policy_gen = QCheck.Gen.oneofl Policies.all

let allocate_gen =
  QCheck.Gen.(
    let* procs = 1 -- 512 in
    let* ppn = opt (1 -- 64) in
    let* alpha = float_bound_inclusive 1.0 in
    let* policy = opt policy_gen in
    let* wait_threshold = opt (float_bound_inclusive 100.0) in
    (* Overlay hints: lease must be strictly positive, profiles >= 0. *)
    let* lease_s = opt (map (fun l -> l +. 0.5) (float_bound_inclusive 3600.0)) in
    let* load_per_proc = opt (float_bound_inclusive 8.0) in
    let* traffic_mb_s_per_proc = opt (float_bound_inclusive 64.0) in
    return
      {
        Wire.procs;
        ppn;
        alpha;
        policy;
        wait_threshold;
        lease_s;
        load_per_proc;
        traffic_mb_s_per_proc;
      })

let grow_gen =
  QCheck.Gen.(
    let* alloc_id = 0 -- 100_000 in
    let* delta_procs = 1 -- 256 in
    let* grow_ppn = opt (1 -- 64) in
    let* grow_alpha = float_bound_inclusive 1.0 in
    let* grow_policy = opt policy_gen in
    return { Wire.alloc_id; delta_procs; grow_ppn; grow_alpha; grow_policy })

let request_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun a -> Wire.Allocate a) allocate_gen;
        map (fun id -> Wire.Release { alloc_id = id }) (0 -- 100_000);
        map (fun g -> Wire.Grow g) grow_gen;
        (let* alloc_id = 0 -- 100_000 in
         let* delta_procs = 1 -- 256 in
         return (Wire.Shrink { alloc_id; delta_procs }));
        return Wire.Status;
        return Wire.Metrics;
      ])

let prop_request_roundtrip =
  QCheck.Test.make ~name:"wire request encode/decode is the identity"
    ~count:200
    (QCheck.make QCheck.Gen.(pair (0 -- 1_000_000) request_gen))
    (fun (req_id, request) ->
      let line = Wire.encode_request { Wire.req_id; request } in
      match Wire.decode_request line with
      | Ok r -> r = { Wire.req_id; request }
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e.Wire.message)

let entries_gen =
  QCheck.Gen.(
    let* n = 1 -- 8 in
    let* base = 0 -- 1000 in
    let* procs = list_size (return n) (1 -- 64) in
    (* Spaced node ids: Allocation.make rejects duplicates. *)
    return (List.mapi (fun i p -> { Allocation.node = base + (3 * i); procs = p }) procs))

let status_gen =
  QCheck.Gen.(
    let* uptime_s = float_bound_inclusive 1e6 in
    let* virtual_time = float_bound_inclusive 1e7 in
    let* active_allocations = 0 -- 1000 in
    let* queue_depth = 0 -- 1000 in
    let* served = 0 -- 1_000_000 in
    let* batches = 0 -- 1_000_000 in
    let* batching = bool in
    let* draining = bool in
    let* cache_hits = 0 -- 1_000_000 in
    let* cache_misses = 0 -- 1_000_000 in
    let* overlay = bool in
    let* active_leases = 0 -- 1000 in
    return
      {
        Wire.daemon_version = Wire.version;
        uptime_s;
        virtual_time;
        active_allocations;
        queue_depth;
        served;
        batches;
        batching;
        draining;
        cache_hits;
        cache_misses;
        overlay;
        active_leases;
      })

let response_gen =
  QCheck.Gen.(
    oneof
      [
        (let* alloc_id = 1 -- 100_000 in
         let* entries = entries_gen in
         let* policy = map Policies.name policy_gen in
         let* expires_s =
           opt (map (fun l -> l +. 0.5) (float_bound_inclusive 3600.0))
         in
         return
           (Wire.Allocated
              {
                alloc_id;
                allocation = Allocation.make ~policy ~entries;
                expires_s;
              }));
        (let* alloc_id = 1 -- 100_000 in
         let* entries = entries_gen in
         let* policy = map Policies.name policy_gen in
         let* moved_procs = 0 -- 512 in
         let* delay_s = float_bound_inclusive 600.0 in
         return
           (Wire.Reconfigured
              {
                alloc_id;
                allocation = Allocation.make ~policy ~entries;
                moved_procs;
                delay_s;
              }));
        (let* after_s = float_bound_inclusive 10.0 in
         let* reason =
           oneof
             [
               return Wire.Queue_full;
               (let* mean_load_per_core = float_bound_inclusive 16.0 in
                let* threshold = float_bound_inclusive 16.0 in
                return (Wire.Overloaded { mean_load_per_core; threshold }));
             ]
         in
         return (Wire.Retry { after_s; reason }));
        map (fun id -> Wire.Released { alloc_id = id }) (1 -- 100_000);
        map (fun s -> Wire.Status_info s) status_gen;
        (* Exposition bodies carry newlines, quotes and backslashes —
           the JSON string escaping must round-trip them. *)
        map (fun s -> Wire.Metrics_text s) (string_size (0 -- 200));
        (let* code =
           oneofl
             [
               Wire.Bad_request; Wire.Unsupported_version; Wire.Shutting_down;
               Wire.Insufficient_capacity; Wire.No_usable_nodes;
               Wire.Unknown_alloc; Wire.Already_released;
               Wire.Reconfig_rejected;
             ]
         in
         let* message = string_size ~gen:printable (0 -- 80) in
         return (Wire.Error { code; message }));
      ])

let prop_response_roundtrip =
  QCheck.Test.make ~name:"wire response encode/decode is the identity"
    ~count:200
    (QCheck.make QCheck.Gen.(pair (0 -- 1_000_000) response_gen))
    (fun (resp_id, response) ->
      let line = Wire.encode_response { Wire.resp_id; response } in
      match Wire.decode_response line with
      | Ok r -> r = { Wire.resp_id; response }
      | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m)

let decode_err line =
  match Wire.decode_request line with
  | Ok _ -> Alcotest.failf "expected decode error for %s" line
  | Error e -> e

let test_wire_rejects_bad_version () =
  let e = decode_err {|{"v":9,"id":7,"op":"status"}|} in
  Alcotest.(check bool) "code" true (e.Wire.code = Wire.Unsupported_version);
  (* The id is still extracted so the error response can be correlated. *)
  Alcotest.(check (option int)) "id preserved" (Some 7) e.Wire.err_id

(* The codec speaks exactly [Wire.version]: the envelopes of the
   retired v1 and v2 protocols are refused whatever the op, with the id
   echoed so the client can correlate the refusal. *)
let test_wire_old_versions_refused () =
  List.iter
    (fun (id, line) ->
      let e = decode_err line in
      Alcotest.(check bool)
        ("unsupported_version: " ^ line)
        true
        (e.Wire.code = Wire.Unsupported_version);
      Alcotest.(check (option int)) ("id echoed: " ^ line) (Some id) e.Wire.err_id)
    [
      (1, {|{"v":1,"id":1,"op":"allocate","procs":8}|});
      (2, {|{"v":1,"id":2,"op":"status"}|});
      (3, {|{"v":2,"id":3,"op":"grow","alloc":3,"delta":4}|});
      (4, {|{"v":2,"id":4,"op":"shrink","alloc":3,"delta":4}|});
    ]

(* A line of the current version: [v3 {|"id":1,"op":"status"|}]. *)
let v3 body = Printf.sprintf {|{"v":%d,%s}|} Wire.version body

let test_wire_rejects_bad_requests () =
  let bad line =
    let e = decode_err line in
    Alcotest.(check bool) ("bad_request: " ^ line) true
      (e.Wire.code = Wire.Bad_request)
  in
  bad "not json at all";
  bad {|[1,2,3]|};
  bad {|{"id":1,"op":"status"}|};  (* missing version *)
  bad (v3 {|"op":"status"|});  (* missing id *)
  bad (v3 {|"id":1,"op":"frobnicate"|});
  bad (v3 {|"id":1,"op":"allocate","procs":0,"policy":"random"|});
  bad (v3 {|"id":1,"op":"allocate","procs":-4,"policy":"random"|});
  bad (v3 {|"id":1,"op":"allocate","procs":8,"ppn":0,"policy":"random"|});
  bad (v3 {|"id":1,"op":"allocate","procs":8,"alpha":1.5,"policy":"random"|});
  bad (v3 {|"id":1,"op":"allocate","procs":8,"alpha":"x","policy":"random"|});
  bad (v3 {|"id":1,"op":"allocate","procs":8,"policy":"no-such-policy"|});
  bad (v3 {|"id":1,"op":"allocate","policy":"random"|});  (* no procs *)
  bad (v3 {|"id":1,"op":"release"|});  (* no alloc id *)
  bad (v3 {|"id":1,"op":"grow","alloc":3|});  (* no delta *)
  bad (v3 {|"id":1,"op":"grow","alloc":3,"delta":0|});
  bad (v3 {|"id":1,"op":"shrink","alloc":3,"delta":-1|});
  (* renegotiate is not an op: resizing is grow or shrink *)
  bad (v3 {|"id":1,"op":"renegotiate","alloc":3,"min":2,"pref":4,"max":8|})

let test_wire_alpha_defaults () =
  match Wire.decode_request (v3 {|"id":1,"op":"allocate","procs":8|}) with
  | Ok { request = Wire.Allocate a; _ } ->
    Alcotest.(check (float 1e-9)) "alpha" 0.5 a.Wire.alpha;
    Alcotest.(check bool) "ppn" true (a.Wire.ppn = None);
    Alcotest.(check bool) "policy inherits" true (a.Wire.policy = None);
    Alcotest.(check bool) "threshold inherits" true (a.Wire.wait_threshold = None)
  | Ok _ -> Alcotest.fail "expected allocate"
  | Error e -> Alcotest.failf "decode failed: %s" e.Wire.message

(* A repeated top-level key is refused rather than resolved to its
   first occurrence; the id is echoed unless it is the repeated key. *)
let test_wire_rejects_duplicate_keys () =
  let e = decode_err (v3 {|"id":7,"op":"allocate","procs":8,"procs":-1|}) in
  Alcotest.(check bool) "bad_request" true (e.Wire.code = Wire.Bad_request);
  Alcotest.(check (option int)) "id echoed" (Some 7) e.Wire.err_id;
  let e = decode_err (v3 {|"id":7,"op":"status","id":8|}) in
  Alcotest.(check bool) "duplicate id is bad_request" true
    (e.Wire.code = Wire.Bad_request);
  Alcotest.(check (option int)) "ambiguous id not echoed" None e.Wire.err_id;
  let e = decode_err {|{"v":3,"v":1,"id":9,"op":"status"}|} in
  Alcotest.(check bool) "duplicate version is bad_request" true
    (e.Wire.code = Wire.Bad_request)

(* --- decoder fuzzing ----------------------------------------------------- *)

(* Lines a hostile or broken client could send: arbitrary bytes,
   unbalanced nesting, bytes >= 0x80 (not valid UTF-8 on their own)
   inside string values, and valid requests with one byte overwritten. *)
let hostile_line_gen =
  QCheck.Gen.(
    let high_bytes = string_size ~gen:(map Char.chr (128 -- 255)) (1 -- 12) in
    oneof
      [
        string_size (0 -- 256);
        (let* n = 1 -- 4096 in
         let* opener = oneofl [ "["; "{\"k\":"; "[{\"a\":" ] in
         return (String.concat "" (List.init n (fun _ -> opener))));
        map (fun b -> v3 (Printf.sprintf {|"id":1,"op":"%s"|} b)) high_bytes;
        map
          (fun b ->
            v3 (Printf.sprintf {|"id":1,"op":"allocate","procs":8,"policy":"%s"|} b))
          high_bytes;
        (let* req_id = 0 -- 1_000_000 in
         let* request = request_gen in
         let line = Wire.encode_request { Wire.req_id; request } in
         let* i = 0 -- (String.length line - 1) in
         let* c = char in
         return (String.mapi (fun j x -> if j = i then c else x) line));
      ])

let prop_decode_never_raises =
  QCheck.Test.make ~name:"wire decode never raises on hostile bytes" ~count:500
    (QCheck.make ~print:String.escaped hostile_line_gen)
    (fun line ->
      match Wire.decode_request line with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let prop_truncated_requests_rejected =
  QCheck.Test.make ~name:"every strict prefix of a request is an error"
    ~count:100
    (QCheck.make QCheck.Gen.(pair (0 -- 1_000_000) request_gen))
    (fun (req_id, request) ->
      let line = Wire.encode_request { Wire.req_id; request } in
      List.for_all
        (fun n ->
          match Wire.decode_request (String.sub line 0 n) with
          | Error _ -> true
          | Ok _ -> QCheck.Test.fail_reportf "prefix of %d bytes decoded" n)
        (List.init (String.length line) Fun.id))

let prop_duplicate_key_rejected =
  QCheck.Test.make ~name:"a request with a repeated key is bad_request"
    ~count:200
    (QCheck.make QCheck.Gen.(triple (0 -- 1_000_000) request_gen (0 -- 100)))
    (fun (req_id, request, pick) ->
      let line = Wire.encode_request { Wire.req_id; request } in
      let fields =
        match Rm_telemetry.Json.of_string line with
        | Rm_telemetry.Json.Obj fields -> fields
        | _ -> QCheck.Test.fail_report "encoded request is not an object"
      in
      let ((key, _) as dup) = List.nth fields (pick mod List.length fields) in
      let line = Rm_telemetry.Json.to_string (Rm_telemetry.Json.Obj (fields @ [ dup ])) in
      match Wire.decode_request line with
      | Ok _ -> QCheck.Test.fail_reportf "duplicate %S decoded" key
      | Error e ->
        e.Wire.code = Wire.Bad_request
        && e.Wire.err_id = (if key = "id" then None else Some req_id))

(* A response whose nested values have the wrong JSON type is an
   error, not an exception escaping the client. *)
let test_wire_bad_response_shapes () =
  List.iter
    (fun line ->
      match Wire.decode_response line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decoded %s" line
      | exception e ->
        Alcotest.failf "raised %s on %s" (Printexc.to_string e) line)
    [
      v3 {|"id":1,"ok":"allocated","alloc":1,"policy":"random","entries":[1]|};
      v3 {|"id":1,"ok":"status","status":[]|};
      v3 {|"id":1,"ok":"released","alloc":1,"ok":"released"|};
    ]

(* One megabyte of '[' is refused at the parser's depth bound, not by
   recursing a million frames deep. *)
let test_wire_deep_nesting () =
  let mentions needle hay =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun line ->
      let e = decode_err line in
      Alcotest.(check bool) "bad_request" true (e.Wire.code = Wire.Bad_request);
      Alcotest.(check bool) "stopped at the depth bound" true
        (mentions "nesting too deep" e.Wire.message))
    [
      String.make 1_048_576 '[';
      v3 ({|"id":5,"op":"allocate","procs":|} ^ String.make 1_048_576 '[');
    ]

(* One megabyte of distinct top-level keys decodes in n log n: the
   unknown keys are ignored, and one repeated key among them is refused.
   A pairwise duplicate check would spend minutes of CPU on either. *)
let test_wire_wide_object () =
  let keys =
    String.concat ""
      (List.init 96_400 (fun i -> Printf.sprintf {|"k%d":0,|} i))
  in
  let start = Sys.time () in
  (match Wire.decode_request (v3 ({|"id":5,|} ^ keys ^ {|"op":"status"|})) with
  | Ok { Wire.req_id = 5; request = Wire.Status } -> ()
  | Ok _ -> Alcotest.fail "expected status"
  | Error e -> Alcotest.failf "decode failed: %s" e.Wire.message);
  let e = decode_err (v3 ({|"id":5,|} ^ keys ^ {|"op":"status","k7":1|})) in
  Alcotest.(check bool) "bad_request" true (e.Wire.code = Wire.Bad_request);
  Alcotest.(check (option int)) "id echoed" (Some 5) e.Wire.err_id;
  let cpu = Sys.time () -. start in
  Alcotest.(check bool) (Printf.sprintf "prompt (%.2f s of CPU)" cpu) true (cpu < 5.0)

(* --- admission queue ---------------------------------------------------- *)

let test_batcher_fifo_and_bounds () =
  let q = Batcher.create ~max_pending:3 in
  Alcotest.(check bool) "accepts 1" true (Batcher.submit q 1 = `Queued);
  Alcotest.(check bool) "accepts 2" true (Batcher.submit q 2 = `Queued);
  Alcotest.(check bool) "accepts 3" true (Batcher.submit q 3 = `Queued);
  Alcotest.(check bool) "backpressure" true (Batcher.submit q 4 = `Queue_full);
  Alcotest.(check int) "depth" 3 (Batcher.depth q);
  Alcotest.(check (list int)) "fifo, capped take" [ 1; 2 ] (Batcher.take q ~max:2);
  Alcotest.(check bool) "freed a slot" true (Batcher.submit q 5 = `Queued);
  Alcotest.(check (list int)) "drains in order" [ 3; 5 ] (Batcher.take q ~max:10)

let test_batcher_close_semantics () =
  let q = Batcher.create ~max_pending:8 in
  ignore (Batcher.submit q "a");
  ignore (Batcher.submit q "b");
  Batcher.close q;
  Alcotest.(check bool) "closed to producers" true
    (Batcher.submit q "c" = `Closed);
  Alcotest.(check (list string)) "drains the backlog" [ "a"; "b" ]
    (Batcher.take q ~max:10);
  (* Closed and empty: [] immediately, no blocking — the consumer's
     stop signal. *)
  Alcotest.(check (list string)) "then empty forever" [] (Batcher.take q ~max:10);
  Alcotest.(check bool) "reports closed" true (Batcher.is_closed q)

(* --- batcher determinism ------------------------------------------------- *)

let flat v : Running_means.view = { instant = v; m1 = v; m5 = v; m15 = v }

(* Six 8-core nodes on two switches with mixed load and per-node
   freshness: [written_at] ages make nodes 0 and 3 stale under a 30 s
   gate when the snapshot is taken at t=100. *)
let service_fixture () =
  let n = 6 in
  let node_switch = [| 0; 0; 0; 1; 1; 1 |] in
  let topology = Topology.create ~node_switch ~switches:2 () in
  let nodes =
    List.init n (fun i ->
        Node.make ~id:i
          ~hostname:(Printf.sprintf "n%d" i)
          ~cores:8 ~freq_ghz:3.0 ~mem_gb:16.0 ~switch:node_switch.(i))
  in
  let cluster = Cluster.make ~nodes ~topology in
  let loads = [| 0.5; 2.0; 1.0; 0.2; 3.0; 0.8 |] in
  let infos =
    Array.init n (fun i ->
        Some
          {
            Snapshot.static = Cluster.node cluster i;
            users = 1;
            load = flat loads.(i);
            util_pct = flat 20.0;
            nic_mb_s = flat 1.0;
            mem_avail_gb = flat 12.0;
            written_at = (if i mod 3 = 0 then 0.0 else 95.0);
          })
  in
  let mk init diagonal =
    let m = Matrix.square n ~init in
    for i = 0 to n - 1 do
      Matrix.set m i i diagonal
    done;
    m
  in
  {
    Snapshot.time = 100.0;
    cluster;
    live = List.init n (fun i -> i);
    nodes = infos;
    bw_mb_s = mk 110.0 infinity;
    peak_bw_mb_s = mk 118.0 infinity;
    lat_us = mk 70.0 0.0;
  }

let small_allocate_gen =
  QCheck.Gen.(
    let* procs = 1 -- 24 in
    let* ppn = opt (1 -- 8) in
    let* alpha = float_bound_inclusive 1.0 in
    let* policy = opt policy_gen in
    (* Mix inherit / never-wait / always-wait so both decision branches
       appear in batches: mean load per core is > 0 on the fixture, so
       a -1 threshold forces Wait and a 100 threshold never fires. *)
    let* wait_threshold = oneofl [ None; Some 100.0; Some (-1.0) ] in
    return
      {
        Wire.procs;
        ppn;
        alpha;
        policy;
        wait_threshold;
        lease_s = None;
        load_per_proc = None;
        traffic_mb_s_per_proc = None;
      })

let batch_gen =
  QCheck.Gen.(
    let* seed = 0 -- 1_000_000 in
    let* staleness = oneofl [ infinity; 30.0 ] in
    let* params = list_size (1 -- 16) small_allocate_gen in
    return (seed, staleness, params))

(* The service's core invariant: serving a batch from one snapshot is
   bit-identical to N sequential one-shot Broker.decide calls on that
   snapshot — same decisions, same rng consumption — even though the
   sequential side rebuilds its models from scratch each call (cleared
   cache) while the batch reuses one Model_cache entry. Covers Wait
   (forced thresholds) and max_staleness_s exclusion. *)
let prop_batch_equals_sequential =
  QCheck.Test.make
    ~name:"serve_batch ≡ sequential one-shot decides (incl. Wait, staleness)"
    ~count:60 (QCheck.make batch_gen)
    (fun (seed, staleness, params) ->
      let snapshot = service_fixture () in
      let base = { Broker.default_config with max_staleness_s = staleness } in
      Model_cache.clear ();
      let batched =
        Batcher.serve_batch ~base ~snapshot ~rng:(Rng.create seed) params
      in
      let rng = Rng.create seed in
      let sequential =
        List.map
          (fun a ->
            Model_cache.clear ();
            Broker.decide
              ~config:(Batcher.broker_config ~base a)
              ~snapshot
              ~request:(Batcher.request_of a)
              ~rng)
          params
      in
      Model_cache.clear ();
      batched = sequential)

let test_batch_covers_both_decisions () =
  (* Not just "they agree": check the fixture really produces both
     Allocated and Wait outcomes, so the property above is not
     vacuously comparing one branch. *)
  let snapshot = service_fixture () in
  let base = Broker.default_config in
  let mk wait_threshold =
    {
      Wire.procs = 8;
      ppn = Some 4;
      alpha = 0.5;
      policy = Some Policies.Network_load_aware;
      wait_threshold;
      lease_s = None;
      load_per_proc = None;
      traffic_mb_s_per_proc = None;
    }
  in
  let outcomes =
    Batcher.serve_batch ~base ~snapshot ~rng:(Rng.create 1)
      [ mk None; mk (Some (-1.0)) ]
  in
  (match outcomes with
  | [ Ok (Broker.Allocated _); Ok (Broker.Wait _) ] -> ()
  | _ -> Alcotest.fail "expected [Allocated; Wait]");
  Model_cache.clear ()

let test_staleness_exclusion_in_batch () =
  let snapshot = service_fixture () in
  let base = { Broker.default_config with max_staleness_s = 30.0 } in
  let a =
    {
      Wire.procs = 8;
      ppn = Some 4;
      alpha = 0.5;
      policy = Some Policies.Network_load_aware;
      wait_threshold = None;
      lease_s = None;
      load_per_proc = None;
      traffic_mb_s_per_proc = None;
    }
  in
  (match Batcher.serve_batch ~base ~snapshot ~rng:(Rng.create 2) [ a ] with
  | [ Ok (Broker.Allocated alloc) ] ->
    (* Nodes 0 and 3 are stale (written_at 0.0, snapshot t=100, gate
       30s) and must never be chosen. *)
    List.iter
      (fun node ->
        Alcotest.(check bool)
          (Printf.sprintf "node %d not stale" node)
          true
          (node <> 0 && node <> 3))
      (Allocation.node_ids alloc)
  | _ -> Alcotest.fail "expected one allocation");
  Model_cache.clear ()

(* --- server end to end --------------------------------------------------- *)

let with_server ?(batching = true) ?(broker = Broker.default_config)
    ?metrics_out ?(overlay = true) ?lease f =
  let path =
    Printf.sprintf "/tmp/rm-svc-test-%d-%s.sock" (Unix.getpid ())
      (if batching then "b" else "c")
  in
  let config =
    {
      (Server.default_config ~endpoint:(Server.Unix_socket path)) with
      nodes = Some 12;
      tick_s = 0.005;
      batching;
      broker;
      metrics_out;
      overlay;
      default_lease_s = lease;
    }
  in
  let was_enabled = Rm_telemetry.Runtime.is_enabled () in
  Rm_telemetry.Runtime.enable ();
  let server = Server.create config in
  Server.start server;
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Model_cache.clear ();
      if not was_enabled then Rm_telemetry.Runtime.disable ())
    (fun () -> f ~path ~server)

(* A batch bound of zero is refused when the server is made; left to
   the tick thread, the first take would raise there and every allocate
   would wait forever. *)
let test_server_rejects_zero_batch () =
  let config =
    {
      (Server.default_config
         ~endpoint:(Server.Unix_socket "/tmp/rm-svc-test-unused.sock"))
      with
      max_batch = 0;
    }
  in
  match Server.create config with
  | _ -> Alcotest.fail "created a server with max_batch = 0"
  | exception Invalid_argument _ -> ()

let test_server_allocate_release () =
  with_server @@ fun ~path ~server:_ ->
  let c = Client.connect (`Unix path) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let alloc_id =
    match Client.allocate c ~ppn:4 ~procs:16 with
    | Wire.Allocated { alloc_id; allocation; _ } ->
      Alcotest.(check int) "all procs placed" 16
        (Allocation.total_procs allocation);
      Alcotest.(check string) "policy" "network-load-aware"
        allocation.Allocation.policy;
      alloc_id
    | r -> Alcotest.failf "expected allocation, got %a" Wire.pp_response r
  in
  (match Client.status c with
  | Wire.Status_info s ->
    Alcotest.(check int) "one active" 1 s.Wire.active_allocations;
    Alcotest.(check bool) "served some" true (s.Wire.served >= 1);
    Alcotest.(check bool) "batching on" true s.Wire.batching;
    Alcotest.(check bool) "not draining" true (not s.Wire.draining)
  | r -> Alcotest.failf "expected status, got %a" Wire.pp_response r);
  (match Client.release c ~alloc_id with
  | Wire.Released { alloc_id = id } -> Alcotest.(check int) "same id" alloc_id id
  | r -> Alcotest.failf "expected released, got %a" Wire.pp_response r);
  (* Releasing the same id again is typed distinctly from releasing an
     id that was never granted. *)
  (match Client.release c ~alloc_id with
  | Wire.Error { code = Wire.Already_released; _ } -> ()
  | r -> Alcotest.failf "expected already_released, got %a" Wire.pp_response r);
  match Client.release c ~alloc_id:424242 with
  | Wire.Error { code = Wire.Unknown_alloc; _ } -> ()
  | r -> Alcotest.failf "expected unknown_alloc, got %a" Wire.pp_response r

let test_server_grow_shrink () =
  with_server @@ fun ~path ~server:_ ->
  let c = Client.connect (`Unix path) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let alloc_id, nodes0 =
    match Client.allocate c ~ppn:4 ~procs:16 with
    | Wire.Allocated { alloc_id; allocation; _ } ->
      (alloc_id, Allocation.node_ids allocation)
    | r -> Alcotest.failf "expected allocation, got %a" Wire.pp_response r
  in
  (* Grow adds procs on fresh nodes: the original placement is kept,
     and the delta ranks must receive redistributed data, which costs a
     modeled delay. *)
  (match Client.grow c ~ppn:4 ~alloc_id ~delta_procs:8 with
  | Wire.Reconfigured { alloc_id = id; allocation; moved_procs; delay_s } ->
    Alcotest.(check int) "same id" alloc_id id;
    Alcotest.(check int) "grown total" 24 (Allocation.total_procs allocation);
    Alcotest.(check int) "delta ranks receive data" 8 moved_procs;
    Alcotest.(check bool) "original nodes kept" true
      (List.for_all
         (fun n -> List.mem n (Allocation.node_ids allocation))
         nodes0);
    Alcotest.(check bool) "positive delay" true (delay_s > 0.0)
  | r -> Alcotest.failf "expected reconfigured, got %a" Wire.pp_response r);
  (* Shrink retreats from the tail back to the original size. *)
  (match Client.shrink c ~alloc_id ~delta_procs:8 with
  | Wire.Reconfigured { allocation; _ } ->
    Alcotest.(check int) "shrunk total" 16 (Allocation.total_procs allocation)
  | r -> Alcotest.failf "expected reconfigured, got %a" Wire.pp_response r);
  (* Shrinking to (or below) zero procs is rejected, not applied. *)
  (match Client.shrink c ~alloc_id ~delta_procs:16 with
  | Wire.Error { code = Wire.Reconfig_rejected; _ } -> ()
  | r -> Alcotest.failf "expected reconfig_rejected, got %a" Wire.pp_response r);
  (* Reconfiguring a dead handle is unknown_alloc, like release. *)
  (match Client.grow c ~alloc_id:9999 ~delta_procs:4 with
  | Wire.Error { code = Wire.Unknown_alloc; _ } -> ()
  | r -> Alcotest.failf "expected unknown_alloc, got %a" Wire.pp_response r);
  (* The handle survives all of the above and releases cleanly. *)
  match Client.release c ~alloc_id with
  | Wire.Released { alloc_id = id } -> Alcotest.(check int) "released" alloc_id id
  | r -> Alcotest.failf "expected released, got %a" Wire.pp_response r

let test_server_wait_threshold_retry () =
  with_server @@ fun ~path ~server:_ ->
  let c = Client.connect (`Unix path) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* A negative threshold is always exceeded: the daemon must answer
     with a retry hint carrying the load evidence, not an allocation. *)
  match Client.allocate c ~procs:8 ~wait_threshold:(-1.0) with
  | Wire.Retry { after_s; reason = Wire.Overloaded { threshold; _ } } ->
    Alcotest.(check (float 1e-9)) "echoes threshold" (-1.0) threshold;
    Alcotest.(check bool) "positive hint" true (after_s > 0.0)
  | r -> Alcotest.failf "expected overloaded retry, got %a" Wire.pp_response r

let test_server_bad_requests () =
  with_server @@ fun ~path ~server:_ ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let roundtrip line =
    output_string oc (line ^ "\n");
    flush oc;
    match Wire.decode_response (input_line ic) with
    | Ok r -> r
    | Error m -> Alcotest.failf "bad response: %s" m
  in
  (match roundtrip {|{"v":9,"id":3,"op":"status"}|} with
  | { Wire.resp_id = 3; response = Wire.Error { code = Wire.Unsupported_version; _ } } -> ()
  | _ -> Alcotest.fail "expected unsupported_version echoing id 3");
  (match roundtrip (v3 {|"id":4,"op":"allocate","procs":0,"policy":"random"|}) with
  | { Wire.resp_id = 4; response = Wire.Error { code = Wire.Bad_request; _ } } -> ()
  | _ -> Alcotest.fail "expected bad_request echoing id 4");
  match roundtrip "garbage" with
  | { Wire.response = Wire.Error { code = Wire.Bad_request; _ }; _ } -> ()
  | _ -> Alcotest.fail "expected bad_request for garbage"

(* A burst of hostile lines on one connection: each gets its own
   in-band error (with the id whenever one is recoverable), and the same
   connection then gets a grant — the worker and the tick thread both
   survived. Lines past Server.max_line_bytes are answered without
   being decoded. *)
let test_server_survives_hostile_burst () =
  with_server @@ fun ~path ~server:_ ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let truncated =
    let l = v3 {|"id":11,"op":"allocate","procs":8|} in
    String.sub l 0 (String.length l - 1)
  in
  (* (line, id the error must echo — 0 when none is recoverable, code) *)
  let burst =
    [
      ("garbage", 0, Wire.Bad_request);
      ("", 0, Wire.Bad_request);
      (truncated, 0, Wire.Bad_request);
      (v3 {|"id":12,"op":"allocate","procs":8,"procs":-1|}, 12, Wire.Bad_request);
      (v3 "\"id\":13,\"op\":\"\xff\xfe\"", 13, Wire.Bad_request);
      (String.make 1_048_576 '[', 0, Wire.Bad_request);
      ({|{"v":1,"id":14,"op":"allocate","procs":8}|}, 14, Wire.Unsupported_version);
      ( v3 {|"id":15,"op":"renegotiate","alloc":1,"min":2,"pref":4,"max":8|},
        15,
        Wire.Bad_request );
      (* A valid status request padded past the line bound with a key
         the decoder would ignore: refused unread, so no id. *)
      ( v3 ({|"id":17,"op":"status","pad":"|} ^ String.make 1_048_576 'x' ^ {|"|}),
        0,
        Wire.Bad_request );
    ]
  in
  List.iter (fun (line, _, _) -> output_string oc (line ^ "\n")) burst;
  flush oc;
  List.iteri
    (fun i (_, want_id, want_code) ->
      match Wire.decode_response (input_line ic) with
      | Ok { Wire.resp_id; response = Wire.Error { code; _ } } ->
        Alcotest.(check int) (Printf.sprintf "line %d id" i) want_id resp_id;
        Alcotest.(check string)
          (Printf.sprintf "line %d code" i)
          (Wire.error_code_name want_code) (Wire.error_code_name code)
      | Ok { Wire.response; _ } ->
        Alcotest.failf "line %d: expected an error, got %a" i Wire.pp_response
          response
      | Error m -> Alcotest.failf "line %d: bad response: %s" i m)
    burst;
  output_string oc (v3 {|"id":16,"op":"allocate","procs":8,"ppn":4|} ^ "\n");
  flush oc;
  match Wire.decode_response (input_line ic) with
  | Ok { Wire.resp_id = 16; response = Wire.Allocated { allocation; _ } } ->
    Alcotest.(check int) "granted" 8 (Allocation.total_procs allocation)
  | Ok { Wire.response; _ } ->
    Alcotest.failf "expected a grant, got %a" Wire.pp_response response
  | Error m -> Alcotest.failf "bad response: %s" m

let test_server_metrics_and_http () =
  with_server @@ fun ~path ~server:_ ->
  let c = Client.connect (`Unix path) in
  (match Client.allocate c ~procs:8 with
  | Wire.Allocated _ -> ()
  | r -> Alcotest.failf "expected allocation, got %a" Wire.pp_response r);
  (match Client.metrics c with
  | Wire.Metrics_text text ->
    let samples = Rm_telemetry.Prometheus.parse text in
    Alcotest.(check bool) "request counter present" true
      (List.exists
         (fun s -> s.Rm_telemetry.Prometheus.sample_name = "core_service_requests")
         samples)
  | r -> Alcotest.failf "expected metrics, got %a" Wire.pp_response r);
  Client.close c;
  (* HTTP scrape on the same socket. *)
  let code, body = Client.http_get (`Unix path) ~path:"/metrics" in
  Alcotest.(check int) "200" 200 code;
  let samples = Rm_telemetry.Prometheus.parse body in
  Alcotest.(check bool) "latency histogram scraped" true
    (List.exists
       (fun s ->
         s.Rm_telemetry.Prometheus.sample_name = "service_request_latency_s_count")
       samples);
  let code, _ = Client.http_get (`Unix path) ~path:"/nope" in
  Alcotest.(check int) "404" 404 code;
  let code, body = Client.http_get (`Unix path) ~path:"/status" in
  Alcotest.(check int) "status 200" 200 code;
  Alcotest.(check bool) "status is json" true
    (match Rm_telemetry.Json.of_string body with
    | Rm_telemetry.Json.Obj _ -> true
    | _ -> false
    | exception Failure _ -> false)

let test_server_control_mode () =
  with_server ~batching:false @@ fun ~path ~server:_ ->
  let c = Client.connect (`Unix path) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.allocate c ~procs:8 with
  | Wire.Allocated _ -> ()
  | r -> Alcotest.failf "expected allocation, got %a" Wire.pp_response r);
  match Client.status c with
  | Wire.Status_info s ->
    Alcotest.(check bool) "control mode reported" true (not s.Wire.batching)
  | r -> Alcotest.failf "expected status, got %a" Wire.pp_response r

let test_server_graceful_stop () =
  let metrics_out =
    Printf.sprintf "/tmp/rm-svc-test-%d-final.prom" (Unix.getpid ())
  in
  let path =
    with_server ~metrics_out @@ fun ~path ~server ->
    let c = Client.connect (`Unix path) in
    (match Client.allocate c ~procs:8 with
    | Wire.Allocated _ -> ()
    | r -> Alcotest.failf "expected allocation, got %a" Wire.pp_response r);
    Client.close c;
    Server.stop server;
    path
  in
  (* The socket is gone, and the final exposition was written and
     parses. *)
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path);
  Alcotest.(check bool) "final exposition written" true
    (Sys.file_exists metrics_out);
  let ic = open_in metrics_out in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Sys.remove metrics_out;
  Alcotest.(check bool) "exposition parses and has served requests" true
    (List.exists
       (fun s ->
         s.Rm_telemetry.Prometheus.sample_name = "core_service_requests"
         && s.Rm_telemetry.Prometheus.sample_value >= 1.0)
       (Rm_telemetry.Prometheus.parse text))

let test_server_drains_before_stopping () =
  (* Submissions admitted before the stop must all be answered: fire a
     burst from several clients, stop the server concurrently, and
     check every in-flight rpc got a definite response (allocation or a
     clean shutting_down error — never a closed socket mid-request). *)
  with_server @@ fun ~path ~server ->
  let n = 8 in
  let oks = Atomic.make 0 and shut = Atomic.make 0 and broken = Atomic.make 0 in
  let threads =
    List.init n (fun _ ->
        Thread.create
          (fun () ->
            try
              let c = Client.connect (`Unix path) in
              for _ = 1 to 3 do
                match Client.allocate c ~procs:4 ~ppn:2 with
                | Wire.Allocated _ | Wire.Retry _ -> Atomic.incr oks
                | Wire.Error { code = Wire.Shutting_down; _ } ->
                  Atomic.incr shut
                | _ -> Atomic.incr oks
              done;
              Client.close c
            with _ -> Atomic.incr broken)
          ())
  in
  Thread.delay 0.02;
  Server.stop server;
  List.iter Thread.join threads;
  Alcotest.(check int) "no torn connections" 0 (Atomic.get broken);
  Alcotest.(check bool) "every rpc answered" true
    (Atomic.get oks + Atomic.get shut = 3 * n)

(* --- grant overlay -------------------------------------------------------- *)

module Overlay = Rm_monitor.Overlay

let overlay_entry_gen =
  QCheck.Gen.(
    let load_gen = small_list (pair (0 -- 5) (float_bound_inclusive 4.0)) in
    let edge_gen =
      let* a = 0 -- 5 in
      let* d = 1 -- 5 in
      let* mb = float_bound_inclusive 32.0 in
      return ((a, (a + d) mod 6), mb)
    in
    pair load_gen (small_list edge_gen))

let overlay_op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun e -> `Register e) overlay_entry_gen;
        map2 (fun k e -> `Set (k, e)) (0 -- 7) overlay_entry_gen;
        map (fun k -> `Remove k) (0 -- 7);
      ])

(* Satellite 4: for any interleaving of grant / reshape / release, the
   registry's totals equal the sum over live registrations — nothing
   leaks, nothing goes negative — and draining every grant restores
   the physical-identity overlay. *)
let prop_overlay_conservation =
  QCheck.Test.make ~count:300
    ~name:"overlay totals equal the sum of live grants"
    (QCheck.make QCheck.Gen.(small_list overlay_op_gen))
    (fun ops ->
      let t = Overlay.create ~node_count:6 in
      let live = ref [] in
      let pick k =
        match !live with
        | [] -> None
        | l -> Some (List.nth l (k mod List.length l))
      in
      List.iter
        (fun op ->
          match op with
          | `Register (load, traffic) ->
            let h = Overlay.register t ~load ~traffic in
            live := (h, load, traffic) :: !live
          | `Set (k, (load, traffic)) -> (
            match pick k with
            | None -> ()
            | Some (h, _, _) ->
              Overlay.set t h ~load ~traffic;
              live :=
                List.map
                  (fun (h', l, tr) ->
                    if h' = h then (h', load, traffic) else (h', l, tr))
                  !live)
          | `Remove k -> (
            match pick k with
            | None -> ()
            | Some (h, _, _) ->
              Overlay.remove t h;
              (* removal is idempotent *)
              Overlay.remove t h;
              live := List.filter (fun (h', _, _) -> h' <> h) !live))
        ops;
      let sum_amounts l = List.fold_left (fun a (_, x) -> a +. x) 0.0 l in
      let sum_by f =
        List.fold_left
          (fun acc (_, load, traffic) -> acc +. f load traffic)
          0.0 !live
      in
      let close a b = Float.abs (a -. b) <= 1e-6 +. (1e-9 *. Float.abs b) in
      let ok_totals =
        close (Overlay.total_load t) (sum_by (fun l _ -> sum_amounts l))
        && close
             (Overlay.total_traffic_mb_s t)
             (sum_by (fun _ tr -> sum_amounts tr))
        && Overlay.active t = List.length !live
      in
      let ok_nodes =
        List.for_all
          (fun node ->
            Overlay.load_on t ~node >= 0.0
            && close
                 (Overlay.load_on t ~node)
                 (sum_by (fun l _ ->
                      sum_amounts (List.filter (fun (n, _) -> n = node) l))))
          [ 0; 1; 2; 3; 4; 5 ]
      in
      List.iter (fun (h, _, _) -> Overlay.remove t h) !live;
      let snap = service_fixture () in
      ok_totals && ok_nodes && Overlay.is_empty t
      && Overlay.total_load t = 0.0
      && Overlay.apply t snap == snap)

(* Pointwise composition: node loads gain the granted compute load on
   every running-means view, measured bandwidth loses each endpoint's
   incident traffic (clamped), and untouched cells stay untouched. An
   empty registry is the physical identity — the overlay-off server
   path composes nothing, bit-identical to the pre-overlay daemon. *)
let test_overlay_compose () =
  let snap = service_fixture () in
  let t = Overlay.create ~node_count:6 in
  Alcotest.(check bool) "empty registry is physical identity" true
    (Overlay.apply t snap == snap);
  let h =
    Overlay.register t ~load:[ (1, 2.0); (2, 1.0) ] ~traffic:[ ((1, 2), 40.0) ]
  in
  let composed = Overlay.apply t snap in
  let view n (s : Snapshot.t) =
    match s.Snapshot.nodes.(n) with
    | Some i -> i.Snapshot.load
    | None -> Alcotest.fail "fixture node missing"
  in
  Alcotest.(check (float 1e-9)) "node 1 gains instant load" 4.0
    (view 1 composed).Running_means.instant;
  Alcotest.(check (float 1e-9)) "node 1 gains m15 load" 4.0
    (view 1 composed).Running_means.m15;
  Alcotest.(check (float 1e-9)) "node 2 gains its share" 2.0
    (view 2 composed).Running_means.instant;
  Alcotest.(check (float 1e-9)) "node 0 untouched" 0.5
    (view 0 composed).Running_means.instant;
  Alcotest.(check (float 1e-9)) "overlaid edge loses both endpoints" 30.0
    (Matrix.get composed.Snapshot.bw_mb_s 1 2);
  Alcotest.(check (float 1e-9)) "edge to clean node loses one endpoint" 70.0
    (Matrix.get composed.Snapshot.bw_mb_s 1 0);
  Alcotest.(check (float 1e-9)) "clean edge untouched" 110.0
    (Matrix.get composed.Snapshot.bw_mb_s 0 3);
  Alcotest.(check bool) "peak matrix shared" true
    (composed.Snapshot.peak_bw_mb_s == snap.Snapshot.peak_bw_mb_s);
  Overlay.remove t h;
  Alcotest.(check bool) "drained registry is identity again" true
    (Overlay.apply t snap == snap)

(* Tentpole e2e: with overlays on, concurrently-live grants never share
   a node — the daemon holds granted nodes out of the pool until they
   are released, and a full cluster answers with a typed capacity
   error instead of double-booking. *)
let test_server_overlay_disjoint_grants () =
  with_server @@ fun ~path ~server:_ ->
  let c = Client.connect (`Unix path) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rec fill acc =
    match Client.allocate c ~ppn:4 ~procs:16 with
    | Wire.Allocated { alloc_id; allocation; _ } ->
      fill ((alloc_id, Allocation.node_ids allocation) :: acc)
    | Wire.Error
        { code = Wire.Insufficient_capacity | Wire.No_usable_nodes; _ } ->
      acc
    | r -> Alcotest.failf "expected grant or capacity error, got %a"
             Wire.pp_response r
  in
  let grants = fill [] in
  Alcotest.(check int) "12-node cluster fits three 4-node grants" 3
    (List.length grants);
  let rec pairwise_disjoint = function
    | [] -> true
    | (_, nodes) :: rest ->
      List.for_all
        (fun (_, other) -> not (List.exists (fun n -> List.mem n other) nodes))
        rest
      && pairwise_disjoint rest
  in
  Alcotest.(check bool) "live grants are pairwise node-disjoint" true
    (pairwise_disjoint grants);
  (match Client.status c with
  | Wire.Status_info s ->
    Alcotest.(check bool) "overlay reported on" true s.Wire.overlay
  | r -> Alcotest.failf "expected status, got %a" Wire.pp_response r);
  (* Releasing one grant frees exactly its nodes for the next client. *)
  let released_id, released_nodes = List.hd grants in
  (match Client.release c ~alloc_id:released_id with
  | Wire.Released _ -> ()
  | r -> Alcotest.failf "expected released, got %a" Wire.pp_response r);
  match Client.allocate c ~ppn:4 ~procs:16 with
  | Wire.Allocated { allocation; _ } ->
    Alcotest.(check bool) "regrant reuses only the freed nodes" true
      (List.for_all
         (fun n -> List.mem n released_nodes)
         (Allocation.node_ids allocation))
  | r -> Alcotest.failf "expected regrant, got %a" Wire.pp_response r

(* Satellite 4 (flip side): overlay-off is the pre-overlay daemon —
   grants are bookkeeping only, so back-to-back allocations double-book
   the same best-scoring nodes. Pins the behavior the tentpole fixes
   (and that --no-overlay deliberately preserves). *)
let test_server_overlay_off_double_books () =
  with_server ~overlay:false @@ fun ~path ~server:_ ->
  let c = Client.connect (`Unix path) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let grab () =
    match Client.allocate c ~ppn:4 ~procs:16 with
    | Wire.Allocated { allocation; _ } -> Allocation.node_ids allocation
    | r -> Alcotest.failf "expected allocation, got %a" Wire.pp_response r
  in
  let a = grab () in
  let b = grab () in
  Alcotest.(check bool) "second live grant overlaps the first" true
    (List.exists (fun n -> List.mem n b) a);
  match Client.status c with
  | Wire.Status_info s ->
    Alcotest.(check bool) "overlay reported off" true (not s.Wire.overlay);
    Alcotest.(check int) "both grants live" 2 s.Wire.active_allocations
  | r -> Alcotest.failf "expected status, got %a" Wire.pp_response r

(* Satellite 3: a v2 shrink that drops every rank on a node is a
   partial release — the emptied node returns to the grantable pool
   immediately, observable as the only node the next grant can get on
   an otherwise-full cluster. *)
let test_server_shrink_frees_node () =
  with_server @@ fun ~path ~server:_ ->
  let c = Client.connect (`Unix path) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rec fill acc =
    match Client.allocate c ~ppn:4 ~procs:16 with
    | Wire.Allocated { alloc_id; allocation; _ } ->
      fill ((alloc_id, Allocation.node_ids allocation) :: acc)
    | Wire.Error
        { code = Wire.Insufficient_capacity | Wire.No_usable_nodes; _ } ->
      acc
    | r -> Alcotest.failf "expected grant or capacity error, got %a"
             Wire.pp_response r
  in
  let grants = fill [] in
  Alcotest.(check int) "cluster saturated" 3 (List.length grants);
  let victim_id, victim_nodes = List.hd grants in
  (* Drop one node's worth of ranks from the tail of the victim. *)
  let survivors =
    match Client.shrink c ~alloc_id:victim_id ~delta_procs:4 with
    | Wire.Reconfigured { allocation; _ } -> Allocation.node_ids allocation
    | r -> Alcotest.failf "expected reconfigured, got %a" Wire.pp_response r
  in
  let freed = List.filter (fun n -> not (List.mem n survivors)) victim_nodes in
  Alcotest.(check int) "shrink emptied exactly one node" 1 (List.length freed);
  match Client.allocate c ~ppn:4 ~procs:4 with
  | Wire.Allocated { allocation; _ } ->
    Alcotest.(check (list int)) "regrant lands on the freed node" freed
      (Allocation.node_ids allocation)
  | r -> Alcotest.failf "expected regrant on freed node, got %a"
           Wire.pp_response r

(* Leases: a grant with a TTL is swept once it expires — its overlay
   and node hold disappear, and a late release is answered with the
   same typed already_released error as a double release. *)
let test_server_lease_expiry () =
  with_server ~lease:0.05 @@ fun ~path ~server:_ ->
  let c = Client.connect (`Unix path) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let alloc_id =
    match Client.allocate c ~ppn:4 ~procs:16 with
    | Wire.Allocated { alloc_id; expires_s; _ } ->
      (match expires_s with
      | Some s -> Alcotest.(check (float 1e-9)) "config lease echoed" 0.05 s
      | None -> Alcotest.fail "expected a lease on the grant");
      alloc_id
    | r -> Alcotest.failf "expected allocation, got %a" Wire.pp_response r
  in
  (* A per-request lease overrides the config default. *)
  (match Client.allocate c ~ppn:4 ~procs:4 ~lease_s:3600.0 with
  | Wire.Allocated { expires_s = Some s; _ } ->
    Alcotest.(check (float 1e-9)) "request lease wins" 3600.0 s
  | r -> Alcotest.failf "expected leased allocation, got %a" Wire.pp_response r);
  (match Client.status c with
  | Wire.Status_info s -> Alcotest.(check int) "leases counted" 2 s.Wire.active_leases
  | r -> Alcotest.failf "expected status, got %a" Wire.pp_response r);
  Thread.delay 0.2;
  (* The sweep runs at the top of the next served batch, before this
     very release is looked up: the short lease is already a tombstone. *)
  (match Client.release c ~alloc_id with
  | Wire.Error { code = Wire.Already_released; _ } -> ()
  | r -> Alcotest.failf "expected already_released, got %a" Wire.pp_response r);
  match Client.status c with
  | Wire.Status_info s ->
    Alcotest.(check int) "only the long lease survives" 1
      s.Wire.active_allocations
  | r -> Alcotest.failf "expected status, got %a" Wire.pp_response r

(* --- Slo service report --------------------------------------------------- *)

let test_slo_service_report_empty () =
  Rm_telemetry.Metrics.reset ();
  match Slo.service_report ~policy:"no-such-policy" () with
  | Error `No_wait_data -> ()
  | Ok _ -> Alcotest.fail "expected Error `No_wait_data"

let test_slo_service_report_populated () =
  with_server @@ fun ~path ~server:_ ->
  let c = Client.connect (`Unix path) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  for _ = 1 to 5 do
    match Client.allocate c ~procs:4 with
    | Wire.Allocated { alloc_id; _ } -> ignore (Client.release c ~alloc_id)
    | r -> Alcotest.failf "expected allocation, got %a" Wire.pp_response r
  done;
  match Slo.service_report ~policy:"network-load-aware" () with
  | Error `No_wait_data -> Alcotest.fail "expected service latency data"
  | Ok r ->
    Alcotest.(check string) "tagged as service" "service" r.Slo.source;
    Alcotest.(check bool) "served at least the loop" true
      (r.Slo.jobs_finished >= 5);
    Alcotest.(check bool) "percentiles ordered" true
      (r.Slo.wait.Slo.p50 <= r.Slo.wait.Slo.p90
      && r.Slo.wait.Slo.p90 <= r.Slo.wait.Slo.p99);
    Alcotest.(check bool) "positive latency" true (r.Slo.wait.Slo.p50 > 0.0);
    let rendered = Slo.render [ r ] in
    Alcotest.(check bool) "render carries the source tag" true
      (let hay = rendered and needle = "service" in
       let h = String.length hay and n = String.length needle in
       let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
       go 0)

let suites =
  [
    ( "service.wire",
      [
        qcheck prop_request_roundtrip;
        qcheck prop_response_roundtrip;
        Alcotest.test_case "rejects bad version" `Quick
          test_wire_rejects_bad_version;
        Alcotest.test_case "v1/v2 refused" `Quick test_wire_old_versions_refused;
        Alcotest.test_case "rejects malformed requests" `Quick
          test_wire_rejects_bad_requests;
        Alcotest.test_case "allocate defaults" `Quick test_wire_alpha_defaults;
        Alcotest.test_case "duplicate keys" `Quick
          test_wire_rejects_duplicate_keys;
        qcheck prop_decode_never_raises;
        qcheck prop_truncated_requests_rejected;
        qcheck prop_duplicate_key_rejected;
        Alcotest.test_case "1 MB of nesting" `Quick test_wire_deep_nesting;
        Alcotest.test_case "1 MB of distinct keys" `Quick test_wire_wide_object;
        Alcotest.test_case "bad response shapes" `Quick
          test_wire_bad_response_shapes;
      ] );
    ( "service.batcher",
      [
        Alcotest.test_case "fifo and backpressure" `Quick
          test_batcher_fifo_and_bounds;
        Alcotest.test_case "close semantics" `Quick test_batcher_close_semantics;
        qcheck prop_batch_equals_sequential;
        Alcotest.test_case "both decision branches" `Quick
          test_batch_covers_both_decisions;
        Alcotest.test_case "staleness exclusion" `Quick
          test_staleness_exclusion_in_batch;
      ] );
    ( "service.server",
      [
        Alcotest.test_case "allocate/status/release" `Quick
          test_server_allocate_release;
        Alcotest.test_case "zero batch bound refused" `Quick
          test_server_rejects_zero_batch;
        Alcotest.test_case "grow and shrink" `Quick test_server_grow_shrink;
        Alcotest.test_case "wait threshold retry" `Quick
          test_server_wait_threshold_retry;
        Alcotest.test_case "bad requests answered in-band" `Quick
          test_server_bad_requests;
        Alcotest.test_case "survives a hostile burst" `Quick
          test_server_survives_hostile_burst;
        Alcotest.test_case "metrics op and http scrape" `Quick
          test_server_metrics_and_http;
        Alcotest.test_case "per-request control mode" `Quick
          test_server_control_mode;
        Alcotest.test_case "graceful stop" `Quick test_server_graceful_stop;
        Alcotest.test_case "drains in-flight on stop" `Quick
          test_server_drains_before_stopping;
      ] );
    ( "service.overlay",
      [
        qcheck prop_overlay_conservation;
        Alcotest.test_case "snapshot composition" `Quick test_overlay_compose;
        Alcotest.test_case "live grants stay node-disjoint" `Quick
          test_server_overlay_disjoint_grants;
        Alcotest.test_case "overlay-off double-books (pinned)" `Quick
          test_server_overlay_off_double_books;
        Alcotest.test_case "shrink to zero on a node frees it" `Quick
          test_server_shrink_frees_node;
        Alcotest.test_case "lease expiry sweeps the grant" `Quick
          test_server_lease_expiry;
      ] );
    ( "service.slo",
      [
        Alcotest.test_case "service report empty" `Quick
          test_slo_service_report_empty;
        Alcotest.test_case "service report populated" `Quick
          test_slo_service_report_populated;
      ] );
  ]
