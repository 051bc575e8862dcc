(* Dense-array fast path for Algorithm 1 + Algorithm 2.

   The naive pipeline (Candidate.generate_all + Select.score) pays two
   hashtable lookups behind every NL(v,u)/CL(u) read, a full
   O(V log V) sort per start node, and re-walks the k² node pairs of
   each candidate through Network_load.get — O(V² log V) total with
   heavy constant factors. This module computes the identical scored
   candidate set from flat float arrays:

   - node ids are mapped to dense indices once (the ascending usable
     order shared by Compute_load and Network_load);
   - the α·CL(u) vector and per-node capacities are precomputed and
     shared across all V starts;
   - the per-start full sort is replaced by heap-based partial
     selection — only the prefix actually covering [procs] processes is
     ever popped, so a start costs O(V + k log V) instead of
     O(V log V);
   - Eq. 4 candidate totals accumulate over dense matrix reads instead
     of hashtable-indexed pair walks;
   - the V starts run one after another through one shared set of
     scratch buffers, in ascending start order, so Eq. 4 normalization
     and the argmin (ties included) see exactly the naive ordering.

   Pruned starts ([~starts:(Top_k k)]) cut the other V factor: start
   nodes are ranked by a cheap O(V) α·CL + β·mean-NL-degree score and
   only the best k expand. The expansion arithmetic per start is the
   shared [one_start] code, so each surviving candidate's raw Eq. 4
   costs are bit-identical to its exhaustive counterpart; only the
   per-candidate-set normalization (and therefore possibly the argmin)
   sees fewer candidates. NL reads go through the factored
   {!Network_load.raw} form unless a materialized matrix already
   exists, so pruned allocation never forces the O(V²) matrix.

   Equivalence of the exhaustive path is bit-exact, not just semantic:
   every float expression below reproduces the naive code's operation
   order (same operands, same association), so candidate costs, Eq. 4
   totals and therefore the argmin — including ties broken on start id
   — are byte-identical. test_core.ml holds qcheck properties against
   the retained naive reference, and for the pruned path's
   subset/regret contracts. *)

module Matrix = Rm_stats.Matrix
module Telemetry = Rm_telemetry

let m_pruned_starts = Telemetry.Metrics.counter "core.alloc.pruned_starts"

type starts = All | Top_k of int

let starts_label = function All -> "all" | Top_k k -> string_of_int k

let parse_starts s =
  match String.lowercase_ascii (String.trim s) with
  | "all" -> Ok All
  | t ->
    (match int_of_string_opt t with
    | Some k when k >= 1 -> Ok (Top_k k)
    | Some _ | None ->
      Error "starts must be \"all\" or a positive candidate count")

let validate_starts = function
  | All -> ()
  | Top_k k ->
    if k < 1 then invalid_arg "Dense_alloc: Top_k starts must be >= 1"

(* Process-wide default for the start-pruning mode. An unparseable env
   value falls back to exhaustive (never silently prunes). *)
let default_starts_ref =
  ref
    (match Sys.getenv_opt "RM_ALLOC_STARTS" with
    | Some s -> (match parse_starts s with Ok st -> st | Error _ -> All)
    | None -> All)

let default_starts () = !default_starts_ref

let set_default_starts st =
  validate_starts st;
  default_starts_ref := st

(* Binary min-heap over dense indices ordered by (cost, id). Dense
   order is ascending node id, so comparing indices breaks cost ties
   exactly like the naive sort's (cost, node id) comparator. Float
   [<]/[=] are only total over finite values — a NaN cost would make
   both sides false and silently corrupt the heap order — which is why
   [scored_all] rejects non-finite CL/NL at entry. *)
let heap_less cost a b = cost.(a) < cost.(b) || (cost.(a) = cost.(b) && a < b)

let sift_down cost heap size i =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < size && heap_less cost heap.(l) heap.(!smallest) then smallest := l;
    if r < size && heap_less cost heap.(r) heap.(!smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      let tmp = heap.(!i) in
      heap.(!i) <- heap.(!smallest);
      heap.(!smallest) <- tmp;
      i := !smallest
    end
  done

(* Heap-selection buffers, written across the whole [0, v) range by
   every start; one set serves all starts of a sweep, which run one
   after another. *)
type scratch = {
  cost : float array;
  heap : int array;
  sel : int array;
  sel_procs : int array;
}

let make_scratch v =
  {
    cost = Array.make v 0.0;
    heap = Array.make v 0;
    sel = Array.make v 0;
    sel_procs = Array.make v 0;
  }

(* The O(V²) NL scan must not be paid on every allocation: in the warm
   steady state the model cache hands back the same physical matrix
   call after call, so remembering the last matrix that passed makes
   the scan once-per-model instead of once-per-call (a single slot
   covers the dominant pattern; an alternating pair of snapshots merely
   re-scans). The slot only ever holds a matrix that validated clean,
   so a stale hit can never skip a matrix that would have failed —
   this leans on Network_load.nl_matrix's contract that the matrix is
   never mutated in place after construction (Network_load.apply_delta
   replaces the materialized matrix rather than patching it, so a
   patched model presents a fresh physical matrix here). The slot is
   weak so it extends no lifetime: once Model_cache evicts a model,
   its O(V²) matrix stays collectable (at V=4096 a pinned snapshot
   would hold hundreds of MB). *)
let last_valid_nl : Matrix.t Weak.t = Weak.create 1

let validate_cl ~ids ~cl =
  let v = Array.length ids in
  for i = 0 to v - 1 do
    if not (Float.is_finite cl.(i)) then
      invalid_arg
        (Printf.sprintf "Dense_alloc.scored_all: non-finite CL for node %d"
           ids.(i))
  done

let validate_nl ~ids ~nl =
  let v = Array.length ids in
  match Weak.get last_valid_nl 0 with
  | Some m when m == nl -> ()
  | _ ->
    (* The NL diagonal is 0 by construction; scanning it too keeps the
       loop branch-free. *)
    for i = 0 to v - 1 do
      for j = 0 to v - 1 do
        if not (Float.is_finite (Matrix.get nl i j)) then
          invalid_arg
            (Printf.sprintf
               "Dense_alloc.scored_all: non-finite NL for pair (%d, %d)"
               ids.(i) ids.(j))
      done
    done;
    Weak.set last_valid_nl 0 (Some nl)

let scored_all ?starts ~loads ~net ~capacity ~request () =
  let ids = Compute_load.dense_ids loads in
  let v = Array.length ids in
  if v = 0 then invalid_arg "Dense_alloc.scored_all: no usable nodes";
  (* Both models come from one snapshot, so their dense orders coincide;
     verify once instead of translating ids on every matrix read. *)
  let net_usable = Network_load.usable net in
  if List.length net_usable <> v then
    invalid_arg "Dense_alloc.scored_all: loads/net usable sets differ";
  List.iteri
    (fun i n ->
      if i >= v || ids.(i) <> n then
        invalid_arg "Dense_alloc.scored_all: loads/net usable sets differ")
    net_usable;
  let procs = request.Request.procs in
  if procs <= 0 then
    invalid_arg "Dense_alloc.scored_all: request.procs must be positive";
  let alpha = request.Request.alpha and beta = request.Request.beta in
  if not (Float.is_finite alpha && Float.is_finite beta) then
    invalid_arg "Dense_alloc.scored_all: non-finite alpha/beta";
  let starts = match starts with Some s -> s | None -> default_starts () in
  validate_starts starts;
  (* Shared read-only inputs, hoisted out of the start loop. *)
  let cl = Compute_load.dense_values loads in
  let alpha_cl = Array.map (fun c -> alpha *. c) cl in
  let caps = Array.map (fun node -> max 1 (capacity node)) ids in
  (* One greedy expansion (Algorithm 1) for start [s]. [fill_costs] is
     called once per start and must write every [cost.(i)]; [pair_nl]
     reads NL over dense indices for the Eq. 4 candidate total. Both
     paths below funnel through this function, which is what makes a
     pruned candidate's raw costs bit-identical to its exhaustive
     counterpart. *)
  let one_start ~fill_costs ~pair_nl scratch s =
    let cost = scratch.cost
    and heap = scratch.heap
    and sel = scratch.sel
    and sel_procs = scratch.sel_procs in
    (* A_s(u) = α·CL(u) + β·NL(s,u); the start itself costs 0. *)
    fill_costs cost s;
    for i = 0 to v - 1 do
      heap.(i) <- i
    done;
    cost.(s) <- 0.0;
    for i = (v / 2) - 1 downto 0 do
      sift_down cost heap v i
    done;
    (* Partial selection: pop ranked nodes only until the request is
       covered — the tail of the ranking is never materialized. *)
    let size = ref v and allocated = ref 0 and k = ref 0 in
    while !allocated < procs && !size > 0 do
      let i = heap.(0) in
      decr size;
      heap.(0) <- heap.(!size);
      sift_down cost heap !size 0;
      let cap = caps.(i) in
      let p = min cap (procs - !allocated) in
      sel.(!k) <- i;
      sel_procs.(!k) <- p;
      allocated := !allocated + p;
      incr k
    done;
    let k = !k in
    (* Whole cluster in, request still unsatisfied: deal the remaining
       processes round-robin over the selected nodes (Alg. 1 ll. 12-13).
       [caps] entries are >= 1, so k >= 1 whenever procs > 0. *)
    if !allocated < procs then begin
      let remaining = ref (procs - !allocated) in
      let i = ref 0 in
      while !remaining > 0 do
        sel_procs.(!i) <- sel_procs.(!i) + 1;
        decr remaining;
        i := (!i + 1) mod k
      done
    end;
    (* Eq. 4 raw totals, dense. Accumulation order matches
       Compute_load.total / Network_load.total_edges exactly. *)
    let compute = ref 0.0 in
    for a = 0 to k - 1 do
      compute := !compute +. cl.(sel.(a))
    done;
    let network = ref 0.0 in
    for a = 0 to k - 1 do
      for b = a + 1 to k - 1 do
        network := !network +. pair_nl sel.(a) sel.(b)
      done
    done;
    let assignment = List.init k (fun a -> (ids.(sel.(a)), sel_procs.(a))) in
    let candidate =
      { Candidate.start = ids.(s); nodes = List.map fst assignment; assignment }
    in
    (candidate, !compute, !network)
  in
  (* Algorithm 2's per-candidate-set normalization, verbatim from
     Select.score; summing the array in its (ascending start) order
     reproduces the naive fold bit-for-bit. *)
  let finalize results =
    let c_sum = ref 0.0 and n_sum = ref 0.0 in
    Array.iter
      (fun (_, c, n) ->
        c_sum := !c_sum +. c;
        n_sum := !n_sum +. n)
      results;
    let c_sum = !c_sum and n_sum = !n_sum in
    let norm sum x = if sum > 0.0 then x /. sum else 0.0 in
    List.init (Array.length results) (fun i ->
        let candidate, compute_cost, network_cost = results.(i) in
        let total =
          (alpha *. norm c_sum compute_cost) +. (beta *. norm n_sum network_cost)
        in
        { Select.candidate; compute_cost; network_cost; total })
  in
  match starts with
  | Top_k k when k < v ->
    (* Pruned path: rank starts by the O(V) proxy score and expand the
       best k. NL reads stay in factored form unless a materialized
       matrix already exists — never force O(V²) here. *)
    validate_cl ~ids ~cl;
    let pair_nl =
      let read =
        match Network_load.nl_cached net with
        | Some m -> fun a b -> Matrix.get m a b
        | None ->
          let r = Network_load.raw net in
          fun a b -> Network_load.raw_get r a b
      in
      fun a b ->
        let x = read a b in
        if not (Float.is_finite x) then
          invalid_arg
            (Printf.sprintf
               "Dense_alloc.scored_all: non-finite NL for pair (%d, %d)"
               ids.(a) ids.(b));
        x
    in
    let deg = Network_load.dense_degrees net in
    Array.iteri
      (fun i d ->
        if not (Float.is_finite d) then
          invalid_arg
            (Printf.sprintf
               "Dense_alloc.scored_all: non-finite NL degree for node %d"
               ids.(i)))
      deg;
    let score = Array.init v (fun i -> alpha_cl.(i) +. (beta *. deg.(i))) in
    let order = Array.init v (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = Float.compare score.(a) score.(b) in
        if c <> 0 then c else compare a b)
      order;
    let picked = Array.sub order 0 k in
    Array.sort compare picked;
    let fill_costs cost s =
      for i = 0 to v - 1 do
        cost.(i) <- alpha_cl.(i) +. (beta *. pair_nl s i)
      done
    in
    let scratch = make_scratch v in
    let results =
      Array.map (fun s -> one_start ~fill_costs ~pair_nl scratch s) picked
    in
    Telemetry.Metrics.incr m_pruned_starts;
    finalize results
  | All | Top_k _ ->
    (* Exhaustive sweep (Top_k k >= v degenerates to it). *)
    let nl = Network_load.nl_matrix net in
    validate_cl ~ids ~cl;
    validate_nl ~ids ~nl;
    let fill_costs cost s =
      for i = 0 to v - 1 do
        cost.(i) <- alpha_cl.(i) +. (beta *. Matrix.get nl s i)
      done
    in
    let pair_nl a b = Matrix.get nl a b in
    let scratch = make_scratch v in
    finalize (Array.init v (one_start ~fill_costs ~pair_nl scratch))

let best ?starts ~loads ~net ~capacity ~request () =
  Select.best_scored (scored_all ?starts ~loads ~net ~capacity ~request ())
