module Snapshot = Rm_monitor.Snapshot
module Topology = Rm_cluster.Topology
module Cluster = Rm_cluster.Cluster

type group = {
  switch : int;
  members : int list;
  capacity : int;
  mean_compute_load : float;
}

let groups ~snapshot ~loads ~capacity =
  let topo = Cluster.topology snapshot.Snapshot.cluster in
  let by_switch = Hashtbl.create 8 in
  List.iter
    (fun node ->
      let s = Topology.switch_of_node topo node in
      Hashtbl.replace by_switch s
        (node :: Option.value (Hashtbl.find_opt by_switch s) ~default:[]))
    (Compute_load.usable loads);
  Hashtbl.fold
    (fun switch members acc ->
      let members = List.sort compare members in
      let capacity =
        List.fold_left (fun acc n -> acc + max 1 (capacity n)) 0 members
      in
      let mean_compute_load =
        Compute_load.total loads ~nodes:members
        /. float_of_int (List.length members)
      in
      { switch; members; capacity; mean_compute_load } :: acc)
    by_switch []
  |> List.sort (fun a b -> compare a.switch b.switch)

let mean_cross_pairs net xs ys =
  let acc = ref 0.0 and n = ref 0 in
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          if u <> v then begin
            acc := !acc +. Network_load.get net ~u ~v;
            incr n
          end)
        ys)
    xs;
  if !n = 0 then 0.0 else !acc /. float_of_int !n

let group_network_load net a b =
  if a.switch = b.switch then begin
    match a.members with
    | [] | [ _ ] -> 0.0
    | members -> Network_load.mean_edges net ~nodes:members
  end
  else mean_cross_pairs net a.members b.members

(* Memoized group-pair network loads: the V²-sized averaging happens
   once, after which the group-level algorithm touches only G² values.
   The averaging itself is one factored O(V²) pass
   (Network_load.block_mean_table) rather than G² hashtable-indexed
   pair walks — at V=16384 the walk through Network_load.get was the
   dominant cost of a hierarchical allocation, and the factored pass
   also never materializes the NL matrix. *)
let group_nl_table net all_groups =
  let arr = Array.of_list all_groups in
  let g = Array.length arr in
  let block_of_switch = Hashtbl.create g in
  Array.iteri (fun i grp -> Hashtbl.replace block_of_switch grp.switch i) arr;
  let block_of_node = Hashtbl.create 64 in
  Array.iteri
    (fun i grp ->
      List.iter (fun n -> Hashtbl.replace block_of_node n i) grp.members)
    arr;
  let block_of_dense =
    Array.of_list
      (List.map
         (fun n -> Option.value (Hashtbl.find_opt block_of_node n) ~default:(-1))
         (Network_load.usable net))
  in
  let means = Network_load.block_mean_table net ~block_of_dense ~nblocks:g in
  fun a b ->
    match
      ( Hashtbl.find_opt block_of_switch a.switch,
        Hashtbl.find_opt block_of_switch b.switch )
    with
    | Some ba, Some bb -> means.((min ba bb * g) + max ba bb)
    | _ -> 0.0

(* Group-level Algorithm 1: greedy accretion of groups from a starting
   group, ranked by alpha * mean CL + beta * inter-group NL. *)
let group_candidate ~gnl ~request ~all_groups start =
  let alpha = request.Request.alpha and beta = request.Request.beta in
  let cost g =
    if g.switch = start.switch then 0.0
    else (alpha *. g.mean_compute_load) +. (beta *. gnl start g)
  in
  let ranked =
    List.sort
      (fun a b ->
        match Float.compare (cost a) (cost b) with
        | 0 -> compare a.switch b.switch
        | c -> c)
      all_groups
  in
  let rec take acc cap = function
    | [] -> List.rev acc
    | g :: rest ->
      if cap >= request.Request.procs then List.rev acc
      else take (g :: acc) (cap + g.capacity) rest
  in
  take [] 0 ranked

(* Group-level Eq. 4 over a candidate group set. *)
let group_score ~gnl ~request selected =
  let alpha = request.Request.alpha and beta = request.Request.beta in
  let compute =
    List.fold_left (fun acc g -> acc +. g.mean_compute_load) 0.0 selected
  in
  let rec pairs acc = function
    | [] -> acc
    | g :: rest ->
      pairs (List.fold_left (fun a h -> a +. gnl g h) acc rest) rest
  in
  let network =
    pairs 0.0 selected
    +. List.fold_left (fun acc g -> acc +. gnl g g) 0.0 selected
  in
  (alpha *. compute) +. (beta *. network)

let allocate ?(dense = true) ?starts ?(policy_label = "hierarchical")
    ~snapshot ~weights ~request () =
  let models = if dense then Some (Model_cache.get snapshot ~weights) else None in
  let loads =
    match models with
    | Some m -> Model_cache.loads m
    | None -> Compute_load.of_snapshot snapshot ~weights
  in
  let usable = Compute_load.usable loads in
  if usable = [] then Error Allocation.No_usable_nodes
  else begin
    let net =
      match models with
      | Some m -> Model_cache.net m
      | None -> Network_load.of_snapshot snapshot ~weights
    in
    let pc =
      match models with
      | Some m -> Model_cache.pc m
      | None -> Effective_procs.of_snapshot snapshot ~loads
    in
    let capacity node =
      Request.capacity_of request ~effective:(Effective_procs.get pc ~node)
    in
    let all_groups = groups ~snapshot ~loads ~capacity in
    let flat_within members =
      (* Restricted snapshots are one-shot derivations; build their
         models directly rather than churning the cache slots. *)
      let restricted = { snapshot with Snapshot.live = members } in
      let loads = Compute_load.of_snapshot restricted ~weights in
      let net = Network_load.of_snapshot restricted ~weights in
      let best =
        if dense then
          Dense_alloc.best ?starts ~loads ~net ~capacity ~request ()
        else
          let candidates =
            Candidate.generate_all ~loads ~net ~capacity ~request
          in
          Select.best ~candidates ~loads ~net ~request
      in
      Ok
        (Allocation.make ~policy:policy_label
           ~entries:
             (List.map
                (fun (node, procs) -> { Allocation.node; procs })
                best.Select.candidate.Candidate.assignment))
    in
    match all_groups with
    | [] -> Error Allocation.No_usable_nodes
    | [ only ] -> flat_within only.members
    | _ ->
      (* One candidate group set per starting group; Eq. 4 picks. *)
      let gnl = group_nl_table net all_groups in
      let best_set =
        List.fold_left
          (fun acc start ->
            let selected = group_candidate ~gnl ~request ~all_groups start in
            let score = group_score ~gnl ~request selected in
            match acc with
            | Some (_, best) when best <= score -> acc
            | Some _ | None -> Some (selected, score))
          None all_groups
      in
      (match best_set with
      | None -> Error Allocation.No_usable_nodes
      | Some (selected, _) ->
        flat_within (List.concat_map (fun g -> g.members) selected))
  end
