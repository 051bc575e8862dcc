(* Benchmark entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload in this process and prints, as its last line, one
   JSON object with the operations attempted and failed, whether every
   output check passed, and the metrics: the end-to-end ones untraced,
   the per-layer ones with --trace 1. The line before it carries the
   decision digest and the host's core count and OCaml version. *)

module Json = Rm_telemetry.Json
module M = Measure

let entry = M.now ()

let workloads = [ "serve-iitk"; "serve-v256"; "batch-day" ]

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

(* The allocator's RM_ALLOC_* knobs would change what is measured. *)
let refuse_knobs () =
  match
    List.filter
      (fun kv -> String.starts_with ~prefix:"RM_ALLOC_" kv)
      (Array.to_list (Unix.environment ()))
  with
  | [] -> ()
  | set -> fail "refusing to run with %s set" (String.concat ", " set)

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg name v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail "%s expects an integer, got %S" name v
  in
  let rec go = function
    | "--workload" :: w :: rest ->
      if not (List.mem w workloads) then
        fail "unknown workload %S (one of %s)" w (String.concat ", " workloads);
      workload := Some w;
      go rest
    | "--seed" :: v :: rest ->
      seed := Some (int_arg "--seed" v);
      go rest
    | "--seconds" :: v :: rest ->
      let s = int_arg "--seconds" v in
      if s < 1 then fail "--seconds must be at least 1";
      seconds := Some (float_of_int s);
      go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      go rest
    | arg :: _ -> fail "unexpected argument %S" arg
    | [] -> ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t -> (w, s, secs, t)
  | _ -> fail "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  refuse_knobs ();
  let workload, seed, seconds, trace = parse Sys.argv in
  let r =
    match (workload, trace) with
    | "serve-iitk", false -> Serve.untraced Serve.iitk ~entry ~seed ~seconds
    | "serve-iitk", true -> Serve.traced Serve.iitk ~seed ~seconds
    | "serve-v256", false -> Serve.untraced Serve.v256 ~entry ~seed ~seconds
    | "serve-v256", true -> Serve.traced Serve.v256 ~seed ~seconds
    | _, false -> Batch.untraced ~entry ~seed ~seconds
    | _, true -> Batch.traced ~seed ~seconds
  in
  let num x = Json.Num x in
  print_endline
    (Json.to_string
       (Json.Obj
          ([
             ("workload", Json.Str workload);
             ("seed", num (float_of_int seed));
             ("trace", Json.Bool trace);
             ("cores", num (float_of_int (Domain.recommended_domain_count ())));
             ("ocaml", Json.Str Sys.ocaml_version);
           ]
          @ r.M.info)));
  let c = r.M.checks in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (c.M.failed = 0));
            ("attempted", num (float_of_int c.M.attempted));
            ("failed", num (float_of_int c.M.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (m : M.metric) ->
                     (m.M.name, Json.Obj [ ("value", num m.value); ("unit", Json.Str m.unit_) ]))
                   r.M.metrics) );
          ]))
