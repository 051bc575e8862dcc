(* Argument converters shared by `rmctl` and `brokerd`. *)

open Cmdliner

module Scenario = Rm_workload.Scenario
module Policies = Rm_core.Policies
module Dense_alloc = Rm_core.Dense_alloc

(* [conv] restricted to the values [ok] accepts, so a bad value is a
   usage error naming its flag rather than an exception from the model. *)
let checked conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%s expected, got %s" expected s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = checked Arg.int ~expected:"a positive integer" (fun n -> n > 0)

(* NaN fails every comparison, so each of these refuses it. *)
let non_negative_float =
  checked Arg.float ~expected:"a finite non-negative number" (fun x ->
      Float.is_finite x && x >= 0.0)

let non_negative_or_inf =
  checked Arg.float ~expected:"a non-negative number or inf" (fun x -> x >= 0.0)

let positive_float =
  checked Arg.float ~expected:"a finite positive number" (fun x ->
      Float.is_finite x && x > 0.0)

let scenario =
  let parse s =
    match Scenario.by_name s with
    | Some sc -> Ok sc
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown scenario %S (try: %s)" s
              (String.concat ", " Scenario.all_names)))
  in
  let print ppf (sc : Scenario.t) = Format.fprintf ppf "%s" sc.Scenario.name in
  Arg.conv (parse, print)

let policy =
  let parse s =
    match Policies.of_name s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown policy %S" s))
  in
  Arg.conv (parse, fun ppf p -> Format.fprintf ppf "%s" (Policies.name p))

let starts =
  let parse s =
    match Dense_alloc.parse_starts s with
    | Ok st -> Ok st
    | Error msg -> Error (`Msg (Printf.sprintf "%s, got %s" msg s))
  in
  let print ppf st = Format.fprintf ppf "%s" (Dense_alloc.starts_label st) in
  Arg.conv (parse, print)
