(* Measurement helpers shared by the workloads: clocks, percentiles,
   the decision digest, output checks and the result record every
   workload returns. *)

module Json = Rm_telemetry.Json

let now = Unix.gettimeofday

(* Sockets and trace files go here, relative to the checkout root. *)
let out_dir = ".perfbench"

let ensure_dir d =
  try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let ms x = 1000.0 *. x

(* [f ()], with its wall time in milliseconds stored in [cell]. *)
let timed_ms cell f =
  let t0 = now () in
  let v = f () in
  cell := ms (now () -. t0);
  v

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array; [p] in (0, 1]. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median l = percentile (sorted l) 0.5

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Samples strictly above the nearest-rank percentile [p] of [n] samples:
   a tail percentile is reported only with at least ten of them. *)
let beyond ~n p = n - int_of_float (Float.ceil (p *. float_of_int n))

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> 0.0
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %f" (fun kb -> kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* --- decision digest ------------------------------------------------------ *)

(* A hash over every decision of a fixed stretch of work. Floats enter
   in hex so the digest is exact: two runs agree only when every
   placement and every modelled figure is bit-identical. *)
type digest = Buffer.t

let digest () = Buffer.create 4096

let add_entries d (a : Rm_core.Allocation.t) =
  List.iter
    (fun (e : Rm_core.Allocation.entry) ->
      Printf.bprintf d "%d:%d," e.Rm_core.Allocation.node e.procs)
    a.Rm_core.Allocation.entries

let add d s =
  Buffer.add_string d s;
  Buffer.add_char d ';'

let add_float d x = Printf.bprintf d "%h;" x
let hex d = Digest.to_hex (Digest.string (Buffer.contents d))

(* --- output checks -------------------------------------------------------- *)

type checks = { mutable attempted : int; mutable failed : int }

let checks () = { attempted = 0; failed = 0 }

(* One operation and the violations found in its output: an operation
   with any violation counts once as failed, and each violation is
   printed. *)
let record c ~what violations =
  c.attempted <- c.attempted + 1;
  if violations <> [] then begin
    c.failed <- c.failed + 1;
    List.iter
      (fun v -> Printf.eprintf "perfbench: check failed (%s): %s\n%!" what v)
      violations
  end

(* --- result ---------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  checks : checks;
  metrics : metric list;
  info : (string * Json.t) list;
      (** digest, sample counts and the like, printed before the result *)
}

let metric name unit_ value = { name; value; unit_ }
