(* Minimal blocking client for the brokerd wire protocol — used by the
   CLI, the `bench serve` load generator, and the e2e tests. One
   request in flight per call; ids are assigned by the client and the
   response id is checked against the request id. *)

module Policies = Rm_core.Policies

type endpoint = [ `Unix of string | `Tcp of int ]

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable next_id : int;
}

let sockaddr_of = function
  | `Unix path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | `Tcp port -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let connect (endpoint : endpoint) =
  let domain, addr = sockaddr_of endpoint in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    next_id = 1;
  }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let rpc t request =
  let req_id = t.next_id in
  t.next_id <- req_id + 1;
  output_string t.oc (Wire.encode_request { Wire.req_id; request });
  output_char t.oc '\n';
  flush t.oc;
  let line = input_line t.ic in
  match Wire.decode_response line with
  | Error m -> failwith ("Client.rpc: bad response: " ^ m)
  | Ok { resp_id; response } ->
    if resp_id <> req_id && resp_id <> 0 then
      failwith
        (Printf.sprintf "Client.rpc: response id %d for request %d" resp_id
           req_id);
    response

let allocate ?ppn ?(alpha = 0.5) ?policy ?wait_threshold ?lease_s ?load_per_proc
    ?traffic_mb_s_per_proc t ~procs =
  rpc t
    (Wire.Allocate
       {
         procs;
         ppn;
         alpha;
         policy;
         wait_threshold;
         lease_s;
         load_per_proc;
         traffic_mb_s_per_proc;
       })

let grow ?ppn ?(alpha = 0.5) ?policy t ~alloc_id ~delta_procs =
  rpc t
    (Wire.Grow
       {
         alloc_id;
         delta_procs;
         grow_ppn = ppn;
         grow_alpha = alpha;
         grow_policy = policy;
       })

let shrink t ~alloc_id ~delta_procs = rpc t (Wire.Shrink { alloc_id; delta_procs })

let release t ~alloc_id = rpc t (Wire.Release { alloc_id })
let status t = rpc t Wire.Status
let metrics t = rpc t Wire.Metrics

(* One-shot HTTP GET against the same endpoint, for /metrics scrapes.
   Returns (status-code, body). *)
let http_get (endpoint : endpoint) ~path =
  let domain, addr = sockaddr_of endpoint in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd addr;
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      output_string oc
        (Printf.sprintf "GET %s HTTP/1.1\r\nHost: brokerd\r\n\r\n" path);
      flush oc;
      let status_line = input_line ic in
      let code =
        match String.split_on_char ' ' (String.trim status_line) with
        | _ :: code :: _ -> (
          match int_of_string_opt code with
          | Some c -> c
          | None -> failwith ("Client.http_get: bad status " ^ status_line))
        | _ -> failwith ("Client.http_get: bad status " ^ status_line)
      in
      let content_length = ref None in
      (try
         let rec headers () =
           let line = String.trim (input_line ic) in
           if line <> "" then begin
             (match String.index_opt line ':' with
             | Some i
               when String.lowercase_ascii (String.sub line 0 i)
                    = "content-length" ->
               content_length :=
                 int_of_string_opt
                   (String.trim
                      (String.sub line (i + 1) (String.length line - i - 1)))
             | _ -> ());
             headers ()
           end
         in
         headers ()
       with End_of_file -> ());
      let body =
        match !content_length with
        | Some n -> really_input_string ic n
        | None ->
          let buf = Buffer.create 1024 in
          (try
             while true do
               Buffer.add_channel buf ic 1
             done
           with End_of_file -> ());
          Buffer.contents buf
      in
      (code, body))
