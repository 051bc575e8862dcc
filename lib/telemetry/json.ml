type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- emitter --------------------------------------------------------- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_num buf x =
  if not (Float.is_finite x) then Buffer.add_string buf "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" x)
  else Buffer.add_string buf (Printf.sprintf "%.17g" x)

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> add_num buf x
  | Str s -> add_escaped buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        add buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_escaped buf k;
        Buffer.add_char buf ':';
        add buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* --- parser ---------------------------------------------------------- *)

type cursor = { text : string; mutable pos : int }

(* Arrays and objects nest at most this deep. The parser recurses once
   per level, so an unbounded line of '[' would otherwise grow the stack
   with the input; every document this library writes is a few levels
   deep. *)
let max_depth = 512

let fail c msg = failwith (Printf.sprintf "Json.of_string: at %d: %s" c.pos msg)

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %c" ch)

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.text
    && String.sub c.text c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c ("expected " ^ word)

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> Buffer.add_char buf '"'; advance c
      | Some '\\' -> Buffer.add_char buf '\\'; advance c
      | Some '/' -> Buffer.add_char buf '/'; advance c
      | Some 'n' -> Buffer.add_char buf '\n'; advance c
      | Some 'r' -> Buffer.add_char buf '\r'; advance c
      | Some 't' -> Buffer.add_char buf '\t'; advance c
      | Some 'b' -> Buffer.add_char buf '\b'; advance c
      | Some 'f' -> Buffer.add_char buf '\012'; advance c
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.text then fail c "bad \\u escape";
        let hex = String.sub c.text c.pos 4 in
        let code =
          try int_of_string ("0x" ^ hex)
          with Failure _ -> fail c "bad \\u escape"
        in
        (* Only the BMP subset our emitter writes (control chars). *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else fail c "unsupported \\u escape";
        c.pos <- c.pos + 4
      | _ -> fail c "bad escape");
      go ()
    | Some ch ->
      Buffer.add_char buf ch;
      advance c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let numeric ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek c with
    | Some ch when numeric ch ->
      advance c;
      go ()
    | _ -> ()
  in
  go ();
  if c.pos = start then fail c "expected number";
  match float_of_string_opt (String.sub c.text start (c.pos - start)) with
  | Some x -> x
  | None -> fail c "bad number"

(* [depth] counts the arrays and objects enclosing the value. *)
let rec parse_value c depth =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> Str (parse_string c)
  | Some ('[' | '{') when depth >= max_depth -> fail c "nesting too deep"
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value c (depth + 1) in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail c "expected , or ]"
      in
      Arr (items [])
    end
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let field () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        (k, parse_value c (depth + 1))
      in
      let rec fields acc =
        let kv = field () in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields (kv :: acc)
        | Some '}' ->
          advance c;
          List.rev (kv :: acc)
        | _ -> fail c "expected , or }"
      in
      Obj (fields [])
    end
  | Some _ -> Num (parse_number c)

let of_string text =
  let c = { text; pos = 0 } in
  let v = parse_value c 0 in
  skip_ws c;
  if c.pos <> String.length text then fail c "trailing input";
  v

(* --- accessors ------------------------------------------------------- *)

let member key = function
  | Obj fields -> ( match List.assoc_opt key fields with Some v -> v | None -> Null)
  | _ -> failwith "Json.member: not an object"

let to_float = function Num x -> x | _ -> failwith "Json.to_float"
let to_int = function Num x -> int_of_float x | _ -> failwith "Json.to_int"
let to_str = function Str s -> s | _ -> failwith "Json.to_str"
let to_list = function Arr l -> l | _ -> failwith "Json.to_list"
