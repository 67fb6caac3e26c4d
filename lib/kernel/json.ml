type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Object of (string * t) list

type error = { offset : int; message : string }

let error_to_string e = Printf.sprintf "%s at offset %d" e.message e.offset

exception Fail of int * string

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail message = raise_notrace (Fail (!pos, message)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let eat c = if !pos < n && s.[!pos] = c then (incr pos; true) else false in
  let expect c = if not (eat c) then fail (Printf.sprintf "expected '%c'" c) in
  let rec skip_ws () = if eat ' ' || eat '\t' || eat '\n' || eat '\r' then skip_ws () in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then (pos := !pos + len; v)
    else fail "bad literal"
  in
  let digits () =
    let start = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
    if !pos = start then fail "expected a digit"
  in
  (* -?(0|[1-9][0-9]* )(.[0-9]+)?([eE][+-]?[0-9]+)? — a lexeme without
     fraction or exponent stays an exact [Int] when it fits. *)
  let number () =
    let start = !pos in
    ignore (eat '-');
    if not (eat '0') then digits ();
    let frac = eat '.' in
    if frac then digits ();
    let exp = eat 'e' || eat 'E' in
    if exp then (ignore (eat '+' || eat '-'); digits ());
    let lexeme = String.sub s start (!pos - start) in
    match if frac || exp then None else int_of_string_opt lexeme with
    | Some i -> Int i
    | None -> Float (float_of_string lexeme)
  in
  let hex4 () =
    let h = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    if not (h <> "" && String.for_all is_hex h) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  let code_point () =
    let hi = hex4 () in
    if hi land 0xFC00 = 0xD800 && eat '\\' && eat 'u' then (
      let lo = hex4 () in
      if lo land 0xFC00 <> 0xDC00 then fail "unpaired surrogate";
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
    else if hi land 0xF800 = 0xD800 then fail "unpaired surrogate"
    else hi
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos; Buffer.contents b
      | '\\' ->
          incr pos;
          (if eat 'u' then Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
           else
             match String.index_opt "\"\\/bfnrt" (peek ()) with
             | Some i -> Buffer.add_char b "\"\\/\b\012\n\r\t".[i]; incr pos
             | None -> fail "bad escape");
          go ()
      | c when c < ' ' -> fail "control character in string"
      | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ()
  in
  (* Elements parsed by [item] up to the closing [close]. *)
  let sequence close item =
    skip_ws ();
    if eat close then []
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        if eat ',' then go acc
        else if eat close then List.rev acc
        else fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | _ when !pos >= n -> fail "unexpected end of input"
    | '{' ->
        incr pos;
        Object
          (sequence '}' (fun () ->
               skip_ws ();
               let k = string_body () in
               skip_ws ();
               expect ':';
               (k, value ())))
    | '[' -> incr pos; List (sequence ']' value)
    | '"' -> String (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected character"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (offset, message) -> Error { offset; message }

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

exception Decode_error of string

let expected what = raise (Decode_error ("expected " ^ what))

let member name = function
  | Object kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> raise (Decode_error (Printf.sprintf "missing field %S" name)))
  | _ -> expected "an object"

let to_int = function Int i -> i | _ -> expected "an integer"
let to_float = function Int i -> float_of_int i | Float f -> f | _ -> expected "a number"
let to_bool = function Bool b -> b | _ -> expected "a boolean"
let to_string = function String s -> s | _ -> expected "a string"
let to_list = function List l -> l | _ -> expected "an array"

let decode text f =
  match parse text with
  | Error e -> Error (error_to_string e)
  | Ok v -> ( try Ok (f v) with Decode_error msg -> Error msg)
