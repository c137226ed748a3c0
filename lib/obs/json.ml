type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of int * string

let max_depth = 256

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
        | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let code =
            try int_of_string ("0x" ^ String.sub s !pos 4) with _ -> fail "bad \\u escape"
          in
          pos := !pos + 4;
          (* Only the escapes our writers emit (< 0x80) need to round-trip;
             encode the rest as UTF-8 for completeness. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
          end;
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      if depth >= max_depth then fail "nesting too deep";
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some '[' ->
      if depth >= max_depth then fail "nesting too deep";
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (elements [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "JSON error at offset %d: %s" at msg)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 2. ** 53. -> Some (int_of_float f)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr l -> Some l | _ -> None
