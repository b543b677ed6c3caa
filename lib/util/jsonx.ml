type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of int * string

let fail pos fmt = Printf.ksprintf (fun m -> raise (Fail (pos, m))) fmt

type state = {
  src : string;
  mutable pos : int;
}

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let n = String.length st.src in
  while
    st.pos < n
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> fail st.pos "expected '%c', found '%c'" c d
  | None -> fail st.pos "expected '%c', found end of input" c

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos "invalid literal"

let hex_digit pos c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail pos "invalid hex digit '%c'" c

(* Encode one Unicode scalar value as UTF-8. Escaped surrogate pairs are
   combined by the caller. *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then fail st.pos "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    v := (!v * 16) + hex_digit st.pos st.src.[st.pos];
    advance st
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> fail st.pos "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let code = parse_hex4 st in
          if code >= 0xD800 && code <= 0xDBFF then begin
            (* High surrogate: require the escaped low half. *)
            if
              st.pos + 2 <= String.length st.src
              && st.src.[st.pos] = '\\'
              && st.src.[st.pos + 1] = 'u'
            then begin
              st.pos <- st.pos + 2;
              let low = parse_hex4 st in
              if low < 0xDC00 || low > 0xDFFF then
                fail st.pos "invalid low surrogate";
              add_utf8 buf
                (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
            end
            else fail st.pos "unpaired surrogate"
          end
          else if code >= 0xDC00 && code <= 0xDFFF then
            fail st.pos "unpaired surrogate"
          else add_utf8 buf code
        | c -> fail (st.pos - 1) "invalid escape '\\%c'" c));
      loop ()
    | Some c when Char.code c < 0x20 -> fail st.pos "raw control character"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let n = String.length st.src in
  if peek st = Some '-' then advance st;
  while
    st.pos < n
    &&
    match st.src.[st.pos] with
    | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
    | _ -> false
  do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> fail start "invalid number %S" text

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields ((key, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((key, v) :: acc)
        | _ -> fail st.pos "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail st.pos "expected ',' or ']'"
      in
      Arr (elements [])
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail st.pos "unexpected character '%c'" c

let parse src =
  let st = { src; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length src then
      Error (Printf.sprintf "byte %d: trailing garbage" st.pos)
    else Ok v
  | exception Fail (pos, msg) -> Error (Printf.sprintf "byte %d: %s" pos msg)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  escape_string buf s;
  Buffer.contents buf

let number_to_string f =
  if not (Float.is_finite f) then
    invalid_arg "Jsonx.encode: non-finite number"
  else if Float.is_integer f && Float.abs f <= 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let encode v =
  let buf = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number_to_string f)
    | Str s -> escape_string buf s
    | Arr l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit x)
        l;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          emit x)
        fields;
      Buffer.add_char buf '}'
  in
  emit v;
  Buffer.contents buf

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 1e15 ->
    Some (int_of_float f)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr l -> Some l | _ -> None

let bind o f = match o with Some x -> f x | None -> None
let get_float key j = bind (member key j) to_float
let get_int key j = bind (member key j) to_int
let get_string key j = bind (member key j) to_string
let get_list key j = bind (member key j) to_list
