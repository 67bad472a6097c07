(** A minimal JSON reader and writer for the observability tooling.

    The container has no yojson; this is the small subset the repo needs
    to write its artifacts and read them back — [BENCH_<id>.json]
    trajectories for the {!Icoe_obs.Bench_diff} regression gate and
    JSONL event-log lines in tests. The reader is a strict
    recursive-descent parser over the whole grammar (objects, arrays,
    strings with escapes, numbers, booleans, null); numbers all land in
    [float], which is exactly how the writer emitted them. [to_string]
    is the one JSON writer of the repo: BENCH files, Chrome traces, the
    metrics snapshot and event-log lines are all rendered by it. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let error fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> error "at %d: expected '%c', found '%c'" st.pos c c'
  | None -> error "at %d: expected '%c', found end of input" st.pos c

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

(* Encode a BMP code point (from \uXXXX) as UTF-8 bytes. Surrogate
   pairs are combined by [parse_string]. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some c ->
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> error "at %d: invalid hex digit '%c'" st.pos c
        in
        v := (!v * 16) + d
    | None -> error "at %d: truncated \\u escape" st.pos);
    advance st
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error "at %d: unterminated string" st.pos
    | Some '"' -> advance st
    | Some '\\' ->
        advance st;
        (match peek st with
        | Some '"' -> Buffer.add_char buf '"'; advance st
        | Some '\\' -> Buffer.add_char buf '\\'; advance st
        | Some '/' -> Buffer.add_char buf '/'; advance st
        | Some 'b' -> Buffer.add_char buf '\b'; advance st
        | Some 'f' -> Buffer.add_char buf '\012'; advance st
        | Some 'n' -> Buffer.add_char buf '\n'; advance st
        | Some 'r' -> Buffer.add_char buf '\r'; advance st
        | Some 't' -> Buffer.add_char buf '\t'; advance st
        | Some 'u' ->
            advance st;
            let cp = hex4 st in
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              (* high surrogate: require the low half *)
              expect st '\\';
              expect st 'u';
              let lo = hex4 st in
              if lo < 0xDC00 || lo > 0xDFFF then
                error "at %d: unpaired surrogate" st.pos;
              add_utf8 buf
                (0x10000 + (((cp - 0xD800) lsl 10) lor (lo - 0xDC00)))
            end
            else add_utf8 buf cp
        | Some c -> error "at %d: invalid escape '\\%c'" st.pos c
        | None -> error "at %d: truncated escape" st.pos);
        go ()
    | Some c when Char.code c < 0x20 ->
        error "at %d: raw control character 0x%02x in string" st.pos
          (Char.code c)
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let consume () =
    match peek st with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
        advance st;
        true
    | _ -> false
  in
  while consume () do () done;
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> error "at %d: invalid number %S" start text

let literal st word v =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    v
  end
  else error "at %d: invalid literal" st.pos

let rec parse_value st =
  skip_ws st;
  match peek st with
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ((k, v) :: acc)
          | Some '}' ->
              advance st;
              List.rev ((k, v) :: acc)
          | _ -> error "at %d: expected ',' or '}' in object" st.pos
        in
        Obj (members [])
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
          | _ -> error "at %d: expected ',' or ']' in array" st.pos
        in
        Arr (elements [])
      end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error "at %d: unexpected character '%c'" st.pos c
  | None -> error "at %d: unexpected end of input" st.pos

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Fmt.str "at %d: trailing garbage" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> raise (Parse_error msg)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_list = function Arr l -> Some l | _ -> None
let to_float = function Num f -> Some f | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let float_member key j = Option.bind (member key j) to_float

let string_member key j =
  match member key j with Some (Str s) -> Some s | _ -> None

let list_member key j = Option.bind (member key j) to_list
let bool_member key j = Option.bind (member key j) to_bool

(* --- writer --- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let number f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

(* An array of scalars, or an object whose values are scalars or such
   objects, goes on one line; any other container puts one element per
   line, indented two spaces per level, so a BENCH file diffs row by
   row. *)
let rec inline = function
  | Arr l -> List.for_all (function Arr _ | Obj _ -> false | _ -> true) l
  | Obj kvs -> List.for_all (fun (_, v) -> match v with Arr _ -> false | v -> inline v) kvs
  | _ -> true

let to_string j =
  let buf = Buffer.create 256 in
  let add = Buffer.add_string buf in
  let str s = add "\""; add (escape s); add "\"" in
  let rec value ind v =
    match v with
    | Null -> add "null"
    | Bool b -> add (if b then "true" else "false")
    | Num f -> add (number f)
    | Str s -> str s
    | Arr l -> container ind v ("[", "]") (List.map (fun v -> (None, v)) l)
    | Obj kvs -> container ind v ("{", "}") (List.map (fun (k, v) -> (Some k, v)) kvs)
  and container ind v (op, cl) items =
    let one_line = inline v and ind' = ind ^ "  " in
    add op;
    List.iteri
      (fun i (key, v) ->
        if i > 0 then add (if one_line then ", " else ",");
        if not one_line then add ("\n" ^ ind');
        Option.iter (fun k -> str k; add ": ") key;
        value ind' v)
      items;
    if not (one_line || items = []) then add ("\n" ^ ind);
    add cl
  in
  value "" j;
  add "\n";
  Buffer.contents buf
