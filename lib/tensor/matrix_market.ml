(* Matrix Market (.mtx) coordinate-format reader/writer.

   Supports the subset SuiteSparse distributes: object "matrix", format
   "coordinate", fields real/integer/pattern, symmetries general/symmetric/
   skew-symmetric. Pattern entries get value 1.0. Symmetric storage is
   expanded to the full matrix on read.

   The reader scans the whole text by index: integers are parsed in
   place, each value token goes through [float_of_string] (the correctly
   rounded value of the token), and entries land straight in the
   structure-of-arrays buffers of [Coo.t]. *)

exception Parse_error of string

type field = Real | Integer | Pattern
type symmetry = General | Symmetric | Skew_symmetric

(* A position in the text: [p] is the next byte, [line] the 1-based
   number of the line holding it and [bol] the offset that line starts
   at. *)
type cursor = {
  s : string;
  mutable p : int;
  mutable line : int;
  mutable bol : int;
}

let cursor s = { s; p = 0; line = 1; bol = 0 }

let fail_at line fmt =
  Printf.ksprintf
    (fun m -> raise (Parse_error (Printf.sprintf "line %d: %s" line m)))
    fmt

let fail c fmt = fail_at c.line fmt

(* Blanks separate tokens; '\r' covers CRLF line endings. *)
let is_blank ch = ch = ' ' || ch = '\t' || ch = '\r' || ch = '\012'
let at_eol c = c.p >= String.length c.s || c.s.[c.p] = '\n'

let skip_blanks c =
  while c.p < String.length c.s && is_blank c.s.[c.p] do
    c.p <- c.p + 1
  done

(* The current line, trimmed: error messages quote it. *)
let line_text c =
  let e =
    Option.value (String.index_from_opt c.s c.bol '\n')
      ~default:(String.length c.s)
  in
  String.trim (String.sub c.s c.bol (e - c.bol))

let next_line c =
  match String.index_from_opt c.s c.p '\n' with
  | Some q ->
    c.p <- q + 1;
    c.bol <- c.p;
    c.line <- c.line + 1
  | None -> c.p <- String.length c.s

(* Moves to the first non-blank byte of the next line with content,
   skipping blank lines and, when [comments], '%' lines. False at the end
   of the text. *)
let rec seek_content c ~comments =
  skip_blanks c;
  if c.p >= String.length c.s then false
  else if c.s.[c.p] = '\n' || (comments && c.s.[c.p] = '%') then begin
    next_line c;
    seek_content c ~comments
  end
  else true

(* Whether offset [i] ends a token: a blank, a newline or the end. *)
let at_token_end s i =
  i >= String.length s || s.[i] = '\n' || is_blank s.[i]

(* End offset of the token starting at [c.p]. *)
let token_end c =
  let e = ref c.p in
  while
    !e < String.length c.s
    && (let ch = c.s.[!e] in
        ch <> '\n' && not (is_blank ch))
  do
    incr e
  done;
  !e

(* The next token as a non-negative decimal int ([+]?[0-9]+, at most 18
   digits, so it cannot overflow), or -1 when it is not one (the cursor
   then stays put). *)
let int_token c =
  skip_blanks c;
  let s = c.s and len = String.length c.s in
  let start = if c.p < len && s.[c.p] = '+' then c.p + 1 else c.p in
  let i = ref start and acc = ref 0 in
  while
    !i < len
    && (let ch = String.unsafe_get s !i in
        ch >= '0' && ch <= '9')
  do
    acc := (!acc * 10) + (Char.code (String.unsafe_get s !i) - 48);
    incr i
  done;
  let digits = !i - start in
  if digits = 0 || digits > 18 || not (at_token_end s !i) then -1
  else begin
    c.p <- !i;
    !acc
  end

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let header c =
  if not (seek_content c ~comments:false) then fail c "empty file";
  let line = line_text c in
  match split_ws (String.lowercase_ascii line) with
  | bang :: "matrix" :: "coordinate" :: field :: sym :: _
    when bang = "%%matrixmarket" ->
    let field =
      match field with
      | "real" -> Real
      | "integer" -> Integer
      | "pattern" -> Pattern
      | f -> fail c "unsupported field %S" f
    in
    let sym =
      match sym with
      | "general" -> General
      | "symmetric" -> Symmetric
      | "skew-symmetric" -> Skew_symmetric
      | s -> fail c "unsupported symmetry %S" s
    in
    (field, sym)
  | _ -> fail c "bad MatrixMarket header: %S" line

let size_line c =
  next_line c;
  if not (seek_content c ~comments:true) then fail c "missing size line";
  let rows = int_token c in
  let cols = int_token c in
  let nnz = int_token c in
  skip_blanks c;
  if rows < 0 || cols < 0 || nnz < 0 || not (at_eol c) then
    fail c "bad size line: %S" (line_text c);
  (rows, cols, nnz)

let bad_entry c = fail c "bad entry line: %S" (line_text c)

(* Calls [f i j v] with 0-based, bounds-checked coordinates for every
   entry line after the size line. *)
let scan_entries c ~field ~rows ~cols f =
  next_line c;
  while seek_content c ~comments:true do
    let i = int_token c in
    let j = int_token c in
    if i < 0 || j < 0 then bad_entry c;
    skip_blanks c;
    let v =
      if at_eol c then (if field = Pattern then 1.0 else bad_entry c)
      else
        let e = token_end c in
        match float_of_string_opt (String.sub c.s c.p (e - c.p)) with
        | None -> bad_entry c
        | Some v ->
          c.p <- e;
          skip_blanks c;
          if not (at_eol c) then bad_entry c;
          v
    in
    if i < 1 || i > rows || j < 1 || j > cols then
      fail c "entry (%d, %d) out of %dx%d" i j rows cols;
    f (i - 1) (j - 1) v;
    next_line c
  done

exception Found of int

(* The line of the [e]-th stored element (0-based, after symmetric
   expansion): a second scan, taken only to label a duplicate. *)
let line_of_element s ~sym e =
  let c = cursor s in
  let field, _ = header c in
  let rows, cols, _ = size_line c in
  let seen = ref 0 in
  match
    scan_entries c ~field ~rows ~cols (fun i j _ ->
        seen := !seen + (if sym <> General && i <> j then 2 else 1);
        if !seen > e then raise_notrace (Found c.line))
  with
  | () -> c.line
  | exception Found line -> line

(* Duplicates are adjacent in the radix order of (i, j); the one
   reported is the earliest that repeats an entry before it. *)
let check_duplicates s ~sym ci cj =
  let n = Array.length ci in
  let order = Coo.radix_order ~n [| ci; cj |] in
  let dup = ref n in
  for q = 1 to n - 1 do
    let a = order.(q - 1) and b = order.(q) in
    if ci.(a) = ci.(b) && cj.(a) = cj.(b) && b < !dup then dup := b
  done;
  if !dup < n then
    fail_at (line_of_element s ~sym !dup) "duplicate entry (%d, %d)"
      (ci.(!dup) + 1) (cj.(!dup) + 1)

(** [of_string s] parses .mtx text. Tolerant of real-world SuiteSparse
    files: CRLF line endings, leading/trailing whitespace, and blank or
    ["%"]-comment lines anywhere after the header are accepted. Duplicate
    coordinates (including those produced by symmetry expansion) are
    rejected with a clear error — silently keeping them would mis-state
    nnz and skew every per-nnz metric. *)
let of_string s : Coo.t =
  let c = cursor s in
  let field, sym = header c in
  let rows, cols, nnz = size_line c in
  let size_at = c.line in
  (* Mirrored entries must land inside the matrix. *)
  if sym <> General && rows <> cols then
    fail c "symmetric storage needs a square matrix, not %dx%d" rows cols;
  (* An entry line takes at least 4 bytes ("1 1" and a newline), so the
     text bounds the buffers whatever nnz the size line declares. *)
  let per_entry = if sym = General then 1 else 2 in
  let cap = per_entry * min nnz ((String.length s / 4) + 1) in
  let ci = Array.make cap 0 and cj = Array.make cap 0 in
  let vals = Array.make cap 0. in
  let n = ref 0 and entries = ref 0 in
  let push i j v =
    ci.(!n) <- i;
    cj.(!n) <- j;
    vals.(!n) <- v;
    incr n
  in
  scan_entries c ~field ~rows ~cols (fun i j v ->
      incr entries;
      if !entries <= nnz then begin
        push i j v;
        if i <> j then
          match sym with
          | General -> ()
          | Symmetric -> push j i v
          | Skew_symmetric -> push j i (-.v)
      end);
  if !entries <> nnz then
    fail_at size_at "expected %d entries, found %d" nnz !entries;
  let n = !n in
  let trim a = if n = cap then a else Array.sub a 0 n in
  let ci = trim ci and cj = trim cj in
  check_duplicates s ~sym ci cj;
  { Coo.dims = [| rows; cols |]; crd = [| ci; cj |]; vals = trim vals }

let read path = of_string (In_channel.with_open_bin path In_channel.input_all)

(** [to_string coo] writes general real coordinate format. *)
let to_string (coo : Coo.t) =
  if Coo.rank coo <> 2 then invalid_arg "Matrix_market.to_string: not a matrix";
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "%%MatrixMarket matrix coordinate real general\n";
  Printf.bprintf buf "%d %d %d\n" coo.dims.(0) coo.dims.(1) (Coo.nnz coo);
  let ci = coo.crd.(0) and cj = coo.crd.(1) in
  for k = 0 to Coo.nnz coo - 1 do
    Printf.bprintf buf "%d %d %.17g\n" (ci.(k) + 1) (cj.(k) + 1) coo.vals.(k)
  done;
  Buffer.contents buf

let write path coo =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string coo))
