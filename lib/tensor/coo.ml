(* Coordinate-list (COO) exchange form.

   The unsorted entry list every other representation is built from:
   generators and Matrix Market readers produce it, [Storage.pack] consumes
   it. Coordinates are structure-of-arrays: [crd.(d)] is one flat buffer of
   nnz dimension-[d] coordinates, so sorting and packing stream plain int
   arrays instead of one boxed tuple per non-zero. *)

type t = {
  dims : int array;      (* tensor shape, one extent per dimension *)
  crd : int array array; (* crd.(d).(k): dimension-d coordinate of nnz k *)
  vals : float array;
}

let rank t = Array.length t.dims
let nnz t = Array.length t.vals

let create ~dims ~crd ~vals =
  let n = Array.length vals in
  if Array.length crd <> Array.length dims then
    invalid_arg "Coo.create: coordinate rank mismatch";
  Array.iteri
    (fun d c ->
      if Array.length c <> n then
        invalid_arg "Coo.create: crd/vals length mismatch";
      Array.iter
        (fun x ->
          if x < 0 || x >= dims.(d) then
            invalid_arg
              (Printf.sprintf "Coo.create: coordinate %d out of bound %d" x
                 dims.(d)))
        c)
    crd;
  { dims; crd; vals }

(** [of_triples ~rows ~cols triples] builds a matrix from (i, j, v) triples. *)
let of_triples ~rows ~cols triples =
  let n = List.length triples in
  let ci = Array.make n 0 and cj = Array.make n 0 and vals = Array.make n 0. in
  List.iteri
    (fun k (i, j, v) ->
      ci.(k) <- i;
      cj.(k) <- j;
      vals.(k) <- v)
    triples;
  create ~dims:[| rows; cols |] ~crd:[| ci; cj |] ~vals

(* Bit width of a non-negative int: the smallest b with x < 2^b. *)
let bit_width x =
  let rec go b = if x lsr b = 0 then b else go (b + 1) in
  go 0

(** [radix_order ~n keys] is the stable sort permutation of [0 .. n-1] by
    the key columns, most significant first. LSD radix: the columns are
    taken last to first, each in as few counting passes as its largest
    value needs. Every pass is stable and the start order is the index
    order, so equal keys end in index order. *)
let radix_order ~n keys =
  let order = ref (Array.init n Fun.id) and spare = ref (Array.make n 0) in
  let digits = Array.make n 0 in
  (* About log2 n bits per digit, so the count array never outgrows the
     entries it sorts; at most 16 bits (64k buckets). *)
  let digit = max 1 (min 16 (bit_width n)) in
  let count = Array.make ((1 lsl digit) + 1) 0 in
  for c = Array.length keys - 1 downto 0 do
    let col = keys.(c) in
    let top = ref 0 in
    for k = 0 to n - 1 do top := !top lor col.(k) done;
    let width = bit_width !top in
    let passes = (width + digit - 1) / digit in
    let w = if passes = 0 then 0 else (width + passes - 1) / passes in
    let mask = (1 lsl w) - 1 in
    for p = 0 to passes - 1 do
      let shift = p * w and o = !order and o' = !spare in
      Array.fill count 0 (mask + 2) 0;
      for k = 0 to n - 1 do
        let d = (col.(o.(k)) lsr shift) land mask in
        digits.(k) <- d;
        count.(d + 1) <- count.(d + 1) + 1
      done;
      (* A digit every entry shares leaves the order as it is. *)
      if count.(digits.(0) + 1) < n then begin
        for d = 1 to mask do count.(d) <- count.(d) + count.(d - 1) done;
        for k = 0 to n - 1 do
          let d = digits.(k) in
          let dst = count.(d) in
          count.(d) <- dst + 1;
          o'.(dst) <- o.(k)
        done;
        order := o';
        spare := o
      end
    done
  done;
  !order

(** [sorted_dedup ?perm t] returns a copy of [t] sorted lexicographically by
    the (optionally permuted) dimension order, with duplicate coordinates
    summed — the canonical form sparsification's [sorted = true] expects.
    Duplicates are adjacent in index order and summed from [0.] in that
    order. *)
let sorted_dedup ?perm t =
  let perm =
    match perm with Some p -> p | None -> Array.init (rank t) Fun.id
  in
  let n = nnz t in
  let order = radix_order ~n (Array.map (fun d -> t.crd.(d)) perm) in
  (* Gather every dimension into sorted order, then compact each run of
     equal keys in place to its first entry; the write slot [m] never
     passes the run being read. *)
  let gather c =
    let a = Array.make n 0 in
    for q = 0 to n - 1 do a.(q) <- c.(order.(q)) done;
    a
  in
  let crd = Array.map gather t.crd in
  let keys = Array.map (fun d -> crd.(d)) perm in
  let r = Array.length keys and dims = Array.length crd in
  let same a b =
    let l = ref 0 in
    while !l < r && keys.(!l).(a) = keys.(!l).(b) do incr l done;
    !l = r
  in
  let vals = Array.make n 0. in
  let m = ref 0 and q = ref 0 in
  while !q < n do
    let first = !q in
    let v = ref 0. in
    while !q < n && same first !q do
      v := !v +. t.vals.(order.(!q));
      incr q
    done;
    for d = 0 to dims - 1 do crd.(d).(!m) <- crd.(d).(first) done;
    vals.(!m) <- !v;
    incr m
  done;
  let m = !m in
  if m = n then { dims = Array.copy t.dims; crd; vals }
  else
    { dims = Array.copy t.dims;
      crd = Array.map (fun c -> Array.sub c 0 m) crd;
      vals = Array.sub vals 0 m }

(** [to_dense t] materialises a row-major dense array. *)
let to_dense t =
  let total = Array.fold_left ( * ) 1 t.dims in
  let d = Array.make total 0. in
  let strides = Array.make (rank t) 1 in
  for l = rank t - 2 downto 0 do
    strides.(l) <- strides.(l + 1) * t.dims.(l + 1)
  done;
  for k = 0 to nnz t - 1 do
    let off = ref 0 in
    Array.iteri (fun l c -> off := !off + (c.(k) * strides.(l))) t.crd;
    d.(!off) <- d.(!off) +. t.vals.(k)
  done;
  d

(** Structural statistics used by workload selection (paper §4.2). *)
type stats = {
  s_rows : int;
  s_cols : int;
  s_nnz : int;
  s_row_min : int;
  s_row_max : int;
  s_row_mean : float;
  s_footprint_bytes : int;     (* CSR with given index width + f64 values *)
}

let matrix_stats ?(index_bytes = 4) t =
  if rank t <> 2 then invalid_arg "Coo.matrix_stats: not a matrix";
  let rows = t.dims.(0) and cols = t.dims.(1) in
  let per_row = Array.make rows 0 in
  Array.iter (fun i -> per_row.(i) <- per_row.(i) + 1) t.crd.(0);
  let mn = Array.fold_left min max_int per_row
  and mx = Array.fold_left max 0 per_row in
  let n = nnz t in
  { s_rows = rows; s_cols = cols; s_nnz = n;
    s_row_min = (if rows = 0 then 0 else mn);
    s_row_max = mx;
    s_row_mean = (if rows = 0 then 0. else float_of_int n /. float_of_int rows);
    s_footprint_bytes =
      ((rows + 1) * index_bytes) + (n * index_bytes) + (n * 8) }
