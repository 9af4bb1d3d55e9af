(* Tests for the sparse tensor substrate: COO, encodings, storage,
   coordinate trees, Matrix Market I/O, dense tensors. *)

open Asap_tensor

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The Fig. 2 matrix: non-zeros (0,0)=1, (0,2)=2, (2,2)=3; row 1 empty. *)
let fig2 () =
  Coo.of_triples ~rows:3 ~cols:3 [ (0, 0, 1.); (0, 2, 2.); (2, 2, 3.) ]

let all_encodings () =
  [ Encoding.coo (); Encoding.csr (); Encoding.csc (); Encoding.dcsr ();
    Encoding.csf 2 ]

(* --- Coo ----------------------------------------------------------- *)

let test_coo_create_bounds () =
  (try
     let (_ : Coo.t) = Coo.of_triples ~rows:2 ~cols:2 [ (2, 0, 1.) ] in
     Alcotest.fail "accepted out-of-bound coordinate"
   with Invalid_argument _ -> ())

let test_coo_sorted_dedup () =
  let c =
    Coo.of_triples ~rows:3 ~cols:3
      [ (2, 2, 1.); (0, 0, 1.); (2, 2, 2.); (0, 2, 5.) ]
  in
  let s = Coo.sorted_dedup c in
  check_int "dedup sums duplicates" 3 (Coo.nnz s);
  let d = Coo.to_dense s in
  check "sum" true (d.((2 * 3) + 2) = 3.);
  (* Sorted row-major. *)
  check "sorted" true
    (s.Coo.crd = [| [| 0; 0; 2 |]; [| 0; 2; 2 |] |])

let test_coo_sorted_dedup_perm () =
  let c = fig2 () in
  let s = Coo.sorted_dedup ~perm:[| 1; 0 |] c in
  (* Column-major order: (0,0), (0,2) ... by column first: (0,0), (2,2)?
     columns: 0 -> (0,0); 2 -> (0,2), (2,2). *)
  check "(0,0), (0,2), (2,2)" true
    (s.Coo.crd = [| [| 0; 0; 2 |]; [| 0; 2; 2 |] |])

let test_coo_stats () =
  let st = Coo.matrix_stats (fig2 ()) in
  check_int "rows" 3 st.Coo.s_rows;
  check_int "nnz" 3 st.Coo.s_nnz;
  check_int "max row" 2 st.Coo.s_row_max;
  check_int "min row" 0 st.Coo.s_row_min;
  check "footprint" true (st.Coo.s_footprint_bytes > 0)

(* --- Coo.sorted_dedup against a list-sort oracle --------------------- *)

(* Oracle: a stable list sort by the permuted key, then each run of equal
   keys summed from [0.] in index order. *)
let oracle_dedup perm (c : Coo.t) =
  let key k = Array.map (fun d -> c.Coo.crd.(d).(k)) perm in
  let sorted =
    List.stable_sort
      (fun (a, _) (b, _) -> compare a b)
      (List.init (Coo.nnz c) (fun k -> (key k, k)))
  in
  let rec groups acc = function
    | [] -> List.rev acc
    | (kk, k) :: _ as run ->
      let mine, rest = List.partition (fun (kk', _) -> kk' = kk) run in
      let v = List.fold_left (fun s (_, k') -> s +. c.Coo.vals.(k')) 0. mine in
      groups ((k, v) :: acc) rest
  in
  let g = groups [] sorted in
  ( Array.map (fun col -> Array.of_list (List.map (fun (k, _) -> col.(k)) g))
      c.Coo.crd,
    Array.of_list (List.map snd g) )

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
      l

(* Every dimension order of [c]: sorted_dedup equals the oracle bit for
   bit, coordinates and summed values alike. *)
let dedup_matches_oracle (c : Coo.t) =
  List.for_all
    (fun perm ->
      let perm = Array.of_list perm in
      let s = Coo.sorted_dedup ~perm c in
      let crd, vals = oracle_dedup perm c in
      s.Coo.dims = c.Coo.dims && s.Coo.crd = crd && bits_equal s.Coo.vals vals)
    (permutations (List.init (Coo.rank c) Fun.id))

(* Values whose sums depend on the order they are added in. *)
let order_sensitive = [| 1e16; 1.; -1e16; 0.1; 0.2; 0.3; -0.; 2.5 |]

let qcheck_dedup_oracle =
  let gen =
    QCheck2.Gen.(
      let* rank = int_range 1 3 in
      let* dims = array_size (pure rank) (int_range 1 5) in
      let* n = int_range 0 40 in
      let* crd =
        flatten_a
          (Array.map (fun d -> array_size (pure n) (int_range 0 (d - 1))) dims)
      in
      let* vals = array_size (pure n) (oneofa order_sensitive) in
      pure (Coo.create ~dims ~crd ~vals))
  in
  QCheck2.Test.make ~count:300 ~name:"sorted_dedup = list-sort oracle" gen
    dedup_matches_oracle

let test_dedup_edge_shapes () =
  let rng = Random.State.make [| 13 |] in
  let random_coo dims n =
    let pick () =
      order_sensitive.(Random.State.int rng (Array.length order_sensitive))
    in
    Coo.create ~dims
      ~crd:
        (Array.map
           (fun d -> Array.init n (fun _ -> Random.State.int rng d))
           dims)
      ~vals:(Array.init n (fun _ -> pick ()))
  in
  (* Hypersparse: 10^9 x 10^9 extents, 50 entries drawn from 8 rows and
     8 columns so duplicates occur. *)
  let big = 1_000_000_000 in
  let spots = Array.init 8 (fun i -> (i * 123_456_789) + 7) in
  let hyper =
    Coo.create ~dims:[| big; big |]
      ~crd:
        (Array.init 2 (fun _ ->
             Array.init 50 (fun _ -> spots.(Random.State.int rng 8))))
      ~vals:(Array.init 50 (fun k -> float_of_int k +. 0.5))
  in
  List.iter
    (fun (label, c) -> check label true (dedup_matches_oracle c))
    [ ("empty", random_coo [| 4; 4 |] 0);
      ("empty rank 3", random_coo [| 2; 3; 4 |] 0);
      ("1xN", random_coo [| 1; 9 |] 30);
      ("Nx1", random_coo [| 9; 1 |] 30);
      ("rank 1", random_coo [| 7 |] 25);
      ("rank 3", random_coo [| 3; 4; 2 |] 60);
      ("hypersparse", hyper) ];
  check "hypersparse keeps duplicates summed" true
    (Coo.nnz (Coo.sorted_dedup hyper) < 50)

(* Pack output, level by level, rendered for comparison. *)
let render (st : Storage.t) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let lvl = function
    | Storage.Ldense { lsize } -> Printf.sprintf "dense %d" lsize
    | Storage.Lcompressed { pos; crd; unique } ->
      Printf.sprintf "comp%s pos=%s crd=%s"
        (if unique then "" else "-nu")
        (ints pos) (ints crd)
    | Storage.Lsingleton { crd } -> Printf.sprintf "single crd=%s" (ints crd)
  in
  String.concat "; "
    (Array.to_list (Array.map lvl st.Storage.lvls)
    @ [ "vals="
        ^ String.concat ","
            (Array.to_list (Array.map (Printf.sprintf "%g") st.Storage.vals))
      ])

(* A 6x7 matrix with duplicates, one pair summing to an explicit zero at
   (2, 3), an empty row and an empty column; and a 3x4x2 tensor with two
   duplicate pairs. *)
let pack_matrix () =
  Coo.of_triples ~rows:6 ~cols:7
    [ (4, 6, 1.5); (0, 1, 2.); (2, 3, -1.); (0, 1, 0.25); (3, 0, 4.);
      (2, 2, 3.); (4, 0, 5.); (0, 6, 6.); (2, 3, 1.); (1, 5, 7.) ]

let pack_tensor3 () =
  Coo.create ~dims:[| 3; 4; 2 |]
    ~crd:[| [| 2; 0; 1; 0; 2; 1 |]; [| 3; 1; 0; 1; 0; 0 |];
            [| 1; 0; 1; 0; 0; 1 |] |]
    ~vals:[| 1.; 2.; 3.; 4.; 5.; 6. |]

(* Expected buffers, one per encoding (matrix, then tensor). *)
let pack_expected =
  [ ( "COO",
      "comp-nu pos=0,8 crd=0,0,1,2,2,3,4,4;\
       \ single crd=1,6,5,2,3,0,0,6;\
       \ vals=2.25,6,7,3,0,4,5,1.5" );
    ( "CSR",
      "dense 6;\
       \ comp pos=0,2,3,5,6,8,8 crd=1,6,5,2,3,0,0,6;\
       \ vals=2.25,6,7,3,0,4,5,1.5" );
    ( "CSC",
      "dense 7;\
       \ comp pos=0,2,3,4,5,5,6,8 crd=3,4,0,2,2,1,0,4;\
       \ vals=4,5,2.25,3,0,7,6,1.5" );
    ( "DCSR",
      "comp pos=0,5 crd=0,1,2,3,4;\
       \ comp pos=0,2,3,5,6,8 crd=1,6,5,2,3,0,0,6;\
       \ vals=2.25,6,7,3,0,4,5,1.5" );
    ( "CSF",
      "comp pos=0,5 crd=0,1,2,3,4;\
       \ comp pos=0,2,3,5,6,8 crd=1,6,5,2,3,0,0,6;\
       \ vals=2.25,6,7,3,0,4,5,1.5" );
    ( "BSR2x2",
      "dense 3;\
       \ comp pos=0,3,5,7 crd=0,2,3,0,1,0,3;\
       \ vals=0,2.25,0,0,0,0,0,7,6,0,0,0,0,0,4,0,3,0,0,0,5,0,0,0,1.5,0,0,0" );
    ( "BSR2x3",
      "dense 3;\
       \ comp pos=0,3,5,7 crd=0,1,2,0,1,0,2;\
       \ vals=0,2.25,0,0,0,0,0,0,0,0,0,7,6,0,0,0,0,0,0,0,3,4,0,0,0,0,0,\
       0,0,0,5,0,0,0,0,0,1.5,0,0,0,0,0" );
    ( "CSF",
      "comp pos=0,3 crd=0,1,2;\
       \ comp pos=0,1,2,4 crd=1,0,0,3;\
       \ comp pos=0,1,2,3,4 crd=0,1,0,1;\
       \ vals=6,9,5,1" );
    ( "CSF-201",
      "comp pos=0,2 crd=0,1;\
       \ comp pos=0,2,4 crd=0,2,1,2;\
       \ comp pos=0,1,2,3,4 crd=1,0,0,3;\
       \ vals=6,5,9,1" ) ]

let test_pack_expected () =
  let encs =
    [ (Encoding.coo (), pack_matrix); (Encoding.csr (), pack_matrix);
      (Encoding.csc (), pack_matrix); (Encoding.dcsr (), pack_matrix);
      (Encoding.csf 2, pack_matrix);
      (Encoding.bsr ~bh:2 ~bw:2 (), pack_matrix);
      (Encoding.bsr ~bh:2 ~bw:3 (), pack_matrix);
      (Encoding.csf 3, pack_tensor3);
      ( Encoding.make "CSF-201"
          (Array.make 3 (Encoding.Compressed { unique = true }))
          [| 2; 0; 1 |],
        pack_tensor3 ) ]
  in
  check_int "one expectation per encoding" (List.length encs)
    (List.length pack_expected);
  List.iter2
    (fun (enc, coo) (name, want) ->
      Alcotest.(check string) name enc.Encoding.name name;
      Alcotest.(check string) ("pack " ^ name) want
        (render (Storage.pack enc (coo ()))))
    encs pack_expected

(* --- Encoding ------------------------------------------------------ *)

let test_encoding_validate () =
  (try
     let (_ : Encoding.t) =
       Encoding.make "bad" [| Encoding.Singleton |] [| 0 |]
     in
     Alcotest.fail "accepted singleton top level"
   with Invalid_argument _ -> ());
  (try
     let (_ : Encoding.t) =
       Encoding.make "bad"
         [| Encoding.Dense; Encoding.Dense |]
         [| 0; 0 |]
     in
     Alcotest.fail "accepted duplicate dim mapping"
   with Invalid_argument _ -> ())

let test_encoding_props () =
  check "csr pos" true (Encoding.has_pos (Encoding.Compressed { unique = true }));
  check "dense no pos" false (Encoding.has_pos Encoding.Dense);
  check "singleton crd" true (Encoding.has_crd Encoding.Singleton);
  let e = Encoding.csc () in
  check_int "csc level0 stores dim 1" 1 e.Encoding.dim_to_lvl.(0);
  check "fig1b text" true
    (Astring_contains.contains (Encoding.to_string (Encoding.csr ()))
       "compressed")

(* --- Storage ------------------------------------------------------- *)

let test_storage_csr_fig2 () =
  let st = Storage.pack (Encoding.csr ()) (fig2 ()) in
  (match Storage.pos_buf st 1 with
   | Some pos -> Alcotest.(check (array int)) "Bj_pos" [| 0; 2; 2; 3 |] pos
   | None -> Alcotest.fail "csr level 1 must have pos");
  (match Storage.crd_buf st 1 with
   | Some crd -> Alcotest.(check (array int)) "Bj_crd" [| 0; 2; 2 |] crd
   | None -> Alcotest.fail "csr level 1 must have crd");
  check "no level-0 buffers" true
    (Storage.pos_buf st 0 = None && Storage.crd_buf st 0 = None)

let test_storage_coo_fig2 () =
  let st = Storage.pack (Encoding.coo ()) (fig2 ()) in
  (match Storage.pos_buf st 0 with
   | Some pos -> Alcotest.(check (array int)) "Bi_pos" [| 0; 3 |] pos
   | None -> Alcotest.fail "coo level 0 must have pos");
  (match Storage.crd_buf st 0 with
   | Some crd -> Alcotest.(check (array int)) "Bi_crd" [| 0; 0; 2 |] crd
   | None -> Alcotest.fail "coo level 0 must have crd");
  (match Storage.crd_buf st 1 with
   | Some crd -> Alcotest.(check (array int)) "Bj_crd" [| 0; 2; 2 |] crd
   | None -> Alcotest.fail "coo level 1 must have crd")

let test_storage_dcsr_fig2 () =
  let st = Storage.pack (Encoding.dcsr ()) (fig2 ()) in
  (match Storage.pos_buf st 0, Storage.crd_buf st 0 with
   | Some pos, Some crd ->
     Alcotest.(check (array int)) "Bi_pos" [| 0; 2 |] pos;
     Alcotest.(check (array int)) "Bi_crd" [| 0; 2 |] crd
   | _ -> Alcotest.fail "dcsr level 0 buffers");
  (match Storage.pos_buf st 1 with
   | Some pos -> Alcotest.(check (array int)) "Bj_pos" [| 0; 2; 3 |] pos
   | None -> Alcotest.fail "dcsr level 1 pos")

let test_storage_csc_fig2 () =
  let st = Storage.pack (Encoding.csc ()) (fig2 ()) in
  (match Storage.pos_buf st 1, Storage.crd_buf st 1 with
   | Some pos, Some crd ->
     (* Columns 0,1,2: col 0 has row 0; col 1 empty; col 2 has rows 0,2. *)
     Alcotest.(check (array int)) "Bi_pos" [| 0; 1; 1; 3 |] pos;
     Alcotest.(check (array int)) "Bi_crd" [| 0; 0; 2 |] crd
   | _ -> Alcotest.fail "csc level 1 buffers")

let test_storage_roundtrip_all () =
  let c = fig2 () in
  let reference = Coo.to_dense c in
  List.iter
    (fun enc ->
      let st = Storage.pack enc c in
      let back = Coo.to_dense (Storage.to_coo st) in
      Alcotest.(check (array (float 1e-9)))
        ("roundtrip " ^ enc.Encoding.name) reference back)
    (all_encodings ())

let test_storage_convert () =
  let st = Storage.pack (Encoding.csr ()) (fig2 ()) in
  let st' = Storage.convert (Encoding.dcsr ()) st in
  check "converted format name" true (st'.Storage.enc.Encoding.name = "DCSR");
  Alcotest.(check (array (float 1e-9)))
    "convert preserves" (Coo.to_dense (fig2 ()))
    (Coo.to_dense (Storage.to_coo st'))

let test_storage_empty () =
  let c = Coo.create ~dims:[| 4; 4 |] ~crd:[| [||]; [||] |] ~vals:[||] in
  List.iter
    (fun enc ->
      let st = Storage.pack enc c in
      check_int ("empty nnz " ^ enc.Encoding.name) 0 (Coo.nnz (Storage.to_coo st)))
    (all_encodings ())

let test_storage_footprint () =
  let st32 = Storage.pack (Encoding.csr ()) (fig2 ()) in
  let st64 = Storage.pack (Encoding.csr ~width:Encoding.W64 ()) (fig2 ()) in
  check "64-bit indices cost more" true
    (Storage.footprint_bytes st64 > Storage.footprint_bytes st32)

let test_storage_csf_rank3 () =
  (* A 2x2x3 tensor with nnz at (0,0,1), (0,1,2), (1,1,0). *)
  let c =
    Coo.create ~dims:[| 2; 2; 3 |]
      ~crd:[| [| 0; 0; 1 |]; [| 0; 1; 1 |]; [| 1; 2; 0 |] |]
      ~vals:[| 1.; 2.; 3. |]
  in
  let st = Storage.pack (Encoding.csf 3) c in
  (match Storage.pos_buf st 0, Storage.crd_buf st 0 with
   | Some pos, Some crd ->
     Alcotest.(check (array int)) "Bi_pos" [| 0; 2 |] pos;
     Alcotest.(check (array int)) "Bi_crd" [| 0; 1 |] crd
   | _ -> Alcotest.fail "csf level 0");
  (match Storage.pos_buf st 1, Storage.crd_buf st 1 with
   | Some pos, Some crd ->
     Alcotest.(check (array int)) "Bj_pos" [| 0; 2; 3 |] pos;
     Alcotest.(check (array int)) "Bj_crd" [| 0; 1; 1 |] crd
   | _ -> Alcotest.fail "csf level 1");
  (match Storage.pos_buf st 2, Storage.crd_buf st 2 with
   | Some pos, Some crd ->
     Alcotest.(check (array int)) "Bk_pos" [| 0; 1; 2; 3 |] pos;
     Alcotest.(check (array int)) "Bk_crd" [| 1; 2; 0 |] crd
   | _ -> Alcotest.fail "csf level 2");
  Alcotest.(check (array (float 1e-12))) "vals" [| 1.; 2.; 3. |] st.Storage.vals;
  (* Roundtrip through iter. *)
  Alcotest.(check (array (float 1e-12)))
    "rank-3 roundtrip" (Coo.to_dense c)
    (Coo.to_dense (Storage.to_coo st))

let test_storage_single_row_col () =
  (* Degenerate shapes: 1xN and Nx1. *)
  let row = Coo.of_triples ~rows:1 ~cols:6 [ (0, 1, 1.); (0, 5, 2.) ] in
  let col = Coo.of_triples ~rows:6 ~cols:1 [ (2, 0, 1.); (4, 0, 2.) ] in
  List.iter
    (fun enc ->
      List.iter
        (fun c ->
          Alcotest.(check (array (float 1e-12)))
            ("degenerate " ^ enc.Encoding.name)
            (Coo.to_dense c)
            (Coo.to_dense (Storage.to_coo (Storage.pack enc c))))
        [ row; col ])
    (all_encodings ())

let test_storage_full_matrix () =
  (* A fully dense 3x3 stored sparsely. *)
  let entries = ref [] in
  for i = 0 to 2 do
    for j = 0 to 2 do
      entries := (i, j, float_of_int ((i * 3) + j + 1)) :: !entries
    done
  done;
  let c = Coo.of_triples ~rows:3 ~cols:3 !entries in
  List.iter
    (fun enc ->
      Alcotest.(check (array (float 1e-12)))
        ("full " ^ enc.Encoding.name) (Coo.to_dense c)
        (Coo.to_dense (Storage.to_coo (Storage.pack enc c))))
    (all_encodings ())

(* qcheck: pack/unpack is lossless for every encoding. *)
let qcheck_roundtrip =
  let gen =
    QCheck2.Gen.(
      let* rows = int_range 1 12 in
      let* cols = int_range 1 12 in
      let* n = int_range 0 30 in
      let* entries =
        list_size (pure n)
          (triple (int_range 0 (rows - 1)) (int_range 0 (cols - 1))
             (map (fun x -> float_of_int x +. 1.) (int_range 1 50)))
      in
      pure (rows, cols, entries))
  in
  QCheck2.Test.make ~count:200 ~name:"storage roundtrip (all encodings)" gen
    (fun (rows, cols, entries) ->
      let c = Coo.of_triples ~rows ~cols entries in
      let reference = Coo.to_dense (Coo.sorted_dedup c) in
      List.for_all
        (fun enc ->
          let st = Storage.pack enc c in
          Coo.to_dense (Storage.to_coo st) = reference)
        (all_encodings ()))

(* --- Coord_tree ---------------------------------------------------- *)

let test_coord_tree_shapes () =
  let c = fig2 () in
  let tree_of enc = Coord_tree.of_storage (Storage.pack enc c) in
  let coo = tree_of (Encoding.coo ()) in
  let csr = tree_of (Encoding.csr ()) in
  let dcsr = tree_of (Encoding.dcsr ()) in
  (* Fig. 2: COO top level has 3 nodes (row 0 twice), CSR has 3 (all rows),
     DCSR has 2 (non-empty rows only). *)
  check_int "coo top" 3 (List.length coo.Coord_tree.children);
  check_int "csr top" 3 (List.length csr.Coord_tree.children);
  check_int "dcsr top" 2 (List.length dcsr.Coord_tree.children);
  check_int "coo leaves" 3 (Coord_tree.leaf_count coo);
  check_int "csr leaves" 3 (Coord_tree.leaf_count csr);
  check_int "depth" 2 (Coord_tree.depth csr);
  check "drawing mentions values" true
    (Astring_contains.contains (Coord_tree.to_string csr) "= 3")

(* --- Matrix market ------------------------------------------------- *)

let test_mm_roundtrip () =
  let c = fig2 () in
  let s = Matrix_market.to_string c in
  let c' = Matrix_market.of_string s in
  Alcotest.(check (array (float 1e-9)))
    "mm roundtrip" (Coo.to_dense c) (Coo.to_dense c')

let test_mm_pattern_symmetric () =
  let s =
    "%%MatrixMarket matrix coordinate pattern symmetric\n\
     3 3 2\n\
     2 1\n\
     3 3\n"
  in
  let c = Matrix_market.of_string s in
  check_int "symmetric expansion" 3 (Coo.nnz c);
  let d = Coo.to_dense c in
  check "mirrored" true (d.(1 * 3) = 1. && d.(0 * 3 + 1) = 1. && d.(8) = 1.)

let test_mm_integer_and_comments () =
  let s =
    "%%MatrixMarket matrix coordinate integer general\n\
     % a comment line\n\
     % another\n\
     2 2 2\n\
     1 1 7\n\
     2 2 -3\n"
  in
  let c = Matrix_market.of_string s in
  let d = Coo.to_dense c in
  check "integer values" true (d.(0) = 7. && d.(3) = -3.)

let test_mm_skew_symmetric () =
  let s =
    "%%MatrixMarket matrix coordinate real skew-symmetric\n\
     3 3 1\n\
     3 1 2.5\n"
  in
  let c = Matrix_market.of_string s in
  let d = Coo.to_dense c in
  check "entry" true (d.((2 * 3) + 0) = 2.5);
  check "negated mirror" true (d.((0 * 3) + 2) = -2.5)

let test_mm_errors () =
  List.iter
    (fun s ->
      try
        let (_ : Coo.t) = Matrix_market.of_string s in
        Alcotest.fail "accepted malformed file"
      with Matrix_market.Parse_error _ -> ())
    [ ""; "%%MatrixMarket matrix array real general\n1 1\n1.0\n";
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n";
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n" ]

let test_mm_crlf_and_whitespace () =
  (* Files written on Windows terminate lines with \r\n; tolerate that,
     plus leading/trailing blanks, blank lines and comments after the
     header. *)
  let crlf =
    "%%MatrixMarket matrix coordinate real general\r\n\
     3 3 2\r\n\
     1 1 1.5\r\n\
     3 3 2.5\r\n"
  in
  let c = Matrix_market.of_string crlf in
  check_int "crlf nnz" 2 (Coo.nnz c);
  check "crlf values" true
    (let d = Coo.to_dense c in
     d.(0) = 1.5 && d.(8) = 2.5);
  let messy =
    String.concat "\n"
      [ "%%MatrixMarket matrix coordinate real general";
        "% a comment before the size line"; ""; "\t 3 3 2  ";
        "% a comment between entries"; "  1 1 1.5"; ""; "3 3 2.5  "; "" ]
  in
  let c' = Matrix_market.of_string messy in
  Alcotest.(check (array (float 1e-12)))
    "messy = crlf" (Coo.to_dense c) (Coo.to_dense c')

let test_mm_duplicate_rejected () =
  List.iter
    (fun (label, s) ->
      try
        let (_ : Coo.t) = Matrix_market.of_string s in
        Alcotest.fail ("accepted " ^ label)
      with Matrix_market.Parse_error msg ->
        check (label ^ " names the entry") true
          (Astring_contains.contains msg "duplicate"))
    [ ("plain duplicate",
       "%%MatrixMarket matrix coordinate real general\n\
        3 3 2\n2 2 1.0\n2 2 5.0\n");
      ("symmetric mirror duplicate",
       "%%MatrixMarket matrix coordinate real symmetric\n\
        3 3 2\n2 1 1.0\n1 2 5.0\n") ]

(* A malformed file is a Parse_error labelled with its 1-based line. *)
let error_line s =
  match Matrix_market.of_string s with
  | (_ : Coo.t) -> Alcotest.fail ("accepted " ^ String.escaped s)
  | exception Matrix_market.Parse_error msg ->
    (match Scanf.sscanf_opt msg "line %d:" Fun.id with
     | Some n -> (n, msg)
     | None -> Alcotest.fail ("unlabelled error: " ^ msg))

let mm_header field sym =
  Printf.sprintf "%%%%MatrixMarket matrix coordinate %s %s\n" field sym

let test_mm_labelled_errors () =
  let hdr = mm_header "real" "general" in
  List.iter
    (fun (label, text, line, says) ->
      let n, msg = error_line text in
      check_int (label ^ ": line") line n;
      check (label ^ ": " ^ msg) true (Astring_contains.contains msg says))
    [ ("bad index token", hdr ^ "2 2 1\n1 x 1.0\n", 3, "bad entry");
      ("bad value token", hdr ^ "2 2 1\n1 1 abc\n", 3, "bad entry");
      ("negative size", hdr ^ "-2 -2 0\n", 2, "bad size");
      ("huge declared nnz", hdr ^ "% c\n2 2 4000000000000000\n1 1 1.0\n", 3,
       "expected 4000000000000000 entries, found 1");
      ("overflowing index", hdr ^ "2 2 1\n99999999999999999999 1 1.0\n", 3,
       "bad entry");
      ("out of bounds", hdr ^ "2 2 1\n\n3 1 1.0\n", 4, "out of 2x2");
      ("missing value", hdr ^ "2 2 1\n1 1\n", 3, "bad entry");
      ("extra token", hdr ^ "2 2 1\n1 1 1.0 9\n", 3, "bad entry");
      ("too many entries", hdr ^ "2 2 1\n1 1 1.0\n2 2 1.0\n", 2,
       "expected 1 entries, found 2");
      ("duplicate", hdr ^ "3 3 3\n1 1 1.0\n% c\n2 2 1.0\n1 1 5.0\n", 6,
       "duplicate entry (1, 1)");
      ("mirror duplicate",
       mm_header "real" "symmetric" ^ "3 3 2\n2 1 1.0\n1 2 5.0\n", 4,
       "duplicate entry (1, 2)");
      ("non-square symmetric",
       mm_header "real" "symmetric" ^ "2 3 1\n1 3 1.0\n", 2, "square");
      ("empty", "", 1, "empty file");
      ("missing size line", hdr ^ "% only a comment\n", 3, "missing size") ]

(* The gen -> run round trip: generators may draw one coordinate twice,
   which a Matrix Market file cannot hold, so files are written from the
   summed canonical form, and that form reads back bit for bit. *)
let test_mm_generated_roundtrip () =
  let raw =
    match Asap_workloads.Generate.of_spec "uniform:2000,40000" with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  (match Matrix_market.of_string (Matrix_market.to_string raw) with
   | (_ : Coo.t) -> Alcotest.fail "generator drew no duplicate coordinate"
   | exception Matrix_market.Parse_error msg ->
     check "raw draw has duplicates" true
       (Astring_contains.contains msg "duplicate"));
  let c = Coo.sorted_dedup raw in
  let back = Matrix_market.of_string (Matrix_market.to_string c) in
  check "coordinates round-trip" true (back.Coo.crd = c.Coo.crd);
  check "values round-trip" true (bits_equal back.Coo.vals c.Coo.vals);
  check "packs identically" true
    (render (Storage.pack (Encoding.csr ()) back)
     = render (Storage.pack (Encoding.csr ()) raw))

(* Fuzzing: truncations, byte mutations, deleted or repeated spans and
   garbage over valid files give Ok or a labelled Parse_error — never
   another exception. *)
let mm_seeds =
  let general = Matrix_market.to_string (Coo.sorted_dedup (pack_matrix ())) in
  [ general;
    String.concat "\r\n" (String.split_on_char '\n' general);
    mm_header "real" "symmetric" ^ "% c\n4 4 3\n2 1 1.5\n3 3 -2\n4 2 0.25\n";
    mm_header "pattern" "general" ^ "3 4 3\n1 1\n  2 4  \n\n3 2\n";
    mm_header "integer" "skew-symmetric" ^ "3 3 2\r\n2 1 7\r\n3 1 -3\r\n" ]

let labelled_only s =
  match Matrix_market.of_string s with
  | c ->
    (* Whatever parses is a valid tensor: every coordinate in bounds. *)
    let { Coo.dims; crd; vals } = c in
    let (_ : Coo.t) = Coo.create ~dims ~crd ~vals in
    true
  | exception Matrix_market.Parse_error msg ->
    (match Scanf.sscanf_opt msg "line %d:" Fun.id with
     | Some n when n >= 1 -> true
     | _ -> QCheck2.Test.fail_reportf "unlabelled error %S" msg)

let mm_chars =
  [ '0'; '1'; '9'; '-'; '+'; '%'; ' '; '\t'; '\n'; '\r'; 'e'; '.'; 'x';
    '\000'; 'n' ]

let qcheck_mm_mutated =
  let gen =
    QCheck2.Gen.(
      let* seed = oneofl mm_seeds in
      let* kind = int_range 0 4 in
      let* at = float_range 0. 1. in
      let* ch = oneofl mm_chars in
      let* len = int_range 1 6 in
      pure (seed, kind, at, ch, len))
  in
  QCheck2.Test.make ~count:1000 ~name:"mutated mtx fails labelled" gen
    (fun (text, kind, at, ch, len) ->
      let n = String.length text in
      let pos = min (n - 1) (int_of_float (at *. float_of_int n)) in
      let stop = min n (pos + len) in
      let mutated =
        match kind with
        | 0 -> String.sub text 0 pos
        | 1 -> String.mapi (fun i c -> if i = pos then ch else c) text
        | 2 -> String.sub text 0 pos ^ String.sub text stop (n - stop)
        | 3 ->
          String.sub text 0 pos ^ String.make len ch
          ^ String.sub text pos (n - pos)
        | _ -> String.sub text 0 stop ^ String.sub text pos (n - pos)
      in
      labelled_only mutated)

let qcheck_mm_garbage =
  let gen =
    QCheck2.Gen.(
      let* prefix =
        oneofl ("" :: List.map (fun s -> String.sub s 0 50) mm_seeds)
      in
      let* tail = string_size ~gen:(oneofl mm_chars) (int_range 0 80) in
      pure (prefix ^ tail))
  in
  QCheck2.Test.make ~count:500 ~name:"garbage mtx fails labelled" gen
    labelled_only

(* --- Dense --------------------------------------------------------- *)

let test_dense () =
  let d = Dense.init [| 2; 3 |] (fun c -> float_of_int ((c.(0) * 3) + c.(1))) in
  check "get2" true (Dense.get2 d 1 2 = 5.);
  Dense.set2 d 1 2 9.;
  check "set2" true (Dense.get2 d 1 2 = 9.);
  let e = Dense.copy d in
  Dense.fill e 0.;
  check "copy independent" true (Dense.get2 d 1 2 = 9.);
  check "max_abs_diff" true (Dense.max_abs_diff d e = 9.)

(* --- Generator specs --------------------------------------------------- *)

module Generate = Asap_workloads.Generate

(* Digest of a generated tensor's shape, coordinates and value bits. *)
let coo_digest (c : Coo.t) =
  let b = Buffer.create 4096 in
  Array.iter (fun d -> Buffer.add_string b (string_of_int d ^ ";")) c.Coo.dims;
  Array.iter
    (fun a ->
      Array.iter (fun x -> Buffer.add_string b (string_of_int x ^ ",")) a;
      Buffer.add_char b '|')
    c.Coo.crd;
  Array.iter
    (fun v ->
      Buffer.add_string b (Int64.to_string (Int64.bits_of_float v) ^ ","))
    c.Coo.vals;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every generator family at two seeds, pinned bit for bit: seeds name
   matrices (cache fingerprints rely on it), so a generator rewrite must
   reproduce each entry order and value draw exactly. *)
let generator_digests =
  [ ("powerlaw:500,6@1", "902c2b7ab3aed1dfe4c6a5435405c23e");
    ("powerlaw:500,6@42", "238a5227135295f787b3e810214ffb1a");
    ("uniform:300,2000@1", "8b112d5a55e0047b8b4dd7bcccf10b62");
    ("uniform:300,2000@42", "b786cc9de6fcd4ecbf79b4e4a713256a");
    ("banded:200,3@1", "d6b5d9b9bb1249594b8bcf6125f117b5");
    ("banded:200,3@42", "14d466aef726ac4c9441de63f6a73805");
    ("road:400,4@1", "dc78eae5f3f705eb2001193854b128a1");
    ("road:400,4@42", "60924cd0f5931dd0cd9dd88a647161a0");
    ("stencil2d:12@1", "f8c2a7457f8c31f225be62b46863b0df");
    ("stencil2d:12@42", "966c47cd8695426e7bd319df91984c6f");
    ("stencil3d:6@1", "ab91c08c3932c0fe42721bcfa91956f1");
    ("stencil3d:6@42", "2226057ce044724b5ffcec796021eddd");
    ("fem:10,3,2@1", "2a736146bb0dfd4acecc3947b2ce4884");
    ("fem:10,3,2@42", "1965c9ef2ab9aa3eb0f6d3ae94d38240");
    ("heavytail:300,1500,4@1", "378ee343ba21b377b9b49e557f291e20");
    ("heavytail:300,1500,4@42", "2638f19c3c66f184619f5e98c47904f2");
    ("tensor3:20,15,10,800@1", "a7f596cf195ec36a9f559dbb71125f47");
    ("tensor3:20,15,10,800@42", "3259c52da75e64adae1233d67a0306aa") ]

let test_generator_digests () =
  List.iter
    (fun (spec, digest) ->
      match Generate.of_spec spec with
      | Ok c -> Alcotest.(check string) spec digest (coo_digest c)
      | Error e -> Alcotest.failf "%s: %s" spec e)
    generator_digests

(* Out-of-range arguments are labelled errors carrying the grammar, never
   an escaped exception or a degenerate matrix. *)
let test_generator_bad_specs () =
  List.iter
    (fun (spec, what) ->
      match Generate.of_spec spec with
      | Ok _ -> Alcotest.failf "%s accepted" spec
      | Error m ->
        check (spec ^ ": " ^ m) true
          (Astring_contains.contains m what
           && Astring_contains.contains m Generate.spec_grammar)
      | exception e ->
        Alcotest.failf "%s raised %s" spec (Printexc.to_string e))
    [ ("uniform:0,10", "n must be positive");
      ("uniform:10,-1", "nnz must be >= 0");
      ("powerlaw:-5,4", "n must be positive");
      ("powerlaw:50,-1", "deg must be >= 0");
      ("banded:0,2", "n must be positive");
      ("banded:10,-1", "band must be >= 0");
      ("road:0,3", "n must be positive");
      ("road:10,-3", "deg must be >= 0");
      ("stencil2d:-1", "side must be positive");
      ("stencil2d:0", "side must be positive");
      ("stencil3d:0", "side must be positive");
      ("fem:0,2,1", "nblocks must be positive");
      ("fem:3,0,1", "blk must be positive");
      ("fem:3,2,-1", "reach must be >= 0");
      ("heavytail:10,100,20", "hubs must be in (0, rows)");
      ("heavytail:10,100,10", "hubs must be in (0, rows)");
      ("heavytail:10,100,0", "hubs must be in (0, rows)");
      ("heavytail:0,100,1", "rows must be positive");
      ("heavytail:10,-1,2", "nnz must be >= 0");
      ("tensor3:0,2,2,5", "d1 must be positive");
      ("tensor3:2,2,0,5", "d3 must be positive");
      ("tensor3:2,2,2,-5", "nnz must be >= 0");
      ("uniform:10", "bad uniform spec") ];
  (* The boundaries themselves are valid. *)
  List.iter
    (fun spec ->
      check (spec ^ " accepted") true (Result.is_ok (Generate.of_spec spec)))
    [ "uniform:1,0"; "banded:1,0"; "stencil2d:1"; "heavytail:2,0,1";
      "fem:1,1,0"; "tensor3:1,1,1,0"; "road:1,0"; "powerlaw:1,0" ]

let suite =
  [ Alcotest.test_case "coo bounds" `Quick test_coo_create_bounds;
    Alcotest.test_case "coo sorted_dedup" `Quick test_coo_sorted_dedup;
    Alcotest.test_case "coo dedup perm" `Quick test_coo_sorted_dedup_perm;
    Alcotest.test_case "coo stats" `Quick test_coo_stats;
    QCheck_alcotest.to_alcotest qcheck_dedup_oracle;
    Alcotest.test_case "coo dedup edge shapes" `Quick test_dedup_edge_shapes;
    Alcotest.test_case "storage pack expected buffers" `Quick
      test_pack_expected;
    Alcotest.test_case "encoding validate" `Quick test_encoding_validate;
    Alcotest.test_case "encoding props" `Quick test_encoding_props;
    Alcotest.test_case "storage csr fig2" `Quick test_storage_csr_fig2;
    Alcotest.test_case "storage coo fig2" `Quick test_storage_coo_fig2;
    Alcotest.test_case "storage dcsr fig2" `Quick test_storage_dcsr_fig2;
    Alcotest.test_case "storage csc fig2" `Quick test_storage_csc_fig2;
    Alcotest.test_case "storage roundtrip" `Quick test_storage_roundtrip_all;
    Alcotest.test_case "storage convert" `Quick test_storage_convert;
    Alcotest.test_case "storage empty" `Quick test_storage_empty;
    Alcotest.test_case "storage footprint" `Quick test_storage_footprint;
    Alcotest.test_case "storage csf rank3" `Quick test_storage_csf_rank3;
    Alcotest.test_case "storage degenerate shapes" `Quick
      test_storage_single_row_col;
    Alcotest.test_case "storage full matrix" `Quick test_storage_full_matrix;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    Alcotest.test_case "coord tree fig2" `Quick test_coord_tree_shapes;
    Alcotest.test_case "matrix market roundtrip" `Quick test_mm_roundtrip;
    Alcotest.test_case "matrix market pattern" `Quick test_mm_pattern_symmetric;
    Alcotest.test_case "matrix market integer" `Quick
      test_mm_integer_and_comments;
    Alcotest.test_case "matrix market skew" `Quick test_mm_skew_symmetric;
    Alcotest.test_case "matrix market errors" `Quick test_mm_errors;
    Alcotest.test_case "matrix market crlf/whitespace" `Quick
      test_mm_crlf_and_whitespace;
    Alcotest.test_case "matrix market duplicates" `Quick
      test_mm_duplicate_rejected;
    Alcotest.test_case "matrix market labelled errors" `Quick
      test_mm_labelled_errors;
    Alcotest.test_case "matrix market generated roundtrip" `Quick
      test_mm_generated_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_mm_mutated;
    QCheck_alcotest.to_alcotest qcheck_mm_garbage;
    Alcotest.test_case "generator digests" `Quick test_generator_digests;
    Alcotest.test_case "generator bad specs" `Quick test_generator_bad_specs;
    Alcotest.test_case "dense tensor" `Quick test_dense ]
