(* Tests for the IR: builder, verifier, printer, rewrite utilities. *)

open Asap_ir

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* A tiny valid function: out[i] = in[i] + 1.0 for i in 0..n. *)
let sample_fn () =
  let b = Builder.create () in
  let src = Builder.buf b "src" Ir.EF64 in
  let dst = Builder.buf b "dst" Ir.EF64 in
  let n = Builder.scalar_param b "n" Ir.Index in
  let c0 = Builder.index b 0 in
  let one = Builder.f64 b 1.0 in
  Builder.for0 b "i" c0 n (fun i ->
      let x = Builder.load b src i in
      let y = Builder.fadd b x one in
      Builder.store b dst i y);
  Builder.finish b "incr"

let test_builder_basic () =
  let fn = sample_fn () in
  check_int "params" 3 (List.length fn.Ir.fn_params);
  let c = Ir.counts fn in
  check_int "fors" 1 c.Ir.n_fors;
  check_int "stores" 1 c.Ir.n_stores;
  check "verifies" true (Verify.check_result fn = Ok ())

let test_builder_type_errors () =
  let b = Builder.create () in
  let src = Builder.buf b "src" Ir.EF64 in
  let c0 = Builder.index b 0 in
  let x = Builder.load b src c0 in
  (* f64 + index must be rejected. *)
  (try
     let (_ : Ir.value) = Builder.iadd b x c0 in
     Alcotest.fail "expected Type_error"
   with Builder.Type_error _ -> ());
  (* store of index into f64 buffer must be rejected. *)
  (try
     Builder.store b src c0 c0;
     Alcotest.fail "expected Type_error"
   with Builder.Type_error _ -> ())

let test_builder_const_cache () =
  let b = Builder.create () in
  let c1 = Builder.index b 1 in
  let c1' = Builder.index b 1 in
  check "constants cached" true (c1 == c1');
  let dst = Builder.buf b "dst" Ir.EIdx32 in
  (* Constants requested inside regions still come from the entry block. *)
  Builder.for0 b "i" (Builder.index b 0) c1 (fun i ->
      let c1'' = Builder.index b 1 in
      check "cached inside region" true (c1 == c1'');
      Builder.store b dst i c1'');
  let fn = Builder.finish b "c" in
  check "verifies" true (Verify.check_result fn = Ok ())

let test_for_carried () =
  let b = Builder.create () in
  let n = Builder.scalar_param b "n" Ir.Index in
  let dst = Builder.buf b "dst" Ir.EF64 in
  let c0 = Builder.index b 0 in
  let z = Builder.f64 b 0. in
  let results =
    Builder.for_ b ~carried:[ ("acc", Ir.F64, z) ] "i" c0 n (fun _i args ->
        [ Builder.fadd b (List.hd args) (Builder.f64 b 1.) ])
  in
  Builder.store b dst c0 (List.hd results);
  let fn = Builder.finish b "sum" in
  check "verifies" true (Verify.check_result fn = Ok ())

let test_while_carried () =
  let b = Builder.create () in
  let n = Builder.scalar_param b "n" Ir.Index in
  let c0 = Builder.index b 0 in
  let c1 = Builder.index b 1 in
  let results =
    Builder.while_ b
      [ ("i", Ir.Index, c0) ]
      (fun args -> Builder.icmp b Ir.Ult (List.hd args) n)
      (fun args -> [ Builder.iadd b (List.hd args) c1 ])
  in
  check_int "one result" 1 (List.length results);
  let fn = Builder.finish b "count" in
  check "verifies" true (Verify.check_result fn = Ok ())

let test_verify_rejects_out_of_scope () =
  (* Hand-build a function using a loop-local value after the loop. *)
  let b = Builder.create () in
  let n = Builder.scalar_param b "n" Ir.Index in
  let dst = Builder.buf b "dst" Ir.EIdx32 in
  let c0 = Builder.index b 0 in
  let leaked = ref c0 in
  Builder.for0 b "i" c0 n (fun i ->
      leaked := Builder.iadd b i i;
      Builder.store b dst c0 i);
  Builder.store b dst c0 !leaked;
  let fn = Builder.finish b "bad" in
  match Verify.check_result fn with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier accepted out-of-scope use"

let test_verify_rejects_double_def () =
  let v = { Ir.vid = 0; vname = "x"; vty = Ir.Index } in
  let fn =
    { Ir.fn_name = "dup"; fn_params = [];
      fn_body =
        [ Ir.Let (v, Ir.Const (Ir.Cidx 1)); Ir.Let (v, Ir.Const (Ir.Cidx 2)) ];
      fn_nvalues = 1; fn_nbufs = 0 }
  in
  match Verify.check_result fn with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier accepted double definition"

let test_verify_rejects_bad_yield () =
  let iv = { Ir.vid = 0; vname = "i"; vty = Ir.Index } in
  let lo = { Ir.vid = 1; vname = "lo"; vty = Ir.Index } in
  let arg = { Ir.vid = 2; vname = "a"; vty = Ir.F64 } in
  let fn =
    { Ir.fn_name = "badyield"; fn_params = [];
      fn_body =
        [ Ir.Let (lo, Ir.Const (Ir.Cidx 0));
          Ir.For
            { Ir.f_iv = iv; f_lo = lo; f_hi = lo; f_step = lo;
              f_carried = [ (arg, lo) ];   (* f64 arg, index init: invalid *)
              f_results = []; f_body = []; f_yield = [ arg ]; f_tag = "" } ];
      fn_nvalues = 3; fn_nbufs = 0 }
  in
  match Verify.check_result fn with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier accepted mistyped iter_arg"

let test_printer_mentions_ops () =
  let fn = sample_fn () in
  let s = Printer.to_string fn in
  List.iter
    (fun frag ->
      check ("printer contains " ^ frag) true
        (Astring_contains.contains s frag))
    [ "func.func @incr"; "scf.for"; "memref.load"; "memref.store";
      "arith.addf" ]

let test_printer_unique_names () =
  (* Two sibling loops with identically-named locals must print uniquely. *)
  let b = Builder.create () in
  let n = Builder.scalar_param b "n" Ir.Index in
  let dst = Builder.buf b "dst" Ir.EIdx32 in
  let c0 = Builder.index b 0 in
  let mk () =
    Builder.for0 b "i" c0 n (fun i ->
        let x = Builder.let_ b "x" Ir.Index (Ir.Ibin (Ir.Iadd, i, i)) in
        Builder.store b dst i x)
  in
  mk ();
  mk ();
  let fn = Builder.finish b "two" in
  let s = Printer.to_string fn in
  (* The second loop's %x must have been renamed. *)
  check "renamed duplicate" true (Astring_contains.contains s "%x_")

let test_rewrite_uses_and_legality () =
  let fn = sample_fn () in
  (* Loop bounds and step, then load i, fadd x one, store i y. *)
  let uses = ref 0 in
  Rewrite.iter_uses (fun _ -> incr uses) fn.Ir.fn_body;
  check_int "uses" 8 !uses;
  let renamed =
    Rewrite.map_uses
      (fun v -> if v.Ir.vname = "n" then { v with Ir.vname = "m" } else v)
      fn.Ir.fn_body
  in
  (match List.rev renamed with
   | Ir.For f :: _ -> check_str "bound renamed" "m" f.Ir.f_hi.Ir.vname
   | _ -> Alcotest.fail "unexpected shape");
  check "has_loop" true (Rewrite.has_loop fn.Ir.fn_body);
  check "contains_for" true (Rewrite.contains_for fn.Ir.fn_body);
  (* A while loop is a loop, but not an Ainsworth & Jones inner loop. *)
  let b = Builder.create () in
  let n = Builder.scalar_param b "n" Ir.Index in
  let dst = Builder.buf b "dst" Ir.EIdx32 in
  let c0 = Builder.index b 0 in
  let (_ : Ir.value list) =
    Builder.while_ b [ ("k", Ir.Index, c0) ]
      (fun args -> Builder.icmp b Ir.Ult (List.hd args) n)
      (fun args ->
        Builder.store b dst c0 (List.hd args);
        [ Builder.iadd b (List.hd args) (Builder.index b 1) ])
  in
  let w = (Builder.finish b "w").Ir.fn_body in
  check "while has_loop" true (Rewrite.has_loop w);
  check "while not contains_for" false (Rewrite.contains_for w);
  let x = { Ir.vid = 0; vname = "x"; vty = Ir.Index } in
  check "pure add" true (Rewrite.pure (Ir.Ibin (Ir.Iadd, x, x)));
  check "div traps" false (Rewrite.pure (Ir.Ibin (Ir.Idiv, x, x)));
  check "rem traps" false (Rewrite.pure (Ir.Ibin (Ir.Irem, x, x)));
  check_int "select operands" 3
    (List.length (Rewrite.operands (Ir.Select (x, x, x))))

let test_rewrite_clone_and_walk () =
  let fn = sample_fn () in
  let f =
    match List.rev fn.Ir.fn_body with
    | Ir.For f :: _ -> f
    | _ -> Alcotest.fail "no loop"
  in
  (* Clone the body with i bound to a new value: every definition gets a
     fresh id past fn_nvalues, uses follow the substitution. *)
  let s = Rewrite.supply fn in
  let i' = Rewrite.fresh_like s f.Ir.f_iv in
  let sub = Hashtbl.create 8 in
  Hashtbl.replace sub f.Ir.f_iv.Ir.vid i';
  let body = Rewrite.clone_block s sub f.Ir.f_body in
  (match body with
   | [ Ir.Let (x, Ir.Load (_, idx)); Ir.Let (y, _); Ir.Store (_, si, sv) ] ->
     check "load reads i'" true (idx == i');
     check "store index i'" true (si == i');
     check "store value is the copy" true (sv == y);
     check "fresh ids" true
       (x.Ir.vid >= fn.Ir.fn_nvalues && y.Ir.vid = x.Ir.vid + 1)
   | _ -> Alcotest.fail "unexpected clone");
  check_int "supply advanced" (fn.Ir.fn_nvalues + 3)
    (Rewrite.with_supply fn s).Ir.fn_nvalues;
  (* walk is post-order: an inner loop is seen before its parent. *)
  let b = Builder.create () in
  let n = Builder.scalar_param b "n" Ir.Index in
  let dst = Builder.buf b "dst" Ir.EIdx32 in
  let c0 = Builder.index b 0 in
  Builder.for0 b "i" c0 n (fun i ->
      Builder.for0 b "j" c0 n (fun j ->
          let s = Builder.iadd b i j in
          Builder.store b dst j s));
  let nest = Builder.finish b "nest" in
  let seen = ref [] in
  let (_ : Ir.block) =
    Rewrite.walk
      (fun st ->
        (match st with
         | Ir.For fl -> seen := fl.Ir.f_iv.Ir.vname :: !seen
         | _ -> ());
        [ st ])
      nest.Ir.fn_body
  in
  check "inner first" true (List.rev !seen = [ "j"; "i" ])

let test_counts () =
  let fn = sample_fn () in
  let c = Ir.counts fn in
  (* consts c0 and 1.0, load, fadd inside the loop. *)
  check_int "lets" 5 c.Ir.n_lets;
  check_int "prefetches" 0 c.Ir.n_prefetches

let test_licm_hoists_invariant () =
  let b = Builder.create () in
  let dst = Builder.buf b "dst" Ir.EIdx32 in
  let n = Builder.scalar_param b "n" Ir.Index in
  let m = Builder.scalar_param b "m" Ir.Index in
  let c0 = Builder.index b 0 in
  Builder.for0 b "i" c0 n (fun i ->
      (* n * m is invariant; i + inv is not; the store pins the loop. *)
      let inv = Builder.imul b n m in
      let x = Builder.iadd b i inv in
      Builder.store b dst i x);
  let fn = Builder.finish b "f" in
  let fn', st = Licm.run fn in
  check_int "hoisted one" 1 st.Licm.hoisted;
  (* The multiply now precedes the loop at the top level. *)
  let top_muls =
    List.length
      (List.filter
         (function Ir.Let (_, Ir.Ibin (Ir.Imul, _, _)) -> true | _ -> false)
         fn'.Ir.fn_body)
  in
  check_int "mul at top" 1 top_muls;
  check "still verifies" true (Verify.check_result fn' = Ok ())

let test_licm_leaves_loads () =
  (* src[0] is loop-invariant but loads may alias the store. *)
  let load_case () =
    let b = Builder.create () in
    let src = Builder.buf b "src" Ir.EF64 in
    let dst = Builder.buf b "dst" Ir.EF64 in
    let n = Builder.scalar_param b "n" Ir.Index in
    let c0 = Builder.index b 0 in
    Builder.for0 b "i" c0 n (fun i ->
        let x = Builder.load b src c0 in
        Builder.store b dst i x);
    Builder.finish b "f"
  in
  (* p / z is loop-invariant, but with n = 0 and z = 0 the loop never
     divides: hoisting it would trap where the original runs cleanly. *)
  let div_case () =
    let b = Builder.create () in
    let dst = Builder.buf b "dst" Ir.EIdx32 in
    let n = Builder.scalar_param b "n" Ir.Index in
    let p = Builder.scalar_param b "p" Ir.Index in
    let z = Builder.scalar_param b "z" Ir.Index in
    let c0 = Builder.index b 0 in
    Builder.for0 b "i" c0 n (fun i ->
        let q = Builder.let_ b "q" Ir.Index (Ir.Ibin (Ir.Idiv, p, z)) in
        Builder.store b dst i q);
    Builder.finish b "f"
  in
  List.iter
    (fun (name, mk) ->
      let _, st = Licm.run (mk ()) in
      check_int (name ^ " stays") 0 st.Licm.hoisted)
    [ ("load", load_case); ("zero-trip div", div_case) ]

let test_licm_chain () =
  (* A chain of invariants hoists together. *)
  let b = Builder.create () in
  let dst = Builder.buf b "dst" Ir.EIdx32 in
  let n = Builder.scalar_param b "n" Ir.Index in
  let c0 = Builder.index b 0 in
  Builder.for0 b "i" c0 n (fun i ->
      let a = Builder.iadd b n n in
      let bb = Builder.imul b a n in
      let x = Builder.iadd b i bb in
      Builder.store b dst i x);
  let fn = Builder.finish b "f" in
  let _, st = Licm.run fn in
  check_int "both hoisted" 2 st.Licm.hoisted

let test_fold_arith () =
  let b = Builder.create () in
  let dst = Builder.buf b "dst" Ir.EIdx32 in
  let c3 = Builder.index b 3 in
  let c4 = Builder.index b 4 in
  let s = Builder.iadd b c3 c4 in
  let p = Builder.imul b s (Builder.index b 2) in
  Builder.store b dst (Builder.index b 0) p;
  let fn = Builder.finish b "f" in
  let fn', st = Fold.run fn in
  check "folded some" true (st.Fold.folded >= 2);
  (* The product is now a constant 14. *)
  let has_c14 =
    List.exists
      (function Ir.Let (_, Ir.Const (Ir.Cidx 14)) -> true | _ -> false)
      fn'.Ir.fn_body
  in
  check "constant 14" true has_c14

let test_fold_identities () =
  let b = Builder.create () in
  let dst = Builder.buf b "dst" Ir.EIdx32 in
  let n = Builder.scalar_param b "n" Ir.Index in
  let c0 = Builder.index b 0 in
  let c1 = Builder.index b 1 in
  let x1 = Builder.imul b n c1 in        (* n * 1 -> n *)
  let x2 = Builder.iadd b x1 c0 in       (* x + 0 -> x *)
  Builder.store b dst c0 x2;
  let fn = Builder.finish b "f" in
  let _, st = Fold.run fn in
  check_int "two identities" 2 st.Fold.folded

let test_fold_cmp_select () =
  let b = Builder.create () in
  let dst = Builder.buf b "dst" Ir.EIdx32 in
  let n = Builder.scalar_param b "n" Ir.Index in
  let c0 = Builder.index b 0 in
  let t = Builder.icmp b Ir.Ule n n in   (* always true *)
  let s = Builder.select b t n c0 in     (* select true -> n *)
  Builder.store b dst c0 s;
  let fn = Builder.finish b "f" in
  let _, st = Fold.run fn in
  check "cmp+select folded" true (st.Fold.folded >= 2)

(* --- Printer/Parse round-trip and malformed-input fuzzing ------------

   Random well-typed functions — expression trees over loads, the scalar
   parameter and loop induction variables, under random combinations of
   counted loops, carried accumulators, while loops and branches — must
   print, parse back alpha-equal, and reprint byte-identically.  Random
   mutations of valid listings and raw garbage must produce a labelled
   {!Parse.Error} (1-based line:col) or a clean [Result.Error]: never an
   unlabelled exception. *)

type ix =
  | XLit of int
  | XParam
  | XIv of int                       (* induction var, innermost first *)
  | XBin of Ir.ibinop * ix * ix
  | XSel of Ir.icmp * ix * ix        (* select (a cmp b) a b *)

type rfn_plan = {
  pl_expr : ix;
  pl_loops : int;        (* 0-2 nested counted loops around the store *)
  pl_carried : bool;     (* a carried-accumulator loop *)
  pl_wloop : bool;       (* a while loop *)
  pl_branch : bool;      (* store under scf.if *)
  pl_float : bool;       (* float load/add chain vs pure index store *)
}

let gen_ix =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ map (fun i -> XLit i) (int_range 0 9);
                 pure XParam;
                 map (fun k -> XIv k) (int_range 0 2) ]
           in
           if n = 0 then leaf
           else
             frequency
               [ (2, leaf);
                 ( 4,
                   let* op =
                     oneofl
                       [ Ir.Iadd; Ir.Isub; Ir.Imul; Ir.Imin; Ir.Imax;
                         Ir.Iand; Ir.Ior; Ir.Ixor ]
                   in
                   let* a = self (n / 2) in
                   let* b = self (n / 2) in
                   pure (XBin (op, a, b)) );
                 ( 1,
                   let* cmp =
                     oneofl [ Ir.Eq; Ir.Ne; Ir.Ult; Ir.Ule; Ir.Slt; Ir.Sge ]
                   in
                   let* a = self (n / 2) in
                   let* b = self (n / 2) in
                   pure (XSel (cmp, a, b)) ) ]))

let gen_rfn_plan =
  QCheck2.Gen.(
    let* pl_expr = gen_ix in
    let* pl_loops = int_range 0 2 in
    let* pl_carried = bool in
    let* pl_wloop = bool in
    let* pl_branch = bool in
    let* pl_float = bool in
    pure { pl_expr; pl_loops; pl_carried; pl_wloop; pl_branch; pl_float })

let build_rfn (p : rfn_plan) : Ir.func =
  let b = Builder.create () in
  let src = Builder.buf b "src" Ir.EF64 in
  let out = Builder.buf b "out" Ir.EF64 in
  let iout = Builder.buf b "iout" Ir.EIdx64 in
  let n = Builder.scalar_param b "n" Ir.Index in
  let c0 = Builder.index b 0 in
  let c1 = Builder.index b 1 in
  let rec bx ivs = function
    | XLit i -> Builder.index b i
    | XParam -> n
    | XIv k ->
      (match ivs with [] -> n | _ -> List.nth ivs (k mod List.length ivs))
    | XBin (op, a, c) -> Builder.ibin b op (bx ivs a) (bx ivs c)
    | XSel (cmp, a, c) ->
      let va = bx ivs a and vc = bx ivs c in
      Builder.select b (Builder.icmp b cmp va vc) va vc
  in
  let body ivs =
    let idx = bx ivs p.pl_expr in
    if p.pl_float then begin
      let x = Builder.load b src idx in
      Builder.store b out idx (Builder.fadd b x (Builder.f64 b 0.5))
    end
    else Builder.store b iout idx idx
  in
  if p.pl_carried then begin
    let fin =
      Builder.for_ b "k" c0 n
        ~carried:[ ("acc", Ir.Index, c0) ]
        (fun k args -> [ Builder.iadd b (List.hd args) k ])
    in
    Builder.store b iout c0 (List.hd fin)
  end;
  if p.pl_wloop then begin
    let ws =
      Builder.while_ b
        [ ("w", Ir.Index, n) ]
        (fun args -> Builder.icmp b Ir.Sgt (List.hd args) c0)
        (fun args -> [ Builder.isub b (List.hd args) c1 ])
    in
    Builder.store b iout c1 (List.hd ws)
  end;
  let rec nest d ivs =
    if d = 0 then begin
      if p.pl_branch then
        Builder.if_ b
          (Builder.icmp b Ir.Ult n (Builder.index b 7))
          (fun () -> body ivs)
          (fun () -> body ivs)
      else body ivs
    end
    else
      Builder.for0 b (Printf.sprintf "i%d" d) c0 n (fun iv ->
          nest (d - 1) (iv :: ivs))
  in
  nest p.pl_loops [];
  Builder.finish b "fuzz"

let qcheck_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"random funcs round-trip alpha-equal"
    gen_rfn_plan (fun p ->
      let fn = build_rfn p in
      let text = Printer.to_string fn in
      match Parse.func_result text with
      | Error m -> QCheck2.Test.fail_reportf "no parse: %s" m
      | Ok fn2 ->
        Printer.to_string fn2 = text && Parse.equal_func fn2 fn)

(* A mutation never produces an unlabelled exception: [func] may raise
   only [Parse.Error] with 1-based coordinates, [func_result] never
   raises and formats the position as "line:col: ". *)
let labelled_failure_only text =
  (match Parse.func text with
   | (_ : Ir.func) -> ()
   | exception Parse.Error { line; col; msg = _ } ->
     if line < 1 || col < 1 then
       QCheck2.Test.fail_reportf "non-positive error position %d:%d" line col
   | exception Invalid_argument _ -> ()
     (* the verifier label for structurally bad but parseable text *));
  match Parse.func_result text with
  | Ok (_ : Ir.func) -> true
  | Error m -> String.length m > 0

let gen_mutation =
  QCheck2.Gen.(
    let* plan = gen_rfn_plan in
    let* kind = int_range 0 3 in
    let* at = float_range 0. 1. in
    let* ch = oneofl [ '%'; '('; ')'; '{'; '}'; '='; ':'; ','; '@'; 'x'; '9' ] in
    pure (plan, kind, at, ch))

let qcheck_mutated_listing =
  QCheck2.Test.make ~count:300 ~name:"mutated listings fail labelled"
    gen_mutation (fun (plan, kind, at, ch) ->
      let text = Printer.to_string (build_rfn plan) in
      let n = String.length text in
      let pos = min (n - 1) (int_of_float (at *. float_of_int n)) in
      let mutated =
        match kind with
        | 0 -> String.sub text 0 pos                       (* truncate *)
        | 1 ->                                             (* flip a char *)
          String.mapi (fun i c -> if i = pos then ch else c) text
        | 2 ->                                             (* delete a span *)
          String.sub text 0 pos
          ^ String.sub text (min n (pos + 5)) (n - min n (pos + 5))
        | _ ->                                             (* insert a token *)
          String.sub text 0 pos ^ String.make 3 ch
          ^ String.sub text pos (n - pos)
      in
      labelled_failure_only mutated)

let qcheck_garbage =
  QCheck2.Test.make ~count:300 ~name:"garbage input fails labelled"
    QCheck2.Gen.(string_size ~gen:(oneofl
      [ 'f'; 'u'; 'n'; 'c'; '.'; '%'; '('; ')'; '{'; '}'; '=' ; ':'; ',';
        '<'; '>'; 'x'; 'i'; '6'; '4'; ' '; '\n'; '"'; '-' ]) (int_range 0 80))
    labelled_failure_only

let suite =
  [ Alcotest.test_case "builder basic" `Quick test_builder_basic;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_mutated_listing;
    QCheck_alcotest.to_alcotest qcheck_garbage;
    Alcotest.test_case "licm hoists invariants" `Quick
      test_licm_hoists_invariant;
    Alcotest.test_case "licm keeps loads" `Quick test_licm_leaves_loads;
    Alcotest.test_case "licm chains" `Quick test_licm_chain;
    Alcotest.test_case "fold arith" `Quick test_fold_arith;
    Alcotest.test_case "fold identities" `Quick test_fold_identities;
    Alcotest.test_case "fold cmp/select" `Quick test_fold_cmp_select;
    Alcotest.test_case "builder type errors" `Quick test_builder_type_errors;
    Alcotest.test_case "const cache" `Quick test_builder_const_cache;
    Alcotest.test_case "for iter_args" `Quick test_for_carried;
    Alcotest.test_case "while carried" `Quick test_while_carried;
    Alcotest.test_case "verify out-of-scope" `Quick
      test_verify_rejects_out_of_scope;
    Alcotest.test_case "verify double def" `Quick test_verify_rejects_double_def;
    Alcotest.test_case "verify bad yield" `Quick test_verify_rejects_bad_yield;
    Alcotest.test_case "printer ops" `Quick test_printer_mentions_ops;
    Alcotest.test_case "printer unique names" `Quick test_printer_unique_names;
    Alcotest.test_case "rewrite uses and legality tests" `Quick
      test_rewrite_uses_and_legality;
    Alcotest.test_case "rewrite clone and walk" `Quick
      test_rewrite_clone_and_walk;
    Alcotest.test_case "counts" `Quick test_counts ]
