(* Constant folding and algebraic simplification.

   Propagates compile-time-known integer and float values through pure
   operations, rewriting foldable [Let]s to constants and simplifying the
   identities that the emitter's generic code paths can produce
   (x*1, x+0, min(x,x), select over equal branches).

   Loads, loop-carried values and region arguments are unknown; the pass
   is a simple forward walk per region (values defined before a region are
   visible inside it). *)

open Ir

type known = K_int of int | K_float of float

type stats = { folded : int }

let run (fn : func) : func * stats =
  let known : (int, known) Hashtbl.t = Hashtbl.create 64 in
  let folded = ref 0 in
  let kint (v : value) =
    match Hashtbl.find_opt known v.vid with
    | Some (K_int i) -> Some i
    | Some (K_float _) | None -> None
  in
  let kfloat (v : value) =
    match Hashtbl.find_opt known v.vid with
    | Some (K_float f) -> Some f
    | Some (K_int _) | None -> None
  in
  let rewrite (v : value) (rv : rvalue) : rvalue =
    let keep = rv in
    let const_int i =
      incr folded;
      Hashtbl.replace known v.vid (K_int i);
      match v.vty with
      | Index -> Const (Cidx i)
      | I64 -> Const (Ci64 i)
      | I1 -> Const (Cbool (i <> 0))
      | F64 -> keep
    in
    match rv with
    | Const (Cidx i | Ci64 i) ->
      Hashtbl.replace known v.vid (K_int i);
      keep
    | Const (Cbool bo) ->
      Hashtbl.replace known v.vid (K_int (if bo then 1 else 0));
      keep
    | Const (Cf64 f) ->
      Hashtbl.replace known v.vid (K_float f);
      keep
    | Ibin (op, a, c) ->
      (match (kint a, kint c, op) with
       | Some x, Some y, _ ->
         (match op with
          | Iadd -> const_int (x + y)
          | Isub -> const_int (x - y)
          | Imul -> const_int (x * y)
          | Idiv when y <> 0 -> const_int (x / y)
          | Irem when y <> 0 -> const_int (x mod y)
          | Imin -> const_int (min x y)
          | Imax -> const_int (max x y)
          | Iand -> const_int (x land y)
          | Ior -> const_int (x lor y)
          | Ixor -> const_int (x lxor y)
          | Ishl -> const_int (x lsl y)
          | Idiv | Irem -> keep)
       | _, Some 0, (Iadd | Isub | Ior | Ixor | Ishl) ->
         incr folded;
         Cast (v.vty, a)
       | Some 0, _, (Iadd | Ior | Ixor) ->
         incr folded;
         Cast (v.vty, c)
       | _, Some 1, Imul -> incr folded; Cast (v.vty, a)
       | Some 1, _, Imul -> incr folded; Cast (v.vty, c)
       | _, Some 0, Imul | Some 0, _, (Imul | Iand) -> const_int 0
       | _ -> keep)
    | Fbin (op, a, c) ->
      (match (kfloat a, kfloat c) with
       | Some x, Some y ->
         let r =
           match op with
           | Fadd -> x +. y
           | Fsub -> x -. y
           | Fmul -> x *. y
           | Fdiv -> x /. y
           | Fmin -> Float.min x y
           | Fmax -> Float.max x y
         in
         incr folded;
         Hashtbl.replace known v.vid (K_float r);
         Const (Cf64 r)
       | _ -> keep)
    | Icmp (pred, a, c) ->
      (match (kint a, kint c) with
       | Some x, Some y ->
         let r =
           match pred with
           | Eq -> x = y
           | Ne -> x <> y
           | Ult | Slt -> x < y
           | Ule | Sle -> x <= y
           | Ugt | Sgt -> x > y
           | Uge | Sge -> x >= y
         in
         const_int (if r then 1 else 0)
       | _ when a.vid = c.vid ->
         (match pred with
          | Eq | Ule | Uge | Sle | Sge -> const_int 1
          | Ne | Ult | Ugt | Slt | Sgt -> const_int 0)
       | _ -> keep)
    | Select (cnd, a, c) ->
      (match kint cnd with
       | Some 0 -> incr folded; Cast (v.vty, c)
       | Some _ -> incr folded; Cast (v.vty, a)
       | None -> if a.vid = c.vid then (incr folded; Cast (v.vty, a)) else keep)
    | Cast (_, a) ->
      (match Hashtbl.find_opt known a.vid with
       | Some k -> Hashtbl.replace known v.vid k; keep
       | None -> keep)
    | Load _ | Dim _ -> keep
  in
  let fold = function
    | Let (v, rv) -> [ Let (v, rewrite v rv) ]
    | s -> [ s ]
  in
  let fn' = { fn with fn_body = Rewrite.walk fold fn.fn_body } in
  (match Verify.check_result fn' with
   | Ok () -> ()
   | Error m -> invalid_arg ("fold: broke the IR: " ^ m));
  (fn', { folded = !folded })
