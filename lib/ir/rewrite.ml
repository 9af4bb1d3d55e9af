(* The IR rewriting kit (see rewrite.mli).

   Regions are rebuilt in scope order (a while condition before the body
   that can use its values), except that an if's else branch goes before
   its then branch: that is the order the passes have always minted fresh
   ids in, and the printer suffixes duplicate names with their id, so
   keeping it keeps listings byte-stable. *)

open Ir

(* --- Value supply ---------------------------------------------------- *)

type supply = { mutable next : int }

let supply (fn : func) = { next = fn.fn_nvalues }

let fresh (s : supply) name ty =
  let v = { vid = s.next; vname = name; vty = ty } in
  s.next <- s.next + 1;
  v

let fresh_like s (v : value) = fresh s v.vname v.vty

let with_supply (fn : func) (s : supply) = { fn with fn_nvalues = s.next }

(* --- Uses ------------------------------------------------------------ *)

let operands = function
  | Const _ | Dim _ -> []
  | Ibin (_, a, b) | Fbin (_, a, b) | Icmp (_, a, b) -> [ a; b ]
  | Select (a, b, c) -> [ a; b; c ]
  | Load (_, i) -> [ i ]
  | Cast (_, a) -> [ a ]

let map_rvalue use = function
  | (Const _ | Dim _) as r -> r
  | Ibin (op, a, b) -> Ibin (op, use a, use b)
  | Fbin (op, a, b) -> Fbin (op, use a, use b)
  | Icmp (p, a, b) -> Icmp (p, use a, use b)
  | Select (c, a, b) -> Select (use c, use a, use b)
  | Load (buf, i) -> Load (buf, use i)
  | Cast (ty, a) -> Cast (ty, use a)

(* Uses in scope before a region (bounds, inits) are rewritten before it;
   uses defined inside it (yields, the condition value) after, so a [use]
   that learns from [blk] sees what [blk] did. *)
let map_stmt use blk = function
  | Let (v, rv) -> Let (v, map_rvalue use rv)
  | Store (buf, i, x) -> Store (buf, use i, use x)
  | Prefetch p -> Prefetch { p with pidx = use p.pidx }
  | For f ->
    let f_lo = use f.f_lo and f_hi = use f.f_hi and f_step = use f.f_step in
    let f_carried = List.map (fun (arg, init) -> (arg, use init)) f.f_carried in
    let f_body = blk f.f_body in
    let f_yield = List.map use f.f_yield in
    For { f with f_lo; f_hi; f_step; f_carried; f_body; f_yield }
  | While w ->
    let w_carried = List.map (fun (arg, init) -> (arg, use init)) w.w_carried in
    let w_cond = blk w.w_cond in
    let w_body = blk w.w_body in
    let w_cond_v = use w.w_cond_v and w_yield = List.map use w.w_yield in
    While { w with w_carried; w_cond; w_cond_v; w_body; w_yield }
  | If (c, t, e) ->
    let c = use c in
    let e = blk e in
    If (c, blk t, e)

let rec map_uses use b = List.map (map_stmt use (map_uses use)) b

let iter_uses f b = ignore (map_uses (fun v -> f v; v) b)

(* --- Cloning --------------------------------------------------------- *)

let clone_block s ?(outer = Fun.id) (sub : (int, value) Hashtbl.t) b =
  let use (v : value) =
    match Hashtbl.find_opt sub v.vid with Some v' -> v' | None -> outer v
  in
  let def (v : value) =
    let v' = fresh_like s v in
    Hashtbl.replace sub v.vid v';
    v'
  in
  (* Inits are uses from outside the region, the arguments definitions. *)
  let carried cs =
    let inits = List.map (fun (_, init) -> use init) cs in
    List.map2 (fun (arg, _) init -> (def arg, init)) cs inits
  in
  let rec go b = List.map stmt b
  and stmt = function
    | Let (v, rv) ->
      let rv = map_rvalue use rv in
      Let (def v, rv)
    | (Store _ | Prefetch _ | If _) as st -> map_stmt use go st
    | For f ->
      let f_lo = use f.f_lo and f_hi = use f.f_hi and f_step = use f.f_step in
      let f_iv = def f.f_iv in
      let f_carried = carried f.f_carried in
      let f_body = go f.f_body in
      let f_yield = List.map use f.f_yield in
      let f_results = List.map def f.f_results in
      For { f with f_iv; f_lo; f_hi; f_step; f_carried; f_body; f_yield;
                   f_results }
    | While w ->
      let w_carried = carried w.w_carried in
      let w_cond = go w.w_cond in
      let w_cond_v = use w.w_cond_v in
      let w_body = go w.w_body in
      let w_yield = List.map use w.w_yield in
      let w_results = List.map def w.w_results in
      While { w with w_carried; w_cond; w_cond_v; w_body; w_yield; w_results }
  in
  go b

let rename sub (v : value) =
  match Hashtbl.find_opt sub v.vid with Some v' -> v' | None -> v

(* --- Walking --------------------------------------------------------- *)

let rec walk f b = List.concat_map (fun s -> f (map_stmt Fun.id (walk f) s)) b

(* --- Legality tests -------------------------------------------------- *)

let rec has_loop b =
  List.exists
    (function
      | For _ | While _ -> true
      | If (_, t, e) -> has_loop t || has_loop e
      | Let _ | Store _ | Prefetch _ -> false)
    b

let rec contains_for (b : block) =
  List.exists
    (function
      | For _ -> true
      | While w -> contains_for w.w_cond || contains_for w.w_body
      | If (_, th, el) -> contains_for th || contains_for el
      | Let _ | Store _ | Prefetch _ -> false)
    b

let pure = function
  | Load _ | Ibin ((Idiv | Irem), _, _) -> false
  | Const _ | Ibin _ | Fbin _ | Icmp _ | Select _ | Dim _ | Cast _ -> true
