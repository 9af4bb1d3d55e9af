(* Ainsworth & Jones (CGO'17 / TOCS'18) software prefetching, as a post-hoc
   low-level IR pass — the prior-art baseline of the paper.

   The pass sees only the generated IR, with no sparse-tensor semantics. It
   scans *innermost* counted loops for the classic indirection pattern

       %j = memref.load %crd[%iv]        (iv = the loop induction variable)
       ... memref.load %target[%j] ...

   and injects the same three-step sequence as ASaP, but with the two
   limitations the paper identifies (§3.2.2, §5.3):

   - the step-2 bound is derived by use-def analysis from the enclosing
     loop's upper limit, i.e. it is *segment-local*: the lookahead clamps at
     the end of the current inner loop, so the first [distance] elements of
     every segment are never covered; and
   - only the innermost loop's induction variable is considered, so
     multi-dimensional accesses like SpMM's C[j*N + k] (where j is loaded in
     an enclosing loop) produce no prefetches at all — the published
     artifact behaves the same way.

   Loop-invariant pieces (constants, the hi-1 bound) are hoisted out of the
   loop, as LLVM's LICM would do in the real compilation flow, so the
   per-iteration overhead matches ASaP's. *)

open Asap_ir

type config = { distance : int; locality : int }

let default = { distance = 45; locality = 2 }

type stats = { matched_sites : int; loops_scanned : int }

(* A candidate coordinate: an index-typed value loaded from some buffer at
   the loop's induction variable. *)
let candidates (fl : Ir.forloop) =
  List.filter_map
    (function
      | Ir.Let (v, Ir.Load (crd, idx))
        when idx.Ir.vid = fl.Ir.f_iv.Ir.vid && v.Ir.vty = Ir.Index ->
        Some (v, crd)
      | _ -> None)
    fl.Ir.f_body

(* Buffers loaded at a given candidate value anywhere in the loop body
   (top level: the emitter generates flat innermost bodies). *)
let targets_of (fl : Ir.forloop) (v : Ir.value) =
  List.filter_map
    (function
      | Ir.Let (_, Ir.Load (tgt, idx)) when idx.Ir.vid = v.Ir.vid -> Some tgt
      | _ -> None)
    fl.Ir.f_body

type shared = { c2d : Ir.value; cd : Ir.value; c1 : Ir.value }

let inject supply (cfg : config) (sh : shared) (fl : Ir.forloop)
    (bound : Ir.value) (matches : (Ir.value * Ir.buffer * Ir.buffer list) list)
    =
  let fresh name = Rewrite.fresh supply name Ir.Index in
  let body =
    List.concat_map
      (fun stmt ->
        match stmt with
        | Ir.Let (v, Ir.Load (_, _))
          when List.exists (fun (c, _, _) -> c.Ir.vid = v.Ir.vid) matches ->
          let _, crd, tgts =
            List.find (fun (c, _, _) -> c.Ir.vid = v.Ir.vid) matches
          in
          let seq = ref [] in
          let emit s = seq := s :: !seq in
          let let_ name rv =
            let x = fresh name in
            emit (Ir.Let (x, rv));
            x
          in
          (* Step 1: prefetch crd[iv + 2*distance]. *)
          let i1 = let_ "aj_i1" (Ir.Ibin (Ir.Iadd, fl.Ir.f_iv, sh.c2d)) in
          emit
            (Ir.Prefetch
               { Ir.pbuf = crd; pidx = i1; pwrite = false;
                 plocality = cfg.locality });
          (* Step 2: bounded load with the loop-derived (segment-local)
             bound. *)
          let raw = let_ "aj_raw" (Ir.Ibin (Ir.Iadd, fl.Ir.f_iv, sh.cd)) in
          let clamped = let_ "aj_min" (Ir.Ibin (Ir.Imin, raw, bound)) in
          let ahead = let_ "aj_ahead" (Ir.Load (crd, clamped)) in
          (* Step 3: prefetch each target. *)
          List.iter
            (fun tgt ->
              emit
                (Ir.Prefetch
                   { Ir.pbuf = tgt; pidx = ahead; pwrite = false;
                     plocality = cfg.locality }))
            tgts;
          stmt :: List.rev !seq
        | _ -> [ stmt ])
      fl.Ir.f_body
  in
  { fl with Ir.f_body = body }

(** [run ?cfg fn] applies the pass, returning the rewritten function and
    match statistics. *)
let run ?(cfg = default) (fn : Ir.func) : Ir.func * stats =
  let supply = Rewrite.supply fn in
  let matched = ref 0 and scanned = ref 0 in
  let sh =
    { c2d = Rewrite.fresh supply "aj_c2d" Ir.Index;
      cd = Rewrite.fresh supply "aj_cd" Ir.Index;
      c1 = Rewrite.fresh supply "aj_c1" Ir.Index }
  in
  let used_shared = ref false in
  (* Post-order: a loop's body is already rewritten when [instrument]
     sees the loop, so only loops with no nested for are scanned. *)
  let instrument (s : Ir.stmt) : Ir.stmt list =
    match s with
    | Ir.For fl when not (Rewrite.contains_for fl.Ir.f_body) ->
      incr scanned;
      let ms =
        List.filter_map
          (fun (v, crd) ->
            match targets_of fl v with
            | [] -> None
            | tgts -> Some (v, crd, tgts))
          (candidates fl)
      in
      if ms = [] then [ s ]
      else begin
        matched := !matched + List.length ms;
        used_shared := true;
        (* The segment-local bound hi - 1 is loop-invariant: LICM places
           it just before the loop. *)
        let bound = Rewrite.fresh supply "aj_bound" Ir.Index in
        [ Ir.Let (bound, Ir.Ibin (Ir.Isub, fl.Ir.f_hi, sh.c1));
          Ir.For (inject supply cfg sh fl bound ms) ]
      end
    | _ -> [ s ]
  in
  let body = Rewrite.walk instrument fn.Ir.fn_body in
  let body =
    if !used_shared then
      Ir.Let (sh.c2d, Ir.Const (Ir.Cidx (2 * cfg.distance)))
      :: Ir.Let (sh.cd, Ir.Const (Ir.Cidx cfg.distance))
      :: Ir.Let (sh.c1, Ir.Const (Ir.Cidx 1))
      :: body
    else body
  in
  let fn' = Rewrite.with_supply { fn with Ir.fn_body = body } supply in
  (match Verify.check_result fn' with
   | Ok () -> ()
   | Error m -> invalid_arg ("ainsworth_jones: broke the IR: " ^ m));
  (fn', { matched_sites = !matched; loops_scanned = !scanned })
