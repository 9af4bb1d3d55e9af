(* Loop-invariant code motion for pure value computations.

   Hoists [Let]s whose rvalue is {!Rewrite.pure} (no loads, which may
   alias stores; no integer div/rem, which would trap when hoisted out of
   a zero-trip loop) out of for loops when every operand is defined
   outside the loop. Applied bottom-up, so invariants bubble as far out
   as they can.

   The sparsifier already places most invariants well; this pass exists for
   IR built by other means (hand-written tests, future front ends) and to
   keep post-hoc passes honest about per-iteration costs, mirroring the
   LLVM LICM the paper's compilation flow relies on (§4.3). *)

open Ir

type stats = { hoisted : int }

(** [run fn] returns the transformed function and hoist statistics. *)
let run (fn : func) : func * stats =
  let hoisted = ref 0 in
  (* [walk] is post-order: when [hoist] sees a loop, invariants of the
     loops nested in it already sit at the top of its body, so each
     climbs as far out as its operands allow. *)
  let hoist = function
    | For f ->
      (* What a top-level let of the body can read from inside the loop:
         the induction variable, the carried arguments and earlier
         top-level definitions (SSA scoping hides anything deeper). *)
      let local = Hashtbl.create 16 in
      let add (v : value) = Hashtbl.replace local v.vid () in
      add f.f_iv;
      List.iter (fun (arg, _) -> add arg) f.f_carried;
      List.iter
        (function
          | Let (v, _) -> add v
          | For g -> List.iter add g.f_results
          | While w -> List.iter add w.w_results
          | Store _ | Prefetch _ | If _ -> ())
        f.f_body;
      (* Partition a prefix-closed set of hoistable Lets: a Let can move
         only if its operands are not defined by anything remaining in
         the loop, so iterate until a fixed point over the body order. *)
      let hoistable = Hashtbl.create 8 in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (function
            | Let (v, rv)
              when (not (Hashtbl.mem hoistable v.vid))
                   && Rewrite.pure rv
                   && List.for_all
                        (fun (o : value) ->
                          (not (Hashtbl.mem local o.vid))
                          || Hashtbl.mem hoistable o.vid)
                        (Rewrite.operands rv) ->
              Hashtbl.add hoistable v.vid ();
              changed := true
            | _ -> ())
          f.f_body
      done;
      let moved, kept =
        List.partition
          (function
            | Let (v, _) -> Hashtbl.mem hoistable v.vid
            | _ -> false)
          f.f_body
      in
      hoisted := !hoisted + List.length moved;
      moved @ [ For { f with f_body = kept } ]
    | s -> [ s ]
  in
  let fn' = { fn with fn_body = Rewrite.walk hoist fn.fn_body } in
  (match Verify.check_result fn' with
   | Ok () -> ()
   | Error m -> invalid_arg ("licm: broke the IR: " ^ m));
  (fn', { hoisted = !hoisted })
