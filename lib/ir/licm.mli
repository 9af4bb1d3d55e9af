(** Loop-invariant code motion for pure value computations.

    Hoists [Let]s whose rvalue is {!Rewrite.pure} out of for loops when
    every operand is defined outside the loop — the LLVM LICM equivalent
    of the paper's compilation flow (§4.3). Loads (which may alias
    stores) and integer div/rem (which would trap when hoisted out of a
    zero-trip loop) are never moved. *)

open Ir

type stats = { hoisted : int }

(** [run fn] returns the transformed (re-verified) function and hoist
    statistics. *)
val run : func -> func * stats
