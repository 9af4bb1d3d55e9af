(** The built-in pass set.

    [ensure ()] registers (idempotently) the standard passes:

    - [sparsify] — the entry pass, kernel -> verified IR;
    - [asap] — ASaP prefetch-injection hook
      ([d], [l], [strategy], [bound], [step1]);
    - [aj] — Ainsworth-Jones post-hoc prefetch pass ([d], [l]);
    - [fold] — constant folding;
    - [licm] — loop-invariant code motion;
    - [unroll] — innermost-loop unrolling ([f]).

    Every entry point that consults the registry calls this first, so
    user code never needs to. *)

val ensure : unit -> unit
