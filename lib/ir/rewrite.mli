(** The IR rewriting kit: the basics every pass over {!Ir} functions
    shares — minting values, reading and rewriting uses, cloning regions,
    walking nested blocks, and the loop and purity tests that decide
    whether a rewrite is legal.

    Every pass that adds values or moves statements (fold, licm, unroll,
    the Ainsworth & Jones baseline, kernel specialization) goes through
    these functions, so there is one definition of each rule. Nested
    regions are visited in one fixed order (a while condition before its
    body, an if's else branch before its then branch), which fixes the
    order fresh ids are minted in and so keeps listings stable. *)

open Ir

(** {1 Value supply} *)

(** Fresh value ids for a pass that extends an existing function (ids
    continue from [fn_nvalues]). *)
type supply

val supply : func -> supply
val fresh : supply -> string -> scalar -> value

(** [fresh_like s v] is a fresh value with [v]'s name and type. *)
val fresh_like : supply -> value -> value

(** [with_supply fn s] updates [fn]'s id bound after minting values. *)
val with_supply : func -> supply -> func

(** {1 Uses} *)

(** The values an rvalue reads. *)
val operands : rvalue -> value list

(** [map_stmt use blk s] rewrites the uses of [s] itself through [use]
    and its nested blocks through [blk]; definitions (lets, induction
    variables, region arguments, loop results) keep their ids. Loop
    bounds and carried inits are rewritten before the regions, yields
    and the while condition value after them. *)
val map_stmt : (value -> value) -> (block -> block) -> stmt -> stmt

(** [map_uses use b] rewrites every use in [b], at any depth. *)
val map_uses : (value -> value) -> block -> block

(** [iter_uses f b] applies [f] to every use in [b], at any depth. *)
val iter_uses : (value -> unit) -> block -> unit

(** {1 Cloning} *)

(** [clone_block s ?outer sub b] copies [b] with a fresh value (same
    name and type) for every definition it contains. A use is looked up
    in [sub] first, then passed to [outer] (default: unchanged). Each
    definition's old id is bound to its copy in [sub], so after the call
    [sub] maps the block's yields to their copies. Within a loop the
    induction variable is minted first, then the carried arguments, the
    condition and body, and the results. *)
val clone_block :
  supply -> ?outer:(value -> value) -> (int, value) Hashtbl.t -> block ->
  block

(** [rename sub v] is [v]'s binding in [sub], or [v] itself. *)
val rename : (int, value) Hashtbl.t -> value -> value

(** {1 Walking} *)

(** [walk f b] rebuilds [b] bottom-up: the blocks nested in a
    statement are walked first, then [f] replaces the statement by a
    list of statements. *)
val walk : (stmt -> stmt list) -> block -> block

(** {1 Legality tests} *)

(** [has_loop b] tests whether [b] contains a for or while loop at any
    depth. *)
val has_loop : block -> bool

(** [contains_for b] tests whether [b] contains a for loop at any depth,
    looking into while loops but not counting them. This is the
    Ainsworth & Jones notion of an inner loop. *)
val contains_for : block -> bool

(** [pure rv] holds when evaluating [rv] can neither fault nor touch
    memory, so it may be moved across a loop boundary or deleted when
    unused: no loads (cache events, bounds faults, aliasing stores) and
    no integer division or remainder (a zero divisor traps; folding
    removes the ones with known operands). *)
val pure : rvalue -> bool
