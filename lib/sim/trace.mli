(** Memory-trace recording.

    A sink over the memory hierarchy's event stream that records every
    demand load, store and software prefetch in program order — used to
    validate prefetching {e mechanically} (e.g. §3.2.2's coverage
    claim), independent of the timing model. *)

type event =
  | Load of { pc : int; addr : int; at : int }
  | Store of { pc : int; addr : int; at : int }
  | Prefetch of { addr : int; locality : int; at : int }

type t

val create : unit -> t

(** [events t] in program order. *)
val events : t -> event list

(** [sink t] records the hierarchy's event stream into [t]: demand loads,
    stores and every software prefetch (issued or dropped) land in one
    program-order list; hardware-prefetch and drop events are skipped. *)
val sink : t -> Asap_obs.Sink.t

(** [coverage ?late t ~range ~line_bytes] is (covered, total): over demand
    loads whose address falls in [range), how many distinct lines were
    software-prefetched before their first demand touch. With [~late:n] a
    prefetch only counts when it ran at least [n] time units before that
    touch (default 0). *)
val coverage : ?late:int -> t -> range:int * int -> line_bytes:int -> int * int
