(* Memory-trace recording.

   An {!Asap_obs.Sink.t} over the memory hierarchy's event stream that
   records demand loads, stores and software prefetches in program order.
   Used by tests and tools to validate prefetching *mechanically*: e.g.
   that every demand access to the indirectly-indexed operand was covered
   by an earlier software prefetch of the same line (§3.2's coverage
   claim), independent of any timing model. *)

type event =
  | Load of { pc : int; addr : int; at : int }
  | Store of { pc : int; addr : int; at : int }
  | Prefetch of { addr : int; locality : int; at : int }

type t = { mutable events : event list }

let create () = { events = [] }

let record t e = t.events <- e :: t.events

(** [events t] in program order. *)
let events t = List.rev t.events

(** [sink t] records the hierarchy's event stream into [t], making the
    trace a first-class {!Asap_obs.Sink.t}: demand loads, stores and
    software prefetches land in one program-order event list — every
    software prefetch, whether the hierarchy issued or dropped it
    (hardware-prefetch and drop events have no program-order meaning
    here and are skipped). *)
let sink (t : t) : Asap_obs.Sink.t =
  Asap_obs.Sink.make (fun (e : Asap_obs.Sink.ev) ->
      match e with
      | Asap_obs.Sink.Load { pc; addr; at; _ } ->
        record t (Load { pc; addr; at })
      | Asap_obs.Sink.Store { pc; addr; at; _ } ->
        record t (Store { pc; addr; at })
      | Asap_obs.Sink.Sw_prefetch { addr; locality; at; _ } ->
        record t (Prefetch { addr; locality; at })
      | Asap_obs.Sink.Hw_prefetch _ | Asap_obs.Sink.Drop _ -> ())

(** [coverage ?late t ~range ~line_bytes] computes, over demand loads
    whose address falls in [range) — typically one operand's buffer — the
    fraction of accessed lines that were software-prefetched before their
    first demand touch. With [~late:n], a prefetch only counts when it ran
    at least [n] time units before that first touch — prefetches inside
    the cutoff were issued too late to hide the fill. Default [0]: any
    earlier prefetch counts. *)
let coverage ?(late = 0) (t : t) ~range:(lo, hi) ~line_bytes =
  let prefetched = Hashtbl.create 64 in        (* line -> earliest pf time *)
  let covered = ref 0 and total = ref 0 in
  let seen = Hashtbl.create 64 in
  List.iter
    (function
      | Prefetch { addr; at; _ } when addr >= lo && addr < hi ->
        let line = addr / line_bytes in
        if not (Hashtbl.mem prefetched line) then
          Hashtbl.add prefetched line at
      | Load { addr; at; _ } when addr >= lo && addr < hi ->
        let line = addr / line_bytes in
        if not (Hashtbl.mem seen line) then begin
          Hashtbl.add seen line ();
          incr total;
          match Hashtbl.find_opt prefetched line with
          | Some pf_at when at - pf_at >= late -> incr covered
          | Some _ | None -> ()
        end
      | Load _ | Store _ | Prefetch _ -> ())
    (events t);
  (!covered, !total)
