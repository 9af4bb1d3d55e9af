(* Host-time measurement, layer spans and result assembly shared by the
   perfbench workloads. Every host time is read from bechamel's
   monotonic clock; nothing here calls into the layers it measures. *)

module Chrome = Asap_obs.Chrome
module Jsonu = Asap_obs.Jsonu

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6

(* [timed f] is [f ()] paired with its host wall time in ns. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* Words allocated by the OCaml program so far (minor + direct major). *)
let alloc_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* [quantile xs q] interpolates linearly between closest ranks of the
   sorted sample, [q] in [0, 1]; 0 on an empty sample. *)
let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

(* [hd_quantile xs q] is the Harrell-Davis estimate of quantile [q]: the
   mean of the sorted sample weighted by the Beta((n+1)q, (n+1)(1-q))
   mass over each rank's interval. A single order statistic jumps when
   two jobs of distinct sizes near the quantile trade places; this
   estimate moves smoothly. [quantile] below three samples. *)
let hd_quantile (xs : float array) q =
  let n = Array.length xs in
  if n < 3 then quantile xs q
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let a = q *. float_of_int (n + 1) and b = (1. -. q) *. float_of_int (n + 1) in
    (* Midpoint rule, [m] points per rank, in log space against the
       largest density so nothing underflows. *)
    let m = 64 in
    let h = 1. /. float_of_int (n * m) in
    let logs =
      Array.init (n * m) (fun k ->
          let t = (float_of_int k +. 0.5) *. h in
          ((a -. 1.) *. log t) +. ((b -. 1.) *. log (1. -. t)))
    in
    let peak = Array.fold_left Float.max neg_infinity logs in
    let w = Array.make n 0. in
    Array.iteri (fun k l -> w.(k / m) <- w.(k / m) +. exp (l -. peak)) logs;
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    Array.iteri (fun i wi -> acc := !acc +. (wi *. s.(i))) w;
    !acc /. total
  end

(* Geometric mean of positive ratios; 0 on an empty list. *)
let geomean = function
  | [] -> 0.
  | xs ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0. xs
      /. float_of_int (List.length xs))

let ratio a b = if b = 0. then 0. else a /. b

(* Peak resident set of this process (VmHWM) in MB; the OCaml heap's
   peak when /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
                (fun kb -> Some (float_of_int kb /. 1024.))
            else scan ()
        in
        scan ())
  in
  match (try from_proc () with Sys_error _ -> None) with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* --- Layer spans (the traced run) ------------------------------------ *)

type layer = {
  mutable l_ns : int;          (* host time inside the layer's calls *)
  mutable l_calls : int;
  mutable l_alloc : float;     (* words allocated inside its calls *)
}

type tracer = {
  chrome : Chrome.t;
  origin : int;
  layers : (string, layer) Hashtbl.t;
  work : (string, float) Hashtbl.t;   (* work counts: nnz, instrs, ... *)
}

let tracer () =
  { chrome = Chrome.create (); origin = now_ns (); layers = Hashtbl.create 16;
    work = Hashtbl.create 16 }

(* [sub t] records into [t]'s Chrome trace with its own layer totals, so
   one phase's shares are not mixed with another's. *)
let sub t = { t with layers = Hashtbl.create 16; work = Hashtbl.create 16 }

(* [add_work tr name n] adds [n] units of work to counter [name]. *)
let add_work (tr : tracer option) name n =
  match tr with
  | None -> ()
  | Some t ->
    let v = Option.value ~default:0. (Hashtbl.find_opt t.work name) in
    Hashtbl.replace t.work name (v +. n)

let work t name = Option.value ~default:0. (Hashtbl.find_opt t.work name)

let layer t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> l
  | None ->
    let l = { l_ns = 0; l_calls = 0; l_alloc = 0. } in
    Hashtbl.add t.layers name l;
    l

(* [span tr name f] runs [f ()]; with a tracer it also records one
   complete span on the host track and charges the call's wall time and
   allocation to layer [name]. Without one it costs a single branch. *)
let span (tr : tracer option) ?(args = []) name f =
  match tr with
  | None -> f ()
  | Some t ->
    let a0 = alloc_words () in
    let t0 = now_ns () in
    let r = f () in
    let dt = now_ns () - t0 in
    let l = layer t name in
    l.l_ns <- l.l_ns + dt;
    l.l_calls <- l.l_calls + 1;
    l.l_alloc <- l.l_alloc +. (alloc_words () -. a0);
    Chrome.add_complete t.chrome ~track:"host" ~name ~cat:"layer"
      ~ts:((t0 - t.origin) / 1000) ~dur:(dt / 1000) args;
    r

(* [trace_overhead untraced traced] runs [untraced] and [traced] in
   alternation, three times each, so drift in host speed hits both
   alike. Returns the last traced result with its wall time in ns, and
   the median over the pairs of traced over untraced wall time. *)
let trace_overhead untraced traced =
  let ratios = Array.make 3 0. and last = ref None in
  for k = 0 to 2 do
    let (), u = timed untraced in
    let r, t = timed traced in
    last := Some (r, t);
    ratios.(k) <- float_of_int t /. float_of_int u
  done;
  let r, t = Option.get !last in
  (r, t, median ratios)

let layer_ns t name =
  match Hashtbl.find_opt t.layers name with Some l -> l.l_ns | None -> 0

let layer_calls t name =
  match Hashtbl.find_opt t.layers name with Some l -> l.l_calls | None -> 0

let layer_alloc t name =
  match Hashtbl.find_opt t.layers name with Some l -> l.l_alloc | None -> 0.

(* --- Outcomes -------------------------------------------------------- *)

(* Failure tally of a run: every job that raised or missed its check is
   counted and labelled, and the run carries on. *)
type tally = {
  mutable t_attempted : int;
  mutable t_failed : int;
  mutable t_errors : string list;
}

let tally () = { t_attempted = 0; t_failed = 0; t_errors = [] }

let fail t fmt =
  Printf.ksprintf
    (fun m ->
      t.t_failed <- t.t_failed + 1;
      if List.length t.t_errors < 20 then t.t_errors <- m :: t.t_errors)
    fmt

(* [guard t label f] is [Some (f ())], or [None] with the exception
   (Out_of_memory included: SDDMM's dense output raises it on large
   samples) counted as one labelled failure. *)
let guard t label f =
  try Some (f ())
  with e ->
    fail t "%s: %s" label (Printexc.to_string e);
    None

(* Set-up is repeated at least five times, and until it has taken two
   seconds in all (at most 25 times), and its median reported, so work
   moved into set-up shows up in [setup_s]. (With three set-ups and one
   second, serve_hot's setup_s spread 0.35 seed to seed.) Each set-up is
   followed by host-speed reference passes and scaled by their median
   to the reference host speed, so a set-up and its scale are measured
   seconds apart (scaling by the run's median pass instead left cold's
   setup_s spread at 0.30 over five seeds). The state of the last
   set-up is the one measured; earlier ones are dropped before the next
   starts. *)
let setup_median f =
  let last = ref None and times = ref [] and total = ref 0 in
  while
    List.length !times < 5 || (!total < 2_000_000_000 && List.length !times < 25)
  do
    last := None;
    Gc.full_major ();
    let st, ns = timed f in
    last := Some st;
    total := !total + ns;
    let pass_ms = Calib.median (Calib.sample ~ns) /. 1e6 in
    times := (float_of_int ns /. 1e9 *. Calib.factor pass_ms) :: !times
  done;
  (Option.get !last, median (Array.of_list !times))

(* [rounds ~seconds round] runs whole rounds back to back until starting
   another would pass [seconds] (at least one): a closed loop, each
   round's jobs issued as the previous one finishes. Host-speed
   reference passes run between rounds, for a sixth of each round's
   time. Each round starts
   from a collected heap, so garbage left by the one before neither
   slows it nor lifts the peak resident set. Returns each round's
   result with its wall time in ns. *)
let rounds ~seconds round =
  let budget = int_of_float (seconds *. 1e9) in
  let t0 = now_ns () in
  let rec go acc =
    Gc.full_major ();
    let r, ns = timed round in
    ignore (Calib.sample ~ns);
    let acc = (r, ns) :: acc in
    let elapsed = now_ns () - t0 in
    if elapsed + ns > budget then List.rev acc else go acc
  in
  go []
