(* The host-speed reference. One pass is a fixed piece of work built on
   the OCaml standard library alone, so no change to the repository's
   libraries moves it: parse coordinate text into triples and sort them,
   fill and probe a hash table, and gather at pseudo-random indices over
   a 1 MB float array, four times over; then interpret a small stack
   machine's loop. It allocates, hashes, misses caches and dispatches
   the way the measured layers do, so when other tenants of a shared
   host slow those layers down they slow it down too; its inputs are
   small (about 1.3 MB), so the workload's peak resident set stays
   about its own.

   A run samples passes between its rounds and scales every host time
   it reports by [factor] of their median pass time: host times read
   about as they would on a host where one pass takes [ref_ms], and a
   stretch of minutes in which the whole host runs slower moves the
   pass and the workload alike and mostly cancels. *)

(* About the median pass time on a 2-vCPU Xeon VM. *)
let ref_ms = 25.

type inputs = {
  text : string;        (* coordinate lines "i j v" *)
  keys : int array;
  xs : float array;     (* 1 MB, gathered through *)
}

let rows = 5_000
let gathers = 8 * rows

(* Fixed inputs: the same on every run, whatever the seed. *)
let inputs =
  lazy
    (let st = Random.State.make [| 20261017 |] in
     let b = Buffer.create (rows * 24) in
     for _ = 1 to rows do
       Printf.bprintf b "%d %d %.17g\n"
         (1 + Random.State.int st 60000)
         (1 + Random.State.int st 60000)
         (Random.State.float st 1.)
     done;
     { text = Buffer.contents b;
       keys = Array.init rows (fun _ -> Random.State.bits st);
       xs = Array.init (1 lsl 17) (fun i -> float_of_int (i land 1023)) })

let round (i : inputs) =
  let triples =
    String.split_on_char '\n' i.text
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | [ a; b; v ] -> Some (int_of_string a, int_of_string b, float_of_string v)
           | _ -> None)
    |> Array.of_list
  in
  Array.sort compare triples;
  let h = Hashtbl.create 1024 in
  Array.iteri (fun k key -> Hashtbl.replace h key k) i.keys;
  let hits = Array.fold_left (fun a key -> a + Hashtbl.find h key) 0 i.keys in
  (* Indices from a fixed linear congruential sequence. *)
  let acc = ref 0. and j = ref 1 in
  let mask = Array.length i.xs - 1 in
  for _ = 1 to gathers do
    j := ((!j * 1103515245) + 12345) land 0x3fffffff;
    acc := !acc +. i.xs.((!j lsr 7) land mask)
  done;
  ignore (Sys.opaque_identity (Array.length triples + hits, !acc))

(* A stack machine stepping through a fixed loop, one match on the
   instruction per step, as the simulator's bytecode engine dispatches. *)
type op =
  | Push of int | Add | Mul | Dup | Swap | Pop | Dec
  | Load of int | Store of int | Jnz of int

let program =
  [| Push 50_000; Store 0;
     Load 0; Push 3; Mul; Load 1; Add; Store 1; Load 1; Push 7; Swap; Pop; Pop;
     Load 0; Dec; Dup; Store 0; Jnz 2 |]

let interpret () =
  let stack = Array.make 16 0 and sp = ref 0 and mem = Array.make 2 0 in
  let push v = stack.(!sp) <- v; incr sp in
  let pop () = decr sp; stack.(!sp) in
  let pc = ref 0 in
  while !pc < Array.length program do
    let op = program.(!pc) in
    incr pc;
    match op with
    | Push v -> push v
    | Add -> let a = pop () in push ((a + pop ()) land 0xffffff)
    | Mul -> let a = pop () in push ((a * pop ()) land 0xffffff)
    | Dup -> let a = pop () in push a; push a
    | Swap -> let a = pop () in let b = pop () in push a; push b
    | Pop -> ignore (pop ())
    | Dec -> push (pop () - 1)
    | Load k -> push mem.(k)
    | Store k -> mem.(k) <- pop ()
    | Jnz t -> if pop () <> 0 then pc := t
  done;
  ignore (Sys.opaque_identity mem.(1))

let pass () =
  let i = Lazy.force inputs in
  for _ = 1 to 4 do
    round i
  done;
  interpret ()

(* Pass times of the current run, in ns. *)
let samples : float list ref = ref []

let reset () =
  samples := [];
  (* Build the inputs outside any timed pass. *)
  ignore (Lazy.force inputs)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* [sample ~ns] runs passes for about a sixth of [ns], the host time of
   the stretch of work just measured (at least one pass), records each
   one's time and returns those times. *)
let sample ~ns =
  let t0 = now_ns () in
  let rec go acc =
    let p0 = now_ns () in
    pass ();
    let t = now_ns () in
    let p = float_of_int (t - p0) in
    samples := p :: !samples;
    if (t - t0) * 6 < ns then go (p :: acc) else p :: acc
  in
  go []

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

(* Median pass time of the run so far, in ms. *)
let median_ms () = median !samples /. 1e6

(* A pass slows down more than the workloads do when the host is
   contended: over a ten-run set in which the median pass ranged 28-46
   ms, the workloads' host times moved as the 0.3-0.85th power of it
   (cold 0.65-0.85, sweep 0.55, serve 0.3-1.0), and scaling by the
   0.75th power left the least spread over all four. *)
let sensitivity = 0.75

(* [factor pass_ms] scales host times measured alongside passes of
   median [pass_ms] to the reference host speed: times are multiplied
   by it, rates divided. *)
let factor pass_ms = (ref_ms /. pass_ms) ** sensitivity

(* The run's factor, from all its passes so far (1 before any). *)
let scale () = match !samples with [] -> 1. | _ -> factor (median_ms ())
