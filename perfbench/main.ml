(* perfbench: run one workload of the repository benchmark.

   Usage (from the repository root):
     main.exe --workload sweep|cold|serve_hot|serve_churn --seed N
              --seconds S --trace 0|1 [--root DIR]

   Prints a table of the metrics and, as its last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. A traced run
   also writes perfbench/_out/<workload>-<seed>.trace.json (Chrome
   trace of its host-time layer spans) and .layers.json. *)

open Asap_perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload sweep|cold|serve_hot|serve_churn --seed N \
     --seconds S --trace 0|1 [--root DIR]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and root = ref "." in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w Perfbench.workloads ->
      workload := Some w; parse rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
      seed := int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest
      when (match float_of_string_opt s with Some x -> x > 0. | None -> false) ->
      seconds := float_of_string_opt s; parse rest
    | "--trace" :: (("0" | "1") as t) :: rest -> trace := Some (t = "1"); parse rest
    | "--root" :: d :: rest -> root := d; parse rest
    | a :: _ -> Printf.eprintf "perfbench: bad argument %S\n" a; usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
    let spec = Perfbench.load_spec ~root:!root in
    let out = Filename.concat !root "perfbench/_out" in
    (* Jobs and replays catch their own exceptions; one escaping here
       (set-up, or the reference round) leaves no result to print. *)
    let tl, measured, tr =
      try Perfbench.run ~spec ~scale:Perfbench.Full ~workload ~seed ~seconds ~trace ~out
      with e ->
        Printf.eprintf "perfbench: FAILED %s aborted: %s\n" workload
          (Printexc.to_string e);
        exit 1
    in
    let metrics = Perfbench.select ~spec ~workload ~trace tl measured in
    Option.iter (fun tr -> Perfbench.write_trace ~out ~workload ~seed tr metrics) tr;
    List.iter (Printf.eprintf "perfbench: FAILED %s\n") (List.rev tl.Common.t_errors);
    List.iter
      (fun (name, unit, v) -> Printf.printf "%-36s %16.6g %s\n" name v unit)
      metrics;
    if not trace then
      Printf.printf
        "(host times scaled by %.4f: reference pass median %.3f ms over %d passes, %g ms on the reference host)\n"
        (Calib.scale ()) (Calib.median_ms ()) (List.length !Calib.samples)
        Calib.ref_ms;
    Printf.printf "%s\n%!"
      (Asap_obs.Jsonu.to_string (Perfbench.result_json tl metrics))
  | _ -> usage ()
