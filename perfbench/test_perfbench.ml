(* The benchmark's own test, at tiny input sizes: every declared metric
   appears with its declared unit, exact metrics repeat bit-for-bit at
   one seed, a second seed changes the inputs, and a traced run's layer
   shares add up to the run. *)

open Asap_perfbench

let spec = Perfbench.load_spec ~root:".."
let failures = ref 0

let check cond fmt =
  Printf.ksprintf
    (fun m ->
      if not cond then begin
        incr failures;
        Printf.printf "FAIL %s\n%!" m
      end)
    fmt

let run workload ~seed ~trace =
  let tl, measured, _ =
    Perfbench.run ~spec ~scale:Perfbench.Tiny ~workload ~seed ~seconds:0.05
      ~trace ~out:"_out"
  in
  let metrics = Perfbench.select ~spec ~workload ~trace tl measured in
  List.iter (Printf.printf "  %s\n") (List.rev tl.Common.t_errors);
  check (tl.Common.t_failed = 0) "%s seed %d trace %b: %d failed of %d" workload
    seed trace tl.Common.t_failed tl.Common.t_attempted;
  (tl, metrics)

let value metrics name =
  match List.find_opt (fun (n, _, _) -> n = name) metrics with
  | Some (_, _, v) -> v
  | None -> nan

let exact_e2e =
  [ "virtual_cycles"; "asap_speedup"; "virtual_p50_ms"; "virtual_p99_ms";
    "virtual_max_rps" ]

let shares workload =
  if String.starts_with ~prefix:"serve" workload then
    [ "serve.ingest.share"; "tensor.pack.share"; "serve.build.share";
      "serve.settle.share" ]
  else
    [ "tensor.mtx_read.share"; "tensor.pack.share"; "sim.prepare.share";
      "sim.execute.share"; "check.share" ]

let test_workload workload =
  Printf.printf "%s\n%!" workload;
  let tl, e1 = run workload ~seed:1 ~trace:false in
  (* The result line carries every end-to-end metric with its unit. *)
  let line = Asap_obs.Jsonu.to_string (Perfbench.result_json tl e1) in
  let parsed = Result.get_ok (Asap_obs.Jsonu.of_string line) in
  let ms = Option.get (Asap_obs.Jsonu.member "metrics" parsed) in
  List.iter
    (fun (name, unit) ->
      let m = Asap_obs.Jsonu.member name ms in
      check (m <> None) "%s: %s missing from the result line" workload name;
      Option.iter
        (fun m ->
          check
            (Option.bind (Asap_obs.Jsonu.member "unit" m) Asap_obs.Jsonu.to_str_opt
            = Some unit)
            "%s: %s without unit %s" workload name unit;
          let v =
            Option.bind (Asap_obs.Jsonu.member "value" m) Asap_obs.Jsonu.to_float_opt
          in
          check
            (match v with Some v -> v > 0. | None -> false)
            "%s: %s is not a positive number" workload name)
        m)
    spec.Perfbench.end_to_end;
  let _, e1' = run workload ~seed:1 ~trace:false in
  List.iter
    (fun name ->
      check
        (Int64.equal
           (Int64.bits_of_float (value e1 name))
           (Int64.bits_of_float (value e1' name)))
        "%s: %s %.17g then %.17g at one seed" workload name (value e1 name)
        (value e1' name))
    exact_e2e;
  let _, e2 = run workload ~seed:2 ~trace:false in
  check
    (value e1 "virtual_cycles" <> value e2 "virtual_cycles")
    "%s: seed 2 leaves virtual_cycles at %.17g" workload (value e1 "virtual_cycles");
  let _, t1 = run workload ~seed:1 ~trace:true in
  let _, t1' = run workload ~seed:1 ~trace:true in
  List.iter
    (fun (name, unit, v) ->
      check
        (List.exists (fun (n, u) -> n = name && u = unit) spec.Perfbench.per_layer)
        "%s: layer metric %s %s undeclared" workload name unit;
      if String.starts_with ~prefix:"sim." name
         && not (String.starts_with ~prefix:"sim.execute." name
                 || String.starts_with ~prefix:"sim.prepare" name
                 || String.starts_with ~prefix:"sim.specialize" name)
      then
        check
          (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float (value t1' name)))
          "%s: %s %.17g then %.17g at one seed" workload name v (value t1' name))
    t1;
  let sum = List.fold_left (fun a n -> a +. value t1 n) 0. (shares workload) in
  check (sum > 0.8 && sum < 1.02) "%s: layer shares sum to %.3f" workload sum

let () =
  List.iter test_workload Perfbench.workloads;
  if !failures > 0 then begin
    Printf.printf "%d checks failed\n" !failures;
    exit 1
  end
