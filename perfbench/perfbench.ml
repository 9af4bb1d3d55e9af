(* Workload dispatch and the result line. Metric names and units are
   read from BENCHMARK.json, and which layer metrics each workload
   measures from perfbench/catalogue.json, so the program prints exactly
   what those files declare. *)

open Common

let workloads = [ "sweep"; "cold"; "serve_hot"; "serve_churn" ]

type scale = Full | Tiny

let read_json path =
  match Jsonu.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

let member path k j =
  match Jsonu.member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: no %S" path k)

type spec = {
  end_to_end : (string * string) list;    (* name, unit *)
  per_layer : (string * string) list;
  measured_on : (string * string list) list;  (* layer metric -> workloads *)
  p99_limit_ms : float;
}

let load_spec ~root =
  let bench_path = Filename.concat root "BENCHMARK.json" in
  let cat_path = Filename.concat root "perfbench/catalogue.json" in
  let bench = read_json bench_path and cat = read_json cat_path in
  let metrics key =
    Option.get (Jsonu.to_list_opt (member bench_path key bench))
    |> List.map (fun m ->
           ( Option.get (Jsonu.to_str_opt (member bench_path "name" m)),
             Option.get (Jsonu.to_str_opt (member bench_path "unit" m)) ))
  in
  let per_layer = metrics "per_layer" in
  let on = member cat_path "per_layer" cat in
  { end_to_end = metrics "end_to_end";
    per_layer;
    measured_on =
      List.map
        (fun (name, _) ->
          ( name,
            List.filter_map Jsonu.to_str_opt
              (Option.get
                 (Jsonu.to_list_opt (member cat_path "measured_on" (member cat_path name on)))) ))
        per_layer;
    p99_limit_ms =
      Option.get (Jsonu.to_float_opt (member cat_path "serve_p99_limit_ms" cat)) }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* [run] executes one workload and returns its failure tally, the metrics
   it measured and, when traced, its tracer. Inputs it writes live under
   [out] for the run only. *)
let run ~spec ~scale ~workload ~seed ~seconds ~trace ~out =
  let dir = Filename.concat out (Printf.sprintf "%s-%d.inputs" workload seed) in
  mkdir_p dir;
  let tiny = scale = Tiny in
  Calib.reset ();
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      match workload with
      | "sweep" ->
        Sim_wl.sweep ~size:(if tiny then Sim_wl.sweep_tiny else Sim_wl.sweep_full)
          ~seed ~seconds ~trace
      | "cold" ->
        Sim_wl.cold ~size:(if tiny then Sim_wl.cold_tiny else Sim_wl.cold_full)
          ~seed ~seconds ~trace ~dir
      | "serve_hot" | "serve_churn" ->
        let size =
          match (workload, tiny) with
          | "serve_hot", false -> Serve_wl.hot_full
          | "serve_hot", true -> Serve_wl.hot_tiny
          | _, false -> Serve_wl.churn_full
          | _, true -> Serve_wl.churn_tiny
        in
        Serve_wl.run ~size ~seed ~seconds ~trace ~dir ~limit_ms:spec.p99_limit_ms
      | w -> invalid_arg ("unknown workload " ^ w))

(* The declared metrics of this run, in BENCHMARK.json's order. A layer
   metric the catalogue does not measure on this workload reads 0; a
   declared metric the workload should have produced but did not is a
   failure. *)
let select ~spec ~workload ~trace tl measured =
  let declared = if trace then spec.per_layer else spec.end_to_end in
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name measured with
      | Some v -> (name, unit, v)
      | None ->
        let expected =
          (not trace)
          || List.mem workload
               (Option.value ~default:[] (List.assoc_opt name spec.measured_on))
        in
        if expected then fail tl "%s: metric %s not measured" workload name;
        (name, unit, 0.))
    declared

let result_json tl metrics =
  Jsonu.Obj
    [ ("correct", Jsonu.Bool (tl.t_failed = 0));
      ("attempted", Jsonu.Int (max 1 tl.t_attempted));
      ("failed", Jsonu.Int tl.t_failed);
      ( "metrics",
        Jsonu.Obj
          (List.map
             (fun (name, unit, v) ->
               (name, Jsonu.Obj [ ("value", Jsonu.Float v); ("unit", Jsonu.Str unit) ]))
             metrics) ) ]

(* The traced run's artefacts: the Chrome trace of its host-time spans
   and its per-layer metrics as one JSON object. *)
let write_trace ~out ~workload ~seed tr metrics =
  let base = Filename.concat out (Printf.sprintf "%s-%d" workload seed) in
  Chrome.write tr.chrome (base ^ ".trace.json");
  Out_channel.with_open_text (base ^ ".layers.json") (fun oc ->
      output_string oc
        (Jsonu.to_string
           (Jsonu.Obj
              (List.map
                 (fun (name, unit, v) ->
                   (name, Jsonu.Obj [ ("value", Jsonu.Float v); ("unit", Jsonu.Str unit) ]))
                 metrics)));
      output_char oc '\n')
