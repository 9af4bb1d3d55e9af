(* TTV smoke: CSF rank-3, all variants, correctness + bound recursion. *)
module Machine = Asap_sim.Machine
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Generate = Asap_workloads.Generate
module Kernel = Asap_lang.Kernel

let () =
  let c = Pipeline.compile (Kernel.ttv ()) (Pipeline.Asap Asap.default) in
  print_string (Pipeline.listing c);
  Printf.printf "sites: %d\n%!" c.Pipeline.n_prefetch_sites;
  let coo = Generate.tensor3 ~seed:5 ~dims:[|300;400;50_000|] ~nnz:400_000 () in
  let m = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  List.iter (fun (n, v) ->
    let r =
      Driver.run (Driver.Cfg.make ~machine:m ~variant:v ()) (Driver.Ttv None)
        coo
    in
    let err = Driver.check_ttv coo r in
    Printf.printf "%-10s tp %8.0f err %g\n%!" n (Driver.throughput r) err)
    [ "baseline", Pipeline.Baseline;
      "asap", Pipeline.Asap { Asap.default with Asap.distance = 16 };
      "aj", Pipeline.Ainsworth_jones { Aj.default with Aj.distance = 16 } ]
