module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Suite = Asap_workloads.Suite

let () =
  let name = Sys.argv.(1) in
  let coo = (Suite.find name).Suite.gen () in
  let enc = Encoding.csr () in
  let m = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  let run variant =
    Driver.run (Driver.Cfg.make ~machine:m ~variant ()) (Driver.Spmv enc) coo
  in
  let base = run Pipeline.Baseline in
  let tpb = Driver.throughput base in
  Printf.printf "%s nnz=%d baseline %.0f nnz/ms mpki %.1f\n%!" name base.Driver.nnz tpb (Driver.mpki base);
  List.iter (fun (n, v) ->
    let r = run v in
    Printf.printf "  %-8s %.2fx (mpki %.1f)\n%!" n (Driver.throughput r /. tpb) (Driver.mpki r))
    [ "asap", Pipeline.Asap Asap.default;
      "aj", Pipeline.Ainsworth_jones Aj.default ]
