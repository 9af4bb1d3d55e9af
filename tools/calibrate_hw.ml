module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Hierarchy = Asap_sim.Hierarchy
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Suite = Asap_workloads.Suite

let () =
  let name = Sys.argv.(1) in
  let coo = (Suite.find name).Suite.gen () in
  let enc = Encoding.csr () in
  let configs = [
    "default", Machine.hw_default;
    "optimized", Machine.hw_optimized;
    "def-nlp-off", { Machine.hw_default with Machine.l1_nlp = false };
    "def-amp-off", { Machine.hw_default with Machine.l2_amp = false };
    "def-ipp-off", { Machine.hw_default with Machine.l1_ipp = false };
    "def-mlc-off", { Machine.hw_default with Machine.mlc_streamer = false };
    "def-llc-off", { Machine.hw_default with Machine.llc_streamer = false };
  ] in
  List.iter (fun (n, hw) ->
    let m = Machine.gracemont_scaled ~hw () in
    let r =
      Driver.run (Driver.Cfg.make ~machine:m ~variant:Pipeline.Baseline ())
        (Driver.Spmv enc) coo
    in
    let mem = r.Driver.report.Exec.rp_mem in
    let pf = List.map (fun (pn,c) -> Printf.sprintf "%s:%d" pn c) mem.Hierarchy.st_hw_issued in
    let pfu = List.map (fun (pn,c) -> Printf.sprintf "%s:%d" pn c) mem.Hierarchy.st_hw_useful in
    Printf.printf "%-14s %10.0f nnz/ms  mpki %6.2f dram-lines %9d\n  issued: %s\n  useful: %s\n%!"
      n (Driver.throughput r) (Driver.mpki r) mem.Hierarchy.st_dram_lines
      (String.concat " " pf) (String.concat " " pfu))
    configs
