module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Hierarchy = Asap_sim.Hierarchy
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
  List.iter (fun (n, v) ->
    let r =
      Driver.run (Driver.Cfg.make ~machine:m ~variant:v ()) (Driver.Spmv enc)
        coo
    in
    let rp = r.Driver.report in
    let mem = rp.Exec.rp_mem in
    let nnz = float_of_int r.Driver.nnz in
    Printf.printf "%-8s cyc/nnz %6.2f instr/nnz %6.2f l1m/knnz %7.1f l2m/knnz %7.1f l3m/knnz %7.1f dram/knnz %7.1f swpf %d useful %d drop %d\n%!"
      n (float_of_int rp.Exec.rp_cycles /. nnz) (float_of_int rp.Exec.rp_instructions /. nnz)
      (1000. *. float_of_int mem.Hierarchy.st_l1_misses /. nnz)
      (1000. *. float_of_int mem.Hierarchy.st_l2_misses /. nnz)
      (1000. *. float_of_int mem.Hierarchy.st_l3_misses /. nnz)
      (1000. *. float_of_int mem.Hierarchy.st_dram_lines /. nnz)
      mem.Hierarchy.st_sw_issued mem.Hierarchy.st_sw_useful mem.Hierarchy.st_sw_dropped)
    [ "baseline", Pipeline.Baseline;
      "asap", Pipeline.Asap Asap.default;
      "asap-d16", Pipeline.Asap { Asap.default with Asap.distance = 16 };
      "aj", Pipeline.Ainsworth_jones Aj.default ]
