module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Suite = Asap_workloads.Suite

let d = 16
let () =
  let enc = Encoding.csr () in
  List.iter (fun name ->
    let coo = (Suite.find name).Suite.gen () in
    let m = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
    let md = Machine.gracemont_scaled ~hw:Machine.hw_default () in
    let run machine variant kspec =
      Driver.run (Driver.Cfg.make ~machine ~variant ()) kspec coo
    in
    let spmv = Driver.Spmv enc and spmm = Driver.Spmm enc in
    let base = run m Pipeline.Baseline spmv in
    let tpb = Driver.throughput base in
    let asap = run m (Pipeline.Asap { Asap.default with Asap.distance = d }) spmv in
    let asapd = run md (Pipeline.Asap { Asap.default with Asap.distance = d }) spmv in
    let aj = run m (Pipeline.Ainsworth_jones { Aj.default with Aj.distance = d }) spmv in
    let mspmm = Machine.gracemont_scaled ~hw:Machine.hw_optimized_spmm () in
    let bm = run mspmm Pipeline.Baseline spmm in
    let am = run mspmm (Pipeline.Asap { Asap.default with Asap.strategy = Asap.Outer_only; distance = d }) spmm in
    Printf.printf "%-18s spmv: base-mpki %6.1f asap %4.2fx asap-defhw %4.2fx aj %4.2fx | spmm: mpki %5.1f asap %4.2fx\n%!"
      name (Driver.mpki base) (Driver.throughput asap /. tpb)
      (Driver.throughput asapd /. tpb)
      (Driver.throughput aj /. tpb)
      (Driver.mpki bm)
      (Driver.throughput am /. Driver.throughput bm))
    [ "GAP-twitter"; "hollywood-2009"; "road-central"; "Janna-Serena"; "soc-pokec" ]
