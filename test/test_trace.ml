(* Trace-based validation of prefetch coverage: mechanically checks the
   paper's §3.2.2 claim — ASaP's whole-buffer bound covers the dense
   operand's lines across segment boundaries, while the segment-local
   bound leaves the head of every short segment uncovered — independent of
   the timing model. *)

module Coo = Asap_tensor.Coo
module Storage = Asap_tensor.Storage
module Encoding = Asap_tensor.Encoding
module Kernel = Asap_lang.Kernel
module Runtime = Asap_sim.Runtime
module Trace = Asap_sim.Trace
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Bindings = Asap_core.Bindings
module Asap = Asap_prefetch.Asap
module Generate = Asap_workloads.Generate
open Asap_ir

let check = Alcotest.(check bool)
let machine = Asap_sim.Machine.gracemont_scaled ()

(* Run CSR SpMV under [variant] with a trace sink on the hierarchy and
   return the trace plus the simulated address range of the dense
   operand c. Every software prefetch reaches the sink, issued or not,
   and a single core emits events in program order, so coverage at
   [late:0] depends only on that order, not on the timing model. *)
let traced_spmv coo variant =
  let enc = Encoding.csr () in
  let rows = coo.Coo.dims.(0) and cols = coo.Coo.dims.(1) in
  let t = Trace.create () in
  let cfg = Driver.Cfg.make ~machine ~variant ~obs:(Trace.sink t) () in
  let (_ : Driver.result) = Driver.run cfg (Driver.Spmv enc) coo in
  (* The driver lays out the same buffers the same way: c's range is a
     function of the compiled kernel and the operand sizes. *)
  let compiled = Pipeline.compile (Kernel.spmv ~enc ()) variant in
  let dense =
    [ ("c", Runtime.RF (Array.make cols 0.));
      ("a", Runtime.RF (Array.make rows 0.)) ]
  in
  let bufs =
    Bindings.storage_bufs compiled.Pipeline.cc (Storage.pack enc coo)
      ~binary:false ~dense
  in
  let c_bound =
    List.find (fun (b : Runtime.bound) -> b.Runtime.buf.Ir.bname = "c")
      (Array.to_list (Runtime.layout compiled.Pipeline.fn bufs))
  in
  let lo = c_bound.Runtime.base in
  (t, (lo, lo + (Runtime.length_of c_bound.Runtime.data * 8)))

(* Coverage of c's lines by software prefetches. *)
let spmv_coverage coo variant =
  let t, range = traced_spmv coo variant in
  Trace.coverage t ~range ~line_bytes:64

(* Short rows (degree ~3) against distance 8. *)
let short_row_matrix () =
  Generate.power_law ~seed:81 ~rows:3_000 ~cols:3_000 ~avg_deg:3 ~alpha:2.4 ()

let test_semantic_bound_covers () =
  let coo = short_row_matrix () in
  let covered, total =
    spmv_coverage coo
      (Pipeline.Asap { Asap.default with Asap.distance = 8 })
  in
  (* The whole-buffer bound misses only the first `distance` iterations'
     worth of lines; everything after is prefetched ahead across segment
     boundaries. *)
  check
    (Printf.sprintf "semantic covers most lines (%d/%d)" covered total)
    true
    (float_of_int covered /. float_of_int total > 0.9)

let test_segment_bound_undercovers () =
  let coo = short_row_matrix () in
  let sem, total =
    spmv_coverage coo
      (Pipeline.Asap { Asap.default with Asap.distance = 8 })
  in
  let seg, total' =
    spmv_coverage coo
      (Pipeline.Asap
         { Asap.default with Asap.distance = 8;
           bound_mode = Asap.Segment_local })
  in
  check "same demand footprint" true (total = total');
  (* With rows far shorter than the distance, the segment-local clamp can
     only ever prefetch each segment's last element — far less coverage. *)
  check
    (Printf.sprintf "segment-local covers less (%d < %d)" seg sem)
    true
    (seg < sem);
  check "segment-local misses a large fraction" true
    (float_of_int seg /. float_of_int total' < 0.8)

let test_baseline_no_prefetches () =
  let coo = short_row_matrix () in
  let t, (lo, hi) = traced_spmv coo Pipeline.Baseline in
  let covered, total = Trace.coverage t ~range:(lo, hi) ~line_bytes:64 in
  check "baseline never prefetches" true (covered = 0 && total > 0);
  (* SpMV reads c once per stored non-zero: the range is c's. *)
  let c_loads =
    List.length
      (List.filter
         (function
           | Trace.Load { addr; _ } -> addr >= lo && addr < hi
           | Trace.Store _ | Trace.Prefetch _ -> false)
         (Trace.events t))
  in
  check "one c load per non-zero" true
    (c_loads = Coo.nnz (Coo.sorted_dedup coo))

let test_trace_event_order () =
  (* Events appear in program order: for ASaP's site the step-1 crd
     prefetch precedes the bounded load which precedes the target
     prefetch, every iteration. *)
  let coo = Coo.of_triples ~rows:2 ~cols:2 [ (0, 0, 1.); (1, 1, 2.) ] in
  let t, _ =
    traced_spmv coo (Pipeline.Asap { Asap.default with Asap.distance = 2 })
  in
  let prefetches =
    List.filter
      (function Trace.Prefetch _ -> true | _ -> false)
      (Trace.events t)
  in
  (* Two sites executed (one nnz per row): 2 prefetches each. *)
  check "four prefetches traced" true (List.length prefetches = 4)

let test_late_cutoff () =
  (* coverage ~late:n only credits prefetches issued at least n time
     units ahead of the first demand touch: monotone non-increasing in n,
     unchanged at 0, and empty once the cutoff exceeds every lead. *)
  let t, range =
    traced_spmv (short_row_matrix ())
      (Pipeline.Asap { Asap.default with Asap.distance = 8 })
  in
  let cov late = fst (Trace.coverage ~late t ~range ~line_bytes:64) in
  let c0 = fst (Trace.coverage t ~range ~line_bytes:64) in
  check "late:0 = default" true (cov 0 = c0);
  check "covered at all" true (c0 > 0);
  check "cutoff monotone" true (cov 10 <= c0 && cov 100 <= cov 10);
  check "huge cutoff empties coverage" true (cov max_int = 0)

let test_trace_sink () =
  (* Trace as a first-class sink on the timing hierarchy: the same
     program-order event list, fed by Exec instead of a wrapped port. *)
  let coo = Coo.of_triples ~rows:2 ~cols:2 [ (0, 0, 1.); (1, 1, 2.) ] in
  let enc = Encoding.csr () in
  let t = Trace.create () in
  let cfg =
    Driver.Cfg.make ~machine
      ~variant:(Pipeline.Asap { Asap.default with Asap.distance = 2 })
      ~obs:(Trace.sink t) ()
  in
  let r = Driver.run cfg (Driver.Spmv enc) coo in
  let events = Trace.events t in
  let count p = List.length (List.filter p events) in
  let module Exec = Asap_sim.Exec in
  check "sink saw every demand load" true
    (count (function Trace.Load _ -> true | _ -> false)
     = Exec.Report.demand_loads r.Driver.report);
  check "sink saw every store" true
    (count (function Trace.Store _ -> true | _ -> false)
     = Exec.Report.demand_stores r.Driver.report);
  check "sink saw every sw prefetch" true
    (count (function Trace.Prefetch _ -> true | _ -> false)
     = Exec.Report.prefetch_instrs r.Driver.report)

let suite =
  [ Alcotest.test_case "semantic bound coverage" `Quick
      test_semantic_bound_covers;
    Alcotest.test_case "segment bound undercovers" `Quick
      test_segment_bound_undercovers;
    Alcotest.test_case "baseline clean" `Quick test_baseline_no_prefetches;
    Alcotest.test_case "trace order" `Quick test_trace_event_order;
    Alcotest.test_case "late cutoff" `Quick test_late_cutoff;
    Alcotest.test_case "trace as hierarchy sink" `Quick test_trace_sink ]
