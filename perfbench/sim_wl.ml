(* The two closed-loop simulator workloads: one client issues the next
   job when the previous one has finished and been checked.

   - sweep: the paper-figure grid over matrices generated, packed and
     prepared once in set-up; a job is one [Driver.Prep.exec] plus its
     [Driver.check_*] against the independent dense reference.
   - cold: [asapc run -m file.mtx --check]-style jobs over Matrix Market
     files written in set-up; a job reads, packs, prepares, executes
     SpMV once and checks it. *)

open Common
module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Storage = Asap_tensor.Storage
module Matrix_market = Asap_tensor.Matrix_market
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Kernel = Asap_lang.Kernel
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Generate = Asap_workloads.Generate
module Registry = Asap_obs.Registry

(* Largest accepted max |err| against the reference, as `asapc run
   --check` uses. *)
let tolerance = 1e-6

type kernel = Spmv | Spmm | Sddmm

let kernel_name = function Spmv -> "spmv" | Spmm -> "spmm" | Sddmm -> "sddmm"
let asap = Pipeline.Asap Asap_prefetch.Asap.default
let aj = Pipeline.Ainsworth_jones Asap_prefetch.Ainsworth_jones.default

(* The prefetcher settings `asapc run` picks for each kernel. *)
let machine_for = function
  | Spmm -> Machine.gracemont_scaled ~hw:Machine.hw_optimized_spmm ()
  | Spmv | Sddmm -> Machine.gracemont_scaled ~hw:Machine.hw_optimized ()

let kernel_spec k enc =
  match k with
  | Spmv -> Driver.Spmv enc
  | Spmm -> Driver.Spmm enc
  | Sddmm -> Driver.Sddmm enc

(* SpMM's dense width and SDDMM's contraction depth: the Driver
   defaults (one cache line of f64). *)
let check k coo r =
  match k with
  | Spmv -> Driver.check_spmv coo r
  | Spmm -> Driver.check_spmm coo ~n:8 r
  | Sddmm -> Driver.check_sddmm coo ~kk:8 r

let generate tr spec =
  span tr "workloads.generate" (fun () ->
      match Generate.of_spec spec with
      | Ok coo -> coo
      | Error e -> invalid_arg ("Generate.of_spec " ^ spec ^ ": " ^ e))

(* Pack layers are named by format family: csr, dcsr, bsr (any block
   shape) and csc. *)
let pack_families = [ "csr"; "dcsr"; "bsr"; "csc" ]

let pack tr name enc coo =
  let layer = "tensor.pack." ^ name in
  let st = span tr layer (fun () -> Storage.pack enc coo) in
  add_work tr layer (float_of_int (Coo.nnz coo));
  st

let prepare tr cfg spec coo =
  span tr "sim.prepare" (fun () -> Driver.Prep.make cfg spec coo)

let execute tr prep =
  let r = span tr "sim.execute" (fun () -> Driver.Prep.exec prep) in
  let rp = r.Driver.report in
  add_work tr "sim.instrs" (float_of_int (Exec.Report.instructions rp));
  add_work tr "sim.loads" (float_of_int (Exec.Report.loads rp));
  r

(* --- Jobs, rounds and their metrics ---------------------------------- *)

(* One closed-loop job: runs under an optional tracer and returns the
   execution's report, the non-zeros it processed and its max error
   against the reference. *)
type job = {
  label : string;
  exec : tracer option -> Exec.report * int * float;
}

type obs = { o_ns : int; o_report : Exec.report; o_nnz : int }

let run_job tl tr j =
  tl.t_attempted <- tl.t_attempted + 1;
  let t0 = now_ns () in
  match guard tl j.label (fun () -> j.exec tr) with
  | None -> None
  | Some (rp, nnz, err) ->
    let ns = now_ns () - t0 in
    if not (err <= tolerance) then begin
      fail tl "%s: max |err| %g against the reference" j.label err;
      None
    end
    else Some { o_ns = ns; o_report = rp; o_nnz = nnz }

(* One round runs every job once. The simulator is deterministic, so a
   job whose cycles differ from the reference round is a failure. *)
let run_round tl tr ~(reference : obs option array) jobs =
  Array.mapi
    (fun i j ->
      let o = run_job tl tr j in
      (match (o, reference.(i)) with
       | Some a, Some b
         when Exec.Report.cycles a.o_report <> Exec.Report.cycles b.o_report ->
         fail tl "%s: %d cycles, %d in the first round" j.label
           (Exec.Report.cycles a.o_report) (Exec.Report.cycles b.o_report)
       | _ -> ());
      o)
    jobs

let present a = List.filter_map Fun.id (Array.to_list a)
let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let virtual_ms o =
  Machine.cycles_to_ms (Exec.Report.machine o.o_report)
    (Exec.Report.cycles o.o_report)

(* The end-to-end metrics of a simulator workload. [first] is the
   reference round (exact metrics come from it); [timed] are the
   measured rounds. Each host-time metric is computed per round and the
   median over rounds reported, so a stretch of a few seconds in which
   the host runs faster or slower than usual moves it only if it covers
   half the rounds; every host time is then scaled to the reference host
   speed ([Calib.scale]), which cancels longer stretches. Percentiles over
   jobs are Harrell-Davis estimates over each job's median host time
   across the rounds (a median over rounds of each round's percentile
   spread 0.12 over ten seeds on sweep, whose rounds are few and whose
   jobs differ in size a hundredfold). *)
let e2e ~setup_s ~asap_speedup ~(first : obs option array) timed =
  let rounds = List.map (fun (r, _) -> present r) timed in
  let scale = Calib.scale () in
  let over_rounds f = median (Array.of_list (List.map f rounds)) in
  let per_s work jobs =
    work jobs /. (sumf (fun o -> float_of_int o.o_ns) jobs /. 1e9)
  in
  let job_medians =
    Array.to_list
      (Array.mapi
         (fun i _ ->
           List.filter_map (fun (r, _) -> Option.map (fun o -> ms_of_ns o.o_ns) r.(i)) timed)
         first)
    |> List.filter_map (function [] -> None | ms -> Some (median (Array.of_list ms)))
    |> Array.of_list
  in
  let job_ms q = hd_quantile job_medians q *. scale in
  let first = present first in
  let vms = Array.of_list (List.map virtual_ms first) in
  let mean_vms = ratio (Array.fold_left ( +. ) 0. vms) (float_of_int (Array.length vms)) in
  [ ("setup_s", setup_s);
    ( "sim_minstr_per_s",
      over_rounds
        (per_s (sumf (fun o -> float_of_int (Exec.Report.instructions o.o_report) /. 1e6)))
      /. scale );
    ("nnz_per_s", over_rounds (per_s (sumf (fun o -> float_of_int o.o_nnz))) /. scale);
    ("job_ms_p50", job_ms 0.5);
    ("job_ms_p90", job_ms 0.9);
    ( "virtual_cycles",
      sumf (fun o -> float_of_int (Exec.Report.cycles o.o_report)) first );
    ("asap_speedup", asap_speedup);
    ( "replay_rps",
      over_rounds (per_s (fun l -> float_of_int (List.length l))) /. scale );
    ("virtual_p50_ms", hd_quantile vms 0.5);
    ("virtual_p99_ms", hd_quantile vms 0.99);
    ("virtual_max_rps", ratio 1000. mean_vms);
    ("peak_rss_mb", peak_rss_mb ()) ]

(* Modelled memory-system components summed over one round's reports:
   exact, and identical under any simulator-speed change. *)
let model_counters (reports : Exec.report list) =
  let reg = Registry.create () in
  List.iter
    (fun rp ->
      List.iter (fun (k, v) -> Registry.add reg k v) (Exec.Report.to_assoc rp))
    reports;
  let f name = float_of_int (Registry.find reg name) in
  let pf leaf = float_of_int (Registry.sum_prefix reg ~leaf "pf.") in
  let hw leaf = pf leaf -. f ("pf.sw." ^ leaf) in
  [ ("sim.l1.miss.demand", f "l1.miss.demand");
    ("sim.l2.mpki", ratio (1000. *. f "l2.miss.demand") (f "core.instructions"));
    ("sim.l3.miss.demand", f "l3.miss.demand");
    ("sim.dram.lines", f "dram.lines");
    ("sim.pf.sw.useful_ratio", ratio (f "pf.sw.useful") (f "pf.sw.issued"));
    ("sim.pf.hw.useful_ratio", ratio (hw "useful") (hw "issued"));
    ("sim.pf.hw.late_ratio", ratio (hw "late") (hw "issued"));
    ("sim.pf.drop.no_mshr", pf "drop.no_mshr") ]

let median_ns ~reps f =
  median (Array.init reps (fun _ -> float_of_int (snd (timed f))))

(* [compile_probe encs] times a standalone [Pipeline.compile] of ASaP
   SpMV per encoding ([Prep.make] compiles internally, so the job itself
   cannot be split): mean ms per compile and the entry pass's mean ns
   (the ASaP hook runs inside [sparsify] and has no time of its own). *)
let compile_probe encs =
  let reg = Registry.create () in
  let reps = 3 in
  let ns =
    List.map
      (fun enc ->
        median_ns ~reps (fun () ->
            ignore (Pipeline.compile ~registry:reg (Kernel.spmv ~enc ()) asap)))
      encs
  in
  let calls = float_of_int (reps * List.length encs) in
  ( sumf Fun.id ns /. float_of_int (List.length encs) /. 1e6,
    [ ("pass.sparsify.ns", float_of_int (Registry.find reg "pass.sparsify.ns") /. calls) ] )

(* Host ms that specialization adds to [Prep.make], per preparation:
   the median over alternating pairs of the difference between a
   [Prep.make] with specialization and one without, so drift in host
   speed cancels. On large matrices the difference is small against
   [Prep.make]'s own noise and can read slightly below 0. *)
let specialize_probe preps =
  let cost (cfg, spec, coo) =
    let make s () =
      ignore (Driver.Prep.make { cfg with Driver.Cfg.specialize = s } spec coo)
    in
    median
      (Array.init 9 (fun _ ->
           let (), on = timed (make true) in
           let (), off = timed (make false) in
           float_of_int (on - off)))
  in
  sumf cost preps /. float_of_int (max 1 (List.length preps)) /. 1e6

type probes = {
  compile : unit -> float * (string * float) list;
  specialize : unit -> float;
  execute : unit -> (string * float) list;
}

(* The traced run of a simulator workload: a warm round, an untraced
   round (its GC counts), untraced and traced rounds of the same jobs in
   alternation (the tracing overhead), then the per-layer metrics of the
   last traced round. [probes] adds the workload's own out-of-round
   measurements. Compile's share is the standalone compile time times
   the [Prep.make] calls in the round, each of which compiles once. *)
let traced ~setup_tr ~jobs ~probes tl =
  let none = Array.map (fun _ -> None) jobs in
  let first = run_round tl None ~reference:none jobs in
  let g0 = Gc.quick_stat () in
  ignore (run_round tl None ~reference:first jobs);
  let g1 = Gc.quick_stat () in
  let (tr, round), w_t, overhead =
    trace_overhead
      (fun () -> ignore (run_round tl None ~reference:first jobs))
      (fun () ->
        let tr = sub setup_tr in
        (tr, run_round tl (Some tr) ~reference:first jobs))
  in
  let obs = present round in
  let wt = float_of_int w_t in
  let ns name = float_of_int (layer_ns tr name) in
  (* Per-call figures come from the traced round when the round calls
     the layer, else from the traced set-up. *)
  let src name = if layer_ns tr name > 0 then tr else setup_tr in
  let per_work name work_name =
    let t = src name in
    ratio (float_of_int (layer_ns t name)) (work t work_name)
  in
  let per_call_ms name =
    let t = src name in
    ratio (ms_of_ns (layer_ns t name)) (float_of_int (layer_calls t name))
  in
  let pack_layer p = "tensor.pack." ^ p in
  let pack_sum f = sumf (fun p -> f (pack_layer p)) pack_families in
  let pack_src_sum f =
    sumf (fun p -> let l = pack_layer p in f (src l) l) pack_families
  in
  let compile_ms, pass_ns = probes.compile () in
  [ ("workloads.generate.ms", ms_of_ns (layer_ns setup_tr "workloads.generate"));
    ("tensor.mtx_read.ns_per_nnz", per_work "tensor.mtx_read" "tensor.mtx_read");
    ("tensor.mtx_read.share", ns "tensor.mtx_read" /. wt) ]
  @ List.map
      (fun p ->
        ("tensor.pack." ^ p ^ ".ns_per_nnz", per_work (pack_layer p) (pack_layer p)))
      [ "csr"; "dcsr"; "bsr" ]
  @ [ ("tensor.pack.share", pack_sum ns /. wt);
      ( "tensor.pack.alloc_words_per_nnz",
        ratio
          (pack_src_sum (fun t l -> layer_alloc t l))
          (pack_src_sum (fun t l -> work t l)) );
      ("compile.ms", compile_ms);
      ( "compile.share",
        compile_ms *. 1e6 *. float_of_int (layer_calls tr "sim.prepare") /. wt ) ]
  @ pass_ns
  @ [ ("sim.prepare.ms", per_call_ms "sim.prepare");
      ("sim.specialize.ms", probes.specialize ());
      ("sim.prepare.share", ns "sim.prepare" /. wt);
      ("sim.execute.ns_per_instr", ratio (ns "sim.execute") (work tr "sim.instrs"));
      ("sim.execute.ns_per_load", ratio (ns "sim.execute") (work tr "sim.loads"));
      ("sim.execute.share", ns "sim.execute" /. wt);
      ( "sim.execute.alloc_words_per_instr",
        ratio (layer_alloc tr "sim.execute") (work tr "sim.instrs") ) ]
  @ probes.execute ()
  @ model_counters (List.map (fun o -> o.o_report) obs)
  @ [ ("check.ms", per_call_ms "check");
      ("check.share", ns "check" /. wt);
      ( "gc.major_collections",
        float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
      ( "gc.minor_words_per_job",
        (g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int (Array.length jobs) );
      ("trace.overhead", overhead) ]
  |> fun metrics -> (metrics, setup_tr)

(* One run of a simulator workload: set-up, then either the traced run
   or a reference round (untimed warm-up; the exact metrics come from
   it) followed by timed rounds. *)
let run_workload ~trace ~seconds ~setup ~jobs ~speedup ~probes =
  let tl = tally () in
  if trace then begin
    let setup_tr = tracer () in
    let st = setup (Some setup_tr) () in
    let metrics, tr = traced ~setup_tr ~jobs:(jobs st) ~probes:(probes st) tl in
    (tl, metrics, Some tr)
  end
  else begin
    let st, setup_s = setup_median (setup None) in
    let js = jobs st in
    let first = run_round tl None ~reference:(Array.map (fun _ -> None) js) js in
    let timed = rounds ~seconds (fun () -> run_round tl None ~reference:first js) in
    (tl, e2e ~setup_s ~asap_speedup:(speedup st first) ~first timed, None)
  end

(* --- sweep ----------------------------------------------------------- *)

type size = {
  big : (string * string) list;     (* family, Generate spec: SpMV/SpMM/BSR *)
  sddmm : (string * string) list;   (* family, spec: SDDMM (dense d_i x d_j) *)
}

(* Uniform and power-law matrices above the modelled 1 MB L3 (the
   paper's regime), banded with an odd order (BSR edge blocks clamp) and
   an even one (they divide), one matrix inside L3, and two SDDMM
   samples kept at 1000 rows because SDDMM allocates a dense d_i x d_j
   output. A round of the 51 cells takes about four host seconds. *)
let sweep_full =
  { big =
      [ ("uniform", "uniform:60000,24000");
        ("powerlaw", "powerlaw:22000,1");
        ("banded", "banded:9001,1");
        ("banded_even", "banded:9000,1");
        ("in_l3", "powerlaw:3000,3") ];
    sddmm = [ ("uniform", "uniform:1000,6000"); ("powerlaw", "powerlaw:1000,5") ] }

let sweep_tiny =
  { big = [ ("uniform", "uniform:600,1500"); ("banded_even", "banded:400,1") ];
    sddmm = [ ("powerlaw", "powerlaw:200,4") ] }

type cell = {
  c_label : string;
  c_kernel : kernel;
  c_enc : string;                  (* csr | bsr2x2 *)
  c_variant : string;              (* baseline | asap | asap+spec | aj *)
  c_coo : Coo.t;
  c_prep : Driver.Prep.t;
}

let with_seed spec seed = Printf.sprintf "%s@%d" spec seed

let sweep_setup ~size ~seed tr () =
  let csr = Encoding.csr () and bsr = Encoding.bsr ~bh:2 ~bw:2 () in
  let cells family coo k (enc_name, st) variants =
    List.map
      (fun (vname, variant, specialize) ->
        let enc = st.Storage.enc in
        let cfg =
          Driver.Cfg.make ~st ~specialize ~machine:(machine_for k) ~variant ()
        in
        { c_label =
            Printf.sprintf "%s/%s-%s/%s" family (kernel_name k) enc_name vname;
          c_kernel = k; c_enc = enc_name; c_variant = vname; c_coo = coo;
          c_prep = prepare tr cfg (kernel_spec k enc) coo })
      variants
  in
  let base = ("baseline", Pipeline.Baseline, false) in
  let asap_ = ("asap", asap, false) and spec = ("asap+spec", asap, true) in
  let big =
    List.concat_map
      (fun (family, spec_s) ->
        let coo = generate tr (with_seed spec_s seed) in
        let st_csr = ("csr", pack tr "csr" csr coo) in
        let st_bsr = ("bsr2x2", pack tr "bsr" bsr coo) in
        cells family coo Spmv st_csr [ base; asap_; ("aj", aj, false) ]
        @ cells family coo Spmm st_csr [ base; asap_; spec ]
        @ cells family coo Spmv st_bsr [ base; asap_; spec ])
      size.big
  in
  let sddmm =
    List.concat_map
      (fun (family, spec_s) ->
        let coo = generate tr (with_seed spec_s seed) in
        cells family coo Sddmm ("csr", pack tr "csr" csr coo) [ base; asap_; spec ])
      size.sddmm
  in
  Array.of_list (big @ sddmm)

let cell_job (c : cell) =
  { label = c.c_label;
    exec =
      (fun tr ->
        let r = execute tr c.c_prep in
        let err = span tr "check" (fun () -> check c.c_kernel c.c_coo r) in
        (r.Driver.report, c.c_prep |> Driver.Prep.nnz, err)) }

(* Geomean over the ASaP cells (generic and specialized) of their
   baseline cell's cycles over theirs. *)
let sweep_speedup cells (first : obs option array) =
  let group label = String.sub label 0 (String.rindex label '/') in
  let cycles = Hashtbl.create 64 in
  Array.iteri
    (fun i c ->
      Option.iter
        (fun o -> Hashtbl.replace cycles c.c_label (Exec.Report.cycles o.o_report))
        first.(i))
    cells;
  Array.to_list cells
  |> List.filter_map (fun c ->
         if c.c_variant <> "asap" && c.c_variant <> "asap+spec" then None
         else
           match
             ( Hashtbl.find_opt cycles (group c.c_label ^ "/baseline"),
               Hashtbl.find_opt cycles c.c_label )
           with
           | Some b, Some a when a > 0 -> Some (float_of_int b /. float_of_int a)
           | _ -> None)
  |> geomean

(* Host-time splits of execute on the SpMV-CSR cells: hardware
   prefetchers off against on, and the interpreter against bytecode. *)
let sweep_execute_probe cells () =
  let spmv =
    List.filter (fun c -> c.c_kernel = Spmv && c.c_enc = "csr")
      (Array.to_list cells)
  in
  let exec_ns p = median_ns ~reps:3 (fun () -> ignore (Driver.Prep.exec p)) in
  let remake c f =
    let cfg = Driver.Prep.cfg c.c_prep in
    Driver.Prep.make (f cfg) (Driver.Prep.spec c.c_prep) c.c_coo
  in
  let hw_off =
    { Machine.l1_nlp = false; l1_ipp = false; l2_nlp = false;
      mlc_streamer = false; l2_amp = false; llc_streamer = false }
  in
  let on, off, interp =
    List.fold_left
      (fun (on, off, interp) c ->
        let off_p =
          remake c (fun cfg ->
              { cfg with Driver.Cfg.machine = { cfg.Driver.Cfg.machine with Machine.hw = hw_off } })
        in
        let interp_p = remake c (fun cfg -> { cfg with Driver.Cfg.engine = `Interp }) in
        ( on +. exec_ns c.c_prep, off +. exec_ns off_p, interp +. exec_ns interp_p ))
      (0., 0., 0.) spmv
  in
  [ ("sim.execute.hwpf_share", 1. -. ratio off on);
    ("sim.execute.interp_ratio", ratio interp on) ]

let sweep ~size ~seed ~seconds ~trace =
  run_workload ~trace ~seconds ~setup:(sweep_setup ~size ~seed)
    ~jobs:(Array.map cell_job) ~speedup:sweep_speedup
    ~probes:(fun cells ->
      { compile =
          (fun () -> compile_probe [ Encoding.csr (); Encoding.bsr ~bh:2 ~bw:2 () ]);
        specialize =
          (fun () ->
            Array.to_list cells
            |> List.filter (fun c -> c.c_variant = "asap+spec")
            |> List.map (fun c ->
                   (Driver.Prep.cfg c.c_prep, Driver.Prep.spec c.c_prep, c.c_coo))
            |> specialize_probe);
        execute = sweep_execute_probe cells })

(* --- cold ------------------------------------------------------------ *)

(* Matrices written as Matrix Market files in set-up. The generators may
   emit one coordinate twice; the files hold one entry per coordinate,
   as real SuiteSparse files do, so [Matrix_market.read] accepts them. *)
let cold_full =
  [ ("uniform", "uniform:20000,24000"); ("powerlaw", "powerlaw:8000,3");
    ("banded", "banded:8001,1"); ("road", "road:8000,3") ]

let cold_tiny = [ ("uniform", "uniform:300,900"); ("banded", "banded:200,1") ]

let cold_encodings =
  [ ("csr", Encoding.csr ()); ("dcsr", Encoding.dcsr ());
    ("bsr", Encoding.bsr ~bh:2 ~bw:2 ()) ]

let cold_setup ~size ~seed ~dir tr () =
  List.map
    (fun (family, spec) ->
      let coo = generate tr (with_seed spec seed) in
      let path = Filename.concat dir (family ^ ".mtx") in
      Matrix_market.write path (Coo.sorted_dedup coo);
      (family, path))
    size

let cold_jobs files =
  List.concat_map
    (fun (family, path) ->
      List.map
        (fun (enc_name, enc) ->
          { label = Printf.sprintf "%s.mtx/%s" family enc_name;
            exec =
              (fun tr ->
                let coo =
                  span tr "tensor.mtx_read" (fun () -> Matrix_market.read path)
                in
                let nnz = Coo.nnz coo in
                add_work tr "tensor.mtx_read" (float_of_int nnz);
                let st = pack tr enc_name enc coo in
                let cfg =
                  Driver.Cfg.make ~st ~machine:(machine_for Spmv) ~variant:asap ()
                in
                let prep = prepare tr cfg (Driver.Spmv enc) coo in
                let r = execute tr prep in
                let err = span tr "check" (fun () -> Driver.check_spmv coo r) in
                (r.Driver.report, nnz, err)) })
        cold_encodings)
    files
  |> Array.of_list

(* Baseline against ASaP cycles per cold job, from baseline runs made
   outside the timed rounds. *)
let cold_speedup files (first : obs option array) =
  let jobs = Array.of_list (List.concat_map (fun f -> List.map (fun e -> (f, e)) cold_encodings) files) in
  Array.to_list
    (Array.mapi
       (fun i ((_, path), (_, enc)) ->
         match first.(i) with
         | None -> None
         | Some o ->
           let coo = Matrix_market.read path in
           let cfg =
             Driver.Cfg.make ~machine:(machine_for Spmv) ~variant:Pipeline.Baseline ()
           in
           let b = Driver.run cfg (Driver.Spmv enc) coo in
           Some
             (float_of_int (Exec.Report.cycles b.Driver.report)
             /. float_of_int (Exec.Report.cycles o.o_report)))
       jobs)
  |> List.filter_map Fun.id |> geomean

let cold ~size ~seed ~seconds ~trace ~dir =
  run_workload ~trace ~seconds ~setup:(cold_setup ~size ~seed ~dir)
    ~jobs:cold_jobs ~speedup:cold_speedup
    ~probes:(fun files ->
      { compile = (fun () -> compile_probe (List.map snd cold_encodings));
        specialize =
          (fun () ->
            List.concat_map
              (fun (_, path) ->
                let coo = Matrix_market.read path in
                List.map
                  (fun (_, enc) ->
                    ( Driver.Cfg.make ~st:(Storage.pack enc coo)
                        ~machine:(machine_for Spmv) ~variant:asap (),
                      Driver.Spmv enc, coo ))
                  cold_encodings)
              files
            |> specialize_probe);
        execute = (fun () -> []) })
