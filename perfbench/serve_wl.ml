(* The two open-loop serving workloads. Arrivals follow a Zipf
   [Mix.hot_cold] trace on an exponential schedule in virtual time,
   routed over a 4-shard fleet whose bounded per-shard queues shed; the
   host replays the whole trace as one batch, from the JSONL file
   written in set-up to the replay's records.

   - serve_hot: read-only traffic, so after the first build of each
     fingerprint every request is a cache hit.
   - serve_churn: the same traffic plus a [Mix.update_stream] of
     streaming updates, each of which invalidates cached entries and
     forces rebuilds. *)

open Common
module Exec = Asap_sim.Exec
module Driver = Asap_core.Driver
module Request = Asap_serve.Request
module Mix = Asap_serve.Mix
module Router = Asap_serve.Router
module Build = Asap_serve.Build
module Config = Asap_serve.Config
module Scheduler = Asap_serve.Scheduler
module Slo = Asap_serve.Slo
module Registry = Asap_obs.Registry

type size = {
  profiles : unit -> Mix.profile list;
  requests : int;
  mean_gap_ms : float;        (* virtual inter-arrival mean *)
  updates : int;              (* per rank-2 matrix; 0 for read-only traffic *)
  ladder_requests : int;      (* trace length of each virtual_max_rps rung *)
}

(* serve_hot runs at ~91k requests per virtual second, below the
   fleet's ~105k saturation point so nothing sheds; serve_churn runs at
   80k and updates each of the mix's 7 rank-2 matrices twice. A replay
   of either takes one to three host seconds. The traces and ladder
   rungs are long enough that the seed's Zipf draw moves the exact
   metrics by a few percent at most. *)
let hot_full =
  { profiles = Mix.default_profiles; requests = 100_000; mean_gap_ms = 0.011;
    updates = 0; ladder_requests = 15_000 }

let churn_full =
  { profiles = Mix.default_profiles; requests = 10_000; mean_gap_ms = 0.0125;
    updates = 2; ladder_requests = 5_000 }

(* The benchmark's own test: a few small matrices instead of the default
   profiles, so a replay builds in milliseconds. *)
let tiny_profiles () =
  Mix.
    [ profile "powerlaw:300,4"; profile ~variant:`Tuned "powerlaw:300,4";
      profile ~variant:`Baseline "powerlaw:300,4";
      profile ~kernel:`Spmm "road:200,3"; profile ~format:"bsr4x4" "fem:20,4,2" ]

let hot_tiny =
  { profiles = tiny_profiles; requests = 300; mean_gap_ms = 0.02; updates = 0;
    ladder_requests = 200 }

let churn_tiny = { hot_tiny with requests = 200; updates = 1; ladder_requests = 150 }

let tenants = [ ("alpha", 3.); ("beta", 1.); ("gamma", 1.) ]

(* Four shards, builds on one domain (host timing of the settle loop
   stays comparable run to run), tuned requests decided by the cost
   model, and ahead-of-time specialized artefacts. *)
let config ~jobs =
  Config.(
    default |> with_shards 4 |> with_tune_mode `Model |> with_specialize true
    |> with_jobs jobs)

(* A request as [config] rewrites it before building. *)
let as_served (r : Request.t) =
  { r with Request.tune_mode = `Model; Request.specialize = true }

(* The mix's profiles over matrices generated from [seed]. With the
   profiles' own matrices, every seed would give serve_hot the same
   virtual p50 and p99 to the last digit. *)
let seeded_profiles size seed =
  List.map
    (fun p -> { p with Mix.p_matrix = Printf.sprintf "%s@%d" p.Mix.p_matrix seed })
    (size.profiles ())

(* Requests and updates merged in virtual-time order, as one stream.
   Each rank-2 matrix of the mix gets its own [Mix.update_stream] of
   [size.updates] updates, fired on a fixed schedule spread evenly over
   the trace (matrices interleaved): with the count and the times fixed,
   the rebuilds the updates force (SDDMM's dense output among them) do
   not swing with the seed. *)
let trace_items ~size ~seed ~mean_gap_ms =
  let profiles = seeded_profiles size seed in
  let reqs =
    Mix.hot_cold ~mean_gap_ms ~tenants ~seed ~n:size.requests profiles
  in
  let span_ms = float_of_int size.requests *. mean_gap_ms in
  let specs =
    List.sort_uniq String.compare
      (List.filter_map
         (fun p -> if p.Mix.p_kernel = `Ttv then None else Some p.Mix.p_matrix)
         profiles)
  in
  let nspecs = List.length specs in
  let total = nspecs * size.updates in
  let updates =
    if size.updates = 0 then []
    else
      List.concat
        (List.mapi
           (fun i spec ->
             Mix.update_stream ~seed:((seed * 31) + i) ~n:size.updates
               (List.filter (fun p -> p.Mix.p_matrix = spec) profiles)
             |> List.mapi (fun k u ->
                    let slot = (k * nspecs) + i in
                    { u with
                      Request.Update.u_id = Printf.sprintf "u%05d" slot;
                      u_at_ms =
                        span_ms *. float_of_int (slot + 1)
                        /. float_of_int (total + 1) }))
           specs)
      |> List.sort (fun a b ->
             Float.compare a.Request.Update.u_at_ms b.Request.Update.u_at_ms)
  in
  List.merge
    (fun a b ->
      let at = function
        | Request.Req r -> r.Request.arrival_ms
        | Request.Up u -> u.Request.Update.u_at_ms
      in
      Float.compare (at a) (at b))
    (List.map (fun r -> Request.Req r) reqs)
    (List.map (fun u -> Request.Up u) updates)

let line_of = function
  | Request.Req r -> Request.to_line r
  | Request.Up u -> Request.Update.to_line u

let setup ~size ~seed ~path () =
  let items = trace_items ~size ~seed ~mean_gap_ms:size.mean_gap_ms in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun it -> output_string oc (line_of it ^ "\n")) items);
  path

(* One replay: JSONL ingest, then the fleet run over the whole batch. *)
let replay tr ~jobs path =
  let items =
    span tr "serve.ingest" (fun () ->
        match Request.load_items path with
        | Ok items -> items
        | Error e -> failwith ("Request.load_items: " ^ e))
  in
  let reqs, updates = Request.split_items items in
  let rp =
    span tr "serve.run" (fun () -> Scheduler.run ~updates (config ~jobs) reqs)
  in
  (List.length items, reqs, updates, rp)

(* Requests shed, rejected or degraded count as failed, and so does any
   cache hit that served a wrong-version entry. *)
let check_replay tl label (rp : Scheduler.replayed) =
  let s = rp.Scheduler.rp_summary in
  tl.t_attempted <- tl.t_attempted + s.Slo.s_total;
  let bad = s.Slo.s_shed + s.Slo.s_degraded in
  if bad > 0 then begin
    tl.t_failed <- tl.t_failed + bad;
    if List.length tl.t_errors < 20 then
      tl.t_errors <-
        Printf.sprintf "%s: %d shed, %d degraded of %d requests" label
          s.Slo.s_shed s.Slo.s_degraded s.Slo.s_total
        :: tl.t_errors
  end;
  if s.Slo.s_stale_hits <> 0 then
    fail tl "%s: %d stale cache hits" label s.Slo.s_stale_hits

(* Digest of a replay's records. A record's line carries a checksum of
   its outputs, which costs a pass over them; records sharing a
   fingerprint share one built entry, so only the first record of each
   fingerprint is rendered whole and the rest without their result
   (their cycles still enter). *)
let records_digest (rp : Scheduler.replayed) =
  let seen = Hashtbl.create 64 in
  let b = Buffer.create 4096 in
  Array.iter
    (fun (r : Scheduler.record) ->
      (match r.Scheduler.r_result with
       | Some res when Hashtbl.mem seen r.Scheduler.r_fp ->
         Buffer.add_string b
           (Scheduler.record_to_line { r with Scheduler.r_result = None });
         Buffer.add_string b
           (string_of_int (Exec.Report.cycles res.Driver.report))
       | _ ->
         Hashtbl.replace seen r.Scheduler.r_fp ();
         Buffer.add_string b (Scheduler.record_to_line r));
      Buffer.add_char b '\n')
    rp.Scheduler.rp_records;
  Digest.to_hex (Digest.string (Buffer.contents b))

let served (rp : Scheduler.replayed) =
  Array.to_list rp.Scheduler.rp_records
  |> List.filter_map (fun r -> r.Scheduler.r_result)

(* Highest arrival rate on a fixed ladder of mean gaps (5% apart, from
   20k to ~400k requests per virtual second) at which a trace of
   [ladder_requests] is served with nothing shed or degraded and a
   virtual p99 within [limit_ms]; 0 when even the slowest rung fails.
   Passing is monotone in the rate, so the ladder is bisected. The
   update count shrinks with the trace, keeping churn's update rate. *)
let ladder = Array.init 62 (fun k -> 0.05 *. (0.95 ** float_of_int k))

let virtual_max_rps ~size ~seed ~limit_ms =
  let size =
    { size with
      requests = size.ladder_requests;
      updates =
        (if size.updates = 0 then 0
         else max 1 (size.updates * size.ladder_requests / size.requests)) }
  in
  let passes k =
    let reqs, updates =
      Request.split_items (trace_items ~size ~seed ~mean_gap_ms:ladder.(k))
    in
    Gc.full_major ();
    let s = (Scheduler.run ~updates (config ~jobs:1) reqs).Scheduler.rp_summary in
    s.Slo.s_shed = 0 && s.Slo.s_degraded = 0
    && match s.Slo.s_p99_ms with Some p -> p <= limit_ms | None -> false
  in
  (* Invariant: rung [lo] passes (or lo = -1), rung [hi] fails (or
     hi = length). *)
  let rec bisect lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if passes mid then bisect mid hi else bisect lo mid
  in
  match bisect (-1) (Array.length ladder) with
  | -1 -> 0.
  | k -> 1000. /. ladder.(k)

(* ASaP's gain on the served mix: for each distinct ASaP or tuned
   request, as the fleet serves it, its baseline fallback's cycles over
   its own, both built on the base matrix. *)
let asap_speedup reqs =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun r ->
      let r = as_served r in
      let fp = Request.fingerprint r in
      if Hashtbl.mem seen fp || not (List.mem r.Request.variant [ `Asap; `Tuned ])
      then None
      else begin
        Hashtbl.add seen fp ();
        let coo =
          match Asap_workloads.Generate.of_spec r.Request.matrix with
          | Ok c -> c
          | Error e -> invalid_arg e
        in
        let cycles q = Exec.Report.cycles (Build.result (Build.build q coo)).Driver.report in
        Some (float_of_int (cycles (Request.fallback r)) /. float_of_int (cycles r))
      end)
    reqs
  |> geomean

(* What the end-to-end metrics need from the reference replay, kept
   instead of its records: a replay holds every built entry's outputs
   (SDDMM's dense d_i x d_j among them), so only one is alive at once. *)
type reference = {
  summary : Slo.summary;
  digest : string;             (* records_digest *)
  instrs : float;              (* summed over the served records *)
  nnz : float;
  cycles : float;
}

let reference (rp : Scheduler.replayed) =
  let sum f =
    List.fold_left (fun a r -> a +. float_of_int (f r)) 0. (served rp)
  in
  { summary = rp.Scheduler.rp_summary;
    digest = records_digest rp;
    instrs = sum (fun r -> Exec.Report.instructions r.Driver.report);
    nnz = sum (fun r -> r.Driver.nnz);
    cycles = sum (fun r -> Exec.Report.cycles r.Driver.report) }

let e2e ~size ~seed ~limit_ms ~setup_s ~(first : reference) ~reqs timed =
  let s = first.summary in
  (* Replay times scaled to the reference host speed. *)
  let scale = Calib.scale () in
  let wall_s =
    Array.of_list (List.map (fun (_, ns) -> float_of_int ns /. 1e9 *. scale) timed)
  in
  let per_s x = median (Array.map (fun w -> x /. w) wall_s) in
  let wall_ms = Array.map (fun w -> w *. 1000.) wall_s in
  [ ("setup_s", setup_s);
    ("sim_minstr_per_s", per_s (first.instrs /. 1e6));
    ("nnz_per_s", per_s first.nnz);
    ("job_ms_p50", hd_quantile wall_ms 0.5);
    ("job_ms_p90", hd_quantile wall_ms 0.9);
    ("virtual_cycles", first.cycles);
    ("asap_speedup", asap_speedup reqs);
    ("replay_rps", per_s (float_of_int s.Slo.s_total));
    ("virtual_p50_ms", s.Slo.s_p50_ms);
    ("virtual_p99_ms", Option.value ~default:0. s.Slo.s_p99_ms);
    ("virtual_max_rps", virtual_max_rps ~size ~seed ~limit_ms);
    ("peak_rss_mb", peak_rss_mb ()) ]

(* --- The traced run -------------------------------------------------- *)

(* The matrix a request is served on: its spec generated, with the
   updates to that matrix that fired at or before its arrival applied in
   order. Returns that count (the version) with the matrix; each
   (matrix, version) is made once. *)
let served_matrix tr (updates : Request.Update.t list) =
  let upd =
    List.stable_sort
      (fun a b -> Float.compare a.Request.Update.u_at_ms b.Request.Update.u_at_ms)
      updates
  in
  let base = Hashtbl.create 16 and versions = Hashtbl.create 16 in
  fun (r : Request.t) ->
    let m = r.Request.matrix in
    let mine = List.filter (fun u -> String.equal u.Request.Update.u_matrix m) upd in
    let v =
      List.length
        (List.filter (fun u -> u.Request.Update.u_at_ms <= r.Request.arrival_ms) mine)
    in
    match Hashtbl.find_opt versions (m, v) with
    | Some c -> (v, c)
    | None ->
      let b =
        match Hashtbl.find_opt base m with
        | Some c -> c
        | None ->
          let c = Sim_wl.generate tr m in
          Hashtbl.add base m c;
          c
      in
      let c =
        List.fold_left
          (fun c u -> Request.Update.apply u c)
          b (List.filteri (fun k _ -> k < v) mine)
      in
      Hashtbl.add versions (m, v) c;
      (v, c)

(* Each distinct served entry's outputs against the independent
   reference ([Driver.check_*]), on the matrix version it was built
   for; a miss or a raise is one labelled failure. *)
let check_served tl (rp : Scheduler.replayed) updates =
  let matrix = served_matrix None updates in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun (r : Scheduler.record) ->
      match r.Scheduler.r_result with
      | Some res when not (Hashtbl.mem seen r.Scheduler.r_fp) ->
        Hashtbl.add seen r.Scheduler.r_fp ();
        let q = r.Scheduler.r_req in
        ignore
          (guard tl r.Scheduler.r_fp (fun () ->
               let _, coo = matrix q in
               let err =
                 match q.Request.kernel with
                 | `Spmv -> Sim_wl.check Sim_wl.Spmv coo res
                 | `Spmm -> Sim_wl.check Sim_wl.Spmm coo res
                 | `Sddmm -> Sim_wl.check Sim_wl.Sddmm coo res
                 | `Ttv -> Driver.check_ttv coo res
               in
               if not (err <= Sim_wl.tolerance) then
                 fail tl "%s: max |err| %g against the reference" r.Scheduler.r_fp err))
      | _ -> ())
    rp.Scheduler.rp_records

(* Re-time from outside, at one domain, what [Scheduler.run] does inside
   for the same inputs: generate each matrix, bring it to each version
   the updates create, pack each (matrix, version, format) once and
   build each distinct versioned fingerprint once. Returns the built
   entries. *)
let rebuild tr (reqs : Request.t list) (updates : Request.Update.t list) =
  let matrix = served_matrix tr updates in
  let packs = Hashtbl.create 16 and built = Hashtbl.create 64 in
  List.iter
    (fun (r : Request.t) ->
      let r = as_served r in
      let v, coo = matrix r in
      let key = (Request.fingerprint r, v) in
      if not (Hashtbl.mem built key) then begin
        let st =
          match Request.encoding_of_format r.Request.kernel r.Request.format with
          | Some enc when r.Request.kernel <> `Ttv ->
            let fmt = if r.Request.format = "bsr" then "bsr4x4" else r.Request.format in
            let pkey = (r.Request.matrix, v, fmt) in
            (match Hashtbl.find_opt packs pkey with
             | Some st -> Some st
             | None ->
               let family =
                 List.find_opt
                   (fun f -> String.starts_with ~prefix:f fmt)
                   Sim_wl.pack_families
                 |> Option.value ~default:fmt
               in
               let st = Sim_wl.pack tr family enc coo in
               Hashtbl.add packs pkey st;
               Some st)
          | _ -> None
        in
        let e = span tr "serve.build" (fun () -> Build.build ?st r coo) in
        Hashtbl.add built key e
      end)
    reqs;
  Hashtbl.fold (fun _ e acc -> e :: acc) built []

let traced ~path tl =
  let _, _, updates, first = replay None ~jobs:1 path in
  check_replay tl "warm replay" first;
  check_served tl first updates;
  let g0 = Gc.quick_stat () in
  ignore (replay None ~jobs:1 path);
  let g1 = Gc.quick_stat () in
  let (tr, (nitems, reqs, updates, rp)), w_t, overhead =
    trace_overhead
      (fun () -> ignore (replay None ~jobs:1 path))
      (fun () ->
        let tr = tracer () in
        (tr, replay (Some tr) ~jobs:1 path))
  in
  check_replay tl "traced replay" rp;
  let wt = float_of_int w_t in
  let nreq = float_of_int (List.length reqs) in
  (* Routing cost: the consistent-hash lookup of every request's
     fingerprint on the fleet's ring. *)
  let router = Router.create ~shards:(config ~jobs:1).Config.shards () in
  let fps = List.map Request.fingerprint reqs in
  let (), route_ns =
    timed (fun () -> List.iter (fun fp -> ignore (Router.shard_of router fp)) fps)
  in
  let btr = sub tr in
  let entries = rebuild (Some btr) reqs updates in
  let ns t name = float_of_int (layer_ns t name) in
  let packs f =
    List.fold_left (fun a p -> a +. f ("tensor.pack." ^ p)) 0. Sim_wl.pack_families
  in
  let pack_ns = packs (ns btr) and pack_nnz = packs (work btr) in
  let build_ns = ns btr "serve.build" in
  let settle_ns = ns tr "serve.run" -. build_ns -. pack_ns -. ns btr "workloads.generate" in
  let reg = rp.Scheduler.rp_registry and s = rp.Scheduler.rp_summary in
  let c name = float_of_int (Registry.find reg name) in
  let nentries = float_of_int (List.length entries) in
  ("workloads.generate.ms", ms_of_ns (layer_ns btr "workloads.generate"))
  :: List.map
      (fun p ->
        let l = "tensor.pack." ^ p in
        (l ^ ".ns_per_nnz", ratio (ns btr l) (work btr l)))
      [ "csr"; "dcsr"; "bsr" ]
  @ [ ("tensor.pack.share", pack_ns /. wt);
    ("tensor.pack.alloc_words_per_nnz", ratio (packs (layer_alloc btr)) pack_nnz);
    ("serve.ingest.us_per_line", ns tr "serve.ingest" /. 1e3 /. float_of_int nitems);
    ("serve.ingest.share", ns tr "serve.ingest" /. wt);
    ("serve.route.ns_per_req", float_of_int route_ns /. nreq);
    ("serve.settle.us_per_req", settle_ns /. 1e3 /. nreq);
    ("serve.settle.share", settle_ns /. wt);
    ("serve.build.ms_per_entry", ratio (build_ns /. 1e6) nentries);
    ("serve.build.share", build_ns /. wt);
    ("serve.builds", float_of_int s.Slo.s_builds);
    ("serve.pack.hit_rate", ratio (c "serve.pack.hit") (c "serve.pack.hit" +. c "serve.pack.miss"));
    ("serve.spec.hit_rate", ratio (c "serve.spec.hit") (c "serve.spec.hit" +. c "serve.spec.miss"));
    ("serve.tune.model_decisions", c "serve.tune.model_decisions");
    ("serve.cache.invalidated", float_of_int s.Slo.s_invalidated);
    ("serve.cache.hit_rate", Slo.hit_rate s);
    ("serve.steals", float_of_int s.Slo.s_steals);
    ("serve.batches", float_of_int s.Slo.s_batches);
    ("serve.queue.peak", float_of_int s.Slo.s_queue_peak);
    ("serve.cache.stale_hit", float_of_int s.Slo.s_stale_hits) ]
  @ Sim_wl.model_counters (List.map (fun e -> (Build.result e).Driver.report) entries)
  @ [ ( "gc.major_collections",
        float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
      ("gc.minor_words_per_job", g1.Gc.minor_words -. g0.Gc.minor_words);
      ("trace.overhead", overhead) ]
  |> fun metrics -> (metrics, tr)

let run ~size ~seed ~seconds ~trace ~dir ~limit_ms =
  let tl = tally () in
  let path = Filename.concat dir "trace.jsonl" in
  if trace then begin
    ignore (setup ~size ~seed ~path ());
    let metrics, tr = traced ~path tl in
    (tl, metrics, Some tr)
  end
  else begin
    let path, setup_s = setup_median (setup ~size ~seed ~path) in
    let reqs, first =
      let _, reqs, updates, rp = replay None ~jobs:1 path in
      check_replay tl "replay jobs=1" rp;
      check_served tl rp updates;
      (reqs, reference rp)
    in
    (* Host domains only speed up the build pass: the records of a
       replay must not depend on them. *)
    Gc.full_major ();
    ignore
      (guard tl "replay jobs=2" (fun () ->
           let _, _, _, par = replay None ~jobs:2 path in
           if records_digest par <> first.digest then
             fail tl "replay records differ between jobs=1 and jobs=2"));
    (* A replay that raises is one labelled failure, and its time is
       left out. *)
    let timed =
      rounds ~seconds (fun () ->
          guard tl "timed replay" (fun () ->
              let _, _, _, rp = replay None ~jobs:1 path in
              check_replay tl "timed replay" rp;
              if rp.Scheduler.rp_summary <> first.summary then
                fail tl "replay summary not repeatable"))
      |> List.filter_map (fun (r, ns) -> Option.map (fun () -> ((), ns)) r)
    in
    (tl, e2e ~size ~seed ~limit_ms ~setup_s ~first ~reqs timed, None)
  end
