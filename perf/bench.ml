(* The simulator's benchmark: one workload per run, timed in host time,
   checked in virtual time. See README.md in this directory.

     bench --workload pods|fuzz|paper --seed N --seconds S --trace 0|1

   --trace 0 runs untraced and reports the end-to-end metrics; --trace 1
   adds a traced pass and the probes and reports the per-layer metrics.
   The last line of standard output is the JSON result. *)

open Obs
open Workloads

type kind = Host | Virt | Ratio

(* name, unit, kind. The end-to-end set every workload reports, in
   BENCHMARK.json order. *)
let end_to_end =
  [
    ("wall_s", "s", Host);
    ("events_per_s", "1/s", Host);
    ("setup_s", "s", Host);
    ("peak_heap_mb", "MB", Host);
    ("completed_per_s", "1/s", Virt);
    ("latency_p50_ms", "ms", Virt);
    ("latency_p99_ms", "ms", Virt);
    ("ok_frac", "ratio", Ratio);
    ("wire_kb_per_op", "KB", Virt);
  ]

let per_layer =
  [
    ("engine.events", "count", Virt);
    ("engine.minor_words_per_event", "words", Host);
    ("engine.ns_per_event_probe", "ns", Host);
    ("proc.ns_per_sleep_probe", "ns", Host);
    ("cpu.slices", "count", Virt);
    ("cpu.ns_per_slice_probe", "ns", Host);
    ("cpu.est_host_s", "s", Host);
    ("ethernet.frames_sent", "count", Virt);
    ("ethernet.deliveries_per_frame", "ratio", Virt);
    ("ethernet.frames_dropped", "count", Virt);
    ("ethernet.ns_per_delivery_probe", "ns", Host);
    ("ethernet.est_host_s", "s", Host);
    ("kernel.sends", "count", Virt);
    ("kernel.group_sends", "count", Virt);
    ("kernel.retransmissions", "count", Virt);
    ("kernel.retx_ratio", "ratio", Virt);
    ("kernel.where_is", "count", Virt);
    ("kernel.ns_per_send_probe", "ns", Host);
    ("kernel.est_host_s", "s", Host);
    ("transfer.bytes_shipped", "bytes", Virt);
    ("transfer.bytes_saved", "bytes", Virt);
    ("transfer.chunk_hit_ratio", "ratio", Virt);
    ("transfer.manifest_bytes", "bytes", Virt);
    ("transfer.ns_per_lookup_probe", "ns", Host);
    ("migration.started", "count", Virt);
    ("migration.commit_ratio", "ratio", Virt);
    ("migration.aborts", "count", Virt);
    ("migration.precopy_rounds", "rounds", Virt);
    ("migration.host_ms_per_migration", "ms", Host);
    ("migration.freeze_p50_ms", "ms", Virt);
    ("migration.freeze_p99_ms", "ms", Virt);
    ("migration.freeze_samples", "count", Virt);
    ("placement.selections", "count", Virt);
    ("placement.timeouts", "count", Virt);
    ("placement.bids_per_selection", "ratio", Virt);
    ("health.probes", "count", Virt);
    ("health.transitions", "count", Virt);
    ("health.false_suspicions", "count", Virt);
    ("file_server.loads", "count", Virt);
    ("file_server.img_chunk_hit_ratio", "ratio", Virt);
    ("serve.queue_wait_p50_ms", "ms", Virt);
    ("serve.mean_in_flight", "count", Virt);
    ("serve.mean_queued", "count", Virt);
    ("serve.sheds", "count", Virt);
    ("serve.scale_events", "count", Virt);
    ("tracer.events", "count", Virt);
    ("monitors.ns_per_event_probe", "ns", Host);
    ("trace.overhead_pct", "%", Host);
    ("faults.fired", "count", Virt);
    ("run.latency_samples", "count", Virt);
    ("run.unattributed_s", "s", Host);
    ("paper.err_pct", "%", Ratio);
  ]

let ratio a b = if b = 0. then 0. else a /. b
let pct s p = if Stats.Summary.count s = 0 then 0. else Stats.Summary.percentile s p

(* {1 One run} *)

type run = {
  cases : case array;
  first : obs array;  (** Each case's measured execution. *)
  walls : float list array;
      (** Normalised host seconds of every untraced execution. *)
  raw_s : float;  (** Raw host seconds of the measured pass. *)
  acc : Acc.t;
  events : int;
  minor_words : float;
  peak_words : int;
  mutable drift : string list;
}

let measure (w : Workloads.t) ~seed =
  let cases = Array.of_list (w.cases ~seed) in
  let acc = Acc.create () in
  Gc.compact ();
  let mw0 = Gc.minor_words () in
  let walls = Array.make (Array.length cases) [] in
  let raw_s = ref 0. in
  let first =
    Array.mapi
      (fun i c ->
        let o, raw, norm = Speed.timed (fun () -> c.run ~traced:false acc) in
        raw_s := !raw_s +. raw;
        walls.(i) <- [ norm ];
        o)
      cases
  in
  let minor_words = Gc.minor_words () -. mw0 in
  w.finish acc;
  {
    cases;
    first;
    walls;
    raw_s = !raw_s;
    acc;
    events = Array.fold_left (fun a (o : obs) -> a + o.events) 0 first;
    minor_words;
    peak_words = (Gc.quick_stat ()).Gc.top_heap_words;
    drift = [];
  }

let drift r i how =
  r.drift <-
    Printf.sprintf "determinism: %s did not reproduce exactly (%s)" r.cases.(i).label how
    :: r.drift

(* Executes cases again, in order, until the run has measured for
   [seconds] — at least one. Each must reproduce its fingerprint. *)
let repeat r ~t_start ~seconds =
  let n = Array.length r.cases in
  let i = ref 0 in
  while !i = 0 || now () -. t_start < seconds do
    let k = !i mod n in
    let o, _, norm = Speed.timed r.cases.(k).again in
    r.walls.(k) <- norm :: r.walls.(k);
    if o.fp <> r.first.(k).fp then drift r k "re-executed";
    incr i
  done

(* The traced pass: every case again, on tracing clusters with the
   subscriber attached and spans around the benchmark's calls. Returns
   its accumulator and normalised host seconds. *)
let traced r (w : Workloads.t) =
  let acc = Acc.create () in
  Span.on := true;
  let dt = ref 0. in
  Array.iteri
    (fun i c ->
      let o, _, norm =
        Speed.timed (fun () -> Span.around "case" (fun () -> c.run ~traced:true acc))
      in
      dt := !dt +. norm;
      if o.fp ^ o.extra <> r.first.(i).fp ^ r.first.(i).extra then drift r i "traced")
    r.cases;
  let dt = !dt in
  Span.on := false;
  w.finish acc;
  (acc, dt)

(* One build of every case's clusters and sessions, without running
   them, in normalised host seconds. *)
let setup_once r =
  Gc.compact ();
  let (), _, norm = Speed.timed (fun () -> Array.iter (fun c -> c.setup ()) r.cases) in
  norm

(* One execution's worth of host time: each case's median. *)
let wall_s r = Array.fold_left (fun a ws -> a +. median ws) 0. r.walls

(* {1 Metrics} *)

(* The end-to-end metrics, then the workload-specific ones,
   which are printed but stay out of the JSON: the result carries the
   same metric set on every workload. *)
let end_to_end_values r ~setup =
  let a = r.acc in
  let wall = wall_s r in
  let failed = a.Acc.refused + List.length a.Acc.failures + List.length r.drift in
  let fail_frac = ratio (float_of_int failed) (float_of_int a.Acc.attempted) in
  ( [
      ("wall_s", wall);
      ("events_per_s", float_of_int r.events /. wall);
      ("setup_s", setup);
      ("peak_heap_mb", float_of_int (r.peak_words * (Sys.word_size / 8)) /. 1048576.);
      ("completed_per_s", ratio (float_of_int a.Acc.completed) a.Acc.virt_s);
      ("latency_p50_ms", pct a.Acc.latency 50.);
      ("latency_p99_ms", pct a.Acc.latency 99.);
      ("ok_frac", 1. -. fail_frac);
      ("wire_kb_per_op", ratio (float_of_int a.Acc.wire_bytes /. 1024.) (float_of_int a.Acc.wire_ops));
    ],
    [
      ("raw_pass_s", "s", Host, r.raw_s);
      ("host_speed", "ratio", Host, Speed.nominal /. median !Speed.samples);
      ("latency_samples", "count", Virt, float_of_int (Stats.Summary.count a.Acc.latency));
      ("freeze_p50_ms", "ms", Virt, pct a.Acc.freeze 50.);
      ("freeze_p99_ms", "ms", Virt, pct a.Acc.freeze 99.);
      ("freeze_samples", "count", Virt, float_of_int (Stats.Summary.count a.Acc.freeze));
      ("fail_frac", "ratio", Ratio, fail_frac);
    ]
    @ if paper_ran a then [ ("paper_err_pct", "%", Ratio, paper_err_pct a) ] else [] )

let per_layer_values r ~(tacc : Acc.t) ~overhead ~probes =
  let g = Acc.get tacc in
  let probe k = List.assoc k probes in
  let est count k = count *. probe k *. 1e-9 in
  let cpu_est = est (g "cpu.slices") "cpu.ns_per_slice_probe" in
  let eth_est = est (g "ethernet.frames_delivered") "ethernet.ns_per_delivery_probe" in
  let ker_est = est (g "kernel.sends") "kernel.ns_per_send_probe" in
  let started = g "migration.started" in
  [
    ("engine.events", float_of_int r.events);
    ("engine.minor_words_per_event", r.minor_words /. float_of_int r.events);
    ("cpu.slices", g "cpu.slices");
    ("cpu.est_host_s", cpu_est);
    ("ethernet.frames_sent", g "ethernet.frames_sent");
    ("ethernet.deliveries_per_frame", ratio (g "ethernet.frames_delivered") (g "ethernet.frames_sent"));
    ("ethernet.frames_dropped", g "ethernet.frames_dropped");
    ("ethernet.est_host_s", eth_est);
    ("kernel.sends", g "kernel.sends");
    ("kernel.group_sends", g "kernel.group_sends");
    ("kernel.retransmissions", g "kernel.retransmissions");
    ("kernel.retx_ratio", ratio (g "kernel.retransmissions") (g "kernel.sends"));
    ("kernel.where_is", g "kernel.where_is");
    ("kernel.est_host_s", ker_est);
    ("transfer.bytes_shipped", g "kernel.xfer_bytes_shipped");
    ("transfer.bytes_saved", g "kernel.xfer_bytes_saved");
    ( "transfer.chunk_hit_ratio",
      ratio (g "kernel.xfer_chunks_hit") (g "kernel.xfer_chunks_hit" +. g "kernel.xfer_chunks_miss") );
    ("transfer.manifest_bytes", g "kernel.xfer_manifest_bytes");
    ("migration.started", started);
    ("migration.commit_ratio", ratio (g "migration.committed") started);
    ("migration.aborts", g "migration.aborts");
    ("migration.precopy_rounds", ratio (g "migration.rounds") started);
    ("migration.host_ms_per_migration", ratio (1000. *. g "migration.host_s") started);
    ("migration.freeze_p50_ms", pct tacc.Acc.freeze 50.);
    ("migration.freeze_p99_ms", pct tacc.Acc.freeze 99.);
    ("migration.freeze_samples", float_of_int (Stats.Summary.count tacc.Acc.freeze));
    ("placement.selections", g "placement.selections");
    ("placement.timeouts", g "placement.timeouts");
    ("placement.bids_per_selection", ratio (g "placement.bids") (g "placement.selects"));
    ("health.probes", g "health.probes");
    ("health.transitions", g "health.transitions");
    ("health.false_suspicions", g "health.false_suspicions");
    ("file_server.loads", g "file_server.loads");
    ( "file_server.img_chunk_hit_ratio",
      ratio (g "kernel.img_chunks_hit") (g "kernel.img_chunks_hit" +. g "kernel.img_chunks_miss") );
    ("serve.queue_wait_p50_ms", pct tacc.Acc.queue_wait 50.);
    ("serve.mean_in_flight", ratio (g "serve.mean_in_flight") (g "serve.sessions"));
    ("serve.mean_queued", ratio (g "serve.mean_queued") (g "serve.sessions"));
    ("serve.sheds", g "serve.sheds");
    ("serve.scale_events", g "serve.scale_events");
    ("tracer.events", g "tracer.events");
    ("trace.overhead_pct", overhead);
    ("faults.fired", g "faults.fired");
    ("run.latency_samples", float_of_int (Stats.Summary.count tacc.Acc.latency));
    ("run.unattributed_s", wall_s r -. cpu_est -. eth_est -. ker_est);
    ("paper.err_pct", if paper_ran tacc then paper_err_pct tacc else 0.);
  ]
  @ probes

(* {1 Output} *)

(* Shortest decimal that reads back as the same float. *)
let num f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  if Float.is_finite f then go 6 else "null"

let result ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
          metrics))

(* The metric names BENCHMARK.json declares for this mode, when the run
   is in a checkout that has one. *)
let declared ~trace =
  if not (Sys.file_exists "BENCHMARK.json") then None
  else
    let ic = open_in_bin "BENCHMARK.json" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json_min.parse s with
    | Error _ -> Some []
    | Ok j -> (
        match Json_min.member (if trace then "per_layer" else "end_to_end") j with
        | Some (Json_min.Arr ms) ->
            Some
              (List.filter_map
                 (fun m ->
                   match Json_min.member "name" m with
                   | Some (Json_min.Str n) -> Some n
                   | _ -> None)
                 ms)
        | _ -> Some [])

let kind_tag = function Host -> "host" | Virt -> "virt" | Ratio -> ""

let print_table title rows =
  Printf.printf "-- %s\n" title;
  List.iter
    (fun (name, unit, kind, v) ->
      Printf.printf "  %-34s %16s %-6s %s\n" name (num v) unit (kind_tag kind))
    rows

let run ~workload ~seed ~seconds ~trace =
  let w =
    match List.find_opt (fun (w : Workloads.t) -> w.name = workload) Workloads.all with
    | Some w -> w
    | None ->
        Printf.eprintf "bench: unknown workload %S (pods, fuzz, paper)\n" workload;
        exit 2
  in
  let t_start = now () in
  let r = measure w ~seed in
  (* Set-up is timed five times, the first between the passes, so the
     median spans the run rather than one moment of host speed. *)
  let setup_first = setup_once r in
  let layer =
    if trace then begin
      let tacc, t_traced = traced r w in
      let overhead = 100. *. (t_traced -. wall_s r) /. wall_s r in
      Some (tacc, overhead)
    end
    else begin
      repeat r ~t_start ~seconds;
      None
    end
  in
  let setup = median (setup_first :: List.init 4 (fun _ -> setup_once r)) in
  let e2e, also = end_to_end_values r ~setup in
  let failures = List.rev r.acc.Acc.failures @ List.rev r.drift in
  let emitted, failures =
    match layer with
    | None ->
        let rows = List.map (fun (n, u, k) -> (n, u, k, List.assoc n e2e)) end_to_end in
        print_table (Printf.sprintf "%s seed %d: end to end" w.name seed) rows;
        print_table "also reported (not in the JSON)" also;
        if paper_ran r.acc then begin
          Printf.printf "-- paper column of EXPERIMENTS.md vs this run\n";
          List.iter
            (fun (what, paper, meas) ->
              Printf.printf "  %-34s %10.3f %10.3f\n" what paper meas)
            (paper_rows r.acc)
        end;
        (List.map (fun (n, u, _) -> (n, u, List.assoc n e2e)) end_to_end, failures)
    | Some (tacc, overhead) ->
        let probes = Probes.all () in
        let vals = per_layer_values r ~tacc ~overhead ~probes in
        let rows = List.map (fun (n, u, k) -> (n, u, k, List.assoc n vals)) per_layer in
        print_table (Printf.sprintf "%s seed %d: per layer (traced pass)" w.name seed) rows;
        Printf.printf "-- host-time spans: calls, total s, self s\n";
        List.iter
          (fun (name, (n, tot, self)) ->
            Printf.printf "  %-34s %8d %10.3f %10.3f\n" name n tot self)
          (Span.summary ());
        (try
           if not (Sys.file_exists "_perf") then Sys.mkdir "_perf" 0o755;
           Span.write (Printf.sprintf "_perf/spans-%s-%d.jsonl" w.name seed)
         with Sys_error e -> Printf.eprintf "bench: spans not written: %s\n" e);
        ( List.map (fun (n, u, _) -> (n, u, List.assoc n vals)) per_layer,
          failures @ List.rev tacc.Acc.failures )
  in
  let failures =
    match declared ~trace:(layer <> None) with
    | Some names when names <> List.map (fun (n, _, _) -> n) emitted ->
        failures @ [ "the metrics emitted differ from those BENCHMARK.json declares" ]
    | _ -> failures
  in
  List.iteri (fun i f -> if i < 20 then Printf.printf "CHECK FAILED: %s\n" f) failures;
  if List.length failures > 20 then
    Printf.printf "CHECK FAILED: ... and %d more\n" (List.length failures - 20);
  let checks = r.acc.Acc.checks in
  Printf.printf "-- %d check(s), %d failed; %d case(s); %.1f s measured\n" checks
    (List.length failures) (Array.length r.cases) (now () -. t_start);
  let attempted, unserved = w.ops r.acc in
  let correct = failures = [] in
  print_endline
    (result ~correct ~attempted ~failed:(unserved + List.length failures) emitted);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "pods|fuzz|paper");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  minimum measuring time");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced pass and per-layer metrics");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload pods|fuzz|paper --seed N --seconds S --trace 0|1";
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
