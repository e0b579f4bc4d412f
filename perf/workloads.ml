(* The three workloads. Each is a fixed list of cases derived from the
   benchmark seed; a case builds its own clusters, so cases share no
   state and any of them can be executed again to check that it
   reproduces exactly. *)

open Obs

type obs = {
  fp : string;  (** Counts and virtual values that [again] also reports. *)
  extra : string;  (** The rest, which only [run] reports. *)
  events : int;
}

type case = {
  label : string;
  setup : unit -> unit;
      (** Builds what [run] builds before the simulation advances, then
          drops it: the case's set-up cost. *)
  run : traced:bool -> Acc.t -> obs;
      (** The measured execution. [traced] creates tracing clusters with
          the benchmark's subscriber attached. *)
  again : unit -> obs;  (** An independent untraced re-execution. *)
}

type t = {
  name : string;
  cases : seed:int -> case list;
  finish : Acc.t -> unit;
      (** Pass-level correctness checks, once every case has run. *)
  ops : Acc.t -> int * int;
      (** Operations attempted and operations that did not succeed. *)
}

let requests acc = (acc.Acc.attempted, acc.Acc.refused)

let sec = Time.of_sec
let ms = Time.to_ms

(* Attach a fresh subscriber when tracing; the returned thunk folds its
   counts into the pass once the cluster's run is over. *)
let tap ~traced acc cl =
  if not traced then fun () -> ()
  else begin
    let t = Tap.create () in
    Tap.attach t (Cluster.tracer cl);
    fun () -> add_tap acc t
  end

(* {1 Serve sessions: shared by pods and fuzz} *)

(* Folds a drained session into the pass and checks its accounting.
   Latency is [m_submit_to_complete_ms]: a request is submitted by a
   shell spawned at its arrival instant, so it is timed from when the
   open-loop generator scheduled it. *)
let add_session acc ~label ~drained (m : Serve.Session.metrics) =
  let open Serve.Session in
  let unserved = m.m_rejected + m.m_shed + m.m_refused + m.m_failed + m.m_stuck in
  acc.Acc.attempted <- acc.Acc.attempted + m.m_submitted;
  acc.Acc.refused <- acc.Acc.refused + unserved;
  acc.Acc.completed <- acc.Acc.completed + m.m_completed;
  acc.Acc.wire_ops <- acc.Acc.wire_ops + m.m_completed;
  Acc.pool acc.Acc.latency m.m_submit_to_complete_ms;
  Acc.pool acc.Acc.freeze m.m_freeze_ms;
  Acc.pool acc.Acc.queue_wait m.m_queue_wait_ms;
  List.iter
    (fun (k, v) -> Acc.add acc k v)
    [
      ("serve.sessions", 1.);
      ("serve.mean_in_flight", m.m_mean_in_flight);
      ("serve.mean_queued", m.m_mean_queued);
      ("serve.sheds", float_of_int m.m_shed);
      ("serve.scale_events", float_of_int m.m_scale_events);
    ];
  Acc.check acc (m.m_stuck = 0) (fun () ->
      Printf.sprintf "%s: %d request(s) stuck" label m.m_stuck);
  Acc.check acc
    (m.m_submitted
    = m.m_rejected + m.m_shed + m.m_refused + m.m_completed + m.m_failed
      + m.m_outstanding)
    (fun () -> Printf.sprintf "%s: serve accounting identity broken" label);
  Acc.check acc
    (Stats.Summary.count m.m_submit_to_complete_ms = m.m_completed)
    (fun () -> Printf.sprintf "%s: completions and latency samples differ" label);
  Acc.check acc
    ((not drained) || m.m_outstanding = 0)
    (fun () ->
      Printf.sprintf "%s: %d request(s) outstanding after drain" label
        m.m_outstanding);
  String.concat ","
    (List.map string_of_int
       [
         m.m_submitted; m.m_rejected; m.m_shed; m.m_refused; m.m_completed;
         m.m_failed; m.m_outstanding; m.m_stuck; m.m_reexecs; m.m_migrations;
         m.m_scale_events; m.m_cap_final;
       ]
    @ List.map summary_fp
        [ m.m_submit_to_complete_ms; m.m_freeze_ms; m.m_queue_wait_ms ])

(* {1 pods: the committed serve-pods shape} *)

(* bench/main.ml's serve-pods cell: 1024 workstations in 32-host pods,
   predictive placement, the autoscaler, a 1 Gbit fabric with
   microsecond kernel IPC and solid-state storage, 110 req/s open-loop
   Poisson arrivals. The benchmark runs four 2.5 s arrival horizons
   from distinct seeds instead of one 10 s horizon: they give the same
   ~1100 latency samples (>= 10 beyond p99) in about half the host
   time, since per-event cost grows with requests in flight. *)
let pods_horizon = 2.5
let pods_cases = 4

(* A Poisson stream conditioned on its count is that many independent
   uniform instants. Every case carries exactly 110 req/s x 2.5 s, so
   the seed moves where requests fall and which hosts serve them, not
   how much work a run does. *)
let pods_arrivals ~seed =
  let rng = Rng.create ((seed * 31) + 7) in
  let horizon_us = Time.to_us (sec pods_horizon) in
  List.sort Time.compare
    (List.init (int_of_float (110. *. pods_horizon)) (fun _ ->
         Time.of_us (Rng.int rng horizon_us)))

let pods_cfg =
  {
    Config.default with
    Config.placement = Config.Load_predictive { pod_size = 32; alpha = 0.3 };
    os =
      {
        Os_params.default with
        Os_params.local_op = Time.of_us 20;
        bulk_pacing =
          { Transfer.data_frame_bytes = 1024; per_frame_cpu = Time.of_us 10 };
      };
    candidacy_delay = Time.of_ms 2.;
    candidacy_jitter = Time.of_ms 1.;
  }

let pods_params ~seed =
  {
    Serve.Session.default_params with
    Serve.Session.arrivals = Serve.Session.Trace (pods_arrivals ~seed);
    duration = sec pods_horizon;
    max_in_flight = 512;
    queue_limit = 2048;
    autoscale =
      Some
        { Serve.Session.default_autoscale with Serve.Session.au_min = 64; au_max = 2048 };
  }

let pods_build ~seed ~traced =
  let cl =
    Span.around "Cluster.create" (fun () ->
        Cluster.create ~seed ~workstations:1024 ~cfg:pods_cfg
          ~net_config:
            { Ethernet.default_config with Ethernet.bandwidth_bytes_per_sec = 125_000_000 }
          ~disk_us_per_kb:3 ~trace:traced ())
  in
  (cl, Span.around "Serve.Session.create" (fun () ->
           Serve.Session.create ~params:(pods_params ~seed) cl))

let pods_run ~seed ~traced acc =
  let cl, s = pods_build ~seed ~traced in
  let untap = tap ~traced acc cl in
  Span.around "Serve.Session.drain" (fun () -> Serve.Session.drain s);
  untap ();
  acc.Acc.virt_s <- acc.Acc.virt_s +. pods_horizon;
  let sfp =
    add_session acc ~label:(Printf.sprintf "pods seed %d" seed) ~drained:true
      (Serve.Session.metrics s)
  in
  let cfp, bytes = collect acc cl in
  acc.Acc.wire_bytes <- acc.Acc.wire_bytes + bytes;
  { fp = cfp ^ "|" ^ sfp; extra = ""; events = Engine.events_fired (Cluster.engine cl) }

let pods =
  {
    name = "pods";
    cases =
      (fun ~seed ->
        List.init pods_cases (fun i ->
            let seed = (seed * 1000) + i in
            {
              label = Printf.sprintf "pods cluster seed %d" seed;
              setup = (fun () -> ignore (pods_build ~seed ~traced:false));
              run = (fun ~traced acc -> pods_run ~seed ~traced acc);
              again = (fun () -> pods_run ~seed ~traced:false (Acc.create ()));
            }));
    finish = (fun _ -> ());
    ops = requests;
  }

(* {1 fuzz: a [vsim fuzz --serve --scenario all] sweep} *)

(* Scenario seeds form one contiguous range per benchmark seed, and each
   seed's library entry, placement override and content-cache budget
   are chosen exactly as [vsim fuzz --serve --scenario all] chooses them,
   so [vsim fuzz --serve --scenario all --seed N] replays any case.
   Those three choices cycle with periods 7, 4 and 2; a range of 112
   seeds holds every combination exactly four times, so the seed moves
   the scenarios' random draws but not the mix of shapes. *)
let fuzz_cases = 112

let entry_for seed =
  let es = Scenario.Library.all in
  List.nth es (seed mod List.length es)

let placement_for seed (sv : Scenario.serve) =
  let cycle = Array.of_list (None :: List.map Option.some Replay.placement_tokens) in
  Option.map
    (fun p ->
      let pod_size = max 2 (sv.Scenario.sv_workstations / 3) in
      match p with
      | Config.Flat_multicast -> p
      | Config.Pod_sharded _ -> Config.Pod_sharded { pod_size }
      | Config.Load_predictive { alpha; _ } -> Config.Load_predictive { pod_size; alpha })
    (Option.bind cycle.(seed mod Array.length cycle) Config.placement_of_string)

let cache_for seed = if seed land 1 = 1 then 4 * 1024 * 1024 else 0

(* [Scenario.run_serve] returns request counts but not the session, so
   the measured pass builds the same run from the same public parts to
   read latencies and freezes; [again] then runs [Scenario.run_serve]
   itself and must reproduce this fingerprint exactly, which keeps the
   two constructions in step. *)
let fuzz_build ~seed =
  let sv = Scenario.Library.serve (entry_for seed) ~seed in
  let placement =
    Option.value (placement_for seed sv) ~default:sv.Scenario.sv_placement
  in
  let cfg = Config.with_default_budgets Config.default in
  let cfg =
    {
      cfg with
      Config.placement;
      os = { cfg.Config.os with Os_params.content_cache_bytes = cache_for seed };
    }
  in
  let cl =
    Span.around "Cluster.create" (fun () ->
        Cluster.create ~seed ~workstations:sv.Scenario.sv_workstations
          ~bridged:sv.Scenario.sv_bridged ~cfg ~trace:true
          ?faults:(match sv.Scenario.sv_faults with [] -> None | p -> Some p)
          ())
  in
  ignore (Cluster.enable_health cl);
  let mon = Monitors.attach (Cluster.tracer cl) in
  let resolve = function
    | Protocol.Vm_flush { page_server } when page_server.Ids.lh < 0 ->
        Protocol.Vm_flush { page_server = File_server.pid (Cluster.file_server cl) }
    | s -> s
  in
  let mif = sv.Scenario.sv_max_in_flight in
  let params =
    {
      Serve.Session.default_params with
      Serve.Session.arrivals =
        (match sv.Scenario.sv_modulation with
        | Arrivals.Constant -> Serve.Session.Poisson sv.Scenario.sv_rate
        | m -> Serve.Session.Modulated { rate = sv.Scenario.sv_rate; modulation = m });
      duration = sv.Scenario.sv_duration;
      progs = sv.Scenario.sv_progs;
      max_in_flight = mif;
      queue_limit = sv.Scenario.sv_queue_limit;
      balancer_interval = Some sv.Scenario.sv_balancer_interval;
      strategy = Option.map resolve sv.Scenario.sv_strategy;
      snapshot_every = None;
      reexec_budget = Some 64;
      slo_shed_multiple = sv.Scenario.sv_slo_shed;
      drain_grace = sec 30.;
      autoscale =
        (match placement with
        | Config.Flat_multicast -> None
        | Config.Pod_sharded _ | Config.Load_predictive _ ->
            Some
              {
                Serve.Session.default_autoscale with
                Serve.Session.au_min = max 2 (mif / 2);
                au_max = mif * 4;
              });
    }
  in
  let s = Span.around "Serve.Session.create" (fun () -> Serve.Session.create ~params cl) in
  (sv, cl, mon, s)

let fuzz_fp ~cluster ~events ~submitted ~completed ~shed ~stuck ~violations =
  String.concat ","
    (cluster :: List.map string_of_int [ events; submitted; completed; shed; stuck; violations ])

let fuzz_run ~seed ~traced acc =
  let sv, cl, mon, s = fuzz_build ~seed in
  let untap = tap ~traced acc cl in
  Span.around "Serve.Session.drain" (fun () -> Serve.Session.drain s);
  untap ();
  let label = Printf.sprintf "fuzz seed %d" seed in
  let m = Serve.Session.metrics s in
  acc.Acc.virt_s <- acc.Acc.virt_s +. Time.to_sec sv.Scenario.sv_duration;
  let sfp = add_session acc ~label ~drained:false m in
  let violations = List.length (Monitors.violations mon) + Monitors.dropped mon in
  Acc.check acc (violations = 0) (fun () ->
      Printf.sprintf "%s: %d monitor violation(s)" label violations);
  Acc.addi acc "fuzz.scenarios" 1;
  Acc.addi acc "fuzz.failed_scenarios"
    (if violations = 0 && m.Serve.Session.m_stuck = 0 then 0 else 1);
  let cluster, bytes = collect acc cl in
  acc.Acc.wire_bytes <- acc.Acc.wire_bytes + bytes;
  {
    fp =
      fuzz_fp ~cluster ~events:(Tracer.seq (Cluster.tracer cl))
        ~submitted:m.Serve.Session.m_submitted ~completed:m.Serve.Session.m_completed
        ~shed:m.Serve.Session.m_shed ~stuck:m.Serve.Session.m_stuck ~violations;
    extra = sfp;
    events = Engine.events_fired (Cluster.engine cl);
  }

let fuzz_again ~seed =
  let sv = Scenario.Library.serve (entry_for seed) ~seed in
  let o, cl =
    Scenario.run_serve_cluster ~content_cache:(cache_for seed)
      ?placement:(placement_for seed sv) sv
  in
  let cluster, _ = collect (Acc.create ()) cl in
  {
    fp =
      fuzz_fp ~cluster ~events:o.Scenario.so_events ~submitted:o.Scenario.so_submitted
        ~completed:o.Scenario.so_completed ~shed:o.Scenario.so_shed
        ~stuck:o.Scenario.so_stuck
        ~violations:(List.length o.Scenario.so_violations + o.Scenario.so_violations_dropped);
    extra = "";
    events = Engine.events_fired (Cluster.engine cl);
  }

let fuzz =
  {
    name = "fuzz";
    cases =
      (fun ~seed ->
        List.init fuzz_cases (fun i ->
            let seed = (seed * fuzz_cases) + i in
            {
              label = Printf.sprintf "vsim fuzz --serve --scenario all --seed %d" seed;
              setup = (fun () -> ignore (fuzz_build ~seed));
              run = (fun ~traced acc -> fuzz_run ~seed ~traced acc);
              again = (fun () -> fuzz_again ~seed);
            }));
    finish = (fun _ -> ());
    (* A scenario fails as in [vsim fuzz]: a violation or a stuck
       request. Shedding is the scenarios' intended behaviour. *)
    ops =
      (fun acc ->
        (int_of_float (Acc.get acc "fuzz.scenarios"),
         int_of_float (Acc.get acc "fuzz.failed_scenarios")));
  }

(* {1 paper: Section 4's measurements in a closed loop} *)

(* Each round runs, for every catalogue program, one remote execution,
   one dirty-page window of each Table 4-1 length, and one migration
   under each copy discipline, plus one bulk copy — every operation on
   its own fresh 6-workstation paper-calibrated cluster, one after the
   other. 150 rounds give 1200 remote-execution latencies (>= 10 beyond
   p99) and average the stochastic dirty-page windows down to a steady
   Table 4-1. *)
let paper_rounds = 150
let windows = [ 0.2; 1.0; 3.0 ]
let strategies = [ Protocol.Precopy; Protocol.Freeze_and_copy; Protocol.Copy_on_reference ]
let copy_kb = [| 256; 512; 1024; 2048 |]
let t41_key prog w = Printf.sprintf "paper.t41/%s/%g" prog w

(* Section 4.1: kernel state copies in 14 ms + 9 ms per process and
   address space; a catalogue program has one of each. *)
let paper_kstate_ms = 14. +. (9. *. 2.)

(* Clusters one round builds. *)
let paper_ops =
  (List.length Programs.names * (1 + List.length windows + List.length strategies)) + 1

let paper_round ~seed ~traced acc =
  let fp = Buffer.create 4096 and events = ref 0 and k = ref 0 in
  let note fmt = Printf.bprintf fp (fmt ^^ ";") in
  let op name ~wire f =
    let cl =
      Span.around "Cluster.create" (fun () ->
          Cluster.create ~seed:((seed * 64) + !k) ~trace:traced ())
    in
    incr k;
    let untap = tap ~traced acc cl in
    let r = Span.around name (fun () -> f cl) in
    untap ();
    let cfp, bytes = collect acc cl in
    if wire then begin
      acc.Acc.wire_bytes <- acc.Acc.wire_bytes + bytes;
      acc.Acc.wire_ops <- acc.Acc.wire_ops + 1
    end;
    events := !events + Engine.events_fired (Cluster.engine cl);
    note "%s" cfp;
    acc.Acc.attempted <- acc.Acc.attempted + 1;
    match r with
    | Ok v ->
        acc.Acc.completed <- acc.Acc.completed + 1;
        Some v
    | Error e ->
        acc.Acc.refused <- acc.Acc.refused + 1;
        Acc.check acc false (fun () ->
            Printf.sprintf "%s (cluster seed %d): %s" name ((seed * 64) + !k - 1) e);
        None
  in
  let virt span = acc.Acc.virt_s <- acc.Acc.virt_s +. Time.to_sec span in
  List.iter
    (fun prog ->
      (match op "Experiment.remote_exec" ~wire:true (fun cl -> Experiment.remote_exec cl ~prog ()) with
      | Some r ->
          let open Experiment in
          virt r.er_total;
          Stats.Summary.record acc.Acc.latency (ms r.er_total);
          let image_kb =
            float_of_int (File_server.image_file_bytes (Programs.find prog).Programs.image)
            /. 1024.
          in
          Acc.add acc "paper.execs" 1.;
          Acc.add acc "paper.select_ms"
            (match r.er_select with Some s -> ms s | None -> nan);
          Acc.add acc "paper.setup_ms"
            (ms r.er_setup +. ms Config.default.Config.env_destroy);
          Acc.add acc "paper.load_ms_per_100kb" (ms r.er_load /. (image_kb /. 100.));
          note "%s %s %s %s" (exact (ms r.er_total)) (exact (ms r.er_setup))
            (exact (ms r.er_load)) r.er_host
      | None -> ());
      List.iter
        (fun w ->
          match
            op "Experiment.dirty_rate" ~wire:false (fun cl ->
                Experiment.dirty_rate cl ~prog ~window:(sec w) ~reps:1 ())
          with
          | Some kb ->
              virt (sec w);
              Acc.add acc (t41_key prog w) kb;
              note "%s" (exact kb)
          | None -> ())
        windows;
      List.iter
        (fun strategy ->
          match
            op "Experiment.migrate_program" ~wire:true (fun cl ->
                Experiment.migrate_program cl ~strategy ~prog ())
          with
          | Some o ->
              virt o.Protocol.m_total;
              let freeze = ms (Protocol.freeze_span o) in
              Stats.Summary.record acc.Acc.freeze freeze;
              let kstate = ms o.Protocol.m_kernel_state in
              Acc.check acc (kstate = paper_kstate_ms) (fun () ->
                  Printf.sprintf "%s/%s: kernel state copy %.3f ms, formula %.0f ms"
                    prog (Protocol.strategy_name strategy) kstate paper_kstate_ms);
              Acc.add acc "paper.kstate_ms" kstate;
              Acc.add acc "paper.migrations" 1.;
              note "%s %s %d %d" (exact freeze) (exact (ms o.Protocol.m_total))
                (List.length o.Protocol.m_rounds) o.Protocol.m_final_bytes
          | None -> ())
        strategies)
    Programs.names;
  let kb = copy_kb.(seed mod Array.length copy_kb) in
  (match
     op "Experiment.copy_rate" ~wire:false (fun cl ->
         Ok (Experiment.copy_rate cl ~bytes:(kb * 1024)))
   with
  | Some span ->
      virt span;
      let s_per_mb = Time.to_sec span /. (float_of_int kb /. 1024.) in
      Acc.check acc (Float.abs (s_per_mb -. 3.) < 0.005) (fun () ->
          Printf.sprintf "copy of %d KB ran at %.4f s/MB, not 3.00" kb s_per_mb);
      Acc.add acc "paper.copy_s_per_mb" s_per_mb;
      Acc.add acc "paper.copies" 1.;
      note "%s" (exact s_per_mb)
  | None -> ());
  Acc.add acc "paper.rounds" 1.;
  { fp = Buffer.contents fp; extra = ""; events = !events }

(* The paper column of EXPERIMENTS.md against this pass: each Table 4-1
   cell (KB per window, averaged over rounds) and the scalar rows, as
   (what, paper, measured). *)
let paper_rows acc =
  let mean k n = Acc.get acc k /. Acc.get acc n in
  List.concat_map
    (fun (prog, (t : Calibrate.triple)) ->
      List.map2
        (fun w paper -> (Printf.sprintf "T4-1 %s %gs KB" prog w, paper,
                         mean (t41_key prog w) "paper.rounds"))
        windows
        [ t.Calibrate.u02; t.Calibrate.u1; t.Calibrate.u3 ])
    Programs.table_4_1
  @ [
      ("selection ms", 23., mean "paper.select_ms" "paper.execs");
      ("setup+destroy ms", 40., mean "paper.setup_ms" "paper.execs");
      ("load ms/100KB", 330., mean "paper.load_ms_per_100kb" "paper.execs");
      ("copy s/MB", 3., mean "paper.copy_s_per_mb" "paper.copies");
      ("kernel state ms", paper_kstate_ms, mean "paper.kstate_ms" "paper.migrations");
    ]

let paper_ran acc = Acc.get acc "paper.rounds" > 0.

(* Mean relative error, in percent, over [paper_rows]. *)
let paper_err_pct acc =
  let rows = paper_rows acc in
  100.
  *. List.fold_left (fun a (_, p, m) -> a +. (Float.abs (m -. p) /. p)) 0. rows
  /. float_of_int (List.length rows)

(* Tolerances come from EXPERIMENTS.md's own statements: the dirty
   models fit the paper's rows to RMS <= 0.2 KB, except the
   non-monotone linking-loader row, reported as 0.8 KB (one decimal);
   selection measures 22.7-23.5 ms; setup plus destroy is 40.0 ms;
   loading 323-326 ms/100 KB. Its measured Table 4-1 column sits up to
   2.1 KB from the paper in single cells, so each simulated row (sampled
   dirty bits, whole pages) must stay within 2 KB RMS of the paper's. *)
let paper_finish acc =
  let rows = paper_rows acc in
  List.iter
    (fun (prog, triple) ->
      let fit = Calibrate.residual (Programs.find prog).Programs.dirty triple in
      let bound = if prog = "linking loader" then 0.85 else 0.2 in
      Acc.check acc (fit <= bound) (fun () ->
          Printf.sprintf "Table 4-1 fit for %s: RMS %.3f KB > %.2f KB" prog fit bound);
      let sq =
        List.fold_left
          (fun a (what, p, m) ->
            if String.starts_with ~prefix:(Printf.sprintf "T4-1 %s " prog) what then
              a +. ((m -. p) ** 2.)
            else a)
          0. rows
      in
      let rms = sqrt (sq /. 3.) in
      Acc.check acc (rms <= 2.) (fun () ->
          Printf.sprintf "simulated Table 4-1 row for %s: RMS %.2f KB from the paper" prog rms))
    Programs.table_4_1;
  let within what lo hi =
    let _, _, m = List.find (fun (w, _, _) -> w = what) rows in
    Acc.check acc (m >= lo && m <= hi) (fun () ->
        Printf.sprintf "%s = %.3f, outside [%g, %g]" what m lo hi)
  in
  within "selection ms" 22.5 23.5;
  within "setup+destroy ms" 39.95 40.05;
  within "load ms/100KB" 320. 330.

let paper =
  {
    name = "paper";
    cases =
      (fun ~seed ->
        List.init paper_rounds (fun r ->
            let seed = (seed * 1000) + r in
            {
              label = Printf.sprintf "paper round seed %d" seed;
              setup =
                (fun () ->
                  for k = 0 to paper_ops - 1 do
                    ignore (Cluster.create ~seed:((seed * 64) + k) ())
                  done);
              run = (fun ~traced acc -> paper_round ~seed ~traced acc);
              again = (fun () -> paper_round ~seed ~traced:false (Acc.create ()));
            }));
    finish = paper_finish;
    ops = requests;
  }

let all = [ pods; fuzz; paper ]
