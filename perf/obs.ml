(* What the benchmark observes about a run, from outside the simulator:
   host time normalised for host speed, accumulators for one pass over
   a workload, counters read through public accessors, a trace
   subscriber, and host-time spans around the benchmark's own calls. *)

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* {1 Host speed}

   A shared host's speed moves with its neighbours' load. On a shared
   2-core Xeon virtual machine a fixed loop's time swung by 20% in
   phases of 10-20 s and drifted by 1.7x over half an hour, and the
   same seed's wall time moved with it. So every timed execution is bracketed by a
   fixed reference loop, the benchmark's own code that no change to the
   simulator touches, and host times are scaled to a nominal host on
   which that loop takes [nominal] seconds. The loop allocates nothing,
   so the simulator's heap cannot leak into the reference. *)
module Speed = struct
  let table = Array.init 65536 (fun i -> (i * 7919) land 65535)

  let loop () =
    let j = ref 0 and s = ref 0 in
    for _ = 1 to 400_000 do
      j := Array.unsafe_get table ((!j + !s) land 65535);
      s := !s + (!j lxor (!s lsr 3))
    done;
    !s

  let nominal = 1e-3
  let last = ref nan
  let samples = ref []

  let sample () =
    let t0 = now () in
    ignore (Sys.opaque_identity (loop ()));
    last := now () -. t0;
    samples := !last :: !samples

  (* [f ()] with its host seconds, raw and normalised by the reference
     loop run just before and just after it. *)
  let timed f =
    if Float.is_nan !last then sample ();
    let before = !last in
    let t0 = now () in
    let v = f () in
    let dt = now () -. t0 in
    sample ();
    (v, dt, dt *. nominal /. ((before +. !last) /. 2.))
end

(* {1 Pass accumulator} *)

module Acc = struct
  type t = {
    mutable attempted : int;  (** Operations asked of the system. *)
    mutable refused : int;
        (** Of those, not served: rejected, shed, refused, failed, stuck,
            or an [Error] result. *)
    mutable completed : int;
    mutable virt_s : float;  (** Virtual seconds completions count over. *)
    mutable wire_bytes : int;
    mutable wire_ops : int;  (** Operations the wire bytes are shared by. *)
    latency : Stats.Summary.t;  (** Virtual ms, submit to complete. *)
    freeze : Stats.Summary.t;  (** Virtual ms, [Protocol.freeze_span]. *)
    queue_wait : Stats.Summary.t;  (** Virtual ms in the admission queue. *)
    counts : (string, float) Hashtbl.t;  (** Per-layer sums by name. *)
    mutable checks : int;
    mutable failures : string list;  (** Failed correctness checks. *)
  }

  let create () =
    {
      attempted = 0;
      refused = 0;
      completed = 0;
      virt_s = 0.;
      wire_bytes = 0;
      wire_ops = 0;
      latency = Stats.Summary.create ();
      freeze = Stats.Summary.create ();
      queue_wait = Stats.Summary.create ();
      counts = Hashtbl.create 64;
      checks = 0;
      failures = [];
    }

  let get t k = Option.value (Hashtbl.find_opt t.counts k) ~default:0.
  let add t k v = Hashtbl.replace t.counts k (get t k +. v)
  let addi t k v = add t k (float_of_int v)

  let check t ok what =
    t.checks <- t.checks + 1;
    if not ok then t.failures <- what () :: t.failures

  let pool dst src = List.iter (Stats.Summary.record dst) (Stats.Summary.samples src)
end

(* {1 Host-time spans}

   Recorded only in the traced pass, around the benchmark's calls into
   the simulator. Kept in memory and written out when the run ends. *)

module Span = struct
  type t = {
    id : int;
    parent : int;
    name : string;
    t0 : float;
    mutable t1 : float;
  }

  let on = ref false
  let all : t list ref = ref []
  let stack = ref [ 0 ]
  let next = ref 1

  let around name f =
    if not !on then f ()
    else begin
      let s = { id = !next; parent = List.hd !stack; name; t0 = now (); t1 = 0. } in
      incr next;
      stack := s.id :: !stack;
      Fun.protect f ~finally:(fun () ->
          s.t1 <- now ();
          stack := List.tl !stack;
          all := s :: !all)
    end

  (* Per span name: calls, total and self host seconds (self = the
     span's duration less the parts its child spans cover). *)
  let summary () =
    let child = Hashtbl.create 64 in
    List.iter
      (fun s ->
        Hashtbl.replace child s.parent
          (Option.value (Hashtbl.find_opt child s.parent) ~default:0.
          +. (s.t1 -. s.t0)))
      !all;
    let by = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let d = s.t1 -. s.t0 in
        let self = d -. Option.value (Hashtbl.find_opt child s.id) ~default:0. in
        let n, tot, slf =
          Option.value (Hashtbl.find_opt by s.name) ~default:(0, 0., 0.)
        in
        Hashtbl.replace by s.name (n + 1, tot +. d, slf +. self))
      !all;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by [])

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_s\":%.6f,\"end_s\":%.6f}\n"
          s.id s.parent s.name s.t0 s.t1)
      (List.rev !all);
    close_out oc
end

(* {1 Trace subscriber}

   Attached with [Tracer.on_event] to a traced cluster; counts the
   typed events of the layers that have no public counter, and pairs
   every migration start with its commit or abort. *)

module Tap = struct
  type t = {
    mutable events : int;
    mutable slices : int;
    mutable bids : int;
    mutable selects : int;
    mutable mig_started : int;
    mutable mig_committed : int;
    mutable mig_aborted : int;
    mutable mig_rounds : int;
    mutable mig_host_s : float;
        (** Host seconds between each migration's start and its end
            event; on a busy cluster this includes interleaved work. *)
    mutable unpaired : int;
    open_migs : (Ids.lh_id, float) Hashtbl.t;
  }

  let create () =
    {
      events = 0;
      slices = 0;
      bids = 0;
      selects = 0;
      mig_started = 0;
      mig_committed = 0;
      mig_aborted = 0;
      mig_rounds = 0;
      mig_host_s = 0.;
      unpaired = 0;
      open_migs = Hashtbl.create 16;
    }

  let close t lh =
    match Hashtbl.find_opt t.open_migs lh with
    | Some t0 ->
        Hashtbl.remove t.open_migs lh;
        t.mig_host_s <- t.mig_host_s +. (now () -. t0)
    | None -> t.unpaired <- t.unpaired + 1

  let attach t tracer =
    Tracer.on_event tracer (fun r ->
        t.events <- t.events + 1;
        match r.Tracer.ev with
        | Cpu.Slice _ -> t.slices <- t.slices + 1
        | Scheduler.Sched_bid _ -> t.bids <- t.bids + 1
        | Scheduler.Sched_select _ -> t.selects <- t.selects + 1
        | Migration.Mig_start { lh; _ } ->
            t.mig_started <- t.mig_started + 1;
            if Hashtbl.mem t.open_migs lh then t.unpaired <- t.unpaired + 1;
            Hashtbl.replace t.open_migs lh (now ())
        | Migration.Mig_round _ -> t.mig_rounds <- t.mig_rounds + 1
        | Migration.Mig_committed { lh; _ } ->
            t.mig_committed <- t.mig_committed + 1;
            close t lh
        | Migration.Mig_aborted { lh; _ } ->
            t.mig_aborted <- t.mig_aborted + 1;
            close t lh
        | _ -> ())

  (* Call when a cluster's run is over: a migration still open neither
     committed nor aborted. *)
  let finish t =
    t.unpaired <- t.unpaired + Hashtbl.length t.open_migs;
    Hashtbl.reset t.open_migs
end

(* {1 Cluster counters through public accessors} *)

let kernels cl =
  File_server.host (Cluster.file_server cl)
  :: List.map (fun w -> w.Cluster.ws_kernel) (Cluster.workstations cl)

let kernel_stats =
  [
    "sends"; "group_sends"; "retransmissions"; "where_is"; "xfer_bytes_shipped";
    "xfer_bytes_saved"; "xfer_manifest_bytes"; "xfer_chunks_hit";
    "xfer_chunks_miss"; "img_chunks_hit"; "img_chunks_miss";
  ]

(* Every counter the benchmark reads from a finished cluster, in a fixed
   order. Bytes and frames are segment 0's (the file server's); on a
   bridged cluster the far segment's local traffic is not included. *)
let cluster_counts cl =
  let net = Cluster.net cl in
  let ks = kernels cl in
  let kstat name = List.fold_left (fun a k -> a + Kernel.stat k name) 0 ks in
  let p = Cluster.placement cl in
  let health f = match Cluster.health cl with Some h -> f h | None -> 0 in
  [
    ("engine.events", Engine.events_fired (Cluster.engine cl));
    ("virtual_us", Time.to_us (Cluster.now cl));
    ("ethernet.frames_sent", Ethernet.frames_sent net);
    ("ethernet.frames_delivered", Ethernet.frames_delivered net);
    ("ethernet.frames_dropped", Ethernet.frames_dropped net);
    ("ethernet.bytes", Ethernet.bytes_carried net);
    ("placement.selections", Placement.selections p);
    ("placement.timeouts", Placement.timeouts p);
    ("health.probes", health Health.probes);
    ("health.transitions", health Health.transitions);
    ("health.false_suspicions", health Health.false_suspicions);
    ( "faults.fired",
      match Cluster.faults cl with
      | Some f -> List.fold_left (fun a (_, n) -> a + n) 0 (Faults.fired_counts f)
      | None -> 0 );
    ( "file_server.loads",
      List.fold_left
        (fun a w -> a + Program_manager.creations w.Cluster.ws_pm)
        0 (Cluster.workstations cl) );
  ]
  @ List.map (fun s -> ("kernel." ^ s, kstat s)) kernel_stats

(* Adds a finished cluster's counters to the pass; returns them as the
   cluster's share of the case fingerprint, and the bytes it carried. *)
let collect acc cl =
  let cs = cluster_counts cl in
  List.iter (fun (k, v) -> Acc.addi acc k v) cs;
  (String.concat "," (List.map (fun (_, v) -> string_of_int v) cs),
   List.assoc "ethernet.bytes" cs)

let add_tap acc (t : Tap.t) =
  Tap.finish t;
  Acc.check acc (t.Tap.unpaired = 0) (fun () ->
      Printf.sprintf "%d migration(s) neither committed nor aborted"
        t.Tap.unpaired);
  List.iter
    (fun (k, v) -> Acc.addi acc k v)
    [
      ("tracer.events", t.Tap.events);
      ("cpu.slices", t.Tap.slices);
      ("placement.bids", t.Tap.bids);
      ("placement.selects", t.Tap.selects);
      ("migration.started", t.Tap.mig_started);
      ("migration.committed", t.Tap.mig_committed);
      ("migration.aborts", t.Tap.mig_aborted);
      ("migration.rounds", t.Tap.mig_rounds);
    ];
  Acc.add acc "migration.host_s" t.Tap.mig_host_s

(* Exact rendering of a float for fingerprints. *)
let exact f = Printf.sprintf "%h" f

let summary_fp s =
  String.concat ";" (List.map exact (Stats.Summary.samples s))
