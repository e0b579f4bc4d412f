(* Per-layer cost probes: each times one layer's public entry points in
   isolation, on a fixed synthetic input, and reports normalised host
   nanoseconds per operation. A layer's estimated share of a run is its
   operation count in the run times this cost. *)

open Obs

(* [f ()] does some operations and returns how many: one warm-up call,
   then the median of five timed calls, in normalised ns per operation
   (see [Obs.Speed]). *)
let ns_per f =
  ignore (f ());
  median
    (List.init 5 (fun _ ->
         let n, _, dt = Speed.timed f in
         dt *. 1e9 /. float_of_int n))

(* [Engine.post] and dispatch with 1024 events pending. *)
let engine () =
  let e = Engine.create () in
  let left = ref 200_000 in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      Engine.post_after e (Time.of_us (1 + (!left land 1023))) tick
    end
  in
  for _ = 1 to 1024 do tick () done;
  Engine.run e;
  Engine.events_fired e

(* [Proc.sleep]: 64 processes each sleeping in a loop. *)
let proc () =
  let e = Engine.create () in
  let per = 2_000 in
  for p = 1 to 64 do
    ignore
      (Proc.spawn e ~name:"sleeper" (fun () ->
           for _ = 1 to per do Proc.sleep e (Time.of_us p) done))
  done;
  Engine.run e;
  64 * per

(* [Cpu.compute]: two background requests sharing one CPU, round-robin
   at the default 10 ms quantum. *)
let cpu () =
  let e = Engine.create () in
  let quantum = Os_params.default.Os_params.cpu_quantum in
  let c = Cpu.create e ~quantum in
  let demand = Time.of_sec 100. in
  for _ = 1 to 2 do
    ignore
      (Proc.spawn e ~name:"busy" (fun () -> Cpu.compute c ~priority:Cpu.Background demand))
  done;
  Engine.run e;
  2 * (Time.to_us demand / Time.to_us quantum)

(* [Ethernet.send]: multicast frames to 32 subscribed stations. *)
let ethernet () =
  let e = Engine.create () in
  let net = Ethernet.create e (Rng.create 7) in
  let delivered = ref 0 in
  for i = 0 to 32 do
    let s = Ethernet.attach net (Addr.of_int i) (fun _ -> incr delivered) in
    if i > 0 then Ethernet.subscribe s 9
  done;
  for _ = 1 to 4_000 do
    Ethernet.send net (Frame.multicast ~src:(Addr.of_int 0) ~group:9 ~bytes:128 ())
  done;
  Engine.run e;
  !delivered

(* [Kernel.send] of a local kernel-server operation, through
   [Experiment.kernel_op_latency]; the cost of the idle horizon that
   call also runs is measured with zero samples and subtracted. *)
let kernel () =
  let cost samples =
    let cl = Cluster.create ~seed:3 ~workstations:1 () in
    let _, _, dt = Speed.timed (fun () -> Experiment.kernel_op_latency cl ~samples) in
    dt
  in
  let n = 20_000 in
  ignore (cost n);
  let per () = (cost n -. cost 0) *. 1e9 /. float_of_int n in
  median (List.init 5 (fun _ -> per ()))

(* [Content_cache.probe] on a 4096-entry cache, half hits. *)
let content_cache () =
  let c = Content_cache.create ~budget:(64 * 1024 * 1024) in
  for d = 0 to 4095 do Content_cache.insert c ~digest:(d * 2) ~bytes:1024 done;
  let n = 400_000 in
  for i = 1 to n do ignore (Content_cache.probe c ~digest:(i land 8191) ~bytes:1024) done;
  n

(* [Monitors] per event: a recorded fuzz serve run's event stream is
   re-emitted into a fresh tracer with and without the monitor bundle
   attached; the difference is the monitors' cost. *)
let monitors () =
  let sv = Scenario.Library.serve (List.hd Scenario.Library.all) ~seed:5 in
  let _, cl = Scenario.run_serve_cluster sv in
  let evs = List.map (fun r -> r.Tracer.ev) (Tracer.records (Cluster.tracer cl)) in
  let n = List.length evs in
  let emit ~watch () =
    let tr = Tracer.create ~capacity:(n + 1) (Engine.create ()) in
    if watch then ignore (Monitors.attach tr);
    List.iter (Tracer.emit tr) evs;
    n
  in
  ns_per (emit ~watch:true) -. ns_per (emit ~watch:false)

let all () =
  [
    ("engine.ns_per_event_probe", ns_per engine);
    ("proc.ns_per_sleep_probe", ns_per proc);
    ("cpu.ns_per_slice_probe", ns_per cpu);
    ("ethernet.ns_per_delivery_probe", ns_per ethernet);
    ("kernel.ns_per_send_probe", kernel ());
    ("transfer.ns_per_lookup_probe", ns_per content_cache);
    ("monitors.ns_per_event_probe", monitors ());
  ]
