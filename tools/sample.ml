(* A statistical stack profiler that needs no external tool: SIGPROF
   fires every millisecond of process CPU time, the handler records the
   OCaml call stack, and at exit the samples are tallied per function.

     dune exec tools/sample.exe -- pods [SEED]    1024 workstations, 32-host pods
     dune exec tools/sample.exe -- serve [SEED]   the default serve session

   "inclusive" counts samples with the function anywhere on the stack;
   "leaf" counts samples taken inside the function itself. *)

(* [pods] is the benchmark's pods shape: predictive placement, the
   autoscaler, a 1 Gbit fabric, microsecond kernel IPC, fast disks. *)
let cell name seed =
  let open Serve.Session in
  match name with
  | "pods" ->
      let pacing =
        { Transfer.data_frame_bytes = 1024; per_frame_cpu = Time.of_us 10 }
      in
      let cfg =
        {
          Config.default with
          Config.placement = Load_predictive { pod_size = 32; alpha = 0.3 };
          os =
            {
              Os_params.default with
              local_op = Time.of_us 20;
              bulk_pacing = pacing;
            };
          candidacy_delay = Time.of_ms 2.;
          candidacy_jitter = Time.of_ms 1.;
        }
      in
      let net_config =
        { Ethernet.default_config with bandwidth_bytes_per_sec = 125_000_000 }
      in
      let cl =
        Cluster.create ~seed ~workstations:1024 ~cfg ~net_config
          ~disk_us_per_kb:3 ()
      in
      let autoscale = { default_autoscale with au_min = 64; au_max = 2048 } in
      drain
        (create cl
           ~params:
             {
               default_params with
               arrivals = Poisson 110.;
               duration = Time.of_sec 2.5;
               max_in_flight = 512;
               queue_limit = 2048;
               autoscale = Some autoscale;
             })
  | "serve" -> drain (create (Cluster.create ~seed ()))
  | _ ->
      prerr_endline "usage: sample.exe pods|serve [SEED]";
      exit 2

let () =
  let arg i d = if Array.length Sys.argv > i then Sys.argv.(i) else d in
  let stacks = ref [] in
  Sys.set_signal Sys.sigprof
    (Sys.Signal_handle
       (fun _ -> stacks := Printexc.get_callstack 256 :: !stacks));
  let tick = { Unix.it_interval = 0.001; it_value = 0.001 } in
  ignore (Unix.setitimer Unix.ITIMER_PROF tick);
  cell (arg 1 "pods") (int_of_string (arg 2 "1000"));
  ignore (Unix.setitimer Unix.ITIMER_PROF { tick with it_value = 0. });
  let incl = Hashtbl.create 256 and leaf = Hashtbl.create 256 in
  let bump tbl f =
    Hashtbl.replace tbl f (1 + Option.value ~default:0 (Hashtbl.find_opt tbl f))
  in
  (* Function names, innermost first, without the handler's own frames. *)
  let frames raw =
    Option.fold ~none:[] ~some:Array.to_list (Printexc.backtrace_slots raw)
    |> List.filter_map Printexc.Slot.name
    |> List.filter (fun f ->
           not (String.starts_with ~prefix:"Dune__exe__Sample" f))
  in
  List.iter
    (fun raw ->
      match frames raw with
      | [] -> ()
      | top :: _ as fs ->
          bump leaf top;
          List.iter (bump incl) (List.sort_uniq String.compare fs))
    !stacks;
  let n = List.length !stacks in
  List.iter
    (fun (title, tbl) ->
      Printf.printf "== %s (%d samples)\n" title n;
      Hashtbl.fold (fun f c acc -> (c, f) :: acc) tbl []
      |> List.sort (fun a b -> compare b a)
      |> List.iteri (fun i (c, f) ->
             if i < 25 then
               Printf.printf "%6.1f%%  %s\n"
                 (100. *. float c /. float (max 1 n))
                 f))
    [ ("inclusive", incl); ("leaf", leaf) ]
