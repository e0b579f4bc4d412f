(* Unit tests for the core library's smaller modules: environments,
   contexts, configuration, protocol records, residual analysis, program
   tables and accounting — complementing the cluster-level integration
   tests in test_core.ml. *)

let sec = Time.of_sec

(* {1 Env} *)

let fs_pid = Ids.pid 100 16
let ds_pid = Ids.pid 101 16

let test_env_make_and_lookup () =
  let env =
    Env.make
      ~name_cache:[ ("printer", Ids.pid 102 16) ]
      ~args:[ "-o"; "out.o" ] ~file_server:fs_pid ~display:ds_pid
      ~origin_host:"ws0" ()
  in
  Alcotest.(check bool) "cache hit" true
    (Env.cached_lookup env "printer" = Some (Ids.pid 102 16));
  Alcotest.(check bool) "cache miss" true (Env.cached_lookup env "nope" = None);
  Alcotest.(check string) "origin" "ws0" env.Env.origin_host;
  Alcotest.(check bool) "no name server by default" true
    (env.Env.name_server = None)

let test_env_bytes_grows_with_content () =
  let small = Env.make ~file_server:fs_pid ~display:ds_pid ~origin_host:"a" () in
  let big =
    Env.make
      ~name_cache:[ ("a", fs_pid); ("b", fs_pid); ("c", fs_pid) ]
      ~args:[ "a-rather-long-argument-string" ] ~file_server:fs_pid
      ~display:ds_pid ~origin_host:"a" ()
  in
  if Env.bytes big <= Env.bytes small then
    Alcotest.fail "environment size must reflect contents"

(* {1 Context} *)

(* Kernels on one network sharing one logical-host allocator, built on
   demand: [mk station name]. *)
let kernel_factory () =
  let eng = Engine.create () in
  let rng = Rng.create 9 in
  let net = Ethernet.create eng (Rng.split rng) in
  let tracer = Tracer.create eng in
  Tracer.set_enabled tracer false;
  let alloc = Ids.Lh_allocator.create () in
  let mk i name =
    Kernel.create ~engine:eng ~rng:(Rng.split rng) ~tracer
      ~params:Os_params.default ~net ~station:(Addr.of_int i) ~host_name:name
      ~allocator:alloc
      ~memory_bytes:(1024 * 1024)
  in
  (eng, mk)

let mini_kernels () =
  let eng, mk = kernel_factory () in
  (eng, mk 0 "alpha", mk 1 "beta")

let test_directory_locate () =
  let _, ka, kb = mini_kernels () in
  let dir = Directory.of_kernels () in
  Directory.register dir ka;
  Directory.register dir kb;
  let host_of k =
    Option.map Kernel.host_name
      (Directory.locate dir (Logical_host.id (Kernel.host_lh k)))
  in
  Alcotest.(check (option string)) "alpha's host lh" (Some "alpha") (host_of ka);
  Alcotest.(check (option string)) "beta's host lh" (Some "beta") (host_of kb);
  let lh = Kernel.create_logical_host kb ~priority:Cpu.Foreground in
  (match Directory.locate dir (Logical_host.id lh) with
  | Some k -> Alcotest.(check string) "on beta" "beta" (Kernel.host_name k)
  | None -> Alcotest.fail "not located");
  Alcotest.(check bool) "current finds it" true
    (Kernel.host_name (Directory.current dir (Logical_host.id lh)) = "beta");
  Kernel.destroy_logical_host kb lh;
  Alcotest.(check bool) "destroyed: not located" true
    (Directory.locate dir (Logical_host.id lh) = None)

let test_directory_current_raises_for_unknown () =
  let dir = Directory.of_kernels () in
  match Directory.current dir 424242 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure"

(* {2 Residency index vs. a registration-order scan}

   Random operation sequences over kernels sharing one allocator: every
   way a logical host becomes or stops being resident, dual residency
   (a migration re-installed at its source), crashes and reboots, late
   registration, and a first lookup at a random step. After each checked
   step the directory must answer exactly what a scan of the registered
   kernels in registration order answers. *)

type dir_op =
  | Create of int  (** kernel *)
  | Destroy of int * int  (** kernel, which guest *)
  | Migrate of int * int * int  (** source, which guest, destination *)
  | Migrate_dual of int * int * int
      (** as [Migrate], then re-installed at the source as well *)
  | Crash of int
  | Reboot of int
  | Register  (** the next not-yet-registered kernel *)

let pp_dir_op = function
  | Create k -> Printf.sprintf "create@%d" k
  | Destroy (k, g) -> Printf.sprintf "destroy@%d#%d" k g
  | Migrate (s, g, d) -> Printf.sprintf "migrate %d#%d->%d" s g d
  | Migrate_dual (s, g, d) -> Printf.sprintf "migrate-dual %d#%d->%d" s g d
  | Crash k -> Printf.sprintf "crash@%d" k
  | Reboot k -> Printf.sprintf "reboot@%d" k
  | Register -> "register"

let dir_kernels = 6
let dir_registered_at_start = 4

let dir_scenario =
  let open QCheck.Gen in
  let k = int_bound (dir_kernels - 1) and g = int_bound 7 in
  let op =
    frequency
      [
        (4, map (fun k -> Create k) k);
        (2, map2 (fun k g -> Destroy (k, g)) k g);
        (3, map3 (fun s g d -> Migrate (s, g, d)) k g k);
        (2, map3 (fun s g d -> Migrate_dual (s, g, d)) k g k);
        (1, map (fun k -> Crash k) k);
        (1, map (fun k -> Reboot k) k);
        (1, return Register);
      ]
  in
  let gen =
    list_size (int_range 1 40) op >>= fun ops ->
    map (fun first -> (first, ops)) (int_bound (List.length ops))
  in
  QCheck.make gen ~print:(fun (first, ops) ->
      Printf.sprintf "first lookup after step %d: %s" first
        (String.concat "; " (List.map pp_dir_op ops)))

let prop_directory_matches_scan =
  QCheck.Test.make ~name:"residency index = registration-order scan"
    ~count:300 dir_scenario (fun (first_lookup, ops) ->
      let _, mk = kernel_factory () in
      let kernels =
        Array.init dir_kernels (fun i -> mk i (Printf.sprintf "k%d" i))
      in
      let host_ids =
        Array.to_list
          (Array.map (fun k -> Logical_host.id (Kernel.host_lh k)) kernels)
      in
      let ids = ref host_ids in
      let dir = Directory.of_kernels () in
      let registered = ref 0 in
      let register () =
        if !registered < dir_kernels then begin
          Directory.register dir kernels.(!registered);
          incr registered
        end
      in
      for _ = 1 to dir_registered_at_start do
        register ()
      done;
      let guest k g =
        match
          List.filter
            (fun lh -> not (List.mem (Logical_host.id lh) host_ids))
            (Kernel.logical_hosts kernels.(k))
        with
        | [] -> None
        | guests -> Some (List.nth guests (g mod List.length guests))
      in
      let migrate s g d ~dual =
        Option.iter
          (fun lh ->
            if not (Logical_host.frozen lh) then Kernel.freeze_lh kernels.(s) lh;
            let st = Kernel.extract_lh kernels.(s) lh in
            ignore (Kernel.install_lh kernels.(d) st);
            if dual then ignore (Kernel.install_lh kernels.(s) st))
          (guest s g)
      in
      let apply = function
        | Create k ->
            let lh =
              Kernel.create_logical_host kernels.(k) ~priority:Cpu.Background
            in
            ids := Logical_host.id lh :: !ids
        | Destroy (k, g) ->
            Option.iter (Kernel.destroy_logical_host kernels.(k)) (guest k g)
        | Migrate (s, g, d) -> migrate s g d ~dual:false
        | Migrate_dual (s, g, d) -> migrate s g d ~dual:true
        | Crash k ->
            if Kernel.running kernels.(k) then Kernel.shutdown kernels.(k)
        | Reboot k ->
            if not (Kernel.running kernels.(k)) then Kernel.reboot kernels.(k)
        | Register -> register ()
      in
      let check step =
        let unknown = 1 + List.fold_left max 0 !ids in
        List.iter
          (fun id ->
            let scan =
              List.find_opt
                (fun k -> Kernel.find_lh k id <> None)
                (Array.to_list (Array.sub kernels 0 !registered))
            in
            let name = Option.map Kernel.host_name in
            let located = Directory.locate dir id in
            if not (Option.equal ( == ) located scan) then
              QCheck.Test.fail_reportf
                "step %d, lh-%d: locate = %s, scan = %s" step id
                (Option.value (name located) ~default:"none")
                (Option.value (name scan) ~default:"none");
            match (Directory.current dir id, scan) with
            | k, Some k' when k == k' -> ()
            | _, _ -> QCheck.Test.fail_reportf "step %d, lh-%d: current" step id
            | exception Failure _ ->
                if scan <> None then
                  QCheck.Test.fail_reportf "step %d, lh-%d: current raised"
                    step id)
          (unknown :: !ids)
      in
      if first_lookup = 0 then check 0;
      List.iteri
        (fun i op ->
          apply op;
          if i + 1 >= first_lookup then check (i + 1))
        ops;
      true)

(* The lookup every CPU quantum, I/O call and display write of every
   program pays: at pod scale it must stay a probe, not a walk. *)
let test_directory_current_allocates_nothing () =
  let _, mk = kernel_factory () in
  let dir = Directory.of_kernels () in
  let kernels = List.init 1024 (fun i -> mk i (Printf.sprintf "ws%d" i)) in
  List.iter (Directory.register dir) kernels;
  let last = List.nth kernels 1023 in
  let lh = Kernel.create_logical_host last ~priority:Cpu.Background in
  let id = Logical_host.id lh in
  let calls = 10_000 in
  Alcotest.(check string) "found" "ws1023"
    (Kernel.host_name (Directory.current dir id));
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Directory.current dir id))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words per call" 0. (words /. float calls)

(* {1 Config} *)

let test_config_env_spans_sum_to_40ms () =
  Alcotest.(check int) "40 ms"
    (Time.to_us (Time.of_ms 40.))
    (Time.to_us (Config.sum_env_spans Config.default))

let test_config_precopy_policy_sane () =
  let c = Config.default in
  Alcotest.(check bool) "improvement in (0,1)" true
    (c.Config.precopy_improvement > 0. && c.Config.precopy_improvement < 1.);
  Alcotest.(check bool) "round cap positive" true (c.Config.precopy_max_rounds > 0);
  Alcotest.(check int) "paper gives up immediately" 0 c.Config.migration_retries

(* {1 Protocol records} *)

let sample_outcome =
  {
    Protocol.m_prog = "tex";
    m_from = "ws1";
    m_dest = "ws2";
    m_strategy = "precopy";
    m_rounds =
      [
        { Protocol.r_bytes = 708 * 1024; r_span = sec 2.1 };
        { Protocol.r_bytes = 127 * 1024; r_span = Time.of_ms 370. };
      ];
    m_final_bytes = 92 * 1024;
    m_freeze_start = sec 10.;
    m_resumed_at = Time.add (sec 10.) (Time.of_ms 310.);
    m_kernel_state = Time.of_ms 32.;
    m_total = sec 2.8;
    m_faultin_bytes = 0;
  }

let test_outcome_accessors () =
  Alcotest.(check int) "freeze span" 310_000
    (Time.to_us (Protocol.freeze_span sample_outcome));
  Alcotest.(check int) "precopied" ((708 + 127) * 1024)
    (Protocol.precopied_bytes sample_outcome)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_outcome_pp () =
  let s = Format.asprintf "%a" Protocol.pp_outcome sample_outcome in
  List.iter
    (fun needle ->
      if not (contains s needle) then Alcotest.failf "missing %S in %S" needle s)
    [ "tex"; "ws1"; "ws2"; "precopy" ]

let test_strategy_names () =
  Alcotest.(check string) "precopy" "precopy" (Protocol.strategy_name Protocol.Precopy);
  Alcotest.(check string) "freeze" "freeze-and-copy"
    (Protocol.strategy_name Protocol.Freeze_and_copy);
  Alcotest.(check string) "vmflush" "vm-flush"
    (Protocol.strategy_name (Protocol.Vm_flush { page_server = fs_pid }))

(* {1 Migration formula} *)

let test_kernel_state_span_formula () =
  let lh = Logical_host.create ~id:1 ~priority:Cpu.Foreground ~home:"x" in
  ignore (Logical_host.new_process lh);
  ignore (Logical_host.new_process lh);
  Logical_host.add_space lh
    (Address_space.create ~code_bytes:1024 ~data_bytes:0 ~active_bytes:1024 ());
  (* 2 processes + 1 space: 14 + 9*3 = 41 ms. *)
  Alcotest.(check int) "formula" 41_000
    (Time.to_us (Migration.kernel_state_span Config.default lh))

(* {1 Progtable} *)

let with_table f =
  let eng, ka, _ = mini_kernels () in
  let tbl = Progtable.create ka in
  f eng ka tbl

let make_program ka tbl =
  let lh = Kernel.create_logical_host ka ~priority:Cpu.Background in
  let spec = Programs.find "make" in
  let space = Programs.make_space spec in
  Logical_host.add_space lh space;
  let model = Dirty_model.create spec.Programs.dirty space in
  let root = Kernel.create_process ka lh in
  Progtable.add tbl ~lh ~spec
    ~env:(Env.make ~file_server:fs_pid ~display:ds_pid ~origin_host:"x" ())
    ~root ~space ~model ~origin:"x"

let test_progtable_add_find_remove () =
  with_table (fun _ ka tbl ->
      let p = make_program ka tbl in
      let id = Logical_host.id p.Progtable.p_lh in
      Alcotest.(check int) "count" 1 (Progtable.count tbl);
      (* Physical equality: records hold closures. *)
      Alcotest.(check bool) "find" true
        (match Progtable.find tbl id with Some q -> q == p | None -> false);
      Progtable.remove tbl p;
      Alcotest.(check bool) "removed" true
        (Option.is_none (Progtable.find tbl id)))

let test_progtable_adopt_moves_home () =
  let eng = Engine.create () in
  ignore eng;
  let _, ka, kb = mini_kernels () in
  let ta = Progtable.create ka and tb = Progtable.create kb in
  let p = make_program ka ta in
  Progtable.remove ta p;
  Progtable.adopt tb p;
  Alcotest.(check bool) "home switched" true (p.Progtable.p_home == tb);
  Alcotest.(check int) "listed at new home" 1 (Progtable.count tb)

let test_progtable_charge_accumulates () =
  with_table (fun _ ka tbl ->
      let p = make_program ka tbl in
      Progtable.charge_cpu p (Time.of_ms 10.);
      Progtable.charge_cpu p (Time.of_ms 5.);
      Alcotest.(check int) "sum" 15_000 (Time.to_us p.Progtable.p_cpu_used))

(* {1 Residual details} *)

let test_residual_lists_name_cache_bindings () =
  let _, ka, kb = mini_kernels () in
  let dir = Directory.of_kernels () in
  Directory.register dir ka;
  Directory.register dir kb;
  let tbl = Progtable.create ka in
  let service_lh = Kernel.create_logical_host kb ~priority:Cpu.Foreground in
  let service_pid = Ids.pid (Logical_host.id service_lh) 16 in
  let lh = Kernel.create_logical_host ka ~priority:Cpu.Background in
  let spec = Programs.find "make" in
  let space = Programs.make_space spec in
  Logical_host.add_space lh space;
  let p =
    Progtable.add tbl ~lh ~spec
      ~env:
        (Env.make
           ~name_cache:[ ("svc", service_pid) ]
           ~file_server:service_pid ~display:service_pid ~origin_host:"alpha" ())
      ~root:(Kernel.create_process ka lh)
      ~space
      ~model:(Dirty_model.create spec.Programs.dirty space)
      ~origin:"alpha"
  in
  let deps = Residual.dependencies dir p in
  (* file-server, display and one cache entry all resolve to beta. *)
  Alcotest.(check int) "three bindings" 3 (List.length deps);
  List.iter
    (fun d -> Alcotest.(check string) "on beta" "beta" d.Residual.d_host)
    deps;
  Alcotest.(check (list string)) "residual hosts (display counted)" [ "beta" ]
    (Residual.residual_hosts dir p);
  Alcotest.(check bool) "depends_on beta" true
    (Residual.depends_on dir p ~host:"beta");
  Alcotest.(check bool) "not on alpha" false
    (Residual.depends_on dir p ~host:"alpha")

let () =
  Alcotest.run "v_core_units"
    [
      ( "env",
        [
          Alcotest.test_case "make/lookup" `Quick test_env_make_and_lookup;
          Alcotest.test_case "bytes grow" `Quick test_env_bytes_grows_with_content;
        ] );
      ( "directory",
        [
          Alcotest.test_case "locate/current/find" `Quick test_directory_locate;
          Alcotest.test_case "unknown raises" `Quick
            test_directory_current_raises_for_unknown;
          Alcotest.test_case "current allocates nothing at 1024 kernels" `Quick
            test_directory_current_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_directory_matches_scan;
        ] );
      ( "config",
        [
          Alcotest.test_case "40ms env spans" `Quick
            test_config_env_spans_sum_to_40ms;
          Alcotest.test_case "precopy policy sane" `Quick
            test_config_precopy_policy_sane;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "outcome accessors" `Quick test_outcome_accessors;
          Alcotest.test_case "outcome pp" `Quick test_outcome_pp;
          Alcotest.test_case "strategy names" `Quick test_strategy_names;
        ] );
      ( "migration-formula",
        [ Alcotest.test_case "kernel state span" `Quick test_kernel_state_span_formula ] );
      ( "progtable",
        [
          Alcotest.test_case "add/find/remove" `Quick test_progtable_add_find_remove;
          Alcotest.test_case "adopt" `Quick test_progtable_adopt_moves_home;
          Alcotest.test_case "charge" `Quick test_progtable_charge_accumulates;
        ] );
      ( "residual",
        [
          Alcotest.test_case "name-cache bindings listed" `Quick
            test_residual_lists_name_cache_bindings;
        ] );
    ]
