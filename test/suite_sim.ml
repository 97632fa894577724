(* The SIMT simulator: basic execution, reconvergence, barriers,
   metrics. *)

open Darm_ir
module D = Dsl
module Sim = Darm_sim.Simulator
module Memory = Darm_sim.Memory
module Metrics = Darm_sim.Metrics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run_simple ?(grid = 1) ?(block = 64) f args global =
  Sim.run f ~args ~global { Sim.grid_dim = grid; block_dim = block }

let test_copy_kernel () =
  let f =
    D.build_kernel ~name:"copy"
      ~params:[ ("src", Types.Ptr Types.Global); ("dst", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let src, dst =
          match params with [ s; d ] -> (s, d) | _ -> assert false
        in
        let gid = D.add ctx (D.mul ctx (D.bid ctx) (D.bdim ctx)) (D.tid ctx) in
        D.store ctx (D.load ctx (D.gep ctx src gid)) (D.gep ctx dst gid))
  in
  let n = 128 in
  let g = Memory.create ~space:Memory.Sp_global (2 * n) in
  let input = Array.init n (fun i -> i * 3) in
  let src = Memory.alloc_of_int_array g input in
  let dst = Memory.alloc g n in
  let _ = run_simple ~grid:2 ~block:64 f [| src; dst |] g in
  Alcotest.(check (array int)) "copied" input (Memory.read_int_array g dst n)

let test_divergent_diamond_semantics () =
  let f = Testlib.diamond_func () in
  let n = 64 in
  let g = Memory.create ~space:Memory.Sp_global (2 * n) in
  let input = Array.init n (fun i -> if i mod 2 = 0 then i else -i) in
  let src = Memory.alloc_of_int_array g input in
  let dst = Memory.alloc g n in
  let m = run_simple ~block:n f [| src; dst |] g in
  let expected =
    Array.map (fun v -> if v < 0 then -v * 2 else v * 3) input
  in
  Alcotest.(check (array int)) "diamond" expected (Memory.read_int_array g dst n);
  check "warp split recorded" true (m.Metrics.divergent_branches > 0);
  check "reconvergence recorded" true (m.Metrics.reconvergences > 0)

let test_uniform_branch_no_split () =
  let f = Testlib.diamond_func () in
  let n = 64 in
  let g = Memory.create ~space:Memory.Sp_global (2 * n) in
  (* all positive: every lane takes the same side *)
  let input = Array.init n (fun i -> i + 1) in
  let src = Memory.alloc_of_int_array g input in
  let dst = Memory.alloc g n in
  let m = run_simple ~block:n f [| src; dst |] g in
  check_int "no divergence" 0 m.Metrics.divergent_branches

let test_divergence_costs_cycles () =
  let f1 = Testlib.diamond_func () in
  let f2 = Testlib.diamond_func () in
  let n = 64 in
  let mk input =
    let g = Memory.create ~space:Memory.Sp_global (2 * n) in
    let src = Memory.alloc_of_int_array g input in
    let dst = Memory.alloc g n in
    (g, src, dst)
  in
  let g1, s1, d1 = mk (Array.init n (fun i -> i + 1)) in
  let g2, s2, d2 = mk (Array.init n (fun i -> if i mod 2 = 0 then i + 1 else -i - 1)) in
  let m_uniform = run_simple ~block:n f1 [| s1; d1 |] g1 in
  let m_divergent = run_simple ~block:n f2 [| s2; d2 |] g2 in
  check "divergence is slower" true
    (m_divergent.Metrics.cycles > m_uniform.Metrics.cycles)

let test_alu_utilization_drops_under_divergence () =
  let f1 = Testlib.diamond_func () in
  let f2 = Testlib.diamond_func () in
  let n = 64 in
  let mk input =
    let g = Memory.create ~space:Memory.Sp_global (2 * n) in
    let src = Memory.alloc_of_int_array g input in
    let dst = Memory.alloc g n in
    (g, src, dst)
  in
  let g1, s1, d1 = mk (Array.init n (fun i -> i + 1)) in
  let g2, s2, d2 = mk (Array.init n (fun i -> if i mod 2 = 0 then i + 1 else -i - 1)) in
  let m_u = run_simple ~block:n f1 [| s1; d1 |] g1 in
  let m_d = run_simple ~block:n f2 [| s2; d2 |] g2 in
  check "utilization drops" true
    (Metrics.alu_utilization m_d ~warp_size:64
    < Metrics.alu_utilization m_u ~warp_size:64)

let test_loop_execution () =
  (* out[tid] = sum(0..tid) *)
  let f =
    D.build_kernel ~name:"sumloop" ~params:[ ("out", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let out = List.hd params in
        let t = D.tid ctx in
        let acc = D.local ctx ~name:"acc" Types.I32 in
        D.set ctx acc (D.i32 0);
        D.for_up ctx ~from:(D.i32 0) ~until:t (fun iv ->
            D.set ctx acc (D.add ctx (D.get ctx acc) iv));
        D.store ctx (D.get ctx acc) (D.gep ctx out t))
  in
  let n = 32 in
  let g = Memory.create ~space:Memory.Sp_global n in
  let out = Memory.alloc g n in
  let _ = run_simple ~block:n f [| out |] g in
  let expected = Array.init n (fun i -> i * (i - 1) / 2) in
  Alcotest.(check (array int)) "sums" expected (Memory.read_int_array g out n)

let test_shared_memory_and_barrier () =
  (* reverse within a block through shared memory *)
  let bs = 64 in
  let f =
    D.build_kernel ~name:"reverse" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        let s = D.shared_array ctx bs in
        D.store ctx (D.load ctx (D.gep ctx a t)) (D.gep ctx s t);
        D.sync ctx;
        let rev = D.sub ctx (D.i32 (bs - 1)) t in
        D.store ctx (D.load ctx (D.gep ctx s rev)) (D.gep ctx a t))
  in
  let g = Memory.create ~space:Memory.Sp_global bs in
  let input = Array.init bs (fun i -> i) in
  let a = Memory.alloc_of_int_array g input in
  let m = run_simple ~block:bs f [| a |] g in
  let expected = Array.init bs (fun i -> bs - 1 - i) in
  Alcotest.(check (array int)) "reversed" expected (Memory.read_int_array g a bs);
  check "barrier counted" true (m.Metrics.barriers > 0);
  check "shared memory counted" true (m.Metrics.mem_shared > 0)

let test_cross_warp_barrier () =
  (* two warps exchange through shared memory: block 128, warp 64 *)
  let bs = 128 in
  let f =
    D.build_kernel ~name:"xwarp" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        let s = D.shared_array ctx bs in
        D.store ctx (D.load ctx (D.gep ctx a t)) (D.gep ctx s t);
        D.sync ctx;
        let partner = D.xor ctx t (D.i32 64) in
        D.store ctx (D.load ctx (D.gep ctx s partner)) (D.gep ctx a t))
  in
  let g = Memory.create ~space:Memory.Sp_global bs in
  let input = Array.init bs (fun i -> i * 7) in
  let a = Memory.alloc_of_int_array g input in
  let _ = run_simple ~block:bs f [| a |] g in
  let expected = Array.init bs (fun i -> (i lxor 64) * 7) in
  Alcotest.(check (array int)) "exchanged" expected
    (Memory.read_int_array g a bs)

let test_partial_warp () =
  (* block smaller than the warp: inactive lanes must not store *)
  let f =
    D.build_kernel ~name:"partial" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        D.store ctx (D.i32 1) (D.gep ctx a t))
  in
  let g = Memory.create ~space:Memory.Sp_global 64 in
  let a = Memory.alloc_of_int_array g (Array.make 64 0) in
  let _ = run_simple ~block:16 f [| a |] g in
  let out = Memory.read_int_array g a 64 in
  check "first 16 set" true (Array.for_all (fun v -> v = 1) (Array.sub out 0 16));
  check "rest untouched" true
    (Array.for_all (fun v -> v = 0) (Array.sub out 16 48))

let test_oob_load_faults () =
  let f =
    D.build_kernel ~name:"oob" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        ignore (D.load ctx (D.gep ctx a (D.i32 999999))))
  in
  let g = Memory.create ~space:Memory.Sp_global 4 in
  let a = Memory.alloc g 4 in
  (try
     ignore (run_simple ~block:1 f [| a |] g);
     Alcotest.fail "expected a fault"
   with Memory.Fault _ -> ())

let test_div_by_zero_traps () =
  let f =
    D.build_kernel ~name:"divz" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        let v = D.load ctx (D.gep ctx a t) in
        D.store ctx (D.sdiv ctx (D.i32 100) v) (D.gep ctx a t))
  in
  let g = Memory.create ~space:Memory.Sp_global 4 in
  let a = Memory.alloc_of_int_array g [| 1; 0; 2; 4 |] in
  (try
     ignore (run_simple ~block:4 f [| a |] g);
     Alcotest.fail "expected a trap"
   with Sim.Sim_error _ -> ())

let test_nested_divergence () =
  (* nested divergent branches exercise the SIMT stack depth > 2 *)
  let f =
    D.build_kernel ~name:"nestdiv" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        let r = D.local ctx ~name:"r" Types.I32 in
        D.set ctx r (D.i32 0);
        D.if_ ctx
          (D.eq ctx (D.and_ ctx t (D.i32 1)) (D.i32 0))
          (fun () ->
            D.if_ ctx
              (D.eq ctx (D.and_ ctx t (D.i32 2)) (D.i32 0))
              (fun () -> D.set ctx r (D.i32 1))
              (fun () -> D.set ctx r (D.i32 2)))
          (fun () ->
            D.if_ ctx
              (D.eq ctx (D.and_ ctx t (D.i32 2)) (D.i32 0))
              (fun () -> D.set ctx r (D.i32 3))
              (fun () -> D.set ctx r (D.i32 4)));
        D.store ctx (D.get ctx r) (D.gep ctx a t))
  in
  let n = 64 in
  let g = Memory.create ~space:Memory.Sp_global n in
  let a = Memory.alloc g n in
  let _ = run_simple ~block:n f [| a |] g in
  let expected =
    Array.init n (fun t ->
        if t land 1 = 0 then if t land 2 = 0 then 1 else 2
        else if t land 2 = 0 then 3
        else 4)
  in
  Alcotest.(check (array int)) "nested" expected (Memory.read_int_array g a n)

(* memory-coalescing transaction counters *)
let test_coalescing_counters () =
  let build stride name =
    D.build_kernel ~name ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        let idx = D.mul ctx t (D.i32 stride) in
        D.store ctx t (D.gep ctx a idx))
  in
  let run f size =
    let g = Memory.create ~space:Memory.Sp_global size in
    let a = Memory.alloc g size in
    run_simple ~block:64 f [| a |] g
  in
  let m1 = run (build 1 "coalesced") 64 in
  let m8 = run (build 8 "strided") 512 in
  (* unit stride: 64 lanes over 64 cells = 2 transactions of 32;
     stride 8: 64 lanes spread over 512 cells = 16 transactions *)
  Alcotest.(check int) "coalesced txns" 2 m1.Metrics.global_transactions;
  Alcotest.(check int) "strided txns" 16 m8.Metrics.global_transactions;
  check "ratio orders correctly" true
    (Metrics.transactions_per_access m1 < Metrics.transactions_per_access m8)

(* shared-memory bank conflicts *)
let test_bank_conflicts () =
  let build stride name =
    D.build_kernel ~name ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        let s = D.shared_array ctx 2048 in
        let idx = D.mul ctx t (D.i32 stride) in
        D.store ctx t (D.gep ctx s idx);
        D.sync ctx;
        D.store ctx (D.load ctx (D.gep ctx s idx)) (D.gep ctx a t))
  in
  let run f =
    let g = Memory.create ~space:Memory.Sp_global 64 in
    let a = Memory.alloc g 64 in
    run_simple ~block:64 f [| a |] g
  in
  let m1 = run (build 1 "unit_stride") in
  let m32 = run (build 32 "bank_clash") in
  (* unit stride hits every bank once; stride 32 puts all 64 lanes in
     one bank *)
  Alcotest.(check int) "no conflicts at stride 1" 0 m1.Metrics.bank_conflicts;
  check "stride 32 conflicts heavily" true (m32.Metrics.bank_conflicts > 50)

(* the divergence timeline shows the diamond's serialization: one split
   into two 32-lane arms, and the arms rejoining at the split's
   reconvergence point *)
let test_trace_shows_serialization () =
  let module Tr = Darm_obs.Trace in
  let f = Testlib.diamond_func () in
  let tr = Tr.create () in
  let config = { Sim.default_config with obs = Some tr } in
  let n = 64 in
  let g = Memory.create ~space:Memory.Sp_global (2 * n) in
  let input = Array.init n (fun i -> if i mod 2 = 0 then i + 1 else -i - 1) in
  let src = Memory.alloc_of_int_array g input in
  let dst = Memory.alloc g n in
  ignore (Sim.run ~config f ~args:[| src; dst |] ~global:g
            { Sim.grid_dim = 1; block_dim = n });
  let named name = List.filter (fun e -> e.Tr.ev_name = name) (Tr.events tr) in
  let arg e k = List.assoc k e.Tr.ev_args in
  let int_arg e k = match arg e k with Tr.Int v -> v | _ -> -1 in
  match (named "warp.diverge", named "warp.reconverge") with
  | [ d ], (_ :: _ as rs) ->
      check_int "t_active" 32 (int_arg d "t_active");
      check_int "f_active" 32 (int_arg d "f_active");
      List.iter
        (fun r ->
          check "reconverge names the split" true
            (arg r "branch_id" = arg d "branch_id");
          check "reconverge at the split's IPDOM" true
            (arg r "block" = arg d "reconverge"))
        rs;
      check_int "both arms rejoin" 64
        (List.fold_left (fun a r -> a + int_arg r "active") 0 rs)
  | ds, rs ->
      Alcotest.failf
        "expected one warp.diverge and its reconvergence, got %d and %d"
        (List.length ds) (List.length rs)

let suites =
  [
    ( "simulator",
      [
        Alcotest.test_case "copy kernel" `Quick test_copy_kernel;
        Alcotest.test_case "divergent diamond" `Quick
          test_divergent_diamond_semantics;
        Alcotest.test_case "uniform branch no split" `Quick
          test_uniform_branch_no_split;
        Alcotest.test_case "divergence costs cycles" `Quick
          test_divergence_costs_cycles;
        Alcotest.test_case "alu utilization drop" `Quick
          test_alu_utilization_drops_under_divergence;
        Alcotest.test_case "loop execution" `Quick test_loop_execution;
        Alcotest.test_case "shared memory + barrier" `Quick
          test_shared_memory_and_barrier;
        Alcotest.test_case "cross-warp barrier" `Quick test_cross_warp_barrier;
        Alcotest.test_case "partial warp" `Quick test_partial_warp;
        Alcotest.test_case "oob load faults" `Quick test_oob_load_faults;
        Alcotest.test_case "div by zero traps" `Quick test_div_by_zero_traps;
        Alcotest.test_case "nested divergence" `Quick test_nested_divergence;
        Alcotest.test_case "coalescing counters" `Quick (fun () ->
            test_coalescing_counters ());
        Alcotest.test_case "bank conflicts" `Quick (fun () ->
            test_bank_conflicts ());
        Alcotest.test_case "trace serialization" `Quick (fun () ->
            test_trace_shows_serialization ());
      ] );
  ]
