(* Differential tests of the flat and trace-replay execution engines
   against the reference interpreter.  The contract is three-way
   bit-identity: same return value (to the bit for floats), same printed
   output, same step count, same trap message or fuel exhaustion — and,
   under the machine simulator, the same cycle count and the same value
   in every hardware counter, on every preset machine config.

   Three layers of evidence:
     - the whole workload suite, unoptimized and after the fixed
       pipelines (every field compared), and on issue widths no preset
       uses;
     - 1000 generated programs, bare and after a per-seed random valid
       pass sequence (failures are shrunk to minimal reproducers);
     - hand-built programs (source- and raw-IR-level) that drive every
       trap path, since the generator is trap-free by construction. *)

module Ir = Mira.Ir
module Interp = Mira.Interp

let check_agree what p =
  match Testgen.Diff.diff_all p with
  | [] -> ()
  | ds -> Alcotest.failf "%s: engines disagree: %s" what (String.concat "; " ds)

(* the three simulator engines on the default config; the trace engine
   is entered, as everywhere, through a (one-config) grid *)
let sim_engines =
  [ ("ref", fun p -> Mach.Sim.run ~engine:Mach.Sim.Ref p);
    ("flat", fun p -> Mach.Sim.run ~engine:Mach.Sim.Flat p);
    ("trace",
     fun p -> (Mach.Sim.run_grid ~configs:[| Mach.Config.default |] p).(0)) ]

(* --- workload suite ------------------------------------------------ *)

let test_workloads_agree () =
  List.iter
    (fun (w : Workloads.t) ->
      let p = Workloads.program w in
      List.iter
        (fun (label, seq) ->
          check_agree
            (Printf.sprintf "%s after %s" w.Workloads.name label)
            (Passes.Pass.apply_sequence seq p))
        [
          ("no passes", []);
          ("O2", Passes.Pass.o2);
          ("Ofast", Passes.Pass.ofast);
        ])
    Workloads.all

(* A global's zero tail is implicit in the IR and written out by the
   engines when a run starts: on every engine, the program and its copy
   with the tail written out must run identically, before and after
   Ofast (whose pack pass reads [ginit]). *)
let test_padded_copy_agrees () =
  let same (a : Mach.Sim.result) (b : Mach.Sim.result) =
    Stdlib.compare
      (a.Mach.Sim.cycles, a.Mach.Sim.counters, a.Mach.Sim.ret,
       a.Mach.Sim.output, a.Mach.Sim.steps)
      (b.Mach.Sim.cycles, b.Mach.Sim.counters, b.Mach.Sim.ret,
       b.Mach.Sim.output, b.Mach.Sim.steps)
    = 0
  in
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun (label, seq) ->
          let p = Passes.Pass.apply_sequence seq (Workloads.program w) in
          let padded = Padded.program p in
          List.iter
            (fun (name, run) ->
              if not (same (run p) (run padded)) then
                Alcotest.failf "%s at %s on %s: padded copy runs differently"
                  w.Workloads.name label name)
            sim_engines)
        [ ("O0", []); ("Ofast", Passes.Pass.ofast) ])
    Workloads.all

(* --- fuzzing ------------------------------------------------------- *)

(* deterministic random valid pass sequence per seed (same scheme as
   tools/wl.ml, different seed salt) *)
let random_seq_for seed =
  let st = Random.State.make [| seed; 0xf1a7 |] in
  let rec pick () =
    let len = 1 + Random.State.int st 8 in
    let s =
      List.init len (fun _ ->
          Passes.Pass.of_index (Random.State.int st Passes.Pass.count))
    in
    if Passes.Pass.sequence_valid s then s else pick ()
  in
  pick ()

let fuzz_seed_base = 9000
let fuzz_count = 1000

let test_fuzz_engines () =
  let failures = ref [] in
  for i = 0 to fuzz_count - 1 do
    let seed = fuzz_seed_base + i in
    let src = Testgen.Gen_program.generate seed in
    let seq = random_seq_for seed in
    List.iter
      (fun (label, transform) ->
        if Testgen.Diff.disagrees ~transform src then
          failures :=
            Printf.sprintf "seed %d (%s):\n%s" seed label
              (Testgen.Shrink.report ~seed
                 ~fails:(fun s -> Testgen.Diff.disagrees ~transform s)
                 src)
            :: !failures)
      [
        ("bare", (fun p -> p));
        ( Printf.sprintf "after %s" (Passes.Pass.sequence_to_string seq),
          Passes.Pass.apply_sequence seq );
      ]
  done;
  match !failures with
  | [] -> ()
  | fs ->
    Alcotest.failf "%d/%d fuzz programs disagree:\n%s" (List.length fs)
      fuzz_count
      (String.concat "\n" (List.rev fs))

(* --- trap fidelity -------------------------------------------------- *)

(* The generator cannot produce traps, so every trap path is driven by a
   hand-built program.  [expect_trap] asserts the flat engine raises the
   exact reference message and that the full diff (including sim
   counters accumulated before the trap) is empty. *)
let expect_trap msg p =
  (match Mira.Decode.run_program p with
  | _ -> Alcotest.failf "expected trap %S, but program finished" msg
  | exception Interp.Trap m -> Alcotest.(check string) "trap message" msg m);
  check_agree (Printf.sprintf "trap %S" msg) p

(* raw-IR construction helpers, for programs the typechecker would
   reject (type confusion, undefined registers, unknown names) *)
let blocks_of_list bs =
  List.fold_left (fun m (l, b) -> Ir.LMap.add l b m) Ir.LMap.empty bs

let mk_func ?(params = []) ?(locals = []) ~nregs name bs =
  {
    Ir.name;
    params;
    nregs;
    entry = 0;
    blocks = blocks_of_list bs;
    nlabels = List.length bs;
    locals;
  }

let mk_prog ?(globals = []) funcs =
  {
    Ir.globals;
    funcs =
      List.fold_left
        (fun m (f : Ir.func) -> Ir.SMap.add f.Ir.name f m)
        Ir.SMap.empty funcs;
    main = "main";
  }

let main_of ?globals ?locals ~nregs bs =
  mk_prog ?globals [ mk_func ?locals ~nregs "main" bs ]

let int_glob name size =
  { Ir.gname = name; gelt = Ir.EltInt; gsize = size;
    ginit = Array.make size 0.0 }

let test_trap_type_confusion () =
  (* as_int sees a bool *)
  expect_trap "expected int, got true"
    (main_of ~nregs:1
       [ (0, Ir.block ~instrs:[ Ir.Bin (Ir.Add, 0, Ir.Cbool true, Ir.Cint 1) ]
            (Ir.Ret None)) ]);
  (* operand B converts before A is read (right-to-left) *)
  expect_trap "expected int, got 1.5"
    (main_of ~nregs:1
       [ (0, Ir.block
            ~instrs:[ Ir.Bin (Ir.Add, 0, Ir.Cbool true, Ir.Cfloat 1.5) ]
            (Ir.Ret None)) ]);
  expect_trap "ordered comparison on bool"
    (main_of ~nregs:1
       [ (0, Ir.block
            ~instrs:[ Ir.Icmp (Ir.Lt, 0, Ir.Cbool true, Ir.Cbool false) ]
            (Ir.Ret None)) ]);
  expect_trap "storing non-int into int array"
    (main_of ~globals:[ int_glob "g" 4 ] ~nregs:1
       [ (0, Ir.block
            ~instrs:[ Ir.Store (Ir.AGlob "g", Ir.Cint 0, Ir.Cfloat 1.5) ]
            (Ir.Ret None)) ])

let test_trap_undef_and_names () =
  expect_trap "main: read of undefined r1"
    (main_of ~nregs:2
       [ (0, Ir.block ~instrs:[ Ir.Mov (0, Ir.Reg 1) ] (Ir.Ret None)) ]);
  expect_trap "unknown global nope"
    (main_of ~nregs:1
       [ (0, Ir.block ~instrs:[ Ir.Load (0, Ir.AGlob "nope", Ir.Cint 0) ]
            (Ir.Ret None)) ]);
  expect_trap "unknown local array nope in main"
    (main_of ~nregs:1
       [ (0, Ir.block ~instrs:[ Ir.Load (0, Ir.ALoc "nope", Ir.Cint 0) ]
            (Ir.Ret None)) ]);
  expect_trap "call to unknown function nope"
    (main_of ~nregs:1
       [ (0, Ir.block ~instrs:[ Ir.Call (Some 0, "nope", []) ] (Ir.Ret None)) ]);
  expect_trap "arity mismatch calling f"
    (mk_prog
       [
         mk_func ~nregs:1 "main"
           [ (0, Ir.block ~instrs:[ Ir.Call (Some 0, "f", []) ] (Ir.Ret None)) ];
         mk_func ~params:[ 0 ] ~nregs:1 "f"
           [ (0, Ir.block (Ir.Ret (Some (Ir.Reg 0)))) ];
       ])

let test_trap_arith () =
  expect_trap "division by zero"
    (main_of ~nregs:1
       [ (0, Ir.block ~instrs:[ Ir.Bin (Ir.Div, 0, Ir.Cint 1, Ir.Cint 0) ]
            (Ir.Ret None)) ]);
  expect_trap "remainder by zero"
    (main_of ~nregs:1
       [ (0, Ir.block ~instrs:[ Ir.Bin (Ir.Rem, 0, Ir.Cint 1, Ir.Cint 0) ]
            (Ir.Ret None)) ]);
  expect_trap "shift count 63"
    (main_of ~nregs:1
       [ (0, Ir.block ~instrs:[ Ir.Bin (Ir.Shl, 0, Ir.Cint 1, Ir.Cint 63) ]
            (Ir.Ret None)) ]);
  expect_trap "float-to-int overflow on 1e+19"
    (main_of ~nregs:1
       [ (0, Ir.block ~instrs:[ Ir.F2i (0, Ir.Cfloat 1e19) ] (Ir.Ret None)) ])

let test_trap_memory () =
  expect_trap "load out of bounds: index 99, length 4"
    (main_of ~globals:[ int_glob "g" 4 ] ~nregs:1
       [ (0, Ir.block ~instrs:[ Ir.Load (0, Ir.AGlob "g", Ir.Cint 99) ]
            (Ir.Ret None)) ]);
  expect_trap "store out of bounds: index -1, length 4"
    (main_of ~globals:[ int_glob "g" 4 ] ~nregs:1
       [ (0, Ir.block
            ~instrs:[ Ir.Store (Ir.AGlob "g", Ir.Cint (-1), Ir.Cint 7) ]
            (Ir.Ret None)) ]);
  (* unbounded recursion with a fat frame exhausts the simulated stack *)
  expect_trap "stack overflow"
    (mk_prog
       [
         mk_func ~nregs:1 "main"
           [ (0, Ir.block ~instrs:[ Ir.Call (None, "f", []) ] (Ir.Ret None)) ];
         mk_func ~nregs:1 ~locals:[ ("buf", Ir.EltFloat, 65536) ] "f"
           [ (0, Ir.block ~instrs:[ Ir.Call (None, "f", []) ] (Ir.Ret None)) ];
       ])

(* --- semantics corners the suite underexercises -------------------- *)

let compile src =
  match Mira.Lower.compile_source src with
  | Ok p -> p
  | Error e -> Alcotest.failf "test program does not compile: %s" e

let test_packed_global () =
  (* EltInt32 globals mask stores to 32 bits; the flat engine must apply
     the same mask on its fast store path *)
  let p =
    main_of
      ~globals:
        [ { Ir.gname = "g"; gelt = Ir.EltInt32; gsize = 4;
            ginit = Array.make 4 0.0 } ]
      ~nregs:1
      [
        (0, Ir.block
           ~instrs:
             [
               Ir.Store (Ir.AGlob "g", Ir.Cint 1, Ir.Cint ((1 lsl 35) + 5));
               Ir.Load (0, Ir.AGlob "g", Ir.Cint 1);
             ]
           (Ir.Ret (Some (Ir.Reg 0))));
      ]
  in
  check_agree "packed global" p;
  let r = Mira.Decode.run_program p in
  Alcotest.(check string) "masked to 32 bits" "5"
    (Interp.value_to_string r.Interp.ret)

let test_recursion_and_floats () =
  let p =
    compile
      {|fn fib(n: int) -> int {
          if (n < 2) { return n; }
          return fib(n - 1) + fib(n - 2);
        }
        fn main() -> int {
          var x: float = 1.0;
          x = x / 3.0;
          print(x);
          return fib(15);
        }|}
  in
  check_agree "recursion + float print" p;
  let r = Mira.Decode.run_program p in
  Alcotest.(check string) "fib(15)" "610" (Interp.value_to_string r.Interp.ret)

let test_fuel_boundary () =
  let p =
    compile
      {|fn main() -> int {
          var s: int = 0;
          for i = 0 to 10 { s = s + i; }
          return s;
        }|}
  in
  let steps = (Interp.run p).Interp.steps in
  (* engines agree exactly at, below, and above the exhaustion point *)
  List.iter
    (fun fuel ->
      match Testgen.Diff.diff_all ~fuel p with
      | [] -> ()
      | ds ->
        Alcotest.failf "fuel=%d: engines disagree: %s" fuel
          (String.concat "; " ds))
    [ steps - 1; steps; steps + 1 ];
  List.iter
    (fun fuel ->
      let flat_exhausts =
        match Mira.Decode.run_program ~fuel p with
        | _ -> false
        | exception Interp.Out_of_fuel -> true
      in
      let ref_exhausts =
        match Interp.run ~fuel p with
        | _ -> false
        | exception Interp.Out_of_fuel -> true
      in
      Alcotest.(check bool)
        (Printf.sprintf "exhaustion at fuel=%d" fuel)
        ref_exhausts flat_exhausts)
    [ steps - 1; steps; steps + 1 ]

(* The documented edge on ill-formed IR (a "bad reg" in
   Ir.check_program): a simple op with a negative register id raises
   Invalid_argument on every engine, but the flat simulator reads the
   op's operands first, like the plain engines, so an earlier operand's
   trap wins there; the reference simulator raises from its issue stamps
   before reading any operand. *)
let test_negative_register_edge () =
  let raises_invalid f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let neg_def =
    main_of ~nregs:1
      [ (0, Ir.block ~instrs:[ Ir.Mov (-1, Ir.Cint 1) ] (Ir.Ret None)) ]
  in
  List.iter
    (fun (name, run) ->
      Alcotest.(check bool)
        (name ^ ": negative def raises")
        true
        (raises_invalid (fun () -> run neg_def)))
    sim_engines;
  let undef_then_neg =
    main_of ~nregs:1
      [ (0, Ir.block ~instrs:[ Ir.Bin (Ir.Add, 0, Ir.Reg (-1), Ir.Reg 0) ]
           (Ir.Ret None)) ]
  in
  Alcotest.(check bool) "ref: stamp raises first" true
    (raises_invalid (fun () ->
         Mach.Sim.run ~engine:Mach.Sim.Ref undef_then_neg));
  match Mach.Sim.run ~engine:Mach.Sim.Flat undef_then_neg with
  | _ -> Alcotest.fail "expected a trap"
  | exception Interp.Trap m ->
    Alcotest.(check string) "flat: operand B traps first"
      "main: read of undefined r0" m

let test_cycles_of_outcomes () =
  let ok =
    compile {|fn main() -> int { return 7; }|}
  in
  (match Mach.Sim.cycles_of ok with
  | Mach.Sim.Cycles n ->
    (match Mach.Sim.cycles_of ~engine:Mach.Sim.Ref ok with
    | Mach.Sim.Cycles n' -> Alcotest.(check int) "engines' cycles" n' n
    | _ -> Alcotest.fail "ref engine did not finish")
  | _ -> Alcotest.fail "expected Cycles");
  let div0 =
    main_of ~nregs:1
      [ (0, Ir.block ~instrs:[ Ir.Bin (Ir.Div, 0, Ir.Cint 1, Ir.Cint 0) ]
           (Ir.Ret None)) ]
  in
  (match Mach.Sim.cycles_of div0 with
  | Mach.Sim.Trapped m ->
    Alcotest.(check string) "trap reason" "division by zero" m
  | _ -> Alcotest.fail "expected Trapped");
  let spin =
    main_of ~nregs:0 [ (0, Ir.block (Ir.Jmp 0)) ]
  in
  match Mach.Sim.cycles_of ~fuel:1000 spin with
  | Mach.Sim.Exhausted -> ()
  | _ -> Alcotest.fail "expected Exhausted"

(* The flat engine prices each run of simple-issue ops from a table
   built per issue width, and the presets cover widths 1, 3 and 8 only:
   hold all three engines together on widths no preset uses, over the
   suite and a block wide enough to fill a 16-wide bundle (the suite's
   bundles never hold more than 8 ops). *)
let test_other_issue_widths () =
  let wide =
    main_of ~nregs:40
      [ (0, Ir.block
           ~instrs:
             (List.init 20 (fun i -> Ir.Mov (i, Ir.Cint i))
             @ List.init 19 (fun i ->
                   Ir.Bin (Ir.Add, 20 + i, Ir.Reg i, Ir.Reg (i + 1))))
           (Ir.Ret (Some (Ir.Reg 38)))) ]
  in
  let programs =
    ("20 independent moves", wide)
    :: List.concat_map
         (fun (w : Workloads.t) ->
           let p = Workloads.program w in
           [
             (w.Workloads.name ^ " bare", p);
             ( w.Workloads.name ^ " after Ofast",
               Passes.Pass.apply_sequence Passes.Pass.ofast p );
           ])
         Workloads.all
  in
  List.iter
    (fun width ->
      let config =
        { Mach.Config.amd_like with
          Mach.Config.name = Printf.sprintf "amd-like-w%d" width;
          issue_width = width }
      in
      List.iter
        (fun (label, p) ->
          match Testgen.Diff.diff_sim ~config p with
          | [] -> ()
          | ds ->
            Alcotest.failf "%s, issue width %d: engines disagree: %s" label
              width (String.concat "; " ds))
        programs)
    [ 2; 4; 16 ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  [
    ( "flat-engine",
      [
        slow "workload suite agrees (bare/O2/Ofast)" test_workloads_agree;
        slow
          (Printf.sprintf "%d fuzz programs agree (bare + random sequences)"
             fuzz_count)
          test_fuzz_engines;
        slow "written-out zero tails run identically" test_padded_copy_agrees;
        t "trap fidelity: type confusion" test_trap_type_confusion;
        t "trap fidelity: undef + unknown names" test_trap_undef_and_names;
        t "trap fidelity: arithmetic" test_trap_arith;
        t "trap fidelity: memory + stack" test_trap_memory;
        t "packed int32 global" test_packed_global;
        t "recursion and float printing" test_recursion_and_floats;
        t "fuel exhaustion boundary" test_fuel_boundary;
        t "cycles_of outcomes" test_cycles_of_outcomes;
        slow "issue widths the presets do not use" test_other_issue_widths;
        t "negative register id (ill-formed IR)" test_negative_register_edge;
      ] );
  ]

let () = Alcotest.run "flat" suite
