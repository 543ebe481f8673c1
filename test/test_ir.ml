(* Unit and property tests for the mira front end, IR and interpreter. *)

let compile src = Mira.Lower.compile_source_exn src

let run_main src =
  let p = compile src in
  Mira.Interp.run p

let check_ret src expected =
  let r = run_main src in
  Alcotest.(check string) "return value" expected
    (Mira.Interp.value_to_string r.Mira.Interp.ret)

let check_out src expected =
  let r = run_main src in
  Alcotest.(check string) "output" expected r.Mira.Interp.output

(* ------------------------------------------------------------------ *)
(* Lexer *)

let test_lexer_basic () =
  let toks = Mira.Lexer.tokenize "fn main() -> int { return 42; }" in
  let kinds = List.map fst toks in
  Alcotest.(check int) "token count" 12 (List.length kinds);
  (match kinds with
   | Mira.Lexer.KFN :: Mira.Lexer.IDENT "main" :: _ -> ()
   | _ -> Alcotest.fail "unexpected tokens")

let test_lexer_numbers () =
  let toks = Mira.Lexer.tokenize "1 23 0x10 1.5 2e3 0x1.8p1" in
  let kinds = List.map fst toks in
  match kinds with
  | [ INT 1; INT 23; INT 16; FLOAT a; FLOAT b; FLOAT c; EOF ] ->
    Alcotest.(check (float 1e-9)) "1.5" 1.5 a;
    Alcotest.(check (float 1e-9)) "2e3" 2000.0 b;
    Alcotest.(check (float 1e-9)) "hexfloat" 3.0 c
  | _ -> Alcotest.fail "unexpected number tokens"

let test_lexer_comments () =
  let toks = Mira.Lexer.tokenize "// line\n1 /* block\n across */ 2" in
  match List.map fst toks with
  | [ INT 1; INT 2; EOF ] -> ()
  | _ -> Alcotest.fail "comments not skipped"

let test_lexer_operators () =
  let toks = Mira.Lexer.tokenize "<= >= == != && || << >> -> < >" in
  match List.map fst toks with
  | [ LE; GE; EQEQ; NE; ANDAND; OROR; SHL; SHR; ARROW; LT; GT; EOF ] -> ()
  | _ -> Alcotest.fail "operators misparsed"

let test_lexer_error () =
  match Mira.Lexer.tokenize "fn $ x" with
  | _ -> Alcotest.fail "expected lexer error"
  | exception Mira.Lexer.Error (_, pos) ->
    Alcotest.(check int) "error line" 1 pos.Mira.Ast.line

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_simple () =
  let p = Mira.Parser.parse "fn main() -> int { return 1 + 2 * 3; }" in
  Alcotest.(check int) "one function" 1 (List.length p.Mira.Ast.funcs)

let test_parse_precedence () =
  check_ret "fn main() -> int { return 1 + 2 * 3; }" "7";
  check_ret "fn main() -> int { return (1 + 2) * 3; }" "9";
  check_ret "fn main() -> int { return 10 - 3 - 2; }" "5";
  check_ret "fn main() -> int { return 1 << 3 | 2; }" "10";
  check_ret "fn main() -> int { return 7 & 3 ^ 1; }" "2"

let test_parse_error_reports_position () =
  match Mira.Parser.parse "fn main() -> int { return 1 +; }" with
  | _ -> Alcotest.fail "expected parse error"
  | exception Mira.Parser.Error (_, pos) ->
    Alcotest.(check bool) "column recorded" true (pos.Mira.Ast.col > 0)

let test_parse_dangling_else () =
  check_ret
    {|fn main() -> int {
        var x: int = 0;
        if (true) { if (false) { x = 1; } else { x = 2; } }
        return x;
      }|}
    "2"

let test_parse_roundtrip_manual () =
  let src =
    {|global tbl: int[4] = {1, 2, 3, 4};
      fn add(a: int, b: int) -> int { return a + b; }
      fn main() -> int {
        var s: int = 0;
        for i = 0 to 4 { s = add(s, tbl[i]); }
        return s;
      }|}
  in
  let ast = Mira.Parser.parse src in
  let printed = Mira.Ast.to_string ast in
  let ast2 = Mira.Parser.parse printed in
  let printed2 = Mira.Ast.to_string ast2 in
  Alcotest.(check string) "pretty-print fixpoint" printed printed2

(* ------------------------------------------------------------------ *)
(* Typechecker *)

let expect_type_error src =
  let ast = Mira.Parser.parse src in
  match Mira.Typecheck.check ast with
  | () -> Alcotest.fail "expected type error"
  | exception Mira.Typecheck.Error _ -> ()

let test_type_errors () =
  expect_type_error "fn main() -> int { return 1.0; }";
  expect_type_error "fn main() -> int { return 1 + 1.0; }";
  expect_type_error "fn main() -> int { var x: bool = 1; return 0; }";
  expect_type_error "fn main() -> int { if (1) { } return 0; }";
  expect_type_error "fn main() -> int { return y; }";
  expect_type_error "fn main() -> int { return f(); }";
  expect_type_error
    "fn f(x: int) -> int { return x; } fn main() -> int { return f(); }";
  expect_type_error "fn f() { } fn main() -> int { return f(); }";
  expect_type_error "fn main() -> int { var a: int[4]; return a; }";
  expect_type_error "fn main() -> int { var a: int[4]; a[1.0] = 1; return 0; }";
  expect_type_error
    "fn main() -> int { var x: int = 1; var x: int = 2; return x; }";
  expect_type_error "fn nomain() -> int { return 0; }"

let test_type_ok_scopes () =
  check_ret
    {|fn main() -> int {
        var t: int = 0;
        if (true) { var x: int = 1; t = t + x; } else { var x: int = 2; t = t + x; }
        if (true) { var x: int = 5; t = t + x; }
        return t;
      }|}
    "6"

(* ------------------------------------------------------------------ *)
(* Interpreter semantics *)

let test_arith () =
  check_ret "fn main() -> int { return 7 / 2; }" "3";
  check_ret "fn main() -> int { return (0 - 7) / 2; }" "-3";
  check_ret "fn main() -> int { return 7 % 3; }" "1";
  check_ret "fn main() -> int { return ~5; }" "-6";
  check_ret "fn main() -> int { return -(3 - 10); }" "7"

let test_float_arith () =
  check_out "fn main() -> int { print(1.5 + 2.25); return 0; }" "3.75\n";
  check_out "fn main() -> int { print(float(7) / 2.0); return 0; }" "3.5\n";
  check_out "fn main() -> int { print(int(3.9)); return 0; }" "3\n"

let test_short_circuit () =
  check_ret
    {|fn main() -> int {
        var a: int[1];
        var i: int = 5;
        if (i < 1 && a[i] == 0) { return 1; }
        return 2;
      }|}
    "2";
  check_ret
    {|fn main() -> int {
        var a: int[1];
        var i: int = 5;
        if (i > 1 || a[i] == 0) { return 1; }
        return 2;
      }|}
    "1"

let test_while_loop () =
  check_ret
    {|fn main() -> int {
        var i: int = 0; var s: int = 0;
        while (i < 10) { s = s + i; i = i + 1; }
        return s;
      }|}
    "45"

let test_for_loop () =
  check_ret
    {|fn main() -> int {
        var s: int = 0;
        for i = 0 to 10 step 2 { s = s + i; }
        return s;
      }|}
    "20";
  check_ret
    {|fn main() -> int {
        var s: int = 0;
        for i = 0 to 3 { for j = 0 to 3 { s = s + i * j; } }
        return s;
      }|}
    "9"

let test_arrays () =
  check_ret
    {|fn main() -> int {
        var a: int[16];
        for i = 0 to 16 { a[i] = i * i; }
        var s: int = 0;
        for i = 0 to 16 { s = s + a[i]; }
        return s;
      }|}
    "1240";
  check_ret "fn main() -> int { var a: float[8]; return len(a); }" "8"

let test_globals () =
  check_ret
    {|global g: int[4] = {10, 20, 30};
      fn main() -> int { return g[0] + g[1] + g[2] + g[3]; }|}
    "60";
  check_ret
    {|global g: float[2] = {1.5, 2.5};
      fn main() -> int { return int(g[0] + g[1]); }|}
    "4";
  check_ret
    {|global g: float[4] = {1.5, 2.5};
      fn main() -> int { return int(g[0] + g[3]); }|}
    "1"

let test_calls_and_recursion () =
  check_ret
    {|fn fib(n: int) -> int {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
      }
      fn main() -> int { return fib(15); }|}
    "610";
  check_ret
    {|fn fill(a: int[], v: int) {
        for i = 0 to len(a) { a[i] = v; }
      }
      fn main() -> int {
        var a: int[5];
        fill(a, 7);
        return a[0] + a[4];
      }|}
    "14"

let test_array_params_alias () =
  check_ret
    {|fn bump(a: int[]) { a[0] = a[0] + 1; }
      fn main() -> int {
        var a: int[1];
        bump(a); bump(a); bump(a);
        return a[0];
      }|}
    "3"

let expect_trap src =
  let p = compile src in
  match Mira.Interp.run p with
  | _ -> Alcotest.fail "expected trap"
  | exception Mira.Interp.Trap _ -> ()

let test_traps () =
  expect_trap "fn main() -> int { var z: int = 0; return 1 / z; }";
  expect_trap "fn main() -> int { var z: int = 0; return 1 % z; }";
  expect_trap "fn main() -> int { var a: int[2]; return a[2]; }";
  expect_trap "fn main() -> int { var a: int[2]; return a[-1]; }";
  expect_trap "fn main() -> int { var a: int[2]; a[5] = 1; return 0; }";
  expect_trap "fn main() -> int { var s: int = 64; return 1 << s; }"

let test_fuel () =
  let p = compile "fn main() -> int { while (true) { } return 0; }" in
  match Mira.Interp.run ~fuel:1000 p with
  | _ -> Alcotest.fail "expected fuel exhaustion"
  | exception Mira.Interp.Out_of_fuel -> ()

let test_print_formats () =
  check_out
    {|fn main() -> int {
        print(42); print(1.25); print(true); print(false);
        return 0;
      }|}
    "42\n1.25\ntrue\nfalse\n"

let test_local_array_zero_init () =
  check_ret
    {|fn f() -> int { var a: int[4]; var s: int = a[0] + a[3]; a[0] = 9; return s; }
      fn main() -> int {
        var x: int = f();
        var y: int = f();
        return x + y;
      }|}
    "0"

(* ------------------------------------------------------------------ *)
(* IR structural checks *)

let test_ir_well_formed () =
  let p =
    compile
      {|fn g(x: int) -> int { if (x > 0) { return x; } return -x; }
        fn main() -> int {
          var s: int = 0;
          for i = 0 to 10 { s = s + g(5 - i); }
          return s;
        }|}
  in
  Alcotest.(check (list string)) "no wf errors" [] (Mira.Ir.check_program p)

(* a negative register id in a simple op is ill-formed: check_program
   reports it as a use ("bad reg") and as a def ("bad def"); the engines
   differ on which trap such an op raises first (see Decode) *)
let test_ir_negative_registers () =
  let main instrs =
    let f =
      { Mira.Ir.name = "main"; params = []; nregs = 1; entry = 0;
        blocks =
          Mira.Ir.LMap.singleton 0 (Mira.Ir.block ~instrs (Mira.Ir.Ret None));
        nlabels = 1; locals = [] }
    in
    { Mira.Ir.globals = []; funcs = Mira.Ir.SMap.singleton "main" f;
      main = "main" }
  in
  Alcotest.(check (list string)) "negative use" [ "main: L0: bad reg r-1" ]
    (Mira.Ir.check_program
       (main [ Mira.Ir.Bin (Mira.Ir.Add, 0, Mira.Ir.Reg (-1), Mira.Ir.Cint 1) ]));
  Alcotest.(check (list string)) "negative def" [ "main: L0: bad def r-2" ]
    (Mira.Ir.check_program (main [ Mira.Ir.Mov (-2, Mira.Ir.Cint 1) ]))

let test_ir_loop_analysis () =
  let p =
    compile
      {|fn main() -> int {
          var s: int = 0;
          for i = 0 to 4 { for j = 0 to 4 { s = s + 1; } }
          while (s > 100) { s = s - 1; }
          return s;
        }|}
  in
  let f = Mira.Ir.find_func p "main" in
  let _, loops = Mira.Analysis.natural_loops f in
  Alcotest.(check int) "three loops" 3 (List.length loops);
  let depths = List.map (fun (l : Mira.Analysis.loop) -> l.depth) loops in
  Alcotest.(check int) "max depth 2" 2 (List.fold_left max 0 depths)

let test_ir_dominators () =
  let p =
    compile
      {|fn main() -> int {
          var x: int = 0;
          if (true) { x = 1; } else { x = 2; }
          return x;
        }|}
  in
  let f = Mira.Ir.find_func p "main" in
  let cfg = Mira.Analysis.cfg_of f in
  let doms = Mira.Analysis.dominators cfg in
  Array.iter
    (fun l ->
      Alcotest.(check bool) "entry dominates" true
        (Mira.Analysis.dominates doms f.Mira.Ir.entry l))
    cfg.Mira.Analysis.rpo

let test_ir_liveness () =
  let p =
    compile
      {|fn main() -> int {
          var a: int = 1;
          var b: int = 2;
          while (a < 100) { a = a + b; }
          return a;
        }|}
  in
  let f = Mira.Ir.find_func p "main" in
  let cfg = Mira.Analysis.cfg_of f in
  let lv = Mira.Analysis.liveness f cfg in
  let nonempty =
    Mira.Ir.LMap.exists
      (fun _ s -> not (Mira.Ir.RSet.is_empty s))
      lv.Mira.Analysis.live_in
  in
  Alcotest.(check bool) "live sets nonempty" true nonempty

let ginit_of src =
  match (compile src).Mira.Ir.globals with
  | [ g ] -> g.Mira.Ir.ginit
  | _ -> Alcotest.fail "expected one global"

let bits a = Array.to_list (Array.map Int64.bits_of_float a)

let test_ginit_written_only () =
  let fn = " fn main() -> int { return 0; }" in
  let check label expect src =
    Alcotest.(check (list int64))
      label (bits expect)
      (bits (ginit_of (src ^ fn)))
  in
  check "zero tail dropped" [| 1.0; 2.0 |] "global g: int[8] = {1, 2};";
  check "written zeros dropped" [| 1.0; 2.0 |]
    "global g: int[8] = {1, 2, 0, 0};";
  check "all zeros" [||] "global g: int[4] = {0, 0};";
  check "no initializer" [||] "global g: int[4];";
  check "inner zero kept" [| 0.0; 3.0 |] "global g: int[4] = {0, 3};";
  check "-0.0 kept" [| 1.0; -0.0 |] "global g: float[2] = {1.0, -0.0};";
  check "+0.0 after -0.0 dropped" [| -0.0 |]
    "global g: float[3] = {-0.0, 0.0};";
  (* mcf_spars writes no initializer: its ~100k elements are all implicit *)
  List.iter
    (fun (g : Mira.Ir.global) ->
      Alcotest.(check int) (g.Mira.Ir.gname ^ ": empty ginit") 0
        (Array.length g.Mira.Ir.ginit))
    (Workloads.program Workloads.mcf_spars).Mira.Ir.globals

let test_ir_ginit_within_gsize () =
  let p =
    compile "global g: int[2] = {1, 2}; fn main() -> int { return g[1]; }"
  in
  let with_init init =
    { p with
      Mira.Ir.globals =
        List.map
          (fun g -> { g with Mira.Ir.ginit = init })
          p.Mira.Ir.globals
    }
  in
  Alcotest.(check (list string)) "full initializer is well-formed" []
    (Mira.Ir.check_program (with_init [| 1.0; 2.0 |]));
  let long = with_init [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check (list string)) "longer than gsize is reported"
    [ "global g: 3 initializers for 2 elements" ]
    (Mira.Ir.check_program long);
  (* it would read past gsize and overlap the next global: refused *)
  match Mira.Interp.run long with
  | _ -> Alcotest.fail "a ginit longer than gsize must not run"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Packed (EltInt32) array semantics *)

let test_packed_global_semantics () =
  (* hand-pack a global and check stores mask to 32 bits, loads
     zero-extend, and addresses halve (observable via the cache hooks) *)
  let p =
    compile
      {|global g: int[8];
        fn main() -> int {
          g[0] = 5;
          g[7] = 4294967295;
          return g[0] + g[7];
        }|}
  in
  let packed =
    { p with
      Mira.Ir.globals =
        List.map
          (fun gl -> { gl with Mira.Ir.gelt = Mira.Ir.EltInt32 })
          p.Mira.Ir.globals
    }
  in
  let r = Mira.Interp.run packed in
  Alcotest.(check string) "values in range survive packing"
    "4294967300"
    (Mira.Interp.value_to_string r.Mira.Interp.ret);
  (* addresses: collect load/store addresses and compare spans *)
  let span prog =
    let lo = ref max_int and hi = ref 0 in
    let note a =
      lo := min !lo a;
      hi := max !hi a
    in
    let hooks =
      { Mira.Interp.no_hooks with
        Mira.Interp.on_load = note;
        Mira.Interp.on_store = note
      }
    in
    ignore (Mira.Interp.run ~hooks prog);
    !hi - !lo
  in
  Alcotest.(check int) "packed footprint is half" (span p / 2) (span packed)

let test_packed_masks_stores () =
  (* out-of-range values are masked — the reason the pack PASS only fires
     when it can prove values fit *)
  let p =
    compile
      {|global g: int[2];
        fn main() -> int {
          g[0] = 0 - 1;
          return g[0];
        }|}
  in
  let packed =
    { p with
      Mira.Ir.globals =
        List.map
          (fun gl -> { gl with Mira.Ir.gelt = Mira.Ir.EltInt32 })
          p.Mira.Ir.globals
    }
  in
  let r = Mira.Interp.run packed in
  Alcotest.(check string) "-1 masked to 2^32-1" "4294967295"
    (Mira.Interp.value_to_string r.Mira.Interp.ret)

(* ------------------------------------------------------------------ *)
(* Analysis edge cases *)

let test_analysis_unreachable_blocks () =
  (* code after return is unreachable; analyses must not choke *)
  let p =
    compile
      {|fn main() -> int {
          var x: int = 1;
          return x;
          x = 2;
          print(x);
          return x;
        }|}
  in
  let f = Mira.Ir.find_func p "main" in
  let cfg = Mira.Analysis.cfg_of f in
  Alcotest.(check bool) "some blocks unreachable" true
    (Mira.Ir.LSet.cardinal cfg.Mira.Analysis.reachable
     < Mira.Ir.block_count f);
  let _ = Mira.Analysis.dominators cfg in
  let _ = Mira.Analysis.liveness f cfg in
  ()

let test_analysis_self_loop () =
  (* a one-block natural loop (while with empty-ish body folded) *)
  let p =
    compile
      {|fn main() -> int {
          var n: int = 10;
          while (n > 0) { n = n - 1; }
          return n;
        }|}
  in
  let f = Mira.Ir.find_func p "main" in
  (* merge blocks so the loop may collapse; analyses must stay sound *)
  let p' = Passes.Pass.apply Passes.Pass.Simplify_cfg p in
  let f' = Mira.Ir.find_func p' "main" in
  List.iter
    (fun fn ->
      let _, loops = Mira.Analysis.natural_loops fn in
      Alcotest.(check int) "exactly one loop" 1 (List.length loops))
    [ f; f' ]

(* ------------------------------------------------------------------ *)
(* Property tests *)

let gen_small_int = QCheck.Gen.int_range (-1000) 1000

(* Random arithmetic expression over two int variables; always well-typed
   and trap-free (no div/rem/shift). *)
let rec gen_expr_str depth st =
  let open QCheck.Gen in
  if depth = 0 then
    match int_range 0 2 st with
    | 0 -> string_of_int (gen_small_int st)
    | 1 -> "x"
    | _ -> "y"
  else
    let op =
      match int_range 0 3 st with 0 -> "+" | 1 -> "-" | 2 -> "*" | _ -> "&"
    in
    Printf.sprintf "(%s %s %s)"
      (gen_expr_str (depth - 1) st)
      op
      (gen_expr_str (depth - 1) st)

let eval_expr_ref (src_expr : string) x y =
  let ast =
    Mira.Parser.parse
      (Printf.sprintf "fn main() -> int { return %s; }" src_expr)
  in
  let rec ev (e : Mira.Ast.expr) =
    match e.Mira.Ast.e with
    | Mira.Ast.Int n -> n
    | Mira.Ast.Var "x" -> x
    | Mira.Ast.Var "y" -> y
    | Mira.Ast.Bin (Mira.Ast.Add, a, b) -> ev a + ev b
    | Mira.Ast.Bin (Mira.Ast.Sub, a, b) -> ev a - ev b
    | Mira.Ast.Bin (Mira.Ast.Mul, a, b) -> ev a * ev b
    | Mira.Ast.Bin (Mira.Ast.BAnd, a, b) -> ev a land ev b
    | Mira.Ast.Un (Mira.Ast.Neg, a) -> -ev a
    | _ -> failwith "unexpected"
  in
  match ast.Mira.Ast.funcs with
  | [ { Mira.Ast.body = [ { Mira.Ast.s = Mira.Ast.SReturn (Some e); _ } ]; _ } ]
    -> ev e
  | _ -> failwith "unexpected shape"

let prop_expr_eval =
  QCheck.Test.make ~name:"interpreter agrees with reference on expressions"
    ~count:200
    QCheck.(
      triple (make (gen_expr_str 4)) (make gen_small_int) (make gen_small_int))
    (fun (es, x, y) ->
      let src =
        Printf.sprintf
          "fn main() -> int { var x: int = %d; var y: int = %d; return %s; }" x
          y es
      in
      let r = run_main src in
      Mira.Interp.value_to_string r.Mira.Interp.ret
      = string_of_int (eval_expr_ref es x y))

let prop_roundtrip =
  QCheck.Test.make ~name:"parse . print . parse is identity on printed form"
    ~count:100
    (QCheck.make (fun st ->
         let n = QCheck.Gen.int_range 1 5 st in
         let stmts =
           List.init n (fun i ->
               Printf.sprintf "var v%d: int = %s;" i (gen_expr_str 2 st))
         in
         Printf.sprintf
           "fn main() -> int { var x: int = 1; var y: int = 2; %s return x; }"
           (String.concat " " stmts)))
    (fun src ->
      let ast = Mira.Parser.parse src in
      let s1 = Mira.Ast.to_string ast in
      let s2 = Mira.Ast.to_string (Mira.Parser.parse s1) in
      s1 = s2)

let prop_lower_well_formed =
  QCheck.Test.make ~name:"lowered programs are well-formed" ~count:100
    (QCheck.make (fun st ->
         let body = gen_expr_str 3 st in
         Printf.sprintf
           {|fn main() -> int {
               var x: int = 3; var y: int = 4;
               var s: int = 0;
               for i = 0 to 8 { s = s + %s; }
               return s;
             }|}
           body))
    (fun src ->
      let p = compile src in
      Mira.Ir.check_program p = [])

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "lexer",
      [
        t "basic" test_lexer_basic;
        t "numbers" test_lexer_numbers;
        t "comments" test_lexer_comments;
        t "operators" test_lexer_operators;
        t "error" test_lexer_error;
      ] );
    ( "parser",
      [
        t "simple" test_parse_simple;
        t "precedence" test_parse_precedence;
        t "error position" test_parse_error_reports_position;
        t "dangling else" test_parse_dangling_else;
        t "roundtrip" test_parse_roundtrip_manual;
      ] );
    ( "typecheck",
      [ t "rejects ill-typed" test_type_errors; t "scopes" test_type_ok_scopes ]
    );
    ( "interp",
      [
        t "arith" test_arith;
        t "float arith" test_float_arith;
        t "short circuit" test_short_circuit;
        t "while" test_while_loop;
        t "for" test_for_loop;
        t "arrays" test_arrays;
        t "globals" test_globals;
        t "calls/recursion" test_calls_and_recursion;
        t "array aliasing" test_array_params_alias;
        t "traps" test_traps;
        t "fuel" test_fuel;
        t "print formats" test_print_formats;
        t "zero init" test_local_array_zero_init;
      ] );
    ( "ir",
      [
        t "well-formed" test_ir_well_formed;
        t "ginit holds the written prefix" test_ginit_written_only;
        t "well-formed: ginit within gsize" test_ir_ginit_within_gsize;
        t "loops" test_ir_loop_analysis;
        t "dominators" test_ir_dominators;
        t "liveness" test_ir_liveness;
        t "unreachable blocks" test_analysis_unreachable_blocks;
        t "self loop" test_analysis_self_loop;
        t "well-formed: negative registers" test_ir_negative_registers;
      ] );
    ( "packed-arrays",
      [
        t "semantics" test_packed_global_semantics;
        t "store masking" test_packed_masks_stores;
      ] );
    ( "properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_expr_eval; prop_roundtrip; prop_lower_well_formed ] );
  ]

let () = Alcotest.run "mira" suite
