(* Property tests of the trace-once/model-many layer: the config
   independence of {!Mach.Mtrace} traces, the grid/singleton and
   grid/full-simulation agreements of {!Mach.Replay}, truncated-prefix
   semantics for traps and fuel exhaustion, pinned trace bytes, the
   bounded trace cache, and a regression lock on {!Mach.Config.digest}
   covering every field. *)

module Interp = Mira.Interp
module Mtrace = Mach.Mtrace
module Replay = Mach.Replay
module Config = Mach.Config
module Flatsim = Mach.Flatsim

let fuel = Mach.Sim.default_fuel

let compile src =
  match Mira.Lower.compile_source src with
  | Ok p -> p
  | Error e -> Alcotest.failf "test program does not compile: %s" e

(* bit-identity of two simulator results; Stdlib.compare so floats match
   by bit-pattern semantics (NaN = NaN) *)
let same (a : Flatsim.result) (b : Flatsim.result) =
  Stdlib.compare
    ( a.Flatsim.cycles, a.Flatsim.counters, a.Flatsim.ret, a.Flatsim.output,
      a.Flatsim.steps )
    ( b.Flatsim.cycles, b.Flatsim.counters, b.Flatsim.ret, b.Flatsim.output,
      b.Flatsim.steps )
  = 0

let check_same what a b =
  if not (same a b) then
    Alcotest.failf "%s: cycles %d vs %d, steps %d vs %d" what a.Flatsim.cycles
      b.Flatsim.cycles a.Flatsim.steps b.Flatsim.steps

(* --- trace generation is deterministic and config-free -------------- *)

(* [Mtrace.generate] takes no config — independence from the machine
   model is structural.  What remains to check is that generation is
   deterministic (same program -> same packed words and metadata), so a
   cached trace stands for any later generation. *)
let test_generate_deterministic () =
  List.iter
    (fun (w : Workloads.t) ->
      let dp = Mira.Decode.decode (Workloads.program w) in
      let a = Mtrace.generate ~fuel dp and b = Mtrace.generate ~fuel dp in
      Alcotest.(check (array int))
        (w.Workloads.name ^ ": packed words")
        (Mtrace.words a) (Mtrace.words b);
      Alcotest.(check bool)
        (w.Workloads.name ^ ": metadata")
        true
        (Stdlib.compare
           (a.Mtrace.base, a.Mtrace.outcome, a.Mtrace.ret, a.Mtrace.output,
            a.Mtrace.steps)
           (b.Mtrace.base, b.Mtrace.outcome, b.Mtrace.ret, b.Mtrace.output,
            b.Mtrace.steps)
         = 0))
    [ List.hd Workloads.all; List.nth Workloads.all 7 ]

(* --- grid replay vs full simulation --------------------------------- *)

(* The headline property, over the whole suite: one trace, folded per
   preset config, reproduces each config's full Flatsim run
   bit-identically; and a singleton grid is exactly [Replay.run]. *)
let test_grid_matches_full_simulation () =
  let configs = Array.of_list Config.all in
  List.iter
    (fun (w : Workloads.t) ->
      let dp = Mira.Decode.decode (Workloads.program w) in
      let tr = Mtrace.generate ~fuel dp in
      let grid = Replay.run_grid ~configs tr in
      Array.iteri
        (fun i config ->
          let full = Flatsim.run ~config ~fuel dp in
          check_same
            (Printf.sprintf "%s on %s: grid vs flatsim" w.Workloads.name
               config.Config.name)
            grid.(i) full;
          let single = (Replay.run_grid ~configs:[| config |] tr).(0) in
          check_same
            (Printf.sprintf "%s on %s: singleton grid vs run"
               w.Workloads.name config.Config.name)
            single
            (Replay.run ~config tr))
        configs)
    Workloads.all

(* model states never interact, so the grid's results only depend on the
   per-slot config, not on its neighbours *)
let test_grid_order_invariance () =
  let p = Workloads.program (List.hd Workloads.all) in
  let tr = Mtrace.generate ~fuel (Mira.Decode.decode p) in
  let fwd = Array.of_list Config.all in
  let rev = Array.of_list (List.rev Config.all) in
  let rf = Replay.run_grid ~configs:fwd tr
  and rr = Replay.run_grid ~configs:rev tr in
  let n = Array.length fwd in
  for i = 0 to n - 1 do
    check_same
      (Printf.sprintf "slot %d: forward vs reversed grid" i)
      rf.(i)
      rr.(n - 1 - i)
  done

(* --- truncated-prefix semantics: traps and fuel ---------------------- *)

let test_trap_prefix () =
  let p =
    compile
      {|fn main() -> int {
          var s: int = 0;
          for i = 0 to 10 { s = s + i; }
          print(s);
          return 1 / (s - s);
        }|}
  in
  let tr = Mtrace.generate_program ~fuel p in
  (match tr.Mtrace.outcome with
  | Mtrace.Trapped m ->
    Alcotest.(check string) "trap message" "division by zero" m
  | o -> Alcotest.failf "expected Trapped, got %s" (Mtrace.outcome_repr o));
  (* the prefix accounted before the trap is kept: the print ran *)
  Alcotest.(check string) "output up to the trap" "45\n" tr.Mtrace.output;
  Alcotest.(check bool) "steps accounted" true (tr.Mtrace.steps > 0);
  (* replay re-raises the engine exception, like Flatsim would *)
  List.iter
    (fun config ->
      match Replay.run ~config tr with
      | _ -> Alcotest.fail "replay of a trapped trace must raise"
      | exception Interp.Trap m ->
        Alcotest.(check string)
          (config.Config.name ^ ": replayed trap")
          "division by zero" m)
    Config.all

let test_fuel_prefix () =
  let p =
    compile
      {|fn main() -> int {
          var s: int = 0;
          for i = 0 to 10 { s = s + i; }
          return s;
        }|}
  in
  let steps = (Interp.run p).Interp.steps in
  (* under-fueled: the trace records exhaustion and replay re-raises *)
  let tr = Mtrace.generate_program ~fuel:(steps - 1) p in
  (match tr.Mtrace.outcome with
  | Mtrace.Exhausted -> ()
  | o -> Alcotest.failf "expected Exhausted, got %s" (Mtrace.outcome_repr o));
  (match Replay.run ~config:Config.default tr with
  | _ -> Alcotest.fail "replay of an exhausted trace must raise"
  | exception Interp.Out_of_fuel -> ());
  (* at, below and above the boundary the trace engine agrees with the
     other two on every preset config (full three-way diff) *)
  List.iter
    (fun fuel ->
      match Testgen.Diff.diff_all ~fuel p with
      | [] -> ()
      | ds ->
        Alcotest.failf "fuel %d: %s" fuel (String.concat "; " ds))
    [ steps - 1; steps; steps + 1 ]

(* --- pinned trace bytes ----------------------------------------------- *)

(* The tests above compare engines with each other; these compare trace
   contents with fixed values, so that a change to how traces are
   generated cannot move a trace's bytes, a trapped trace's prefix or
   the event buffer's capacity (Tcache charges the capacity) unnoticed.
   A mismatch prints both sides; an intentional format change updates
   the tables from that output. *)

let levels =
  [ ("O0", Passes.Pass.o0); ("O2", Passes.Pass.o2); ("Ofast", Passes.Pass.ofast) ]

let check_pins what (expected : (string * string) list)
    (actual : (string * string) list) =
  let bad =
    List.filter_map
      (fun (name, got) ->
        match List.assoc_opt name expected with
        | Some want when want = got -> None
        | want ->
          Some
            (Printf.sprintf "%s: expected %s, got %s" name
               (Option.value want ~default:"(none)")
               got))
      actual
  in
  if bad <> [] || List.length expected <> List.length actual then
    Alcotest.failf "%s: %d of %d pins differ (%d expected)\n%s" what
      (List.length bad) (List.length actual) (List.length expected)
      (String.concat "\n" bad)

(* MD5 of the encoding and the event capacity of each suite variant *)
let suite_pins =
  [
    ("adpcm/O0", "8614368bd0350eaee8ff7d5dd5e95bc2/524288");
    ("adpcm/O2", "60b95d104b18f654f47c1858dabb740a/524288");
    ("adpcm/Ofast", "dd62c568c58e550ee9b614810903fced/524288");
    ("mcf_spars/O0", "d80a520a8dba4c6a92e9f92bf39ec485/2097152");
    ("mcf_spars/O2", "88d626bc7fa28ef32d8d4d0c347e5f04/2097152");
    ("mcf_spars/Ofast", "05b792290183185524b45044fabdd2bd/1048576");
    ("matmul/O0", "daee8873ef0ab892059342c52fbad60f/2097152");
    ("matmul/O2", "89d1ce1e8f6ca0b87908bcca27adc8e3/2097152");
    ("matmul/Ofast", "01056dad6b77fd19335173925cf90acb/1048576");
    ("fir/O0", "365a26091dc0ddec9cf64742d62bba39/2097152");
    ("fir/O2", "e2d0e157a25a9c0e4db0731134dd5ace/2097152");
    ("fir/Ofast", "7ad621e7c8912696a452306a1a84033b/1048576");
    ("crc32/O0", "e013295bfce2e4b17f7809679480a991/262144");
    ("crc32/O2", "b96bacc450e9e64b3099a779b28573d5/262144");
    ("crc32/Ofast", "bea1441269467cd0f34595ffbfaf603a/262144");
    ("bitcount/O0", "adbec5c7954fe19e853e92a617fdab73/2097152");
    ("bitcount/O2", "b81f1f4c6d76747cbe4c3a7a141c48ee/2097152");
    ("bitcount/Ofast", "d40a9d18538e63c2ee76ad04c896d43c/2097152");
    ("dijkstra/O0", "b10a4a9b6aad643a94e3ad4763d666d9/2097152");
    ("dijkstra/O2", "d6d64a9048aa3d07cb451ad1e3204084/2097152");
    ("dijkstra/Ofast", "fb731fc27c73bfaed2754726f2952242/1048576");
    ("qsort/O0", "97b2383c55eefc00af541d92d97ffe92/524288");
    ("qsort/O2", "482dc049f4ad4dc89b460486af40f136/524288");
    ("qsort/Ofast", "9f66105b12a0a9831b9a6d60517b5265/524288");
    ("histogram/O0", "9e77173f44f11f8e666fca9a39ca6b51/524288");
    ("histogram/O2", "af47e0432e7fea6d7c25a63ab4f10e3a/524288");
    ("histogram/Ofast", "b08cef6f567b0ae9511491bd69eb2b50/524288");
    ("nbody/O0", "4d24dfce99d09a55d8f01c54fd0ee450/1048576");
    ("nbody/O2", "47a5b72ca6b7c0fbad112720fdf0555c/1048576");
    ("nbody/Ofast", "1a5cc91582a97cde156b74c8cf604f78/1048576");
    ("stencil2d/O0", "8543fcd70f415a4f6351c7e00d2c2e05/2097152");
    ("stencil2d/O2", "e5f378e503c88c2db1f3278545707de8/2097152");
    ("stencil2d/Ofast", "d822501ff6b82bc46077acc929752a64/1048576");
    ("susan/O0", "7e04ca009110196f8f0123cb5bec2f66/2097152");
    ("susan/O2", "9aebd2227868d2cd8f452f8069f9567e/1048576");
    ("susan/Ofast", "a9135b4bbbd6b63fec1044c85dd86490/1048576");
    ("sha_mix/O0", "a00903480bcda1f97686faa8397d6c6b/524288");
    ("sha_mix/O2", "8a0114a867f4d25b593d59766eda1d61/524288");
    ("sha_mix/Ofast", "fdbf0376e272d959b5188db9672f05d9/65536");
    ("strsearch/O0", "44ddc09c41e05615a9e53114b5c380e5/524288");
    ("strsearch/O2", "dded74bf74360a509e098ffffc3e5e09/524288");
    ("strsearch/Ofast", "c4f27b4c381b2b19a4f17b937053e181/524288");
    ("jacobi/O0", "1d0d6d0d658ea7845d49c17ef3738a32/2097152");
    ("jacobi/O2", "9d284b657c7b5a13b3644305d9136ead/2097152");
    ("jacobi/Ofast", "9e1f96b452e9fb21e1ce6a4642dad0ee/2097152");
    ("lud/O0", "c96135d7f59119e9beb3e180975ea45d/2097152");
    ("lud/O2", "4bf15872a028d81710b66e6cf96d5fd5/1048576");
    ("lud/Ofast", "2bdcba8f290390671038aab80244fd3b/1048576");
    ("blowfish/O0", "1815cf3c116bf1b19bff8f9fd99d1d30/1048576");
    ("blowfish/O2", "32788aebb61459329f0f941b253f155b/1048576");
    ("blowfish/Ofast", "600fd03a162a01e108239bc068bea4e7/524288");
    ("spmv/O0", "7c7cea03468388ab68a96104963837db/2097152");
    ("spmv/O2", "a0bb0091f1dc7fe7932dbba174cf5e35/2097152");
    ("spmv/Ofast", "20298b34c5fcc9834816cea2548239ea/2097152");
  ]

let test_suite_trace_bytes () =
  check_pins "suite traces" suite_pins
    (List.concat_map
       (fun (w : Workloads.t) ->
         List.map
           (fun (level, seq) ->
             let p = Passes.Pass.apply_sequence seq (Workloads.program w) in
             let tr = Mtrace.generate_program ~fuel p in
             ( w.Workloads.name ^ "/" ^ level,
               Printf.sprintf "%s/%d"
                 (Digest.to_hex (Digest.string (Mtrace.encode tr)))
                 (Array.length tr.Mtrace.events) ))
           levels)
       Workloads.all)

(* Trapping programs, each traced at every fuel from 1 to one past its
   trapped run's steps, so every stop point inside every run of simple
   ops is covered, at each level. *)
let trap_programs =
  [
    ( "division",
      {|fn main() -> int {
          var s: int = 0;
          for i = 0 to 10 { s = s + i; }
          print(s);
          return 1 / (s - s);
        }|} );
    ( "load bounds",
      {|global g: int[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        fn main() -> int {
          var s: int = 0;
          for i = 0 to 12 { s = (s + g[i]) ^ i; }
          return s;
        }|} );
    ( "store bounds",
      {|fn main() -> int {
          var a: float[6];
          var s: int = 0;
          for i = 0 to 9 { s = s + (i & 3); a[i] = 0.5; }
          return s;
        }|} );
    ( "callee entry",
      {|fn f(x: int, k: int) -> int {
          var y: int = (x + 1) ^ k;
          return y << k;
        }
        fn main() -> int {
          var s: int = 0;
          for i = 0 to 70 { s = s + f(i, i); }
          return s;
        }|} );
    ( "after return",
      {|fn g(x: int) -> int { return x * 3; }
        fn main() -> int {
          var s: int = 0;
          for i = 0 to 70 { s = (s + (g(i) << i)) & 65535; }
          return s;
        }|} );
    (* a static run of simple ops longer than a simple word holds *)
    ( "long run",
      Printf.sprintf
        {|fn main() -> int {
            var s: int = 1;
            for i = 0 to 2 { %s }
            return s / (s - s);
          }|}
        (String.concat " "
           (List.init 120 (fun k -> Printf.sprintf "s = (s ^ i) + %d;" k))) );
  ]

let trap_pins =
  [
    ("division", "13d5930c4c52c0a8fca2697ae89632ac");
    ("load bounds", "0f4b257efbd90ed3ff02a899772dfe7e");
    ("store bounds", "515c71678a177035457355abe88d97b3");
    ("callee entry", "9446c209f94f02fd1058ad6d9df9d3e0");
    ("after return", "3823ad570857b67245800573d3fab5e1");
    ("long run", "f4f365b48acdbb087c4b9624ca1a06f6");
  ]

let test_trap_trace_bytes () =
  check_pins "trapped traces" trap_pins
    (List.map
       (fun (name, src) ->
         let p = compile src in
         let b = Buffer.create 4096 in
         List.iter
           (fun (level, seq) ->
             let dp = Mira.Decode.decode (Passes.Pass.apply_sequence seq p) in
             let full = Mtrace.generate ~fuel dp in
             (match full.Mtrace.outcome with
             | Mtrace.Trapped _ -> ()
             | o ->
               Alcotest.failf "%s/%s: expected a trap, got %s" name level
                 (Mtrace.outcome_repr o));
             for fuel = 1 to full.Mtrace.steps + 1 do
               Buffer.add_string b
                 (Digest.string (Mtrace.encode (Mtrace.generate ~fuel dp)))
             done)
           levels;
         (name, Digest.to_hex (Digest.string (Buffer.contents b))))
       trap_programs)

(* --- Config.digest covers every field -------------------------------- *)

(* [rebuild] lists every field of {!Config.t} as a record literal, so
   adding a field to the type breaks this test at compile time until a
   perturbation for it is added below. *)
let rebuild (c : Config.t) : Config.t =
  {
    Config.name = c.Config.name;
    issue_width = c.Config.issue_width;
    lat_mul = c.Config.lat_mul;
    lat_div = c.Config.lat_div;
    lat_fadd = c.Config.lat_fadd;
    lat_fmul = c.Config.lat_fmul;
    lat_fdiv = c.Config.lat_fdiv;
    branch_cost = c.Config.branch_cost;
    jump_cost = c.Config.jump_cost;
    mispredict_penalty = c.Config.mispredict_penalty;
    call_overhead = c.Config.call_overhead;
    print_cost = c.Config.print_cost;
    l1 = c.Config.l1;
    l1_lat = c.Config.l1_lat;
    l2 = c.Config.l2;
    l2_lat = c.Config.l2_lat;
    mem_lat = c.Config.mem_lat;
    predictor_size = c.Config.predictor_size;
  }

let perturbations : (string * (Config.t -> Config.t)) list =
  let bump_cache (cc : Mach.Cache.config) = function
    | `Size -> { cc with Mach.Cache.size_bytes = cc.Mach.Cache.size_bytes * 2 }
    | `Assoc -> { cc with Mach.Cache.assoc = cc.Mach.Cache.assoc * 2 }
    | `Line -> { cc with Mach.Cache.line_bytes = cc.Mach.Cache.line_bytes * 2 }
  in
  [
    ("name", fun c -> { c with Config.name = c.Config.name ^ "'" });
    ("issue_width", fun c -> { c with Config.issue_width = c.Config.issue_width + 1 });
    ("lat_mul", fun c -> { c with Config.lat_mul = c.Config.lat_mul + 1 });
    ("lat_div", fun c -> { c with Config.lat_div = c.Config.lat_div + 1 });
    ("lat_fadd", fun c -> { c with Config.lat_fadd = c.Config.lat_fadd + 1 });
    ("lat_fmul", fun c -> { c with Config.lat_fmul = c.Config.lat_fmul + 1 });
    ("lat_fdiv", fun c -> { c with Config.lat_fdiv = c.Config.lat_fdiv + 1 });
    ("branch_cost", fun c -> { c with Config.branch_cost = c.Config.branch_cost + 1 });
    ("jump_cost", fun c -> { c with Config.jump_cost = c.Config.jump_cost + 1 });
    ( "mispredict_penalty",
      fun c ->
        { c with Config.mispredict_penalty = c.Config.mispredict_penalty + 1 } );
    ( "call_overhead",
      fun c -> { c with Config.call_overhead = c.Config.call_overhead + 1 } );
    ("print_cost", fun c -> { c with Config.print_cost = c.Config.print_cost + 1 });
    ("l1.size_bytes", fun c -> { c with Config.l1 = bump_cache c.Config.l1 `Size });
    ("l1.assoc", fun c -> { c with Config.l1 = bump_cache c.Config.l1 `Assoc });
    ("l1.line_bytes", fun c -> { c with Config.l1 = bump_cache c.Config.l1 `Line });
    ("l1_lat", fun c -> { c with Config.l1_lat = c.Config.l1_lat + 1 });
    ("l2.size_bytes", fun c -> { c with Config.l2 = bump_cache c.Config.l2 `Size });
    ("l2.assoc", fun c -> { c with Config.l2 = bump_cache c.Config.l2 `Assoc });
    ("l2.line_bytes", fun c -> { c with Config.l2 = bump_cache c.Config.l2 `Line });
    ("l2_lat", fun c -> { c with Config.l2_lat = c.Config.l2_lat + 1 });
    ("mem_lat", fun c -> { c with Config.mem_lat = c.Config.mem_lat + 1 });
    ( "predictor_size",
      fun c -> { c with Config.predictor_size = c.Config.predictor_size * 2 } );
  ]

let test_config_digest_covers_every_field () =
  let base = Config.default in
  let d0 = Config.digest base in
  (* digest is a pure function of the fields *)
  Alcotest.(check string) "rebuild digest" d0 (Config.digest (rebuild base));
  List.iter
    (fun (field, perturb) ->
      if Config.digest (perturb base) = d0 then
        Alcotest.failf "perturbing %s does not change the digest" field)
    perturbations;
  (* perturbed digests are also pairwise distinct *)
  let ds = List.map (fun (f, p) -> (f, Config.digest (p base))) perturbations in
  List.iteri
    (fun i (fa, da) ->
      List.iteri
        (fun j (fb, db) ->
          if i < j && da = db then
            Alcotest.failf "%s and %s collide" fa fb)
        ds)
    ds;
  (* the presets are pairwise distinct too *)
  (match List.map Config.digest Config.all with
  | ds -> Alcotest.(check int) "preset digests distinct"
            (List.length Config.all)
            (List.length (List.sort_uniq compare ds)))

(* --- the bounded trace cache ----------------------------------------- *)

module Tcache = Engine.Tcache

let small_trace () =
  Mtrace.generate_program ~fuel
    (compile {|fn main() -> int { return 41 + 1; }|})

let test_tcache_hit_miss () =
  let t = Tcache.create () in
  let calls = ref 0 in
  let gen () = incr calls; small_trace () in
  let a = Tcache.find_or_generate t ~ir_digest:"p1" ~fuel gen in
  let b = Tcache.find_or_generate t ~ir_digest:"p1" ~fuel gen in
  Alcotest.(check int) "generator ran once" 1 !calls;
  Alcotest.(check bool) "same trace object" true (a == b);
  Alcotest.(check int) "hits" 1 (Tcache.hits t);
  Alcotest.(check int) "misses" 1 (Tcache.misses t);
  (* fuel is part of the key: a different budget is a different trace *)
  ignore (Tcache.find_or_generate t ~ir_digest:"p1" ~fuel:(fuel - 1) gen);
  Alcotest.(check int) "different fuel misses" 2 (Tcache.misses t)

let test_tcache_lru_eviction () =
  (* size the budget from a real trace so exactly two entries fit *)
  let probe = Tcache.create () in
  ignore
    (Tcache.find_or_generate probe ~ir_digest:"w" ~fuel (fun () ->
         small_trace ()));
  let w = Tcache.resident_words probe in
  let t = Tcache.create ~capacity_words:(2 * w) () in
  let put d =
    ignore (Tcache.find_or_generate t ~ir_digest:d ~fuel small_trace)
  in
  put "a";
  put "b";
  (* touch [a] so [b] is the least recently used *)
  Alcotest.(check bool) "a cached" true (Tcache.find t ~ir_digest:"a" ~fuel <> None);
  put "c";
  Alcotest.(check int) "one eviction" 1 (Tcache.evictions t);
  Alcotest.(check bool) "a survives" true (Tcache.find t ~ir_digest:"a" ~fuel <> None);
  Alcotest.(check bool) "b evicted" true (Tcache.find t ~ir_digest:"b" ~fuel = None);
  Alcotest.(check int) "two resident" 2 (Tcache.resident t);
  Alcotest.(check bool) "budget respected" true (Tcache.resident_words t <= 2 * w)

let test_tcache_oversized_bypass () =
  let t = Tcache.create ~capacity_words:1 () in
  let calls = ref 0 in
  let gen () = incr calls; small_trace () in
  ignore (Tcache.find_or_generate t ~ir_digest:"big" ~fuel gen);
  ignore (Tcache.find_or_generate t ~ir_digest:"big" ~fuel gen);
  Alcotest.(check int) "regenerated each time" 2 !calls;
  Alcotest.(check int) "nothing retained" 0 (Tcache.resident t);
  Alcotest.(check int) "uncached counted" 2 (Tcache.uncached t);
  Alcotest.(check int) "no evictions" 0 (Tcache.evictions t)

(* --- the engine's trace path ----------------------------------------- *)

(* Two engines for different grid configs sharing one trace cache: the
   program is traced once, and the trace engine's outcomes match the
   flat engine's bit for bit. *)
let test_engine_trace_path () =
  let p = Workloads.program (List.hd Workloads.all) in
  let saved = !Mach.Sim.default_engine in
  Fun.protect
    ~finally:(fun () -> Mach.Sim.default_engine := saved)
    (fun () ->
      Mach.Sim.default_engine := Mach.Sim.Trace;
      let tcache = Tcache.create () in
      let outcomes =
        List.map
          (fun config ->
            let eng = Engine.create ~jobs:1 ~tcache config in
            let o = Engine.eval eng p [] in
            Engine.Rcache.close (Engine.cache eng);
            o)
          Config.all
      in
      Alcotest.(check int) "traced once" 1 (Tcache.misses tcache);
      Alcotest.(check int)
        "grid hits"
        (List.length Config.all - 1)
        (Tcache.hits tcache);
      Mach.Sim.default_engine := Mach.Sim.Flat;
      List.iter2
        (fun config (o : Engine.outcome) ->
          let eng = Engine.create ~jobs:1 config in
          let f = Engine.eval eng p [] in
          Engine.Rcache.close (Engine.cache eng);
          Alcotest.(check (option int))
            (config.Config.name ^ ": cycles")
            f.Engine.cycles o.Engine.cycles;
          Alcotest.(check bool)
            (config.Config.name ^ ": counters")
            true
            (f.Engine.counters = o.Engine.counters))
        Config.all outcomes)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  [
    ( "trace-replay",
      [
        t "trace generation is deterministic" test_generate_deterministic;
        slow "grid replay == full simulation (suite x presets)"
          test_grid_matches_full_simulation;
        t "grid is order-invariant" test_grid_order_invariance;
        t "trapped trace keeps the accounted prefix" test_trap_prefix;
        t "fuel exhaustion boundary" test_fuel_prefix;
        t "Config.digest covers every field"
          test_config_digest_covers_every_field;
        slow "suite trace bytes are pinned" test_suite_trace_bytes;
        t "trapped trace bytes are pinned at every fuel"
          test_trap_trace_bytes;
      ] );
    ( "trace-cache",
      [
        t "hit/miss and fuel keying" test_tcache_hit_miss;
        t "LRU eviction under a word budget" test_tcache_lru_eviction;
        t "oversized traces bypass retention" test_tcache_oversized_bypass;
        t "engine grid shares one trace" test_engine_trace_path;
      ] );
  ]

let () = Alcotest.run "trace" suite
