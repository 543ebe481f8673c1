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
        a.Mtrace.events b.Mtrace.events;
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
   generated cannot move a trace's bytes, its stream length (Tcache
   charges it) or a stopped trace's outcome, output and steps unnoticed.
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

(* MD5 of the encoding and the stream length of each suite variant *)
let suite_pins =
  [
    ("adpcm/O0", "95aff52cae180deee04f40d6b9b12eba/122882");
    ("adpcm/O2", "b58cf2e0fd87b8c4cb171c73cf207020/122882");
    ("adpcm/Ofast", "0ac122e76d714b77218f8f2d470a06a6/110596");
    ("mcf_spars/O0", "8a8282c150d0dd3679c6143795660422/547074");
    ("mcf_spars/O2", "62bdecb71dd6cda31d6ecbfa7ced6a78/547074");
    ("mcf_spars/Ofast", "882cb7b6c967ab438e68bb85aef5c507/483500");
    ("matmul/O0", "42f1c3485325414efd63dc5d07fe2111/345747");
    ("matmul/O2", "ceb24d6369d91e8fbc099b6225ee1f15/345747");
    ("matmul/Ofast", "3838f2a2e33149a3168b1c8d94f7798a/263363");
    ("fir/O0", "e07c96df31afc803989e520cf18794d7/410862");
    ("fir/O2", "e0d4fad42617e62b2c7a0cb1223aa1f2/410862");
    ("fir/Ofast", "bc6f370b6418607b18e2765907a72b5b/314198");
    ("crc32/O0", "cc73a4e610713e28331c26120229abeb/64514");
    ("crc32/O2", "1ff7048f2fa1bc8d0cb67e57a0973aa4/64514");
    ("crc32/Ofast", "f32884b2cee2fee8cbb672fbde70f09e/46851");
    ("bitcount/O0", "a6cd9a6912a9c940b88a7ddd4b1e2ac5/282045");
    ("bitcount/O2", "48228aaf2a0d0a572cc9b54c25cca945/282045");
    ("bitcount/Ofast", "e298593e4f5ab75bd7e7824ae4303e11/282045");
    ("dijkstra/O0", "a21c803d677fd778e03731930f992fae/464304");
    ("dijkstra/O2", "c14ec403444cc120d488998431ba1fc3/464304");
    ("dijkstra/Ofast", "3896f59d97f82be723b314aa61890286/388523");
    ("qsort/O0", "5b2c6ca7247173e97db9424240957dab/175714");
    ("qsort/O2", "fcf954b7a5bd9c1b9028aac1a4b3edd9/175714");
    ("qsort/Ofast", "cdfecef48ae43402785d6eb9043df06e/171219");
    ("histogram/O0", "6ca72e836a3e3c06295fd65675465478/145283");
    ("histogram/O2", "27644f73ed928fdf0b64282e1c9b5b56/145283");
    ("histogram/Ofast", "6b1d761a1b6ad3963a5d03e380d91e1d/108902");
    ("nbody/O0", "a261d69ad38f5a13ca0e57e3d381031b/282675");
    ("nbody/O2", "cc9290dc3dd701b7fceba918e5b43c5a/282675");
    ("nbody/Ofast", "0576020a2bb33366adbbd15c46972162/261605");
    ("stencil2d/O0", "1125bb345f00c1ac60f9447e69e539e7/462338");
    ("stencil2d/O2", "ab24c0dc9287050e47a5a216ee40ad09/462338");
    ("stencil2d/Ofast", "3d9013e15a9c89d4a8b5512ca00c35c5/391430");
    ("susan/O0", "e2e753f0c2cfcdf0d44a901bef9fdefa/298906");
    ("susan/O2", "d23565d963b41e7be1c7303dc74d3154/298906");
    ("susan/Ofast", "052159a60fba70499eba440fa5dbcce9/312359");
    ("sha_mix/O0", "6b0e6cfce08d3020ca6deeccf8b3fe36/42066");
    ("sha_mix/O2", "00499c5323e290d091be48d8a063316a/42066");
    ("sha_mix/Ofast", "6e117a788f68332a16d8cbc94550ed2e/26363");
    ("strsearch/O0", "0432d2d299093c699c130d717b4f958d/151365");
    ("strsearch/O2", "7b937cd8815999a26235e61e3a8839ea/151365");
    ("strsearch/Ofast", "bcda3757c0197f478a52f6437da30e2d/145118");
    ("jacobi/O0", "805dc310018cd6082e856ca39d2b6678/431950");
    ("jacobi/O2", "ff41343940d4a04e9757ad79c7f63b8e/431950");
    ("jacobi/Ofast", "192e6aa1ab8bb7a24baf12ac9df4dba9/352520");
    ("lud/O0", "b42e9de66aa0d8f85f276e2f625097e2/302347");
    ("lud/O2", "5712846e79c56cd3af27c741ac966e83/302347");
    ("lud/Ofast", "3b416b802ebcd5d7aeaacb9624ed5296/260600");
    ("blowfish/O0", "0bb4eece571d9e8cd235f90d3e8b06ea/247282");
    ("blowfish/O2", "f96aecbca05a8f9dff06a23ae8427ef9/247282");
    ("blowfish/Ofast", "445fcb8588c65957dcad42584dd79760/214091");
    ("spmv/O0", "c754d3e207395f5aae9e693ca49564e4/847884");
    ("spmv/O2", "515cbdab68605a5e1c7a4eb2bf1932e6/847884");
    ("spmv/Ofast", "2d92fc039b4b8210caccfa3003a69102/688655");
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
                 tr.Mtrace.n ))
           levels)
       Workloads.all)

(* Trapping programs, each traced at every fuel from 1 to one past its
   trapped run's steps, so every stop point inside every run of simple
   ops is covered, at each level.  A stopped trace keeps only its
   outcome, output and steps. *)
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
    (* a trap after a static run of more than 256 simple ops *)
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
    ("division", "14c0d0d970a8a96d4d4c7460e190bcb1");
    ("load bounds", "364e38619220662ac0e59312eca24757");
    ("store bounds", "fdf7f5152225812651b4671a6ff8721f");
    ("callee entry", "67505ccdb669dde4dd5d5188406076c1");
    ("after return", "4c80dad6f0a7a98a2b40ca96f13ae77a");
    ("long run", "e49293f03239e05b0f61744044e95275");
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

(* --- finished programs the old word layout split --------------------- *)

(* Stopped traces keep no stream, so the trapping programs above no
   longer cover a finished run's pricing.  These two finished programs
   cover what a word layout once had to split or coalesce: a static run
   of more than 256 simple ops, and a run of same-class long ops (nested
   returns, each a jump) that ends the program. *)

let long_simple_run =
  Printf.sprintf
    {|fn main() -> int {
        var s: int = 1;
        for i = 0 to 3 { %s }
        return s;
      }|}
    (String.concat " "
       (List.init 150 (fun k -> Printf.sprintf "s = (s ^ i) + %d;" k)))

let long_op_run =
  {|fn h(x: int) -> int { return x * 7; }
    fn g(x: int) -> int { return h(x * 5); }
    fn f(x: int) -> int { return g(x * 3); }
    fn main() -> int {
      var s: int = 1;
      for i = 0 to 4 { s = s * 3 * 5 * 7; }
      return f(s);
    }|}

(* encode -> decode -> Replay.run_grid, against Flatsim.run and the
   reference engine on every preset and at issue widths 2, 4 and 16 *)
let check_finished name src =
  let p = compile src in
  let dp = Mira.Decode.decode p in
  let tr =
    match Mtrace.decode (Mtrace.encode (Mtrace.generate ~fuel dp)) with
    | Ok tr -> tr
    | Error m -> Alcotest.failf "%s: decode failed: %s" name m
  in
  let configs =
    Config.all
    @ List.concat_map
        (fun (c : Config.t) ->
          List.map
            (fun w ->
              { c with
                Config.issue_width = w;
                name = Printf.sprintf "%s/w%d" c.Config.name w })
            [ 2; 4; 16 ])
        Config.all
  in
  let grid = Replay.run_grid ~configs:(Array.of_list configs) tr in
  List.iteri
    (fun i (config : Config.t) ->
      let what = Printf.sprintf "%s on %s" name config.Config.name in
      check_same (what ^ ": trace vs flat") grid.(i)
        (Flatsim.run ~config ~fuel dp);
      check_same (what ^ ": trace vs reference") grid.(i)
        (Mach.Sim.run ~engine:Mach.Sim.Ref ~config ~fuel p))
    configs;
  tr

let test_finished_long_simple_run () =
  let tr = check_finished "long simple run" long_simple_run in
  Alcotest.(check bool) "a run of more than 256 simple ops" true
    (Array.exists (fun l -> l > 256) tr.Mtrace.run_len)

let test_finished_long_op_run () =
  let tr = check_finished "long op run" long_op_run in
  Alcotest.(check bool) "multiplications and returns counted" true
    (tr.Mtrace.long_count.(Mira.Decode.cls_mul) >= 15
    && tr.Mtrace.long_count.(Mira.Decode.cls_jump) >= 4)

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

(* --- the trace cache behind the grid entry ---------------------------- *)

(* Pricing one program on each grid config in turn, through one shared
   trace cache: the program is traced once, and every config's result
   matches the evaluation engine's (flat) cycles and counters bit for
   bit. *)
let test_engine_trace_path () =
  let p = Workloads.program (List.hd Workloads.all) in
  let tcache = Tcache.create () in
  let results =
    List.map
      (fun config ->
        (Engine.Grid.run_grid ~tcache ~configs:[| config |] p).(0))
      Config.all
  in
  Alcotest.(check int) "traced once" 1 (Tcache.misses tcache);
  Alcotest.(check int)
    "grid hits"
    (List.length Config.all - 1)
    (Tcache.hits tcache);
  List.iter2
    (fun config (r : Flatsim.result) ->
      let eng = Engine.create ~jobs:1 config in
      let f = Engine.eval eng p [] in
      Engine.Rcache.close (Engine.cache eng);
      Alcotest.(check (option int))
        (config.Config.name ^ ": cycles")
        f.Engine.cycles (Some r.Flatsim.cycles);
      Alcotest.(check bool)
        (config.Config.name ^ ": counters")
        true
        (f.Engine.counters = Some r.Flatsim.counters))
    Config.all results

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
        t "finished run longer than one old word"
          test_finished_long_simple_run;
        t "finished program ending on same-class long ops"
          test_finished_long_op_run;
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
