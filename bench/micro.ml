(* Bechamel microbenchmarks of the hot paths: front end, pass application,
   both execution engines (reference interpreter vs pre-decoded flat
   engine, plain and under the machine simulator), feature extraction,
   model queries.  One Test.make per component; throughput sanity rather
   than paper reproduction.

   With --json (see main.ml) the measured ns/run land in
   BENCH_micro.json together with ref-vs-flat speedups, giving the bench
   trajectory a machine-readable point per commit.  The checked-in
   baseline was produced by this harness; CI regenerates and uploads one
   per run. *)

open Bechamel
open Toolkit

let adpcm_src = (Workloads.by_name_exn "adpcm").Workloads.source

(* long enough (~3.6k steps) that execution dominates the per-run setup
   both engines pay (fresh cache/predictor state), short enough to give
   bechamel plenty of samples *)
let small_src =
  {|fn main() -> int {
      var s: int = 0;
      for i = 0 to 512 { s = s + i * 3; }
      return s;
    }|}

let small_prog = Mira.Lower.compile_source_exn small_src
let adpcm_prog = Workloads.program (Workloads.by_name_exn "adpcm")

let knn_model =
  let rng = Random.State.make [| 4 |] in
  let xs =
    Array.init 64 (fun _ -> Array.init 32 (fun _ -> Random.State.float rng 1.0))
  in
  let ys = Array.init 64 (fun i -> i mod 3) in
  Mlkit.Knn.fit ~k:3 (Mlkit.Dataset.make xs ys)

let probe = Array.init 32 (fun i -> float_of_int i /. 32.0)

(* Flat-engine entries measure execution of a pre-decoded program
   (decode once, run many) — the engine-throughput quantity the ref/flat
   speedups compare.  The one-time translation cost is measured by the
   separate "decode:" entry; it is ~3 orders of magnitude below a run on
   any real workload. *)
let small_dec = Mira.Decode.decode small_prog
let adpcm_dec = Mira.Decode.decode adpcm_prog

let tests =
  [
    Test.make ~name:"frontend: parse+typecheck+lower adpcm"
      (Staged.stage (fun () -> Mira.Lower.compile_source_exn adpcm_src));
    Test.make ~name:"passes: O2 pipeline on adpcm"
      (Staged.stage (fun () -> Passes.Pass.apply_sequence Passes.Pass.o2 adpcm_prog));
    Test.make ~name:"passes: unroll4 on adpcm"
      (Staged.stage (fun () ->
           Passes.Pass.apply_sequence
             Passes.Pass.[ Const_prop; Unroll4 ]
             adpcm_prog));
    Test.make ~name:"interp: small loop (ref engine)"
      (Staged.stage (fun () -> Mira.Interp.run small_prog));
    Test.make ~name:"interp: small loop (flat engine)"
      (Staged.stage (fun () -> Mira.Decode.run small_dec));
    Test.make ~name:"interp: adpcm (ref engine)"
      (Staged.stage (fun () -> Mira.Interp.run adpcm_prog));
    Test.make ~name:"interp: adpcm (flat engine)"
      (Staged.stage (fun () -> Mira.Decode.run adpcm_dec));
    Test.make ~name:"sim: small loop (ref engine)"
      (Staged.stage (fun () -> Mach.Sim.run ~engine:Mach.Sim.Ref small_prog));
    Test.make ~name:"sim: small loop (flat engine)"
      (Staged.stage (fun () -> Mach.Sim.run_decoded small_dec));
    Test.make ~name:"sim: adpcm (ref engine)"
      (Staged.stage (fun () -> Mach.Sim.run ~engine:Mach.Sim.Ref adpcm_prog));
    Test.make ~name:"sim: adpcm (flat engine)"
      (Staged.stage (fun () -> Mach.Sim.run_decoded adpcm_dec));
    Test.make ~name:"decode: adpcm"
      (Staged.stage (fun () -> Mira.Decode.decode adpcm_prog));
    Test.make ~name:"features: extract from adpcm"
      (Staged.stage (fun () -> Icc.Features.extract adpcm_prog));
    Test.make ~name:"mlkit: knn predict (64x32)"
      (Staged.stage (fun () -> Mlkit.Knn.predict knn_model probe));
  ]

(* ref/flat pairs reported as speedups in the JSON *)
let pairs =
  [
    ("interp: small loop", "interp: small loop (ref engine)",
     "interp: small loop (flat engine)");
    ("interp: adpcm", "interp: adpcm (ref engine)",
     "interp: adpcm (flat engine)");
    ("sim: small loop", "sim: small loop (ref engine)",
     "sim: small loop (flat engine)");
    ("sim: adpcm", "sim: adpcm (ref engine)", "sim: adpcm (flat engine)");
  ]

let json_file = "BENCH_micro.json"

let write_json (measured : (string * float) list) =
  let open Obs.Json in
  let speedups =
    List.filter_map
      (fun (label, ref_name, flat_name) ->
        match
          (List.assoc_opt ref_name measured, List.assoc_opt flat_name measured)
        with
        | Some r, Some f when f > 0.0 ->
          Some
            (Obj
               [ ("benchmark", Str label); ("ref_ns", fixed 1 r);
                 ("flat_ns", fixed 1 f); ("speedup", fixed 2 (r /. f)) ])
        | _ -> None)
      pairs
  in
  Util.write_report json_file
    (Obj
       [
         ("schema", Str "icc-bench-micro/1");
         ("unit", Str "ns/run");
         ( "results",
           List
             (List.map
                (fun (name, ns) ->
                  Obj [ ("name", Str name); ("ns", fixed 1 ns) ])
                measured) );
         ("speedups", List speedups);
       ])

let run () =
  Util.header "Microbenchmarks (bechamel)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let test = Test.make_grouped ~name:"icc" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances test in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  let clock = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  let strip name =
    (* drop the "icc " group prefix bechamel prepends *)
    match String.index_opt name ' ' with
    | Some i when String.sub name 0 i = "icc" ->
      String.sub name (i + 1) (String.length name - i - 1)
    | _ -> name
  in
  let measured = ref [] in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] ->
        let ns = est in
        measured := (strip name, ns) :: !measured;
        let human =
          if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
          else Printf.sprintf "%.0f ns" ns
        in
        rows := [ name; human ] :: !rows
      | _ -> rows := [ name; "-" ] :: !rows)
    clock;
  Util.print_table [ "benchmark"; "time/run" ]
    (List.sort compare !rows);
  let measured = List.sort compare !measured in
  List.iter
    (fun (label, ref_name, flat_name) ->
      match
        (List.assoc_opt ref_name measured, List.assoc_opt flat_name measured)
      with
      | Some r, Some f when f > 0.0 ->
        Fmt.pr "%-18s ref/flat speedup: %.1fx@." label (r /. f)
      | _ -> ())
    pairs;
  if !Util.json_out then write_json measured
