(* Tests for the mlkit library: unit tests on small hand-checked cases and
   property tests on classifier/clustering invariants. *)

let mk = Mlkit.Dataset.make

(* two well-separated Gaussian-ish blobs, deterministic *)
let blobs ?(n = 40) ?(sep = 6.0) ?(seed = 5) () =
  let rng = Random.State.make [| seed |] in
  let xs =
    Array.init n (fun i ->
        let cls = i mod 2 in
        let cx = if cls = 0 then 0.0 else sep in
        [|
          cx +. Random.State.float rng 1.0;
          cx +. Random.State.float rng 1.0;
        |])
  in
  let ys = Array.init n (fun i -> i mod 2) in
  mk xs ys

(* XOR-ish dataset: linearly inseparable, tree-separable *)
let xor_data () =
  let pts = ref [] in
  for i = 0 to 9 do
    for j = 0 to 9 do
      let x = float_of_int i /. 10.0 and y = float_of_int j /. 10.0 in
      let label = if (x < 0.5) <> (y < 0.5) then 1 else 0 in
      pts := ([| x; y |], label) :: !pts
    done
  done;
  let xs = Array.of_list (List.map fst !pts) in
  let ys = Array.of_list (List.map snd !pts) in
  mk xs ys

(* ------------------------------------------------------------------ *)

let test_dataset_validation () =
  (match mk [| [| 1.0 |]; [| 1.0; 2.0 |] |] [| 0; 1 |] with
   | _ -> Alcotest.fail "ragged rows accepted"
   | exception Invalid_argument _ -> ());
  (match mk [| [| 1.0 |] |] [| 0; 1 |] with
   | _ -> Alcotest.fail "length mismatch accepted"
   | exception Invalid_argument _ -> ());
  (match mk [| [| 1.0 |] |] [| -1 |] with
   | _ -> Alcotest.fail "negative label accepted"
   | exception Invalid_argument _ -> ())

let test_dataset_loocv_split () =
  let d = mk [| [| 0. |]; [| 1. |]; [| 2. |] |] [| 0; 1; 0 |] in
  let tr, x, y = Mlkit.Dataset.leave_one_out d 1 in
  Alcotest.(check int) "train size" 2 (Mlkit.Dataset.size tr);
  Alcotest.(check (float 0.0)) "held-out x" 1.0 x.(0);
  Alcotest.(check int) "held-out y" 1 y

let test_kfolds_partition () =
  let d = blobs ~n:30 () in
  let folds = Mlkit.Dataset.kfolds d 5 in
  Alcotest.(check int) "5 folds" 5 (List.length folds);
  let total_test =
    List.fold_left (fun acc (_, te) -> acc + Mlkit.Dataset.size te) 0 folds
  in
  Alcotest.(check int) "test sets partition the data" 30 total_test;
  List.iter
    (fun (tr, te) ->
      Alcotest.(check int) "sizes add up" 30
        (Mlkit.Dataset.size tr + Mlkit.Dataset.size te))
    folds

(* ------------------------------------------------------------------ *)

let test_scaling_standardizes () =
  let xs = [| [| 1.0; 10.0 |]; [| 2.0; 20.0 |]; [| 3.0; 30.0 |] |] in
  let _, scaled = Mlkit.Scaling.standardize xs in
  let col0 = Mlkit.Linalg.column scaled 0 in
  Alcotest.(check (float 1e-9)) "mean 0" 0.0 (Mlkit.Linalg.mean col0);
  Alcotest.(check (float 1e-6)) "std 1" 1.0 (Mlkit.Linalg.std col0)

let test_scaling_constant_feature () =
  let xs = [| [| 5.0 |]; [| 5.0 |] |] in
  let t, scaled = Mlkit.Scaling.standardize xs in
  Alcotest.(check (float 0.0)) "constant maps to 0" 0.0 scaled.(0).(0);
  Alcotest.(check (float 0.0)) "apply too" 0.0 (Mlkit.Scaling.apply t [| 5.0 |]).(0)

(* ------------------------------------------------------------------ *)

let test_knn_separable () =
  let d = blobs () in
  let m = Mlkit.Knn.fit ~k:3 d in
  Alcotest.(check (float 0.01)) "perfect on blobs" 1.0
    (Mlkit.Eval.accuracy (Mlkit.Knn.predict m) d)

let test_dtree_xor () =
  let d = xor_data () in
  let m = Mlkit.Dtree.fit d in
  Alcotest.(check bool) "tree handles xor" true
    (Mlkit.Eval.accuracy (Mlkit.Dtree.predict m) d > 0.95)

let test_logreg_fails_xor_but_fits_blobs () =
  let dblob = blobs () in
  let scaler, xs = Mlkit.Scaling.standardize dblob.Mlkit.Dataset.xs in
  let dblob' = mk xs dblob.Mlkit.Dataset.ys in
  let m = Mlkit.Logreg.fit dblob' in
  let acc_blob =
    Mlkit.Eval.accuracy
      (fun x -> Mlkit.Logreg.predict m (Mlkit.Scaling.apply scaler x))
      dblob
  in
  Alcotest.(check bool) "linear separable fits" true (acc_blob > 0.95);
  let dx = xor_data () in
  let mx = Mlkit.Logreg.fit dx in
  let acc_xor = Mlkit.Eval.accuracy (Mlkit.Logreg.predict mx) dx in
  Alcotest.(check bool)
    (Printf.sprintf "xor not linearly separable (%.2f)" acc_xor)
    true (acc_xor < 0.75)

let test_naive_bayes_blobs () =
  let d = blobs () in
  let m = Mlkit.Naive_bayes.fit d in
  Alcotest.(check (float 0.01)) "perfect on blobs" 1.0
    (Mlkit.Eval.accuracy (Mlkit.Naive_bayes.predict m) d)

let test_multiclass () =
  (* three blobs on a line *)
  let rng = Random.State.make [| 11 |] in
  let xs =
    Array.init 60 (fun i ->
        let c = i mod 3 in
        [| (float_of_int c *. 5.0) +. Random.State.float rng 1.0 |])
  in
  let ys = Array.init 60 (fun i -> i mod 3) in
  let d = mk xs ys in
  let knn = Mlkit.Knn.fit ~k:3 d in
  Alcotest.(check (float 0.01)) "knn multiclass" 1.0
    (Mlkit.Eval.accuracy (Mlkit.Knn.predict knn) d);
  let tree = Mlkit.Dtree.fit d in
  Alcotest.(check (float 0.01)) "tree multiclass" 1.0
    (Mlkit.Eval.accuracy (Mlkit.Dtree.predict tree) d);
  let lr = Mlkit.Logreg.fit d in
  Alcotest.(check bool) "logreg multiclass" true
    (Mlkit.Eval.accuracy (Mlkit.Logreg.predict lr) d > 0.9)

let test_loocv_reasonable () =
  let d = blobs ~n:30 () in
  let acc =
    Mlkit.Eval.loocv (fun tr -> Mlkit.Knn.predict (Mlkit.Knn.fit ~k:3 tr)) d
  in
  Alcotest.(check bool) "loocv near 1 on separable" true (acc > 0.9)

let test_mutual_information_ranking () =
  (* feature 0 fully determines the label; feature 1 is noise *)
  let rng = Random.State.make [| 3 |] in
  let xs =
    Array.init 200 (fun i ->
        [| float_of_int (i mod 2); Random.State.float rng 1.0 |])
  in
  let ys = Array.init 200 (fun i -> i mod 2) in
  let d = mk xs ys in
  match Mlkit.Feature_select.rank d with
  | (0, mi0) :: (1, mi1) :: _ ->
    Alcotest.(check bool) "informative first" true (mi0 > 0.9);
    Alcotest.(check bool) "noise near zero" true (mi1 < 0.2)
  | _ -> Alcotest.fail "wrong ranking order"

let test_feature_select_top () =
  let xs = Array.init 50 (fun i -> [| 0.0; float_of_int (i mod 2); 1.0 |]) in
  let ys = Array.init 50 (fun i -> i mod 2) in
  let d = mk xs ys in
  let d', kept = Mlkit.Feature_select.select_top d ~k:1 in
  Alcotest.(check (list int)) "kept informative column" [ 1 ] kept;
  Alcotest.(check int) "one column" 1 (Mlkit.Dataset.dim d')

(* ------------------------------------------------------------------ *)
(* property tests *)

let gen_points =
  QCheck.Gen.(
    list_size (int_range 4 40)
      (pair (pair (float_bound_inclusive 10.0) (float_bound_inclusive 10.0))
         (int_bound 1)))

let prop_knn_k1_memorizes =
  QCheck.Test.make ~name:"knn k=1 memorizes training points" ~count:100
    (QCheck.make gen_points)
    (fun pts ->
      (* deduplicate identical coordinates to avoid label conflicts *)
      let seen = Hashtbl.create 16 in
      let pts =
        List.filter
          (fun ((x, y), _) ->
            if Hashtbl.mem seen (x, y) then false
            else begin
              Hashtbl.add seen (x, y) ();
              true
            end)
          pts
      in
      let xs = Array.of_list (List.map (fun ((x, y), _) -> [| x; y |]) pts) in
      let ys = Array.of_list (List.map snd pts) in
      Array.length xs = 0
      ||
      let d = mk xs ys in
      let m = Mlkit.Knn.fit ~k:1 d in
      Mlkit.Eval.accuracy (Mlkit.Knn.predict m) d = 1.0)

let prop_scaling_idempotent_shape =
  QCheck.Test.make ~name:"scaling preserves shape and is finite" ~count:100
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 2 20)
           (list_size (return 3) (float_bound_inclusive 100.0))))
    (fun rows ->
      let xs = Array.of_list (List.map Array.of_list rows) in
      let _, scaled = Mlkit.Scaling.standardize xs in
      Array.length scaled = Array.length xs
      && Array.for_all
           (fun r -> Array.for_all (fun v -> Float.is_finite v) r)
           scaled)

let prop_dtree_no_deeper_than_max =
  QCheck.Test.make ~name:"dtree respects max depth" ~count:50
    (QCheck.make gen_points)
    (fun pts ->
      let xs = Array.of_list (List.map (fun ((x, y), _) -> [| x; y |]) pts) in
      let ys = Array.of_list (List.map snd pts) in
      let d = mk xs ys in
      let params = { Mlkit.Dtree.default_params with Mlkit.Dtree.max_depth = 3 } in
      let m = Mlkit.Dtree.fit ~params d in
      Mlkit.Dtree.depth_of m.Mlkit.Dtree.root <= 3)

let prop_proba_sums_to_one =
  QCheck.Test.make ~name:"predict_proba sums to 1" ~count:50
    (QCheck.make gen_points)
    (fun pts ->
      let pts = if List.length pts < 4 then [] else pts in
      pts = []
      ||
      let xs = Array.of_list (List.map (fun ((x, y), _) -> [| x; y |]) pts) in
      let ys = Array.of_list (List.map snd pts) in
      let nclasses = Array.fold_left (fun a y -> max a (y + 1)) 1 ys in
      nclasses < 2
      ||
      let d = mk xs ys in
      let close p = Float.abs (Array.fold_left ( +. ) 0.0 p -. 1.0) < 1e-6 in
      let knn = Mlkit.Knn.fit ~k:3 d in
      let nb = Mlkit.Naive_bayes.fit d in
      List.for_all
        (fun x ->
          close (Mlkit.Knn.predict_proba knn x)
          && close (Mlkit.Naive_bayes.predict_proba nb x))
        (Array.to_list xs))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "dataset",
      [
        t "validation" test_dataset_validation;
        t "loocv split" test_dataset_loocv_split;
        t "kfolds partition" test_kfolds_partition;
      ] );
    ( "scaling",
      [
        t "standardizes" test_scaling_standardizes;
        t "constant feature" test_scaling_constant_feature;
      ] );
    ( "classifiers",
      [
        t "knn blobs" test_knn_separable;
        t "dtree xor" test_dtree_xor;
        t "logreg linear only" test_logreg_fails_xor_but_fits_blobs;
        t "naive bayes blobs" test_naive_bayes_blobs;
        t "multiclass" test_multiclass;
        t "loocv" test_loocv_reasonable;
      ] );
    ( "features",
      [
        t "mutual information" test_mutual_information_ranking;
        t "select top" test_feature_select_top;
      ] );
    ( "properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_knn_k1_memorizes;
          prop_scaling_idempotent_shape;
          prop_dtree_no_deeper_than_max;
          prop_proba_sums_to_one;
        ] );
  ]

let () = Alcotest.run "mlkit" suite
