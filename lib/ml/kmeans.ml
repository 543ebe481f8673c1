(* k-means clustering with k-means++ seeding, used by the knowledge base to
   group programs with similar characterizations.  Deterministic given the
   seed. *)

type t = { centroids : float array array }

let assign (centroids : float array array) (x : float array) : int =
  Linalg.argmin (Array.map (fun c -> Linalg.euclidean x c) centroids)

let plus_plus_init rng k (xs : float array array) : float array array =
  let n = Array.length xs in
  let centroids = Array.make k xs.(Random.State.int rng n) in
  for c = 1 to k - 1 do
    (* distance to nearest existing centroid, squared *)
    let d2 =
      Array.map
        (fun x ->
          let m = ref infinity in
          for j = 0 to c - 1 do
            m := min !m (Linalg.euclidean x centroids.(j))
          done;
          !m *. !m)
        xs
    in
    let total = Array.fold_left ( +. ) 0.0 d2 in
    if total <= 0.0 then centroids.(c) <- xs.(Random.State.int rng n)
    else begin
      let r = Random.State.float rng total in
      let acc = ref 0.0 and chosen = ref (n - 1) in
      (try
         Array.iteri
           (fun i v ->
             acc := !acc +. v;
             if !acc >= r then begin
               chosen := i;
               raise Exit
             end)
           d2
       with Exit -> ());
      centroids.(c) <- xs.(!chosen)
    end
  done;
  centroids

let fit ?(seed = 7) ?(max_iter = 100) ~k (xs : float array array) : t =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Kmeans.fit: empty data";
  if k <= 0 || k > n then invalid_arg "Kmeans.fit: bad k";
  let rng = Random.State.make [| seed |] in
  let centroids = Array.map Array.copy (plus_plus_init rng k xs) in
  let d = Array.length xs.(0) in
  let assignment = Array.make n (-1) in
  let changed = ref true in
  let iter = ref 0 in
  while !changed && !iter < max_iter do
    changed := false;
    incr iter;
    Array.iteri
      (fun i x ->
        let a = assign centroids x in
        if a <> assignment.(i) then begin
          assignment.(i) <- a;
          changed := true
        end)
      xs;
    (* recompute centroids; empty clusters keep their position *)
    for c = 0 to k - 1 do
      let members = ref [] in
      Array.iteri (fun i a -> if a = c then members := i :: !members) assignment;
      match !members with
      | [] -> ()
      | ms ->
        let m = float_of_int (List.length ms) in
        let acc = Array.make d 0.0 in
        List.iter
          (fun i ->
            for j = 0 to d - 1 do
              acc.(j) <- acc.(j) +. xs.(i).(j)
            done)
          ms;
        centroids.(c) <- Array.map (fun v -> v /. m) acc
    done
  done;
  { centroids }

let predict (t : t) x = assign t.centroids x
