(* Model evaluation: accuracy, confusion matrices and leave-one-out
   cross-validation (the paper's recommended protocol, Sec. II-A).  All
   evaluators are generic over a trainer function so every classifier in
   the kit plugs in uniformly. *)

type classifier = float array -> int

(* trainer: dataset -> prediction function *)
type trainer = Dataset.t -> classifier

let accuracy (predict : classifier) (d : Dataset.t) : float =
  let n = Dataset.size d in
  if n = 0 then invalid_arg "Eval.accuracy: empty dataset";
  let correct = ref 0 in
  Array.iteri
    (fun i x -> if predict x = d.Dataset.ys.(i) then incr correct)
    d.Dataset.xs;
  float_of_int !correct /. float_of_int n

let confusion (predict : classifier) (d : Dataset.t) : int array array =
  let k = max 1 d.Dataset.nclasses in
  let m = Array.make_matrix k k 0 in
  Array.iteri
    (fun i x ->
      let p = predict x in
      let y = d.Dataset.ys.(i) in
      if p < k then m.(y).(p) <- m.(y).(p) + 1)
    d.Dataset.xs;
  m

(* leave-one-out cross-validated accuracy *)
let loocv (train : trainer) (d : Dataset.t) : float =
  let n = Dataset.size d in
  if n < 2 then invalid_arg "Eval.loocv: need at least 2 points";
  let correct = ref 0 in
  for i = 0 to n - 1 do
    let tr, x, y = Dataset.leave_one_out d i in
    (* the held-out point may remove the only instance of a class; the
       trained model then simply cannot predict it, which counts against
       accuracy, as it should *)
    let predict = train tr in
    if predict x = y then incr correct
  done;
  float_of_int !correct /. float_of_int n
