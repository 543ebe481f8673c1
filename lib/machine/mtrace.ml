module Interp = Mira.Interp
module D = Mira.Decode

(* Trace-once half of the trace-once/model-many split (see DESIGN.md
   "Trace-once, model-many").  Generation is Decode.Exec, the one
   dispatch loop, run over a model whose hooks count and record.  Only
   the caches and the predictor carry state from one event to the next,
   so only their inputs are recorded, in program order: load/store byte
   addresses with write bits, and branch sites with taken bits.  Every
   other cost is fixed per static op, given the config, so it is priced
   from execution counts:

   - a static run of simple-issue ops always starts from an empty issue
     bundle (see Decode.MODEL), so each execution costs the same: the
     trace keeps each executed run once, as a range of the signature
     table, with its execution count;
   - a long op or a jump costs its class latency whatever ran before
     it: the trace keeps an execution count per latency class.

   Nothing here reads Config.t: the dynamic instruction and memory
   reference stream of a program is a property of the program alone, so
   one trace prices any architecture grid.  The config-independent
   counters (TOT_INS, LD_INS, ..., BR_TKN) are derived into [base] at
   generation time, as the flat engine derives them, and copied into
   every replay's bank.

   A trap or fuel exhaustion stops the run with nothing to price: Replay
   re-raises it, so such a trace keeps only its outcome, output and
   steps. *)

(* ------------------------------------------------------------------ *)
(* Stream words: one int each, tag in the low 2 bits.

     tag 2 (mem)     payload = (byte address << 1) | write
     tag 3 (branch)  payload = (site id << 1) | taken                  *)

let tag_mem = 2
let tag_branch = 3

type outcome = Finished | Trapped of string | Exhausted

type t = {
  events : int array; (* the stream, exact length *)
  n : int;
  sig_uses : int array array; (* issue signature id -> registers read *)
  sig_dst : int array; (* issue signature id -> defined register *)
  run_first : int array; (* run -> its first signature id *)
  run_len : int array;
  run_count : int array; (* run -> executions *)
  long_count : int array; (* latency class -> executions *)
  base : Counters.bank; (* config-independent counters *)
  outcome : outcome;
  ret : Interp.value; (* VUndef unless Finished *)
  output : string; (* printed output up to the end / trap *)
  steps : int;
}

let bytes tr = tr.n * 8

let outcome_repr = function
  | Finished -> "finished"
  | Trapped m -> Printf.sprintf "trap %S" m
  | Exhausted -> "out of fuel"

(* a trace that stopped: nothing to price *)
let stopped outcome ~output ~steps =
  {
    events = [||];
    n = 0;
    sig_uses = [||];
    sig_dst = [||];
    run_first = [||];
    run_len = [||];
    run_count = [||];
    long_count = [||];
    base = [||];
    outcome;
    ret = Interp.VUndef;
    output;
    steps;
  }

(* ------------------------------------------------------------------ *)
(* Generation state: the model Decode.Exec runs *)

type gt = {
  mutable ev : int array;
  mutable n : int;
  visits : int array; (* gpc -> executions of the hooked op there *)
  long_count : int array;
  mutable taken : int; (* taken branches *)
}

let[@inline] emit (g : gt) w =
  let n = g.n in
  if n = Array.length g.ev then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit g.ev 0 bigger 0 n;
    g.ev <- bigger
  end;
  Array.unsafe_set g.ev n w;
  g.n <- n + 1

let[@inline] visit (g : gt) gpc =
  Array.unsafe_set g.visits gpc (Array.unsafe_get g.visits gpc + 1)

let[@inline] count_class (g : gt) cls =
  Array.unsafe_set g.long_count cls (Array.unsafe_get g.long_count cls + 1)

(* Every gpc Decode.Exec passes is below [D.code_size], the length of
   [visits], and every class below [D.cls_count], the length of
   [long_count]: the unsafe accesses are in bounds. *)
module Model = struct
  type t = gt

  let long g gpc cls =
    visit g gpc;
    count_class g cls

  let mem g gpc write addr =
    visit g gpc;
    emit g ((((addr lsl 1) lor if write then 1 else 0) lsl 2) lor tag_mem)

  let branch g gpc site taken =
    visit g gpc;
    if taken then g.taken <- g.taken + 1;
    emit g ((((site lsl 1) lor if taken then 1 else 0) lsl 2) lor tag_branch)

  let jump g gpc =
    visit g gpc;
    count_class g D.cls_jump
end

module Run = D.Exec (Model)

(* The signature table, every simple-issue op in code order, and the
   run table: one entry per hooked op that ran and ends a non-empty run
   of simple ops, which is the signature range just before it. *)
let tables (dp : D.t) (visits : int array) =
  let sigs = ref [] and runs = ref [] and next = ref 0 in
  Array.iter
    (fun (df : D.dfunc) ->
      let first = ref !next in
      Array.iteri
        (fun pc (di : D.dinstr) ->
          if D.is_simple di.D.op then begin
            sigs := di :: !sigs;
            incr next
          end
          else begin
            let k = visits.(df.D.base + pc) in
            if k > 0 && !next > !first then
              runs := (!first, !next - !first, k) :: !runs;
            first := !next
          end)
        df.D.code)
    dp.D.funcs;
  let sigs = Array.of_list (List.rev !sigs) in
  let runs = Array.of_list (List.rev !runs) in
  ( Array.map (fun (di : D.dinstr) -> di.D.uses) sigs,
    Array.map (fun (di : D.dinstr) -> di.D.dst) sigs,
    runs )

let finished (dp : D.t) (g : gt) (r : Interp.result) : t =
  let sig_uses, sig_dst, runs = tables dp g.visits in
  let base = Counters.make () in
  Flatsim.charge_blocks dp g.visits base;
  Counters.set base Counters.BR_TKN g.taken;
  {
    events = Array.sub g.ev 0 g.n;
    n = g.n;
    sig_uses;
    sig_dst;
    run_first = Array.map (fun (f, _, _) -> f) runs;
    run_len = Array.map (fun (_, l, _) -> l) runs;
    run_count = Array.map (fun (_, _, k) -> k) runs;
    long_count = g.long_count;
    base;
    outcome = Finished;
    ret = r.Interp.ret;
    output = r.Interp.output;
    steps = r.Interp.steps;
  }

(* ------------------------------------------------------------------ *)

let generate_ms = Obs.Metrics.histogram "trace.generate_ms"
let generates = Obs.Metrics.counter "trace.generates"

let bytes_per_instr =
  Obs.Metrics.histogram ~unit_:"B/instr" "trace.bytes_per_instr"

let generate ?(fuel = 200_000_000) (dp : D.t) : t =
  Obs.Metrics.incr generates;
  let go () =
    let rt = D.make_rt ~fuel dp in
    let g =
      {
        ev = Array.make 4096 0;
        n = 0;
        visits = Array.make (D.code_size dp) 0;
        long_count = Array.make D.cls_count 0;
        taken = 0;
      }
    in
    (* a missing main traps before anything runs, and escapes *)
    let outcome =
      match Run.start rt g with
      | () -> Finished
      | exception Interp.Trap m when dp.D.main_idx >= 0 -> Trapped m
      | exception Interp.Out_of_fuel -> Exhausted
    in
    let r = D.result_of rt in
    if outcome = Finished then finished dp g r
    else stopped outcome ~output:r.Interp.output ~steps:r.Interp.steps
  in
  let tr =
    Obs.span_with ~cat:"trace" ~hist:generate_ms "mtrace.generate"
      ~end_args:(fun (tr : t) ->
        [
          ("events", Obs.Trace.Int tr.n);
          ("bytes", Obs.Trace.Int (bytes tr));
          ("steps", Obs.Trace.Int tr.steps);
          ("outcome", Obs.Trace.Str (outcome_repr tr.outcome));
        ])
      go
  in
  Obs.Metrics.observe bytes_per_instr
    (float_of_int (bytes tr) /. float_of_int (max 1 tr.steps));
  tr

let generate_program ?fuel (p : Mira.Ir.program) : t =
  generate ?fuel (D.decode p)

(* ------------------------------------------------------------------ *)
(* Serialization: the compact on-disk form Engine.Tstore persists.

   Outcome, output and steps come first; a stopped trace ends there.  A
   finished trace goes on with its return value, the stream, the
   signature table, the run table, the class counts and the base bank.

   Stream words are delta-coded per tag: the stream interleaves loads,
   stores and branches, but values within one tag are strongly
   autocorrelated (a striding load's addresses, a loop's branch site),
   so each word stores the zigzagged difference from the previous value
   of the *same* tag.  The first byte of a word packs the tag into its
   low 2 bits next to 5 payload bits and a continuation bit; subsequent
   bytes are plain 7-bit LEB128.  A run entry stores its gap from the
   previous entry's end (entries follow code order), its length and its
   count; the class counts store the classes that ran, in order.

   The payload carries no checksum: framing, integrity and versioning
   belong to the store (Tstore seals each entry's key and payload with
   an MD5 prefix).
   [decode] still validates structurally — version byte, tags, bounds,
   exact consumption — and bounds every index pricing reads: each run
   stays inside the signature table, each class below D.cls_count, and
   the bank has Counters.count entries.  So a logically corrupt but
   checksum-valid entry is reported as an error, never a crash or an
   out-of-bounds read.  Every count is bounded by the bytes left before
   anything is allocated for it, each item taking at least its smallest
   encoding: one byte per stream word, bank entry, register, integer
   element or string byte, two per signature or class count, three per
   run, eight per float. *)

let codec_version = 2

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let put_varint b v =
  let rec go v =
    if v land lnot 0x7f = 0 then Buffer.add_char b (Char.chr v)
    else (
      Buffer.add_char b (Char.chr (0x80 lor (v land 0x7f)));
      go (v lsr 7))
  in
  if v < 0 then invalid_arg "Mtrace.put_varint: negative";
  go v

let zigzag i = (i lsl 1) lxor (i asr 62)
let unzigzag v = (v lsr 1) lxor (-(v land 1))
let put_zigzag b i = put_varint b (zigzag i)

(* one stream word: [cont:1][payload:5][tag:2], then LEB128 chunks *)
let put_event b tag zz =
  let lo = zz land 0x1f and rest = zz lsr 5 in
  if rest = 0 then Buffer.add_char b (Char.chr ((lo lsl 2) lor tag))
  else (
    Buffer.add_char b (Char.chr (0x80 lor (lo lsl 2) lor tag));
    put_varint b rest)

let put_string b s =
  put_varint b (String.length s);
  Buffer.add_string b s

let put_float b f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff))
  done

let put_value b (v : Interp.value) =
  match v with
  | Interp.VUndef -> Buffer.add_char b '\000'
  | Interp.VInt i ->
    Buffer.add_char b '\001';
    put_zigzag b i
  | Interp.VFloat f ->
    Buffer.add_char b '\002';
    put_float b f
  | Interp.VBool x ->
    Buffer.add_char b '\003';
    Buffer.add_char b (if x then '\001' else '\000')
  | Interp.VArr a ->
    Buffer.add_char b '\004';
    (match a.Interp.payload with
    | Interp.IA ia ->
      Buffer.add_char b '\000';
      put_varint b (Array.length ia);
      Array.iter (put_zigzag b) ia
    | Interp.FA fa ->
      Buffer.add_char b '\001';
      put_varint b (Array.length fa);
      Array.iter (put_float b) fa);
    put_varint b a.Interp.base;
    put_varint b a.Interp.esize;
    Buffer.add_char b (if a.Interp.mask32 then '\001' else '\000')

let encode (tr : t) : string =
  let b = Buffer.create (tr.n + 256) in
  Buffer.add_char b (Char.chr codec_version);
  (match tr.outcome with
  | Finished -> Buffer.add_char b '\000'
  | Trapped m ->
    Buffer.add_char b '\001';
    put_string b m
  | Exhausted -> Buffer.add_char b '\002');
  put_string b tr.output;
  put_varint b tr.steps;
  if tr.outcome = Finished then begin
    put_value b tr.ret;
    put_varint b tr.n;
    let last = Array.make 4 0 in
    for i = 0 to tr.n - 1 do
      let w = tr.events.(i) in
      let tag = w land 3 and v = w lsr 2 in
      put_event b tag (zigzag (v - last.(tag)));
      last.(tag) <- v
    done;
    put_varint b (Array.length tr.sig_dst);
    Array.iteri
      (fun i d ->
        put_zigzag b d;
        put_varint b (Array.length tr.sig_uses.(i));
        Array.iter (put_zigzag b) tr.sig_uses.(i))
      tr.sig_dst;
    put_varint b (Array.length tr.run_first);
    let pos = ref 0 in
    Array.iteri
      (fun i first ->
        put_varint b (first - !pos);
        put_varint b tr.run_len.(i);
        put_varint b tr.run_count.(i);
        pos := first + tr.run_len.(i))
      tr.run_first;
    put_varint b
      (Array.fold_left (fun k c -> if c > 0 then k + 1 else k) 0
         tr.long_count);
    Array.iteri
      (fun cls c ->
        if c > 0 then begin
          put_varint b cls;
          put_varint b c
        end)
      tr.long_count;
    put_varint b (Array.length tr.base);
    Array.iter (put_varint b) tr.base
  end;
  Buffer.contents b

(* decoding reads from (s, pos); every primitive bounds-checks *)

type rd = { s : string; mutable pos : int }

let rd_byte r =
  if r.pos >= String.length r.s then corrupt "truncated at %d" r.pos;
  let c = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  c

(* put_varint never writes a negative: a ninth byte that sets the sign
   bit, or continues past it, is corruption *)
let rd_varint r =
  let rec go shift acc =
    let c = rd_byte r in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then
      if acc < 0 then corrupt "negative varint at %d" r.pos else acc
    else if shift >= 56 then corrupt "varint overflow at %d" r.pos
    else go (shift + 7) acc
  in
  go 0 0

(* a count of items taking at least [size] bytes each, bounded by the
   bytes left so that no corrupt count reaches an allocation *)
let rd_count r ~size =
  let n = rd_varint r in
  if n > (String.length r.s - r.pos) / size then
    corrupt "count %d overruns at %d" n r.pos;
  n

let rd_zigzag r = unzigzag (rd_varint r)

let rd_event r =
  let c = rd_byte r in
  let tag = c land 3 and lo = (c lsr 2) land 0x1f in
  if tag <> tag_mem && tag <> tag_branch then
    corrupt "stream tag %d at %d" tag r.pos;
  let zz = if c land 0x80 = 0 then lo else lo lor (rd_varint r lsl 5) in
  (tag, unzigzag zz)

let rd_string r =
  let len = rd_count r ~size:1 in
  let s = String.sub r.s r.pos len in
  r.pos <- r.pos + len;
  s

let rd_float r =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits :=
      Int64.logor !bits (Int64.shift_left (Int64.of_int (rd_byte r)) (8 * i))
  done;
  Int64.float_of_bits !bits

let rd_value r : Interp.value =
  match rd_byte r with
  | 0 -> Interp.VUndef
  | 1 -> Interp.VInt (rd_zigzag r)
  | 2 -> Interp.VFloat (rd_float r)
  | 3 -> Interp.VBool (rd_byte r <> 0)
  | 4 ->
    let payload =
      match rd_byte r with
      | 0 -> Interp.IA (Array.init (rd_count r ~size:1) (fun _ -> rd_zigzag r))
      | 1 -> Interp.FA (Array.init (rd_count r ~size:8) (fun _ -> rd_float r))
      | k -> corrupt "bad array payload kind %d" k
    in
    let base = rd_varint r in
    let esize = rd_varint r in
    let mask32 = rd_byte r <> 0 in
    Interp.VArr { Interp.payload; base; esize; mask32 }
  | k -> corrupt "bad value tag %d" k

(* the part of a finished trace after its steps *)
let rd_finished r ~output ~steps =
  let ret = rd_value r in
  let n = rd_count r ~size:1 in
  let events = Array.make n 0 in
  let last = Array.make 4 0 in
  for i = 0 to n - 1 do
    let tag, d = rd_event r in
    let v = last.(tag) + d in
    if v < 0 then corrupt "negative payload at word %d" i;
    last.(tag) <- v;
    events.(i) <- (v lsl 2) lor tag
  done;
  let nsig = rd_count r ~size:2 in
  let sig_dst = Array.make nsig 0 in
  let sig_uses = Array.make nsig [||] in
  for i = 0 to nsig - 1 do
    sig_dst.(i) <- rd_zigzag r;
    sig_uses.(i) <- Array.init (rd_count r ~size:1) (fun _ -> rd_zigzag r)
  done;
  let nruns = rd_count r ~size:3 in
  let run_first = Array.make nruns 0 in
  let run_len = Array.make nruns 0 in
  let run_count = Array.make nruns 0 in
  let pos = ref 0 in
  for i = 0 to nruns - 1 do
    let gap = rd_varint r in
    let len = rd_varint r in
    if gap > nsig - !pos || len > nsig - !pos - gap then
      corrupt "run %d leaves the %d signatures" i nsig;
    let first = !pos + gap in
    run_first.(i) <- first;
    run_len.(i) <- len;
    run_count.(i) <- rd_varint r;
    pos := first + len
  done;
  let long_count = Array.make D.cls_count 0 in
  let prev = ref (-1) in
  for _ = 1 to rd_count r ~size:2 do
    let cls = rd_varint r in
    if cls >= D.cls_count then corrupt "latency class %d" cls;
    if cls <= !prev then corrupt "latency class %d out of order" cls;
    long_count.(cls) <- rd_varint r;
    prev := cls
  done;
  let nbank = rd_count r ~size:1 in
  if nbank <> Counters.count then corrupt "%d counters" nbank;
  let base = Array.init nbank (fun _ -> rd_varint r) in
  {
    events;
    n;
    sig_uses;
    sig_dst;
    run_first;
    run_len;
    run_count;
    long_count;
    base;
    outcome = Finished;
    ret;
    output;
    steps;
  }

let decode (s : string) : (t, string) result =
  try
    let r = { s; pos = 0 } in
    (match rd_byte r with
    | v when v = codec_version -> ()
    | v -> corrupt "codec version %d (want %d)" v codec_version);
    let outcome =
      match rd_byte r with
      | 0 -> Finished
      | 1 -> Trapped (rd_string r)
      | 2 -> Exhausted
      | k -> corrupt "bad outcome tag %d" k
    in
    let output = rd_string r in
    let steps = rd_varint r in
    let tr =
      if outcome = Finished then rd_finished r ~output ~steps
      else stopped outcome ~output ~steps
    in
    if r.pos <> String.length s then
      corrupt "%d trailing bytes" (String.length s - r.pos);
    Ok tr
  with Corrupt m -> Error m

(* bit-exact trace equality (floats compared by bit pattern) *)
let equal (a : t) (b : t) =
  let feq x y = Int64.bits_of_float x = Int64.bits_of_float y in
  let veq (x : Interp.value) (y : Interp.value) =
    match (x, y) with
    | Interp.VFloat f, Interp.VFloat g -> feq f g
    | Interp.VArr u, Interp.VArr v -> (
      u.Interp.base = v.Interp.base
      && u.Interp.esize = v.Interp.esize
      && u.Interp.mask32 = v.Interp.mask32
      &&
      match (u.Interp.payload, v.Interp.payload) with
      | Interp.IA p, Interp.IA q -> p = q
      | Interp.FA p, Interp.FA q ->
        Array.length p = Array.length q
        && Array.for_all2 feq p q
      | _ -> false)
    | _ -> x = y
  in
  a.n = b.n
  && a.events = b.events
  && a.sig_uses = b.sig_uses
  && a.sig_dst = b.sig_dst
  && a.run_first = b.run_first
  && a.run_len = b.run_len
  && a.run_count = b.run_count
  && a.long_count = b.long_count
  && a.base = b.base
  && a.outcome = b.outcome
  && veq a.ret b.ret
  && a.output = b.output
  && a.steps = b.steps
