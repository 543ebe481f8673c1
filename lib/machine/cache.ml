(* Set-associative cache with true-LRU replacement, write-allocate /
   write-back policy.  Used for both L1D and L2 in the simulated machine. *)

type config = {
  size_bytes : int;
  assoc : int;
  line_bytes : int;
}

let lines cfg = cfg.size_bytes / cfg.line_bytes
let sets cfg = max 1 (lines cfg / cfg.assoc)

type t = {
  cfg : config;
  nsets : int;
  line_shift : int;      (* log2 line_bytes (checked power of two) *)
  set_mask : int;        (* nsets - 1 when nsets is a power of two, else -1 *)
  set_shift : int;       (* log2 nsets when it is a power of two *)
  ways : int array;
      (* nsets * assoc (tag, age, dirty) triples, interleaved so one
         set's state shares a cache line; tag -1 = invalid *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
}

(* field offsets within a way triple *)
let w_tag = 0
let w_age = 1
let w_dirty = 2

let check_config cfg =
  let pow2 n = n > 0 && n land (n - 1) = 0 in
  if not (pow2 cfg.line_bytes) then
    invalid_arg "Cache: line_bytes must be a power of two";
  if cfg.size_bytes < cfg.line_bytes then
    invalid_arg "Cache: size smaller than one line";
  if cfg.size_bytes mod cfg.line_bytes <> 0 then
    invalid_arg "Cache: size not a multiple of line size";
  if cfg.assoc <= 0 || lines cfg mod cfg.assoc <> 0 then
    invalid_arg "Cache: associativity does not divide the line count"

let log2_exact n =
  let rec go i = if 1 lsl i >= n then i else go (i + 1) in
  go 0

let invalidate_ways (ways : int array) =
  let n = Array.length ways / 3 in
  for i = 0 to n - 1 do
    ways.(3 * i) <- -1;
    ways.((3 * i) + 1) <- 0;
    ways.((3 * i) + 2) <- 0
  done

let make cfg =
  check_config cfg;
  let n = sets cfg * cfg.assoc in
  let nsets = sets cfg in
  let pow2 x = x > 0 && x land (x - 1) = 0 in
  let ways = Array.make (n * 3) 0 in
  invalidate_ways ways;
  {
    cfg;
    nsets;
    line_shift = log2_exact cfg.line_bytes;
    set_mask = (if pow2 nsets then nsets - 1 else -1);
    set_shift = (if pow2 nsets then log2_exact nsets else 0);
    ways;
    clock = 0;
    accesses = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
  }

let reset t =
  invalidate_ways t.ways;
  t.clock <- 0;
  t.accesses <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.writebacks <- 0

type outcome = {
  hit : bool;
  writeback : int option;  (* address of a dirty line evicted by this fill *)
}

let hit = -2
let miss = -1

(* Allocation-free access for the per-event hot loops (Flatsim and the
   trace replay): same state evolution as [access], with the outcome
   encoded as an int — [hit], [miss], or the (non-negative) writeback
   address of a dirty line displaced by the fill.  All tags/dirty/age
   indices are [set * assoc + way] with [set < nsets], [way < assoc], so
   the unsafe accesses are in bounds by construction. *)
(* Miss path after a failed hit scan: replacement choice, writeback
   accounting, line install.  Shared by [access_fast] below and by
   Flatsim's in-unit hit probe (dev builds compile with -opaque, so the
   probe keeps the common hit case call-free and only misses land
   here).  The caller has already bumped accesses/clock. *)
let fill (t : t) ~(set : int) ~(tag : int) ~(write : bool) : int =
  let assoc = t.cfg.assoc in
  let ways = t.ways in
  let base = set * assoc * 3 in
  let limit = base + (assoc * 3) in
  t.misses <- t.misses + 1;
  (* choose victim: invalid way first, else LRU; a direct-mapped set
     has no choice to make *)
  let v =
    if assoc = 1 then base
    else begin
      let victim = ref base in
      let best = ref max_int in
      let i = ref base in
      while !i < limit do
        if Array.unsafe_get ways (!i + w_tag) = -1 && !best > -1 then begin
          victim := !i;
          best := -1
        end
        else if !best >= 0 && Array.unsafe_get ways (!i + w_age) < !best
        then begin
          victim := !i;
          best := Array.unsafe_get ways (!i + w_age)
        end;
        i := !i + 3
      done;
      !victim
    end
  in
  let old_tag = Array.unsafe_get ways (v + w_tag) in
  let writeback =
    if old_tag >= 0 then begin
      t.evictions <- t.evictions + 1;
      if Array.unsafe_get ways (v + w_dirty) <> 0 then begin
        t.writebacks <- t.writebacks + 1;
        let old_line = (old_tag * t.nsets) + set in
        old_line * t.cfg.line_bytes
      end
      else miss
    end
    else miss
  in
  Array.unsafe_set ways (v + w_tag) tag;
  Array.unsafe_set ways (v + w_age) t.clock;
  Array.unsafe_set ways (v + w_dirty) (if write then 1 else 0);
  writeback

let access_fast (t : t) ~(addr : int) ~(write : bool) : int =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  (* addresses are non-negative, so shift/mask equal the divisions *)
  let line = addr lsr t.line_shift in
  let set = if t.set_mask >= 0 then line land t.set_mask else line mod t.nsets in
  let tag = if t.set_mask >= 0 then line lsr t.set_shift else line / t.nsets in
  let assoc = t.cfg.assoc in
  let ways = t.ways in
  let base = set * assoc * 3 in
  let limit = base + (assoc * 3) in
  (* hit scan: tag slots at stride 3, straight-line for the 1-, 2-, 4-
     and 8-way geometries the preset L1s and L2s use.  Every index stays
     within [base, limit) <= length ways, so unsafe is in bounds. *)
  let w =
    if assoc = 2 then
      if Array.unsafe_get ways (base + w_tag) = tag then base
      else if Array.unsafe_get ways (base + 3 + w_tag) = tag then base + 3
      else -3
    else if assoc = 1 then
      if Array.unsafe_get ways (base + w_tag) = tag then base else -3
    else if assoc = 4 || assoc = 8 then begin
      let h4 b =
        if Array.unsafe_get ways (b + w_tag) = tag then b
        else if Array.unsafe_get ways (b + 3 + w_tag) = tag then b + 3
        else if Array.unsafe_get ways (b + 6 + w_tag) = tag then b + 6
        else if Array.unsafe_get ways (b + 9 + w_tag) = tag then b + 9
        else -3
      in
      let w = h4 base in
      if w >= 0 || assoc = 4 then w else h4 (base + 12)
    end
    else begin
      let w = ref (-3) in
      let i = ref base in
      while !w < 0 && !i < limit do
        if Array.unsafe_get ways (!i + w_tag) = tag then w := !i;
        i := !i + 3
      done;
      !w
    end
  in
  if w >= 0 then begin
    Array.unsafe_set ways (w + w_age) t.clock;
    if write then Array.unsafe_set ways (w + w_dirty) 1;
    hit
  end
  else fill t ~set ~tag ~write

let access (t : t) ~(addr : int) ~(write : bool) : outcome =
  match access_fast t ~addr ~write with
  | r when r = hit -> { hit = true; writeback = None }
  | r when r = miss -> { hit = false; writeback = None }
  | wb -> { hit = false; writeback = Some wb }
