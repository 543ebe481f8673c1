(* Shard planning + run-manifest capture (see shard.mli).  Pure
   arithmetic plus two best-effort `git` probes; nothing here touches
   the socket layer, so Dist and the CLI can both reuse it. *)

type t = { id : int; lo : int; hi : int }

let plan ~n ~shards =
  if n < 0 then invalid_arg "Shard.plan: n must be >= 0";
  if shards <= 0 then invalid_arg "Shard.plan: shards must be > 0";
  let shards = min shards (max 1 n) in
  if n = 0 then [||]
  else begin
    (* balanced contiguous ranges: the first [n mod shards] shards get
       one extra item, so sizes differ by at most one *)
    let base = n / shards and rem = n mod shards in
    let lo = ref 0 in
    Array.init shards (fun id ->
        let size = base + if id < rem then 1 else 0 in
        let s = { id; lo = !lo; hi = !lo + size } in
        lo := !lo + size;
        s)
  end

let key ~job s =
  Digest.to_hex
    (Digest.string (Printf.sprintf "shard\x00%s\x00%d\x00%d\x00%d" job s.id s.lo s.hi))

(* ------------------------------------------------------------------ *)
(* git provenance, best effort: a sweep run outside a checkout (CI
   sandbox, cram) still gets a manifest, just with unknown provenance *)

let command_output cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception _ -> None
  | ic ->
    let buf = Buffer.create 256 in
    (try
       while true do
         Buffer.add_channel buf ic 1
       done
     with End_of_file -> ());
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 -> Some (Buffer.contents buf)
     | _ | (exception _) -> None)

let git_revision () =
  match command_output "git rev-parse HEAD" with
  | Some out when String.trim out <> "" -> String.trim out
  | _ -> "unknown"

let git_dirty_digest () =
  match command_output "git status --porcelain" with
  | None -> "unknown"
  | Some status when String.trim status = "" -> "clean"
  | Some _ -> (
    match command_output "git diff HEAD" with
    | Some diff -> Digest.to_hex (Digest.string diff)
    | None -> "unknown")

(* ------------------------------------------------------------------ *)
(* the manifest *)

let write_manifest ~path ~run ~job ~n ~chunk_size ~meta plan =
  let open Obs.Json in
  let shard s =
    Obj
      [ ("id", int s.id); ("lo", int s.lo); ("hi", int s.hi);
        ("journal_key", Str (key ~job s)) ]
  in
  write_file path
    (to_doc
       (Obj
          ([
             ("schema", Str "icc-dist-manifest/1");
             ("run", Str run);
             ("git_rev", Str (git_revision ()));
             ("git_dirty", Str (git_dirty_digest ()));
             ("job", Str job);
             ("n", int n);
             ("chunk_size", int chunk_size);
             ("shards", int (Array.length plan));
           ]
          @ List.map (fun (k, v) -> (k, Str v)) meta
          @ [ ("shard_map", List (Array.to_list (Array.map shard plan))) ])))
