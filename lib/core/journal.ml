(* Ingest journal: a summary's lineage.

   A freshly built summary starts a journal with one base record; every
   ingested batch appends an entry (row count, source tag, solver sweeps
   the warm-started re-solve took).  The journal travels inside the
   summary file's manifest (see Serialize), so after a restart a
   summary still knows how it was assembled and the maintenance history
   is replayable/auditable: [total_rows] must always equal the summary's
   cardinality, which the ingest path and the check harness both verify.

   The [version] field makes the journal itself evolvable independently
   of the container file format: a future reader can dispatch on it
   without another magic bump. *)

let version = 1

type entry = {
  rows : int;  (* cardinality of the ingested batch *)
  source : string;  (* provenance tag, e.g. the batch CSV's basename *)
  sweeps : int;  (* solver sweeps the warm-started re-solve took *)
  warm : bool;  (* whether the solve was warm-started *)
}

type t = {
  j_version : int;
  base_rows : int;
  base_source : string;
  entries : entry list; (* oldest first *)
}

let base ?(source = "build") ~rows () =
  if rows < 0 then invalid_arg "Journal.base: negative row count";
  { j_version = version; base_rows = rows; base_source = source; entries = [] }

let append t entry =
  if entry.rows < 0 then invalid_arg "Journal.append: negative row count";
  { t with entries = t.entries @ [ entry ] }

let entries t = t.entries
let base_rows t = t.base_rows
let base_source t = t.base_source
let batches t = List.length t.entries

let total_rows t =
  List.fold_left (fun acc e -> acc + e.rows) t.base_rows t.entries

let pp_entry ppf e =
  Fmt.pf ppf "+%d rows from %s (%d sweep%s, %s)" e.rows e.source e.sweeps
    (if e.sweeps = 1 then "" else "s")
    (if e.warm then "warm" else "cold")

let pp ppf t =
  Fmt.pf ppf "@[<v>base: %d rows from %s" t.base_rows t.base_source;
  List.iter (fun e -> Fmt.pf ppf "@,%a" pp_entry e) t.entries;
  Fmt.pf ppf "@]"
