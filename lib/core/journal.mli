(** Ingest journal: the lineage of a summary — its base build plus every
    appended batch.  Persisted inside the summary file's manifest
    ({!Serialize}), so lineage survives restarts and {!total_rows} can always be
    audited against the summary's cardinality. *)

val version : int
(** Journal format version carried in every journal (currently 1), so the
    journal can evolve independently of the container file format. *)

type entry = {
  rows : int;  (** cardinality of the ingested batch *)
  source : string;  (** provenance tag, e.g. the batch CSV's basename *)
  sweeps : int;  (** solver sweeps the re-solve took *)
  warm : bool;  (** whether the solve was warm-started from the prior α *)
}

type t

val base : ?source:string -> rows:int -> unit -> t
(** A fresh journal for a just-built summary ([source] defaults to
    ["build"]).  Raises on a negative row count. *)

val append : t -> entry -> t
(** Record one applied batch (oldest first). *)

val entries : t -> entry list
val base_rows : t -> int
val base_source : t -> string

val batches : t -> int
(** Number of applied batches. *)

val total_rows : t -> int
(** Base rows plus every batch's rows; equals the summary's cardinality
    for any summary maintained through {!Edb_ingest.Ingest}. *)

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
