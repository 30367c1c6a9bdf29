(** Execution of protocol requests against a catalog — the server's
    command surface, free of sockets and threads so it is testable
    in-process.  Guaranteed exception-free: every failure becomes a
    protocol [Err] reply. *)

type outcome = Keep | Close  (** whether the connection survives the reply *)

val handle :
  catalog:Catalog.t ->
  metrics:Metrics.t ->
  Protocol.request ->
  Protocol.response * outcome
(** [metrics] is only read (to render STATS); request/error accounting is
    the transport loop's job. *)

val shape_of_compiled :
  Edb_query.Translate.compiled -> Edb_plan.Plan.shape option
(** The planner shape of a compiled query: conjunctive COUNT, SUM and
    COUNT GROUP BY, the shapes every route has an error model for;
    [None] for OR predicates and AVG.  PLAN, EXPLAIN and [entropydb
    explain] all map queries through it. *)

val run_sql : Catalog.entry -> string -> Protocol.response
(** Compile and evaluate one SQL string against a resident summary.
    Conjunctive COUNTs go through the entry's shared cache. *)

val stats_lines : Catalog.t -> Metrics.t -> string list
(** The [STATS] payload: one [key value] line per statistic. *)
