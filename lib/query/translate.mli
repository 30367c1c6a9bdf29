(** Translation of parsed queries into engine form: schema-resolved
    predicates and grouping attribute indices. *)

open Edb_storage

type error = { message : string }

val pp_error : Format.formatter -> error -> unit

type aggregate = Count | Sum of int | Avg of int

type compiled = {
  disjuncts : Predicate.t list;
      (** non-empty; a single tautology when there is no WHERE *)
  aggregate : aggregate;
  group_attrs : int list;
  order : Ast.order option;
  limit : int option;
}

val conjunctive : compiled -> Predicate.t option
(** The predicate of a non-OR query; [None] when the query has multiple
    disjuncts. *)

val order_groups :
  compiled -> (int list * float * 'a) list -> (int list * float * 'a) list
(** The query's ORDER BY COUNT( * ) and LIMIT over grouped cells
    [(key, estimate, _)]: by estimate under [Float.compare] — descending
    by default, ascending for ASC — with ties broken by ascending key,
    then the first LIMIT cells.  Every front end (QUERY, PLAN and
    [entropydb query]) orders grouped answers with this one rule. *)

val compile : Schema.t -> Ast.t -> (compiled, error) result
(** Values outside the active domain compile to empty restrictions (the
    query is valid and counts 0); unknown attributes, type mismatches,
    a repeated GROUP BY attribute, and OR in anything but a plain COUNT
    are errors. *)

val compile_string : Schema.t -> string -> (compiled, error) result
(** Parse + compile in one step. *)
