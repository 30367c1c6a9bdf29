(** Chunked parallel folds over index ranges on OCaml 5 domains, for
    partitioned builds ([Edb_shard.Builder] solves one chunk of shards
    per domain).  Chunk workers must only read shared state.  Query
    answering never forks: [EDB_DOMAINS] sets build fan-out and the
    daemon's executor count only. *)

val default_domains : unit -> int
(** Build worker count from the [EDB_DOMAINS] environment variable,
    clamped to [Domain.recommended_domain_count ()] (oversubscribing
    domains only adds GC-barrier stalls); 1 (fully sequential) when
    unset or invalid. *)

val fold :
  domains:int ->
  n:int ->
  chunk:(lo:int -> hi:int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  init:'a ->
  'a
(** [fold ~domains ~n ~chunk ~combine ~init] splits [\[0, n)] into
    contiguous chunks ([hi] exclusive), evaluates them on separate domains
    (the first in the calling domain), and combines left to right from
    [init].  [domains <= 1] runs sequentially. *)
