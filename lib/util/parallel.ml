(* Chunked parallel folds over index ranges, on OCaml 5 domains.

   The paper parallelizes its solve (Sec. 5); here a partitioned build
   ([Edb_shard.Builder]) solves its shards in contiguous chunks, each
   chunk on its own domain, and combines the per-chunk results in chunk
   order.  Query answering does not use this module: an answer is one
   term pass on the domain that took the query, and the daemon spreads
   queries over its executor domains instead.

   Domains are spawned per call (tens of microseconds each), which a
   build of seconds does not notice. *)

(* Requested worker count, clamped to the hardware.  Running more domains
   than cores is never faster in OCaml 5 — every minor collection is a
   stop-the-world barrier across all domains, so oversubscribed domains
   turn each collection into a scheduling stall (measured ~6x slowdown
   for an allocation-heavy solver at 4 domains on 1 core).  Only the
   default is clamped; an explicit [~domains] argument to [fold] is
   honoured as given so tests can exercise real multi-domain runs. *)
let default_domains () =
  let requested =
    match Sys.getenv_opt "EDB_DOMAINS" with
    | Some s -> (
        match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 1)
    | None -> 1
  in
  max 1 (min requested (Domain.recommended_domain_count ()))

(* [fold ~domains ~n ~chunk ~combine ~init] splits [0, n) into [domains]
   contiguous chunks, computes [chunk ~lo ~hi] for each (hi exclusive) and
   combines the results left to right, starting from [init].  With
   [domains = 1] it runs in the calling domain. *)
let fold ~domains ~n ~chunk ~combine ~init =
  if n <= 0 then init
  else if domains <= 1 || n < domains then combine init (chunk ~lo:0 ~hi:n)
  else begin
    let per = (n + domains - 1) / domains in
    let bounds =
      List.init domains (fun d ->
          let lo = d * per in
          let hi = min n (lo + per) in
          (lo, hi))
      |> List.filter (fun (lo, hi) -> lo < hi)
    in
    match bounds with
    | [] -> init
    | (lo0, hi0) :: rest ->
        (* Spawn workers for the tail chunks, run the first chunk here. *)
        let handles =
          List.map
            (fun (lo, hi) -> Domain.spawn (fun () -> chunk ~lo ~hi))
            rest
        in
        let first = chunk ~lo:lo0 ~hi:hi0 in
        List.fold_left
          (fun acc h -> combine acc (Domain.join h))
          (combine init first) handles
  end
