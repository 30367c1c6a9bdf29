(* Answer verification: every reply is compared bitwise with
   [Handler.handle] run in-process on a twin catalog opened on the same
   summary files.

   Replies whose expected payload is already known are checked as they
   arrive (a string comparison).  The others keep only a digest of their
   payload and are checked after the measured window, so that
   verification never competes with the daemon for the CPU while it is
   being measured.  Reads of the fleet's [live] summary are checked
   against the states a REFRESH sequence moves it through: a read may
   see any state from the last REFRESH answered before it was sent to
   the last one sent before its reply arrived. *)

module Protocol = Edb_server.Protocol
module Catalog = Edb_server.Catalog
module Handler = Edb_server.Handler

type twin = { catalog : Catalog.t; metrics : Edb_server.Metrics.t }

let load catalog (name, path) =
  match Catalog.load catalog ~name ~path with
  | Ok _ -> ()
  | Error m -> failwith (Printf.sprintf "in-process LOAD %s: %s" name m)

let twin ?budget loads =
  let catalog = Catalog.create ?budget_bytes:budget () in
  List.iter (load catalog) loads;
  { catalog; metrics = Edb_server.Metrics.create () }

(* The payload bytes the daemon writes for a response: each line and
   its newline.  Errors have none. *)
let payload = function
  | Protocol.Ok lines -> Some (String.concat "" (List.map (fun l -> l ^ "\n") lines))
  | Protocol.Err _ -> None

let answer twin line =
  match Protocol.parse_request line with
  | Error _ -> None
  | Ok request ->
      payload (fst (Handler.handle ~catalog:twin.catalog ~metrics:twin.metrics request))

type t = {
  twin : twin;
  expected : (string, string option) Hashtbl.t;  (** request line -> payload *)
  mutable later : (string * Digest.t) list;
  mutable live : (string * Digest.t * int * int) list;
  mutable refreshes : (int * Digest.t) list;  (** k-th REFRESH reply *)
  mutable wrong : int;
}

let create twin =
  { twin; expected = Hashtbl.create 4096; later = []; live = []; refreshes = []; wrong = 0 }

(* Expected payloads of [lines], computed on two domains: this runs
   while the daemon is idle or stopped, so both cores are free.  The
   first line runs alone so that a mapped summary's lazy checksum pass
   happens exactly once. *)
let answers twin lines =
  let n = Array.length lines in
  let out = Array.make n None in
  if n > 0 then out.(0) <- answer twin lines.(0);
  let mid = (n + 1) / 2 in
  let other =
    Domain.spawn (fun () ->
        for i = max 1 mid to n - 1 do
          out.(i) <- answer twin lines.(i)
        done)
  in
  for i = 1 to mid - 1 do
    out.(i) <- answer twin lines.(i)
  done;
  Domain.join other;
  out

(* Learn the expected payloads of [lines] not known yet. *)
let learn t lines =
  let fresh =
    List.filter (fun l -> not (Hashtbl.mem t.expected l)) lines
    |> List.sort_uniq String.compare |> Array.of_list
  in
  Array.iteri (fun i w -> Hashtbl.replace t.expected fresh.(i) w) (answers t.twin fresh)

(* Learn up front what the stream's first requests should return, so
   their replies are checked as they arrive. *)
let prepare t lines =
  learn t
    (List.filter
       (fun l -> String.starts_with ~prefix:"QUERY " l && not (Workload.is_live l))
       lines)

(* One successful reply.  [lo] and [hi] bound the REFRESHes that may
   have applied to it (used only for the fleet's [live] reads). *)
let reply t ~lo ~hi line got =
  if Workload.is_live line then t.live <- (line, Digest.string got, lo, hi) :: t.live
  else
    match Hashtbl.find_opt t.expected line with
    | Some (Some want) -> if not (String.equal want got) then t.wrong <- t.wrong + 1
    | Some None -> t.wrong <- t.wrong + 1
    | None -> t.later <- (line, Digest.string got) :: t.later

let refresh_reply t k got = t.refreshes <- (k, Digest.string got) :: t.refreshes

(* Check everything deferred; [live] is a copy of the fleet's [live]
   file as the daemon first loaded it (which this REFRESHes in place),
   and the REFRESH line the writer sent, when there is one.  Returns
   the wrong-answer count over the whole run. *)
let finish t ~live =
  learn t (List.map fst t.later);
  List.iter
    (fun (line, got) ->
      match Hashtbl.find t.expected line with
      | Some want when Digest.equal (Digest.string want) got -> ()
      | _ -> t.wrong <- t.wrong + 1)
    t.later;
  (match live with
  | None -> ()
  | Some (path, refresh) ->
      let twin = twin [ ("live", path) ] in
      let states =
        1
        + List.fold_left
            (fun m (_, _, _, hi) -> max m hi)
            (List.length t.refreshes) t.live
      in
      let lines =
        List.sort_uniq String.compare (List.map (fun (l, _, _, _) -> l) t.live)
      in
      (* digests.(k): each live read's expected digest after k
         REFRESHes; the k+1-th REFRESH reply is checked on the way. *)
      let digests =
        Array.init states (fun k ->
            let table =
              List.map (fun l -> (l, Option.map Digest.string (answer twin l))) lines
            in
            if k + 1 < states then begin
              let want = Option.map Digest.string (answer twin refresh) in
              match List.assoc_opt (k + 1) t.refreshes with
              | Some got when want = Some got -> ()
              | Some _ -> t.wrong <- t.wrong + 1
              | None -> ()
            end;
            table)
      in
      List.iter
        (fun (line, got, lo, hi) ->
          let rec seen k =
            k <= hi
            && (List.assoc line digests.(k) = Some got || seen (k + 1))
          in
          if not (seen (max 0 lo)) then t.wrong <- t.wrong + 1)
        t.live);
  t.wrong
