(* One client connection to the daemon, framing responses straight out
   of a byte buffer.

   A response is a header line ([OK <k>] or [ERR <code> <message>],
   optionally tagged [@<id>]) followed by [k] payload lines.  The payload
   is kept as one string — the exact bytes the daemon wrote — so that it
   can be compared bitwise with an in-process answer without splitting
   it into lines first. *)

module Protocol = Edb_server.Protocol

type t = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable lo : int;  (** first unconsumed byte *)
  mutable hi : int;  (** end of the bytes read so far *)
}

type reply = {
  tag : string option;
  ok : bool;
  payload : string;
      (** [OK]: the payload lines, each ending in a newline; [ERR]: the
          code and message *)
}

(* [timeout] bounds every blocking read, so a wedged daemon becomes a
   transport error instead of a hang. *)
let connect ?(timeout = 10.) path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_UNIX path);
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout
  with
  | () -> Ok { fd; buf = Bytes.create 65536; lo = 0; hi = 0 }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* [Unix.write] on a blocking socket writes everything or raises. *)
let send t s = ignore (Unix.write_substring t.fd s 0 (String.length s))

let newline t from =
  match Bytes.index_from_opt t.buf from '\n' with
  | Some i when i < t.hi -> Some i
  | _ -> None

(* One complete response off the front of the buffer, if it is all
   there. *)
let take t =
  match newline t t.lo with
  | None -> None
  | Some nl -> (
      match
        Protocol.parse_tagged_header (Bytes.sub_string t.buf t.lo (nl - t.lo))
      with
      | Error m -> failwith ("malformed response header: " ^ m)
      | Ok (tag, Protocol.Error_line { code; message }) ->
          t.lo <- nl + 1;
          Some { tag; ok = false; payload = code ^ " " ^ message }
      | Ok (tag, Protocol.Payload k) ->
          let rec skip pos k =
            if k = 0 then Some pos
            else
              match newline t pos with
              | None -> None
              | Some i -> skip (i + 1) (k - 1)
          in
          Option.map
            (fun stop ->
              let payload = Bytes.sub_string t.buf (nl + 1) (stop - nl - 1) in
              t.lo <- stop;
              { tag; ok = true; payload })
            (skip (nl + 1) k))

(* Read more bytes; [false] when the receive timeout expired first. *)
let fill t =
  if t.lo = t.hi then begin
    t.lo <- 0;
    t.hi <- 0
  end;
  if t.hi = Bytes.length t.buf then
    if t.lo > 0 then begin
      Bytes.blit t.buf t.lo t.buf 0 (t.hi - t.lo);
      t.hi <- t.hi - t.lo;
      t.lo <- 0
    end
    else begin
      let b = Bytes.create (2 * Bytes.length t.buf) in
      Bytes.blit t.buf 0 b 0 t.hi;
      t.buf <- b
    end;
  match Unix.read t.fd t.buf t.hi (Bytes.length t.buf - t.hi) with
  | 0 -> failwith "connection closed by the server"
  | n ->
      t.hi <- t.hi + n;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false

(* Block until one whole response has arrived. *)
let rec recv t =
  match take t with
  | Some r -> r
  | None ->
      if not (fill t) then failwith "timed out waiting for the server";
      recv t

let call t line =
  send t (line ^ "\n");
  recv t

(* A [STATS] payload as a [key value] table. *)
let parse_stats payload =
  String.split_on_char '\n' payload
  |> List.filter_map (fun line ->
         match String.index_opt line ' ' with
         | Some i ->
             Option.map
               (fun v -> (String.sub line 0 i, v))
               (float_of_string_opt
                  (String.sub line (i + 1) (String.length line - i - 1)))
         | None -> None)

let stats t =
  let r = call t "STATS" in
  if not r.ok then failwith ("STATS failed: " ^ r.payload);
  parse_stats r.payload
