(* The daemon under test, run as a child process.

   OCaml 5's minor GC stops every domain of a process, so a server
   sharing the generator's process would pay the generator's
   collections as latency; a child process keeps the two apart.  The
   child never sees the suite's tracing or compute-parallelism settings:
   EDB_TRACE and EDB_DOMAINS are removed from its environment. *)

type t = { pid : int; socket : string; log : string; mutable live : bool }

(* Children still running, so that an abnormal exit stops them too. *)
let running : t list ref = ref []

let env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not
           (String.starts_with ~prefix:"EDB_TRACE=" kv
           || String.starts_with ~prefix:"EDB_DOMAINS=" kv))
  |> Array.of_list

let exited t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let log_tail t =
  match In_channel.with_open_bin t.log In_channel.input_all with
  | s ->
      let n = String.length s in
      String.sub s (max 0 (n - 2000)) (min n 2000)
  | exception Sys_error _ -> ""

(* SIGTERM asks for a graceful drain; a child that has not exited after
   10 s is killed.  Either way it is reaped before this returns. *)
let stop t =
  if t.live then begin
    t.live <- false;
    running := List.filter (fun c -> c != t) !running;
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 10. in
    let rec wait () =
      if exited t then ()
      else if Unix.gettimeofday () > deadline then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ()
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
    in
    wait ()
  end

let stop_all () = List.iter stop !running

(* Start [server serve --socket socket --domains 1 args...] and return
   once it answers PING.  [socket] is relative to the working directory,
   which the child inherits: Unix socket paths are limited to 107 bytes,
   and the checkout may sit deep in the file system. *)
let spawn ~server ~socket ~log args =
  let argv =
    Affinity.server_argv
      (Array.of_list
         ([ server; "serve"; "--socket"; socket; "--domains"; "1" ] @ args))
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () -> Unix.create_process_env argv.(0) argv (env ()) null out out)
  in
  let t = { pid; socket; log; live = true } in
  running := t :: !running;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec ready () =
    if exited t then begin
      t.live <- false;
      failwith ("server exited during start-up:\n" ^ log_tail t)
    end
    else
      match Conn.connect socket with
      | Ok c ->
          let r = Conn.call c "PING" in
          Conn.close c;
          if r.Conn.ok && r.Conn.payload = "pong\n" then ()
          else failwith "server did not answer PING with pong"
      | Error _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.002;
          ready ()
      | Error m -> failwith ("server never accepted a connection: " ^ m)
  in
  (try ready ()
   with e ->
     stop t;
     raise e);
  t

(* Peak resident set of the child, from /proc. *)
let vm_hwm_mib t =
  let path = Printf.sprintf "/proc/%d/status" t.pid in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.)
             | _ -> None)
      |> Option.value ~default:0.
