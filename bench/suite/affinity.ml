(* CPU placement of the daemon and the generator, through taskset(1).

   On a small virtual machine, where two processes run matters as much
   as what they run: a reply that must wake another, idle vCPU pays a
   hypervisor round trip whose cost varies from run to run.  Every
   workload is a closed loop, so the generator and the daemon rarely
   compute at the same time: both run on one CPU for the measured
   window, and the other CPUs stay free for everything else.  Without
   taskset, or with fewer than two CPUs allowed, nothing is pinned. *)

let taskset =
  String.split_on_char ':' (Option.value (Sys.getenv_opt "PATH") ~default:"")
  |> List.find_map (fun d ->
         let p = Filename.concat d "taskset" in
         if d <> "" && Sys.file_exists p then Some p else None)

(* The CPUs this process may run on, from /proc ("0-1", "0,2-3"). *)
let allowed =
  let range r =
    match String.split_on_char '-' r with
    | [ a ] -> [ int_of_string a ]
    | [ a; b ] ->
        let a = int_of_string a in
        List.init (int_of_string b - a + 1) (( + ) a)
    | _ -> []
  in
  match In_channel.with_open_bin "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> []
  | status -> (
      String.split_on_char '\n' status
      |> List.find_map (fun l ->
             match String.split_on_char ':' l with
             | [ "Cpus_allowed_list"; v ] -> Some (String.trim v)
             | _ -> None)
      |> function
      | Some v -> (
          try List.concat_map range (String.split_on_char ',' v)
          with Failure _ -> [])
      | None -> [])

(* The daemon's CPU: the last one allowed, away from CPU 0's interrupt
   work where that is allowed. *)
let server_cpu =
  match (taskset, List.rev allowed) with
  | Some t, last :: _ :: _ -> Some (t, string_of_int last)
  | _ -> None

type where = Server_cpu | Anywhere

(* [argv] prefixed so that it runs on the daemon's CPU. *)
let server_argv argv =
  match server_cpu with
  | Some (t, cpu) -> Array.append [| t; "-c"; cpu |] argv
  | None -> argv

(* Move every thread of this process. *)
let pin_self where =
  match server_cpu with
  | None -> ()
  | Some (t, cpu) ->
      let list =
        match where with
        | Server_cpu -> cpu
        | Anywhere -> String.concat "," (List.map string_of_int allowed)
      in
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close null)
        (fun () ->
          let argv = [| t; "-a"; "-p"; "-c"; list; string_of_int (Unix.getpid ()) |] in
          ignore (Unix.waitpid [] (Unix.create_process t argv null null null)))
