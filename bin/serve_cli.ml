(* serve: the 9P/NFS-style request frontend under synthetic load.

     serve --clients 1000 --ops 50 -j 1 --seed 7
                      -- replay 1000 Zipf sessions, print the report
     serve -j 4       -- same traffic on 4 worker domains

   The report ends with the durable image hash: at -j 1 it is a
   per-seed determinism witness (bit-identical across runs and across
   hosts); at -j N interleaving makes the image run-dependent, so only
   throughput and the per-session counters are comparable. *)

open Cmdliner

let run clients ops batch jobs seed dirs files theta device_mb =
  let cfg =
    {
      Serve.Loadgen.clients;
      ops_per_client = ops;
      batch;
      jobs;
      seed;
      dirs;
      files;
      theta;
      device_mb;
    }
  in
  let r = Serve.Loadgen.run cfg in
  Format.printf "@[<v>%a@]@." Serve.Loadgen.pp_report r;
  exit 0

let () =
  let clients =
    Arg.(value & opt int 1000 & info [ "clients" ] ~docv:"N" ~doc:"Simulated client sessions")
  in
  let ops =
    Arg.(value & opt int 50 & info [ "ops" ] ~docv:"N" ~doc:"Requests per session")
  in
  let batch =
    Arg.(value & opt int 8 & info [ "batch" ] ~docv:"N" ~doc:"Requests per submitted batch")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains claiming whole sessions from a shared cursor; \
             throughput scales with domains on multi-core hosts, the durable \
             hash is a determinism witness only at -j 1")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed") in
  let dirs =
    Arg.(value & opt int 8 & info [ "dirs" ] ~docv:"N" ~doc:"Directory universe size")
  in
  let files =
    Arg.(value & opt int 64 & info [ "files" ] ~docv:"N" ~doc:"File universe size")
  in
  let theta =
    Arg.(
      value & opt float 0.99
      & info [ "theta" ] ~docv:"T" ~doc:"Zipf skew of the per-session hot set")
  in
  let device_mb =
    Arg.(value & opt int 32 & info [ "device-mb" ] ~doc:"Device size in MiB")
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "serve"
             ~doc:"Zipf load generator for the concurrent SquirrelFS request frontend")
          Term.(
            const run $ clients $ ops $ batch $ jobs $ seed $ dirs $ files $ theta
            $ device_mb)))
