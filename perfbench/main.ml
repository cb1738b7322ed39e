(* Runs one benchmark workload and prints, as its last line, one JSON
   object: {"correct", "attempted", "failed", "semantic", "metrics"},
   with metric values by name. run.py builds this executable, adds the
   units from BENCHMARK.json and checks the names against it.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 *)

open Perfbench

let workloads =
  [
    ("crash-fuzz", Wl_fuzz.run);
    ("serve-zipf", Wl_serve.run);
    ("paper-fs", Wl_paper.run);
    ("bigvol", Wl_bigvol.run);
  ]

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "non-finite metric value"

let print_result ~correct ~(outcome : Outcome.t) metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"semantic\": %d, \
     \"metrics\": {%s}}\n%!"
    correct
    (max 1 (Outcome.attempted outcome))
    outcome.Outcome.failed outcome.Outcome.semantic
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_number v)) metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of crash-fuzz serve-zipf paper-fs bigvol");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time per run");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics instead of end-to-end");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let trace = !trace = 1 in
  Printf.printf "host_cores=%d workload=%s seed=%d seconds=%g trace=%b\n%!"
    (Domain.recommended_domain_count ())
    !workload !seed !seconds trace;
  match run ~seed:!seed ~seconds:!seconds ~trace with
  | exception e ->
      let outcome = Outcome.create () in
      Outcome.raised outcome e;
      Printf.printf "run ended by a raise: %s\n" (Printexc.to_string e);
      print_result ~correct:false ~outcome [];
      exit 1
  | r ->
      let heap =
        if trace then []
        else
          [
            ( "heap_peak_mib",
              float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
              /. 1048576. );
          ]
      in
      List.iter (fun (k, n) -> Printf.printf "failed ops: %s x%d\n" k n) (Outcome.reasons r.Outcome.outcome);
      List.iter (fun e -> Printf.printf "INCORRECT: %s\n" e) r.Outcome.errors;
      let correct = r.Outcome.errors = [] in
      print_result ~correct ~outcome:r.Outcome.outcome (heap @ r.Outcome.metrics);
      if not correct then exit 1
