(* The repository benchmark. One workload per process:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--smoke] [--commit SHA]

   --trace 0 measures the end-to-end metrics with Obs off; --trace 1 is the
   separate traced run that splits the workload across the library's layers
   and reports the tracing overhead. The last stdout line is the result
   object; the line before it is the run header. Exit 1 when any output
   fails its oracle. See perfbench/README.md. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload scale_apihash|estimate_mix|serve_mix --seed N --seconds S --trace 0|1 [--smoke] [--commit SHA]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let smoke = ref false and commit = ref "unknown" in
  let int_arg r v = match int_of_string_opt v with Some i -> r := Some i | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> int_arg seed v; parse rest
    | "--seconds" :: v :: rest -> int_arg seconds v; parse rest
    | "--trace" :: v :: rest -> int_arg trace v; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--commit" :: v :: rest -> commit := v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, secs, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some (0 | 1 as tr) when t >= 1 -> (s, t, tr = 1)
    | _ -> usage ()
  in
  Ids_obs.Obs.set_enabled false;
  let seconds = float_of_int secs in
  let smoke = !smoke in
  let n = if smoke then 1 lsl 10 else 1 lsl 18 in
  let outcome =
    match (!workload, trace) with
    | "scale_apihash", false -> W_scale.untraced ~n ~seed ~seconds
    | "scale_apihash", true -> W_scale.traced ~n ~seed ~seconds
    | "estimate_mix", false -> W_estimate.untraced ~seed ~seconds ~smoke
    | "estimate_mix", true -> W_estimate.traced ~seed ~seconds ~smoke
    | "serve_mix", false -> W_serve.untraced ~seed ~seconds
    | "serve_mix", true -> W_serve.traced ~seed ~seconds
    | _ -> usage ()
  in
  Kit.header ~commit:!commit ~workload:!workload ~seed ~seconds:secs ~trace ~smoke outcome.Kit.samples;
  Kit.result_line ~trace outcome;
  if outcome.Kit.failed > 0 then exit 1
