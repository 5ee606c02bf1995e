(* Value gate for the benchmark report: parses a golden BENCH JSON and a
   freshly produced one and requires every virtual-time section to be
   equal after parsing.  The wall-clock sections (Bechamel micro timings
   and DES engine speed) depend on the host, so only their shape is
   compared: the same rows with the same names and the same members, each
   numeric where the golden one is, whatever its value.

   Usage: verify.exe GOLDEN ACTUAL — exit 0 when equal, 1 with the list of
   differing paths otherwise.  The @bench-verify alias runs it on a
   smoke-sized report. *)

module J = Psmr_util.Json

let wall_clock_sections = [ "micro_ns_per_op"; "sim_events_per_wall_second" ]

let load path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse s with
  | Ok (J.Obj _ as doc) -> doc
  | Ok _ -> failwith (path ^ ": top level is not an object")
  | Error msg -> failwith (path ^ ": " ^ msg)

(* Every path at which the two documents differ; object members are
   matched by name, so member order is irrelevant.  Under [~values:false]
   any two numbers are equal. *)
let rec diff ~values path (a : J.t) (b : J.t) acc =
  match (a, b) with
  | J.Obj fa, J.Obj fb ->
      let keys =
        List.sort_uniq compare (List.map fst fa @ List.map fst fb)
      in
      List.fold_left
        (fun acc k ->
          let p = path ^ "." ^ k in
          match (List.assoc_opt k fa, List.assoc_opt k fb) with
          | Some x, Some y ->
              let values =
                values && not (path = "" && List.mem k wall_clock_sections)
              in
              diff ~values p x y acc
          | Some _, None -> (p ^ ": missing") :: acc
          | None, Some _ -> (p ^ ": unexpected") :: acc
          | None, None -> acc)
        acc keys
  | J.Arr la, J.Arr lb when List.length la = List.length lb ->
      snd
        (List.fold_left2
           (fun (i, acc) x y ->
             (i + 1, diff ~values (Printf.sprintf "%s[%d]" path i) x y acc))
           (0, acc) la lb)
  | J.Arr la, J.Arr lb ->
      Printf.sprintf "%s: %d elements, expected %d" path (List.length lb)
        (List.length la)
      :: acc
  | J.Num x, J.Num y when Float.equal x y || not values -> acc
  | J.Num _, J.Num _ ->
      Printf.sprintf "%s: %s, expected %s" path (J.to_string b) (J.to_string a)
      :: acc
  | _ when a = b -> acc
  | _ -> (path ^ ": value differs") :: acc

let () =
  match Sys.argv with
  | [| _; golden; actual |] -> (
      match List.rev (diff ~values:true "" (load golden) (load actual) []) with
      | [] -> Printf.printf "bench-verify: %s matches %s\n" actual golden
      | diffs ->
          List.iter prerr_endline diffs;
          Printf.eprintf "bench-verify: %d difference(s) against %s\n"
            (List.length diffs) golden;
          exit 1)
  | _ ->
      prerr_endline "usage: verify.exe GOLDEN ACTUAL";
      exit 2
