type backend =
  | Cos of Psmr_cos.Registry.impl
  | Early of Early_intf.config

let all =
  List.map (fun i -> Cos i) Psmr_cos.Registry.all
  @ [
      Early Early_intf.conservative;
      Early Early_intf.optimistic;
    ]

let to_string = function
  | Cos impl -> Psmr_cos.Registry.to_string impl
  | Early { classes; optimistic } ->
      let base = if optimistic then "early-opt" else "early" in
      (match classes with
      | None -> base
      | Some k -> Printf.sprintf "%s-%d" base k)

(* "early", "early-opt" (also "early_opt"), optionally suffixed with a
   class count ("early-4", "early-opt-4"), in any letter case; anything
   else is tried against the COS registry, so every existing impl name
   dispatches here too. *)
let of_string s =
  let s' =
    String.map (fun c -> if c = '_' then '-' else c) (String.lowercase_ascii s)
  in
  let parse_classes rest =
    match int_of_string_opt rest with
    | Some k when k > 0 -> Some (Some k)
    | _ -> None
  in
  let early ~optimistic classes = Some (Early { classes; optimistic }) in
  let prefixed prefix =
    let n = String.length prefix in
    if String.length s' > n + 1 && String.sub s' 0 (n + 1) = prefix ^ "-" then
      Some (String.sub s' (n + 1) (String.length s' - n - 1))
    else None
  in
  if s' = "early" then early ~optimistic:false None
  else if s' = "early-opt" then early ~optimistic:true None
  else
    match prefixed "early-opt" with
    | Some rest -> (
        match parse_classes rest with
        | Some classes -> early ~optimistic:true classes
        | None -> None)
    | None -> (
        match prefixed "early" with
        | Some rest when rest <> "opt" -> (
            match parse_classes rest with
            | Some classes -> early ~optimistic:false classes
            | None -> None)
        | _ -> (
            match Psmr_cos.Registry.of_string s with
            | Some impl -> Some (Cos impl)
            | None -> None))

let is_optimistic = function
  | Early { optimistic; _ } -> optimistic
  | Cos _ -> false

let classes = function Early { classes; _ } -> classes | Cos _ -> None
