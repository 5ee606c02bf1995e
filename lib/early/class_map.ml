(* The static key -> class -> worker-set map of early scheduling.

   Keys hash to one of [classes] classes; class [c] is served by the
   workers whose (1-based) id satisfies [(id - 1) mod classes = c], so the
   map is total, static and balanced without any runtime negotiation.
   Planning a command means mapping its footprint to the set of worker
   queues that must see a token:

   - a write to key [k] must be ordered against every command that might
     touch [k], and reads of [k] may sit in any queue of [class k], so a
     write involves {e all} workers of each class it writes;
   - a read of [k] only needs to be ordered against writes of [k], and
     every such write rendezvouses with all of [class k]'s workers, so one
     {e representative} queue per read class suffices (chosen round-robin
     to spread load);
   - a command touching no key conflicts with nothing and goes to any
     queue (global round-robin).

   If the resulting worker set is a singleton the command is a [Direct]
   fast-path append — no shared structure, no synchronization beyond the
   queue itself.  Otherwise it is a [Rendezvous] over the set, with the
   smallest involved worker designated to execute.

   With [classes = workers] every class has exactly one worker and all
   single-class commands (reads and writes alike) take the fast path; with
   [classes = 1] the map degenerates to the readers/writers discipline of
   queue-dispatch early scheduling: reads round-robin across all workers,
   writes rendezvous with everyone.

   Planning mutates round-robin cursors and scratch stamps, so it is
   single-threaded by contract — only the parallelizer plans. *)

type plan =
  | Direct of { worker : int }
  | Rendezvous of { members : int array; designated : int }

type t = {
  classes : int;
  workers : int;
  members : int array array;  (* class -> ascending worker ids *)
  rr : int array;  (* per-class round-robin cursor for read representatives *)
  mutable grr : int;  (* global cursor for footprint-free commands *)
  (* Scratch for [plan], generation-stamped so it needs no clearing. *)
  seen : int array;  (* stamp: class already involved this plan *)
  wrote : int array;  (* stamp: class written this plan *)
  mutable gen : int;
}

let create ?classes ~workers () =
  if workers <= 0 then invalid_arg "Class_map.create: workers must be positive";
  let classes =
    match classes with
    | None -> workers
    | Some c ->
        if c <= 0 then invalid_arg "Class_map.create: classes must be positive";
        min c workers
  in
  let members =
    Array.init classes (fun c ->
        let rec collect id acc =
          if id > workers then Array.of_list (List.rev acc)
          else collect (id + 1) (if (id - 1) mod classes = c then id :: acc else acc)
        in
        collect 1 [])
  in
  {
    classes;
    workers;
    members;
    rr = Array.make classes 0;
    grr = 0;
    seen = Array.make classes (-1);
    wrote = Array.make classes (-1);
    gen = 0;
  }

let classes t = t.classes
let workers t = t.workers

let class_of_key t k =
  let c = k mod t.classes in
  if c < 0 then c + t.classes else c

let members_of_class t c = Array.copy t.members.(c)

let plan t footprint =
  match footprint with
  | [] ->
      t.grr <- t.grr + 1;
      Direct { worker = 1 + (t.grr mod t.workers) }
  | fp ->
      t.gen <- t.gen + 1;
      let g = t.gen in
      (* Involved classes in footprint order, write flags folded in. *)
      let involved = ref [] in
      List.iter
        (fun (k, is_write) ->
          let c = class_of_key t k in
          if t.seen.(c) <> g then begin
            t.seen.(c) <- g;
            involved := c :: !involved
          end;
          if is_write then t.wrote.(c) <- g)
        fp;
      let ids = ref [] in
      List.iter
        (fun c ->
          if t.wrote.(c) = g then
            Array.iter (fun id -> ids := id :: !ids) t.members.(c)
          else begin
            (* Read-only class: one representative, round-robin. *)
            let ms = t.members.(c) in
            t.rr.(c) <- t.rr.(c) + 1;
            ids := ms.(t.rr.(c) mod Array.length ms) :: !ids
          end)
        (List.rev !involved);
      (match List.sort_uniq compare !ids with
      | [ w ] -> Direct { worker = w }
      | ws ->
          let members = Array.of_list ws in
          Rendezvous { members; designated = members.(0) })

let pp_plan ppf = function
  | Direct { worker } -> Format.fprintf ppf "direct(w%d)" worker
  | Rendezvous { members; designated } ->
      Format.fprintf ppf "rendezvous(%s; exec=w%d)"
        (String.concat ","
           (Array.to_list (Array.map (fun w -> "w" ^ string_of_int w) members)))
        designated
