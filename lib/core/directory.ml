(* A resident copy of a logical host: the registration rank of the kernel
   holding it, and that kernel. *)
type holder = { rank : int; kernel : Kernel.t }

(* lh id -> every registered kernel holding it, ascending rank; never
   [[]]. *)
type index = (Ids.lh_id, holder list) Hashtbl.t

type t = {
  mutable kernels : Kernel.t list; (* reverse registration order *)
  mutable index : index option; (* [None] until the first lookup *)
}

let of_kernels () = { kernels = []; index = None }

let rec insert h = function
  | [] -> [ h ]
  | x :: rest as l ->
      if h.rank < x.rank then h :: l
      else if h.rank = x.rank then l
      else x :: insert h rest

let add idx h id =
  let hs = Option.value (Hashtbl.find_opt idx id) ~default:[] in
  Hashtbl.replace idx id (insert h hs)

let remove idx h id =
  match Hashtbl.find_opt idx id with
  | None -> ()
  | Some hs -> (
      match List.filter (fun x -> x.rank <> h.rank) hs with
      | [] -> Hashtbl.remove idx id
      | rest -> Hashtbl.replace idx id rest)

(* Index what the kernel holds now, then follow its changes. *)
let track idx h =
  List.iter
    (fun lh -> add idx h (Logical_host.id lh))
    (Kernel.logical_hosts h.kernel);
  Kernel.set_residency_hook h.kernel (fun id resident ->
      if resident then add idx h id else remove idx h id)

let register t k =
  (match t.index with
  | Some idx -> track idx { rank = List.length t.kernels; kernel = k }
  | None -> ());
  t.kernels <- k :: t.kernels

(* Built on first use, so clusters that are set up but never queried
   pay nothing per kernel. *)
let build t =
  let idx = Hashtbl.create (2 * List.length t.kernels) in
  List.iteri
    (fun rank k -> track idx { rank; kernel = k })
    (List.rev t.kernels);
  t.index <- Some idx;
  idx

let find t lh_id =
  let idx = match t.index with Some idx -> idx | None -> build t in
  match Hashtbl.find idx lh_id with
  | { kernel; _ } :: _ -> kernel
  | [] -> raise Not_found

let locate t lh_id =
  match find t lh_id with k -> Some k | exception Not_found -> None

let current t lh_id =
  match find t lh_id with
  | k -> k
  | exception Not_found ->
      failwith
        (Printf.sprintf "Directory.current: lh-%d not resident anywhere" lh_id)
