(* Segmented buffer storage of coordinate hierarchy trees (paper §2.3).

   [pack] serialises a COO tensor into per-level buffers according to an
   encoding: dense levels store nothing, compressed levels a pos/crd pair,
   singleton levels a crd buffer. Node identity at level l is the index of
   the node among all level-l nodes, which makes the child relation purely
   arithmetic: dense children are [node * size + v], compressed children are
   the positions [pos[node], pos[node+1]), singleton children are [node]. *)

type level_storage =
  | Ldense of { lsize : int }
  | Lcompressed of { pos : int array; crd : int array; unique : bool }
  | Lsingleton of { crd : int array }

type t = {
  enc : Encoding.t;
  dims : int array;
  lvls : level_storage array;
  vals : float array;
}

let nnz_of t = Array.length t.vals

(* [pack_plain enc coo] sorts, deduplicates and serialises [coo].

   The construction sweeps levels top-down over the sorted elements,
   keeping one int per element: [node.(k)], the index of the level-l node
   element k lies under. Sorted order makes node ids non-decreasing, so
   each level is one pass: dense children are [node * size + v],
   compressed-unique children are numbered as new (parent, v) pairs
   appear, non-unique and singleton children are the element itself.
   [pos] is the running child count per parent. [sorted] is private to
   this function, so its coordinate buffers become crd buffers as they
   are. *)
let pack_plain (enc : Encoding.t) (coo : Coo.t) : t =
  let sorted = Coo.sorted_dedup ~perm:enc.dim_to_lvl coo in
  let n = Coo.nnz sorted in
  let rank = Encoding.rank enc in
  let node = Array.make n 0 in
  let nodes = ref 1 in
  let lvls = Array.make rank (Ldense { lsize = 0 }) in
  (* [pos] from per-parent child counts: pos.(p + 1) counts the children
     of parent p, then the prefix sum. *)
  let prefix pos =
    for p = 1 to Array.length pos - 1 do pos.(p) <- pos.(p) + pos.(p - 1) done
  in
  for l = 0 to rank - 1 do
    let key = sorted.crd.(enc.dim_to_lvl.(l)) in
    let np = !nodes in
    match enc.levels.(l) with
    | Encoding.Dense ->
      let lsize = coo.dims.(enc.dim_to_lvl.(l)) in
      for k = 0 to n - 1 do
        node.(k) <- (node.(k) * lsize) + key.(k)
      done;
      lvls.(l) <- Ldense { lsize };
      nodes := np * lsize
    | Encoding.Compressed { unique = true } ->
      (* At most one node per element: build into an n-sized crd and
         trim. *)
      let pos = Array.make (np + 1) 0 in
      let crd = Array.make n 0 in
      let count = ref 0 and last = ref (-1) in
      for k = 0 to n - 1 do
        let p = node.(k) and v = key.(k) in
        if p <> !last || v <> crd.(!count - 1) then begin
          crd.(!count) <- v;
          pos.(p + 1) <- pos.(p + 1) + 1;
          incr count;
          last := p
        end;
        node.(k) <- !count - 1
      done;
      prefix pos;
      lvls.(l) <-
        Lcompressed
          { pos; unique = true;
            crd = (if !count = n then crd else Array.sub crd 0 !count) };
      nodes := !count
    | Encoding.Compressed { unique = false } ->
      (* One crd entry and one child per element: duplicate parent
         coordinates are retained, as in COO's top level. *)
      let pos = Array.make (np + 1) 0 in
      for k = 0 to n - 1 do
        pos.(node.(k) + 1) <- pos.(node.(k) + 1) + 1;
        node.(k) <- k
      done;
      prefix pos;
      lvls.(l) <- Lcompressed { pos; crd = key; unique = false };
      nodes := n
    | Encoding.Singleton ->
      for k = 0 to n - 1 do node.(k) <- k done;
      lvls.(l) <- Lsingleton { crd = key };
      nodes := n
  done;
  (* Leaf values: one per leaf node (dedup leaves at most one element
     per leaf); dense leaf levels imply explicit zeros for absent
     coordinates. *)
  let vals = Array.make !nodes 0. in
  for k = 0 to n - 1 do vals.(node.(k)) <- sorted.vals.(k) done;
  { enc; dims = Array.copy coo.dims; lvls; vals }

(* [pack_blocked enc ~bh ~bw coo] serialises a rank-2 tensor into block
   storage: the pos/crd pair indexes the bh x bw *block* coordinate
   space (dense block rows over compressed block columns), and each
   stored block expands to bh*bw row-major values with explicit zeros
   for the absent coordinates. Edge blocks of non-divisible dimensions
   are zero-padded here and clamped by consumers ({!iter}, the emitter's
   blocked micro-loops). Block ids follow the radix order of the
   elements by (i/bh, j/bw). *)
let pack_blocked (enc : Encoding.t) ~bh ~bw (coo : Coo.t) : t =
  let sorted = Coo.sorted_dedup coo in
  let n = Coo.nnz sorted in
  let ci = sorted.crd.(0) and cj = sorted.crd.(1) in
  let bi = Array.map (fun i -> i / bh) ci
  and bj = Array.map (fun j -> j / bw) cj in
  let order = Coo.radix_order ~n [| bi; bj |] in
  let nbr = (coo.dims.(0) + bh - 1) / bh in
  let pos = Array.make (nbr + 1) 0 in
  let crd = Array.make n 0 in
  (* Pass 1 in block order numbers the blocks; pass 2 scatters values
     into their blocks. *)
  let blk = Array.make n 0 in
  let nb = ref 0 in
  for q = 0 to n - 1 do
    let k = order.(q) in
    let ib = bi.(k) and jb = bj.(k) in
    if !nb = 0 || ib <> bi.(order.(q - 1)) || jb <> crd.(!nb - 1) then begin
      crd.(!nb) <- jb;
      pos.(ib + 1) <- pos.(ib + 1) + 1;
      incr nb
    end;
    blk.(k) <- !nb - 1
  done;
  for r = 1 to nbr do pos.(r) <- pos.(r) + pos.(r - 1) done;
  let nb = !nb and be = bh * bw in
  let vals = Array.make (nb * be) 0. in
  for k = 0 to n - 1 do
    vals.((blk.(k) * be) + ((ci.(k) mod bh) * bw) + (cj.(k) mod bw)) <-
      sorted.vals.(k)
  done;
  { enc; dims = Array.copy coo.dims;
    lvls =
      [| Ldense { lsize = nbr };
         Lcompressed { pos; crd = Array.sub crd 0 nb; unique = true } |];
    vals }

let pack (enc : Encoding.t) (coo : Coo.t) : t =
  if Encoding.rank enc <> Coo.rank coo then
    invalid_arg "Storage.pack: encoding rank does not match tensor rank";
  match enc.Encoding.block with
  | None -> pack_plain enc coo
  | Some (bh, bw) -> pack_blocked enc ~bh ~bw coo

let iter_plain f (t : t) =
  let rank = Encoding.rank t.enc in
  let coord = Array.make rank 0 in
  let rec go l node =
    if l = rank then f (Array.copy coord) t.vals.(node)
    else
      let dim = t.enc.dim_to_lvl.(l) in
      match t.lvls.(l) with
      | Ldense { lsize } ->
        for v = 0 to lsize - 1 do
          coord.(dim) <- v;
          go (l + 1) ((node * lsize) + v)
        done
      | Lcompressed { pos; crd; _ } ->
        for p = pos.(node) to pos.(node + 1) - 1 do
          coord.(dim) <- crd.(p);
          go (l + 1) p
        done
      | Lsingleton { crd } ->
        coord.(dim) <- crd.(node);
        go (l + 1) node
  in
  go 0 0

(** [iter f t] visits every stored leaf (including explicit zeros of dense
    leaf levels) with its dimension-order coordinates. Blocked storage
    visits every in-bounds cell of every stored block. *)
let iter f (t : t) =
  match t.enc.Encoding.block with
  | Some (bh, bw) ->
    (match t.lvls with
     | [| Ldense { lsize }; Lcompressed { pos; crd; _ } |] ->
       let be = bh * bw in
       for ib = 0 to lsize - 1 do
         for p = pos.(ib) to pos.(ib + 1) - 1 do
           let jb = crd.(p) in
           for r = 0 to bh - 1 do
             let i = (ib * bh) + r in
             if i < t.dims.(0) then
               for c = 0 to bw - 1 do
                 let j = (jb * bw) + c in
                 if j < t.dims.(1) then
                   f [| i; j |] t.vals.((p * be) + (r * bw) + c)
               done
           done
         done
       done
     | _ -> invalid_arg "Storage.iter: malformed blocked storage")
  | None -> iter_plain f t

(** [to_coo t] recovers the COO form, dropping explicit zeros. *)
let to_coo (t : t) : Coo.t =
  (* [iter] visits every stored value once, except the edge padding of
     blocked storage, which [pack] leaves zero: counting the non-zeros
     sizes the buffers. *)
  let n = ref 0 in
  for k = 0 to Array.length t.vals - 1 do
    if t.vals.(k) <> 0. then incr n
  done;
  let crd = Array.map (fun _ -> Array.make !n 0) t.dims in
  let vals = Array.make !n 0. in
  let k = ref 0 in
  iter
    (fun c v ->
      if v <> 0. then begin
        Array.iteri (fun d x -> crd.(d).(!k) <- x) c;
        vals.(!k) <- v;
        incr k
      end)
    t;
  { Coo.dims = Array.copy t.dims; crd; vals }

(** [convert enc t] re-packs [t] under a different encoding. *)
let convert enc t = pack enc (to_coo t)

let pos_buf t l =
  match t.lvls.(l) with
  | Lcompressed { pos; _ } -> Some pos
  | Ldense _ | Lsingleton _ -> None

let crd_buf t l =
  match t.lvls.(l) with
  | Lcompressed { crd; _ } | Lsingleton { crd } -> Some crd
  | Ldense _ -> None

(** Total bytes of the serialised form (pos + crd at the encoding's index
    width, values as f64), mirroring the paper's footprint accounting. *)
let footprint_bytes t =
  let ib = match t.enc.width with Encoding.W32 -> 4 | Encoding.W64 -> 8 in
  let acc = ref (Array.length t.vals * 8) in
  Array.iter
    (function
      | Ldense _ -> ()
      | Lcompressed { pos; crd; _ } ->
        acc := !acc + (ib * (Array.length pos + Array.length crd))
      | Lsingleton { crd } -> acc := !acc + (ib * Array.length crd))
    t.lvls;
  !acc

(** [describe t] is a one-line summary used by the CLI and examples. *)
let describe t =
  let lvl = function
    | Ldense { lsize } -> Printf.sprintf "dense(%d)" lsize
    | Lcompressed { pos; crd; unique } ->
      Printf.sprintf "compressed%s(pos:%d, crd:%d)"
        (if unique then "" else "-nu")
        (Array.length pos) (Array.length crd)
    | Lsingleton { crd } -> Printf.sprintf "singleton(crd:%d)" (Array.length crd)
  in
  Printf.sprintf "%s %s [%s] vals:%d" t.enc.name
    (String.concat "x" (Array.to_list (Array.map string_of_int t.dims)))
    (String.concat ", " (Array.to_list (Array.map lvl t.lvls)))
    (Array.length t.vals)
