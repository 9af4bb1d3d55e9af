(** Coordinate-list (COO) exchange form.

    The unsorted entry list every other representation is built from:
    generators and Matrix Market readers produce it, {!Storage.pack}
    consumes it. The layout is structure-of-arrays: one flat coordinate
    buffer per dimension, as in the pos/crd/vals buffers of the sparse
    tensor dialect. *)

type t = {
  dims : int array;          (** tensor shape, one extent per dimension *)
  crd : int array array;     (** [crd.(d).(k)] is the dimension-[d]
                                 coordinate of non-zero [k]; every
                                 [crd.(d)] has length [nnz] *)
  vals : float array;        (** value of each stored entry *)
}

(** [rank t] is the number of dimensions. *)
val rank : t -> int

(** [nnz t] is the number of stored entries (duplicates included). *)
val nnz : t -> int

(** [create ~dims ~crd ~vals] validates shapes and bounds.
    @raise Invalid_argument on rank, length or bound violations. *)
val create : dims:int array -> crd:int array array -> vals:float array -> t

(** [of_triples ~rows ~cols triples] builds a matrix from [(i, j, v)]
    triples. *)
val of_triples : rows:int -> cols:int -> (int * int * float) list -> t

(** [radix_order ~n keys] is the permutation of [0 .. n-1] that sorts
    entries by the key columns [keys.(0)], [keys.(1)], ... (most
    significant first), ties broken by entry index. Every column holds
    [n] non-negative ints. It is a stable LSD radix sort, one counting
    pass per digit, last column first; the digit width grows with [n]
    and each column takes only as many digits as its largest value
    needs. *)
val radix_order : n:int -> int array array -> int array

(** [sorted_dedup ?perm t] is a copy of [t] sorted lexicographically by the
    (optionally permuted) dimension order with duplicate coordinates summed
    — the canonical form sparsification's [sorted = true] expects. Sort
    position [l] is dimension [perm.(l)]; entries with equal keys stay in
    index order, which is also the order their values are summed in. *)
val sorted_dedup : ?perm:int array -> t -> t

(** [to_dense t] materialises a row-major dense array of the full shape. *)
val to_dense : t -> float array

(** Structural statistics used by workload selection (paper §4.2). *)
type stats = {
  s_rows : int;
  s_cols : int;
  s_nnz : int;
  s_row_min : int;            (** fewest entries in any row *)
  s_row_max : int;            (** most entries in any row *)
  s_row_mean : float;
  s_footprint_bytes : int;    (** CSR bytes at the given index width *)
}

(** [matrix_stats ?index_bytes t] computes {!stats} for a rank-2 tensor.
    @raise Invalid_argument if [t] is not a matrix. *)
val matrix_stats : ?index_bytes:int -> t -> stats
