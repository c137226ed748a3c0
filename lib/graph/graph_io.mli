(** Graph interchange: the standard graph6 / sparse6 formats and Graphviz
    export.

    graph6 and sparse6 are the compact ASCII encodings used by nauty, geng
    and the House of Graphs, so instances can be imported from, and
    exported to, the standard corpora (e.g. the known lists of asymmetric
    graphs used to sanity-check the Section 3.4 family). All three size
    headers are implemented — 1 byte (n <= 62), 4 bytes (n <= 258047) and
    the 8-byte long form (n <= 2^36 - 1) — and non-minimal ("overlong")
    headers are rejected on decode. graph6 carries the dense upper
    triangle (~n²/12 bytes); sparse6 is linear in the edge count, the
    right container for the million-node bounded-degree families. *)

val size_header : int -> string
(** The N(n) size field shared by graph6 and sparse6: 1 byte for
    [n <= 62], 4 bytes ([~] prefix) for [n <= 258047], 8 bytes ([~~]
    prefix, 36-bit value) up to [2^36 - 1].
    @raise Invalid_argument outside that range. *)

val decode_size_header : string -> int * int
(** [(n, bytes consumed)] for a string starting with a size field.
    @raise Invalid_argument on a truncated, invalid, or non-minimal
    ("overlong") header. *)

val to_graph6 : Graph.t -> string
(** Encode; no header ([>>graph6<<] prefixes are not emitted). *)

val of_graph6 : string -> Graph.t
(** Decode. Accepts an optional [>>graph6<<] header and surrounding
    whitespace; the result's backend follows {!Graph.auto_repr}.
    @raise Invalid_argument on malformed input: truncated or overlong
    size header, invalid bytes, wrong payload length. The length is
    checked before the graph is allocated. *)

val to_sparse6 : Graph.t -> string
(** Encode in sparse6 (leading [':'], no [>>sparse6<<] header), following
    nauty's canonical writer: edges in column-major order, 1-bit padding
    with the n = 2^k shield bit. O(m log n) output bytes. *)

val sparse6_max_nodes : int
(** [2^24]: the largest [n] {!of_sparse6} accepts. A sparse6 payload can be
    short for any [n], so the header alone would size the allocation. *)

val of_sparse6 : string -> Graph.t
(** Decode. Accepts an optional [>>sparse6<<] header and surrounding
    whitespace; the result's backend follows {!Graph.auto_repr}. Duplicate
    edges collapse; self-loops are rejected (the {!Graph} model has none).
    @raise Invalid_argument on malformed input: missing [':'], truncated
    or overlong size header, [n > sparse6_max_nodes], invalid payload
    bytes, self-loops. *)

val to_dot : ?name:string -> Graph.t -> string
(** Graphviz [graph { ... }] source for visual inspection. *)
