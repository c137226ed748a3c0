(* graph6: n encoded in 1, 4 or 8 bytes (printable ASCII, value + 63),
   followed by the upper triangle of the adjacency matrix in column-major
   order (x_{0,1}, x_{0,2}, x_{1,2}, x_{0,3}, ...), packed 6 bits per byte,
   padded with zeros.

   sparse6: ':' then n, then a stream of (b, x) groups — 1 + k bits each,
   k the least number of bits representing n - 1 — encoding edges in
   column-major order with a moving current vertex. Linear in the edge
   count, which is what makes million-node bounded-degree graphs
   round-trippable (graph6's dense payload is ~n²/12 bytes regardless of
   the edge count). Both follow nauty's formats.txt. *)

let max_size = (1 lsl 36) - 1

let encode_size buf n =
  if n < 0 then invalid_arg "Graph_io: negative size"
  else if n <= 62 then Buffer.add_char buf (Char.chr (n + 63))
  else if n <= 258047 then begin
    Buffer.add_char buf '~';
    Buffer.add_char buf (Char.chr (((n lsr 12) land 63) + 63));
    Buffer.add_char buf (Char.chr (((n lsr 6) land 63) + 63));
    Buffer.add_char buf (Char.chr ((n land 63) + 63))
  end
  else if n <= max_size then begin
    (* The 8-byte long form: "~~" then 36 bits, most significant first. *)
    Buffer.add_char buf '~';
    Buffer.add_char buf '~';
    for i = 5 downto 0 do
      Buffer.add_char buf (Char.chr (((n lsr (6 * i)) land 63) + 63))
    done
  end
  else invalid_arg "Graph_io: graph too large for graph6/sparse6 (n > 2^36 - 1)"

let strip_header header s =
  let s = String.trim s in
  if String.length s >= String.length header && String.sub s 0 (String.length header) = header then
    String.sub s (String.length header) (String.length s - String.length header)
  else s

let sixbit who s i =
  if i >= String.length s then invalid_arg (who ^ ": truncated");
  let c = Char.code s.[i] in
  if c < 63 || c > 126 then invalid_arg (who ^ ": invalid byte");
  c - 63

(* Decode N(n) at offset [pos]; returns (n, offset past the size field).
   Non-minimal encodings — a 4-byte size that fits 1 byte, an 8-byte size
   that fits 4 — are rejected: every legal value has exactly one header,
   so an overlong one is a malformed (or adversarial) stream, not an
   alternate spelling. *)
let decode_size who s pos =
  if pos >= String.length s then invalid_arg (who ^ ": truncated");
  if s.[pos] <> '~' then (sixbit who s pos, pos + 1)
  else if pos + 1 < String.length s && s.[pos + 1] = '~' then begin
    let n = ref 0 in
    for i = 0 to 5 do
      n := (!n lsl 6) lor sixbit who s (pos + 2 + i)
    done;
    if !n <= 258047 then invalid_arg (who ^ ": overlong size header");
    (!n, pos + 8)
  end
  else begin
    let n = (sixbit who s (pos + 1) lsl 12) lor (sixbit who s (pos + 2) lsl 6) lor sixbit who s (pos + 3) in
    if n <= 62 then invalid_arg (who ^ ": overlong size header");
    (n, pos + 4)
  end

let size_header n =
  let buf = Buffer.create 8 in
  encode_size buf n;
  Buffer.contents buf

let decode_size_header s = decode_size "Graph_io.decode_size_header" s 0

let to_graph6 g =
  let n = Graph.n g in
  let buf = Buffer.create (4 + (n * n / 12)) in
  encode_size buf n;
  let bits = ref 0 and count = ref 0 in
  let flush_partial () =
    if !count > 0 then begin
      Buffer.add_char buf (Char.chr ((!bits lsl (6 - !count)) + 63));
      bits := 0;
      count := 0
    end
  in
  let push b =
    bits := (!bits lsl 1) lor (if b then 1 else 0);
    incr count;
    if !count = 6 then begin
      Buffer.add_char buf (Char.chr (!bits + 63));
      bits := 0;
      count := 0
    end
  in
  for v = 1 to n - 1 do
    for u = 0 to v - 1 do
      push (Graph.has_edge g u v)
    done
  done;
  flush_partial ();
  Buffer.contents buf

(* Payload bytes of an n-node graph6 string: ceil(n(n-1)/2 / 6). Above 2^31
   nodes n(n-1) overflows, but such a payload (> 2^58 bytes) is longer than
   any OCaml string, so no input can match it. *)
let graph6_payload_bytes n = if n > 1 lsl 31 then max_int else ((n * (n - 1) / 2) + 5) / 6

let of_graph6 s =
  let who = "Graph_io.of_graph6" in
  let s = strip_header ">>graph6<<" s in
  if s = "" then invalid_arg (who ^ ": empty");
  let n, start = decode_size who s 0 in
  (* Check the length before allocating: the header alone can claim 2^36 nodes. *)
  if String.length s - start <> graph6_payload_bytes n then invalid_arg (who ^ ": wrong length");
  let g = Graph.make ~repr:(Graph.auto_repr n) n in
  let byte i = sixbit who s i in
  let idx = ref 0 in
  for v = 1 to n - 1 do
    for u = 0 to v - 1 do
      let word = byte (start + (!idx / 6)) in
      let bit = (word lsr (5 - (!idx mod 6))) land 1 in
      if bit = 1 then Graph.add_edge g u v;
      incr idx
    done
  done;
  g

(* Least k >= 1 with 2^k >= n: the group width of sparse6. *)
let sparse6_k n =
  let k = ref 1 in
  while 1 lsl !k < n do
    incr k
  done;
  !k

let to_sparse6 g =
  let n = Graph.n g in
  let k = sparse6_k n in
  let buf = Buffer.create 32 in
  Buffer.add_char buf ':';
  encode_size buf n;
  let acc = ref 0 and nacc = ref 0 in
  let push_bit b =
    acc := (!acc lsl 1) lor b;
    incr nacc;
    if !nacc = 6 then begin
      Buffer.add_char buf (Char.chr (!acc + 63));
      acc := 0;
      nacc := 0
    end
  in
  let push_bits x w =
    for i = w - 1 downto 0 do
      push_bit ((x lsr i) land 1)
    done
  in
  (* Edges in column-major order (by higher endpoint, then lower), with a
     moving current vertex [v]: (0, u) repeats the column, (1, u) advances
     it by one, and a jump writes an explicit (1, w) vertex-set group. *)
  let v = ref 0 in
  for w = 0 to n - 1 do
    Bitset.iter
      (fun u ->
        if u < w then begin
          if w = !v then begin push_bit 0; push_bits u k end
          else if w = !v + 1 then begin
            incr v;
            push_bit 1;
            push_bits u k
          end
          else begin
            v := w;
            push_bit 1;
            push_bits w k;
            push_bit 0;
            push_bits u k
          end
        end)
      (Graph.neighbors g w)
  done;
  (* Pad with 1-bits; when n = 2^k the all-ones padding is a valid group
     that would advance [v], so a lone 0-bit shields it (nauty's rule). *)
  let pad = (6 - !nacc) mod 6 in
  if k < 6 && n = 1 lsl k && pad >= k && !v < n - 1 then push_bit 0;
  while !nacc <> 0 do
    push_bit 1
  done;
  Buffer.contents buf

let sparse6_max_nodes = 1 lsl 24

let of_sparse6 s =
  let who = "Graph_io.of_sparse6" in
  let s = strip_header ">>sparse6<<" s in
  if s = "" then invalid_arg (who ^ ": empty");
  if s.[0] <> ':' then invalid_arg (who ^ ": missing ':' prefix");
  let n, start = decode_size who s 1 in
  (* A short payload can describe any n (isolated nodes cost nothing), so
     the allocation below is bounded by a cap, not by the input length. *)
  if n > sparse6_max_nodes then invalid_arg (who ^ ": n above sparse6_max_nodes");
  let k = sparse6_k n in
  let g = Graph.make ~repr:(Graph.auto_repr n) n in
  let len = String.length s in
  (* Validate the payload bytes up front so trailing garbage is rejected
     even when it falls entirely inside the padding tail. *)
  for i = start to len - 1 do
    ignore (sixbit who s i)
  done;
  let total_bits = (len - start) * 6 in
  let bit i =
    let c = Char.code s.[start + (i / 6)] - 63 in
    (c lsr (5 - (i mod 6))) land 1
  in
  let pos = ref 0 and v = ref 0 in
  (try
     while total_bits - !pos >= k + 1 do
       let b = bit !pos in
       incr pos;
       let x = ref 0 in
       for _ = 1 to k do
         x := (!x lsl 1) lor bit !pos;
         incr pos
       done;
       if b = 1 then incr v;
       if !x >= n || !v >= n then raise Exit
       else if !x > !v then v := !x
       else if !x = !v then invalid_arg (who ^ ": self-loop")
       else Graph.add_edge g !x !v
     done
   with Exit -> ());
  g

let to_dot ?(name = "g") g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  for v = 0 to Graph.n g - 1 do
    Buffer.add_string buf (Printf.sprintf "  %d;\n" v)
  done;
  List.iter (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v)) (Graph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
