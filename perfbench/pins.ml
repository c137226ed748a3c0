(* estimate_mix oracle: (accepts, mean_bits, max_bits) of a 400-trial
   Engine.run for every catalog entry, unfaulted and under drop=0.1. The
   engine is bit-identical across worker counts and trial order is keyed by
   seed alone, so a new workload seed (which only reorders estimates and
   moves the faults) leaves every pin valid. *)

let key ~protocol ~strategy ~faulted =
  Printf.sprintf "%s/%s/%s" protocol strategy (if faulted then "drop=0.1" else "none")

let estimates : (string * (int * float * int)) list =
  let sym_dmam = 0x1.4d51eb851eb85p+6 and dsym = 0x1.6fa3d70a3d70ap+6 and sym_dam = 0x1.5ap+7 in
  [ ("sym_dmam/honest/none", (400, sym_dmam, 88));
    ("sym_dmam/honest/drop=0.1", (0, sym_dmam, 88));
    ("sym_dmam/random-perm/none", (0, sym_dmam, 88));
    ("sym_dmam/random-perm/drop=0.1", (0, sym_dmam, 88));
    ("dsym/honest/none", (400, dsym, 95));
    ("dsym/honest/drop=0.1", (0, dsym, 95));
    ("dsym/consistent/none", (0, dsym, 95));
    ("dsym/consistent/drop=0.1", (0, dsym, 95));
    ("dsym/wrong-permutation/none", (0, dsym, 95));
    ("dsym/wrong-permutation/drop=0.1", (0, dsym, 95));
    ("sym_dam/honest/none", (400, sym_dam, 173));
    ("sym_dam/honest/drop=0.1", (2, sym_dam, 173));
    ("sym_dam/random-perm/none", (0, sym_dam, 173));
    ("sym_dam/random-perm/drop=0.1", (0, sym_dam, 173));
    ("gni/biased-hash/none", (0, 0x1.25p+8, 293));
    ("gni/biased-hash/drop=0.1", (0, 0x1.25p+8, 293));
    ("pls_tree/off-by-one-dist/none", (0, 0x1.8p+3, 12));
    ("pls_tree/off-by-one-dist/drop=0.1", (0, 0x1.8p+3, 12))
  ]
