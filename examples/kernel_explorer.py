#!/usr/bin/env python
"""Inspect the CAS-generated kernels (the paper's Fig. 1, for any config).

Prints the fully-unrolled volume kernel source for a chosen phase-space
dimensionality / polynomial order / basis family, its exact multiplication
count, and the comparison against the alias-free nodal (quadrature) cost —
the "~70 vs ~250 multiplications" argument of Sec. II/III.

Run:  python examples/kernel_explorer.py [--cdim 1] [--vdim 2] [-p 1]
      [--family tensor] [--full-source]
"""

import argparse

from repro.cas.codegen import count_multiplications, emit_kernel_source
from repro.kernels import compare_costs, four_sided_kernels, get_vlasov_kernels


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--cdim", type=int, default=1)
    parser.add_argument("--vdim", type=int, default=2)
    parser.add_argument("-p", "--poly-order", type=int, default=1)
    parser.add_argument(
        "--family", default="tensor",
        choices=["tensor", "serendipity", "maximal-order"],
    )
    parser.add_argument("--full-source", action="store_true")
    args = parser.parse_args(argv)

    k = get_vlasov_kernels(args.cdim, args.vdim, args.poly_order, args.family)
    print(f"{args.cdim}X{args.vdim}V p={args.poly_order} {args.family}: "
          f"Np = {k.num_basis} (config-space Npc = {k.cfg_basis.num_basis})")

    print("\n--- generated volume kernel: streaming, direction x0 " + "-" * 20)
    src = emit_kernel_source("vlasov_vol_stream_x0", k.vol_stream[0])
    print(src if args.full_source else "\n".join(src.splitlines()[:24]))
    if not args.full_source:
        print(f"... [{len(src.splitlines())} lines total; --full-source to see all]")

    print("\n--- exact multiplication counts (per cell, forward-Euler update) ---")
    cost = compare_costs(k)
    for key, val in cost.modal.items():
        print(f"  modal  {key:24s} {val:>10,}")
    for key, val in cost.nodal.items():
        print(f"  nodal  {key:24s} {val:>10,}")
    print(f"\n  modal/nodal speedup (total): {cost.speedup:.1f}x")
    vol_ratio = cost.nodal["volume_total"] / max(cost.modal["volume_total"], 1)
    print(f"  volume kernels alone       : {vol_ratio:.1f}x")

    print("\n--- per-kernel sparsity ---")
    surf_stream, surf_accel = four_sided_kernels(k)
    for name, ts in [
        ("volume streaming x0", k.vol_stream[0]),
        ("volume acceleration v0", k.vol_accel[0]),
        ("surface streaming x0 (L,L)", surf_stream[0][("L", "L")]),
        ("surface acceleration v0 (L,L)", surf_accel[0][("L", "L")]),
        ("moment M0", k.moments["M0"]),
        ("moment M2", k.moments["M2"]),
    ]:
        dense = ts.nout * ts.nin * max(len(ts.terms), 1)
        print(f"  {name:30s} nnz={ts.num_entries:6d}  "
              f"mults={count_multiplications(ts):6d}  "
              f"fill={(ts.num_entries / dense if dense else 0):6.1%}")


if __name__ == "__main__":
    main()
