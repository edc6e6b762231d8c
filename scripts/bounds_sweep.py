#!/usr/bin/env python3
"""Sweep frame-bound estimates over truncation order and orbit length.

Prints one CSV row per (N, K) pair for a chosen symbol, showing how the
finite-section estimates drift with resolution.  The interesting regimes:

    --symbol shift-half   lower bound collapses like 4^-N
    --symbol shift        tight frame, A = B = 1 once K >= N
    --symbol squared      lower bound numerically zero (span deficit)
    --symbol rotation     upper bound grows linearly in K (divergence)
"""

import argparse
import sys

import numpy as np

from hardyframes.frames import section_bounds
from hardyframes.orbits import orbit_for
from hardyframes.symbols import SymbolSpec

SYMBOLS = {
    "shift": SymbolSpec.monomial(1),
    "shift-half": SymbolSpec.scaled_shift(0.5),
    "squared": SymbolSpec.monomial(2),
    "rotation": SymbolSpec.constant(np.exp(1j * np.pi / 4)),
    "blaschke-half": SymbolSpec.blaschke([0.5]),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--symbol", choices=sorted(SYMBOLS), default="shift-half")
    parser.add_argument("--orders", type=int, nargs="+", default=[8, 16, 32, 64])
    parser.add_argument("--orbit-lens", type=int, nargs="+", default=[8, 16, 32, 64])
    args = parser.parse_args()

    for name, values in (("--orders", args.orders), ("--orbit-lens", args.orbit_lens)):
        if values != sorted(values) or values[0] < 0:
            parser.error(f"{name} must be ascending and >= 0")
    # the orbit at each (N, K) is a leading block of the one at the largest
    orb = orbit_for(SYMBOLS[args.symbol], (1.0,), args.orders[-1], args.orbit_lens[-1])
    rows = section_bounds(orb, [(n, k) for n in args.orders for k in args.orbit_lens])
    print("N,K,A_est,B_est,tight,numerically_zero_lower")
    for b in rows:
        print(
            f"{b.N},{b.K},{b.A_est:.17g},{b.B_est:.17g},"
            f"{str(b.tight).lower()},{str(b.numerically_zero_lower).lower()}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
