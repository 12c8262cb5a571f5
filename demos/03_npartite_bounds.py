#!/usr/bin/env python3
"""Oriented complete balanced n-partite graphs and their triangle bound.

Each instance is built on an n x m board whose rows are the independent
parts.  The exact triangle-free chromatic number is compared against the
rational lower bound nm/(n+2m-2); the dichromatic number can only be larger.
The bound is not tight: 6x3 needs 3 colors against a ceiling of 2, and 9x5,
10x4 and 12x4 need 4 against 3.  Every certificate is re-checked with
verify_coloring.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dicolor import (
    ACYCLIC,
    TRIANGLE_FREE,
    build_npartite,
    dichromatic_number,
    npartite_lower_bound,
    triangle_free_chromatic,
    verify_coloring,
)


def main():
    print(f"{'n x m':>9}  {'bound':>7}  {'ceil':>4}  {'tri-free':>8}  {'dichrom':>7}  {'tight':>5}  certified")
    for n, m in ((3, 2), (4, 2), (6, 3), (8, 4), (9, 5), (10, 4), (12, 4)):
        bound = npartite_lower_bound(n, m)
        g = build_npartite(n, m)
        tf = triangle_free_chromatic(g)
        dc = dichromatic_number(g)
        certified = all(
            r.certificate is not None and verify_coloring(g, r.certificate, constraint)
            for r, constraint in ((tf, TRIANGLE_FREE), (dc, ACYCLIC))
        )
        tight = "yes" if tf.value == math.ceil(bound) else "no"
        print(
            f"{n:>3} x {m:<3}  {str(bound):>7}  {math.ceil(bound):>4}  "
            f"{tf.value:>8}  {dc.value:>7}  {tight:>5}  {'yes' if certified else 'no'}"
        )
    print("\nthe triangle-free value always sits between ceil(bound) and the dichromatic number")


if __name__ == "__main__":
    main()
