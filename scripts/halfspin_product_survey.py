#!/usr/bin/env python3
"""Survey products of commuting root elements on D_r half-spin representations.

Single root elements on (D_r, Spin+-) have drop 2^(r-3); the classification
literature also assigns these representations quadratic elements of drop
2^(r-2).  This script builds candidate products of pairwise-orthogonal root
elements exactly, over Q and over small prime fields, and prints their
unipotence degree and drop so one can see which products are quadratic where.
Each product is named by the epsilon mnemonics of its roots, as the CLI's
`oracle drop --roots` names them, and build_root_element takes them as given.

Run:  python scripts/halfspin_product_survey.py [max_rank]

In D, orthogonal roots are strongly orthogonal (their sum is no root), so
each product is a diagonal +-1 conjugate of the group element and has its
degree and drop; tests/test_oracle.py checks this against certified root
vectors on every classical minuscule module to rank 5.
"""

import sys

from mtkit import CartanType, build_root_element, minuscule_rep, unipotence

PRIMES = (None, 2, 3, 5)


def survey(rank: int) -> None:
    t = CartanType("D", rank)
    rep = minuscule_rep(t, rank)
    combos = [
        ["e1-e2"],
        ["e1-e2", "e3-e4"],
        ["e1-e2", "e1+e2"],
    ]
    if rank >= 6:
        combos.append(["e1-e2", "e3-e4", "e5-e6"])
        combos.append(["e1-e2", "e1+e2", "e3-e4", "e3+e4"])
    print(f"\nD_{rank} Spin+ (dim {rep.dimension}; single-root drop {2 ** (rank - 3)}, "
          f"target larger drop {2 ** (rank - 2)})")
    header = f"  {'roots':<34} " + " ".join(f"{('Q' if p is None else 'F' + str(p)):>10}" for p in PRIMES)
    print(header)
    for specs in combos:
        cells = []
        for p in PRIMES:
            u = unipotence(build_root_element(rep, specs, prime=p))
            cells.append(f"k={u.degree},d={u.drop}")
        print(f"  {','.join(specs):<34} " + " ".join(f"{c:>10}" for c in cells))


def main() -> None:
    max_rank = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    for rank in range(4, max_rank + 1):
        survey(rank)
    print(
        "\nk is the unipotence degree ((M-1)^k = 0), d the drop (rank of M-1).\n"
        "Note the pattern: disjoint-support products such as (e1-e2)(e3-e4) are\n"
        "quadratic only in characteristic 2, while shared-line products such as\n"
        "(e1-e2)(e1+e2) come out quadratic over Q with drop 2^(r-2), the larger\n"
        "of the two classified drop values."
    )


if __name__ == "__main__":
    main()
