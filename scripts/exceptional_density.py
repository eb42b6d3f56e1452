#!/usr/bin/env python3
"""How often does each criterion decide, across a range of dimensions?

For every g up to a bound this counts how many g are settled by Pink's
numeric criterion alone, how many need a bad semistable place, and which
(g, s) pairs fall into the exceptional families of each endomorphism type.

Run:  python scripts/exceptional_density.py [g_max]
"""

import argparse

from mtkit import EndoType, enumerate_exceptional, pink_gate


def _g_max(text: str) -> int:
    try:
        g_max = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"g_max must be an integer, got {text!r}") from None
    if g_max < 1:
        raise argparse.ArgumentTypeError(f"g_max must be at least 1, got {g_max}")
    return g_max


def main() -> None:
    parser = argparse.ArgumentParser(description="Criterion density over g <= g_max.")
    parser.add_argument("g_max", nargs="?", type=_g_max, default=5000,
                        help="largest dimension g (default 5000)")
    g_max = parser.parse_args().g_max

    inconclusive = [g for g in range(1, g_max + 1) if not pink_gate(g).proves]
    print(f"g <= {g_max}")
    print(f"  Pink-inconclusive dimensions: {len(inconclusive)} "
          f"({100 * len(inconclusive) / g_max:.3f}%)")
    print(f"  first few: {inconclusive[:12]}")

    for endo in (EndoType.TRIVIAL_Z, EndoType.QUATERNION_TYPE_II, EndoType.QUATERNION_TYPE_III):
        instances = enumerate_exceptional(g_max, endo)
        gs = sorted({i.g for i in instances})
        print(f"\n  endo {endo.value}: {len(instances)} exceptional (g, s) pairs "
              f"on {len(gs)} distinct g")
        for inst in instances[:10]:
            tag = "r" if inst.family == 1 else "t"
            print(f"    (g, s) = ({inst.g}, {inst.s})  family {inst.family}, {tag} = {inst.parameter}")
        if len(instances) > 10:
            print(f"    ... {len(instances) - 10} more")


if __name__ == "__main__":
    main()
