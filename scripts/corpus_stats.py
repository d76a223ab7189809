#!/usr/bin/env python3
"""Count corpus sizes for given bound triples.

Usage: corpus_stats.py V,E,L [V,E,L ...]

Useful for sizing exhaustive runs before launching them: corpora grow very
fast once several parallel loops meet relation length three (one vertex
with three loops at length 3 already admits over 3.5 million admissible
relation sets).
"""

import argparse
import time

from argtypes import corpus_bounds, exit_with
from quivalg.enumeration import enumerate_monomial_algebras


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bounds", nargs="+", type=corpus_bounds, help="corpus bounds V,E,L")
    for bounds in parser.parse_args(argv).bounds:
        t0 = time.perf_counter()
        count = sum(1 for _ in enumerate_monomial_algebras(bounds))
        print(f"({bounds.max_vertices},{bounds.max_arrows},{bounds.max_relation_length}): "
              f"{count} algebras in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    exit_with(main)
