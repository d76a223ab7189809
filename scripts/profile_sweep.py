#!/usr/bin/env python3
"""Sweep a corpus and print the distribution of dominant dimensions,
shapes, and double-centraliser outcomes.

Usage: profile_sweep.py [V,E,L] [--workers N]
"""

import argparse
import time
from collections import Counter

from argtypes import corpus_bounds, exit_with, positive_int
from quivalg.homological import DomDim
from quivalg.verify import DEFAULT_CORPORA, sweep_corpus


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bounds", nargs="?", type=corpus_bounds,
                        help="corpus bounds V,E,L (default: the default corpora)")
    parser.add_argument("--workers", type=positive_int, default=1)
    args = parser.parse_args(argv)
    corpora = DEFAULT_CORPORA if args.bounds is None else (args.bounds,)
    t0 = time.perf_counter()
    facts = sweep_corpus(corpora, workers=args.workers)
    elapsed = time.perf_counter() - t0
    domdims = Counter()
    shapes = Counter()
    dc = Counter()
    for f in facts:
        domdims[str(DomDim(**f["domdim"]))] += 1
        shapes[f["shape"]] += 1
        dc[f["dc_holds"]] += 1
    print(f"{len(facts)} algebras in {elapsed:.1f}s ({args.workers} workers)")
    print("dominant dimension:", dict(sorted(domdims.items())))
    print("quiver shape:", dict(sorted(shapes.items())))
    print("double centraliser:", {str(k): v for k, v in sorted(dc.items())})
    return 0


if __name__ == "__main__":
    exit_with(main)
