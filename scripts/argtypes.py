"""The argparse type for corpus bounds, shared by the scripts in this directory."""

import argparse

from quivalg.enumeration import CorpusBounds


def corpus_bounds(text):
    """An argparse type for one V,E,L bound triple."""
    fields = text.split(",")
    if len(fields) != 3:
        raise argparse.ArgumentTypeError(f"expected V,E,L, got {text!r}")
    try:
        return CorpusBounds(*(int(x) for x in fields))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}")
