"""The argparse types and the entry point shared by the scripts in this directory."""

import argparse
import os
import sys

from quivalg.enumeration import CorpusBounds


def positive_int(text):
    """An argparse type for an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def corpus_bounds(text):
    """An argparse type for one V,E,L bound triple."""
    fields = text.split(",")
    if len(fields) != 3:
        raise argparse.ArgumentTypeError(f"expected V,E,L, got {text!r}")
    try:
        return CorpusBounds(*(int(x) for x in fields))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}")


def exit_with(main):
    """Exit with the status of ``main(argv)``; a reader that closes the pipe
    early (``| head -1``) ends the script with status 1 and no traceback."""
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the flush at exit would raise again, so stdout goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
