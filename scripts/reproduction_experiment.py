#!/usr/bin/env python3
"""Scramble the brunnian word and measure how its copy survives.

For each seed the word is driven through random moves from the full set,
then the parity bracket plus bigon reduction extracts the strongly
equivalent subword again.  Prints per-seed word growth and witness size.
"""

import argparse
import sys
import time

from freebraid.moves import MoveSet, scramble
from freebraid.parity import GaussianScheme
from freebraid.bracket import verify_reproduction
from freebraid.scenarios import brunnian_word
from freebraid.words import ParseError, PreconditionError


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--max-length", type=int, default=200)
    args = parser.parse_args()

    try:
        run(args)
    except (ParseError, PreconditionError) as e:
        print(f"{parser.prog}: {e}", file=sys.stderr)
        sys.exit(2 if isinstance(e, PreconditionError) else 1)


def run(args):
    word = brunnian_word()
    scheme = GaussianScheme()
    ok = 0
    for seed in range(args.seeds):
        t0 = time.perf_counter()
        scrambled, history = scramble(word, args.steps, MoveSet.FB, seed, args.max_length)
        report = verify_reproduction(word, scrambled, scheme)
        dt = time.perf_counter() - t0
        ok += report.success
        witness = len(report.witness_positions) if report.witness_positions else 0
        print(f"seed={seed:3d} steps={len(history):4d} length={len(scrambled):3d} "
              f"witness={witness:3d} success={report.success} ({dt:.2f}s)")
    print(f"{ok}/{args.seeds} reproduced")


if __name__ == "__main__":
    main()
