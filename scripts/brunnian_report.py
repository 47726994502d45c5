#!/usr/bin/env python3
"""Run the two built-in experiments and print their reports."""

import argparse
import sys

from freebraid.scenarios import scenario_beta_prime, scenario_brunnian
from freebraid.words import ParseError, PreconditionError


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--max-length", type=int, default=200)
    args = parser.parse_args()

    try:
        brunnian = scenario_brunnian(seed=args.seed, steps=args.steps, max_length=args.max_length)
        beta_prime = scenario_beta_prime()
    except (ParseError, PreconditionError) as e:
        print(f"{parser.prog}: {e}", file=sys.stderr)
        sys.exit(2 if isinstance(e, PreconditionError) else 1)
    print("== brunnian word ==")
    print(brunnian.format_text())
    print()
    print("== transformed braid ==")
    print(beta_prime.format_text())


if __name__ == "__main__":
    main()
