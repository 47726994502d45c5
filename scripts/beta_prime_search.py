#!/usr/bin/env python3
"""Search for readings of the transformed 10-strand braid.

The transformed braid adds a strand on the left of the brunnian braid plus
two classical crossings; see docs/beta_prime.md.  This script enumerates
candidate words of the form

    shifted brunnian word  +  {two z1 letters, a few virtual letters}

and keeps those matching the expected findings: cyclic permutation, both
added crossings even under the Gaussian parity, bracket closure with three
components including a trivial one.  It can optionally insist that the
eight original crossings keep their strand pairs, which pins down the
appended-block family the repository ships as its default reading.
"""

import argparse
import itertools

from freebraid.words import BraidWord, is_cyclic, permutation, serialize, strand_trace
from freebraid.parity import chord_diagram, linked
from freebraid.scenarios import brunnian_word, scenario_beta_prime, shifted_brunnian_letters


def evaluate(word, added, original_pairs):
    # Most candidates are not cyclic; they are dropped before any report is built.
    if not is_cyclic(permutation(word)):
        return None
    report = scenario_beta_prime(word, added)
    if not report.findings_met:
        return None
    kept = report.bracket_word
    kept_pairs = [pair for pair, x in zip(strand_trace(kept), kept.letters) if x > 0]
    return {
        "cycles": report.bracket_cycles,
        "trivial": list(report.trivial_components),
        "added_linked": linked(chord_diagram(word), *added),
        "original_pairs_intact": sorted(kept_pairs) == original_pairs,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--virtual-letters", type=int, default=3, choices=(1, 3),
                        help="how many virtual letters to insert")
    parser.add_argument("--appended-only", action="store_true",
                        help="only consider tails appended after the shifted word")
    parser.add_argument("--require-intact", action="store_true",
                        help="require the original crossings to keep their strand pairs")
    parser.add_argument("--limit", type=int, default=50, help="stop after this many hits")
    args = parser.parse_args()

    base = brunnian_word()
    shifted = shifted_brunnian_letters()
    original_pairs = sorted(tuple(sorted((a + 1, b + 1)))
                            for (a, b), x in zip(strand_trace(base), base.letters) if x > 0)
    hits = 0

    def consider(word, added):
        nonlocal hits
        report = evaluate(word, added, original_pairs)
        if report is None:
            return
        if args.require_intact and not report["original_pairs_intact"]:
            return
        hits += 1
        print(f"hit {hits}: {serialize(word)}")
        print(f"  added={added} cycles={report['cycles']} trivial={report['trivial']} "
              f"added_linked={report['added_linked']} "
              f"original_pairs_intact={report['original_pairs_intact']}")

    L = len(shifted)
    if args.appended_only:
        seen = set()
        for idx in itertools.product(range(1, 4), repeat=args.virtual_letters):
            items = [1, 1] + [-k for k in idx]
            for tail in sorted(set(itertools.permutations(items))):
                if tail in seen:
                    continue
                seen.add(tail)
                consider(BraidWord._trusted(10, shifted + tail),
                         tuple(L + i for i, x in enumerate(tail) if x > 0))
                if hits >= args.limit:
                    return
        return

    if args.virtual_letters != 1:
        parser.error("the full positional sweep supports --virtual-letters 1 only")
    for vidx in range(2, 10):
        for ga in range(L + 1):
            for gb in range(ga, L + 1):
                for gc in range(L + 1):
                    ins = sorted([(ga, 0, 1), (gc, 1, -vidx), (gb, 2, 1)])
                    letters = list(shifted)
                    for gap, _, x in reversed(ins):  # from the right, so no earlier gap moves
                        letters.insert(gap, x)
                    # The k-th inserted letter lands k places after its gap.
                    added = tuple(gap + k for k, (gap, _, x) in enumerate(ins) if x > 0)
                    consider(BraidWord._trusted(10, tuple(letters)), added)
                    if hits >= args.limit:
                        return


if __name__ == "__main__":
    main()
