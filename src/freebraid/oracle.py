"""Brute-force ground truth by bounded breadth-first search.

The ball around a word collects everything reachable by moves whose results
stay within a length bound.  Membership is literal letter-sequence
identity, so the oracle makes no assumptions shared with the deciders it
cross-checks.  It can certify equality but never inequality: a word missing
from a bounded ball may still be reachable through longer intermediates.

The search is `moves._discover`, on packed words.  It keeps its window
rewrites across calls, one memo per (n, move set) for the last 8, each at
most 4096 entries between searches, about 0.37 MiB on 10 000 strands.
"""

from __future__ import annotations

from enum import Enum

from .moves import MoveSet, _code_bits, _discover, _pack, _unpack
from .words import BraidWord, PreconditionError, _Value


class OracleVerdict(Enum):
    EQUAL = "Equal"
    NOT_FOUND_WITHIN_BOUND = "NotFoundWithinBound"
    CAP_EXCEEDED = "CapExceeded"


class EquivalenceBall(_Value):
    """Words reachable from the origin without exceeding the length bound."""

    _fields = ("origin", "moveset", "length_bound", "members", "cap_exceeded")
    __slots__ = _fields + ("_member_set",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "_member_set", frozenset([w.letters for w in self.members]))

    def __contains__(self, word: BraidWord) -> bool:
        return word.n == self.origin.n and word.letters in self._member_set

    def __len__(self) -> int:
        return len(self.members)


def bfs_ball(word: BraidWord, moveset: MoveSet, length_bound: int,
             node_cap: int = 1_000_000) -> EquivalenceBall:
    """Exhaustive bounded BFS; members come back in discovery order.

    Exceeding node_cap aborts the search and flags the ball rather than
    failing silently.
    """
    order, cap_exceeded = _discover(word, moveset, length_bound, node_cap)
    n = word.n
    b = _code_bits(n)
    members = tuple([BraidWord._trusted(n, _unpack(w, n, b)) for w in order])
    return EquivalenceBall(word, moveset, length_bound, members, cap_exceeded)


def oracle_equal(w1: BraidWord, w2: BraidWord, moveset: MoveSet, length_bound: int,
                 node_cap: int = 1_000_000) -> OracleVerdict:
    """Tri-state equality: found, not found within the bound, or search aborted.

    The search from w1 stops as soon as it discovers w2, so the verdict is
    EQUAL exactly when w2 is among the first node_cap words of
    `bfs_ball(w1, ...)`, and otherwise CAP_EXCEEDED if that ball was capped.
    NOT_FOUND_WITHIN_BOUND is not a proof of inequality.
    """
    if w1.n != w2.n:
        raise PreconditionError(f"strand counts differ: {w1.n} vs {w2.n}")
    target = _pack(w2.letters, w2.n, _code_bits(w2.n))
    order, cap_exceeded = _discover(w1, moveset, length_bound, node_cap, target)
    if order[-1] == target:
        return OracleVerdict.EQUAL
    if cap_exceeded:
        return OracleVerdict.CAP_EXCEEDED
    return OracleVerdict.NOT_FOUND_WITHIN_BOUND
