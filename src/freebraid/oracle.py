"""Brute-force ground truth by bounded breadth-first search.

The ball around a word collects everything reachable by moves whose results
stay within a length bound.  Membership is literal letter-sequence
identity, so the oracle makes no assumptions shared with the deciders it
cross-checks.  It can certify equality but never inequality: a word missing
from a bounded ball may still be reachable through longer intermediates.

The search runs on packed words, in the format `moves` defines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .moves import (
    _R2_RELATIONS,
    MoveSet,
    _code_bits,
    _pack,
    _relation_flags,
    _unpack,
    _window_move,
    relation_sides,
    relations_in,
)
from .words import BraidWord, PreconditionError


class OracleVerdict(Enum):
    EQUAL = "Equal"
    NOT_FOUND_WITHIN_BOUND = "NotFoundWithinBound"
    CAP_EXCEEDED = "CapExceeded"


@dataclass(frozen=True)
class EquivalenceBall:
    """Words reachable from the origin without exceeding the length bound."""

    origin: BraidWord
    moveset: MoveSet
    length_bound: int
    members: tuple[BraidWord, ...]
    cap_exceeded: bool
    _member_set: frozenset[tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_member_set", frozenset(w.letters for w in self.members))

    def __contains__(self, word: BraidWord) -> bool:
        return word.n == self.origin.n and word.letters in self._member_set

    def __len__(self) -> int:
        return len(self.members)


def _discover(word: BraidWord, moveset: MoveSet, length_bound: int, node_cap: int,
              target: int | None = None) -> tuple[list[int], bool]:
    """Bounded BFS from word: (packed words in discovery order, cap exceeded).

    The search stops as soon as the packed target is discovered, which is
    then the last word of the order; the origin counts as discovered first.
    Discovering one word beyond node_cap aborts the search and reports the
    cap.  Rewrites and insertions are both discovered as they are made, so
    the cap bounds memory too.
    """
    if length_bound < len(word.letters):
        raise PreconditionError("length bound must be at least the origin's length")
    if node_cap < 1:
        raise PreconditionError("node_cap must be >= 1")
    n = word.n
    b = _code_bits(n)
    b2 = 2 * b
    mask3 = (1 << 3 * b) - 1
    origin = _pack(word.letters, n, b)
    order = [origin]
    if origin == target:
        return order, False
    rels = relations_in(moveset)
    flags = _relation_flags(rels)
    pairs = [_pack(relation_sides(rel, i)[0], n, b) for rel in _R2_RELATIONS if rel in rels for i in range(1, n)]
    # The match at offset p depends only on the window of letters p..p+2,
    # so it is found, oriented and checked once per distinct window.
    rewrites: dict[int, int] = {}
    seen = {origin}
    # BFS visits words in discovery order, so order doubles as the queue.
    for w in order:
        length = -(-w.bit_length() // b)
        for s in range(0, b * (length - 1), b):
            key = w >> s & mask3
            delta = rewrites.get(key)
            if delta is None:
                delta = rewrites[key] = _window_move(_unpack(key, n, b), n, b, flags)[-1]
            if delta < 0:
                continue
            neighbor = w ^ delta << s if delta else (w & (1 << s) - 1) | (w >> s + b2) << s
            if neighbor in seen:
                continue
            if len(order) >= node_cap:
                return order, True
            seen.add(neighbor)
            order.append(neighbor)
            if neighbor == target:
                return order, False
        if length + 2 <= length_bound:
            for s in range(0, b * (length + 1), b):
                low = w & (1 << s) - 1
                base = low | (w ^ low) << b2
                # x x inserted right after x makes the word of the insertion one
                # offset earlier, which this node has discovered, so seen rejects it.
                for pair in pairs:
                    neighbor = base | pair << s
                    if neighbor in seen:
                        continue
                    if len(order) >= node_cap:
                        return order, True
                    seen.add(neighbor)
                    order.append(neighbor)
                    if neighbor == target:
                        return order, False
    return order, False


def bfs_ball(word: BraidWord, moveset: MoveSet, length_bound: int,
             node_cap: int = 1_000_000) -> EquivalenceBall:
    """Exhaustive bounded BFS; members come back in discovery order.

    Exceeding node_cap aborts the search and flags the ball rather than
    failing silently.
    """
    order, cap_exceeded = _discover(word, moveset, length_bound, node_cap)
    n = word.n
    b = _code_bits(n)
    members = tuple(BraidWord(n, _unpack(w, n, b)) for w in order)
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
