"""Brute-force ground truth by bounded breadth-first search.

The ball around a word collects everything reachable by moves whose results
stay within a length bound.  Membership is literal letter-sequence
identity, so the oracle makes no assumptions shared with the deciders it
cross-checks.  It can certify equality but never inequality: a word missing
from a bounded ball may still be reachable through longer intermediates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .moves import (
    _R2_RELATIONS,
    MoveSet,
    _match_at,
    _oriented_sides,
    _relation_flags,
    _rewrite,
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
              target: tuple[int, ...] | None = None) -> tuple[list[tuple[int, ...]], bool]:
    """Bounded BFS from word: (letters in discovery order, cap exceeded).

    The search stops as soon as target is discovered, which is then the last
    word of the order; the origin counts as discovered first.  Discovering
    one word beyond node_cap aborts the search and reports the cap.
    """
    if length_bound < len(word.letters):
        raise PreconditionError("length bound must be at least the origin's length")
    if node_cap < 1:
        raise PreconditionError("node_cap must be >= 1")
    origin = word.letters
    order: list[tuple[int, ...]] = [origin]
    if origin == target:
        return order, False
    rels = relations_in(moveset)
    flags = _relation_flags(rels)
    inserted = [relation_sides(rel, i)[0] for rel in _R2_RELATIONS if rel in rels for i in range(1, word.n)]
    # The match at offset p depends only on letters[p:p + 3], so it is found,
    # oriented and checked against the window once per distinct window; the
    # source then sits at p of every word holding that window.
    rewrites: dict[tuple[int, ...], tuple[int, tuple[int, ...]] | None] = {}
    seen: set[tuple[int, ...]] = {origin}
    queue: deque[tuple[int, ...]] = deque([origin])
    while queue:
        letters = queue.popleft()
        neighbors = []
        for p in range(len(letters) - 1):
            window = letters[p:p + 3]
            if window in rewrites:
                rewrite = rewrites[window]
            else:
                match = _match_at(window, 0, flags)
                rewrite = None
                if match is not None:
                    source, replacement = _oriented_sides(*match)
                    _rewrite(window, 0, source, replacement, match[0], match[2])
                    rewrite = (len(source), replacement)
                rewrites[window] = rewrite
            if rewrite is not None:
                size, replacement = rewrite
                neighbors.append(letters[:p] + replacement + letters[p + size:])
        if len(letters) + 2 <= length_bound:
            for p in range(len(letters) + 1):
                head, tail = letters[:p], letters[p:]
                neighbors += [head + pair + tail for pair in inserted]
        for neighbor in neighbors:
            if neighbor in seen:
                continue
            if len(seen) >= node_cap:
                return order, True
            seen.add(neighbor)
            order.append(neighbor)
            if neighbor == target:
                return order, False
            queue.append(neighbor)
    return order, False


def bfs_ball(word: BraidWord, moveset: MoveSet, length_bound: int,
             node_cap: int = 1_000_000) -> EquivalenceBall:
    """Exhaustive bounded BFS; members come back in discovery order.

    Exceeding node_cap aborts the search and flags the ball rather than
    failing silently.
    """
    order, cap_exceeded = _discover(word, moveset, length_bound, node_cap)
    members = tuple(BraidWord(word.n, ls) for ls in order)
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
    order, cap_exceeded = _discover(w1, moveset, length_bound, node_cap, target=w2.letters)
    if order[-1] == w2.letters:
        return OracleVerdict.EQUAL
    if cap_exceeded:
        return OracleVerdict.CAP_EXCEEDED
    return OracleVerdict.NOT_FOUND_WITHIN_BOUND
