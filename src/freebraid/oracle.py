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


def bfs_ball(word: BraidWord, moveset: MoveSet, length_bound: int,
             node_cap: int = 1_000_000) -> EquivalenceBall:
    """Exhaustive bounded BFS; members come back in discovery order.

    Exceeding node_cap aborts the search and flags the ball rather than
    failing silently.
    """
    if length_bound < len(word.letters):
        raise PreconditionError("length bound must be at least the origin's length")
    rels = relations_in(moveset)
    flags = _relation_flags(rels)
    n = word.n
    inserted = [relation_sides(rel, i)[0] for rel in _R2_RELATIONS if rel in rels for i in range(1, n)]
    # The match at offset p depends only on letters[p:p + 3], so it and its
    # oriented sides are computed once per distinct window.
    rewrites: dict[tuple[int, ...], tuple | None] = {}
    seen: set[tuple[int, ...]] = {word.letters}
    order: list[tuple[int, ...]] = [word.letters]
    queue: deque[tuple[int, ...]] = deque([word.letters])
    cap_exceeded = False
    while queue:
        letters = queue.popleft()
        neighbors = []
        for p in range(len(letters) - 1):
            window = letters[p:p + 3]
            if window not in rewrites:
                match = _match_at(window, 0, flags)
                rewrites[window] = None if match is None else (
                    *_oriented_sides(*match), match[0], match[2])
            rewrite = rewrites[window]
            if rewrite is not None:
                neighbors.append(_rewrite(letters, p, *rewrite))
        if len(letters) + 2 <= length_bound:
            for p in range(len(letters) + 1):
                head, tail = letters[:p], letters[p:]
                neighbors += [head + pair + tail for pair in inserted]
        for neighbor in neighbors:
            if neighbor in seen:
                continue
            if len(seen) >= node_cap:
                cap_exceeded = True
                queue.clear()
                break
            seen.add(neighbor)
            order.append(neighbor)
            queue.append(neighbor)
    members = tuple(BraidWord(n, ls) for ls in order)
    return EquivalenceBall(word, moveset, length_bound, members, cap_exceeded)


def oracle_equal(w1: BraidWord, w2: BraidWord, moveset: MoveSet, length_bound: int,
                 node_cap: int = 1_000_000) -> OracleVerdict:
    """Tri-state equality: found, not found within the bound, or search aborted.

    NOT_FOUND_WITHIN_BOUND is not a proof of inequality.
    """
    if w1.n != w2.n:
        raise PreconditionError(f"strand counts differ: {w1.n} vs {w2.n}")
    ball = bfs_ball(w1, moveset, length_bound, node_cap)
    if w2 in ball:
        return OracleVerdict.EQUAL
    if ball.cap_exceeded:
        return OracleVerdict.CAP_EXCEEDED
    return OracleVerdict.NOT_FOUND_WITHIN_BOUND
