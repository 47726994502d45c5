"""Rewriting moves on braid words.

The catalogue covers pair cancellations (R2), virtualization, far
commutativity, and the virtual / semivirtual / classical triple slides
(R3).  The move set F admits everything except the classical R3; FB admits
all of it; STRONG is F without the classical R2.  Every relation preserves
the endpoint permutation.

One matcher, `_match_at`, finds the non-insertion move whose source
starts at a given offset; `scramble` and the oracle's `_discover` both
read it.  `scramble` keeps one flag per offset saying whether a move
matches there, and rescans only the window a move changes.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

from .words import BraidWord, PreconditionError


class Relation(Enum):
    VIRTUAL_R2 = "VirtualR2"
    CLASSICAL_R2 = "ClassicalR2"
    VIRTUALIZATION = "Virtualization"
    FAR_COMM_ZZ = "FarCommutativityZZ"
    FAR_COMM_ZT = "FarCommutativityZT"
    FAR_COMM_TT = "FarCommutativityTT"
    VIRTUAL_R3 = "VirtualR3"
    SEMIVIRTUAL_R3 = "SemivirtualR3"
    CLASSICAL_R3 = "ClassicalR3"


class Direction(Enum):
    LEFT_TO_RIGHT = "fwd"
    RIGHT_TO_LEFT = "rev"


class MoveSet(Enum):
    F = "F"
    FB = "FB"
    STRONG = "strong"


_ALL_RELATIONS = tuple(Relation)

_MOVESET_RELATIONS = {
    MoveSet.F: frozenset(_ALL_RELATIONS) - {Relation.CLASSICAL_R3},
    MoveSet.FB: frozenset(_ALL_RELATIONS),
    MoveSet.STRONG: frozenset(_ALL_RELATIONS) - {Relation.CLASSICAL_R3, Relation.CLASSICAL_R2},
}

_R2_RELATIONS = (Relation.VIRTUAL_R2, Relation.CLASSICAL_R2)


def relations_in(moveset: MoveSet) -> frozenset[Relation]:
    return _MOVESET_RELATIONS[moveset]


def relation_sides(relation: Relation, i: int, j: int | None = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (left, right) letter sequences of a relation instance.

    Far commutativity of like kinds is canonicalized to i < j; for the
    mixed kind, i is the classical index and j the virtual one.
    """
    R = Relation
    if relation is R.VIRTUAL_R2:
        return (-i, -i), ()
    if relation is R.CLASSICAL_R2:
        return (i, i), ()
    if relation is R.VIRTUALIZATION:
        return (-i, i), (i, -i)
    if relation in (R.FAR_COMM_ZZ, R.FAR_COMM_ZT, R.FAR_COMM_TT):
        if j is None:
            raise ValueError(f"{relation.value} needs a second index")
        if abs(i - j) < 2:
            raise ValueError(f"far commutativity needs |i-j| >= 2, got i={i} j={j}")
        if relation is R.FAR_COMM_ZZ:
            if i >= j:
                raise ValueError("like-kind far commutativity is canonicalized to i < j")
            return (i, j), (j, i)
        if relation is R.FAR_COMM_TT:
            if i >= j:
                raise ValueError("like-kind far commutativity is canonicalized to i < j")
            return (-i, -j), (-j, -i)
        return (i, -j), (-j, i)
    if relation is R.VIRTUAL_R3:
        return (-i, -(i + 1), -i), (-(i + 1), -i, -(i + 1))
    if relation is R.SEMIVIRTUAL_R3:
        return (-i, -(i + 1), i), (i + 1, -i, -(i + 1))
    if relation is R.CLASSICAL_R3:
        return (i, i + 1, i), (i + 1, i, i + 1)
    raise ValueError(f"unknown relation {relation!r}")


def _oriented_sides(relation: Relation, i: int, direction: Direction,
                   j: int | None = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(source, target) of a relation instance applied in direction."""
    left, right = relation_sides(relation, i, j)
    return (left, right) if direction is Direction.LEFT_TO_RIGHT else (right, left)


@dataclass(frozen=True, slots=True)
class MoveInstance:
    """One relation applied at a letter offset, in one of the two directions.

    LEFT_TO_RIGHT rewrites the relation's left side into its right side.
    For the R2 relations, LEFT_TO_RIGHT deletes the pair and RIGHT_TO_LEFT
    inserts it (at any offset from 0 to the word length).
    """

    relation: Relation
    i: int
    position: int
    direction: Direction
    j: int | None = None

    def sides(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(source, target) letter sequences, oriented by direction."""
        return _oriented_sides(self.relation, self.i, self.direction, self.j)


(_VIRTUAL_R2, _CLASSICAL_R2, _VIRTUALIZATION, _FAR_COMM_ZZ, _FAR_COMM_ZT, _FAR_COMM_TT,
 _VIRTUAL_R3, _SEMIVIRTUAL_R3, _CLASSICAL_R3) = _ALL_RELATIONS
_FWD, _REV = Direction.LEFT_TO_RIGHT, Direction.RIGHT_TO_LEFT


def _relation_flags(rels: frozenset[Relation]) -> tuple[bool, ...]:
    """One bool per relation, in declaration order: the switches of `_match_at`."""
    return tuple(rel in rels for rel in _ALL_RELATIONS)


def _match_at(letters: tuple[int, ...], p: int,
              flags: tuple[bool, ...]) -> tuple[Relation, int, Direction, int | None] | None:
    """The non-insertion move whose source side starts at offset p, or None.

    The move is a `(relation, i, direction, j)` tuple that depends only on
    letters[p:p + 3].  At most one relation matches at an offset: pair
    cancellation needs b == a, virtualization b == -a, far commutativity
    |a| and |b| at least 2 apart and every triple slide |a| and |b|
    adjacent, and among the slides c == -a sets the semivirtual one apart.
    Offsets 0, 1, ... in turn therefore give the scan order that `scramble`
    draws from and `bfs_ball` discovers in.
    """
    if p + 1 >= len(letters):
        return None
    virtual_r2, classical_r2, virtualization, zz, zt, tt, virtual_r3, semivirtual_r3, classical_r3 = flags
    a, b = letters[p], letters[p + 1]
    ia, ib = abs(a), abs(b)
    if a == b:
        if a < 0:
            return (_VIRTUAL_R2, ia, _FWD, None) if virtual_r2 else None
        return (_CLASSICAL_R2, a, _FWD, None) if classical_r2 else None
    if b == -a:
        return (_VIRTUALIZATION, ia, _FWD if a < 0 else _REV, None) if virtualization else None
    if abs(ia - ib) >= 2:
        if a > 0 and b > 0:
            return (_FAR_COMM_ZZ, min(a, b), _FWD if a < b else _REV, max(a, b)) if zz else None
        if a < 0 and b < 0:
            return (_FAR_COMM_TT, min(ia, ib), _FWD if ia < ib else _REV, max(ia, ib)) if tt else None
        if not zt:
            return None
        return (_FAR_COMM_ZT, a, _FWD, ib) if a > 0 else (_FAR_COMM_ZT, b, _REV, ia)
    if p + 2 >= len(letters):
        return None
    c = letters[p + 2]
    if c == a:
        if a < 0 and b < 0 and virtual_r3:
            return (_VIRTUAL_R3, ia, _FWD, None) if ib == ia + 1 else (_VIRTUAL_R3, ib, _REV, None)
        if a > 0 and b > 0 and classical_r3:
            return (_CLASSICAL_R3, a, _FWD, None) if b == a + 1 else (_CLASSICAL_R3, b, _REV, None)
        return None
    if semivirtual_r3:
        if a < 0 and b == a - 1 and c == ia:
            return (_SEMIVIRTUAL_R3, ia, _FWD, None)
        if a > 1 and b == -(a - 1) and c == -a:
            return (_SEMIVIRTUAL_R3, a - 1, _REV, None)
    return None


def _rewrite(letters: tuple[int, ...], p: int, source: tuple[int, ...], target: tuple[int, ...],
             relation: Relation, direction: Direction) -> tuple[int, ...]:
    """letters with source, which must sit at offset p, replaced by target."""
    if not (0 <= p <= len(letters) - len(source)):
        raise PreconditionError(f"move position {p} out of range")
    if letters[p:p + len(source)] != source:
        raise PreconditionError(
            f"{relation.value} ({direction.value}) does not match at position {p}")
    return letters[:p] + target + letters[p + len(source):]


def apply_move(word: BraidWord, m: MoveInstance) -> BraidWord:
    """The word with move m applied."""
    for idx in (m.i, m.j):
        if idx is not None and not (1 <= idx <= word.n - 1):
            raise PreconditionError(f"move index {idx} out of range on {word.n} strands")
    return BraidWord(word.n, _rewrite(word.letters, m.position, *m.sides(), m.relation, m.direction))


MAX_STEPS = 1_000_000


def scramble(word: BraidWord, steps: int, moveset: MoveSet, seed: int,
             max_length: int) -> tuple[BraidWord, tuple[MoveInstance, ...]]:
    """Random walk over applicable moves; deterministic for a fixed seed.

    Each step draws uniformly from the applicable instances, except that
    insertions are excluded whenever they would push the word past
    max_length.  The result is equivalent to the input in the chosen move
    set.  Whether a move matches is kept per offset and only the window a
    move touches is rescanned (see the module docstring).  The history
    keeps one move per step, so steps is capped at MAX_STEPS.
    """
    if steps < 0:
        raise PreconditionError("steps must be >= 0")
    if steps > MAX_STEPS:
        raise PreconditionError(f"steps must be at most {MAX_STEPS}, got {steps}")
    if max_length < len(word.letters):
        raise PreconditionError("max_length must be at least the current word length")
    rng = random.Random(seed)
    rels = relations_in(moveset)
    flags = _relation_flags(rels)
    ins_kinds = [rel for rel in _R2_RELATIONS if rel in rels]
    letters = word.letters
    n = word.n
    matched = [_match_at(letters, p, flags) is not None for p in range(len(letters))]
    history: list[MoveInstance] = []
    for _ in range(steps):
        L = len(letters)
        ends = list(accumulate(matched))
        n_matches = ends[-1] if ends else 0
        per_kind = (n - 1) * (L + 1)
        ins_total = per_kind * len(ins_kinds) if (L + 2 <= max_length and n >= 2) else 0
        total = n_matches + ins_total
        if total == 0:
            break
        r = rng.randrange(total)
        if r < n_matches:
            p = bisect_right(ends, r)
            rel, i, direction, j = _match_at(letters, p, flags)
            m = MoveInstance(rel, i, p, direction, j)
        else:
            q = r - n_matches
            rel = ins_kinds[q // per_kind]
            q %= per_kind
            p = q % (L + 1)
            m = MoveInstance(rel, q // (L + 1) + 1, p, _REV)
        source, target = m.sides()
        letters = _rewrite(letters, p, source, target, m.relation, m.direction)
        # A match at q reads only letters q..q+2, so only offsets [p-2, p+len(target)) change.
        lo = max(p - 2, 0)
        matched[lo:p + len(source)] = [_match_at(letters, q, flags) is not None
                                       for q in range(lo, p + len(target))]
        history.append(m)
    return BraidWord(n, letters), tuple(history)


def format_history(history: tuple[MoveInstance, ...]) -> str:
    """One line per step: `<relation-id> i=<i> [j=<j>] pos=<offset> dir=<fwd|rev>`."""
    lines = []
    for m in history:
        j_part = f" j={m.j}" if m.j is not None else ""
        lines.append(f"{m.relation.value} i={m.i}{j_part} pos={m.position} dir={m.direction.value}")
    return "\n".join(lines)
