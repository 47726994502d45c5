"""Rewriting moves on braid words.

The catalogue covers pair cancellations (R2), virtualization, far
commutativity, and the virtual / semivirtual / classical triple slides
(R3).  The move set F admits everything except the classical R3; FB admits
all of it; STRONG is F without the classical R2.  Every relation preserves
the endpoint permutation.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from enum import Enum

from .words import BraidWord, ParseError, PreconditionError


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
_REL_ORDER = {rel: k for k, rel in enumerate(_ALL_RELATIONS)}
_DIR_ORDER = {Direction.LEFT_TO_RIGHT: 0, Direction.RIGHT_TO_LEFT: 1}

_MOVESET_RELATIONS = {
    MoveSet.F: frozenset(_ALL_RELATIONS) - {Relation.CLASSICAL_R3},
    MoveSet.FB: frozenset(_ALL_RELATIONS),
    MoveSet.STRONG: frozenset(_ALL_RELATIONS) - {Relation.CLASSICAL_R3, Relation.CLASSICAL_R2},
}

_R2_RELATIONS = (Relation.VIRTUAL_R2, Relation.CLASSICAL_R2)

# Window pairing for letters inside the matched subword: far commutativity
# and virtualization transpose the two letters, the R3 slides reverse the
# three (the outer letters trade places; each keeps its strand pair).  R2
# letters are created or destroyed, hence unmapped.
_WINDOW_PAIRS = {
    Relation.VIRTUAL_R2: (),
    Relation.CLASSICAL_R2: (),
    Relation.VIRTUALIZATION: ((0, 1), (1, 0)),
    Relation.FAR_COMM_ZZ: ((0, 1), (1, 0)),
    Relation.FAR_COMM_ZT: ((0, 1), (1, 0)),
    Relation.FAR_COMM_TT: ((0, 1), (1, 0)),
    Relation.VIRTUAL_R3: ((0, 2), (1, 1), (2, 0)),
    Relation.SEMIVIRTUAL_R3: ((0, 2), (1, 1), (2, 0)),
    Relation.CLASSICAL_R3: ((0, 2), (1, 1), (2, 0)),
}


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
        left, right = relation_sides(self.relation, self.i, self.j)
        return (left, right) if self.direction is Direction.LEFT_TO_RIGHT else (right, left)

    def inverse(self) -> "MoveInstance":
        flipped = (Direction.RIGHT_TO_LEFT
                   if self.direction is Direction.LEFT_TO_RIGHT
                   else Direction.LEFT_TO_RIGHT)
        return MoveInstance(self.relation, self.i, self.position, flipped, self.j)

    def sort_key(self):
        return (self.position, _REL_ORDER[self.relation], _DIR_ORDER[self.direction],
                self.i, self.j if self.j is not None else 0)


@dataclass(frozen=True, slots=True)
class LetterCorrespondence:
    """Partial bijection from source letter positions to result positions.

    Letters outside the matched window map identically up to the length
    shift; inside it they map per the relation's pairing; R2 letters are
    unmapped.
    """

    source_length: int
    result_length: int
    window_start: int
    source_window: int
    result_window: int
    window_pairs: tuple[tuple[int, int], ...]

    def image_of(self, pos: int) -> int | None:
        if not (0 <= pos < self.source_length):
            raise ValueError(f"source position {pos} out of range")
        if pos < self.window_start:
            return pos
        if pos < self.window_start + self.source_window:
            for s, r in self.window_pairs:
                if s == pos:
                    return r
            return None
        return pos + (self.result_window - self.source_window)

    def preimage_of(self, pos: int) -> int | None:
        if not (0 <= pos < self.result_length):
            raise ValueError(f"result position {pos} out of range")
        if pos < self.window_start:
            return pos
        if pos < self.window_start + self.result_window:
            for s, r in self.window_pairs:
                if r == pos:
                    return s
            return None
        return pos - (self.result_window - self.source_window)


def _match_instances(letters: tuple[int, ...], rels: frozenset[Relation]) -> list[MoveInstance]:
    """Non-insertion instances whose source side matches, in scan order."""
    R = Relation
    L2R, R2L = Direction.LEFT_TO_RIGHT, Direction.RIGHT_TO_LEFT
    out = []
    L = len(letters)
    for p in range(L - 1):
        a, b = letters[p], letters[p + 1]
        if a == b:
            if a < 0 and R.VIRTUAL_R2 in rels:
                out.append(MoveInstance(R.VIRTUAL_R2, -a, p, L2R))
            elif a > 0 and R.CLASSICAL_R2 in rels:
                out.append(MoveInstance(R.CLASSICAL_R2, a, p, L2R))
        if b == -a and R.VIRTUALIZATION in rels:
            out.append(MoveInstance(R.VIRTUALIZATION, abs(a), p, L2R if a < 0 else R2L))
        ia, ib = abs(a), abs(b)
        if abs(ia - ib) >= 2:
            if a > 0 and b > 0 and R.FAR_COMM_ZZ in rels:
                out.append(MoveInstance(R.FAR_COMM_ZZ, min(a, b), p,
                                        L2R if a < b else R2L, j=max(a, b)))
            elif a < 0 and b < 0 and R.FAR_COMM_TT in rels:
                out.append(MoveInstance(R.FAR_COMM_TT, min(ia, ib), p,
                                        L2R if ia < ib else R2L, j=max(ia, ib)))
            elif (a > 0) != (b > 0) and R.FAR_COMM_ZT in rels:
                if a > 0:
                    out.append(MoveInstance(R.FAR_COMM_ZT, a, p, L2R, j=ib))
                else:
                    out.append(MoveInstance(R.FAR_COMM_ZT, b, p, R2L, j=ia))
        if p + 2 < L:
            c = letters[p + 2]
            if a == c:
                if a < 0 and b < 0 and R.VIRTUAL_R3 in rels:
                    if ib == ia + 1:
                        out.append(MoveInstance(R.VIRTUAL_R3, ia, p, L2R))
                    elif ib == ia - 1:
                        out.append(MoveInstance(R.VIRTUAL_R3, ib, p, R2L))
                elif a > 0 and R.CLASSICAL_R3 in rels:
                    if b == a + 1:
                        out.append(MoveInstance(R.CLASSICAL_R3, a, p, L2R))
                    elif b == a - 1:
                        out.append(MoveInstance(R.CLASSICAL_R3, b, p, R2L))
            if R.SEMIVIRTUAL_R3 in rels:
                if a < 0 and b == a - 1 and c == ia:
                    out.append(MoveInstance(R.SEMIVIRTUAL_R3, ia, p, L2R))
                elif a > 1 and b == -(a - 1) and c == -a:
                    out.append(MoveInstance(R.SEMIVIRTUAL_R3, a - 1, p, R2L))
    return out


def _insertion_instances(word_len: int, n: int, rels: frozenset[Relation]) -> list[MoveInstance]:
    out = []
    for p in range(word_len + 1):
        for rel in _R2_RELATIONS:
            if rel in rels:
                for i in range(1, n):
                    out.append(MoveInstance(rel, i, p, Direction.RIGHT_TO_LEFT))
    return out


def applicable_moves(word: BraidWord, moveset: MoveSet = MoveSet.FB) -> tuple[MoveInstance, ...]:
    """Every applicable instance, insertions included, sorted by
    (position, relation, direction, indices)."""
    rels = relations_in(moveset)
    out = _match_instances(word.letters, rels)
    out += _insertion_instances(len(word.letters), word.n, rels)
    out.sort(key=MoveInstance.sort_key)
    return tuple(out)


def _apply_to_letters(letters: tuple[int, ...], m: MoveInstance) -> tuple[int, ...]:
    source, target = m.sides()
    p = m.position
    if not (0 <= p <= len(letters) - len(source)):
        raise PreconditionError(f"move position {p} out of range")
    if letters[p:p + len(source)] != source:
        raise PreconditionError(
            f"{m.relation.value} ({m.direction.value}) does not match at position {p}")
    return letters[:p] + target + letters[p + len(source):]


def apply_move_word(word: BraidWord, m: MoveInstance) -> BraidWord:
    """Apply a move, returning only the rewritten word."""
    for idx in (m.i, m.j):
        if idx is not None and not (1 <= idx <= word.n - 1):
            raise PreconditionError(f"move index {idx} out of range on {word.n} strands")
    return BraidWord(word.n, _apply_to_letters(word.letters, m))


def apply_move(word: BraidWord, m: MoveInstance) -> tuple[BraidWord, LetterCorrespondence]:
    """Apply a move and report where each surviving letter went."""
    result = apply_move_word(word, m)
    source, target = m.sides()
    rel_pairs = _WINDOW_PAIRS[m.relation]
    corr = LetterCorrespondence(
        source_length=len(word.letters),
        result_length=len(result.letters),
        window_start=m.position,
        source_window=len(source),
        result_window=len(target),
        window_pairs=tuple((m.position + s, m.position + r) for s, r in rel_pairs),
    )
    return result, corr


def scramble(word: BraidWord, steps: int, moveset: MoveSet, seed: int,
             max_length: int) -> tuple[BraidWord, tuple[MoveInstance, ...]]:
    """Random walk over applicable moves; deterministic for a fixed seed.

    Each step draws uniformly from the applicable instances, except that
    insertions are excluded whenever they would push the word past
    max_length.  The result is equivalent to the input in the chosen move
    set.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if max_length < len(word.letters):
        raise ValueError("max_length must be at least the current word length")
    rng = random.Random(seed)
    rels = relations_in(moveset)
    ins_kinds = [rel for rel in _R2_RELATIONS if rel in rels]
    letters = word.letters
    n = word.n
    history: list[MoveInstance] = []
    for _ in range(steps):
        matches = _match_instances(letters, rels)
        L = len(letters)
        per_kind = (n - 1) * (L + 1)
        ins_total = per_kind * len(ins_kinds) if (L + 2 <= max_length and n >= 2) else 0
        total = len(matches) + ins_total
        if total == 0:
            break
        r = rng.randrange(total)
        if r < len(matches):
            m = matches[r]
        else:
            q = r - len(matches)
            rel = ins_kinds[q // per_kind]
            q %= per_kind
            m = MoveInstance(rel, q // (L + 1) + 1, q % (L + 1), Direction.RIGHT_TO_LEFT)
        letters = _apply_to_letters(letters, m)
        history.append(m)
    return BraidWord(n, letters), tuple(history)


_HISTORY_RE = re.compile(
    r"\A(?P<rel>\w+) i=(?P<i>\d+)(?: j=(?P<j>\d+))? pos=(?P<pos>\d+) dir=(?P<dir>fwd|rev)\Z")


def format_history(history: tuple[MoveInstance, ...]) -> str:
    """One line per step: `<relation-id> i=<i> [j=<j>] pos=<offset> dir=<fwd|rev>`."""
    lines = []
    for m in history:
        j_part = f" j={m.j}" if m.j is not None else ""
        lines.append(f"{m.relation.value} i={m.i}{j_part} pos={m.position} dir={m.direction.value}")
    return "\n".join(lines)


def parse_history(text: str) -> tuple[MoveInstance, ...]:
    by_value = {rel.value: rel for rel in Relation}
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        m = _HISTORY_RE.match(line)
        if not m or m.group("rel") not in by_value:
            raise ParseError(f"bad history line {line!r}")
        out.append(MoveInstance(
            relation=by_value[m.group("rel")],
            i=int(m.group("i")),
            position=int(m.group("pos")),
            direction=Direction.LEFT_TO_RIGHT if m.group("dir") == "fwd" else Direction.RIGHT_TO_LEFT,
            j=int(m.group("j")) if m.group("j") else None,
        ))
    return tuple(out)
