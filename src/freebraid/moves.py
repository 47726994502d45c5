"""Rewriting moves on braid words.

The catalogue covers pair cancellations (R2), virtualization, far
commutativity, and the virtual / semivirtual / classical triple slides
(R3).  The move set F admits everything except the classical R3; FB admits
all of it; STRONG is F without the classical R2.  A move set only filters
the one relation that `_match_at` finds at an offset.  Every relation
preserves the endpoint permutation.

`_discover`, the oracle's search, runs on packed words, because it hashes
millions of them.  On n strands, letter x becomes the code x + n, which lies
in 1 .. 2n - 1 and so is never 0.  Each code takes b = (2n - 1).bit_length()
bits, letter 0 in the lowest b, and a word is the one int they make: the
empty word is 0, a word's length is its bit length divided by b, rounded
up, and equal ints are equal letter sequences.

`scramble` walks a list of letters.  It keeps a flag per offset saying
whether a move of the set matches there, and their running count, and
rescans only the window a move changes.  The moves that pairs of adjacent
letters start are cached across calls in one LRU cache, `_pair_move`, keyed
by the two letters and shared by every move set and strand count; it holds
at most 4096 entries.  A pair whose |a| and |b| are adjacent may start a
triple slide: it is cached only as _SLIDE.  Both build moves through
`_window_move`.
"""

from __future__ import annotations

import random
from enum import Enum
from functools import lru_cache
from itertools import compress, islice

from .words import MAX_LETTERS, BraidWord, PreconditionError, _Value


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


class MoveInstance(_Value):
    """One relation applied at a letter offset, in one of the two directions.

    LEFT_TO_RIGHT rewrites the relation's left side into its right side.
    For the R2 relations, LEFT_TO_RIGHT deletes the pair and RIGHT_TO_LEFT
    inserts it (at any offset from 0 to the word length).
    """

    __slots__ = _fields = ("relation", "i", "position", "direction", "j")

    def __init__(self, relation: Relation, i: int, position: int, direction: Direction, j: int | None = None):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "j", j)

    def sides(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(source, target) letter sequences, oriented by direction."""
        return _oriented_sides(self.relation, self.i, self.direction, self.j)


(_VIRTUAL_R2, _CLASSICAL_R2, _VIRTUALIZATION, _FAR_COMM_ZZ, _FAR_COMM_ZT, _FAR_COMM_TT,
 _VIRTUAL_R3, _SEMIVIRTUAL_R3, _CLASSICAL_R3) = _ALL_RELATIONS
_FWD, _REV = Direction.LEFT_TO_RIGHT, Direction.RIGHT_TO_LEFT


def _match_at(letters: tuple[int, ...] | list[int], p: int) -> tuple[Relation, int, Direction, int | None] | None:
    """The non-insertion move whose source side starts at offset p, or None.

    The move is a `(relation, i, direction, j)` tuple that depends only on
    letters[p:p + 3].  At most one relation matches at an offset: pair
    cancellation needs b == a, virtualization b == -a, far commutativity
    |a| and |b| at least 2 apart and every triple slide |a| and |b|
    adjacent, and among the slides c == -a sets the semivirtual one apart.
    Offsets 0, 1, ... in turn therefore give the scan order that `scramble`
    draws from and `_discover` discovers in.
    """
    if p + 1 >= len(letters):
        return None
    a, b = letters[p], letters[p + 1]
    ia, ib = abs(a), abs(b)
    if a == b:
        if a < 0:
            return (_VIRTUAL_R2, ia, _FWD, None)
        return (_CLASSICAL_R2, a, _FWD, None)
    if b == -a:
        return (_VIRTUALIZATION, ia, _FWD if a < 0 else _REV, None)
    if abs(ia - ib) >= 2:
        if a > 0 and b > 0:
            return (_FAR_COMM_ZZ, min(a, b), _FWD if a < b else _REV, max(a, b))
        if a < 0 and b < 0:
            return (_FAR_COMM_TT, min(ia, ib), _FWD if ia < ib else _REV, max(ia, ib))
        return (_FAR_COMM_ZT, a, _FWD, ib) if a > 0 else (_FAR_COMM_ZT, b, _REV, ia)
    if p + 2 >= len(letters):
        return None
    c = letters[p + 2]
    if c == a:
        if a < 0 and b < 0:
            return (_VIRTUAL_R3, ia, _FWD, None) if ib == ia + 1 else (_VIRTUAL_R3, ib, _REV, None)
        if a > 0 and b > 0:
            return (_CLASSICAL_R3, a, _FWD, None) if b == a + 1 else (_CLASSICAL_R3, b, _REV, None)
        return None
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


def _code_bits(n: int) -> int:
    return (2 * n - 1).bit_length()


def _pack(letters: tuple[int, ...], n: int, b: int) -> int:
    """letters as one int: the code x + n of letter k in bits b*k .. b*k + b - 1."""
    w = 0
    for x in reversed(letters):
        w = w << b | (x + n)
    return w


def _unpack(w: int, n: int, b: int) -> tuple[int, ...]:
    mask = (1 << b) - 1
    letters = []
    while w:
        letters.append((w & mask) - n)
        w >>= b
    return tuple(letters)


def _window_move(window: tuple[int, ...]) -> tuple:
    """The move at offset 0 of window as `(relation, i, direction, j, target)`, or _NO_MOVE.

    The move's source is the first len(target) letters of window, or the first two for a deletion.
    """
    match = _match_at(window, 0)
    if match is None:
        return _NO_MOVE
    source, target = _oriented_sides(*match)
    _rewrite(window, 0, source, target, match[0], match[2])
    return (*match, target)


_NO_MOVE = (None, None, None, None, None)
_SLIDE = "slide candidate"


@lru_cache(maxsize=4096)
def _pair_move(a: int, c: int) -> tuple | str:
    """_SLIDE if |a| and |c| are adjacent, else `_window_move` of the pair, for every move set and strand count."""
    return _SLIDE if abs(abs(a) - abs(c)) == 1 else _window_move((a, c))


MAX_STEPS = 1_000_000


def scramble(word: BraidWord, steps: int, moveset: MoveSet, seed: int,
             max_length: int) -> tuple[BraidWord, tuple[MoveInstance, ...]]:
    """Random walk over applicable moves; deterministic for a fixed seed.

    Each step draws uniformly from the applicable instances, except that
    insertions are excluded whenever they would push the word past
    max_length.  The result is equivalent to the input in the chosen move
    set.  The history keeps one move per step, so steps is capped at
    MAX_STEPS; max_length is capped at MAX_LETTERS, so the result parses again.
    """
    if steps < 0:
        raise PreconditionError("steps must be >= 0")
    if steps > MAX_STEPS:
        raise PreconditionError(f"steps must be at most {MAX_STEPS}, got {steps}")
    if max_length < len(word.letters):
        raise PreconditionError("max_length must be at least the current word length")
    if max_length > MAX_LETTERS:
        raise PreconditionError(f"max_length must be at most {MAX_LETTERS}, got {max_length}")
    if seed < 0:  # random.Random(-s) would replay the walk of seed s
        raise PreconditionError("seed must be >= 0")
    rng = random.Random(seed)
    rels = relations_in(moveset)
    # What the set lacks (FB lacks nothing) as a tuple: its `in` needs no hash, and Enum's runs in Python.
    off = (None, *relations_in(MoveSet.FB) - rels)
    ins_kinds = [rel for rel in _R2_RELATIONS if rel in rels]
    n = word.n
    letters = list(word.letters)
    L = len(letters)
    matched = bytearray((_match_at(letters, p) or _NO_MOVE)[0] not in off for p in range(L))
    n_matches = matched.count(1)
    history: list[MoveInstance] = []
    for _ in range(steps):
        per_kind = (n - 1) * (L + 1)
        ins_total = per_kind * len(ins_kinds) if (L + 2 <= max_length and n >= 2) else 0
        total = n_matches + ins_total
        if total == 0:
            break
        r = rng.randrange(total)
        if r < n_matches:
            p = next(islice(compress(range(L), matched), r, None))
            move = _pair_move(letters[p], letters[p + 1])
            if move is _SLIDE:
                move = _window_move(tuple(letters[p:p + 3]))
            rel, i, direction, j, target = move
            m = MoveInstance(rel, i, p, direction, j)
            old_end = p + (len(target) or 2)
        else:
            q = r - n_matches
            rel = ins_kinds[q // per_kind]
            q %= per_kind
            p = q % (L + 1)
            m = MoveInstance(rel, q // (L + 1) + 1, p, _REV)
            target = relation_sides(rel, m.i)[0]
            old_end = p
        letters[p:old_end] = target
        L = len(letters)
        # A match at q reads only letters q..q+2, so only offsets [p-2, p + len(target)) change.
        lo = max(p - 2, 0)
        fresh = []
        for q in range(lo, p + len(target)):
            entry = _pair_move(letters[q], letters[q + 1]) if q + 1 < L else _NO_MOVE
            fresh.append(entry[0] not in off if entry is not _SLIDE else
                         (_match_at(letters, q) or _NO_MOVE)[0] not in off)
        n_matches += sum(fresh) - sum(matched[lo:old_end])
        matched[lo:old_end] = bytes(fresh)
        history.append(m)
    return BraidWord._trusted(n, tuple(letters)), tuple(history)


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
                rel, *_, into = _window_move(_unpack(key, n, b))
                # The packed rewrite: the XOR of source and target, 0 for a deletion, -1 for no move.
                delta = rewrites[key] = (key & (1 << b * len(into)) - 1) ^ _pack(into, n, b) if rel in rels else -1
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


def format_history(history: tuple[MoveInstance, ...]) -> str:
    """One line per step: `<relation-id> i=<i> [j=<j>] pos=<offset> dir=<fwd|rev>`."""
    lines = []
    for m in history:
        j_part = f" j={m.j}" if m.j is not None else ""
        lines.append(f"{m.relation.value} i={m.i}{j_part} pos={m.position} dir={m.direction.value}")
    return "\n".join(lines)
