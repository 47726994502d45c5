"""Rewriting moves on braid words.

The catalogue covers pair cancellations (R2), virtualization, far
commutativity, and the virtual / semivirtual / classical triple slides
(R3).  The move set F admits everything except the classical R3; FB admits
all of it; STRONG is F without the classical R2.  `relation_sides` is the
one list of relations: `_window_move` finds the move at an offset by
searching it, and a move set only filters that move.  Every relation
preserves the endpoint permutation.

`_discover`, the oracle's search, runs on packed words, because it hashes
millions of them.  On n strands, letter x becomes the code x + n, which lies
in 1 .. 2n - 1 and so is never 0.  Each code takes b = (2n - 1).bit_length()
bits, letter 0 in the lowest b, and a word is the one int they make: the
empty word is 0, a word's length is its bit length divided by b, rounded
up, and equal ints are equal letter sequences.  Its rewrites of packed
3-letter windows are kept across searches in one memo per (n, move set),
for the last 8 pairs; a search empties a memo it leaves above 4096 entries.
One memo of 4096 entries on 10 000 strands holds about 0.37 MiB.

`scramble` walks a list of letters.  Bit q of one int is set when a move of
the set starts at offset q.  One rescan writes the bits, the first over
every offset and each later one over the window a move changed, spliced in
by shifts.  A step draws the r-th set bit by halving the int, so at the
letter cap a step costs O(L/30) digit operations in C and one list memmove.
On short words a step's time goes to the rescan, the draw and building its
`MoveInstance`, whose slots are written by their descriptors' setters.  The
moves that windows start are kept across calls in `_pair_moves`, for every
move set and strand count: a pair maps to its move, or to _SLIDE when |a|
and |b| are adjacent, and a slide candidate's move is keyed by the pair and
its third letter.  A miss on a full cache (4096 entries, at most 1.48 MiB
when its test runs alone, less inside the whole suite) empties it, so a hit
does no bookkeeping.  Only a miss runs `_window_move`.
"""

from __future__ import annotations

import random
from enum import Enum
from functools import lru_cache

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
_FAR_COMM = (Relation.FAR_COMM_ZZ, Relation.FAR_COMM_ZT, Relation.FAR_COMM_TT)


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
    if relation in _FAR_COMM:
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
        _set_relation(self, relation)
        _set_i(self, i)
        _set_position(self, position)
        _set_direction(self, direction)
        _set_j(self, j)

    def sides(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(source, target) letter sequences, oriented by direction."""
        return _oriented_sides(self.relation, self.i, self.direction, self.j)


# The slots' own setters: a call skips the lookup through the type that object.__setattr__ makes.
_set_relation, _set_i, _set_position, _set_direction, _set_j = (
    MoveInstance.__dict__[f].__set__ for f in MoveInstance._fields)
_CLASSICAL_R2 = Relation.CLASSICAL_R2
_FWD, _REV = Direction.LEFT_TO_RIGHT, Direction.RIGHT_TO_LEFT


def apply_move(word: BraidWord, m: MoveInstance) -> BraidWord:
    """The word with move m applied: its source, which must sit at offset m.position, replaced by its target."""
    for idx in (m.i, m.j):
        if idx is not None and not (1 <= idx <= word.n - 1):
            raise PreconditionError(f"move index {idx} out of range on {word.n} strands")
    letters, p, (source, target) = word.letters, m.position, m.sides()
    if not (0 <= p <= len(letters) - len(source)):
        raise PreconditionError(f"move position {p} out of range")
    if letters[p:p + len(source)] != source:
        raise PreconditionError(f"{m.relation.value} ({m.direction.value}) does not match at position {p}")
    return BraidWord(word.n, letters[:p] + target + letters[p + len(source):])


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


# The signs of a source's first two letters -> the (relation, direction) pairs whose sources have them.
_WINDOW_MOVES: dict[tuple[bool, bool], list[tuple[Relation, Direction]]] = {}
for _rel in Relation:
    for _d in Direction:
        if _source := _oriented_sides(_rel, 2, _d, 4)[0]:  # an R2 insertion's source is empty
            _WINDOW_MOVES.setdefault((_source[0] > 0, _source[1] > 0), []).append((_rel, _d))


def _window_move(window: tuple[int, ...]) -> tuple:
    """The non-insertion move at offset 0 of window as `(relation, i, direction, j, target)`, or _NO_MOVE.

    The move is read out of `relation_sides`.  A source's first letter is
    ±i when it is read left to right, and its second letter when it is read
    right to left; for far commutativity j is the other of the two.  So the
    window's first two letters give each (relation, direction) pair that
    `_WINDOW_MOVES` lists under their signs one candidate, and the move is
    the candidate whose source the window starts with: its first
    len(target) letters, or the first two for a deletion.  At most one
    relation matches: pair cancellation needs b == a, virtualization b == -a,
    far commutativity |a| and |b| at least 2 apart and every triple slide
    |a| and |b| adjacent, and among the slides c == -a sets the semivirtual
    one apart.  Offsets 0, 1, ... in turn therefore give the scan order that
    `scramble` draws from and `_discover` discovers in.
    """
    if len(window) < 2:
        return _NO_MOVE
    a, b = window[0], window[1]
    for rel, direction in _WINDOW_MOVES[a > 0, b > 0]:
        i, j = (abs(a), abs(b)) if direction is _FWD else (abs(b), abs(a))
        j = j if rel in _FAR_COMM else None
        try:
            source, target = _oriented_sides(rel, i, direction, j)
        except ValueError:  # far commutativity of indices less than 2 apart, or of like kinds out of order
            continue
        if window[:len(source)] == source:
            return rel, i, direction, j, tuple(window[window.index(x)] if x in window else x
                                               for x in target)  # the window's ints
    return _NO_MOVE


_NO_MOVE = (None, None, None, None, None)
_SLIDE = "slide candidate"
_PAIR_CACHE_SIZE = 4096
_WINDOW_MEMO_SIZE = 4096  # a search empties a window memo it leaves larger than this
# A pair of letters, or a slide candidate's pair and third letter -> `_pair_move` of that key,
# for every move set and strand count
_pair_moves: dict[tuple[int, ...], tuple | str] = {}


def _pair_move(key: tuple[int, ...]) -> tuple | str:
    """On a miss of `_pair_moves`: cache and return _SLIDE for a pair whose |a| and |b| are adjacent,
    else `_window_move(key)`; key is a pair, or a slide candidate's pair and third letter.
    """
    if len(_pair_moves) >= _PAIR_CACHE_SIZE:
        _pair_moves.clear()
    slide = len(key) == 2 and abs(abs(key[0]) - abs(key[1])) == 1
    move = _pair_moves[key] = _SLIDE if slide else _window_move(key)
    return move


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
    getrandbits = random.Random(seed).getrandbits
    rels = relations_in(moveset)
    # What the set lacks (FB lacks nothing) as a tuple: its `in` needs no hash, and Enum's runs in Python.
    off = (None, *relations_in(MoveSet.FB) - rels)
    ins_kinds = [rel for rel in _R2_RELATIONS if rel in rels]
    n = word.n
    letters = list(word.letters)
    L = len(letters)
    flags = 0  # bit q is set when a move of the set starts at offset q
    history: list[MoveInstance] = []
    pair_moves = _pair_moves
    lo, old_end, hi = 0, 0, L  # the first rescan is the initial scan of every offset
    for _ in range(steps):
        # Flags [lo, old_end) become those of offsets [lo, hi), joined as binary digits from hi - 1 down.
        bits = ["0"]
        for q in range(hi - 1, lo - 1, -1):
            move = (pair_moves.get(pair := (letters[q], letters[q + 1])) or _pair_move(pair)
                    if q + 1 < L else _NO_MOVE)
            if move is _SLIDE:
                move = (pair_moves.get(key := (*pair, letters[q + 2])) or _pair_move(key)
                        if q + 2 < L else _NO_MOVE)
            bits.append("0" if move[0] in off else "1")
        flags = flags & (1 << lo) - 1 | int("".join(bits), 2) << lo | flags >> old_end << hi
        n_matches = flags.bit_count()
        per_kind = (n - 1) * (L + 1)  # 0 on one strand
        total = n_matches + (per_kind * len(ins_kinds) if L + 2 <= max_length else 0)
        if total == 0:
            break
        r = getrandbits(k := total.bit_length())
        while r >= total:  # the rejection loop of randrange(total) in CPython 3.10-3.13, so seeds replay
            r = getrandbits(k)
        if r < n_matches:
            x, p = flags, 0  # the r-th set bit of x is at offset p + its position: halve x until it is 1
            while h := x.bit_length() >> 1:
                c = (low := x & (1 << h) - 1).bit_count()
                if r < c:
                    x = low
                else:
                    r, x, p = r - c, x >> h, p + h
            move = pair_moves.get(pair := (letters[p], letters[p + 1])) or _pair_move(pair)
            if move is _SLIDE:
                move = pair_moves.get(key := (*pair, letters[p + 2])) or _pair_move(key)
            rel, i, direction, j, target = move
            m = MoveInstance(rel, i, p, direction, j)
            old_end = p + (len(target) or 2)
        else:
            q = r - n_matches
            rel = ins_kinds[q // per_kind]
            i, p = divmod(q % per_kind, L + 1)
            i += 1
            m = MoveInstance(rel, i, p, _REV)
            target = (i, i) if rel is _CLASSICAL_R2 else (-i, -i)
            old_end = p
        letters[p:old_end] = target
        L = len(letters)
        # A match at q reads only letters q..q+2, so only offsets [p-2, p + len(target)) change.
        lo, hi = max(p - 2, 0), p + len(target)
        history.append(m)
    return BraidWord._trusted(n, tuple(letters)), tuple(history)


@lru_cache(maxsize=8)
def _window_memo(n: int, moveset: MoveSet) -> dict[int, int]:
    """`_discover`'s rewrites of packed windows on n strands under moveset, kept across searches.

    A rewrite holds the move set's filter, and a key decodes by n, not by b alone.
    """
    return {}


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
    pairs = None  # the packed R2 pairs, built at the first node that can take an insertion
    # The match at offset p depends only on the window of letters p..p+2,
    # so it is found, oriented and checked once per distinct window, and kept for later searches.
    rewrites = _window_memo(n, moveset)
    seen = {origin}
    try:
        # BFS visits words in discovery order, so order doubles as the queue.
        for w in order:
            length = -(-w.bit_length() // b)
            for s in range(0, b * (length - 1), b):
                key = w >> s & mask3
                delta = rewrites.get(key)
                if delta is None:
                    rel, *_, into = _window_move(_unpack(key, n, b))
                    # The packed rewrite: the XOR of source and target, 0 for a deletion, -1 for no move.
                    delta = rewrites[key] = ((key & (1 << b * len(into)) - 1) ^ _pack(into, n, b)
                                             if rel in rels else -1)
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
                if pairs is None:
                    pairs = [_pack(relation_sides(rel, i)[0], n, b) for rel in _R2_RELATIONS if rel in rels
                             for i in range(1, n)]
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
    finally:
        if len(rewrites) > _WINDOW_MEMO_SIZE:
            rewrites.clear()


def format_history(history: tuple[MoveInstance, ...]) -> str:
    """One line per step: `<relation-id> i=<i> [j=<j>] pos=<offset> dir=<fwd|rev>`."""
    lines = []
    for m in history:
        j_part = f" j={m.j}" if m.j is not None else ""
        lines.append(f"{m.relation.value} i={m.i}{j_part} pos={m.position} dir={m.direction.value}")
    return "\n".join(lines)
