"""Chord diagrams of closures and the parity schemes built on them.

When the closure of a word is a single circle, walking it (down each
strand, then from bottom endpoint j to top endpoint j) visits every
classical crossing twice; connecting the two visits gives the chord
diagram.  Virtual crossings are disregarded.  A crossing's Gaussian parity
is the number of chords linked with its chord, mod 2.  Every chord nested
inside a chord with ends a < b contributes two endpoints between them, so
that count is congruent to b - a - 1: the crossing is odd iff the
endpoint gap b - a is even, and even iff one end has an even index and
the other an odd one.  The Gaussian schemes intersect the sets of the
even-index and the odd-index entries of the Gauss sequence, built from one
pass of `crossings_by_strand` (which swaps positions itself, for speed) and
with no `ChordDiagram`.

Two further schemes avoid the cyclicity requirement: the component scheme
marks a crossing odd when its strands lie in different parts of a fixed
partition, and the completed-closure scheme closes the word through a
completing permutation before reading off Gaussian parities.

Each scheme's `_evens(word)` is the set of even classical letter positions,
which the bracket reads; its `ParityAssignment` is built from the same set.
"""

from __future__ import annotations

from enum import Enum

from .words import (
    BraidWord,
    Permutation,
    PreconditionError,
    _ascii_int,
    _checked_strand_count,
    _Value,
    crossings_by_strand,
)


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


class ChordDiagram(_Value):
    """A cyclic sequence over crossing identities, each appearing twice; chord_of maps each
    crossing to its two endpoints."""

    _fields = ("gauss_sequence",)
    __slots__ = _fields + ("chord_of",)

    def __init__(self, gauss_sequence: tuple[int, ...]):
        chords: dict[int, list[int]] = {}
        for k, c in enumerate(gauss_sequence):
            chords.setdefault(c, []).append(k)
        for c, ends in chords.items():
            if len(ends) != 2:
                raise ValueError(f"crossing {c} appears {len(ends)} times in the gauss sequence")
        super().__init__(gauss_sequence)
        object.__setattr__(self, "chord_of", {c: (e[0], e[1]) for c, e in chords.items()})


def linked(d: ChordDiagram, a: int, b: int) -> bool:
    """True iff chord b's endpoints separate chord a's on the core circle."""
    if a == b:
        raise ValueError("linkedness needs two distinct crossings")
    try:
        a1, a2 = d.chord_of[a]
        b1, b2 = d.chord_of[b]
    except KeyError as e:
        raise PreconditionError(f"unknown crossing {e.args[0]}") from e
    return (a1 < b1 < a2) != (a1 < b2 < a2)


def _gauss_sequence(word: BraidWord, q: Permutation | None, failure: str) -> list[int]:
    """Positions of the classical letters met walking strands 1, walk(1), walk(walk(1)), ...

    walk is the word's endpoint map, then q if given.  `failure`, formatted
    with the cycle count, is raised when walk is not a single n-cycle.
    """
    if q is not None and word.n != q.n:
        raise PreconditionError(f"completion acts on {q.n} strands, word has {word.n}")
    on_strand, image = crossings_by_strand(word)
    walk = Permutation._trusted(image) if q is None else Permutation._trusted(image).compose(q)
    count = len(walk.cycles())
    if count != 1:
        raise PreconditionError(failure.format(count))
    gauss: list[int] = []
    strand = 1
    for _ in range(word.n):
        gauss += on_strand[strand]
        strand = walk(strand)
    return gauss


def chord_diagram(word: BraidWord) -> ChordDiagram:
    """Chord diagram of the closure; crossings are identified by letter position."""
    return ChordDiagram(tuple(_gauss_sequence(
        word, None,
        "closure has {} components; the chord diagram requires a cyclic permutation")))


class ParityAssignment(_Value):
    """One parity per classical letter position of a specific word."""

    __slots__ = _fields = ("scheme", "parities")

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(sorted(self.parities))

    def parity_of(self, position: int) -> Parity:
        try:
            return self.parities[position]
        except KeyError:
            raise PreconditionError(f"position {position} carries no parity") from None

    def is_odd(self, position: int) -> bool:
        return self.parity_of(position) is Parity.ODD

    def all_odd(self) -> bool:
        return all(v is Parity.ODD for v in self.parities.values())


_NOT_CYCLIC = "closure has {} components; Gaussian parity requires a cyclic permutation"
_NOT_COMPLETED = "completed permutation has {} cycles; the completion must make it cyclic"


def _linked_evens(gauss: list[int]) -> set[int]:
    """The crossings met at an even index and at an odd one of the Gauss sequence: the even ones."""
    return set(gauss[0::2]) & set(gauss[1::2])


def _assignment(scheme: str, positions, even: set[int]) -> ParityAssignment:
    """Odd at each of positions, in their first-encounter order, except the even ones."""
    parities = dict.fromkeys(positions, Parity.ODD)
    parities.update(dict.fromkeys(even, Parity.EVEN))
    return ParityAssignment(scheme, parities)


def gaussian_parity(word: BraidWord) -> ParityAssignment:
    """Parity by chord linking on the closure; needs a one-circle closure."""
    gauss = _gauss_sequence(word, None, _NOT_CYCLIC)
    return _assignment("gaussian", gauss, _linked_evens(gauss))


def q_gaussian_parity(word: BraidWord, q: Permutation) -> ParityAssignment:
    """Gaussian parity of the closure joining bottom endpoint j to top endpoint q(j).

    This is the closure of word extended by a virtual braid realizing q;
    the extension contributes no chords, so the walk follows the composite
    permutation over the word's own classical letters.
    """
    gauss = _gauss_sequence(word, q, _NOT_COMPLETED)
    return _assignment(f"qgaussian:Q={','.join(map(str, q.image))}", gauss, _linked_evens(gauss))


class StrandPartition(_Value):
    """A two-part split of the strand identities 1..n (either part may be empty)."""

    __slots__ = _fields = ("first", "second")

    def __init__(self, first: frozenset[int], second: frozenset[int]):
        first, second = frozenset(first), frozenset(second)
        if first & second:
            raise ValueError("partition parts must be disjoint")
        union = first | second
        if union != set(range(1, len(union) + 1)):
            raise ValueError("partition parts must cover 1..n exactly")
        super().__init__(first, second)

    @classmethod
    def from_first(cls, n: int, first) -> "StrandPartition":
        _checked_strand_count(n, ValueError, least=0)
        part = set()
        for strand in first:
            if strand in part:
                raise ValueError(f"strand {strand} given twice")
            part.add(strand)
        first = frozenset(part)
        if not first <= set(range(1, n + 1)):
            raise ValueError(f"part {sorted(first)} is not a subset of 1..{n}")
        return cls(first, frozenset(range(1, n + 1)) - first)

    @property
    def n(self) -> int:
        return len(self.first) + len(self.second)

    def crosses(self, a: int, b: int) -> bool:
        return (a in self.first) != (b in self.first)


def _part_letters(word: BraidWord, partition: StrandPartition) -> tuple[set[int], set[int]]:
    """The classical letters with a strand in the first part, and those with one in the second: a letter
    is in both iff it is odd, so the symmetric difference is the set of even letters."""
    if partition.n != word.n:
        raise PreconditionError(f"partition covers {partition.n} strands, word has {word.n}")
    on_strand = crossings_by_strand(word)[0]
    return (set().union(*[on_strand[s] for s in partition.first]),
            set().union(*[on_strand[s] for s in partition.second]))


def component_parity(word: BraidWord, partition: StrandPartition) -> ParityAssignment:
    """Odd iff a crossing's two strands lie in different partition parts."""
    first, second = _part_letters(word, partition)
    names = ",".join(map(str, sorted(partition.first)))
    return _assignment(f"component:N1={names}", sorted(first | second), first ^ second)


class GaussianScheme(_Value):
    __slots__ = _fields = ()

    def assignment(self, word: BraidWord) -> ParityAssignment:
        return gaussian_parity(word)

    def _evens(self, word: BraidWord) -> set[int]:
        return _linked_evens(_gauss_sequence(word, None, _NOT_CYCLIC))


class ComponentScheme(_Value):
    __slots__ = _fields = ("partition",)

    def assignment(self, word: BraidWord) -> ParityAssignment:
        return component_parity(word, self.partition)

    def _evens(self, word: BraidWord) -> set[int]:
        first, second = _part_letters(word, self.partition)
        return first ^ second


class QGaussianScheme(_Value):
    __slots__ = _fields = ("completion",)

    def assignment(self, word: BraidWord) -> ParityAssignment:
        return q_gaussian_parity(word, self.completion)

    def _evens(self, word: BraidWord) -> set[int]:
        return _linked_evens(_gauss_sequence(word, self.completion, _NOT_COMPLETED))


ParityScheme = GaussianScheme | ComponentScheme | QGaussianScheme


def _ascii_int_list(body: str, failure: str) -> list[int]:
    """The integers of a comma list of ASCII digit strings; an empty body is the empty list."""
    values = [_ascii_int(tok) for tok in body.split(",")] if body else []
    if None in values:
        raise PreconditionError(failure)
    return values


def parse_scheme(text: str, n: int) -> ParityScheme:
    """Parse a scheme designation: `gaussian`, `component:N1=...`, `qgaussian:Q=...`; no spaces around it."""
    if text == "gaussian":
        return GaussianScheme()
    if text.startswith("component:N1="):
        members = _ascii_int_list(text[len("component:N1="):], f"bad partition list in {text!r}")
        try:
            return ComponentScheme(StrandPartition.from_first(n, members))
        except ValueError as e:
            raise PreconditionError(f"bad partition in {text!r}: {e}") from None
    if text.startswith("qgaussian:Q="):
        image = tuple(_ascii_int_list(text[len("qgaussian:Q="):], f"bad permutation image in {text!r}"))
        if len(image) != n:
            raise PreconditionError(f"completion image has {len(image)} entries, expected {n}")
        try:
            return QGaussianScheme(Permutation(image))
        except ValueError as e:
            raise PreconditionError(f"bad completion in {text!r}: {e}") from None
    raise PreconditionError(f"unknown parity scheme {text!r}")
