"""Bigon reduction, canonical codes, and the word-problem deciders.

Two classical crossings on the same strand pair with no classical crossing
between them on either strand form a bigon; deleting the pair preserves the
word's class under the move set F.  Iterated deletion terminates, and all
maximal reduction orders agree up to strong equivalence, so irreducible
forms plus the canonical code below decide F-equality.

Reduction runs in O(L) for a word of L letters, in one pass, `_reduce`.
Deleting a bigon p, q changes no other classical letter's strand pair and no
order along any strand (a virtual letter between p and q only has the pair's
two strands swapped), so the pass keeps each strand's surviving classical
letters as a stack and deletes a bigon when its second letter finds its first
on top of both stacks.  A deletion leaves no new bigon among earlier letters:
if the two new tops were one letter r, then r, p would have been a bigon when
p arrived.  Since F moves also keep the endpoint permutation, F-codes are read
off the stacks and the input's image (`irreducible_code`); no reduced word is
built.  The pass swaps positions itself, for speed, rather than read
`crossings_by_strand`'s lists, which `find_bigons` reads.

Strong equivalence (all F moves except classical pair cancellation) is
decided by canonicalizing the crossing graph: virtual crossings are
invisible to it, so the data is just which crossings each strand meets, in
order, plus the endpoint permutation.  Crossings are labeled by first
encounter while scanning strand 1's sequence, then strand 2's, and so on,
which canonicalizes structure-preserving graph isomorphism in linear time.
"""

from __future__ import annotations

from itertools import chain, compress, count

from .words import BraidWord, PreconditionError, _image, _Value, crossings_by_strand


class Bigon(_Value):
    __slots__ = _fields = ("positions", "strands")


def find_bigons(word: BraidWord) -> tuple[Bigon, ...]:
    """All bigons, sorted by positions.  Virtual letters never block one.

    A bigon is a pair of classical letters p, q with q right after p on the
    lists of both their strands (`crossings_by_strand`).  Strand b's list is
    read after the lists of the strands below it, so a pair found again on b
    is a bigon of strands a < b.  Bigons are found in order of their upper
    strand, then sorted by their first letter (`n=4; z3 z1 z1 z3` finds
    1, 2 on strands 1, 2 before 0, 3 on strands 3, 4).
    """
    lower = {}  # (p, q) -> the first strand on whose list q follows p
    found = []
    for b, seq in enumerate(crossings_by_strand(word)[0]):
        for pair in zip(seq, seq[1:]):
            if (a := lower.setdefault(pair, b)) != b:
                found.append((*pair, a, b))
    found.sort()
    return tuple([Bigon((p, q), frozenset((a, b))) for p, q, a, b in found])


def irreducible_form(word: BraidWord) -> BraidWord:
    """Reduce leftmost bigons until none remain."""
    return irreducible_form_tracked(word)[0]


def irreducible_form_tracked(word: BraidWord) -> tuple[BraidWord, tuple[int, ...]]:
    """Irreducible form plus the surviving letters' positions in the input."""
    alive = _reduce(word)[-1]
    kept = tuple(compress(range(len(alive)), alive))
    return BraidWord._trusted(word.n, tuple(compress(word.letters, alive))), kept


def _reduce(word: BraidWord) -> tuple[list[list[int]], tuple[int, ...], bytearray]:
    """Leftmost-first reduction in one pass: each strand's surviving classical letters, the image, and alive[t].

    A virtual letter is only a swap.  Classical letter t on strands a and b
    ends a bigon p, t when both strands' stacks end in p: both pop and p and t
    die; otherwise t is pushed on both.  These are the pairs that deleting the
    leftmost bigon first deletes, by induction on the letters.  In the
    leftmost-first reduction of w + t, t only gives a successor to the last
    letters of a and b, so until p, t is the leftmost bigon the steps are w's.
    When it is, every other bigon ends after p, so off strands a and b, and so
    does every bigon that a later deletion makes (it ends after the deleted
    pair); the remaining steps are w's, which never reach p.  So p, t goes
    exactly when a and b end in one letter p in w's irreducible form.  Tests
    check this against the heap reduction that it replaced, kept as
    `tests/helpers.reference_heap_reduce`, on every word at n = 2, 3 and 4
    up to 12, 8 and 6 letters.
    """
    pos = list(range(word.n + 1))  # 1-based: the strand at each position
    stacks = [[] for _ in pos]
    alive = bytearray(b"\x01") * len(word.letters)
    for t, x in enumerate(word.letters):
        if x < 0:
            x = -x
            pos[x], pos[x + 1] = pos[x + 1], pos[x]
            continue
        a, b = pos[x], pos[x + 1]
        pos[x], pos[x + 1] = b, a
        sa, sb = stacks[a], stacks[b]
        if sa and sb and (p := sa[-1]) == sb[-1]:
            sa.pop()
            sb.pop()
            alive[p] = alive[t] = 0
        else:
            sa.append(t)
            sb.append(t)
    return stacks, _image(pos), alive


class CanonicalCode(_Value):
    """Canonical form of a word's crossing graph; equal codes decide strong equivalence."""

    __slots__ = _fields = ("n", "permutation", "crossing_count", "strand_sequences")

    def format(self) -> str:
        """Byte-stable serialization, one strand per line after the header."""
        head = (f"n={self.n}; perm={','.join(map(str, self.permutation))}; "
                f"m={self.crossing_count}")
        lines = [head]
        for k, seq in enumerate(self.strand_sequences, start=1):
            body = ",".join(map(str, seq))
            lines.append(f"s{k}: {body}" if body else f"s{k}:")
        return "\n".join(lines)


def canonical_code(word: BraidWord) -> CanonicalCode:
    seqs, image = crossings_by_strand(word)
    return _code(word.n, image, seqs[1:])


def irreducible_code(word: BraidWord) -> CanonicalCode:
    """`canonical_code(irreducible_form(word))`, read off the reduced strands' stacks and the input's image."""
    stacks, image, _ = _reduce(word)
    return _code(word.n, image, stacks[1:])


def _code(n: int, image: tuple[int, ...], seqs: list[list[int]]) -> CanonicalCode:
    """The code of the endpoint map image and each strand's classical letter positions, strands 1..n."""
    label = dict(zip(dict.fromkeys(chain.from_iterable(seqs)), count(1)))  # in order of first encounter
    return CanonicalCode(n, image, len(label), tuple([tuple([label[t] for t in seq]) for seq in seqs]))


def strongly_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Equality under all F moves except classical pair cancellation."""
    if w1.n != w2.n:
        raise PreconditionError(f"strand counts differ: {w1.n} vs {w2.n}")
    return canonical_code(w1) == canonical_code(w2)


def f_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Equality under the full move set F: compare irreducible forms."""
    if w1.n != w2.n:
        raise PreconditionError(f"strand counts differ: {w1.n} vs {w2.n}")
    return irreducible_code(w1) == irreducible_code(w2)
