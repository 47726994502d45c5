"""Bigon reduction, canonical codes, and the word-problem deciders.

Two classical crossings on the same strand pair with no classical crossing
between them on either strand form a bigon; deleting the pair preserves the
word's class under the move set F.  Iterated deletion terminates, and all
maximal reduction orders agree up to strong equivalence, so irreducible
forms plus the canonical code below decide F-equality.

Reduction runs in O(L log L) for a word of L letters.  Deleting a bigon p, q
changes no other classical letter's strand pair and no order along any strand
(a virtual letter between p and q only has the pair's two strands swapped), so
it is a splice of both strands' links that moves a strand's head when its
first crossing goes (see `_reduce`).  Since F moves also keep the endpoint
permutation, F-codes are read off the reduced links, from each strand's head,
and the input's single `strand_walk` (`irreducible_code`); no reduced word is built.

Strong equivalence (all F moves except classical pair cancellation) is
decided by canonicalizing the crossing graph: virtual crossings are
invisible to it, so the data is just which crossings each strand meets, in
order, plus the endpoint permutation.  Crossings are labeled by first
encounter while scanning strand 1's sequence, then strand 2's, and so on,
which canonicalizes structure-preserving graph isomorphism in linear time.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain, compress, count

from .words import BraidWord, PreconditionError, _Value, crossings_by_strand, strand_walk


class Bigon(_Value):
    __slots__ = _fields = ("positions", "strands")


def _strand_links(word: BraidWord) -> tuple[list[int], list[int], list[int], list[int], list[int], tuple]:
    """Doubly linked classical letters along every strand, from one `strand_walk`.

    Classical letter t with strand pair a < b is node 2t on strand a and node
    2t + 1 on strand b.  Returns strand, nxt, prv and head (each node's strand
    and its neighbours on that strand, each strand s's first node at head[s];
    -1 for none), the sorted first letters p of the bigons, whose two nodes
    both have successors on one letter q, and the image.
    """
    strand, image = strand_walk(word)
    nxt = [-1] * len(strand)
    prv = nxt.copy()
    head = [-1] * (word.n + 1)
    last = head.copy()  # the last node seen on each strand
    starts = []
    for t, x in enumerate(word.letters):
        if x < 0:
            continue
        u = 2 * t
        a, b = strand[u], strand[u + 1]
        la, lb = last[a], last[b]
        if la >= 0:
            nxt[la] = u
            prv[u] = la
        else:
            head[a] = u
        if lb >= 0:
            nxt[lb] = u + 1
            prv[u + 1] = lb
            if la >> 1 == lb >> 1:
                starts.append(lb >> 1)
        else:
            head[b] = u + 1
        last[a] = u
        last[b] = u + 1
    starts.sort()
    return strand, nxt, prv, head, starts, image


def _bigon_end(nxt: list[int], p: int) -> int | None:
    """The last letter of the bigon that letter p starts, or None."""
    q = nxt[2 * p] >> 1
    return q if q >= 0 and nxt[2 * p + 1] >> 1 == q else None


def find_bigons(word: BraidWord) -> tuple[Bigon, ...]:
    """All bigons, sorted by positions.  Virtual letters never block one."""
    strand, nxt, _, _, starts, _ = _strand_links(word)
    return tuple([Bigon((p, _bigon_end(nxt, p)), frozenset(strand[2 * p:2 * p + 2])) for p in starts])


def irreducible_form(word: BraidWord) -> BraidWord:
    """Reduce leftmost bigons until none remain."""
    return irreducible_form_tracked(word)[0]


def irreducible_form_tracked(word: BraidWord) -> tuple[BraidWord, tuple[int, ...]]:
    """Irreducible form plus the surviving letters' positions in the input."""
    alive = _reduce(word)[-1]
    kept = tuple(compress(range(len(alive)), alive))
    return BraidWord._trusted(word.n, tuple(compress(word.letters, alive))), kept


def _reduce(word: BraidWord) -> tuple[list[int], list[int], tuple[int, ...], bytearray]:
    """Reduce leftmost bigons: the reduced links nxt and head, the image, and alive[t] per letter t.

    Pops candidate first letters from a min-heap, so the leftmost bigon of
    the current word is always the one deleted.  A popped letter is skipped
    if it is gone or no longer starts a bigon.  After a deletion only p's
    predecessors on its strands can start a new bigon; where p's node has
    none, the node after q's becomes its strand's head.
    """
    strand, nxt, prv, head, heap, image = _strand_links(word)
    alive = bytearray(b"\x01") * len(word.letters)
    while heap:
        p = heappop(heap)
        q = _bigon_end(nxt, p) if alive[p] else None
        if q is None:
            continue
        alive[p] = alive[q] = 0
        for side in (0, 1):
            before, after = prv[2 * p + side], nxt[2 * q + side]
            if after >= 0:
                prv[after] = before
            if before >= 0:
                nxt[before] = after
                heappush(heap, before >> 1)
            else:
                head[strand[2 * p + side]] = after
    return nxt, head, image, alive


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
    strand, image = strand_walk(word)
    return _code(word.n, image, crossings_by_strand(word, strand)[1:])


def irreducible_code(word: BraidWord) -> CanonicalCode:
    """`canonical_code(irreducible_form(word))`, read off the reduced links and the input's walk."""
    nxt, head, image, _ = _reduce(word)
    seqs = [[] for _ in range(word.n)]
    for seq, u in zip(seqs, head[1:]):
        while u >= 0:
            seq.append(u >> 1)
            u = nxt[u]
    return _code(word.n, image, seqs)


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
