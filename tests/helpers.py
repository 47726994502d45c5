"""Shared generators for randomized tests."""

from __future__ import annotations

import random

from freebraid import (
    Bigon,
    BraidWord,
    ComponentScheme,
    GaussianScheme,
    Permutation,
    QGaussianScheme,
    StrandPartition,
    is_cyclic,
    permutation,
    strand_trace,
    virtual,
)


def permutation_braid(q: Permutation) -> BraidWord:
    """A virtual-only word realizing q, built by selection sort.

    The strand destined for the leftmost unfinished slot is walked there by
    adjacent virtual transpositions, which makes the representative
    deterministic.  Concatenating it to a word gives the completed closure
    that `q_gaussian_parity` walks directly; the tests use it as the
    reference.
    """
    arrangement = list(range(1, q.n + 1))
    inv = q.inverse()
    letters: list[int] = []
    for slot in range(1, q.n + 1):
        target = inv(slot)
        c = arrangement.index(target) + 1
        for pos in range(c - 1, slot - 1, -1):
            letters.append(virtual(pos))
            arrangement[pos - 1], arrangement[pos] = arrangement[pos], arrangement[pos - 1]
    return BraidWord(q.n, tuple(letters))


def _classical_strand_sequences(word: BraidWord) -> tuple[dict[int, tuple[int, int]], list[list[int]]]:
    """Per classical letter its strand pair; per strand its classical letters in order."""
    trace = strand_trace(word)
    pair_of = {}
    seqs: list[list[int]] = [[] for _ in range(word.n + 1)]  # 1-based
    for t, x in enumerate(word.letters):
        if x > 0:
            a, b = trace[t]
            pair_of[t] = (a, b)
            seqs[a].append(t)
            seqs[b].append(t)
    return pair_of, seqs


def reference_find_bigons(word: BraidWord) -> tuple[Bigon, ...]:
    """`find_bigons` by scanning every strand's classical sequence.

    The reference for the linked builder in `normalform`.
    """
    pair_of, seqs = _classical_strand_sequences(word)
    index_on: list[dict[int, int]] = [{t: k for k, t in enumerate(seq)} for seq in seqs]
    found = set()
    for s in range(1, word.n + 1):
        seq = seqs[s]
        for k in range(len(seq) - 1):
            p, q = seq[k], seq[k + 1]
            if pair_of[p] != pair_of[q]:
                continue
            a, b = pair_of[p]
            other = b if s == a else a
            if index_on[other][q] == index_on[other][p] + 1:
                found.add((p, q))
    return tuple(Bigon((p, q), frozenset(pair_of[p])) for p, q in sorted(found))


def reference_irreducible_form_tracked(word: BraidWord) -> tuple[BraidWord, tuple[int, ...]]:
    """`irreducible_form_tracked` by rescanning the whole word after every deletion.

    The reference for the heap-and-splice reduction in `normalform`.
    """
    current = word
    kept = list(range(len(word.letters)))
    while True:
        bigons = reference_find_bigons(current)
        if not bigons:
            return current, tuple(kept)
        p, q = bigons[0].positions
        letters = current.letters
        current = BraidWord(word.n, letters[:p] + letters[p + 1:q] + letters[q + 1:])
        del kept[q]
        del kept[p]


def random_word(rng: random.Random, n: int, length: int) -> BraidWord:
    if n < 2:
        return BraidWord(n)
    letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
    return BraidWord(n, letters)


def random_cyclic_word(rng: random.Random, n: int, length: int, extra: int = 200) -> BraidWord:
    """Rejection-sample a word whose closure is a single circle.

    An n-cycle needs at least n-1 transpositions and the matching sign, so
    the requested length is bumped to the nearest feasible one.
    """
    length = max(length, n - 1)
    if (length - (n - 1)) % 2:
        length += 1
    for _ in range(extra * n):
        w = random_word(rng, n, length)
        if is_cyclic(permutation(w)):
            return w
    raise RuntimeError("failed to sample a cyclic word")


def random_cycle(rng: random.Random, n: int) -> Permutation:
    """A uniformly random n-cycle."""
    rest = list(range(2, n + 1))
    rng.shuffle(rest)
    order = [1] + rest
    image = [0] * n
    for k in range(n):
        image[order[k] - 1] = order[(k + 1) % n]
    return Permutation(tuple(image))


def random_partition(rng: random.Random, n: int) -> StrandPartition:
    first = frozenset(s for s in range(1, n + 1) if rng.random() < 0.5)
    return StrandPartition.from_first(n, first)


def completion_for(rng: random.Random, word: BraidWord) -> Permutation:
    """A permutation q making word's permutation composed with q cyclic."""
    p = permutation(word)
    c = random_cycle(rng, word.n)
    # want p.compose(q) == c, i.e. q = p^-1 then c
    return p.inverse().compose(c)


def random_scheme(rng: random.Random, word: BraidWord):
    kind = rng.choice(("gaussian", "component", "qgaussian"))
    if kind == "gaussian" and is_cyclic(permutation(word)):
        return GaussianScheme()
    if kind == "qgaussian" and word.n >= 1:
        return QGaussianScheme(completion_for(rng, word))
    return ComponentScheme(random_partition(rng, word.n))
