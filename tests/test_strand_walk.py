"""The walks along the strands of a word, and what reads strands, against walks of their own.

`strand_trace` and `permutation` are checked against `helpers.reference_strand_trace`
and `helpers.reference_permutation`, which walk the word themselves.  Everything
else reads strands from one pass, `crossings_by_strand`, or swaps positions in
its own pass, `normalform._reduce`.  Both are checked against forms over those
references, kept in `helpers`: the two-pass form of the first, and the strand
links and heap that the second replaced.  So are the codes, the chord diagrams,
the parities and the trivial components of a closure.
"""

import random
import re

import pytest

from freebraid.words import (
    BraidWord,
    Permutation,
    PreconditionError,
    crossings_by_strand,
    permutation,
    strand_trace,
)
from freebraid.normalform import _reduce, canonical_code, irreducible_code
from freebraid.scenarios import trivial_components
from freebraid.parity import (
    Parity,
    chord_diagram,
    component_parity,
    gaussian_parity,
    q_gaussian_parity,
)

from helpers import (
    permutation_braid,
    random_cycle,
    random_partition,
    random_word,
    reference_canonical_code,
    reference_crossings_by_strand,
    reference_heap_reduce,
    reference_irreducible_form_tracked,
    reference_parities,
    reference_permutation,
    reference_strand_trace,
    reference_trivial_components,
)

def _words(seed: int, count: int, max_len: int = 2000):
    """Random words on 1 to 12 strands of 0 to max_len letters.

    Every third word is virtual only and every third classical only; about
    half are closed to one circle by a virtual permutation braid.
    """
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(1, 12)
        length = rng.choice((0, 1, 2, rng.randint(3, 60), rng.randint(60, 400), rng.randint(400, max_len)))
        length = min(length, max_len)
        letters = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)] if n > 1 else []
        if k % 3 == 1:
            letters = [-abs(x) for x in letters]
        elif k % 3 == 2:
            letters = [abs(x) for x in letters]
        word = BraidWord(n, tuple(letters))
        if rng.random() < 0.5:
            word = word * permutation_braid(reference_permutation(word).inverse().compose(random_cycle(rng, n)))
        yield rng, word


def test_words_cover_each_kind_and_length():
    words = [w for _, w in _words(1, 240)]
    assert {w.n for w in words} == set(range(1, 13))
    assert max(len(w) for w in words) > 1500 and min(len(w) for w in words) == 0
    assert any(w.letters and all(x < 0 for x in w.letters) for w in words)
    assert any(w.letters and all(x > 0 for x in w.letters) for w in words)


def test_strand_trace_and_permutation_match_reference_walks():
    for _, word in _words(1, 240):
        trace = strand_trace(word)
        assert trace == reference_strand_trace(word) and len(trace) == len(word)
        assert permutation(word) == reference_permutation(word)


def test_codes_match_reference():
    for _, word in _words(2, 150):
        assert canonical_code(word) == reference_canonical_code(word)
    # The rescan reference reduction takes quadratic time: most of these words are
    # shorter, and the two long ones have many strands, so fewer bigons.
    rng = random.Random(3)
    long_words = [random_word(rng, n, 2000) for n in (10, 12)]
    for word in [w for _, w in _words(3, 150, max_len=400)] + long_words:
        assert irreducible_code(word) == reference_canonical_code(reference_irreducible_form_tracked(word)[0])


def _fused_pass_words():
    """The empty word, n = 1, virtual-only words, n = 10 000 with a few letters,
    8-strand words of 1599 letters and the random words of `_words`."""
    rng = random.Random(6)
    yield BraidWord(1)
    yield BraidWord(5)
    for n in (2, 3, 8):
        yield BraidWord(n, tuple(-rng.randint(1, n - 1) for _ in range(rng.randint(1, 300))))
    yield BraidWord(10_000, (1, 9999, -5000, 5001, -2, 3, 9999, -9999, 9999, 1))
    yield BraidWord(10_000, (-9999, -1, -5000))
    for _ in range(4):
        yield random_word(rng, 8, 1599)
    yield from (w for _, w in _words(7, 120))


def test_fused_passes_match_their_two_pass_references():
    bigons = 0
    for word in _fused_pass_words():
        seqs, image = crossings_by_strand(word)
        assert seqs == reference_crossings_by_strand(word) and len(seqs) == word.n + 1
        assert image == reference_permutation(word).image

        stacks, image, alive = _reduce(word)
        assert (stacks, image, alive) == reference_heap_reduce(word)
        assert len(stacks) == word.n + 1 and len(alive) == len(word)
        bigons += alive.count(0) // 2
    assert bigons > 100


def _check(run, count, expected, failure):
    """run() returns expected, or fails with the reference's cycle count if that is not 1."""
    if count != 1:
        with pytest.raises(PreconditionError, match=f"^{re.escape(failure.format(count))}$"):
            run()
        return
    got = run()
    assert got == expected
    assert list(got) == list(expected)


def test_chords_and_parities_match_reference():
    cyclic = 0
    for rng, word in _words(4, 240):
        count, gauss, parities = reference_parities(word)
        cyclic += count == 1
        _check(lambda: chord_diagram(word).gauss_sequence, count, gauss,
               "closure has {} components; the chord diagram requires a cyclic permutation")
        _check(lambda: gaussian_parity(word).parities, count, parities,
               "closure has {} components; Gaussian parity requires a cyclic permutation")
        completing = reference_permutation(word).inverse().compose(random_cycle(rng, word.n))
        image = list(range(1, word.n + 1))
        rng.shuffle(image)
        for q in (completing, Permutation(tuple(image))):
            count, _, parities = reference_parities(word, q)
            _check(lambda: q_gaussian_parity(word, q).parities, count, parities,
                   "completed permutation has {} cycles; the completion must make it cyclic")
        partition = random_partition(rng, word.n)
        trace = reference_strand_trace(word)
        expected = {t: Parity.ODD if partition.crosses(*trace[t]) else Parity.EVEN
                    for t, x in enumerate(word.letters) if x > 0}
        got = component_parity(word, partition).parities
        assert got == expected and list(got) == list(expected)
    assert 100 < cyclic < 240


def test_trivial_components_match_reference():
    """Closure cycles that meet no classical letter, on words where some cycles do and some do not."""
    mixed = 0
    for _, word in _words(8, 240, max_len=400):
        expected = reference_trivial_components(word)
        assert trivial_components(word, permutation(word).cycles()) == expected
        mixed += bool(expected) and any(x > 0 for x in word.letters)
    assert mixed > 10
