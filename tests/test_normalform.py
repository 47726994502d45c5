import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings

from freebraid.words import BraidWord, PreconditionError, parse_word
from freebraid.moves import MoveSet, Relation, apply_move
from freebraid.normalform import (
    Bigon,
    _code,
    _reduce,
    canonical_code,
    f_equal,
    find_bigons,
    irreducible_code,
    irreducible_form,
    irreducible_form_tracked,
    strongly_equal,
)
from freebraid.scenarios import BRUNNIAN_TEXT

from helpers import (
    applicable_moves,
    delete_bigon,
    random_cyclic_word,
    random_word,
    reference_canonical_code,
    reference_find_bigons,
    reference_heap_reduce,
    reference_irreducible_form_tracked,
    reference_strand_trace,
)
from strategies import bigon_rich_words, braid_words


def test_find_bigons_pair_cancellation_case():
    bigons = find_bigons(BraidWord(2, (1, 1)))
    assert bigons == (Bigon((0, 1), frozenset({1, 2})),)


def test_find_bigons_ignores_virtual_letters_between():
    bigons = find_bigons(parse_word("n=4; z1 t3 z1"))
    assert bigons == (Bigon((0, 2), frozenset({1, 2})),)
    # here the virtual letter crosses the pair's own strands
    assert find_bigons(parse_word("n=2; z1 t1 z1")) == (Bigon((0, 2), frozenset({1, 2})),)


def test_find_bigons_distinct_strand_pairs_none():
    assert find_bigons(parse_word("n=3; z1 z2 z1")) == ()


def test_brunnian_has_no_bigons():
    assert find_bigons(parse_word(BRUNNIAN_TEXT)) == ()


def test_blocking_classical_letter_prevents_bigon():
    # the middle letter lies on one of the pair's strands
    word = parse_word("n=3; z1 z2 z1 z2")
    pairs = [b.positions for b in find_bigons(word)]
    assert (0, 2) not in pairs and (1, 3) not in pairs


def test_find_bigons_sorted_by_first_letter_not_in_the_order_found():
    # 1, 2 on strands {3, 4} closes before 0, 3 on {1, 2}
    assert find_bigons(parse_word("n=4; z1 z3 z3 z1")) == (
        Bigon((0, 3), frozenset({1, 2})), Bigon((1, 2), frozenset({3, 4})))
    # 1, 2 on the lower strands {1, 2} is found before 0, 3 on {3, 4}
    assert find_bigons(parse_word("n=4; z3 z1 z1 z3")) == (
        Bigon((0, 3), frozenset({3, 4})), Bigon((1, 2), frozenset({1, 2})))


def test_reduction_is_leftmost_first_where_bigons_close_out_of_order():
    # Bigons here close in another order than their first letters'; a heap of
    # bigon starts left in the order found keeps (1, 6, 10).  Found by 3000
    # random words against the heap reduction, and shrunk.
    word = parse_word("n=5; z1 z3 z4 z4 z3 z3 z4 z3 z3 z1 z1")
    assert irreducible_form_tracked(word)[1] == (5, 6, 10) == reference_irreducible_form_tracked(word)[1]
    assert list(_reduce(word)[2]) == list(reference_heap_reduce(word)[2]) == [0] * 5 + [1, 1] + [0] * 3 + [1]


def _plant_pairs(rng, word, count):
    """word with count classical pairs z_i z_i inserted, up to two virtual letters apart."""
    letters = list(word.letters)
    for _ in range(count):
        i = rng.randint(1, word.n - 1)
        at = rng.randint(0, len(letters))
        letters[at:at] = [i] + [-rng.randint(1, word.n - 1) for _ in range(rng.randint(0, 2))] + [i]
    return BraidWord(word.n, tuple(letters))


def test_one_pass_reduction_matches_the_heap_reduction():
    """`_reduce` and `irreducible_code` against the strand links and heap they replaced.

    Every word at n = 2, 3 and 4 up to 12, 8 and 6 letters (151 559 words),
    then 8-strand words of 399 to 1599 letters, as `decide` reduces, with and
    without planted classical pairs.
    """
    rng = random.Random(27)
    words = [BraidWord._trusted(n, letters) for n, max_len in ((2, 12), (3, 8), (4, 6))
             for length in range(max_len + 1)
             for letters in itertools.product([x for i in range(1, n) for x in (i, -i)], repeat=length)]
    assert len(words) == 151_559
    for length in (399, 799, 1599):
        word = random_cyclic_word(rng, 8, length)
        words += [word, _plant_pairs(rng, word, length // 40)]
    deleted = 0
    for word in words:
        seqs, image, alive = reference_heap_reduce(word)
        assert _reduce(word) == (seqs, image, alive)
        assert irreducible_code(word) == _code(word.n, image, seqs[1:])
        deleted += alive.count(0)
    assert deleted > 100_000


def test_irreducible_form_examples():
    assert irreducible_form(parse_word("n=2; z1 t1 z1")) == parse_word("n=2; t1")
    w = parse_word("n=3; z1 z2 z1")
    assert irreducible_form(w) == w
    assert irreducible_form(BraidWord(2)) == BraidWord(2)


def test_irreducible_form_tracked_positions():
    word = parse_word("n=2; z1 t1 z1 t1")
    reduced, kept = irreducible_form_tracked(word)
    assert reduced == parse_word("n=2; t1 t1")
    assert kept == (1, 3)


@settings(max_examples=500)
@given(bigon_rich_words(max_n=8, max_len=60))
def test_reduction_matches_rescan_reference(word):
    assert irreducible_form_tracked(word) == reference_irreducible_form_tracked(word)
    assert find_bigons(word) == reference_find_bigons(word)


def test_reduction_matches_rescan_reference_on_long_words():
    rng = random.Random(1600)
    for length in (1599, 1599, 1799):
        word = _plant_pairs(rng, random_cyclic_word(rng, 8, length), length // 40)
        reduced, kept = irreducible_form_tracked(word)
        assert (reduced, kept) == reference_irreducible_form_tracked(word)
        assert len(kept) < len(word)
        assert find_bigons(word) == reference_find_bigons(word)


def test_irreducible_code_matches_code_of_irreducible_form():
    rng = random.Random(400)
    for k in range(600):
        n = rng.randint(2, 9)
        letters = list(random_word(rng, n, rng.randint(0, 400)).letters)
        if k % 2:  # plant classical pairs, up to two virtual letters apart
            for _ in range(rng.randint(1, 40)):
                i = rng.randint(1, n - 1)
                at = rng.randint(0, len(letters))
                letters[at:at] = [i] + [-rng.randint(1, n - 1) for _ in range(rng.randint(0, 2))] + [i]
        if k % 5 == 0:  # no classical letter at all
            letters = [-abs(x) for x in letters]
        word = BraidWord(n, tuple(letters[:400]))
        assert irreducible_code(word) == canonical_code(irreducible_form(word))
    assert irreducible_code(BraidWord(1)) == canonical_code(BraidWord(1))


@settings(max_examples=100)
@given(bigon_rich_words(max_n=9, max_len=60))
def test_irreducible_code_matches_rescan_reference(word):
    assert irreducible_code(word) == canonical_code(reference_irreducible_form_tracked(word)[0])


def test_irreducible_code_follows_moved_heads_like_the_rescan_reference():
    """The code read from each strand's head after reduction, against the rescan reference.

    Classical pairs are planted, often at the front, around short cores that
    are often virtual only, so that reduction deletes strands' first
    crossings, empties strands and empties whole words.
    """
    rng = random.Random(17)
    seen = Counter()
    for k in range(800):
        n = (2, 3, 5, 9)[k % 4]
        letters = list(random_word(rng, n, rng.randint(0, 12)).letters)
        if k % 3 == 0:
            letters = [-abs(x) for x in letters]
        for _ in range(rng.randint(0, 6)):
            i = rng.randint(1, n - 1)
            at = rng.choice((0, rng.randint(0, len(letters))))
            letters[at:at] = [i] + [-rng.randint(1, n - 1) for _ in range(rng.randint(0, 2))] + [i]
        word = BraidWord(n, tuple(letters))
        reduced, kept = reference_irreducible_form_tracked(word)
        assert irreducible_code(word) == reference_canonical_code(reduced)
        trace, alive = reference_strand_trace(word), set(kept)
        for s in range(1, n + 1):
            on_s = [t for t, x in enumerate(letters) if x > 0 and s in trace[t]]
            left = [t for t in on_s if t in alive]
            seen["strand without classical letters"] += not on_s
            seen["head moved to a later crossing"] += bool(left) and left[0] != on_s[0]
            seen["strand emptied"] += bool(on_s) and not left
        seen["word emptied"] += any(x > 0 for x in letters) and all(x < 0 for x in reduced.letters)
    assert len(seen) == 4 and min(seen.values()) >= 50, seen


def test_canonical_code_leaves_no_tuples_behind():
    # Tuples built from a generator are resized as they grow and, once freed,
    # pile up on the free list of their final size: about 480 KiB here.
    word = parse_word("n=4; z1 z2 z3 z1 z2 z3 z1 t2 z3 z2 z1")
    canonical_code(word)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(5000):
            canonical_code(word)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 1024


@given(braid_words(min_n=2, max_n=4, max_len=10))
def test_irreducible_form_has_no_bigons_and_preserves_permutation(word):
    from freebraid.words import permutation
    reduced = irreducible_form(word)
    assert find_bigons(reduced) == ()
    assert permutation(reduced) == permutation(word)
    assert f_equal(reduced, word)


def test_canonical_code_far_commutativity_invariant():
    assert canonical_code(parse_word("n=4; z1 t3")) == canonical_code(parse_word("n=4; t3 z1"))


def test_canonical_code_ignores_virtual_pair():
    assert canonical_code(parse_word("n=2; t1 t1")) == canonical_code(BraidWord(2))


def test_canonical_code_sees_classical_pair():
    assert canonical_code(BraidWord(2, (1, 1))) != canonical_code(BraidWord(2))


def test_canonical_code_format_is_stable():
    code = canonical_code(parse_word("n=3; z1 z2 z1"))
    assert code.format() == "n=3; perm=3,2,1; m=3\ns1: 1,2\ns2: 1,3\ns3: 2,3"
    empty = canonical_code(BraidWord(2))
    assert empty.format() == "n=2; perm=1,2; m=0\ns1:\ns2:"


def test_strongly_equal_examples():
    assert strongly_equal(parse_word("n=4; z1 t3"), parse_word("n=4; t3 z1"))
    assert not strongly_equal(parse_word("n=3; z1"), parse_word("n=3; z2"))
    assert not strongly_equal(BraidWord(2, (1, 1)), BraidWord(2))
    assert f_equal(BraidWord(2, (1, 1)), BraidWord(2))


def test_strand_count_mismatch_raises():
    with pytest.raises(PreconditionError):
        strongly_equal(BraidWord(2), BraidWord(3))
    with pytest.raises(PreconditionError):
        f_equal(BraidWord(2), BraidWord(3))


def test_f_equal_examples():
    assert f_equal(parse_word("n=2; z1 t1 z1"), parse_word("n=2; t1"))
    assert not f_equal(parse_word("n=3; z1 z2 z1"), parse_word("n=3; z2 z1 z2"))


@settings(max_examples=80)
@given(braid_words(min_n=2, max_n=4, max_len=8))
def test_strong_moves_preserve_canonical_code(word):
    code = canonical_code(word)
    for m in applicable_moves(word, MoveSet.STRONG):
        assert canonical_code(apply_move(word, m)) == code


@settings(max_examples=60)
@given(braid_words(min_n=2, max_n=4, max_len=8))
def test_pair_cancellation_preserves_f_equal(word):
    for m in applicable_moves(word, MoveSet.F):
        if m.relation is Relation.CLASSICAL_R2:
            assert f_equal(apply_move(word, m), word)


def test_classical_r3_changes_f_class_on_the_standard_example():
    w = parse_word("n=3; z1 z2 z1")
    m = next(m for m in applicable_moves(w, MoveSet.FB) if m.relation is Relation.CLASSICAL_R3)
    assert not f_equal(apply_move(w, m), w)


def all_maximal_reducts(word, memo=None):
    """Canonical codes of every irreducible word reachable by bigon reductions."""
    if memo is None:
        memo = {}
    key = word.letters
    if key in memo:
        return memo[key]
    bigons = find_bigons(word)
    if not bigons:
        out = frozenset([canonical_code(word).format()])
    else:
        out = frozenset().union(*(all_maximal_reducts(delete_bigon(word, b), memo)
                                  for b in bigons))
    memo[key] = out
    return out


def test_confluence_on_random_words():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(2, 4)
        word = random_word(rng, n, rng.randint(0, 10))
        assert len(all_maximal_reducts(word)) == 1, word


def test_overlapping_bigons_give_strongly_equal_reducts():
    rng = random.Random(99)
    found = 0
    trials = 0
    while found < 40 and trials < 4000:
        trials += 1
        n = rng.randint(2, 4)
        word = random_word(rng, n, rng.randint(2, 10))
        bigons = find_bigons(word)
        for i in range(len(bigons)):
            for k in range(i + 1, len(bigons)):
                shared = set(bigons[i].positions) & set(bigons[k].positions)
                if shared:
                    found += 1
                    r1 = delete_bigon(word, bigons[i])
                    r2 = delete_bigon(word, bigons[k])
                    assert strongly_equal(irreducible_form(r1), irreducible_form(r2))
    assert found >= 40


def test_f_equal_is_an_equivalence_relation_on_samples():
    rng = random.Random(7)
    words = [random_word(rng, 3, rng.randint(0, 6)) for _ in range(25)]
    for a in words:
        assert f_equal(a, a)
        for b in words:
            assert f_equal(a, b) == f_equal(b, a)
    for a in words:
        for b in words:
            if not f_equal(a, b):
                continue
            for c in words:
                if f_equal(b, c):
                    assert f_equal(a, c)
