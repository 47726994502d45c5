import tracemalloc

import pytest

import freebraid.moves
from freebraid.words import BraidWord, PreconditionError, parse_word
from freebraid.moves import MoveSet, scramble
from freebraid.normalform import f_equal, strongly_equal
from freebraid.parity import GaussianScheme
from freebraid.bracket import brackets_equal
from freebraid.oracle import OracleVerdict, bfs_ball, oracle_equal

from helpers import oracle_disagreements, random_scheme, random_word, reference_bfs_ball, reference_oracle_equal
import random


def test_ball_contains_triple_slide_image_under_fb():
    ball = bfs_ball(parse_word("n=3; z1 z2 z1"), MoveSet.FB, 5)
    assert parse_word("n=3; z2 z1 z2") in ball


def test_strong_ball_respects_permutation():
    ball = bfs_ball(parse_word("n=3; z1"), MoveSet.STRONG, 5)
    assert parse_word("n=3; z2") not in ball


def test_f_ball_from_empty_word_contains_insertions():
    ball = bfs_ball(BraidWord(2), MoveSet.F, 2)
    assert BraidWord(2, (1, 1)) in ball
    assert BraidWord(2, (-1, -1)) in ball


def test_ball_members_have_the_origin_strand_count():
    """The same letters on another strand count are another word."""
    ball = bfs_ball(BraidWord(2, (1, 1)), MoveSet.F, 4)
    assert BraidWord(2, (1, 1)) in ball
    assert BraidWord(3, (1, 1)) not in ball


def test_ball_members_deterministic_and_start_at_origin():
    w = parse_word("n=3; z1 t2")
    b1 = bfs_ball(w, MoveSet.F, 6)
    b2 = bfs_ball(w, MoveSet.F, 6)
    assert b1.members == b2.members
    assert b1.members[0] == w
    assert not b1.cap_exceeded


def test_ball_bound_validation():
    with pytest.raises(PreconditionError):
        bfs_ball(parse_word("n=2; z1 z1"), MoveSet.F, 1)


def test_oracle_equal_examples():
    assert oracle_equal(BraidWord(2, (1, 1)), BraidWord(2), MoveSet.F, 4) is OracleVerdict.EQUAL
    assert oracle_equal(parse_word("n=3; z1 z2 z1"), parse_word("n=3; z2 z1 z2"),
                        MoveSet.F, 7) is OracleVerdict.NOT_FOUND_WITHIN_BOUND
    assert oracle_equal(parse_word("n=3; z1 z2 z1"), parse_word("n=3; z2 z1 z2"),
                        MoveSet.FB, 5) is OracleVerdict.EQUAL


def test_oracle_cap_exceeded_is_reported():
    verdict = oracle_equal(BraidWord(3), parse_word("n=3; z1 z2"), MoveSet.F, 9, node_cap=10)
    assert verdict is OracleVerdict.CAP_EXCEEDED
    ball = bfs_ball(BraidWord(3), MoveSet.F, 9, node_cap=10)
    assert ball.cap_exceeded
    assert len(ball) <= 10


def test_node_cap_bounds_memory_on_many_strands():
    """A capped search holds little more than the words it discovered.

    On n strands a node has 2(n - 1) insertions per offset, made from one
    list of packed pairs per search.  Building every node's neighbours
    before the cap is checked peaks near 95 MiB at n = 600.
    """
    w1, w2 = parse_word("n=600; z1"), parse_word("n=600; z2")
    tracemalloc.start()
    try:
        verdict = oracle_equal(w1, w2, MoveSet.F, len(w1) + 4, node_cap=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict is OracleVerdict.CAP_EXCEEDED
    assert peak < 4 * 2**20, peak


def test_oracle_requires_same_strand_count():
    with pytest.raises(PreconditionError):
        oracle_equal(BraidWord(2), BraidWord(3), MoveSet.F, 5)


def test_oracle_equality_implies_equal_brackets():
    rng = random.Random(13)
    checked = 0
    while checked < 20:
        w1 = random_word(rng, 3, rng.randint(0, 4))
        ball = bfs_ball(w1, MoveSet.FB, len(w1) + 4, node_cap=200_000)
        if ball.cap_exceeded or len(ball.members) < 2:
            continue
        w2 = ball.members[rng.randrange(len(ball.members))]
        scheme = random_scheme(rng, w1)
        assert brackets_equal(w1, w2, scheme)
        checked += 1


def test_mini_agreement_sweep_strong_and_f():
    """Oracle/decider agreement on all 3-strand words of length <= 3."""
    alphabet = (1, 2, -1, -2)
    words = [BraidWord(3)]
    frontier = [()]
    for _ in range(3):
        frontier = [seq + (a,) for seq in frontier for a in alphabet]
        words += [BraidWord(3, seq) for seq in frontier]

    for moveset, decide, bound in ((MoveSet.STRONG, strongly_equal, 7),
                                   (MoveSet.F, f_equal, 7)):
        class_of = {}
        for w in words:
            if w.letters in class_of:
                continue
            ball = bfs_ball(w, moveset, bound, node_cap=1_000_000)
            assert not ball.cap_exceeded
            for member in ball.members:
                if len(member.letters) <= 3:
                    class_of.setdefault(member.letters, w.letters)
        for a in words:
            for b in words:
                assert decide(a, b) == (class_of[a.letters] == class_of[b.letters]), \
                    (moveset, a, b)


def test_bfs_ball_matches_reference():
    """Packed neighbours keep the reference's discovery order and cut-off."""
    rng = random.Random(17)
    capped = 0
    for k in range(240):
        n = rng.randint(1, 4)
        word = random_word(rng, n, rng.randint(0, 5))
        moveset = (MoveSet.F, MoveSet.FB, MoveSet.STRONG)[k % 3]
        bound = len(word) + rng.randint(0, 3)
        node_cap = (10, 50, 1_000_000)[k // 3 % 3]
        ball = bfs_ball(word, moveset, bound, node_cap)
        ref = reference_bfs_ball(word, moveset, bound, node_cap)
        assert ball.members == ref.members, (word, moveset, bound, node_cap)
        assert ball.cap_exceeded == ref.cap_exceeded
        capped += ball.cap_exceeded
    assert capped > 0


def test_oracle_equal_matches_reference():
    """The early exit keeps the verdict of membership in the whole ball, then its cap."""
    rng = random.Random(29)
    verdicts = set()
    for k in range(1500):
        n = rng.randint(1, 4)
        w1 = random_word(rng, n, rng.randint(0, 5))
        moveset = (MoveSet.F, MoveSet.FB, MoveSet.STRONG)[k % 3]
        bound = len(w1) + rng.randint(0, 3)
        node_cap = rng.choice((1, 5, 10, 50, 1_000_000))
        if rng.random() < 0.5:
            w2, _ = scramble(w1, rng.randint(0, 6), moveset, rng.getrandbits(32), bound)
        else:
            w2 = random_word(rng, n, rng.randint(0, bound))
        verdict = oracle_equal(w1, w2, moveset, bound, node_cap)
        assert verdict is reference_oracle_equal(w1, w2, moveset, bound, node_cap), \
            (w1, w2, moveset, bound, node_cap)
        verdicts.add(verdict)
    assert verdicts == set(OracleVerdict)


def _assert_search_matches_reference(word, moveset, bound, node_cap, partners):
    ball = bfs_ball(word, moveset, bound, node_cap)
    ref = reference_bfs_ball(word, moveset, bound, node_cap)
    assert ball.members == ref.members, (word, moveset, bound, node_cap)
    assert ball.cap_exceeded == ref.cap_exceeded
    for w2 in partners:
        assert oracle_equal(word, w2, moveset, bound, node_cap) is \
            reference_oracle_equal(word, w2, moveset, bound, node_cap), (word, w2, moveset, bound, node_cap)
    return ball


def _trailing_partners(rng, word):
    """The word, the word with one or two letters appended or its last one dropped, and a random word."""
    n = word.n
    letters = [x for i in range(1, n) for x in (i, -i)]
    if not letters:
        return [word]
    x = rng.choice(letters)
    return [word, BraidWord(n, word.letters + (x,)), BraidWord(n, word.letters + (x, x)),
            BraidWord(n, word.letters[:-1]), random_word(rng, n, len(word))]


@pytest.mark.parametrize("n", range(1, 10))
def test_packed_search_matches_reference_for_every_code_width(n):
    """Letter codes take 1 to 5 bits for n = 1 .. 9; caps 1, 2 and 10 cut the search early."""
    rng = random.Random(300 + n)
    for k in range(24):
        word = random_word(rng, n, rng.randint(0, 4))
        moveset = (MoveSet.F, MoveSet.FB, MoveSet.STRONG)[k % 3]
        bound = len(word) + rng.randint(0, 2)
        node_cap = (1, 2, 10, 400)[k % 4]
        ball = _assert_search_matches_reference(word, moveset, bound, node_cap, _trailing_partners(rng, word))
        members = ball.members
        picks = {members[0], members[-1], members[len(members) // 2]}
        for w2 in picks:
            assert oracle_equal(word, w2, moveset, bound, node_cap) is OracleVerdict.EQUAL


def test_packed_search_matches_reference_beyond_64_bits():
    """On n = 40 a code takes 7 bits, so words of 10 or more letters pack past 64 bits."""
    rng = random.Random(43)
    z1 = BraidWord(40, (1,))
    _assert_search_matches_reference(z1, MoveSet.F, 3, 10, [z1, BraidWord(40, (1, 1)), BraidWord(40, (1, 1, 1))])
    for text, moveset, extra, node_cap, capped in (
            ("z38 z39 t38 z39 z38 t39 z39 z38 t38 z39 z38", MoveSet.FB, 0, 1_000_000, False),
            ("t1 t2 t1 z3 z5 t2 z1 z1 t39 z38", MoveSet.STRONG, 0, 1_000_000, False),
            ("z1 z2 z1 z2 z1 z2 z1 z2 z1 z2", MoveSet.F, 2, 600, True),
            ("z38 z39 t38 z39 z38 t39 z39 z38 t38 z39 z38", MoveSet.STRONG, 2, 300, True)):
        word = parse_word("n=40; " + text)
        ball = _assert_search_matches_reference(word, moveset, len(word) + extra, node_cap,
                                                _trailing_partners(rng, word))
        assert ball.cap_exceeded is capped and len(ball) > 1
        members = ball.members
        for w2 in (members[-1], members[len(members) // 2]):
            assert oracle_equal(word, w2, moveset, len(word) + extra, node_cap) is OracleVerdict.EQUAL


def test_trailing_letters_are_not_dropped():
    z1, z1z1 = parse_word("n=2; z1"), parse_word("n=2; z1 z1")
    for moveset in MoveSet:
        assert oracle_equal(z1, z1z1, moveset, 6) is OracleVerdict.NOT_FOUND_WITHIN_BOUND
        assert z1z1 not in bfs_ball(z1, moveset, 6)
    empty = BraidWord(2)
    assert oracle_equal(z1z1, empty, MoveSet.F, 2) is OracleVerdict.EQUAL
    assert oracle_equal(empty, empty, MoveSet.F, 0, node_cap=1) is OracleVerdict.EQUAL


def test_oracle_cap_boundary_in_discovery_order():
    """members[k] of a ball is EQUAL under node_cap exactly when k < node_cap, else CAP_EXCEEDED.

    A capped ball is the uncapped one cut to node_cap members, flagged only
    if that cut a member off.  The balls of z1 (n = 2, F) and z1 t2 (n = 3,
    strong) meet x x inserted right after x, the word of the insertion one
    offset earlier: a word seen before must not count toward the cap.  Their
    sweep takes every cap up to len(ball) + 1.
    """
    for text, moveset, bound, caps in (("n=3; z1 t2", MoveSet.F, 6, (1, 40)),
                                       ("n=2; z1", MoveSet.F, 5, None),
                                       ("n=3; z1 t2", MoveSet.STRONG, 6, None)):
        w = parse_word(text)
        members = bfs_ball(w, moveset, bound).members
        for node_cap in caps or range(1, len(members) + 2):
            capped = bfs_ball(w, moveset, bound, node_cap)
            assert capped.members == members[:node_cap], (text, moveset, node_cap)
            assert capped.cap_exceeded is (node_cap < len(members)), (text, moveset, node_cap)
            for k, member in enumerate(members):
                expected = OracleVerdict.EQUAL if k < node_cap else OracleVerdict.CAP_EXCEEDED
                assert oracle_equal(w, member, moveset, bound, node_cap) is expected, \
                    (text, moveset, node_cap, k)


def test_oracle_bound_checked_before_identity():
    w = parse_word("n=2; z1 z1")
    with pytest.raises(PreconditionError, match="length bound"):
        oracle_equal(w, w, MoveSet.F, 1)


@pytest.mark.parametrize("node_cap", [0, -3])
def test_node_cap_below_one_is_rejected(node_cap):
    w = parse_word("n=2; z1 z1")
    with pytest.raises(PreconditionError, match="node_cap must be >= 1"):
        oracle_equal(w, w, MoveSet.F, 5, node_cap=node_cap)
    with pytest.raises(PreconditionError, match="node_cap must be >= 1"):
        bfs_ball(w, MoveSet.F, 5, node_cap=node_cap)


def _empty_move_caches():
    freebraid.moves._pair_moves.clear()
    freebraid.moves._window_memo.cache_clear()


def test_deciders_split_words_as_the_oracle_does_at_four_strands():
    """Criterion 6's check at n = 4: the 259 words of length at most 3, balls of length 7."""
    assert oracle_disagreements(4, 3, 7) == (259, 0)


def test_window_memos_kept_across_searches_match_the_reference(monkeypatch):
    """Searches on n = 3, then n = 4, under F, strong, then FB, from the same letters, cold and warm.

    n = 3 and n = 4 pack a letter into the same 3 bits but decode it
    differently, and a rewrite holds its move set's filter, so each (n, move
    set) has its own memo.  Once kept, a memo serves a repeated search
    without building any window's move.
    """
    rng = random.Random(907)
    letters = [random_word(rng, 3, rng.randint(1, 5)).letters for _ in range(16)]
    runs = []
    for n in (3, 4):
        for moveset in (MoveSet.F, MoveSet.STRONG, MoveSet.FB):
            for seq in letters:
                word, bound = BraidWord(n, seq), len(seq) + rng.randint(0, 2)
                node_cap = rng.choice((10, 400, 1_000_000))
                partners = _trailing_partners(rng, word) + [scramble(word, 4, moveset, len(runs), bound)[0]]
                ref = reference_bfs_ball(word, moveset, bound, node_cap)
                verdicts = [reference_oracle_equal(word, w2, moveset, bound, node_cap) for w2 in partners]
                runs.append((word, moveset, bound, node_cap, partners, (ref.members, ref.cap_exceeded), verdicts))

    def search(word, moveset, bound, node_cap, partners, ball, verdicts):
        got = bfs_ball(word, moveset, bound, node_cap)
        assert (got.members, got.cap_exceeded) == ball, (word, moveset, bound, node_cap)
        assert [oracle_equal(word, w2, moveset, bound, node_cap) for w2 in partners] == verdicts, \
            (word, moveset, bound, node_cap)

    for run in runs:
        _empty_move_caches()
        search(*run)
    _empty_move_caches()
    for run in runs:
        search(*run)
    assert all(freebraid.moves._window_memo(n, moveset) for n in (3, 4) for moveset in MoveSet)

    built, build = [], freebraid.moves._window_move
    monkeypatch.setattr(freebraid.moves, "_window_move", lambda window: built.append(window) or build(window))
    for run in runs:
        search(*run)
    assert built == []


def test_a_search_that_cannot_insert_builds_no_insertion_code(monkeypatch):
    """`_discover` packs its 2(n - 1) R2 pairs at the first node that can take an insertion, not before.

    On 10 000 strands the ball of z1 z3 z5 at bound 3 is six far-commutation
    words; the second search, on a warm window memo, asks for no relation's sides.
    """
    word = parse_word("n=10000; z1 z3 z5")
    assert len(bfs_ball(word, MoveSet.F, 3)) == 6
    asked, sides = [], freebraid.moves.relation_sides
    monkeypatch.setattr(freebraid.moves, "relation_sides", lambda *args: asked.append(args) or sides(*args))
    assert len(bfs_ball(word, MoveSet.F, 3)) == 6
    assert asked == []


# The README's bound on one window memo: 4096 entries on many strands, where most
# keys are ints beyond 2**30.  The package keeps at most 8 memos.
WINDOW_MEMO_WORST_CASE_BYTES = 2**20


def test_window_memo_kept_after_a_wide_search_stays_within_the_stated_bound():
    """A search that meets more than 4096 windows leaves its memo empty; smaller ones keep theirs.

    On 3000 strands, the insertions around one letter meet about 36 000
    windows.  On 1000 strands, searches over far-commuting letters fill a
    memo to nearly 4096 entries, and tracemalloc counts what they keep.
    """
    assert freebraid.moves._WINDOW_MEMO_SIZE == 4096
    assert freebraid.moves._window_memo.cache_info().maxsize == 8
    _empty_move_caches()
    ball = bfs_ball(parse_word("n=3000; z1"), MoveSet.F, 3)
    assert len(ball) > 4096 and not ball.cap_exceeded
    assert freebraid.moves._window_memo(3000, MoveSet.F) == {}

    memo = freebraid.moves._window_memo(1000, MoveSet.F)
    rng = random.Random(911)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        while len(memo) < 3800:
            word = BraidWord(1000, tuple(rng.choice((-1, 1)) * rng.randrange(1, 1000) for _ in range(5)))
            bfs_ball(word, MoveSet.F, len(word))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        _empty_move_caches()
    assert held <= WINDOW_MEMO_WORST_CASE_BYTES, held
