import copy
import hashlib
import itertools
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from freebraid.words import MAX_LETTERS, BraidWord, PreconditionError, parse_word, permutation, serialize, _Value
import freebraid.moves
from freebraid.moves import (
    MAX_STEPS,
    Direction,
    MoveInstance,
    MoveSet,
    Relation,
    apply_move,
    format_history,
    relation_sides,
    relations_in,
    scramble,
)
from freebraid.normalform import f_equal
from freebraid.scenarios import brunnian_word

from helpers import (
    applicable_count,
    applicable_move,
    applicable_moves,
    move_image,
    random_word,
    reference_match_instances,
    reference_scramble,
    reference_window_move,
)
from strategies import braid_words

FWD, REV = Direction.LEFT_TO_RIGHT, Direction.RIGHT_TO_LEFT


def test_moveset_catalogues():
    assert Relation.CLASSICAL_R3 not in relations_in(MoveSet.F)
    assert Relation.CLASSICAL_R3 in relations_in(MoveSet.FB)
    assert relations_in(MoveSet.STRONG) == relations_in(MoveSet.F) - {Relation.CLASSICAL_R2}
    assert len(relations_in(MoveSet.FB)) == 9


def test_relation_sides_refuses_an_unknown_relation():
    for relation in ("classical_r2", MoveSet.FB):
        with pytest.raises(ValueError, match=f"^unknown relation {relation!r}$"):
            relation_sides(relation, 1)


def test_move_sets_differ_only_in_the_classical_r2_and_r3():
    """A move set filters out at most these two relations of what the switch-free matcher finds."""
    for moveset in MoveSet:
        assert set(Relation) - relations_in(moveset) <= {Relation.CLASSICAL_R2, Relation.CLASSICAL_R3}


def test_applicable_includes_pair_cancellation():
    moves = applicable_moves(BraidWord(2, (1, 1)), MoveSet.F)
    assert MoveInstance(Relation.CLASSICAL_R2, 1, 0, FWD) in moves


def test_applicable_includes_semivirtual_slide():
    moves = applicable_moves(parse_word("n=3; t1 t2 z1"), MoveSet.F)
    assert MoveInstance(Relation.SEMIVIRTUAL_R3, 1, 0, FWD) in moves


def test_classical_r3_only_in_fb():
    w = parse_word("n=3; z1 z2 z1")
    assert not any(m.relation is Relation.CLASSICAL_R3 for m in applicable_moves(w, MoveSet.F))
    assert any(m.relation is Relation.CLASSICAL_R3 for m in applicable_moves(w, MoveSet.FB))


def test_insertions_enumerated_at_every_offset_and_index():
    w = BraidWord(3, (1,))
    moves = applicable_moves(w, MoveSet.F)
    for rel in (Relation.VIRTUAL_R2, Relation.CLASSICAL_R2):
        for i in (1, 2):
            for pos in (0, 1):
                assert MoveInstance(rel, i, pos, REV) in moves


def test_applicable_move_is_the_rth_applicable_move():
    """The criterion-4 draw without the insertion list, against `applicable_moves`, for every r."""
    rng = random.Random(67)
    words = [random_word(rng, rng.randint(1, 6), rng.randint(0, 12)) for _ in range(450)]
    words += [_slide_rich_word(rng, rng.randint(0, 6), rng.randint(1, 3)) for _ in range(50)]
    for k, word in enumerate(words):
        moveset = (MoveSet.F, MoveSet.FB, MoveSet.STRONG)[k % 3]
        moves = applicable_moves(word, moveset)
        assert applicable_count(word, moveset) == len(moves)
        assert [applicable_move(word, moveset, r) for r in range(len(moves))] == list(moves), word
        with pytest.raises(IndexError):
            applicable_move(word, moveset, len(moves))


def test_apply_pair_cancellation():
    m = MoveInstance(Relation.CLASSICAL_R2, 1, 0, FWD)
    assert apply_move(BraidWord(2, (1, 1)), m) == BraidWord(2)
    assert move_image(m, 0) is None and move_image(m, 1) is None


def test_apply_far_commutativity():
    w = apply_move(parse_word("n=5; z1 t3"), MoveInstance(Relation.FAR_COMM_ZT, 1, 0, FWD, j=3))
    assert w == parse_word("n=5; t3 z1")


def test_apply_virtualization():
    word = parse_word("n=2; z1 t1")
    m = next(m for m in applicable_moves(word, MoveSet.F) if m.relation is Relation.VIRTUALIZATION)
    assert apply_move(word, m) == parse_word("n=2; t1 z1")


@pytest.mark.parametrize("relation, i, j, message", [
    (Relation.FAR_COMM_ZT, 1, None, "FarCommutativityZT needs a second index"),
    (Relation.FAR_COMM_ZZ, 2, 3, "far commutativity needs |i-j| >= 2, got i=2 j=3"),
    (Relation.FAR_COMM_ZZ, 3, 1, "like-kind far commutativity is canonicalized to i < j"),
    (Relation.FAR_COMM_TT, 3, 1, "like-kind far commutativity is canonicalized to i < j"),
])
def test_apply_rejects_malformed_far_commutativity(relation, i, j, message):
    with pytest.raises(ValueError) as info:
        apply_move(parse_word("n=5; z1 z3"), MoveInstance(relation, i, 0, FWD, j))
    assert str(info.value) == message


def test_apply_rejects_stale_instance():
    with pytest.raises(PreconditionError):
        apply_move(BraidWord(2, (1,)), MoveInstance(Relation.CLASSICAL_R2, 1, 0, FWD))
    with pytest.raises(PreconditionError):
        apply_move(BraidWord(2), MoveInstance(Relation.CLASSICAL_R2, 5, 0, REV))
    with pytest.raises(PreconditionError, match="^ClassicalR2 \\(fwd\\) does not match at position 1$"):
        apply_move(BraidWord(2, (1, -1, 1)), MoveInstance(Relation.CLASSICAL_R2, 1, 1, FWD))


@settings(max_examples=60)
@given(braid_words(min_n=2, max_n=4, max_len=8))
def test_every_move_preserves_permutation_and_inverts(word):
    for m in applicable_moves(word, MoveSet.FB):
        result = apply_move(word, m)
        assert permutation(result) == permutation(word)
        flipped = MoveInstance(m.relation, m.i, m.position, REV if m.direction is FWD else FWD, m.j)
        assert apply_move(result, flipped) == word
        src, tgt = m.sides()
        shift = len(tgt) - len(src)
        for s in range(len(word.letters)):
            if s < m.position:
                assert move_image(m, s) == s
            elif s >= m.position + len(src):
                assert move_image(m, s) == s + shift


# Each relation's window pairs (source offset, result offset), in both directions;
# R2 letters are created or destroyed, hence unpaired.
_SWAP = ((0, 1), (1, 0))
_REVERSE = ((0, 2), (1, 1), (2, 0))
_WINDOW_CASES = [
    (Relation.VIRTUAL_R2, "n=2; t1 t1", 1, None, ()),
    (Relation.CLASSICAL_R2, "n=2; z1 z1", 1, None, ()),
    (Relation.VIRTUALIZATION, "n=2; t1 z1", 1, None, _SWAP),
    (Relation.FAR_COMM_ZZ, "n=4; z1 z3", 1, 3, _SWAP),
    (Relation.FAR_COMM_ZT, "n=4; z1 t3", 1, 3, _SWAP),
    (Relation.FAR_COMM_TT, "n=4; t1 t3", 1, 3, _SWAP),
    (Relation.VIRTUAL_R3, "n=3; t1 t2 t1", 1, None, _REVERSE),
    (Relation.SEMIVIRTUAL_R3, "n=3; t1 t2 z1", 1, None, _REVERSE),
    (Relation.CLASSICAL_R3, "n=3; z1 z2 z1", 1, None, _REVERSE),
]


def test_correspondence_window_pairings():
    """`move_image` on every relation in both directions, the window at offset 1 between two letters."""
    for relation, left, i, j, pairs in _WINDOW_CASES:
        for direction in (FWD, REV):
            word = parse_word(left)
            pad = BraidWord(word.n, (-1,))
            word = pad * word * pad
            m = MoveInstance(relation, i, 1, FWD, j)
            if direction is REV:
                word = apply_move(word, m)
                m = MoveInstance(m.relation, m.i, m.position, REV, m.j)
            source, target = m.sides()
            assert apply_move(word, m).letters == (-1,) + target + (-1,)
            expected = {0: 0, len(word) - 1: len(word) - 1 + len(target) - len(source)}
            expected.update({1 + s: 1 + r for s, r in pairs})
            assert [move_image(m, s) for s in range(len(word))] == \
                [expected.get(s) for s in range(len(word))], m


def test_scramble_zero_steps_is_identity():
    w = parse_word("n=3; z1 t2")
    out, history = scramble(w, 0, MoveSet.F, seed=3, max_length=10)
    assert out == w and history == ()


def test_scramble_deterministic_and_capped():
    w = parse_word("n=2; z1")
    a, ha = scramble(w, 200, MoveSet.F, seed=7, max_length=21)
    b, hb = scramble(w, 200, MoveSet.F, seed=7, max_length=21)
    assert a == b and ha == hb
    assert len(a) <= 21
    assert permutation(a) == permutation(w)


def test_scramble_history_replays():
    w = parse_word("n=3; z1 z2 z1")
    out, history = scramble(w, 50, MoveSet.FB, seed=11, max_length=30)
    replay = w
    for m in history:
        replay = apply_move(replay, m)
    assert replay == out


@pytest.mark.parametrize("args, kwargs, fields", [
    ((Relation.FAR_COMM_ZT, 2, 7, REV, 5), {}, (Relation.FAR_COMM_ZT, 2, 7, REV, 5)),
    ((), {"j": 6, "direction": FWD, "position": 4, "i": 3, "relation": Relation.FAR_COMM_ZZ},
     (Relation.FAR_COMM_ZZ, 3, 4, FWD, 6)),
    ((Relation.SEMIVIRTUAL_R3, 1, 8, REV), {}, (Relation.SEMIVIRTUAL_R3, 1, 8, REV, None)),
], ids=["by-position", "by-keyword", "j-by-default"])
def test_move_instance_constructor_matches_the_generic_one(args, kwargs, fields):
    """`MoveInstance.__init__` writes its slots through their setters; the generic `_Value.__init__`
    fills the same fields on `object.__new__(MoveInstance)`, and the two instances cannot be told apart."""
    m = MoveInstance(*args, **kwargs)
    generic = object.__new__(MoveInstance)
    _Value.__init__(generic, *fields)
    assert tuple(getattr(m, f) for f in MoveInstance._fields) == m._astuple() == generic._astuple() == fields
    assert m == generic and hash(m) == hash(generic) and repr(m) == repr(generic)
    assert copy.copy(m) == m == pickle.loads(pickle.dumps(m)) and copy.copy(m) is not m
    for name in MoveInstance._fields:
        with pytest.raises(AttributeError):
            setattr(m, name, None)
        with pytest.raises(AttributeError):
            delattr(m, name)
    for bad_args, bad_kwargs in (((*fields[:3],), {}), ((*fields, None), {}), (fields, {"k": 1}),
                                 ((*fields[:4],), {"direction": fields[3]})):
        with pytest.raises(TypeError):
            MoveInstance(*bad_args, **bad_kwargs)


@pytest.mark.parametrize("n", [2, 3, 9])
def test_scramble_inserts_the_left_side_of_each_r2_relation(n):
    """An insertion step writes `relation_sides(rel, i)[0]` at its offset, for both R2 relations and every i."""
    seen = set()
    for word in (BraidWord(n), BraidWord(n, (-1, 1, -1))):
        for moveset in (MoveSet.FB, MoveSet.STRONG):
            for seed in range(120):
                out, (m,) = scramble(word, 1, moveset, seed, len(word) + 2)
                if m.direction is REV and m.relation in (Relation.VIRTUAL_R2, Relation.CLASSICAL_R2):
                    p = m.position
                    assert out.letters == word.letters[:p] + relation_sides(m.relation, m.i)[0] + word.letters[p:]
                    seen.add((m.relation, m.i))
    assert seen == {(rel, i) for rel in (Relation.VIRTUAL_R2, Relation.CLASSICAL_R2) for i in range(1, n)}


def test_scramble_preserves_f_class():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(2, 4)
        w = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                               for _ in range(rng.randint(0, 6))))
        out, _ = scramble(w, 120, MoveSet.F, seed=rng.randint(0, 999), max_length=len(w) + 16)
        assert f_equal(out, w)


def test_scramble_with_strong_moves_preserves_canonical_code():
    from freebraid.normalform import canonical_code
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randint(2, 4)
        w = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                               for _ in range(rng.randint(0, 6))))
        out, _ = scramble(w, 150, MoveSet.STRONG, seed=rng.randint(0, 999),
                          max_length=len(w) + 14)
        assert canonical_code(out) == canonical_code(w)


def test_scramble_on_single_strand_terminates_early():
    out, history = scramble(BraidWord(1), 10, MoveSet.FB, seed=0, max_length=5)
    assert out == BraidWord(1) and history == ()


def test_scramble_steps_capped_at_max_steps():
    assert MAX_STEPS == 1_000_000
    assert scramble(BraidWord(1), MAX_STEPS, MoveSet.FB, seed=0, max_length=5) == (BraidWord(1), ())
    with pytest.raises(PreconditionError, match="steps must be at most 1000000, got 1000001"):
        scramble(BraidWord(1), MAX_STEPS + 1, MoveSet.FB, seed=0, max_length=5)


def test_scramble_caps_max_length_at_the_letter_cap():
    """A scrambled word always parses again."""
    word = parse_word("n=3; z1 z2")
    assert len(scramble(word, 50, MoveSet.FB, seed=1, max_length=MAX_LETTERS)[0]) <= MAX_LETTERS
    with pytest.raises(PreconditionError, match="max_length must be at most 1000000, got 1000001"):
        scramble(word, 50, MoveSet.FB, seed=1, max_length=MAX_LETTERS + 1)


def test_scramble_refuses_a_negative_seed():
    """random.Random(-s) seeds with s, so a negative seed would replay another seed's walk."""
    with pytest.raises(PreconditionError, match="seed must be >= 0"):
        scramble(parse_word("n=3; z1 z2"), 10, MoveSet.FB, seed=-7, max_length=20)


def _short_windows(top: int) -> list[tuple[int, ...]]:
    """Every window of 1 to 3 letters with indices 1..top, classical and virtual."""
    alphabet = [x for k in range(1, top + 1) for x in (k, -k)]
    return [w for length in range(1, 4) for w in itertools.product(alphabet, repeat=length)]


@pytest.mark.parametrize("moveset", list(MoveSet))
def test_match_at_agrees_with_reference_on_every_short_window(moveset):
    """Every window of 1 to 3 letters with indices 1..5: `_window_move`, the matcher both move caches rely on.

    It finds a relation whatever the move set; the set's filter keeps only its own relations.
    """
    rels = relations_in(moveset)
    for window in _short_windows(5):
        rel, i, direction, j, _ = freebraid.moves._window_move(window)
        expected = [(m.relation, m.i, m.direction, m.j)
                    for m in reference_match_instances(window, rels) if m.position == 0]
        assert ([(rel, i, direction, j)] if rel in rels else []) == expected, (window, moveset)


def test_window_move_agrees_with_the_matcher_it_replaced():
    """The search of `relation_sides` gives the hand-written matcher's 5-tuple on all 4368 windows with
    indices 1..8, target included."""
    windows = _short_windows(8)
    assert len(windows) == 4368
    for window in windows:
        assert freebraid.moves._window_move(window) == reference_window_move(window), window


def test_window_moves_read_their_sides_from_the_catalogue():
    """Each move found is the catalogue's: its oriented source starts the window, and its target is the move's."""
    found = 0
    for window in _short_windows(5):
        rel, i, direction, j, target = freebraid.moves._window_move(window)
        if rel is not None:
            source, expected = freebraid.moves._oriented_sides(rel, i, direction, j)
            assert window[:len(source)] == source and target == expected, window
            found += 1
    assert found == 772


def _slide_rich_word(rng: random.Random, length: int, windows: int) -> BraidWord:
    """A random word on 3 strands with either side of the three triple slides planted."""
    letters = list(random_word(rng, 3, length).letters)
    for _ in range(windows):
        rel = rng.choice((Relation.VIRTUAL_R3, Relation.SEMIVIRTUAL_R3, Relation.CLASSICAL_R3))
        at = rng.randint(0, len(letters))
        letters[at:at] = rng.choice(relation_sides(rel, 1))
    return BraidWord(3, tuple(letters))


def test_scramble_matches_full_rescan_reference():
    """The windowed rescan on a letter list replays the full rescan's draws exactly.

    Every pair-key width: n = 1 .. 9, then 17 and 40.  Short words, words
    already at max_length and long walks drive deletions at offsets 0 and
    L-2 and insertions at L through the window boundaries; planted slides
    at n = 3 drive the slide candidates.  Long words, 56 to 72 letters and
    then 65 to 600 on 9, 40 and 10 000 strands under every move set, drive
    moves far from either end.
    """
    rng = random.Random(41)
    cases = [(random_word(rng, n, rng.randint(0, 3) if rng.random() < 0.3 else rng.randint(0, 40)), None, 60)
             for n in (*range(1, 10), 17, 40) for _ in range(100)]
    cases += [(_slide_rich_word(rng, rng.randint(0, 12), rng.randint(1, 6)), None, 60) for _ in range(150)]
    cases += [(random_word(rng, n, rng.randint(56, 72)), None, 60) for n in (3, 9, 40) for _ in range(8)]
    cases += [(random_word(rng, n, rng.randint(65, 600)), moveset, 40)
              for n in (9, 40, 10_000) for moveset in MoveSet for _ in range(3)]
    for word, moveset, max_steps in cases:
        max_length = len(word) + (0 if rng.random() < 0.2 else rng.randint(0, 12))
        moveset = moveset or rng.choice((MoveSet.F, MoveSet.FB, MoveSet.STRONG))
        seed = rng.getrandbits(32)
        steps = rng.randint(0, max_steps)
        assert scramble(word, steps, moveset, seed, max_length) == \
            reference_scramble(word, steps, moveset, seed, max_length), (word, moveset, seed, max_length)


def test_pack_and_unpack_across_64_letter_chunks():
    """`_pack` and `_unpack` round-trip words across 64-letter multiples; a walk of no steps gives the word back.

    `_pack` gives the int of the letter-by-letter rule, and `_unpack` inverts it.
    """
    rng = random.Random(71)
    for n in (2, 3, 9, 17, 40, 10_000):
        b = (2 * n - 1).bit_length()
        for length in (0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 1000):
            word = random_word(rng, n, length)
            w = freebraid.moves._pack(word.letters, n, b)
            assert w == sum((x + n) << b * k for k, x in enumerate(word.letters)), (n, length)
            assert freebraid.moves._unpack(w, n, b) == word.letters, (n, length)
            assert scramble(word, 0, MoveSet.FB, 0, length) == (word, ()), (n, length)


def _count_misses(monkeypatch) -> list[int]:
    """Count the pair-cache misses of later walks: `scramble` calls `_pair_move` only on a miss."""
    misses = [0]
    pair_move = freebraid.moves._pair_move

    def counted(key):
        misses[0] += 1
        return pair_move(key)

    monkeypatch.setattr(freebraid.moves, "_pair_move", counted)
    return misses


def test_scramble_is_the_same_with_cold_warm_and_capped_pair_cache(monkeypatch):
    """The pair cache only caches: cold, warm, or emptied when full during a call, the walk is the same."""
    rng = random.Random(59)
    cases = []
    for n in (2, 3, 4, 9, 17):
        for _ in range(8):
            word = random_word(rng, n, rng.randint(0, 30))
            cases.append((word, rng.randint(20, 150), rng.choice(list(MoveSet)), rng.getrandbits(32),
                          len(word) + rng.randint(0, 10)))
    pair_moves = freebraid.moves._pair_moves
    cold = []
    for case in cases:
        pair_moves.clear()
        cold.append(scramble(*case))
    assert cold == [reference_scramble(*case) for case in cases]
    assert [scramble(*case) for case in cases] == cold
    # The warm pass has met every pair of every walk, and the cache has not been emptied.
    distinct = len(pair_moves)
    assert distinct < freebraid.moves._PAIR_CACHE_SIZE

    monkeypatch.setattr(freebraid.moves, "_PAIR_CACHE_SIZE", 3)
    misses = _count_misses(monkeypatch)
    pair_moves.clear()
    try:
        assert [scramble(*case) for case in cases] == cold
        assert len(pair_moves) <= 3
    finally:
        pair_moves.clear()
    assert misses[0] > distinct


def test_a_warm_pair_cache_answers_every_lookup(monkeypatch):
    """Walks repeated on a cache that holds every pair and slide triple they meet build no move.

    `_window_move` raises under the patch, so every lookup of the repeated
    walks, in the first rescan, the later rescans and the draws, reads
    `_pair_moves`.
    """
    rng = random.Random(83)
    cases = []
    for n in (2, 3, 4, 9):
        for _ in range(6):
            word = (_slide_rich_word(rng, rng.randint(0, 20), rng.randint(1, 6)) if n == 3
                    else random_word(rng, n, rng.randint(0, 30)))
            cases.append((word, rng.randint(20, 150), rng.choice(list(MoveSet)), rng.getrandbits(32),
                          len(word) + rng.randint(0, 10)))
    pair_moves = freebraid.moves._pair_moves
    pair_moves.clear()
    walks = [scramble(*case) for case in cases]
    assert walks == [reference_scramble(*case) for case in cases]
    assert len(pair_moves) < freebraid.moves._PAIR_CACHE_SIZE
    assert any(len(key) == 3 and move[0] is not None for key, move in pair_moves.items())

    def refuse(window):
        raise AssertionError(f"built the move of {window}")

    monkeypatch.setattr(freebraid.moves, "_window_move", refuse)
    assert [scramble(*case) for case in cases] == walks


def test_scramble_at_the_end_of_the_word():
    """A slide may start at the last three letters; a slide candidate that ends the word starts no move.

    Both words are at max_length, so no step inserts.
    """
    slide_at_end = parse_word("n=5; z1 z4 t1 t2 t1")
    firsts = {scramble(slide_at_end, 1, MoveSet.F, seed, 5)[1] for seed in range(64)}
    assert firsts == {(MoveInstance(Relation.FAR_COMM_ZZ, 1, 0, FWD, 4),),
                      (MoveInstance(Relation.FAR_COMM_ZT, 4, 1, FWD, 1),),
                      (MoveInstance(Relation.VIRTUAL_R3, 1, 2, FWD),)}
    candidate_at_end = parse_word("n=3; z1 z1 t2")
    assert scramble(candidate_at_end, 5, MoveSet.STRONG, 0, 3) == (candidate_at_end, ())
    assert scramble(candidate_at_end, 1, MoveSet.F, 0, 3)[1] == (MoveInstance(Relation.CLASSICAL_R2, 1, 0, FWD),)
    for word in (slide_at_end, candidate_at_end):
        for seed in range(20):
            assert scramble(word, 30, MoveSet.FB, seed, len(word)) == \
                reference_scramble(word, 30, MoveSet.FB, seed, len(word)), (word, seed)


def test_scramble_draws_when_every_offset_matches():
    """On 8 strands a word over indices 1, 3, 5 and 7 has a move at every offset but the last.

    Words of 300 to 1000 letters, some at a power of two on either side,
    put 299 to 999 matches in the flags, and walks at and below max_length
    move the match count and the total across several powers of two: the
    halving draw and the rejection loop against `randrange`.
    """
    rng = random.Random(89)
    for length in (300, 511, 512, 513, 767, 1000):
        word = BraidWord(8, tuple(rng.choice((1, -1)) * rng.choice((1, 3, 5, 7)) for _ in range(length)))
        assert len(reference_match_instances(word.letters, relations_in(MoveSet.FB))) == length - 1
        for max_length in (length, length + rng.randint(2, 40)):
            seed, moveset = rng.getrandbits(32), rng.choice((MoveSet.F, MoveSet.FB))
            assert scramble(word, 60, moveset, seed, max_length) == \
                reference_scramble(word, 60, moveset, seed, max_length), (length, max_length, seed)


def _matchless_letters(length: int) -> list[int]:
    """Letters on 8 strands with no move at any offset: indices 1 .. 7 .. 1 in a zigzag, odd ones classical."""
    zigzag = [1 + abs((k + 6) % 12 - 6) for k in range(length)]
    return [i if i % 2 else -i for i in zigzag]


@pytest.mark.parametrize("at", ["start", "end"])
def test_scramble_draws_a_lone_match_at_either_end(at):
    """A word whose one move starts at offset 0, or at the last offset L - 2, draws it; so do longer walks.

    The lone move is a virtualization planted at that end of a word with
    no other move.  At max_length it is the only instance, so the rng draws
    below a total of 1; with room to insert it is one of many.
    """
    for length in (1, 2, 29, 30, 31, 64, 257, 600):
        body = _matchless_letters(length)
        assert reference_match_instances(tuple(body), relations_in(MoveSet.FB)) == []
        word = BraidWord(8, tuple([-body[0]] + body if at == "start" else body + [-body[-1]]))
        p = 0 if at == "start" else len(word) - 2
        assert [m.position for m in reference_match_instances(word.letters, relations_in(MoveSet.FB))] == [p]
        for seed in range(3):
            _, history = scramble(word, 1, MoveSet.STRONG, seed, len(word))
            assert [(m.relation, m.position) for m in history] == [(Relation.VIRTUALIZATION, p)]
            for steps, max_length in ((30, len(word)), (30, len(word) + 6)):
                assert scramble(word, steps, MoveSet.FB, seed, max_length) == \
                    reference_scramble(word, steps, MoveSet.FB, seed, max_length), (length, seed, max_length)


def test_one_pair_cache_serves_every_strand_count(monkeypatch):
    """Walks on 3 strands fill the cache that 9-strand walks of the same letters read.

    The 9-strand walks equal the reference and miss fewer pairs than they do
    on a cold cache: the pairs of indices 1 and 2 were cached on 3 strands.
    """
    rng = random.Random(79)
    cases = []
    for moveset in MoveSet:
        for _ in range(10):
            word = random_word(rng, 3, rng.randint(10, 30))
            cases.append((word.letters, rng.randint(20, 100), moveset, rng.getrandbits(32)))

    def walk(n):
        for letters, steps, moveset, seed in cases:
            word = BraidWord(n, letters)
            assert scramble(word, steps, moveset, seed, len(letters) + 4) == \
                reference_scramble(word, steps, moveset, seed, len(letters) + 4), (n, letters, moveset, seed)

    misses = _count_misses(monkeypatch)
    freebraid.moves._pair_moves.clear()
    walk(9)
    cold_misses = misses[0]
    freebraid.moves._pair_moves.clear()
    walk(3)
    misses[0] = 0
    walk(9)
    assert 0 < misses[0] < cold_misses


def test_scramble_filters_a_cache_warmed_by_another_move_set():
    """A cache warmed by FB walks holds classical R2 moves and slide candidates; strong and F walks filter them."""
    rng = random.Random(73)
    cases = []
    for _ in range(40):
        word = _slide_rich_word(rng, rng.randint(0, 20), rng.randint(1, 6))
        word = BraidWord(3, word.letters + (1, 1, 2, 2))
        cases.append((word, rng.randint(20, 120), rng.getrandbits(32), len(word) + rng.randint(0, 10)))
    pair_moves = freebraid.moves._pair_moves
    pair_moves.clear()
    for word, steps, seed, max_length in cases:
        scramble(word, steps, MoveSet.FB, seed, max_length)
    assert pair_moves[1, 1][0] is Relation.CLASSICAL_R2
    assert pair_moves[1, 2] is freebraid.moves._SLIDE
    for moveset in (MoveSet.STRONG, MoveSet.F):
        for word, steps, seed, max_length in cases:
            assert scramble(word, steps, moveset, seed, max_length) == \
                reference_scramble(word, steps, moveset, seed, max_length), (word, moveset, seed)


# The README's bound on the pair cache: 4096 entries on 10 000 strands, each a far
# commutativity of virtual letters or a virtual slide keyed by its three letters, the
# largest kinds of entry (their letters, indices and target letters are all ints
# beyond the small-int cache).
PAIR_CACHE_WORST_CASE_BYTES = 2 * 2**20


def test_pair_cache_stays_within_the_stated_worst_case(capsys):
    """Scrambles at 24 strand counts, then 20 000 steps on 10 000 strands, keep at most 4096 entries.

    The worst cases, a full cache of pairs and one of slide triples, are
    filled afresh under tracemalloc: tracing the walks is ten times slower.
    The bytes each holds are printed past the output capture, so that a
    run's log shows the margin under the bound on its Python.
    """
    pair_moves, pair_move = freebraid.moves._pair_moves, freebraid.moves._pair_move
    assert freebraid.moves._PAIR_CACHE_SIZE == 4096
    pair_moves.clear()
    rng = random.Random(61)
    for n in range(2, 26):
        for moveset in (MoveSet.F, MoveSet.STRONG):
            scramble(random_word(rng, n, 40), 300, moveset, n, 80)
    scramble(parse_word("n=10000; z1 z9999 t5000 z5001 t2 z3"), 20_000, MoveSet.F, 5, 400)
    assert 1000 < len(pair_moves) <= 4096

    # The worst cases themselves: far commutativities t_i t_j, then slides t_i t_i+1 t_i, on 10 000 strands.
    for keys, relation in ((((-300, -2000 - k) for k in range(4096)), Relation.FAR_COMM_TT),
                           (((-k, -k - 1, -k) for k in range(2000, 6096)), Relation.VIRTUAL_R3)):
        pair_moves.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            moves = [pair_move(key) for key in keys]
            held = tracemalloc.get_traced_memory()[0] - before
            assert len(pair_moves) == 4096
        finally:
            tracemalloc.stop()
            pair_moves.clear()
        assert all(move[0] is relation for move in moves)
        with capsys.disabled():
            print(f"\npair cache of 4096 {relation.value} entries: {held} bytes, "
                  f"{held / PAIR_CACHE_WORST_CASE_BYTES:.1%} of the {PAIR_CACHE_WORST_CASE_BYTES}-byte bound")
        assert held <= PAIR_CACHE_WORST_CASE_BYTES, (relation, held)


def _seeded_scrambles():
    """The fixed scrambles whose histories and words `SCRAMBLE_DIGEST` pins, as `scramble` arguments.

    Brunnian FB walks of 300 steps up to 200 letters, as the reproduction
    experiment runs them; random words of 0 to 60 letters on 1 to 17 strands
    and slide-rich 3-strand words on indices 1 and 2, under every move set,
    for 0 to 100 steps with 0 to 20 letters of room to insert.
    """
    brunnian = brunnian_word()
    for seed in range(40):
        yield brunnian, 300, MoveSet.FB, seed, 200
    rng = random.Random(28)
    for k in range(720):
        if k % 4 == 3:
            word = _slide_rich_word(rng, rng.randint(0, 40), rng.randint(1, 6))
        else:
            word = random_word(rng, rng.choice((1, 2, 3, 4, 5, 9, 17)), rng.randint(0, 60))
        yield word, rng.randint(0, 100), rng.choice(list(MoveSet)), rng.getrandbits(32), len(word) + rng.randint(0, 20)


# SHA-256 over `format_history` and `serialize` of every scramble of `_seeded_scrambles`, taken at commit 3702bc1.
SCRAMBLE_DIGEST = "0715ac3ed235a922ebf3af3bc5edcb90d08babeebd85aafed699978484b91ff2"


def test_seeded_scrambles_match_the_committed_digest():
    """Seeded histories and words are byte-identical to those the digest was taken from."""
    digest = hashlib.sha256()
    for word, steps, moveset, seed, max_length in _seeded_scrambles():
        result, history = scramble(word, steps, moveset, seed, max_length)
        digest.update(f"{format_history(history)}\n{serialize(result)}\n\n".encode())
    assert digest.hexdigest() == SCRAMBLE_DIGEST
