import dataclasses
import random

import pytest
from hypothesis import given, settings

from freebraid.words import BraidWord, PreconditionError, parse_word, permutation
from freebraid.moves import (
    MAX_STEPS,
    Direction,
    MoveInstance,
    MoveSet,
    Relation,
    _match_at,
    _relation_flags,
    apply_move,
    relations_in,
    scramble,
)
from freebraid.normalform import f_equal

from helpers import (
    applicable_moves,
    move_image,
    random_word,
    reference_match_instances,
    reference_scramble,
)
from strategies import braid_words

FWD, REV = Direction.LEFT_TO_RIGHT, Direction.RIGHT_TO_LEFT


def test_moveset_catalogues():
    assert Relation.CLASSICAL_R3 not in relations_in(MoveSet.F)
    assert Relation.CLASSICAL_R3 in relations_in(MoveSet.FB)
    assert relations_in(MoveSet.STRONG) == relations_in(MoveSet.F) - {Relation.CLASSICAL_R2}
    assert len(relations_in(MoveSet.FB)) == 9


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


def test_apply_rejects_stale_instance():
    with pytest.raises(PreconditionError):
        apply_move(BraidWord(2, (1,)), MoveInstance(Relation.CLASSICAL_R2, 1, 0, FWD))
    with pytest.raises(PreconditionError):
        apply_move(BraidWord(2), MoveInstance(Relation.CLASSICAL_R2, 5, 0, REV))


@settings(max_examples=60)
@given(braid_words(min_n=2, max_n=4, max_len=8))
def test_every_move_preserves_permutation_and_inverts(word):
    for m in applicable_moves(word, MoveSet.FB):
        result = apply_move(word, m)
        assert permutation(result) == permutation(word)
        flipped = dataclasses.replace(m, direction=REV if m.direction is FWD else FWD)
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
                m = dataclasses.replace(m, direction=REV)
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


@pytest.mark.parametrize("moveset", list(MoveSet))
def test_match_at_agrees_with_reference_on_every_short_window(moveset):
    """Every window of 1 to 3 letters on n = 4: the matcher the oracle's window cache relies on."""
    rels = relations_in(moveset)
    flags = _relation_flags(rels)
    alphabet = (1, 2, 3, -1, -2, -3)
    windows = [()]
    for length in range(1, 4):
        windows = [w + (x,) for w in windows for x in alphabet]
        for window in windows:
            match = _match_at(window, 0, flags)
            expected = [(m.relation, m.i, m.direction, m.j)
                        for m in reference_match_instances(window, rels) if m.position == 0]
            assert ([] if match is None else [match]) == expected, (window, moveset)


def test_scramble_matches_full_rescan_reference():
    """The windowed rescan replays the full rescan's draws exactly.

    Short words, words already at max_length and long walks drive deletions
    at offsets 0 and L-2 and insertions at L through the splice boundaries.
    """
    rng = random.Random(41)
    for _ in range(1200):
        n = rng.randint(1, 6)
        length = rng.randint(0, 3) if rng.random() < 0.3 else rng.randint(0, 40)
        word = random_word(rng, n, length)
        max_length = len(word) + (0 if rng.random() < 0.2 else rng.randint(0, 12))
        moveset = rng.choice((MoveSet.F, MoveSet.FB, MoveSet.STRONG))
        seed = rng.getrandbits(32)
        steps = rng.randint(0, 60)
        assert scramble(word, steps, moveset, seed, max_length) == \
            reference_scramble(word, steps, moveset, seed, max_length), (word, moveset, seed, max_length)
