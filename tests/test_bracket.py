import itertools
import json
import random

import pytest

from freebraid.words import BraidWord, Permutation, PreconditionError, is_cyclic, parse_word, permutation
from freebraid.moves import MoveSet, apply_move, scramble
from freebraid.normalform import f_equal
from freebraid.parity import ComponentScheme, GaussianScheme, QGaussianScheme, StrandPartition
from freebraid.oracle import OracleVerdict, bfs_ball, oracle_equal
from freebraid.bracket import bracket, brackets_equal, is_odd_irreducible, verify_reproduction
from freebraid.scenarios import BRUNNIAN_TEXT, brunnian_word

from helpers import (
    applicable_moves,
    random_scheme,
    random_word,
    reference_is_odd_irreducible,
    reference_verify_reproduction,
)


def one_part_scheme(n):
    return ComponentScheme(StrandPartition.from_first(n, set(range(1, n + 1))))


def test_bracket_drops_even_classical_letters_only():
    word = parse_word("n=3; z1 t2 z2")
    result = bracket(word, one_part_scheme(3))
    assert result.word == parse_word("n=3; t2")
    assert result.kept_positions == (1,)


def test_bracket_fixes_brunnian_word():
    word = brunnian_word()
    result = bracket(word, GaussianScheme())
    assert result.word == word
    assert result.kept_positions == tuple(range(38))


def test_bracket_keeps_odd_pair_under_completion():
    result = bracket(BraidWord(2, (1, 1)), QGaussianScheme(Permutation((2, 1))))
    assert result.word == BraidWord(2, (1, 1))


def test_bracket_is_constant_on_every_fb_ball_of_short_cyclic_words():
    """Bracket invariance against the BFS oracle rather than the move engine's walks.

    Every cyclic word on 3 strands of length at most 4 (168 words) meets each
    member of its FB ball with length bound 6 (up to 195 members, 23 570
    pairs in all), and each pair must have F-equal Gaussian brackets.
    """
    scheme = GaussianScheme()
    pairs = 0
    for length in range(5):
        for letters in itertools.product((1, 2, -1, -2), repeat=length):
            word = BraidWord(3, letters)
            if not is_cyclic(permutation(word)):
                continue
            ball = bfs_ball(word, MoveSet.FB, 6)
            assert not ball.cap_exceeded
            for member in ball.members:
                assert brackets_equal(word, member, scheme), (word, member)
            pairs += len(ball.members)
    assert pairs == 23570


def test_bracket_kept_positions_replay():
    rng = random.Random(8)
    for _ in range(50):
        word = random_word(rng, rng.randint(2, 5), rng.randint(0, 12))
        scheme = random_scheme(rng, word)
        assignment = scheme.assignment(word)
        result = bracket(word, scheme)
        assert result.word.letters == tuple(word.letters[t] for t in result.kept_positions)
        assert list(result.kept_positions) == sorted(result.kept_positions)
        for t, x in enumerate(word.letters):
            kept = t in result.kept_positions
            assert kept == (x < 0 or assignment.is_odd(t))


def test_bracket_requires_applicable_scheme():
    with pytest.raises(PreconditionError):
        bracket(parse_word("n=3; z1 z1"), GaussianScheme())


def test_brackets_equal_rejects_mismatched_strand_counts():
    with pytest.raises(PreconditionError, match="strand counts differ: 2 vs 3"):
        brackets_equal(BraidWord(2, (1,)), BraidWord(3, (1,)), GaussianScheme())


def test_brackets_equal_reflexive():
    w = parse_word("n=3; z1 t2 z2")
    assert brackets_equal(w, w, one_part_scheme(3))


def test_brackets_equal_across_scramble():
    word = brunnian_word()
    scrambled, _ = scramble(word, 500, MoveSet.FB, seed=21, max_length=200)
    assert brackets_equal(word, scrambled, GaussianScheme())


def test_brackets_equal_pair_vs_empty_under_completion():
    scheme = QGaussianScheme(Permutation((2, 1)))
    assert brackets_equal(BraidWord(2, (1, 1)), BraidWord(2), scheme)


def test_brackets_equal_invariant_under_every_fb_move():
    rng = random.Random(31)
    checked = 0
    while checked < 250:
        word = random_word(rng, rng.randint(2, 5), rng.randint(0, 10))
        scheme = random_scheme(rng, word)
        moves = applicable_moves(word, MoveSet.FB)
        if not moves:
            continue
        move = moves[rng.randrange(len(moves))]
        assert brackets_equal(word, apply_move(word, move), scheme), (word, scheme, move)
        checked += 1


def test_is_odd_irreducible_examples():
    assert is_odd_irreducible(brunnian_word(), GaussianScheme())
    assert not is_odd_irreducible(parse_word("n=2; z1 t1 z1"), GaussianScheme())
    assert is_odd_irreducible(BraidWord(2), one_part_scheme(2))


def test_is_odd_irreducible_matches_the_find_bigons_reference():
    """Bigon-free read off one reduction pass is bigon-free by `find_bigons`, and verify refuses exactly the rest.

    Every word at n = 2 up to 10 letters, n = 3 up to 7 and n = 4 up to 5, under the component scheme with
    first part {1} and, for cyclic words, the Gaussian scheme: 39 369 checks, 4 592 of them odd irreducible.
    """
    checks = odd_irreducible = 0
    for n, max_length in ((2, 10), (3, 7), (4, 5)):
        alphabet = [*range(1, n), *range(-1, -n, -1)]
        component = ComponentScheme(StrandPartition.from_first(n, {1}))
        for length in range(max_length + 1):
            for letters in itertools.product(alphabet, repeat=length):
                word = BraidWord(n, letters)
                for scheme in (component, GaussianScheme()) if is_cyclic(permutation(word)) else (component,):
                    expected = reference_is_odd_irreducible(word, scheme)
                    assert is_odd_irreducible(word, scheme) == expected, (word, scheme)
                    if expected:
                        assert verify_reproduction(word, word, scheme).success, (word, scheme)
                    else:
                        with pytest.raises(PreconditionError, match="^the target word is not odd and irreducible"):
                            verify_reproduction(word, word, scheme)
                    checks += 1
                    odd_irreducible += expected
    assert (checks, odd_irreducible) == (39369, 4592)


def test_odd_irreducible_words_equal_their_bracket():
    rng = random.Random(17)
    seen = 0
    while seen < 40:
        word = random_word(rng, rng.randint(2, 5), rng.randint(0, 10))
        scheme = random_scheme(rng, word)
        if not is_odd_irreducible(word, scheme):
            continue
        assert bracket(word, scheme).word == word
        seen += 1


def test_verify_reproduction_identity_case():
    word = brunnian_word()
    report = verify_reproduction(word, word, GaussianScheme())
    assert report.success
    assert report.witness_positions == tuple(range(38))


def test_verify_reproduction_after_scramble():
    word = brunnian_word()
    scrambled, _ = scramble(word, 1000, MoveSet.FB, seed=4, max_length=200)
    report = verify_reproduction(word, scrambled, GaussianScheme())
    assert report.success
    assert report.witness_positions is not None
    # the witness is a subword of the scrambled word
    sub = tuple(scrambled.letters[t] for t in report.witness_positions)
    from freebraid.normalform import canonical_code
    assert canonical_code(BraidWord(9, sub)) == canonical_code(word)


def odd_irreducible_cyclic_words_of_length_4(scheme):
    """The n = 3 words of 4 letters, with a classical one, that are cyclic and odd irreducible under scheme."""
    return [w for w in (BraidWord(3, ls) for ls in itertools.product((1, 2, -1, -2), repeat=4))
            if w.classical_count and is_cyclic(permutation(w)) and is_odd_irreducible(w, scheme)]


def test_reproduction_witnesses_are_certified_by_the_oracle():
    """The reproduction theorem on every odd-irreducible cyclic word at n = 3, length 4, with a classical letter.

    Every member of each word's FB ball at bound 6 reproduces the word, and
    the oracle, not `canonical_code`, certifies that the witness subword is
    strongly equal to it.  The search needs the bound max length + 4: at + 2
    three witnesses, such as n=3; t2 t1 z2 z1 for n=3; z1 t2 z1 t1, are not found.
    """
    scheme = GaussianScheme()
    betas = odd_irreducible_cyclic_words_of_length_4(scheme)
    assert len(betas) == 14
    members = 0
    for beta in betas:
        ball = bfs_ball(beta, MoveSet.FB, 6)
        assert not ball.cap_exceeded
        for candidate in ball.members:
            report = verify_reproduction(beta, candidate, scheme)
            assert report.success, (beta, candidate)
            witness = BraidWord(3, tuple(candidate.letters[t] for t in report.witness_positions))
            bound = max(len(beta), len(witness)) + 4
            assert oracle_equal(beta, witness, MoveSet.STRONG, bound) is OracleVerdict.EQUAL, (beta, candidate)
        members += len(ball.members)
    assert members == 678


def test_verify_reproduction_matches_the_two_walk_reference():
    """One reduction per word gives the reports that the reduced word and its second walk gave.

    The words are 200 seeded FB scrambles of the brunnian word, each also with its first classical letter
    made virtual, and every n = 3 target above against every member of every ball, so that both refusals
    and success are met.
    """
    scheme = GaussianScheme()
    brunnian = brunnian_word()
    outcomes = set()
    for seed in range(200):
        scrambled, _ = scramble(brunnian, 300, MoveSet.FB, seed, 200)
        t = next(t for t, x in enumerate(scrambled.letters) if x > 0)
        flipped = BraidWord(9, scrambled.letters[:t] + (-scrambled.letters[t],) + scrambled.letters[t + 1:])
        for candidate in (scrambled, flipped):
            report = verify_reproduction(brunnian, candidate, scheme)
            assert report == reference_verify_reproduction(brunnian, candidate, scheme), (seed, candidate)
            outcomes.add(report.reason)
    betas = odd_irreducible_cyclic_words_of_length_4(scheme)
    candidates = {m for beta in betas for m in bfs_ball(beta, MoveSet.FB, 6).members}
    for beta in betas:
        for candidate in candidates:
            report = verify_reproduction(beta, candidate, scheme)
            assert report == reference_verify_reproduction(beta, candidate, scheme), (beta, candidate)
            outcomes.add(report.reason)
    assert len(outcomes) == 3  # reproduced, brackets differ, permutations differ


def test_verify_reproduction_refutes_inequivalent_word():
    report = verify_reproduction(brunnian_word(), BraidWord(9), GaussianScheme())
    assert not report.success
    assert "permutation" in report.reason


def test_verify_reproduction_rejects_non_irreducible_target():
    with pytest.raises(PreconditionError):
        verify_reproduction(parse_word("n=2; z1 t1 z1"), parse_word("n=2; t1"), GaussianScheme())


def test_verify_reproduction_detects_bracket_mismatch():
    # same permutation, provably different words: one classical crossing vs
    # one virtual crossing on three strands
    scheme = ComponentScheme(StrandPartition.from_first(3, {1}))
    beta = parse_word("n=3; z1")
    assert is_odd_irreducible(beta, scheme)
    report = verify_reproduction(beta, parse_word("n=3; t1"), scheme)
    assert not report.success
    assert "brackets differ" in report.reason


def test_verify_reproduction_succeeds_on_padded_equivalent():
    scheme = ComponentScheme(StrandPartition.from_first(3, {1}))
    beta = parse_word("n=3; z1")
    candidate = parse_word("n=3; z1 z2 z2")  # extra crossings cancel as a bigon
    report = verify_reproduction(beta, candidate, scheme)
    assert report.success
    assert report.witness_positions == (0,)


def test_report_json_round_trip():
    word = brunnian_word()
    report = verify_reproduction(word, word, GaussianScheme())
    payload = json.loads(json.dumps(report.payload()))
    assert payload["success"] is True
    assert payload["witness_positions"] == list(range(38))
    assert payload["reduced_code"].startswith("n=9;")
