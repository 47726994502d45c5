import itertools

import pytest

from freebraid.words import BraidWord, PreconditionError, is_cyclic, parse_word, permutation
from freebraid.parity import Parity, gaussian_parity
from freebraid.scenarios import (
    BETA_PRIME_ADDED,
    beta_prime_word,
    brunnian_word,
    locate_added_crossings,
    scenario_beta_prime,
    scenario_brunnian,
    shifted_brunnian_letters,
    trivial_components,
)


def test_brunnian_scenario_passes():
    report = scenario_brunnian(seed=3, steps=400, max_length=150)
    assert report.passed
    assert report.classical_count == 8
    assert report.odd_count == 8
    assert report.bigon_count == 0
    assert report.bracket_equals_input
    assert report.reproduction_ok
    assert "PASS" in report.format_text()


def test_beta_prime_default_reconstruction():
    report = scenario_beta_prime()
    assert report.findings_met
    assert report.added_positions == BETA_PRIME_ADDED
    assert report.added_parities == (Parity.EVEN, Parity.EVEN)
    assert report.bracket_components == 3
    assert report.trivial_components == ((1,),)
    assert "diagram" in report.reconstruction_note


def test_trivial_components_count_only_classical_crossings():
    """A cycle whose strand meets only virtual letters is trivial: strand 1 meets only t1, strands 2 and 3 meet z2."""
    word = parse_word("n=3; t1 t1 z2 z2")
    assert permutation(word).cycles() == ((1,), (2,), (3,))
    assert trivial_components(word, permutation(word).cycles()) == ((1,),)


# The built-in beta-prime word written out letter by letter: the reference for `beta_prime_word`.
BETA_PRIME_LITERAL = ("n=10; t2 t3 t4 z5 t5 t4 t3 z2 t2 t3 t4 t5 t6 z7 t7 t6 t5 z4"
                      " t4 t5 t6 t7 t8 t9 z9 t8 t7 z6 t5 t4 t3 z3 t4 t5 t6 t7 z8 t9"
                      " z1 t2 t3 t2 z1")


def test_beta_prime_word_and_scenario_match_the_literal_reference():
    """The word built from the brunnian word is the literal, and the built-in scenario, which finds the
    added crossings, reports what the literal with positions 38 and 42 given reports, note aside."""
    reference = parse_word(BETA_PRIME_LITERAL)
    assert beta_prime_word() == reference
    builtin, candidate = scenario_beta_prime(), scenario_beta_prime(reference, (38, 42))
    fields = [f for f in builtin._fields if f != "reconstruction_note"]
    assert [getattr(builtin, f) for f in fields] == [getattr(candidate, f) for f in fields]
    assert builtin.reconstruction_note != candidate.reconstruction_note


@pytest.mark.parametrize("added", [(38, 42, 38), (), (38,), (True, 42), (38, False), (38.0, 42), ("38", "42")])
def test_beta_prime_refuses_added_that_is_not_two_int_positions(added):
    with pytest.raises(PreconditionError, match=r"^the added crossings are two int positions, got "):
        scenario_beta_prime(added=added)
    with pytest.raises(PreconditionError, match=r"^the added crossings are two int positions, got "):
        scenario_beta_prime(beta_prime_word(), added)


def test_beta_prime_word_shape():
    w = beta_prime_word()
    assert w.n == 10
    assert len(w) == 43
    assert w.classical_count == 10


def test_locate_added_crossings_on_builtin():
    assert locate_added_crossings(beta_prime_word()) == BETA_PRIME_ADDED


def test_beta_prime_rejects_wrong_arity():
    with pytest.raises(PreconditionError):
        scenario_beta_prime(brunnian_word())


def test_beta_prime_rejects_non_cyclic():
    with pytest.raises(PreconditionError):
        scenario_beta_prime(parse_word("n=10; z1 z1"))


def test_beta_prime_rejects_bad_added_positions():
    with pytest.raises(PreconditionError):
        scenario_beta_prime(beta_prime_word(), added=(0, 1))  # virtual letters
    with pytest.raises(PreconditionError, match="two different positions, got 38 twice"):
        scenario_beta_prime(beta_prime_word(), added=(38, 38))


def test_beta_prime_added_parities_match_gaussian_parity_on_appended_family():
    """Reading parities off the kept positions agrees with the assignment itself.

    The family is the shifted brunnian word followed by two z1 letters and one
    or three virtual letters t1..t3 in any order, as in
    `scripts/beta_prime_search.py --appended-only`.
    """
    shifted = shifted_brunnian_letters()
    checked, seen = 0, set()
    for virtual_letters in (1, 3):
        tails = {tail for idx in itertools.product(range(1, 4), repeat=virtual_letters)
                 for tail in itertools.permutations([1, 1] + [-k for k in idx])}
        for tail in sorted(tails):
            word = BraidWord(10, shifted + tail)
            if not is_cyclic(permutation(word)):
                continue
            added = tuple(len(shifted) + i for i, x in enumerate(tail) if x > 0)
            expected = tuple(gaussian_parity(word).parity_of(t) for t in added)
            assert scenario_beta_prime(word, added).added_parities == expected, word
            checked += 1
            seen.update(expected)
    assert checked == 133 and seen == {Parity.EVEN, Parity.ODD}
