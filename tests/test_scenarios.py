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
