import pytest

from freebraid.words import PreconditionError, parse_word
from freebraid.parity import Parity
from freebraid.scenarios import (
    BETA_PRIME_ADDED,
    beta_prime_word,
    brunnian_word,
    locate_added_crossings,
    scenario_beta_prime,
    scenario_brunnian,
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
