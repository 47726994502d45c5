"""The one-term parity bracket and the reproduction verifier.

The bracket deletes every even classical letter of a word.  For any parity
scheme compatible with the move axioms, FB-equivalent words have F-equal
brackets, so differing brackets certify non-equivalence.  A word that is
all-odd and bigon-free equals its own bracket, which forces it to reappear,
up to strong equivalence, as a subword of every FB-equivalent word; the
verifier extracts that subword as a set of letter positions.
"""

from __future__ import annotations

import json

from .normalform import (
    CanonicalCode,
    canonical_code,
    f_equal,
    find_bigons,
    irreducible_form_tracked,
)
from .parity import Parity, ParityScheme
from .words import BraidWord, PreconditionError, _Value, permutation


class BracketResult(_Value):
    """The surviving word plus the source positions of its letters."""

    __slots__ = _fields = ("word", "kept_positions")

    def __init__(self, word: BraidWord, kept_positions: tuple[int, ...]):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "kept_positions", kept_positions)


def bracket(word: BraidWord, scheme: ParityScheme) -> BracketResult:
    """Delete even classical letters; virtual and odd classical letters survive in order."""
    parities, odd = scheme.assignment(word).parities, Parity.ODD
    kept = tuple([t for t, x in enumerate(word.letters) if x < 0 or parities[t] is odd])
    return BracketResult(BraidWord._trusted(word.n, tuple([word.letters[t] for t in kept])), kept)


def brackets_equal(w1: BraidWord, w2: BraidWord, scheme: ParityScheme) -> bool:
    """F-equality of the two brackets; invariant under all FB moves."""
    if w1.n != w2.n:
        raise PreconditionError(f"strand counts differ: {w1.n} vs {w2.n}")
    return f_equal(bracket(w1, scheme).word, bracket(w2, scheme).word)


def is_odd_irreducible(word: BraidWord, scheme: ParityScheme) -> bool:
    """True iff every classical letter is odd and no bigon reduction applies."""
    return scheme.assignment(word).all_odd() and not find_bigons(word)


class ReproductionReport(_Value):
    """Outcome of the subword-reproduction check.

    On success, witness_positions lists the candidate's letters realizing a
    subword strongly equivalent to the target.  On failure the two words
    are certified non-equivalent under the full move set.
    """

    __slots__ = _fields = ("success", "witness_positions", "reduced_code", "reason")

    def __init__(self, success: bool, witness_positions: tuple[int, ...] | None,
                 reduced_code: CanonicalCode | None, reason: str = ""):
        object.__setattr__(self, "success", success)
        object.__setattr__(self, "witness_positions", witness_positions)
        object.__setattr__(self, "reduced_code", reduced_code)
        object.__setattr__(self, "reason", reason)

    def to_json(self) -> str:
        return json.dumps({
            "success": self.success,
            "witness_positions": list(self.witness_positions) if self.witness_positions is not None else None,
            "reduced_code": self.reduced_code.format() if self.reduced_code is not None else None,
            "reason": self.reason,
        })


def verify_reproduction(beta: BraidWord, beta_prime: BraidWord,
                        scheme: ParityScheme) -> ReproductionReport:
    """Locate beta, up to strong equivalence, inside beta_prime.

    Requires beta to be odd and irreducible under the scheme.  Takes the
    candidate's bracket, bigon-reduces it while tracking positions, and
    compares codes; surviving positions are the witness subword.
    """
    if beta.n != beta_prime.n:
        raise PreconditionError(f"strand counts differ: {beta.n} vs {beta_prime.n}")
    if not is_odd_irreducible(beta, scheme):
        raise PreconditionError("the target word is not odd and irreducible under the scheme")
    if permutation(beta_prime) != permutation(beta):
        return ReproductionReport(
            success=False, witness_positions=None, reduced_code=None,
            reason="permutations differ; the words are not equivalent under any move set")
    br = bracket(beta_prime, scheme)
    reduced, survivors = irreducible_form_tracked(br.word)
    code = canonical_code(reduced)
    if code == canonical_code(beta):
        witness = tuple(br.kept_positions[k] for k in survivors)
        return ReproductionReport(True, witness, code)
    return ReproductionReport(
        success=False, witness_positions=None, reduced_code=code,
        reason="brackets differ; the words are certified non-equivalent")
