"""The one-term parity bracket and the reproduction verifier.

The bracket deletes every even classical letter of a word.  For any parity
scheme compatible with the move axioms, FB-equivalent words have F-equal
brackets, so differing brackets certify non-equivalence.  A word that is
all-odd and bigon-free equals its own bracket, which forces it to reappear,
up to strong equivalence, as a subword of every FB-equivalent word; the
verifier extracts that subword as a set of letter positions.
"""

from __future__ import annotations

from itertools import compress

from .normalform import _code, _reduce, f_equal, find_bigons
from .parity import Parity, ParityScheme
from .words import BraidWord, PreconditionError, _Value, permutation


class BracketResult(_Value):
    """The surviving word plus the source positions of its letters."""

    __slots__ = _fields = ("word", "kept_positions")


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
    _defaults = {"reason": ""}

    def format_text(self) -> str:
        if self.success:
            return "reproduced: witness positions " + " ".join(map(str, self.witness_positions))
        return f"not reproduced: {self.reason}"

    def payload(self) -> dict:
        """The report as JSON-ready data."""
        return {
            "success": self.success,
            "witness_positions": list(self.witness_positions) if self.witness_positions is not None else None,
            "reduced_code": self.reduced_code.format() if self.reduced_code is not None else None,
            "reason": self.reason,
        }


def verify_reproduction(beta: BraidWord, beta_prime: BraidWord,
                        scheme: ParityScheme) -> ReproductionReport:
    """Locate beta, up to strong equivalence, inside beta_prime.

    Requires beta to be odd and irreducible under the scheme.  Bigon-reduces
    the candidate's bracket in one pass (`normalform._reduce`) and compares
    codes; the letters that pass keeps alive are the witness subword.  beta
    has no bigon, so its own pass deletes nothing and gives its strands'
    lists and its image.
    """
    if beta.n != beta_prime.n:
        raise PreconditionError(f"strand counts differ: {beta.n} vs {beta_prime.n}")
    if not is_odd_irreducible(beta, scheme):
        raise PreconditionError("the target word is not odd and irreducible under the scheme")
    stacks, image, _ = _reduce(beta)
    if permutation(beta_prime).image != image:
        return ReproductionReport(
            success=False, witness_positions=None, reduced_code=None,
            reason="permutations differ; the words are not equivalent under any move set")
    br = bracket(beta_prime, scheme)
    reduced, reduced_image, alive = _reduce(br.word)
    code = _code(beta.n, reduced_image, reduced[1:])
    if code == _code(beta.n, image, stacks[1:]):
        return ReproductionReport(True, tuple(compress(br.kept_positions, alive)), code)
    return ReproductionReport(
        success=False, witness_positions=None, reduced_code=code,
        reason="brackets differ; the words are certified non-equivalent")
