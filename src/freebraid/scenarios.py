"""Built-in experiment scenarios around the 9-strand brunnian braid word.

The brunnian word is cyclic, all of its classical crossings are odd under
the Gaussian parity, it admits no bigon reduction, and it therefore equals
its own parity bracket and reappears inside every word reachable from it.

The transformed braid extends it by a tenth strand on the left plus two
classical crossings at the bottom left.  That braid is conventionally
drawn as a diagram rather than spelled as a word; the letter sequence here
is one concrete reading of it (see docs/beta_prime.md), chosen so that the
expected findings hold: the added crossings are even, and the bracket's
closure splits into three components, one of them trivial.
"""

from __future__ import annotations

import json

from .bracket import bracket, verify_reproduction
from .moves import MoveSet, scramble
from .normalform import find_bigons
from .parity import GaussianScheme, Parity
from .words import (
    BraidWord,
    PreconditionError,
    _Value,
    closure_components,
    is_cyclic,
    parse_word,
    permutation,
    serialize,
    strand_walk,
)

BRUNNIAN_TEXT = ("n=9; t1 t2 t3 z4 t4 t3 t2 z1 t1 t2 t3 t4 t5 z6 t6 t5 t4 z3"
                 " t3 t4 t5 t6 t7 t8 z8 t7 t6 z5 t4 t3 t2 z2 t3 t4 t5 t6 z7 t8")

# The brunnian word pushed onto strands 2..10, with the new leftmost strand
# crossing into the braid twice at the bottom: z1 t2 t3 t2 z1.  The virtual
# t2 t3 t2 detour carries the intervening strands across between the two
# added classical crossings.
BETA_PRIME_TEXT = ("n=10; t2 t3 t4 z5 t5 t4 t3 z2 t2 t3 t4 t5 t6 z7 t7 t6 t5 z4"
                   " t4 t5 t6 t7 t8 t9 z9 t8 t7 z6 t5 t4 t3 z3 t4 t5 t6 t7 z8 t9"
                   " z1 t2 t3 t2 z1")

BETA_PRIME_ADDED = (38, 42)


def brunnian_word() -> BraidWord:
    return parse_word(BRUNNIAN_TEXT)


def beta_prime_word() -> BraidWord:
    return parse_word(BETA_PRIME_TEXT)


def shifted_brunnian_letters() -> tuple[int, ...]:
    """The brunnian letters moved one strand to the right (for embedding checks)."""
    w = brunnian_word()
    return tuple((abs(x) + 1) * (1 if x > 0 else -1) for x in w.letters)


class BrunnianReport(_Value):
    __slots__ = _fields = ("word", "cyclic", "classical_count", "odd_count", "bigon_count",
                           "bracket_equals_input", "reproduction_ok",
                           "scramble_seed", "scramble_steps", "scramble_max_length")

    @property
    def passed(self) -> bool:
        return (self.cyclic and self.odd_count == self.classical_count
                and self.bigon_count == 0 and self.bracket_equals_input
                and self.reproduction_ok)

    def format_text(self) -> str:
        yn = lambda b: "yes" if b else "no"
        return "\n".join([
            f"word: {serialize(self.word)}",
            f"permutation cyclic: {yn(self.cyclic)}",
            f"odd crossings: {self.odd_count}/{self.classical_count}",
            f"bigons: {self.bigon_count}",
            f"bracket equals input: {yn(self.bracket_equals_input)}",
            f"reproduction after scramble: {yn(self.reproduction_ok)} "
            f"(seed={self.scramble_seed}, steps={self.scramble_steps}, "
            f"max-length={self.scramble_max_length})",
            f"result: {'PASS' if self.passed else 'FAIL'}",
        ])

    def to_json(self) -> str:
        return json.dumps({
            "word": serialize(self.word),
            "cyclic": self.cyclic,
            "classical_count": self.classical_count,
            "odd_count": self.odd_count,
            "bigon_count": self.bigon_count,
            "bracket_equals_input": self.bracket_equals_input,
            "reproduction_ok": self.reproduction_ok,
            "scramble": {"seed": self.scramble_seed, "steps": self.scramble_steps,
                         "max_length": self.scramble_max_length},
            "passed": self.passed,
        })


def scenario_brunnian(seed: int = 0, steps: int = 1000, max_length: int = 200) -> BrunnianReport:
    """Check the five advertised findings on the brunnian word."""
    word = brunnian_word()
    scheme = GaussianScheme()
    br = bracket(word, scheme)
    scrambled, _ = scramble(word, steps, MoveSet.FB, seed, max_length)
    rep = verify_reproduction(word, scrambled, scheme)
    return BrunnianReport(
        word=word,
        cyclic=is_cyclic(permutation(word)),
        classical_count=word.classical_count,
        # A classical letter survives the bracket exactly when it is odd.
        odd_count=br.word.classical_count,
        bigon_count=len(find_bigons(word)),
        bracket_equals_input=(br.word == word),
        reproduction_ok=rep.success,
        scramble_seed=seed,
        scramble_steps=steps,
        scramble_max_length=max_length,
    )


class BetaPrimeReport(_Value):
    """The beta-prime scenario's findings; `bracket_word` is neither printed nor in the JSON."""

    __slots__ = _fields = ("word", "added_positions", "added_parities", "bracket_word",
                           "bracket_components", "bracket_cycles", "trivial_components",
                           "reconstruction_note")

    @property
    def findings_met(self) -> bool:
        return (all(p is Parity.EVEN for p in self.added_parities)
                and self.bracket_components == 3
                and len(self.trivial_components) >= 1)

    def format_text(self) -> str:
        cyc = " ".join("(" + " ".join(map(str, c)) + ")" for c in self.bracket_cycles)
        lines = [
            f"word: {serialize(self.word)}",
            f"added crossings: positions {self.added_positions[0]}, {self.added_positions[1]}",
            f"added crossing parities: {self.added_parities[0].value}, {self.added_parities[1].value}",
            f"bracket closure components: {self.bracket_components}  {cyc}",
            f"trivial component present: {'yes' if self.trivial_components else 'no'}",
            f"expected findings met: {'yes' if self.findings_met else 'no'}",
            f"note: {self.reconstruction_note}",
        ]
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "word": serialize(self.word),
            "added_positions": list(self.added_positions),
            "added_parities": [p.value for p in self.added_parities],
            "bracket_components": self.bracket_components,
            "bracket_cycles": [list(c) for c in self.bracket_cycles],
            "trivial_components": [list(c) for c in self.trivial_components],
            "findings_met": self.findings_met,
            "note": self.reconstruction_note,
        })


def locate_added_crossings(word: BraidWord) -> tuple[int, int]:
    """Best-effort: embed the shifted brunnian letters and treat the leftover
    classical letters as the two added crossings."""
    pattern = shifted_brunnian_letters()
    k = 0
    matched = set()
    for t, x in enumerate(word.letters):
        if k < len(pattern) and x == pattern[k]:
            matched.add(t)
            k += 1
    if k != len(pattern):
        raise PreconditionError(
            "cannot locate the embedded brunnian word; pass the added crossing positions explicitly")
    leftovers = [t for t, x in enumerate(word.letters) if t not in matched and x > 0]
    if len(leftovers) != 2:
        raise PreconditionError(
            f"expected exactly 2 leftover classical letters, found {len(leftovers)}; "
            "pass the added crossing positions explicitly")
    return leftovers[0], leftovers[1]


def trivial_components(word: BraidWord,
                       cycles: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The closure cycles of word whose strands meet no classical crossing."""
    strands = strand_walk(word)[0]
    crossed = {s for t, x in enumerate(word.letters) if x > 0 for s in strands[2 * t:2 * t + 2]}
    return tuple(c for c in cycles if crossed.isdisjoint(c))


def scenario_beta_prime(word: BraidWord | None = None,
                        added: tuple[int, int] | None = None) -> BetaPrimeReport:
    """Evaluate the transformed-braid findings on a candidate word.

    Without arguments, runs the documented reconstruction.  A candidate must
    have 10 strands and a cyclic permutation.
    """
    builtin = word is None
    if builtin:
        word = beta_prime_word()
        if added is None:
            added = BETA_PRIME_ADDED
    if word.n != 10:
        raise PreconditionError(
            f"the transformed braid has 10 strands, got {word.n}")
    k, _ = closure_components(word)
    if k != 1:
        raise PreconditionError(
            f"closure has {k} components; the scenario requires a cyclic permutation")
    if added is None:
        added = locate_added_crossings(word)
    for t in added:
        if not (0 <= t < len(word.letters)) or word.letters[t] <= 0:
            raise PreconditionError(f"position {t} is not a classical letter of the word")
    if added[0] == added[1]:
        raise PreconditionError(f"the two added crossings need two different positions, got {added[0]} twice")
    # Both added positions are classical, so each is odd exactly when the bracket keeps it.
    br = bracket(word, GaussianScheme())
    ncomp, cycles = closure_components(br.word)
    trivial = trivial_components(br.word, cycles)
    note = ("built-in word is one reading of a braid usually given as a diagram; "
            "supply a candidate word to test alternatives"
            if builtin else "user-supplied candidate")
    return BetaPrimeReport(
        word=word,
        added_positions=(added[0], added[1]),
        added_parities=tuple(Parity.ODD if t in br.kept_positions else Parity.EVEN for t in added[:2]),
        bracket_word=br.word,
        bracket_components=ncomp,
        bracket_cycles=cycles,
        trivial_components=trivial,
        reconstruction_note=note,
    )
