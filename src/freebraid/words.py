"""Braid words in classical and virtual generators.

A word on n strands is a finite sequence of letters, each crossing the two
strands at adjacent positions (i, i+1).  Letters are stored as signed
integers: +i is the classical crossing at position i, -i the virtual one.
Strands are identified by their top endpoint number throughout; "position"
means the slot a strand currently occupies as the word is read top to
bottom.  Three loops here swap positions: `crossings_by_strand`, each
strand's classical letters, which the other layers read strands from;
`permutation`, which keeps only the endpoints; and `strand_trace`, the strand
pair at every letter.  `normalform._reduce` swaps them while it reduces.
Tests check all four against walks of their own in `tests/helpers.py`.
Generator and strand indices are 1-based; letter positions are 0-based.
"""

from __future__ import annotations

import json
import re

CLASSICAL = "classical"
VIRTUAL = "virtual"

TEXT = "text"
JSON = "json"


class ParseError(ValueError):
    """Malformed word text or JSON."""


class PreconditionError(ValueError):
    """An operation was called outside its domain (non-cyclic closure, mismatched strand counts, ...)."""


def virtual(i: int) -> int:
    """The virtual generator letter at position i."""
    return -i


class _Value:
    """Base of the package's value classes: immutable, slotted, equal and hashed by their fields.

    A subclass sets `__slots__ = _fields = (...)`, and `_defaults` for fields that have one. The
    constructor binds arguments to `_fields` as a frozen dataclass's does, TypeError included; copies and
    pickles pass every field by position. `BraidWord`, `Permutation`, `ChordDiagram` and `StrandPartition`
    override it to check their data, then call it (`ChordDiagram` also derives `chord_of`); `EquivalenceBall`
    to fill `_member_set`; and `MoveInstance`, built every scramble step, to call its slots' setters for
    speed. `_trusted` is the one unchecked constructor, for data valid by construction (`BraidWord` and
    `Permutation` say what its caller guarantees). Slots outside `_fields` hold derived data that is
    neither compared nor printed. Equality holds only between instances of one class.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) == len(fields) and not kwargs:  # every field by position: nothing to check
            for field, v in zip(fields, args):
                object.__setattr__(self, field, v)
            return
        name = type(self).__qualname__
        for key in kwargs:
            if key not in fields[len(args):]:
                what = "multiple values for" if key in fields else "an unexpected keyword"
                raise TypeError(f"{name}() got {what} argument {key!r}")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if len(args) > len(fields) or len(values) < len(fields):
            missing = [f for f in fields if f not in values]
            raise TypeError(f"{name}() takes the fields {fields}; got {len(args)} by position, missing {missing}")
        for field in fields:
            object.__setattr__(self, field, values[field])

    @classmethod
    def _trusted(cls, *values):
        """cls(*values), every field given by position, without the class's checks."""
        value = object.__new__(cls)
        for field, v in zip(cls._fields, values):
            object.__setattr__(value, field, v)
        return value

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self):
        return self.__class__, self._astuple()


class BraidWord(_Value):
    """An n-strand braid word.  The empty sequence is the identity braid.  A caller of
    `BraidWord._trusted(n, letters)` guarantees an int n from 1 to `MAX_STRANDS` and a tuple of ints x
    with 1 <= abs(x) <= n - 1."""

    __slots__ = _fields = ("n", "letters")

    def __init__(self, n: int, letters: tuple[int, ...] = ()):
        letters = tuple(letters)  # tuple() of a tuple is that tuple: no copy
        if type(n) is not int:
            raise ValueError(f"strand count must be an integer, got {n!r}")
        _checked_strand_count(n, ValueError)
        for x in letters:
            if type(x) is not int or x == 0 or not (1 <= abs(x) <= n - 1):
                raise ValueError(f"letter {x!r} is not valid on {n} strands")
        super().__init__(n, letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise PreconditionError(f"cannot concatenate words on {self.n} and {other.n} strands")
        return BraidWord._trusted(self.n, self.letters + other.letters)

    @property
    def classical_positions(self) -> tuple[int, ...]:
        return tuple(t for t, x in enumerate(self.letters) if x > 0)

    @property
    def classical_count(self) -> int:
        return sum(1 for x in self.letters if x > 0)


class Permutation(_Value):
    """A bijection of {1,...,n}; image[k-1] holds the value at k.  A caller of
    `Permutation._trusted(image)` guarantees a tuple holding each of 1..len(image) once."""

    __slots__ = _fields = ("image",)

    def __init__(self, image: tuple[int, ...]):
        image = tuple(image)
        n = len(image)
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"{image!r} is not a bijection of 1..{n}")
        super().__init__(image)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._trusted(tuple(range(1, _checked_strand_count(n, ValueError, least=0) + 1)))

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, k: int) -> int:
        return self.image[k - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """Apply self first, then other: (self.compose(other))(k) = other(self(k)).

        This matches stacking words top to bottom; see `permutation`.
        """
        if self.n != other.n:
            raise PreconditionError("cannot compose permutations of different sizes")
        return Permutation._trusted(tuple([other.image[v - 1] for v in self.image]))

    def inverse(self) -> "Permutation":
        return Permutation._trusted(_image((0,) + self.image))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition; each cycle starts at its least element, cycles sorted."""
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = []
            k = start
            while not seen[k - 1]:
                seen[k - 1] = True
                cyc.append(k)
                k = self.image[k - 1]
            out.append(tuple(cyc))
        return tuple(out)


# Larger strand counts are refused by the parser, `BraidWord`, `Permutation.identity` and
# `parity.StrandPartition.from_first`, before anything of size n is built.
MAX_STRANDS = 10_000
# Longer words are refused at parse time, after at most MAX_LETTERS + 1 tokens are split off.
MAX_LETTERS = 1_000_000

# Indices are ASCII digits only: `\d` and `int` would also take other scripts' digits.
_HEADER_RE = re.compile(r"\An=([0-9]+)\s*;")
_LETTER_RE = re.compile(r"[zt]0*[1-9][0-9]*\Z")  # a positive index


def parse_word(text: str) -> BraidWord:
    """Parse a word from the text grammar or from its JSON form.

    Text: optional header ``n=<int>;`` followed by whitespace-separated
    letters ``z<i>`` (classical) and ``t<i>`` (virtual).  Without a header
    the strand count is the smallest one making the word valid.  JSON input
    is detected by a leading ``{``.  Strand counts above `MAX_STRANDS` and
    words of more than `MAX_LETTERS` letters are refused, JSON ones before they are decoded.
    """
    s = text.strip()
    if s.startswith("{"):
        return _parse_word_json(s)
    n = None
    m = _HEADER_RE.match(s)
    if m:
        n = _checked_strand_count(_ascii_int(m.group(1)))
        s = s[m.end():]
    tokens = s.split(maxsplit=MAX_LETTERS)
    if len(tokens) > MAX_LETTERS:
        raise ParseError(f"letter count must be at most {MAX_LETTERS}")
    # Each distinct token is checked and converted once; the rest are lookups.
    value = {tok: i if tok[0] == "z" else -i
             for tok in set(tokens) if _LETTER_RE.match(tok) and (i := _ascii_int(tok[1:])) is not None}
    try:
        letters = tuple(map(value.__getitem__, tokens))
    except KeyError as e:  # raised at the first token that is not a letter
        tok = e.args[0]
        if tok[0] in "zt" and _ascii_int(tok[1:]) == 0:
            raise ParseError(f"letter index must be positive in {tok!r}") from None
        if _LETTER_RE.match(tok):  # left out of value: more digits than int() converts
            raise ParseError(f"letter index of {len(tok[1:].lstrip('0'))} digits out of range") from None
        raise ParseError(f"unknown token {tok!r}") from None
    top = max(map(abs, value.values()), default=0)  # every token is a key of value
    if n is None:
        n = _checked_strand_count(top + 1)
    elif top > n - 1:
        raise ParseError(f"letter index {next(i for i in map(abs, letters) if i > n - 1)} "
                         f"out of range for n={n}")
    return BraidWord._trusted(n, letters)


def _ascii_int(digits: str) -> int | None:
    """The value of ASCII digits, leading zeros dropped; None for other text."""
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(digits.lstrip("0") or "0")
    except ValueError:  # more digits than int() converts: too many for any count or index
        return None


def _checked_strand_count(n: int | None, error: type[ValueError] = ParseError, least: int = 1) -> int:
    """n if it is a strand count from least to MAX_STRANDS, else `error` in the parser's words; None
    stands for a number too long to convert."""
    if n is not None and least <= n <= MAX_STRANDS:
        return n
    got = "a number too long to convert"
    try:
        got = str(n) if n is not None else got
    except ValueError:  # more digits than str() converts: 10**4300 after a header-less index of 4300 nines
        pass
    if n is not None and n < least:
        raise error(f"strand count must be >= {least}, got {got}")
    raise error(f"strand count must be at most {MAX_STRANDS}, got {got}")


def _parse_word_json(s: str) -> BraidWord:
    # A word of L letters opens L + 1 objects and one array, and holds at most 2L + 1 commas.
    # Each entry of an array or object after its first follows a comma, so counting these
    # before decoding bounds what json builds.  Brackets or commas inside strings only count high.
    if s.count("{") + s.count("[") > MAX_LETTERS + 2 or s.count(",") > 2 * MAX_LETTERS + 1:
        raise ParseError(f"letter count must be at most {MAX_LETTERS}")
    try:
        obj = json.loads(s)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON word: {e}") from e
    except ValueError:  # a number with more digits than int() converts
        raise ParseError("invalid JSON word: a number has too many digits") from None
    except RecursionError:
        raise ParseError("invalid JSON word: arrays or objects nested too deeply") from None
    if not isinstance(obj, dict) or type(obj.get("n")) is not int:
        raise ParseError("JSON word must be an object with an integer field 'n'")
    raw = obj.get("letters", [])
    if not isinstance(raw, list):
        raise ParseError("JSON field 'letters' must be an array")
    n = _checked_strand_count(obj["n"])
    if len(raw) > MAX_LETTERS:
        raise ParseError(f"letter count must be at most {MAX_LETTERS}")
    letters = []
    for entry in raw:
        if not isinstance(entry, dict) or entry.get("kind") not in (CLASSICAL, VIRTUAL):
            raise ParseError(f"bad letter entry {entry!r}")
        idx = entry.get("i")
        if type(idx) is not int or idx < 1:
            raise ParseError(f"bad letter index in {entry!r}")
        if idx > n - 1:
            raise ParseError(f"letter index {idx} out of range for n={n}")
        letters.append(idx if entry["kind"] == CLASSICAL else -idx)
    return BraidWord._trusted(n, tuple(letters))


def serialize(word: BraidWord, format: str = TEXT) -> str:
    """Serialize a word; `parse_word` inverts both formats."""
    if format == TEXT:
        parts = [f"n={word.n};"]
        parts += [("z" if x > 0 else "t") + str(abs(x)) for x in word.letters]
        return " ".join(parts)
    if format == JSON:
        return json.dumps({
            "n": word.n,
            "letters": [{"kind": CLASSICAL if x > 0 else VIRTUAL, "i": abs(x)}
                        for x in word.letters],
        })
    raise ValueError(f"unknown format {format!r}")


def _image(arrangement: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """The endpoint map of an arrangement, the strand at each position from 1 (slot 0 unused)."""
    image = [0] * (len(arrangement) - 1)
    for p in range(1, len(arrangement)):
        image[arrangement[p] - 1] = p
    return tuple(image)


def permutation(word: BraidWord) -> Permutation:
    """The endpoint map: top endpoint k goes to bottom position permutation(word)(k).

    Both classical and virtual letters transpose.  Concatenation satisfies
    permutation(w1 * w2) = permutation(w1).compose(permutation(w2)).
    """
    pos = list(range(word.n + 1))
    for i in map(abs, word.letters):
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    return Permutation._trusted(_image(pos))


def is_cyclic(p: Permutation) -> bool:
    """True iff p is a single n-cycle."""
    return len(p.cycles()) == 1


def closure_components(word: BraidWord) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Component count and cycles of the closure (bottom j joined to top j)."""
    cycles = permutation(word).cycles()
    return len(cycles), cycles


def strand_trace(word: BraidWord) -> tuple[tuple[int, int], ...]:
    """For each letter, classical or virtual, the sorted pair of strand identities meeting at it."""
    pos = list(range(word.n + 1))  # 1-based: the strand at each position
    pairs = []
    for i in map(abs, word.letters):
        a, b = pos[i], pos[i + 1]
        pos[i], pos[i + 1] = b, a
        pairs.append((a, b) if a < b else (b, a))
    return tuple(pairs)


def crossings_by_strand(word: BraidWord) -> tuple[list[list[int]], tuple[int, ...]]:
    """For each strand s, the positions of its classical letters in order, at index s (0 is unused),
    and the endpoint map's image.

    The layers read strands from these lists.  A test checks them against a second pass over
    `tests/helpers.reference_strand_trace`.
    """
    pos = list(range(word.n + 1))
    seqs: list[list[int]] = [[] for _ in range(word.n + 1)]
    for t, x in enumerate(word.letters):
        if x < 0:
            x = -x
            pos[x], pos[x + 1] = pos[x + 1], pos[x]
        else:
            a, b = pos[x], pos[x + 1]
            pos[x], pos[x + 1] = b, a
            seqs[a].append(t)
            seqs[b].append(t)
    return seqs, _image(pos)
