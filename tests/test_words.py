import copy
import dataclasses
import inspect
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given

from freebraid.words import (
    BraidWord,
    JSON,
    MAX_STRANDS,
    ParseError,
    Permutation,
    closure_components,
    crossings_by_strand,
    is_cyclic,
    parse_word,
    permutation,
    serialize,
    strand_trace,
    _Value,
)
from freebraid.bracket import BracketResult, ReproductionReport, bracket, verify_reproduction
from freebraid.moves import Direction, MoveInstance, MoveSet, Relation, scramble
from freebraid.normalform import Bigon, CanonicalCode, canonical_code, find_bigons, irreducible_form_tracked
from freebraid.oracle import EquivalenceBall, bfs_ball
from freebraid.parity import (
    ChordDiagram,
    ComponentScheme,
    GaussianScheme,
    Parity,
    ParityAssignment,
    QGaussianScheme,
    StrandPartition,
    chord_diagram,
    gaussian_parity,
)
from freebraid.scenarios import (
    BRUNNIAN_TEXT,
    BetaPrimeReport,
    BrunnianReport,
    scenario_beta_prime,
    scenario_brunnian,
)

from helpers import random_cyclic_word, random_partition, random_word, reference_parse_word, refusal_and_peak
from strategies import braid_words, permutations, word_pairs_same_n


def test_parse_single_letter():
    assert parse_word("n=2; z1") == BraidWord(2, (1,))


def test_parse_header_optional_infers_smallest_n():
    assert parse_word("z1 t3").n == 4
    assert parse_word("").n == 1


def test_parse_brunnian_word():
    w = parse_word(BRUNNIAN_TEXT)
    assert w.n == 9
    assert len(w) == 38
    assert w.classical_count == 8


@pytest.mark.parametrize("text", [
    "n=3; z3", "n=2; q1", "z0", "n=2; z1 x", "n=0;",
    # Digits of other scripts are not coerced: Arabic-Indic one and three.
    "z\u0661", "n=\u0663; z1 t2", "n=3; z\u0661",
    '{"n": true, "letters": []}',
    '{"n": 2, "letters": [{"kind": "classical", "i": true}]}',
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_word(text)


def _outcome(parse, text):
    """The parsed word, or the type and message of the error raised."""
    try:
        return parse(text)
    except ValueError as e:
        return type(e), str(e)


# str.split's whitespace, ASCII and not: tab, newline, em space, no-break space, a separator.
_SPACES = (" ", "  ", "\t", "\n", "\u2003", "\xa0", "\x1c")


def _random_text(rng):
    """A valid word text: header on or off, mixed whitespace, leading zeros."""
    n = rng.randint(2, 12)
    toks = [rng.choice("zt") + "0" * rng.choice((0, 0, 0, 1, 3)) + str(rng.randint(1, n - 1))
            for _ in range(rng.randint(0, 12))]
    body = "".join(rng.choice(_SPACES) + tok for tok in toks)
    if rng.random() < 0.5:
        sep = rng.choice(("",) + _SPACES)
        body = f"n={'0' * rng.choice((0, 0, 2))}{n}{sep};{rng.choice(('',) + _SPACES)}{body.lstrip()}"
    return rng.choice(("",) + _SPACES) + body + rng.choice(("",) + _SPACES)


def test_parse_matches_reference_on_valid_texts():
    rng = random.Random(9)
    for _ in range(3000):
        text = _random_text(rng)
        assert parse_word(text) == reference_parse_word(text), text


@pytest.mark.parametrize("text", [
    "z1z2", "q1", "z0", "t0", "t00", "z", "t", "Z1", "zz1", "z-1", "z+1", "z1_0", "n=3;;",
    "n = 3; z1", "n=3 z1", "n=3; z1;", "z1 q1 z0", "z1 z0 q1", "n=0; q1", "n=2; q1 z0",
    "n=3; z1 t5 z7", "n=3; t3", "n=1; z1",
    "z\u0661", "n=\u0663; z1 t2", "n=3; z\u0661", "z\uff11", "t1\u00b2",
])
def test_parse_errors_match_reference(text):
    outcome = _outcome(parse_word, text)
    assert outcome == _outcome(reference_parse_word, text)
    assert outcome[0] is ParseError


def test_parse_matches_reference_on_random_malformed_texts():
    rng = random.Random(10)
    pieces = ("z1", "t2", "z03", "t0", "z00", "q1", "z", "z1z2", "n=3;", "n=0;", "n=5 ;", ";", "=",
              "z\u0661", "t12", "x", "{") + _SPACES
    for _ in range(5000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 8)))
        assert _outcome(parse_word, text) == _outcome(reference_parse_word, text), text


@pytest.mark.parametrize("text, n", [
    ("n=99999999999;", 99999999999), ("z9999999999", 10000000000), ('{"n": 99999999999}', 99999999999),
    (f"n={MAX_STRANDS + 1}; z1", MAX_STRANDS + 1), (f"t{MAX_STRANDS}", MAX_STRANDS + 1),
])
def test_strand_counts_above_the_cap_are_refused(text, n):
    with pytest.raises(ParseError) as info:
        parse_word(text)
    assert str(info.value) == f"strand count must be at most {MAX_STRANDS}, got {n}"


@pytest.mark.parametrize("text", [
    "z" + "0" * 4299 + "1", "n=" + "0" * 4299 + "3; t" + "0" * 4299 + "2", "n=3; z" + "9" * 4300,
    "n=3; z1 t" + "0" * 4300 + " q1", "q1 z" + "9" * 4300,
], ids=range(5))
def test_numbers_of_at_most_4300_digits_keep_their_outcome(text):
    assert _outcome(parse_word, text) == _outcome(reference_parse_word, text)


def test_strand_count_of_4300_digits_is_reported_in_full():
    index = "1" + "0" * 4299
    with pytest.raises(ParseError) as info:
        parse_word(f"t{index}")
    assert str(info.value) == f"strand count must be at most {MAX_STRANDS}, got {index[:-1]}1"


def test_strand_cap_is_inclusive():
    assert parse_word(f"n={MAX_STRANDS};").n == MAX_STRANDS
    assert parse_word(f"z{MAX_STRANDS - 1}").n == MAX_STRANDS
    assert parse_word(f'{{"n": {MAX_STRANDS}}}').n == MAX_STRANDS


def _json_word(k, entry='{"kind": "virtual", "i": 1}'):
    return '{"n": 2, "letters": [' + ", ".join([entry] * k) + "]}"


def test_letter_cap_is_inclusive(monkeypatch):
    """Text is refused from its token count, before any token is read; JSON from its counts of
    objects, arrays and commas, before it is decoded.  Every serialized word at the cap parses."""
    monkeypatch.setattr("freebraid.words.MAX_LETTERS", 5)
    assert parse_word("n=2;  z1 t1\tz1\nt1 z1 ").letters == (1, -1, 1, -1, 1)
    assert parse_word(_json_word(5)).letters == (-1,) * 5
    word = BraidWord(MAX_STRANDS, (MAX_STRANDS - 1, -1, 1, -(MAX_STRANDS - 1), 5000))
    assert parse_word(serialize(word, JSON)) == word
    for text in ("n=2; z1 t1 z1 t1 z1 t1", "z1 t1 z1 t1 z1 q1", _json_word(6)):
        with pytest.raises(ParseError, match="^letter count must be at most 5$"):
            parse_word(text)


def test_json_word_above_the_cap_is_refused_while_decoding(monkeypatch):
    """A JSON array ten times over the cap peaks near a word at the cap, whether its entries are
    letter objects, arrays or strings: no more entries than a word at the cap are built."""
    cap = 2000
    monkeypatch.setattr("freebraid.words.MAX_LETTERS", cap)
    at_cap = _json_word(cap)
    overs = [_json_word(10 * cap), _json_word(10 * cap, "[]"), _json_word(10 * cap, '"ab"')]
    over_peaks = []
    tracemalloc.start()
    try:
        assert len(parse_word(at_cap)) == cap
        at_cap_peak = tracemalloc.get_traced_memory()[1]
        for over in overs:
            tracemalloc.reset_peak()
            with pytest.raises(ParseError, match=f"^letter count must be at most {cap}$"):
                parse_word(over)
            over_peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(over_peaks) < 1.5 * at_cap_peak, (over_peaks, at_cap_peak)


def test_letters_validated_on_construction():
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(1, (1,))
    with pytest.raises(ValueError, match="not valid on 3 strands"):
        BraidWord(3, (True,))
    with pytest.raises(ValueError, match="strand count must be an integer"):
        BraidWord(True)


def test_braid_word_refuses_zero_strands():
    with pytest.raises(ValueError, match="^strand count must be >= 1, got 0$"):
        BraidWord(0, ())


def test_braid_word_refuses_more_strands_than_the_parser():
    """The parser's bound and wording; refused before anything of size n is built."""
    assert BraidWord(MAX_STRANDS).n == MAX_STRANDS
    for n in (MAX_STRANDS + 1, 10**12):
        error, peak = refusal_and_peak(lambda: BraidWord(n, ()))
        assert error == f"strand count must be at most {MAX_STRANDS}, got {n}" and peak < 4096, (error, peak)


@pytest.mark.parametrize("sign, message", [
    (1, f"strand count must be at most {MAX_STRANDS}"), (-1, "strand count must be >= 1"),
], ids=["positive", "negative"])
def test_braid_word_refuses_a_strand_count_too_long_to_print_in_the_parsers_words(sign, message):
    """A count of 5001 digits is past what str() converts; the parser's rule names it instead."""
    with pytest.raises(ValueError, match=f"^{message}, got a number too long to convert$"):
        BraidWord(sign * 10**5000)


def test_permutation_identity_refuses_more_strands_than_the_parser():
    """Refused before the n-entry image is built; no strands at all stays the empty permutation, and
    a negative count is refused rather than read as none."""
    assert Permutation.identity(0).n == 0 and Permutation.identity(MAX_STRANDS).n == MAX_STRANDS
    assert refusal_and_peak(lambda: Permutation.identity(-1))[0] == "strand count must be >= 0, got -1"
    error, peak = refusal_and_peak(lambda: Permutation.identity(10**6))
    assert error == f"strand count must be at most {MAX_STRANDS}, got {10**6}" and peak < 4096, (error, peak)


def test_words_built_without_checks_equal_checked_words():
    """Each result of the unchecked constructor is a word the checking constructor accepts and equals."""
    rng = random.Random(9)
    built = list(bfs_ball(BraidWord(3, (1, -2)), MoveSet.FB, 6).members)
    for k in range(80):
        n = rng.randint(1, 9)
        word = random_word(rng, n, rng.randint(0, 30))
        cyclic = random_cyclic_word(rng, max(n, 2), rng.randint(0, 30))
        built += [
            parse_word(serialize(word)),
            parse_word(serialize(word)[serialize(word).index(";") + 1:]),  # strand count inferred
            parse_word(serialize(word, JSON)),
            word * word,
            bracket(word, ComponentScheme(random_partition(rng, n))).word,
            bracket(cyclic, GaussianScheme()).word,
            irreducible_form_tracked(word)[0],
            scramble(word, 20, MoveSet.FB, k, len(word) + 10)[0],
        ]
    assert len(built) > 600
    for w in built:
        assert type(w.n) is int and type(w.letters) is tuple
        assert w == BraidWord(w.n, w.letters)
    for letters in ((0,), (3,), (-3,), (True,), (1.0,)):
        with pytest.raises(ValueError, match="not valid on 3 strands"):
            BraidWord(3, letters)


def test_serialize_examples():
    assert serialize(BraidWord(2, (1,))) == "n=2; z1"
    assert serialize(BraidWord(3)) == "n=3;"


def test_serialize_refuses_an_unknown_format():
    with pytest.raises(ValueError, match="^unknown format 'yaml'$"):
        serialize(BraidWord(2, (1,)), "yaml")


def test_serialize_round_trips_brunnian_letter_for_letter():
    w = parse_word(BRUNNIAN_TEXT)
    assert parse_word(serialize(w)) == w
    assert parse_word(serialize(w, JSON)) == w


@given(braid_words())
def test_parse_serialize_identity(word):
    assert parse_word(serialize(word)) == word
    assert parse_word(serialize(word, JSON)) == word


def test_permutation_examples():
    assert permutation(BraidWord(2, (1,))).image == (2, 1)
    assert permutation(BraidWord(3, (-1, -2))).image == (3, 1, 2)


def test_brunnian_permutation_is_the_expected_cycle():
    p = permutation(parse_word(BRUNNIAN_TEXT))
    assert p.image == (9, 1, 2, 3, 4, 5, 6, 7, 8)
    assert is_cyclic(p)


@given(word_pairs_same_n())
def test_permutation_is_a_concatenation_homomorphism(pair):
    w1, w2 = pair
    assert permutation(w1 * w2) == permutation(w1).compose(permutation(w2))


def test_is_cyclic_examples():
    assert not is_cyclic(Permutation.identity(3))
    assert is_cyclic(Permutation((2, 1)))
    assert is_cyclic(Permutation.identity(1))


def test_closure_components_examples():
    assert closure_components(BraidWord(3))[0] == 3
    assert closure_components(BraidWord(2, (1,)))[0] == 1
    assert closure_components(parse_word(BRUNNIAN_TEXT))[0] == 1


@given(braid_words())
def test_closure_component_count_is_cycle_count(word):
    count, cycles = closure_components(word)
    assert count == len(cycles)
    assert sorted(s for c in cycles for s in c) == list(range(1, word.n + 1))


def test_strand_trace_examples():
    assert strand_trace(BraidWord(2, (1,))) == ((1, 2),)
    assert strand_trace(BraidWord(3, (1, 2, 1))) == ((1, 2), (1, 3), (2, 3))
    assert strand_trace(BraidWord(4, (1, -3, 1))) == ((1, 2), (3, 4), (1, 2))


@given(braid_words())
def test_strand_trace_is_deterministic_with_distinct_strands(word):
    trace = strand_trace(word)
    assert trace == strand_trace(word)
    assert len(trace) == len(word)
    for a, b in trace:
        assert a != b
        assert 1 <= a <= word.n and 1 <= b <= word.n


@given(permutations())
def test_permutation_inverse_and_cycles(p):
    assert p.compose(p.inverse()) == Permutation.identity(p.n)
    assert sorted(s for c in p.cycles() for s in c) == list(range(1, p.n + 1))


def test_permutation_compose_refuses_different_sizes():
    from freebraid.words import PreconditionError
    with pytest.raises(PreconditionError, match="^cannot compose permutations of different sizes$"):
        Permutation((2, 1)).compose(Permutation((1, 2, 3)))


def test_concatenation_requires_matching_strand_count():
    from freebraid.words import PreconditionError
    with pytest.raises(PreconditionError):
        BraidWord(2) * BraidWord(3)


def test_importing_words_loads_no_other_module():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, freebraid.words; print(sorted(m for m in sys.modules if m.split('.')[0] == 'freebraid'))"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout == "['freebraid', 'freebraid.words']\n"


def test_trusted_permutations_equal_checked_ones():
    """`permutation`, `compose`, `inverse`, `identity` and `crossings_by_strand`'s image build without the
    bijection check; each result is a permutation the checking constructor accepts and equals."""
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(1, 12)
        w1, w2 = random_word(rng, n, rng.randint(0, 30)), random_word(rng, n, rng.randint(0, 30))
        p, q = permutation(w1), permutation(w2)
        built = [p, p.compose(q), p.inverse(), Permutation.identity(n), Permutation(crossings_by_strand(w1)[1])]
        for r in built:
            assert type(r.image) is tuple and r == Permutation(r.image)
        assert p.compose(q) == Permutation(tuple(q(p(k)) for k in range(1, n + 1))) == permutation(w1 * w2)
        assert p.inverse() == Permutation(tuple(sorted(range(1, n + 1), key=p)))
        assert p.compose(p.inverse()) == Permutation(tuple(range(1, n + 1)))
    for image in ((1, 1), (0, 1), (2, 3), [3, 1]):
        with pytest.raises(ValueError, match="is not a bijection"):
            Permutation(image)


def _value_samples():
    """Per value class, two equal instances built apart, then (if any) one that differs from them."""
    brunnian = parse_word(BRUNNIAN_TEXT)
    word, partition = BraidWord(3, (1, -2, 1)), StrandPartition.from_first(3, [1])
    fwd = Direction.LEFT_TO_RIGHT
    return {
        BraidWord: [BraidWord(3, (1, -2)), BraidWord(3, [1, -2]), BraidWord(3, (1, 2))],
        Permutation: [Permutation((2, 1, 3)), permutation(BraidWord(3, (1,))), Permutation((1, 2, 3))],
        ChordDiagram: [ChordDiagram((0, 1, 0, 1)), ChordDiagram((0, 1, 0, 1)), chord_diagram(brunnian)],
        ParityAssignment: [ParityAssignment("gaussian", {0: Parity.EVEN}),
                           gaussian_parity(BraidWord(2, (1,))), ParityAssignment("gaussian", {0: Parity.ODD})],
        StrandPartition: [partition, StrandPartition({1}, {2, 3}), StrandPartition.from_first(3, [2])],
        GaussianScheme: [GaussianScheme(), GaussianScheme()],
        ComponentScheme: [ComponentScheme(partition), ComponentScheme(StrandPartition({1}, {2, 3})),
                          ComponentScheme(StrandPartition.from_first(3, []))],
        QGaussianScheme: [QGaussianScheme(Permutation((2, 3, 1))), QGaussianScheme(Permutation([2, 3, 1])),
                          QGaussianScheme(Permutation((3, 1, 2)))],
        Bigon: [*find_bigons(BraidWord(3, (1, 1))), Bigon((0, 1), frozenset({1, 2})),
                Bigon((0, 2), frozenset({1, 2}))],
        CanonicalCode: [canonical_code(word), canonical_code(BraidWord(3, (1, -2, 1))), canonical_code(brunnian)],
        BracketResult: [bracket(word, ComponentScheme(partition)), bracket(word, ComponentScheme(partition)),
                        bracket(brunnian, GaussianScheme())],
        ReproductionReport: [verify_reproduction(brunnian, brunnian, GaussianScheme()),
                             verify_reproduction(brunnian, brunnian, GaussianScheme()),
                             ReproductionReport(False, None, None, "not reproduced")],
        MoveInstance: [MoveInstance(Relation.FAR_COMM_ZZ, 1, 0, fwd, 3),
                       MoveInstance(Relation.FAR_COMM_ZZ, 1, 0, fwd, 3),
                       MoveInstance(Relation.CLASSICAL_R2, 1, 0, fwd)],
        EquivalenceBall: [bfs_ball(word, MoveSet.F, 3), bfs_ball(word, MoveSet.F, 3),
                          bfs_ball(word, MoveSet.F, 4)],
        BrunnianReport: [scenario_brunnian(steps=5), scenario_brunnian(steps=5),
                         scenario_brunnian(seed=1, steps=5)],
        BetaPrimeReport: [scenario_beta_prime(), scenario_beta_prime()],
    }


def test_value_classes_behave_as_frozen_dataclasses():
    """Every value class against `make_dataclass(name, fields, frozen=True)` with the class's defaults, on the
    same field values: the same repr, ==, != and hash (where the fields hash); assignment fails; other classes
    compare unequal; keyword and positional construction agree, and a call with a field missing, an unknown
    keyword, a positional argument too many or a field given twice raises TypeError wherever the reference does."""
    samples = _value_samples()
    assert set(samples) == set(_Value.__subclasses__()) and len(samples) == 16
    assert {cls for cls in samples if "__init__" in vars(cls)} == {
        BraidWord, Permutation, ChordDiagram, StrandPartition, EquivalenceBall, MoveInstance}
    assert ReproductionReport(True, (), None).reason == "" and ReproductionReport(True, (), None, "r").reason == "r"
    others = [values[0] for values in samples.values()]
    for cls, values in samples.items():
        own = inspect.signature(cls).parameters.values()
        defaults = {**cls._defaults, **{p.name: p.default for p in own if p.default is not p.empty}}
        reference = dataclasses.make_dataclass(cls.__name__, [
            (f, object, dataclasses.field(default=defaults[f])) if f in defaults else f for f in cls._fields],
            frozen=True)
        refs = [reference(*(getattr(v, f) for f in cls._fields)) for v in values]
        for v in values:
            assert cls(**dict(zip(cls._fields, v._astuple()))) == cls(*v._astuple()) == v, cls
        args = values[0]._astuple()
        kwargs = dict(zip(cls._fields, args))
        bad_calls = [((), {k: v for k, v in kwargs.items() if k != f}) for f in cls._fields]
        bad_calls += [(args, {"unknown": None}), ((*args, None), {})]
        bad_calls += [(args, {cls._fields[0]: args[0]})] if args else []
        for call_args, call_kwargs in bad_calls:
            try:
                expected = reference(*call_args, **call_kwargs)
            except TypeError:
                with pytest.raises(TypeError):
                    cls(*call_args, **call_kwargs)
            else:
                got = cls(*call_args, **call_kwargs)
                assert [getattr(got, f) for f in cls._fields] == [getattr(expected, f) for f in cls._fields]
        assert values[0] == values[1] and values[0] is not values[1], cls
        for a, ra in zip(values, refs):
            assert repr(a) == repr(ra)
            assert not hasattr(a, "__dict__")
            try:
                expected = hash(ra)
            except TypeError:
                with pytest.raises(TypeError):
                    hash(a)
            else:
                assert hash(a) == expected
            for b, rb in zip(values, refs):
                assert (a == b, a != b) == (ra == rb, ra != rb), (a, b)
            for name in cls._fields or ("other",):
                with pytest.raises(AttributeError):
                    setattr(a, name, None)
                with pytest.raises(AttributeError):
                    delattr(a, name)
            for other in others:
                if type(other) is not cls:
                    assert a != other and not a == other and a.__eq__(other) is NotImplemented
            assert a != ra and copy.copy(a) == a == pickle.loads(pickle.dumps(a))
            if cls.__slots__ == cls._fields:  # no derived slot, so the unchecked constructor builds an equal value
                trusted = cls._trusted(*a._astuple())
                assert type(trusted) is cls and trusted == a and not hasattr(trusted, "__dict__"), cls
                for name in cls._fields or ("other",):
                    with pytest.raises(AttributeError):
                        setattr(trusted, name, None)
    assert copy.deepcopy(samples[ChordDiagram][2]).chord_of == samples[ChordDiagram][2].chord_of


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """`freebraid.cli` and every submodule, imported without `site` so that nothing is preloaded."""
    pkg = Path(__file__).resolve().parent.parent / "src" / "freebraid"
    modules = sorted(f"freebraid.{p.stem}" for p in pkg.glob("*.py") if p.stem != "__init__")
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import freebraid.cli\n"
            f"for name in {modules!r}:\n"
            "    __import__(name)\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(pkg.parent)},
                          capture_output=True, text=True, check=True, timeout=60)
    new = proc.stdout.split()
    assert "freebraid.cli" in modules and set(modules) <= set(new)
    assert "dataclasses" not in new and "inspect" not in new, new
