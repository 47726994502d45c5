"""Random argument vectors for every subcommand: `main` returns 0, 1 or 2 and never raises.

Numbers come as small values, as runs of up to 5000 digits (leading zeros
or large values, past the 4300 digits `int()` converts), or as other text.
JSON words may nest their arrays past the recursion limit.
Step counts and node caps stay small or out of range, so that no draw runs
a long walk or search.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freebraid.cli import main

_RUN = st.integers(0, 5000)
_SMALL = st.integers(0, 12).map(str)
_ZEROS = st.tuples(_RUN, st.integers(0, 9)).map(lambda t: "0" * t[0] + str(t[1]))
_HUGE = _RUN.map(lambda k: "1" + "0" * k)
_OTHER = st.sampled_from(["", "-3", " 4 ", "1_0", "x", "٣", "１"])
_NUMBER = st.one_of(_SMALL, _ZEROS, _HUGE, _OTHER)
# At most 12, or too long for int(): no long scramble and no large search.
_BOUNDED = st.one_of(_SMALL, _ZEROS, st.integers(4300, 5000).map(lambda k: "1" + "0" * k), _OTHER)


_DEPTH = st.one_of(st.integers(0, 40), st.integers(900, 100_000))


@st.composite
def _words(draw):
    shape = draw(st.sampled_from(["json", "nested", "text"]))
    if shape == "nested":
        depth = draw(_DEPTH)
        arrays = "[" * depth + ("]" * depth if draw(st.booleans()) else "")
        return draw(st.sampled_from([f'{{"n": {arrays}}}', f'{{"n": 3, "letters": {arrays}}}']))
    if shape == "json":
        letters = draw(st.lists(st.fixed_dictionaries({
            "kind": st.sampled_from(["classical", "virtual", "other"]), "i": _NUMBER}), max_size=8))
        body = ", ".join(f'{{"kind": "{e["kind"]}", "i": {e["i"]}}}' for e in letters)
        return f'{{"n": {draw(_NUMBER)}, "letters": [{body}]}}'
    token = st.one_of(st.tuples(st.sampled_from("zt"), st.one_of(_SMALL, _NUMBER)).map("".join),
                      st.sampled_from(["q1", "z", "{", ";", "n=3;"]))
    header = draw(st.one_of(st.just(""), st.one_of(_SMALL, _NUMBER).map(lambda d: f"n={d}; ")))
    return header + " ".join(draw(st.lists(token, max_size=12)))


@st.composite
def _schemes(draw):
    items = st.lists(st.one_of(_SMALL, _NUMBER), max_size=6).map(",".join)
    return draw(st.one_of(st.just("gaussian"), st.just("nonsense"),
                          items.map("component:N1=".__add__), items.map("qgaussian:Q=".__add__)))


@st.composite
def _argvs(draw):
    json_flag = draw(st.sampled_from([[], ["--json"]]))
    command = draw(st.sampled_from([
        "parse", "perm", "closure", "chords", "parity", "bracket", "reduce", "canon", "eq-f",
        "eq-strong", "distinguish", "verify", "scramble", "oracle", "render", "brunnian", "beta-prime"]))
    word = _words()
    if command in ("parity", "bracket"):
        return [command, *json_flag, "--parity", draw(_schemes()), draw(word)]
    if command in ("distinguish", "verify"):
        return [command, *json_flag, "--parity", draw(_schemes()), draw(word), draw(word)]
    if command in ("eq-f", "eq-strong"):
        return [command, *json_flag, draw(word), draw(word)]
    if command == "scramble":
        return [command, *json_flag, "--steps", draw(_BOUNDED), "--seed", draw(_NUMBER),
                "--max-length", draw(_NUMBER), "--moveset", draw(st.sampled_from(["F", "FB", "strong"])),
                draw(word)]
    if command == "oracle":
        return [command, *json_flag, "--bound", draw(_NUMBER), "--node-cap", draw(_BOUNDED),
                draw(word), draw(word)]
    if command == "render":
        return [command, *json_flag, "--format", draw(st.sampled_from(["ascii", "svg"])), draw(word)]
    if command == "brunnian":
        return ["scenario", command, *json_flag, "--steps", draw(_BOUNDED), "--seed", draw(_NUMBER),
                "--max-length", draw(_NUMBER)]
    if command == "beta-prime":
        added = draw(st.one_of(st.just([]), st.tuples(_NUMBER, _NUMBER).map(lambda t: ["--added", ",".join(t)])))
        return ["scenario", command, *json_flag, *added, *draw(st.one_of(st.just([]), word.map(lambda w: [w])))]
    return [command, *json_flag, draw(word)]


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argvs())
def test_cli_exits_0_1_or_2_and_never_raises(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:  # a precondition failure: one line of its own
        assert err.getvalue().startswith("freebraid: ") and err.getvalue().count("\n") == 1
    if code == 0 and "--json" in argv:
        json.loads(out.getvalue())


def test_huge_bound_under_the_default_node_cap_ends_in_cap_exceeded():
    """The draws above keep node caps small; here a 31-digit `--bound` meets the default cap of 1 000 000 nodes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["oracle", "--bound", "1" + "0" * 30, "n=3; z1 z2 z1", "n=3; z2 z1 z2 t1"])
    assert (code, out.getvalue()) == (0, "CapExceeded\n")
