import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from freebraid.cli import _FORMATS, _MOVESETS, main
from freebraid.moves import MoveSet
from freebraid.render import RenderFormat
from freebraid.scenarios import BRUNNIAN_TEXT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_perm_output(capsys):
    code, out, _ = run(capsys, "perm", "n=2; z1")
    assert code == 0
    assert out.strip() == "1->2 2->1"


def test_parity_rejects_non_cyclic_with_diagnostic(capsys):
    code, _, err = run(capsys, "parity", "--parity", "gaussian", "n=3; z1 z1")
    assert code == 2
    assert "closure has 3 components" in err
    assert "cyclic permutation" in err


def test_parity_other_scheme_designations(capsys):
    code, out, _ = run(capsys, "parity", "--parity", "qgaussian:Q=2,1", "n=2; z1 z1")
    assert code == 0
    assert out.count("parity=odd") == 2
    code, out, _ = run(capsys, "parity", "--parity", "component:N1=1,2", "n=4; z2")
    assert code == 0
    assert "parity=odd" in out


@pytest.mark.parametrize("scheme, word, message", [
    ("component:N1=9", "n=4; z2", "bad partition in 'component:N1=9': part [9] is not a subset of 1..4"),
    ("qgaussian:Q=1,1", "n=2; z1", "bad completion in 'qgaussian:Q=1,1': (1, 1) is not a bijection of 1..2"),
])
def test_parity_rejects_out_of_range_scheme_lists(capsys, scheme, word, message):
    assert run(capsys, "parity", "--parity", scheme, word) == (2, "", f"freebraid: {message}\n")


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "parse", "n=3; z9")
    assert code == 1
    assert "out of range" in err


@pytest.mark.parametrize("argv, n", [
    (("parse", "n=99999999999;"), 99999999999),
    (("perm", "z9999999999"), 10000000000),
    (("parse", '{"n": 99999999999}'), 99999999999),
])
def test_strand_counts_above_the_cap_exit_1(capsys, argv, n):
    assert run(capsys, *argv) == (1, "", f"freebraid: strand count must be at most 10000, got {n}\n")


ZEROS = "0" * 4400  # int() converts at most 4300 digits


@pytest.mark.parametrize("argv, out", [
    (("parse", "z" + ZEROS + "1"), "n=2; z1\n"),
    (("parse", "n=" + ZEROS + "3; t" + ZEROS + "2"), "n=3; t2\n"),
    (("parity", "--parity", "component:N1=" + ZEROS + "1", "n=2; z1"), "pos=0 letter=z1 parity=odd\n"),
    (("parity", "--parity", "qgaussian:Q=" + ZEROS + "1," + ZEROS + "2", "n=2; z1"), "pos=0 letter=z1 parity=even\n"),
    (("scramble", "--steps", ZEROS + "5", "--seed", ZEROS + "7", "n=3; z1 z2"), "n=3; t1 t1 z1 z2 t1 t2 t2 t1\n"),
], ids=range(5))
def test_leading_zeros_beyond_the_int_digit_limit_are_read(capsys, argv, out):
    assert run(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize("argv, code, message", [
    (("parse", "n=1" + ZEROS + ";"), 1, "strand count must be at most 10000, got a number too long to convert"),
    (("parse", "z1" + ZEROS), 1, "letter index of 4401 digits out of range"),
    (("parse", "n=3; z2 t1" + ZEROS), 1, "letter index of 4401 digits out of range"),
    (("parse", "z1 q1 z1" + ZEROS), 1, "unknown token 'q1'"),
    (("parse", '{"n": 1' + ZEROS + "}"), 1, "invalid JSON word: a number has too many digits"),
    (("parse", '{"n": 3, "letters": [{"kind": "virtual", "i": 1' + ZEROS + "}]}"), 1,
     "invalid JSON word: a number has too many digits"),
    (("parity", "--parity", "component:N1=1" + ZEROS, "n=2; z1"), 2,
     "bad partition list in 'component:N1=1" + ZEROS + "'"),
    (("parity", "--parity", "qgaussian:Q=2,1" + ZEROS, "n=2; z1"), 2,
     "bad permutation image in 'qgaussian:Q=2,1" + ZEROS + "'"),
    (("parse", "z" + "9" * 4300), 1, "strand count must be at most 10000, got a number too long to convert"),
    (("perm", "t" + "9" * 4300), 1, "strand count must be at most 10000, got a number too long to convert"),
    (("parse", '{"n": ' + "[" * 100_000), 1, "invalid JSON word: arrays or objects nested too deeply"),
    (("parse", '{"n": 2, "letters": ' + '[{"i": ' * 50_000 + "1" + "}]" * 50_000 + "}"), 1,
     "invalid JSON word: arrays or objects nested too deeply"),
], ids=range(12))
def test_numbers_too_long_to_convert_exit_with_one_line(capsys, argv, code, message):
    assert run(capsys, *argv) == (code, "", f"freebraid: {message}\n")


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 1


def test_bracket_echoes_brunnian(capsys, tmp_path):
    path = tmp_path / "brunnian.txt"
    path.write_text(BRUNNIAN_TEXT)
    code, out, _ = run(capsys, "bracket", "--parity", "gaussian", f"@{path}")
    assert code == 0
    assert out.strip() == BRUNNIAN_TEXT


def test_word_sources_agree(capsys, tmp_path, monkeypatch):
    word = "n=3; z1 t2"
    code, inline_out, _ = run(capsys, "perm", word)
    path = tmp_path / "w.txt"
    path.write_text(word)
    code2, file_out, _ = run(capsys, "perm", f"@{path}")
    monkeypatch.setattr("sys.stdin", io.StringIO(word))
    code3, stdin_out, _ = run(capsys, "perm", "-")
    assert code == code2 == code3 == 0
    assert inline_out == file_out == stdin_out


def test_missing_word_file(capsys):
    code, _, err = run(capsys, "perm", "@/no/such/file")
    assert code == 1
    assert "cannot read" in err


def test_parse_json_round_trip(capsys):
    code, out, _ = run(capsys, "parse", "--json", "n=2; z1 t1")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    code2, out2, _ = run(capsys, "parse", out.strip())
    assert code2 == 0
    assert out2.strip() == "n=2; z1 t1"


def test_closure_and_chords(capsys):
    code, out, _ = run(capsys, "closure", "n=3;")
    assert code == 0
    assert out.splitlines()[0] == "components: 3"
    code, out, _ = run(capsys, "chords", "n=2; z1 t1 z1")
    assert code == 0
    assert "gauss: 0 2 0 2" in out


def test_eq_commands(capsys):
    code, out, _ = run(capsys, "eq-f", "n=2; z1 z1", "n=2;")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "eq-strong", "n=2; z1 z1", "n=2;")
    assert code == 0 and out.strip() == "not equal"
    code, _, _ = run(capsys, "eq-f", "n=2; z1", "n=3; z1")
    assert code == 2


def test_reduce_and_canon(capsys):
    code, out, _ = run(capsys, "reduce", "n=2; z1 t1 z1")
    assert code == 0 and out.strip() == "n=2; t1"
    code, out, _ = run(capsys, "canon", "n=3; z1 z2 z1")
    assert code == 0
    assert out.splitlines()[0] == "n=3; perm=3,2,1; m=3"


def test_distinguish_wording(capsys):
    code, out, _ = run(capsys, "distinguish", "--parity", "component:N1=1",
                       "n=3; z1", "n=3; t1")
    assert code == 0
    assert "not equivalent (certified by parity bracket)" in out
    code, out, _ = run(capsys, "distinguish", "--parity", "component:N1=1",
                       "n=3; z1", "n=3; z1")
    assert code == 0
    assert "inconclusive" in out


def test_distinguish_rejects_mismatched_strand_counts(capsys):
    """The strand counts are compared before either bracket, so no scheme's own error comes first."""
    for command, scheme, word2 in (("distinguish", "gaussian", "n=3; z1 z2"),
                                   ("distinguish", "component:N1=1", "n=3; z1"),
                                   ("distinguish", "qgaussian:Q=1,2", "n=3; z1"),
                                   ("verify", "gaussian", "n=3; z1")):
        code, out, err = run(capsys, command, "--parity", scheme, "n=2; z1", word2)
        assert (code, out, err) == (2, "", "freebraid: strand counts differ: 2 vs 3\n"), (command, scheme)


def test_scramble_deterministic(capsys):
    args = ("scramble", "--steps", "50", "--seed", "9", "--max-length", "30", "n=3; z1 z2")
    code, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code == code2 == 0
    assert out1 == out2


def test_scramble_history_lines(capsys):
    code, out, _ = run(capsys, "scramble", "--steps", "5", "--seed", "1",
                       "--max-length", "20", "--history", "n=3; z1 z2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n=3;")
    assert len(lines) == 6
    assert all(" dir=" in line for line in lines[1:])


@pytest.mark.parametrize("option, message", [
    (("--steps", "-1"), "steps must be >= 0"),
    (("--max-length", "1"), "max_length must be at least the current word length"),
    (("--seed", "-7"), "seed must be >= 0"),
])
def test_scramble_rejects_bad_bounds(capsys, option, message):
    code, out, err = run(capsys, "scramble", *option, "n=3; z1 z2")
    assert code == 2
    assert out == ""
    assert err == f"freebraid: {message}\n"


@pytest.mark.parametrize("command, words", [
    (("scramble",), ("n=3; z1 z2",)),
    (("scenario", "brunnian"), ()),
])
def test_steps_above_the_cap_exit_2_at_once(command, words):
    src = Path(__file__).resolve().parent.parent / "src"
    steps = "99999999999999999999"
    proc = subprocess.run([sys.executable, "-m", "freebraid.cli", *command, "--steps", steps, *words],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"freebraid: steps must be at most 1000000, got {steps}\n"


@pytest.mark.parametrize("node_cap", ["0", "-3"])
def test_oracle_rejects_bad_node_cap(capsys, node_cap):
    code, out, err = run(capsys, "oracle", "--node-cap", node_cap, "n=2; z1 z1", "n=2; z1 z1")
    assert code == 2
    assert out == ""
    assert err == "freebraid: node_cap must be >= 1\n"


@pytest.mark.parametrize("argv, code, message", [
    (("perm", "z\u0661"), 1, "unknown token"),
    (("parse", "n=\u0663; z1 t2"), 1, "unknown token"),
    (("parity", "--parity", "component:N1=\u0661", "n=2; z1"), 2, "bad partition list"),
    (("parity", "--parity", "qgaussian:Q=\u0662,1", "n=2; z1"), 2, "bad permutation image"),
    (("scenario", "beta-prime", "--added", "\u0661,2"), 1, "--added expects two comma-separated positions"),
    (("scenario", "beta-prime", "--added", "3_8,42"), 1, "--added expects two comma-separated positions"),
])
def test_non_ascii_digits_rejected(capsys, argv, code, message):
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("freebraid: ") and message in err


@pytest.mark.parametrize("command, option, words", [
    (("scramble",), "--steps", ("n=3; z1",)),
    (("scramble",), "--seed", ("n=3; z1",)),
    (("scramble",), "--max-length", ("n=3; z1",)),
    (("oracle",), "--bound", ("n=2; z1", "n=2; z1")),
    (("oracle",), "--node-cap", ("n=2; z1", "n=2; z1")),
    (("scenario", "brunnian"), "--steps", ()),
])
def test_non_ascii_digits_rejected_in_integer_options(capsys, command, option, words):
    """Integer options read ASCII digits as words do: no other script, underscores, `+` or spaces."""
    for text in ("\u0663", "1_0", "+3", " 3"):
        expected = f"freebraid {' '.join(command)}: error: argument {option}: invalid int value: {text!r}\n"
        assert run(capsys, *command, option, text, *words) == (1, "", expected)


def test_option_choices_follow_the_enums():
    assert list(_MOVESETS) == [m.value for m in MoveSet]
    assert list(_FORMATS) == [f.value for f in RenderFormat]


@pytest.mark.parametrize("argv, loaded", [
    (["parse", "n=2; z1"], []),
    (["reduce", "n=2; z1"], ["normalform"]),
    (["render", "n=2; z1"], ["render"]),
    (["parity", "--parity", "gaussian", "n=2; z1"], ["parity"]),
])
def test_subcommand_imports_only_its_modules(argv, loaded):
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import contextlib, io, json, sys; from freebraid.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()): status = main(sys.argv[1:])\n"
            "print(json.dumps([status, sorted(m for m in sys.modules if m.split('.')[0] == 'freebraid')]))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True, timeout=60)
    expected = sorted(["freebraid", "freebraid.cli", "freebraid.words", *(f"freebraid.{m}" for m in loaded)])
    assert json.loads(proc.stdout) == [0, expected]


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--moveset", "FB", "--bound", "5",
                       "n=3; z1 z2 z1", "n=3; z2 z1 z2")
    assert code == 0 and out.strip() == "Equal"
    code, out, _ = run(capsys, "oracle", "--moveset", "F", "--bound", "7",
                       "n=3; z1 z2 z1", "n=3; z2 z1 z2")
    assert code == 0 and out.strip() == "NotFoundWithinBound"


def test_verify_command(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text(BRUNNIAN_TEXT)
    code, out, _ = run(capsys, "verify", "--parity", "gaussian", f"@{path}", f"@{path}")
    assert code == 0
    assert out.startswith("reproduced")


def test_render_command(capsys):
    code, out, _ = run(capsys, "render", "--format", "svg", "n=2; z1")
    assert code == 0
    assert out.startswith("<svg")


def test_render_takes_no_json_flag(capsys):
    code, out, err = run(capsys, "render", "--json", "n=2; z1")
    assert (code, out) == (1, "")
    assert err == "freebraid: error: unrecognized arguments: --json\n"


def test_scenario_brunnian(capsys):
    code, out, _ = run(capsys, "scenario", "brunnian", "--steps", "200",
                       "--max-length", "120", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["odd_count"] == 8
    assert payload["bigon_count"] == 0


def test_scenario_beta_prime_default(capsys):
    code, out, _ = run(capsys, "scenario", "beta-prime", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["findings_met"] is True
    assert payload["added_parities"] == ["even", "even"]
    assert payload["bracket_components"] == 3


def test_scenario_beta_prime_rejects_nine_strands(capsys):
    code, _, err = run(capsys, "scenario", "beta-prime", BRUNNIAN_TEXT)
    assert code == 2
    assert "10 strands" in err


def test_scenario_beta_prime_text_golden(capsys):
    """The built-in report; given as a candidate, the same word has its added crossings located."""
    golden = (Path(__file__).parent / "golden" / "scenario_beta_prime.txt").read_text()
    assert run(capsys, "scenario", "beta-prime") == (0, golden, "")
    lines = golden.splitlines(keepends=True)
    candidate = "".join(lines[:-1]) + "note: user-supplied candidate\n"
    assert lines[1] == "added crossings: positions 38, 42\n"
    assert run(capsys, "scenario", "beta-prime", lines[0].removeprefix("word: ")) == (0, candidate, "")


def test_scenario_beta_prime_needs_the_embedded_brunnian_word(capsys):
    word = "n=10; " + " ".join(f"z{i}" for i in range(1, 10))
    assert run(capsys, "scenario", "beta-prime", word) == (2, "", "freebraid: cannot locate the embedded "
                                                           "brunnian word; pass the added crossing positions explicitly\n")


@pytest.mark.parametrize("word, message", [
    ('{"n": 3, "letters": 5}', "JSON field 'letters' must be an array"),
    ('{"n": 3, "letters": [{"kind": "classical", "i": 3}]}', "letter index 3 out of range for n=3"),
])
def test_malformed_json_words_exit_1_with_one_line(capsys, word, message):
    assert run(capsys, "parse", word) == (1, "", f"freebraid: {message}\n")


@pytest.mark.parametrize("moveset", ["F", "FB", "strong"])
def test_scramble_history_golden(capsys, moveset):
    # Recorded from the full-rescan scramble: a change in match order or in the draw fails here.
    golden = Path(__file__).parent / "golden" / f"scramble_brunnian_{moveset}.txt"
    code, out, err = run(capsys, "scramble", "--history", "--steps", "300", "--max-length", "200",
                         "--seed", "3", "--moveset", moveset, BRUNNIAN_TEXT)
    assert (code, err) == (0, "")
    assert out == golden.read_text()
