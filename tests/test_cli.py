import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cli_cases import BETA_PRIME, CASES
from freebraid.cli import _FORMATS, _MOVESETS, main
from freebraid.moves import MoveSet
from freebraid.render import RenderFormat
from freebraid.scenarios import BRUNNIAN_TEXT

ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BY_ID = {case.id: case for case in CASES}
OWNED = set()


def rows_of(groups):
    """Parametrize a test over {test id: ids of table rows}; `test_cli_case` leaves those rows to it."""
    OWNED.update(row for rows in groups.values() for row in rows)
    return pytest.mark.parametrize("rows", list(groups.values()), ids=list(groups))


def numbered(*rows):
    return {str(i): [row] for i, row in enumerate(rows)}


def check(capsys, monkeypatch, rows):
    for case in map(BY_ID.__getitem__, rows):
        if case.stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(case.stdin))
        assert run(capsys, *case.argv) == (case.code, case.out, case.err), case.id


# Rows that a parametrized test of their own checked before the table still run under its name and ids.
@rows_of(numbered("parse-zeros-index", "parse-zeros-header", "parity-zeros-component", "parity-zeros-qgaussian",
                  "scramble-zeros-options"))
def test_leading_zeros_beyond_the_int_digit_limit_are_read(capsys, monkeypatch, rows):
    check(capsys, monkeypatch, rows)


@rows_of(numbered("parse-long-header", "parse-long-index", "parse-long-index-after-header",
                  "parse-unknown-token-first", "parse-json-long-n", "parse-json-long-index", "parity-long-component",
                  "parity-long-qgaussian", "parse-nines-index", "perm-nines-index", "parse-json-nested-n",
                  "parse-json-nested-letters"))
def test_numbers_too_long_to_convert_exit_with_one_line(capsys, monkeypatch, rows):
    check(capsys, monkeypatch, rows)


@rows_of({"argv0-99999999999": ["parse-header-above-cap"], "argv1-10000000000": ["perm-index-above-cap"],
          "argv2-99999999999": ["parse-json-n-above-cap"]})
def test_strand_counts_above_the_cap_exit_1(capsys, monkeypatch, rows):
    check(capsys, monkeypatch, rows)


@rows_of({'{"n": 3, "letters": 5}-JSON field \'letters\' must be an array': ["parse-json-letters-not-array"],
          '{"n": 3, "letters": [{"kind": "classical", "i": 3}]}-letter index 3 out of range for n=3':
          ["parse-json-index-out-of-range"]})
def test_malformed_json_words_exit_1_with_one_line(capsys, monkeypatch, rows):
    check(capsys, monkeypatch, rows)


@rows_of({"argv0-1-unknown token": ["perm-arabic-index"], "argv1-1-unknown token": ["parse-arabic-header"],
          "argv2-2-bad partition list": ["parity-arabic-component"],
          "argv3-2-bad permutation image": ["parity-arabic-qgaussian"],
          "argv4-1---added expects two comma-separated positions": ["beta-prime-arabic-added"],
          "argv5-1---added expects two comma-separated positions": ["beta-prime-underscore-added"]})
def test_non_ascii_digits_rejected(capsys, monkeypatch, rows):
    check(capsys, monkeypatch, rows)


@rows_of({f"command{i}-{option}-words{i}": [f"{command}{option}-{kind}" for kind in ("arabic", "underscore", "plus",
                                                                                   "space")]
          for i, (command, option) in enumerate([("scramble", "--steps"), ("scramble", "--seed"),
                                                 ("scramble", "--max-length"), ("oracle", "--bound"),
                                                 ("oracle", "--node-cap"), ("brunnian", "--steps")])})
def test_non_ascii_digits_rejected_in_integer_options(capsys, monkeypatch, rows):
    check(capsys, monkeypatch, rows)


@rows_of({"component:N1=9-n=4; z2-bad partition in 'component:N1=9': part [9] is not a subset of 1..4":
          ["parity-component-out-of-range"],
          "qgaussian:Q=1,1-n=2; z1-bad completion in 'qgaussian:Q=1,1': (1, 1) is not a bijection of 1..2":
          ["parity-qgaussian-not-bijective"]})
def test_parity_rejects_out_of_range_scheme_lists(capsys, monkeypatch, rows):
    check(capsys, monkeypatch, rows)


@rows_of({"option0-steps must be >= 0": ["scramble-negative-steps"],
          "option1-max_length must be at least the current word length": ["scramble-max-length-below-word"],
          "option2-seed must be >= 0": ["scramble-negative-seed"]})
def test_scramble_rejects_bad_bounds(capsys, monkeypatch, rows):
    check(capsys, monkeypatch, rows)


@rows_of({"0": ["oracle-node-cap-0"], "-3": ["oracle-node-cap-negative"]})
def test_oracle_rejects_bad_node_cap(capsys, monkeypatch, rows):
    check(capsys, monkeypatch, rows)


@pytest.mark.parametrize("case", [case for case in CASES if case.id not in OWNED], ids=lambda case: case.id)
def test_cli_case(capsys, monkeypatch, case):
    check(capsys, monkeypatch, [case.id])


def test_closed_stdout_exits_1_quietly(capsys, monkeypatch):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", Closed())
    assert main(["perm", "n=2; z1"]) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, lines", [
    (["scramble", "--history", "--steps", "20000", "--max-length", "400", "n=3; z1 z2 z1"], 1),  # fails in a print
    (["perm", "n=2; z1"], 0),  # the pipe closes before the output leaves the buffer
])
def test_closed_pipe_exits_1_quietly(argv, lines):
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}  # buffered, as stdout is by default
    with subprocess.Popen([sys.executable, "-m", "freebraid.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        for _ in range(lines):
            proc.stdout.readline()
        proc.stdout.close()
        assert (proc.stderr.read(), proc.wait(timeout=60)) == (b"", 1)


def test_scramble_default_max_length_stays_under_the_letter_cap(capsys, monkeypatch):
    for module in ("cli", "moves"):
        monkeypatch.setattr(f"freebraid.{module}.MAX_LETTERS", 12)
    code, out, err = run(capsys, "scramble", "--steps", "200", "n=3; " + "z1 " * 10)
    assert (code, err) == (0, "") and len(out.split()) - 1 <= 12


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


def test_parse_json_round_trip(capsys):
    code, out, _ = run(capsys, "parse", "--json", "n=2; z1 t1")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    code2, out2, _ = run(capsys, "parse", out.strip())
    assert code2 == 0
    assert out2.strip() == "n=2; z1 t1"


@pytest.mark.parametrize("command, words", [
    (("scramble",), ("n=3; z1 z2",)),
    (("scenario", "brunnian"), ()),
])
def test_steps_above_the_cap_exit_2_at_once(command, words):
    steps = "99999999999999999999"
    proc = subprocess.run([sys.executable, "-m", "freebraid.cli", *command, "--steps", steps, *words],
                          env=ENV, capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"freebraid: steps must be at most 1000000, got {steps}\n"


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
    code = ("import contextlib, io, json, sys; from freebraid.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()): status = main(sys.argv[1:])\n"
            "print(json.dumps([status, sorted(m for m in sys.modules if m.split('.')[0] == 'freebraid')]))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=ENV,
                          capture_output=True, text=True, check=True, timeout=60)
    expected = sorted(["freebraid", "freebraid.cli", "freebraid.words", *(f"freebraid.{m}" for m in loaded)])
    assert json.loads(proc.stdout) == [0, expected]


def test_verify_command(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text(BRUNNIAN_TEXT)
    code, out, _ = run(capsys, "verify", "--parity", "gaussian", f"@{path}", f"@{path}")
    assert code == 0
    assert out.startswith("reproduced")


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


def test_scenario_beta_prime_text_golden(capsys):
    """Given as a candidate, the built-in word has its added crossings located (case `scenario-beta-prime`)."""
    lines = BETA_PRIME.splitlines(keepends=True)
    candidate = "".join(lines[:-1]) + "note: user-supplied candidate\n"
    assert lines[1] == "added crossings: positions 38, 42\n"
    assert run(capsys, "scenario", "beta-prime", lines[0].removeprefix("word: ")) == (0, candidate, "")


@pytest.mark.parametrize("moveset", ["F", "FB", "strong"])
def test_scramble_history_golden(capsys, moveset):
    # Recorded from the full-rescan scramble: a change in match order or in the draw fails here.
    golden = Path(__file__).parent / "golden" / f"scramble_brunnian_{moveset}.txt"
    code, out, err = run(capsys, "scramble", "--history", "--steps", "300", "--max-length", "200",
                         "--seed", "3", "--moveset", moveset, BRUNNIAN_TEXT)
    assert (code, err) == (0, "")
    assert out == golden.read_text()
