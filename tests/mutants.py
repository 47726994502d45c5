"""Mutants of the package that the tests must kill, run by `scripts/mutate.py`.

Each entry is a dict: `id` names the mutant, `file` is a path from the
repository root, `old` is text that occurs exactly once in that file, `new`
replaces it, and `tests` are the pytest ids of which at least one must fail
on the mutated copy.  A mutant whose `old` text is gone (or occurs twice), or
whose tests cannot be run, is stale.
"""

WORDS, MOVES, PARITY = "src/freebraid/words.py", "src/freebraid/moves.py", "src/freebraid/parity.py"
VALUE_TEST = "tests/test_words.py::test_value_classes_behave_as_frozen_dataclasses"
SCRAMBLE_TESTS = ["tests/test_moves.py::test_scramble_matches_full_rescan_reference",
                  "tests/test_moves.py::test_scramble_filters_a_cache_warmed_by_another_move_set"]
SCHEME_TEST = "tests/test_parity.py::test_parse_scheme_designations"
CLI_CASE = "tests/test_cli.py::test_cli_case[{}]"

MUTANTS = [
    # The pair cache of `scramble`.
    {"id": "pair-cache-keyed-on-the-first-letter", "file": MOVES,
     "old": "@lru_cache(maxsize=4096)\ndef _pair_move(a: int, c: int) -> tuple | str:",
     "new": "def _pair_move(a: int, c: int) -> tuple | str:\n"
            "    if a not in _by_first:\n"
            "        _by_first[a] = _pair_move_of(a, c)\n"
            "    return _by_first[a]\n\n\n"
            "_by_first = {}\n\n\n"
            "def _pair_move_of(a: int, c: int) -> tuple | str:",
     "tests": SCRAMBLE_TESTS},
    {"id": "pair-cache-slide-on-equal-indices", "file": MOVES,
     "old": "return _SLIDE if abs(abs(a) - abs(c)) == 1 else",
     "new": "return _SLIDE if abs(abs(a) - abs(c)) == 0 else",
     "tests": SCRAMBLE_TESTS},
    {"id": "pair-cache-unbounded", "file": MOVES,
     "old": "@lru_cache(maxsize=4096)", "new": "@lru_cache(maxsize=None)",
     "tests": ["tests/test_moves.py::test_pair_cache_stays_within_the_stated_worst_case"]},
    {"id": "slide-rematched-on-two-letters", "file": MOVES,
     "old": "move = _window_move(tuple(letters[p:p + 3]))", "new": "move = _window_move(tuple(letters[p:p + 2]))",
     "tests": SCRAMBLE_TESTS},
    {"id": "rescan-ignores-the-move-set", "file": MOVES,
     "old": "fresh.append(entry[0] not in off if entry is not _SLIDE else",
     "new": "fresh.append(entry[0] is not None if entry is not _SLIDE else",
     "tests": SCRAMBLE_TESTS},
    {"id": "rescan-window-one-offset-short", "file": MOVES,
     "old": "lo = max(p - 2, 0)", "new": "lo = max(p - 1, 0)",
     "tests": SCRAMBLE_TESTS},
    # Scheme lists are refused, never coerced.
    {"id": "scheme-list-skips-empty-items", "file": PARITY,
     "old": 'values = [_ascii_int(tok) for tok in body.split(",")] if body else []',
     "new": 'values = [_ascii_int(tok) for tok in body.split(",") if tok != ""]',
     "tests": [SCHEME_TEST, CLI_CASE.format("parity-component-empty-item")]},
    {"id": "scheme-list-refuses-an-empty-body", "file": PARITY,
     "old": 'values = [_ascii_int(tok) for tok in body.split(",")] if body else []',
     "new": 'values = [_ascii_int(tok) for tok in body.split(",")]',
     "tests": [SCHEME_TEST, CLI_CASE.format("parity-component-empty-first")]},
    {"id": "partition-accepts-a-strand-twice", "file": PARITY,
     "old": 'raise ValueError(f"strand {strand} given twice")', "new": "continue",
     "tests": ["tests/test_parity.py::test_partition_validation", CLI_CASE.format("parity-component-repeated")]},
    # The generic constructor of the value classes.
    {"id": "constructor-accepts-unknown-keywords", "file": WORDS,
     "old": "if key not in fields[len(args):]:", "new": "if key in fields[:len(args)]:",
     "tests": [VALUE_TEST]},
    {"id": "constructor-drops-extra-positionals", "file": WORDS,
     "old": "if len(args) > len(fields) or len(values) < len(fields):", "new": "if len(values) < len(fields):",
     "tests": [VALUE_TEST]},
    {"id": "constructor-keyword-overrides-positional", "file": WORDS,
     "old": "if key not in fields[len(args):]:", "new": "if key not in fields:",
     "tests": [VALUE_TEST]},
    {"id": "constructor-misses-no-field", "file": WORDS,
     "old": "if len(args) > len(fields) or len(values) < len(fields):", "new": "if len(args) > len(fields):",
     "tests": [VALUE_TEST]},
    {"id": "reproduction-report-without-defaults", "file": "src/freebraid/bracket.py",
     "old": '    _defaults = {"reason": ""}\n', "new": "",
     "tests": [VALUE_TEST]},
    {"id": "defaults-override-given-values", "file": WORDS,
     "old": "values = {**self._defaults, **dict(zip(fields, args)), **kwargs}",
     "new": "values = {**dict(zip(fields, args)), **kwargs, **self._defaults}",
     "tests": [VALUE_TEST]},
]
