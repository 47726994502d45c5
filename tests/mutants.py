"""Mutants of the package that the tests must kill, run by `scripts/mutate.py`.

Each entry is a dict: `id` names the mutant, `file` is a path from the
repository root, `old` is text that occurs exactly once in that file, `new`
replaces it, and `tests` are the pytest ids of which at least one must fail
on the mutated copy.  A mutant whose `old` text is gone (or occurs twice), or
whose tests cannot be run, is stale.
"""

WORDS, MOVES, PARITY = "src/freebraid/words.py", "src/freebraid/moves.py", "src/freebraid/parity.py"
NORMALFORM, BRACKET = "src/freebraid/normalform.py", "src/freebraid/bracket.py"
# A word whose virtual letters are made classical: what a pass that took them for crossings would read.
ALL_CLASSICAL = "BraidWord._trusted(word.n, tuple(map(abs, word.letters)))"
VALUE_TEST = "tests/test_words.py::test_value_classes_behave_as_frozen_dataclasses"
SCRAMBLE_TESTS = ["tests/test_moves.py::test_scramble_matches_full_rescan_reference",
                  "tests/test_moves.py::test_scramble_filters_a_cache_warmed_by_another_move_set"]
DRAW_TESTS = ["tests/test_moves.py::test_scramble_draws_when_every_offset_matches",
              "tests/test_moves.py::test_scramble_draws_a_lone_match_at_either_end"]
SCHEME_TEST = "tests/test_parity.py::test_parse_scheme_designations"
CLI_CASE = "tests/test_cli.py::test_cli_case[{}]"
MEMO_TEST = "tests/test_oracle.py::test_window_memos_kept_across_searches_match_the_reference"
FUSED_TEST = "tests/test_strand_walk.py::test_fused_passes_match_their_two_pass_references"
ONE_PASS_TEST = "tests/test_normalform.py::test_one_pass_reduction_matches_the_heap_reduction"
CONSTRUCTOR_TEST = "tests/test_moves.py::test_move_instance_constructor_matches_the_generic_one[{}]"
INSERTION_TEST = "tests/test_moves.py::test_scramble_inserts_the_left_side_of_each_r2_relation[{}]"

MUTANTS = [
    # The pair cache of `scramble`, keyed by pairs and slide triples, and its rescan.
    {"id": "pair-cache-keyed-on-the-first-letter", "file": MOVES,
     "old": "    if len(_pair_moves) >= _PAIR_CACHE_SIZE:\n",
     "new": "    if move := next((m for k, m in _pair_moves.items() if k[:1] == key[:1] and len(k) == len(key)), None):\n"
            "        return move\n    if len(_pair_moves) >= _PAIR_CACHE_SIZE:\n",
     "tests": SCRAMBLE_TESTS},
    {"id": "pair-cache-slide-on-equal-indices", "file": MOVES,
     "old": "abs(abs(key[0]) - abs(key[1])) == 1", "new": "abs(abs(key[0]) - abs(key[1])) == 0",
     "tests": SCRAMBLE_TESTS},
    {"id": "pair-cache-unbounded", "file": MOVES,
     "old": "    if len(_pair_moves) >= _PAIR_CACHE_SIZE:\n        _pair_moves.clear()\n", "new": "",
     "tests": ["tests/test_moves.py::test_pair_cache_stays_within_the_stated_worst_case"]},
    {"id": "slide-rematched-on-two-letters", "file": MOVES,
     "old": "key := (*pair, letters[p + 2])", "new": "key := (*pair, letters[p + 2])[:2]",
     "tests": SCRAMBLE_TESTS},
    {"id": "slide-keyed-on-the-pair-alone", "file": MOVES,
     "old": "move = _pair_moves[key] =", "new": "move = _pair_moves[key[:2]] =",
     "tests": SCRAMBLE_TESTS},
    {"id": "rescan-ignores-the-move-set", "file": MOVES,
     "old": 'bits.append("0" if move[0] in off else "1")', "new": 'bits.append("0" if move[0] is None else "1")',
     "tests": SCRAMBLE_TESTS},
    {"id": "rescan-window-one-offset-short", "file": MOVES,
     "old": "lo, hi = max(p - 2, 0),", "new": "lo, hi = max(p - 1, 0),",
     "tests": SCRAMBLE_TESTS},
    {"id": "first-rescan-skips-the-last-pair", "file": MOVES,
     "old": "lo, old_end, hi = 0, 0, L", "new": "lo, old_end, hi = 0, 0, L - 2",
     "tests": SCRAMBLE_TESTS},
    # The flags as one int: the spliced rescan, the halving draw, and the draw of r by getrandbits.
    {"id": "rescan-digits-in-offset-order", "file": MOVES,
     "old": "for q in range(hi - 1, lo - 1, -1):", "new": "for q in range(lo, hi):",
     "tests": SCRAMBLE_TESTS},
    {"id": "splice-shifts-the-tail-to-lo", "file": MOVES,
     "old": "flags >> old_end << hi", "new": "flags >> old_end << lo",
     "tests": SCRAMBLE_TESTS},
    {"id": "splice-keeps-the-flag-at-lo", "file": MOVES,
     "old": "flags & (1 << lo) - 1 |", "new": "flags & (1 << lo + 1) - 1 |",
     "tests": SCRAMBLE_TESTS},
    {"id": "halving-keeps-the-low-half-on-a-tie", "file": MOVES,
     "old": "if r < c:", "new": "if r <= c:",
     "tests": DRAW_TESTS},
    {"id": "rejection-accepts-the-total", "file": MOVES,
     "old": "while r >= total:", "new": "while r > total:",
     "tests": DRAW_TESTS},
    {"id": "draw-below-the-next-power-of-two", "file": MOVES,
     "old": "r = getrandbits(k := total.bit_length())", "new": "r = getrandbits(k := (total - 1).bit_length())",
     "tests": DRAW_TESTS},
    # The scramble step's constructor, through its slots' setters, and its inline R2 insertion targets.
    {"id": "move-instance-setters-bound-out-of-order", "file": MOVES,
     "old": "_set_relation, _set_i, _set_position, _set_direction, _set_j = (",
     "new": "_set_relation, _set_position, _set_i, _set_direction, _set_j = (",
     "tests": [CONSTRUCTOR_TEST.format("by-position")]},
    {"id": "move-instance-default-j-not-written", "file": MOVES,
     "old": "        _set_j(self, j)\n", "new": "        if j is not None:\n            _set_j(self, j)\n",
     "tests": [CONSTRUCTOR_TEST.format("j-by-default")]},
    {"id": "insertion-targets-signs-swapped", "file": MOVES,
     "old": "target = (i, i) if rel is _CLASSICAL_R2 else (-i, -i)",
     "new": "target = (-i, -i) if rel is _CLASSICAL_R2 else (i, i)",
     "tests": [INSERTION_TEST.format(2)]},
    # The oracle's window memos, kept across searches.
    {"id": "window-memo-keyed-without-n", "file": MOVES,
     "old": "rewrites = _window_memo(n, moveset)", "new": "rewrites = _window_memo(b, moveset)",
     "tests": [MEMO_TEST]},
    {"id": "window-memo-keyed-without-the-move-set", "file": MOVES,
     "old": "rewrites = _window_memo(n, moveset)", "new": "rewrites = _window_memo(n, MoveSet.FB)",
     "tests": [MEMO_TEST]},
    {"id": "window-memo-never-trimmed", "file": MOVES,
     "old": "        if len(rewrites) > _WINDOW_MEMO_SIZE:\n            rewrites.clear()\n", "new": "        pass\n",
     "tests": ["tests/test_oracle.py::test_window_memo_kept_after_a_wide_search_stays_within_the_stated_bound"]},
    {"id": "window-memo-not-kept", "file": MOVES,
     "old": "rewrites = _window_memo(n, moveset)", "new": "rewrites = {}",
     "tests": [MEMO_TEST]},
    # `_discover` packs its R2 insertions at the first node that can take one.
    {"id": "insertion-codes-never-built", "file": MOVES,
     "old": "    pairs = None  #", "new": "    pairs = []  #",
     "tests": [MEMO_TEST]},
    {"id": "insertion-codes-built-before-the-search", "file": MOVES,
     "old": "    pairs = None  #",
     "new": "    pairs = [_pack(relation_sides(rel, i)[0], n, b) for rel in _R2_RELATIONS if rel in rels for i in range(1, n)]  #",
     "tests": ["tests/test_oracle.py::test_a_search_that_cannot_insert_builds_no_insertion_code"]},
    # The beta-prime scenario's trivial components, read off `crossings_by_strand`.
    {"id": "trivial-components-counts-virtual-letters", "file": "src/freebraid/scenarios.py",
     "old": "on_strand = crossings_by_strand(word)[0]", "new": f"on_strand = crossings_by_strand({ALL_CLASSICAL})[0]",
     "tests": ["tests/test_scenarios.py::test_trivial_components_count_only_classical_crossings"]},
    # The component parity, read off `crossings_by_strand`.
    {"id": "component-parity-sets-instead-of-flipping", "file": PARITY,
     "old": "crosses[t] ^= 1", "new": "crosses[t] = 1",
     "tests": ["tests/test_parity.py::test_component_parity_examples"]},
    # Scheme lists are refused, never coerced.
    {"id": "scheme-list-skips-empty-items", "file": PARITY,
     "old": 'values = [_ascii_int(tok) for tok in body.split(",")] if body else []',
     "new": 'values = [_ascii_int(tok) for tok in body.split(",") if tok != ""]',
     "tests": [SCHEME_TEST, CLI_CASE.format("parity-component-empty-item")]},
    {"id": "scheme-list-refuses-an-empty-body", "file": PARITY,
     "old": 'values = [_ascii_int(tok) for tok in body.split(",")] if body else []',
     "new": 'values = [_ascii_int(tok) for tok in body.split(",")]',
     "tests": [SCHEME_TEST, CLI_CASE.format("parity-component-empty-first")]},
    {"id": "scheme-designation-stripped", "file": PARITY,
     "old": '    if text == "gaussian":', "new": '    text = text.strip()\n    if text == "gaussian":',
     "tests": [SCHEME_TEST, CLI_CASE.format("parity-padded-component")]},
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
    {"id": "reproduction-report-without-defaults", "file": BRACKET,
     "old": '    _defaults = {"reason": ""}\n', "new": "",
     "tests": [VALUE_TEST]},
    {"id": "defaults-override-given-values", "file": WORDS,
     "old": "values = {**self._defaults, **dict(zip(fields, args)), **kwargs}",
     "new": "values = {**dict(zip(fields, args)), **kwargs, **self._defaults}",
     "tests": [VALUE_TEST]},
    # The methods that the value classes share, and the permutation algebra.
    {"id": "value-eq-without-its-class-test", "file": WORDS,
     "old": "        if other.__class__ is not self.__class__:\n            return NotImplemented\n", "new": "",
     "tests": [VALUE_TEST]},
    {"id": "value-hash-includes-the-class-name", "file": WORDS,
     "old": "return hash(self._astuple())", "new": "return hash((type(self).__name__, *self._astuple()))",
     "tests": [VALUE_TEST]},
    {"id": "value-repr-without-field-names", "file": WORDS,
     "old": "f'{f}={getattr(self, f)!r}'", "new": "f'{getattr(self, f)!r}'",
     "tests": [VALUE_TEST]},
    {"id": "value-without-delattr", "file": WORDS,
     "old": '    def __delattr__(self, name):\n        raise AttributeError(f"cannot delete field {name!r}")\n\n',
     "new": "",
     "tests": [VALUE_TEST]},
    {"id": "value-without-reduce", "file": WORDS,
     "old": "    def __reduce__(self):\n        return self.__class__, self._astuple()\n", "new": "",
     "tests": [VALUE_TEST]},
    {"id": "permutation-compose-in-the-wrong-order", "file": WORDS,
     "old": "[other.image[v - 1] for v in self.image]", "new": "[self.image[v - 1] for v in other.image]",
     "tests": ["tests/test_words.py::test_permutation_is_a_concatenation_homomorphism"]},
    {"id": "permutation-inverse-as-the-reversed-image", "file": WORDS,
     "old": "return Permutation._trusted(_image((0,) + self.image))", "new": "return Permutation._trusted(self.image[::-1])",
     "tests": ["tests/test_words.py::test_permutation_inverse_and_cycles"]},
    # The two passes that swap positions themselves: `crossings_by_strand`, which the layers read, and `_reduce`.
    {"id": "crossings-by-strand-virtual-skips-its-swap", "file": WORDS,
     "old": "pos[x], pos[x + 1] = pos[x + 1], pos[x]", "new": "pass",
     "tests": [FUSED_TEST]},
    {"id": "crossings-by-strand-appends-to-a-twice", "file": WORDS,
     "old": "            seqs[b].append(t)\n", "new": "            seqs[a].append(t)\n",
     "tests": [FUSED_TEST]},
    {"id": "reduce-virtual-skips-its-swap", "file": NORMALFORM,
     "old": "pos[x], pos[x + 1] = pos[x + 1], pos[x]", "new": "pass",
     "tests": [FUSED_TEST]},
    {"id": "reduce-pops-one-stack-only", "file": NORMALFORM,
     "old": "            sb.pop()\n", "new": "",
     "tests": [FUSED_TEST]},
    # Bigon reduction on per-strand stacks, and the bigons of the unreduced word.
    {"id": "reduce-bigon-read-off-one-strand", "file": NORMALFORM,
     "old": "(p := sa[-1]) == sb[-1]", "new": "word.letters[p := sa[-1]] == x",
     "tests": [ONE_PASS_TEST]},
    {"id": "reduce-leaves-the-earlier-letter-alive", "file": NORMALFORM,
     "old": "alive[p] = alive[t] = 0", "new": "alive[t] = 0",
     "tests": [ONE_PASS_TEST]},
    {"id": "irreducible-code-shifted-a-strand", "file": NORMALFORM,
     "old": "image, stacks[1:])", "new": "image, stacks[:-1])",
     "tests": [ONE_PASS_TEST]},
    {"id": "find-bigons-unsorted", "file": NORMALFORM,
     "old": "    found.sort()\n", "new": "",
     "tests": ["tests/test_normalform.py::test_find_bigons_sorted_by_first_letter_not_in_the_order_found"]},
    {"id": "find-bigons-blocked-by-virtual-letters", "file": NORMALFORM,
     "old": "crossings_by_strand(word)[0]", "new": f"crossings_by_strand({ALL_CLASSICAL})[0]",
     "tests": ["tests/test_normalform.py::test_find_bigons_ignores_virtual_letters_between"]},
    # The bracket and the reproduction verifier, on the paper's claim path.
    {"id": "bracket-drops-virtual-letters", "file": BRACKET,
     "old": "if x < 0 or parities[t] is odd", "new": "if x > 0 and parities[t] is odd",
     "tests": ["tests/test_bracket.py::test_bracket_drops_even_classical_letters_only"]},
    {"id": "odd-irreducible-ignores-bigons", "file": BRACKET,
     "old": "all_odd() and not find_bigons(word)", "new": "all_odd()",
     "tests": ["tests/test_bracket.py::test_is_odd_irreducible_examples"]},
    {"id": "reproduction-skips-the-permutation-check", "file": BRACKET,
     "old": "if permutation(beta_prime) != permutation(beta):", "new": "if False:",
     "tests": ["tests/test_bracket.py::test_verify_reproduction_refutes_inequivalent_word"]},
    {"id": "witness-left-in-bracket-positions", "file": BRACKET,
     "old": "witness = tuple(br.kept_positions[k] for k in survivors)", "new": "witness = tuple(survivors)",
     "tests": ["tests/test_bracket.py::test_verify_reproduction_after_scramble"]},
    # The exit codes of `cli.main`: 1 for unreadable input, 2 for a failed precondition.
    {"id": "cli-precondition-error-exits-1", "file": "src/freebraid/cli.py",
     "old": "        return 2\n", "new": "        return 1\n",
     "tests": [CLI_CASE.format("parity-gaussian-not-cyclic")]},
    {"id": "cli-parse-error-exits-2", "file": "src/freebraid/cli.py",
     "old": "    except ParseError as e:\n        print(f\"freebraid: {e}\", file=sys.stderr)\n        return 1\n",
     "new": "    except ParseError as e:\n        print(f\"freebraid: {e}\", file=sys.stderr)\n        return 2\n",
     "tests": [CLI_CASE.format("parse-index-out-of-range")]},
]

# Mutants tried and found equivalent: no test can kill them, so they are not tried again.  Each has
# the keys of a mutant, with a `reason` in place of `tests`.
EQUIVALENT = [
    {"id": "linked-closed-intervals", "file": PARITY,
     "old": "(a1 < b1 < a2) != (a1 < b2 < a2)", "new": "(a1 <= b1 <= a2) != (a1 <= b2 <= a2)",
     "reason": "two chords never share an endpoint, so b1 and b2 never equal a1 or a2"},
]
