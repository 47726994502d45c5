"""Command-line surface.

Exit codes: 0 on success, 1 on usage or parse errors, 2 when an operation
is invoked outside its domain (for example Gaussian parity of a word whose
closure is not a single circle, or a `--steps` above
`moves.MAX_STEPS`, 1000000).

A closed stdout ends the command quietly with exit code 1.

Each handler imports the modules it uses, so the top level stays at
`argparse`, `json`, `os`, `sys` and `words` and a command loads only its own
dependencies.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .words import (
    BraidWord,
    JSON,
    MAX_LETTERS,
    ParseError,
    PreconditionError,
    _ascii_int as _ascii_digits,
    closure_components,
    parse_word,
    permutation,
    serialize,
)

# The values of moves.MoveSet and render.RenderFormat, in order; a test keeps them equal.
_MOVESETS = ("F", "FB", "strong")
_FORMATS = ("ascii", "svg")
_PAIR = ("word1", "word2")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _ascii_int(text: str) -> int:
    """argparse type: ASCII digits 0-9 read as words read them, with an optional leading `-`."""
    value = _ascii_digits(text.removeprefix("-"))
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return -value if text.startswith("-") else value


def _load_word(source: str) -> BraidWord:
    if source == "-":
        return parse_word(sys.stdin.read())
    if source.startswith("@"):
        try:
            with open(source[1:], "r", encoding="utf-8") as fh:
                return parse_word(fh.read())
        except OSError as e:
            raise ParseError(f"cannot read word file {source[1:]!r}: {e}") from e
    return parse_word(source)


def _emit(args, human: str, payload: dict) -> None:
    print(json.dumps(payload) if args.json else human)


def _cmd_parse(args) -> None:
    word = _load_word(args.word)
    if args.json:
        print(serialize(word, JSON))
    else:
        print(serialize(word))


def _cmd_perm(args) -> None:
    word = _load_word(args.word)
    p = permutation(word)
    human = " ".join(f"{k}->{p(k)}" for k in range(1, word.n + 1))
    _emit(args, human, {"n": word.n, "image": list(p.image)})


def _cmd_closure(args) -> None:
    word = _load_word(args.word)
    count, cycles = closure_components(word)
    lines = [f"components: {count}"]
    lines += ["cycle: " + " ".join(map(str, c)) for c in cycles]
    _emit(args, "\n".join(lines), {"components": count, "cycles": [list(c) for c in cycles]})


def _cmd_chords(args) -> None:
    from .parity import chord_diagram
    word = _load_word(args.word)
    d = chord_diagram(word)
    lines = [f"crossings: {len(d.chord_of)}",
             "gauss: " + " ".join(map(str, d.gauss_sequence))]
    lines += [f"chord {c}: endpoints {a},{b}" for c, (a, b) in sorted(d.chord_of.items())]
    _emit(args, "\n".join(lines), {
        "crossings": len(d.chord_of),
        "gauss": list(d.gauss_sequence),
        "chords": [[c, a, b] for c, (a, b) in sorted(d.chord_of.items())],
    })


def _cmd_parity(args) -> None:
    from .parity import parse_scheme
    word = _load_word(args.word)
    scheme = parse_scheme(args.parity, word.n)
    assignment = scheme.assignment(word)
    lines = [f"pos={t} letter=z{abs(word.letters[t])} parity={assignment.parity_of(t).value}"
             for t in assignment.positions]
    _emit(args, "\n".join(lines) if lines else "no classical letters", {
        "scheme": assignment.scheme,
        "parities": [{"position": t, "index": abs(word.letters[t]),
                      "parity": assignment.parity_of(t).value}
                     for t in assignment.positions],
    })


def _cmd_bracket(args) -> None:
    from .bracket import bracket
    from .parity import parse_scheme
    word = _load_word(args.word)
    scheme = parse_scheme(args.parity, word.n)
    result = bracket(word, scheme)
    _emit(args, serialize(result.word), {
        "word": serialize(result.word),
        "kept_positions": list(result.kept_positions),
    })


def _cmd_reduce(args) -> None:
    from .normalform import irreducible_form
    word = _load_word(args.word)
    text = serialize(irreducible_form(word))
    _emit(args, text, {"word": text})


def _cmd_canon(args) -> None:
    from .normalform import canonical_code
    word = _load_word(args.word)
    code = canonical_code(word)
    _emit(args, code.format(), {
        "n": code.n, "perm": list(code.permutation), "m": code.crossing_count,
        "strands": [list(s) for s in code.strand_sequences],
    })


def _cmd_eq(args, decider: str) -> None:
    from . import normalform
    w1, w2 = _load_word(args.word1), _load_word(args.word2)
    equal = getattr(normalform, decider)(w1, w2)
    _emit(args, "equal" if equal else "not equal", {"equal": equal})


def _cmd_distinguish(args) -> None:
    from .bracket import bracket
    from .normalform import irreducible_code
    from .parity import parse_scheme
    w1, w2 = _load_word(args.word1), _load_word(args.word2)
    scheme = parse_scheme(args.parity, w1.n)
    if w1.n != w2.n:
        raise PreconditionError(f"strand counts differ: {w1.n} vs {w2.n}")
    c1 = irreducible_code(bracket(w1, scheme).word)
    c2 = irreducible_code(bracket(w2, scheme).word)
    differ = c1 != c2
    verdict = ("not equivalent (certified by parity bracket)" if differ else "inconclusive")
    human = "\n".join(["bracket 1:", c1.format(), "bracket 2:", c2.format(), verdict])
    _emit(args, human, {
        "bracket1": c1.format(), "bracket2": c2.format(),
        "distinct": differ, "verdict": verdict,
    })


def _cmd_scramble(args) -> None:
    from .moves import MoveSet, format_history, scramble
    word = _load_word(args.word)
    L = len(word.letters)
    max_length = args.max_length if args.max_length is not None else min(max(2 * L, L + 20), MAX_LETTERS)
    result, history = scramble(word, args.steps, MoveSet(args.moveset), args.seed, max_length)
    if args.json:
        print(json.dumps({
            "word": serialize(result),
            "history": format_history(history).splitlines(),
        }))
    else:
        print(serialize(result))
        if args.history and history:
            print(format_history(history))


def _cmd_oracle(args) -> None:
    from .moves import MoveSet
    from .oracle import oracle_equal
    w1, w2 = _load_word(args.word1), _load_word(args.word2)
    bound = args.bound if args.bound is not None else max(len(w1.letters), len(w2.letters)) + 4
    verdict = oracle_equal(w1, w2, MoveSet(args.moveset), bound, args.node_cap)
    _emit(args, verdict.value, {"verdict": verdict.value})


def _cmd_verify(args) -> None:
    from .bracket import verify_reproduction
    from .parity import parse_scheme
    beta, beta_prime = _load_word(args.word1), _load_word(args.word2)
    scheme = parse_scheme(args.parity, beta.n)
    report = verify_reproduction(beta, beta_prime, scheme)
    _emit(args, report.format_text(), report.payload())


def _cmd_render(args) -> None:
    from .render import RenderFormat, render
    word = _load_word(args.word)
    print(render(word, RenderFormat(args.format)))


def _cmd_scenario(args) -> None:
    from . import scenarios
    if args.which == "brunnian":
        report = scenarios.scenario_brunnian(seed=args.seed, steps=args.steps,
                                             max_length=args.max_length)
    else:
        word = _load_word(args.word) if args.word is not None else None
        added = None
        if args.added is not None:
            try:
                a, b = (_ascii_int(tok) for tok in args.added.split(","))
            except (ValueError, argparse.ArgumentTypeError):
                raise ParseError(f"--added expects two comma-separated positions, got {args.added!r}") from None
            added = (a, b)
        report = scenarios.scenario_beta_prime(word, added)
    _emit(args, report.format_text(), report.payload())


def _add_json_flag(p):
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> _Parser:
    parser = _Parser(prog="freebraid",
                     description="Free braid words: moves, parities, brackets, deciders.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Word arguments go in last, so that a missing `--parity` is still named first.
    word_args = []

    def add(name, func, help, words=("word",), json_flag=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if json_flag:
            _add_json_flag(p)
        word_args.append((p, words))
        return p

    add("parse", _cmd_parse, "parse and echo a word")
    add("perm", _cmd_perm, "endpoint permutation")
    add("closure", _cmd_closure, "closure component count and cycles")
    add("chords", _cmd_chords, "chord diagram of the closure")

    p = add("parity", _cmd_parity, "per-crossing parities under a scheme")
    p.add_argument("--parity", required=True, metavar="SCHEME",
                   help="gaussian | component:N1=<list> | qgaussian:Q=<image>")

    p = add("bracket", _cmd_bracket, "one-term parity bracket")
    p.add_argument("--parity", required=True, metavar="SCHEME")

    add("reduce", _cmd_reduce, "bigon-irreducible form")
    add("canon", _cmd_canon, "canonical code (decides strong equality)")
    add("eq-f", lambda a: _cmd_eq(a, "f_equal"), "word equality under all moves but the triple slide", _PAIR)
    add("eq-strong", lambda a: _cmd_eq(a, "strongly_equal"), "strong equality (no pair cancellation)", _PAIR)

    p = add("distinguish", _cmd_distinguish, "certify non-equivalence via the parity bracket", _PAIR)
    p.add_argument("--parity", required=True, metavar="SCHEME")

    p = add("verify", _cmd_verify, "locate an odd irreducible word inside a candidate", _PAIR)
    p.add_argument("--parity", required=True, metavar="SCHEME")

    p = add("scramble", _cmd_scramble, "random walk over applicable moves")
    p.add_argument("--steps", type=_ascii_int, default=100)
    p.add_argument("--seed", type=_ascii_int, default=0)
    p.add_argument("--max-length", type=_ascii_int, default=None)
    p.add_argument("--moveset", choices=_MOVESETS, default="FB")
    p.add_argument("--history", action="store_true", help="also print the move history")

    p = add("oracle", _cmd_oracle, "breadth-first equality oracle", _PAIR)
    p.add_argument("--moveset", choices=_MOVESETS, default="F")
    p.add_argument("--bound", type=_ascii_int, default=None, help="length bound for intermediate words")
    p.add_argument("--node-cap", type=_ascii_int, default=1_000_000)

    # A diagram has no JSON form, so render takes no --json.
    p = add("render", _cmd_render, "emit a diagram", json_flag=False)
    p.add_argument("--format", choices=_FORMATS, default="ascii")
    for p, words in word_args:
        for word in words:
            p.add_argument(word, help="braid word (inline, @file, or - for stdin)")

    p = sub.add_parser("scenario", help="built-in experiments")
    scen = p.add_subparsers(dest="which", required=True)
    pb = scen.add_parser("brunnian", help="the 9-strand odd irreducible example")
    pb.set_defaults(func=_cmd_scenario, which="brunnian")
    _add_json_flag(pb)
    pb.add_argument("--seed", type=_ascii_int, default=0)
    pb.add_argument("--steps", type=_ascii_int, default=1000)
    pb.add_argument("--max-length", type=_ascii_int, default=200)
    pp = scen.add_parser("beta-prime", help="the transformed 10-strand braid")
    pp.set_defaults(func=_cmd_scenario, which="beta-prime")
    _add_json_flag(pp)
    pp.add_argument("word", nargs="?", default=None,
                    help="candidate word (defaults to the documented reconstruction)")
    pp.add_argument("--added", default=None, metavar="A,B",
                    help="positions of the two added classical crossings")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not in the interpreter's exit flush
    except BrokenPipeError:  # the reader closed stdout
        try:  # point stdout at devnull, so that the exit flush prints nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):  # an in-process stdout without a descriptor
            pass
        return 1
    except ParseError as e:
        print(f"freebraid: {e}", file=sys.stderr)
        return 1
    except PreconditionError as e:
        print(f"freebraid: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
