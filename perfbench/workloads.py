"""The benchmark's four workloads.

Each workload turns a seed into a fixed cycle of items during set-up, runs
one item per call in the timed loop (always whole schedule cycles of CYCLE
items, so that every run has the same mix), and checks the verdict against
the answer the item's construction fixes, never against the decider being
timed.  Items carry everything the program receives; `fb` is a namespace
holding the package's modules, looked up at call time so that the traced
run's wrappers are used.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass

_STRANDS = 8  # decide: random 8-strand cyclic words
_CYCLE = tuple(range(2, _STRANDS + 1)) + (1,)


@dataclass(frozen=True)
class Item:
    """One closed-loop request: the program's inputs and the known answer."""

    inputs: tuple
    expected: object
    bucket: str = ""


class Reproduce:
    """The paper's headline experiment: scramble the brunnian word, then find it again.

    A single item scrambles for STEPS `FB` steps at max length 200 from its
    own seed, then runs `verify_reproduction` under the Gaussian scheme.  The
    reproduction theorem fixes the answer: success.  1000 steps would take
    0.6 s an item, too long for 100 items in one run, so STEPS is lower; the
    word still reaches the length cap after about 200 steps.
    """

    name = "reproduce"
    STEPS = {"full": 300, "tiny": 20}
    MAX_LENGTH = 200
    ITEMS = 400
    CYCLE = 1

    def make_items(self, fb, rng, size):
        beta = fb.words.parse_word(fb.scenarios.BRUNNIAN_TEXT)
        steps = self.STEPS[size]
        return [Item((beta, rng.getrandbits(32), steps), True) for _ in range(self.ITEMS)]

    def run(self, fb, item):
        beta, seed, steps = item.inputs
        word, _ = fb.moves.scramble(beta, steps, fb.moves.MoveSet.FB, seed, self.MAX_LENGTH)
        return fb.bracket.verify_reproduction(beta, word, fb.parity.GaussianScheme()).success

    def check(self, item, verdict):
        return verdict is item.expected


class Decide:
    """Bracket equality and F-equality of long words given as text.

    Lengths follow PATTERN: 12 of every 20 items are short, 7 medium, 1 long,
    so that the median and the 90th percentile each fall inside one length
    class rather than on the edge between two.  A cyclic 8-strand word has
    odd length (an 8-cycle is an odd permutation), so a class of nominal
    length L holds words of length L - 1.  Each word is paired with a
    30-step `F` scramble of itself; a quarter of the pool scrambles a copy
    with one classical letter virtualized instead, which keeps the
    permutation and flips the classical count mod 2, an `FB` invariant.
    """

    name = "decide"
    LENGTHS = {"full": (400, 800, 1600), "tiny": (40, 80, 160)}
    BUCKETS = ("L400", "L800", "L1600")
    POOL = (24, 8, 4)
    PATTERN = (0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 2)
    CYCLE = len(PATTERN)
    SCRAMBLE_STEPS = 30
    ITEMS = 240

    def make_items(self, fb, rng, size):
        W, P = fb.words, fb.parity
        cycle = W.Permutation(_CYCLE)
        partition = P.StrandPartition.from_first(_STRANDS, range(1, _STRANDS // 2 + 1))
        pools = []
        for length, pool_size in zip(self.LENGTHS[size], self.POOL):
            pool = []
            for j in range(pool_size):
                word = _cyclic_word(W, rng, _STRANDS, length - 1)
                positive = j % 4 != 3
                source = word if positive else _virtualize_one(W, rng, word)
                partner, _ = fb.moves.scramble(source, self.SCRAMBLE_STEPS, fb.moves.MoveSet.F,
                                               rng.getrandbits(32), len(source) + 2 * self.SCRAMBLE_STEPS)
                completion = W.permutation(word).inverse().compose(cycle)
                schemes = (P.GaussianScheme(), P.QGaussianScheme(completion),
                           P.ComponentScheme(partition))
                pool.append((W.serialize(word), W.serialize(partner), schemes, positive))
            pools.append(pool)
        items = []
        used = [0] * len(pools)
        for k in range(self.ITEMS):
            b = self.PATTERN[k % len(self.PATTERN)]
            text1, text2, schemes, positive = pools[b][used[b] % len(pools[b])]
            used[b] += 1
            items.append(Item((text1, text2, schemes[k % 3]), positive, self.BUCKETS[b]))
        return items

    def run(self, fb, item):
        text1, text2, scheme = item.inputs
        w1, w2 = fb.words.parse_word(text1), fb.words.parse_word(text2)
        return fb.bracket.brackets_equal(w1, w2, scheme), fb.normalform.f_equal(w1, w2)

    def check(self, item, verdict):
        brackets_agree, f_equal = verdict
        if item.expected:
            return brackets_agree is True and f_equal is True
        return f_equal is False  # the bracket verdict on a negative is not fixed by construction

    def label(self, item, verdict):
        """How a verdict is reported: negatives by whether the bracket told them apart."""
        if item.expected:
            return "positive"
        return "negative_bracket_" + ("inconclusive" if verdict[0] else "distinguishes")


def _cyclic_word(W, rng, n, length):
    while True:
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
        word = W.BraidWord(n, letters)
        if W.is_cyclic(W.permutation(word)):
            return word


def _virtualize_one(W, rng, word):
    t = rng.choice(word.classical_positions)
    letters = list(word.letters)
    letters[t] = -letters[t]
    return W.BraidWord(word.n, tuple(letters))


class Oracle:
    """Bounded BFS equality on short words, checked by construction.

    The ball around a word depends only on the word's component among the
    words within the bound, so each schedule slot fixes a class (n, bound,
    move set, base word) and the seed picks a random member of it as the
    start, plus the partner.  A run's cost then does not hinge on which
    classes a seed happens to draw.  The classes span 244 to 15,446 nodes:
    8 light slots, 5 of the median class, 4 heavier, 3 of the heaviest, so
    the median and the 90th percentile each sit inside one class.
    Positive partners are scrambles under the same move set with max length
    equal to the bound (answer Equal); negative partners get one extra
    letter first, which changes the endpoint permutation (answer
    NotFoundWithinBound).
    """

    name = "oracle"
    CLASSES = (  # (schedule slots, n, bound, move set, base word)
        (1, 3, 8, "strong", "n=3; z1 z1 t2 z1"),
        (1, 4, 8, "strong", "n=4; z1 z2 t1 t2 z1 t3"),
        (1, 3, 9, "strong", "n=3; z2 z1 z2 t2 z2"),
        (1, 4, 8, "F", "n=4; z2 t3 t2 t3 z2 z1"),
        (1, 3, 8, "F", "n=3; t2 t1 z1 z2 z1 z1"),
        (1, 3, 8, "FB", "n=3; t1 z2 t1 z2 z1 z1"),
        (1, 4, 9, "strong", "n=4; t1 z3 z2 z2 z3"),
        (1, 4, 8, "FB", "n=4; z3 z2 t3 z2 t2 t2"),
        (5, 3, 8, "F", "n=3; z1 z1 t2 t1"),
        (1, 4, 9, "strong", "n=4; z1 z1 t3 t3 t2"),
        (1, 3, 9, "F", "n=3; z2 z2 z1 t2 z1"),
        (1, 3, 9, "FB", "n=3; t1 t1 t1 z1 t2"),
        (1, 4, 8, "F", "n=4; t3 z2 t2 t3 t2 t1"),
        (3, 4, 9, "strong", "n=4; z1 t2 t2 z3 t3"),
    )
    CYCLE = sum(c[0] for c in CLASSES)
    TINY_SLOTS = 3
    SCRAMBLE_STEPS = 12
    ITEMS = 400

    def make_items(self, fb, rng, size):
        W, M = fb.words, fb.moves
        slots = [c[1:] for c in self.CLASSES for _ in range(c[0])]
        if size == "tiny":
            slots = slots[:self.TINY_SLOTS]
        items = []
        for k in range(self.ITEMS):
            n, bound, moveset, base_text = slots[k % len(slots)]
            moveset = M.MoveSet(moveset)
            base = W.parse_word(base_text)
            start, _ = M.scramble(base, self.SCRAMBLE_STEPS, moveset, rng.getrandbits(32), len(base))
            negative = rng.random() < 0.25
            source = start
            if negative:
                extra = rng.choice((1, -1)) * rng.randint(1, n - 1)
                source = W.BraidWord(n, start.letters + (extra,))
            partner, _ = M.scramble(source, self.SCRAMBLE_STEPS, moveset, rng.getrandbits(32), bound)
            expected = "NotFoundWithinBound" if negative else "Equal"
            items.append(Item((start, partner, moveset, bound), expected))
        return items

    def run(self, fb, item):
        start, partner, moveset, bound = item.inputs
        return fb.oracle.oracle_equal(start, partner, moveset, bound).value

    def check(self, item, verdict):
        return verdict == item.expected


class Cli:
    """One `python -m freebraid.cli` subprocess per item, over a fixed command mix.

    The only workload that pays interpreter start, package import and
    argument parsing per verdict.  Words are `FB` scrambles of the brunnian
    word.  Where a theorem or the construction fixes the answer (parse
    round trip, permutation, eq-f, distinguish, verify) it is the
    expected output; the rest is the library's answer, computed in set-up.
    """

    name = "cli"
    MIX = ("parse", "perm", "parity", "bracket", "reduce", "canon", "eq-f",
           "distinguish", "verify", "render", "scenario")
    CYCLE = len(MIX)
    WORDS = 8
    SCRAMBLE_STEPS = 40
    MAX_LENGTH = 60
    TIMEOUT_S = 120

    def make_items(self, fb, rng, size):
        W, M, P, N, B = fb.words, fb.moves, fb.parity, fb.normalform, fb.bracket
        beta = W.parse_word(fb.scenarios.BRUNNIAN_TEXT)
        beta_text = W.serialize(beta)
        perm = W.permutation(beta)
        perm_line = " ".join(f"{k}->{perm(k)}" for k in range(1, beta.n + 1))
        gauss = P.GaussianScheme()
        scenario = fb.scenarios.scenario_beta_prime().format_text()
        items = []
        for _ in range(self.WORDS):
            word, _ = M.scramble(beta, self.SCRAMBLE_STEPS, M.MoveSet.FB, rng.getrandbits(32),
                                 self.MAX_LENGTH)
            partner, _ = M.scramble(word, self.SCRAMBLE_STEPS // 2, M.MoveSet.F, rng.getrandbits(32),
                                    self.MAX_LENGTH + 20)
            text, partner_text = W.serialize(word), W.serialize(partner)
            parity = P.gaussian_parity(word)
            parity_lines = [f"pos={t} letter=z{abs(word.letters[t])} parity={parity.parity_of(t).value}"
                            for t in parity.positions]
            codes = [N.canonical_code(N.irreducible_form(B.bracket(w, gauss).word)).format()
                     for w in (word, partner)]
            witness = B.verify_reproduction(beta, word, gauss).witness_positions
            cases = {
                "parse": (["parse", text], text),
                "perm": (["perm", text], perm_line),
                "parity": (["parity", "--parity", "gaussian", text], "\n".join(parity_lines)),
                "bracket": (["bracket", "--parity", "gaussian", text],
                            W.serialize(B.bracket(word, gauss).word)),
                "reduce": (["reduce", text], W.serialize(N.irreducible_form(word))),
                "canon": (["canon", text], N.canonical_code(word).format()),
                "eq-f": (["eq-f", text, partner_text], "equal"),
                "distinguish": (["distinguish", "--parity", "gaussian", text, partner_text],
                                "\n".join(["bracket 1:", codes[0], "bracket 2:", codes[1], "inconclusive"])),
                "verify": (["verify", "--parity", "gaussian", beta_text, text],
                           "reproduced: witness positions " + " ".join(map(str, witness))),
                "render": (["render", text], fb.render.render(word)),
                "scenario": (["scenario", "beta-prime"], scenario),
            }
            for cmd in self.MIX:
                argv, out = cases[cmd]
                items.append(Item(tuple(argv), (0, out + "\n")))
        return items

    def run(self, fb, item):
        env = dict(os.environ, PYTHONPATH=os.path.join(fb.root, "src"))
        proc = subprocess.run([sys.executable, "-m", "freebraid.cli", *item.inputs],
                              capture_output=True, text=True, env=env, cwd=fb.root,
                              timeout=self.TIMEOUT_S)
        return proc.returncode, proc.stdout

    def check(self, item, verdict):
        return verdict == item.expected

    def replay(self, fb, item):
        """Run the item's command in-process, for the traced run's per-layer spans."""
        with contextlib.redirect_stdout(io.StringIO()):
            fb.cli.main(list(item.inputs))


WORKLOADS = {w.name: w for w in (Reproduce(), Decide(), Oracle(), Cli())}
