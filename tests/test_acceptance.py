"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import itertools
import random
import time

from freebraid.words import BraidWord, closure_components, is_cyclic, parse_word, permutation
from freebraid.moves import MoveSet, scramble
from freebraid.normalform import canonical_code, f_equal, find_bigons
from freebraid.parity import (
    ComponentScheme,
    GaussianScheme,
    Parity,
    QGaussianScheme,
    gaussian_parity,
)
from freebraid.bracket import bracket, brackets_equal, verify_reproduction
from freebraid.oracle import OracleVerdict, oracle_equal
from freebraid.scenarios import BETA_PRIME_ADDED, beta_prime_word, brunnian_word

from helpers import (
    applicable_count,
    applicable_move,
    check_parity_axioms,
    completion_for,
    delete_bigon,
    oracle_disagreements,
    random_cyclic_word,
    random_partition,
    random_scheme,
    random_word,
)


def _verdict(name, ok, extra=""):
    tail = f" ({extra})" if extra else ""
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)
    assert ok, f"criterion {name} failed"


def test_c1_brunnian_golden():
    start = time.perf_counter()
    word = brunnian_word()
    ok = (word.n == 9 and len(word) == 38 and word.classical_count == 8)
    ok = ok and is_cyclic(permutation(word))
    assignment = gaussian_parity(word)
    ok = ok and sum(p is Parity.ODD for p in assignment.parities.values()) == 8 and assignment.all_odd()
    ok = ok and find_bigons(word) == ()
    ok = ok and bracket(word, GaussianScheme()).word == word
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _verdict("1 (brunnian golden)", ok, f"{elapsed:.3f}s")


def test_c2_reproduction_at_desk_scale():
    word = brunnian_word()
    scheme = GaussianScheme()
    start = time.perf_counter()
    failures = []
    for seed in range(50):
        scrambled, _ = scramble(word, 1000, MoveSet.FB, seed=seed, max_length=200)
        report = verify_reproduction(word, scrambled, scheme)
        if not report.success:
            failures.append(seed)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _verdict("2 (reproduction, 50 seeds x 1000 moves)", ok,
             f"{elapsed:.1f}s, failures={failures}")


def test_c3_bracket_well_definedness_fuzz():
    rng = random.Random(1234)
    start = time.perf_counter()
    failures = 0
    for trial in range(1000):
        n = rng.randint(2, 6)
        kind = ("gaussian", "component", "qgaussian")[trial % 3]
        if kind == "gaussian":
            word = random_cyclic_word(rng, n, rng.randint(0, 20))
            scheme = GaussianScheme()
        elif kind == "component":
            word = random_word(rng, n, rng.randint(0, 20))
            scheme = ComponentScheme(random_partition(rng, n))
        else:
            word = random_word(rng, n, rng.randint(0, 20))
            scheme = QGaussianScheme(completion_for(rng, word))
        scrambled, _ = scramble(word, 200, MoveSet.FB, seed=rng.randint(0, 10**9),
                                max_length=len(word) + 40)
        if not brackets_equal(word, scrambled, scheme):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 300.0
    _verdict("3 (bracket well-definedness fuzz, 1000 words)", ok,
             f"{elapsed:.1f}s, failures={failures}")


def test_c4_parity_axiom_conformance():
    rng = random.Random(77)
    start = time.perf_counter()
    violations = 0
    slide_count = 0
    for kind in ("gaussian", "component", "qgaussian"):
        done = 0
        while done < 10_000:
            n = rng.randint(2, 6)
            if kind == "gaussian":
                word = random_cyclic_word(rng, n, rng.randint(0, 12))
                scheme = GaussianScheme()
            elif kind == "component":
                word = random_word(rng, n, rng.randint(0, 12))
                scheme = ComponentScheme(random_partition(rng, n))
            else:
                word = random_word(rng, n, rng.randint(0, 12))
                scheme = QGaussianScheme(completion_for(rng, word))
            total = applicable_count(word, MoveSet.FB)
            if not total:
                continue
            move = applicable_move(word, MoveSet.FB, rng.randrange(total))
            if move.relation.value == "ClassicalR3":
                slide_count += 1
            report = check_parity_axioms(scheme, word, move)
            if not report.passed:
                violations += 1
            done += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0
    _verdict("4 (parity axioms, 10000 pairs/scheme)", ok,
             f"{elapsed:.1f}s, triple slides seen={slide_count}, violations={violations}")


def _all_maximal_reducts(word, memo):
    key = word.letters
    if key in memo:
        return memo[key]
    bigons = find_bigons(word)
    if not bigons:
        out = frozenset([canonical_code(word).format()])
    else:
        out = frozenset().union(
            *(_all_maximal_reducts(delete_bigon(word, b), memo) for b in bigons))
    memo[key] = out
    return out


def test_c5_confluence_of_bigon_reduction():
    rng = random.Random(55)
    start = time.perf_counter()
    instances = 0
    counterexamples = 0
    for n in (2, 3, 4):
        skeletons = []
        for length in range(7):
            skeletons += list(itertools.product(range(1, n), repeat=length))
        for skeleton in skeletons:
            for _ in range(9):
                letters = list(skeleton)
                for _ in range(rng.randint(0, 6)):
                    pos = rng.randint(0, len(letters))
                    letters.insert(pos, -rng.randint(1, n - 1))
                word = BraidWord(n, tuple(letters))
                instances += 1
                if len(_all_maximal_reducts(word, {})) != 1:
                    counterexamples += 1
    elapsed = time.perf_counter() - start
    ok = counterexamples == 0 and instances >= 10_000
    _verdict("5 (bigon-reduction confluence)", ok,
             f"{elapsed:.1f}s, instances={instances}, counterexamples={counterexamples}")


def test_c6_oracle_agreement():
    start = time.perf_counter()
    count, disagreements = oracle_disagreements(3, 5, 9)
    assert count == 1365
    elapsed = time.perf_counter() - start
    ok = disagreements == 0
    _verdict("6 (oracle agreement, n=3 len<=5)", ok,
             f"{elapsed:.1f}s, disagreements={disagreements}")
    assert elapsed < 600.0


def test_c7_f_vs_fb_separation():
    w1 = parse_word("n=3; z1 z2 z1")
    w2 = parse_word("n=3; z2 z1 z2")
    not_f_equal = not f_equal(w1, w2)
    fb_verdict = oracle_equal(w1, w2, MoveSet.FB, 5)
    ok = not_f_equal and fb_verdict is OracleVerdict.EQUAL
    _verdict("7 (triple slide separates the two quotients)", ok)


def test_c8_beta_prime_experiment():
    word = beta_prime_word()
    assignment = gaussian_parity(word)
    parities = [assignment.parity_of(t) for t in BETA_PRIME_ADDED]
    components, _ = closure_components(bracket(word, GaussianScheme()).word)
    ok = all(p is Parity.EVEN for p in parities) and components == 3
    _verdict("8 (transformed-braid experiment, interpretation-flagged)", ok,
             f"added parities={[p.value for p in parities]}, bracket components={components}")
