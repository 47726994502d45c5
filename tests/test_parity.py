import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebraid.words import (
    BraidWord,
    Permutation,
    PreconditionError,
    is_cyclic,
    parse_word,
    permutation,
)
from freebraid.moves import Direction, MoveInstance, MoveSet, Relation, relations_in
from freebraid.parity import (
    ChordDiagram,
    ComponentScheme,
    GaussianScheme,
    Parity,
    QGaussianScheme,
    StrandPartition,
    chord_diagram,
    component_parity,
    gaussian_parity,
    linked,
    parse_scheme,
    q_gaussian_parity,
)
from freebraid.scenarios import BRUNNIAN_TEXT

from helpers import (
    applicable_moves,
    check_parity_axioms,
    completion_for,
    permutation_braid,
    random_cycle,
    random_cyclic_word,
    random_partition,
    random_scheme,
    random_word,
    reference_match_instances,
    refusal_and_peak,
    relation_rich_word,
    triple_slide_rich_word,
)
from strategies import braid_words, cyclic_braid_words, permutations


def test_permutation_braid_identity_is_empty():
    assert permutation_braid(Permutation.identity(4)) == BraidWord(4)


def test_permutation_braid_transposition():
    assert permutation_braid(Permutation((2, 1))) == BraidWord(2, (-1,))


def test_permutation_braid_three_cycle():
    q = Permutation((2, 3, 1))
    w = permutation_braid(q)
    assert w == BraidWord(3, (-2, -1))
    assert permutation(w) == q


@given(permutations(max_n=7))
def test_permutation_braid_realizes_q_with_virtual_letters_only(q):
    w = permutation_braid(q)
    assert permutation(w) == q
    assert all(x < 0 for x in w.letters)


def test_chord_diagram_single_crossing():
    d = chord_diagram(BraidWord(2, (1,)))
    assert d.gauss_sequence == (0, 0)
    assert d.chord_of == {0: (0, 1)}


def test_chord_diagram_two_strand_interleaving():
    d = chord_diagram(parse_word("n=2; z1 t1 z1"))
    assert d.gauss_sequence == (0, 2, 0, 2)


def test_chord_diagram_brunnian_shape():
    d = chord_diagram(parse_word(BRUNNIAN_TEXT))
    assert len(d.chord_of) == 8
    assert len(d.gauss_sequence) == 16
    assert d.gauss_sequence == (3, 7, 13, 17, 24, 27, 31, 36, 24, 36, 13, 27, 3, 17, 31, 7)


def test_chord_diagram_needs_cyclic_closure():
    with pytest.raises(PreconditionError, match=(
            "closure has 3 components; the chord diagram requires a cyclic permutation")):
        chord_diagram(parse_word("n=3; z1 z1"))


def test_linked_examples():
    d = ChordDiagram((0, 1, 0, 1))
    assert linked(d, 0, 1) and linked(d, 1, 0)
    d2 = ChordDiagram((0, 0, 1, 1))
    assert not linked(d2, 0, 1) and not linked(d2, 1, 0)


def test_linked_unknown_identity():
    with pytest.raises(PreconditionError):
        linked(ChordDiagram((0, 0)), 0, 5)


@given(cyclic_braid_words(min_n=2, max_n=5, max_len=10))
def test_linked_is_symmetric(word):
    d = chord_diagram(word)
    assert len(d.gauss_sequence) == 2 * word.classical_count
    ids = list(d.chord_of)
    for i in range(len(ids)):
        for k in range(i + 1, len(ids)):
            assert linked(d, ids[i], ids[k]) == linked(d, ids[k], ids[i])


def test_gaussian_parity_examples():
    assert gaussian_parity(BraidWord(2, (1,))).parity_of(0) is Parity.EVEN
    odd_pair = gaussian_parity(parse_word("n=2; z1 t1 z1"))
    assert odd_pair.parity_of(0) is Parity.ODD
    assert odd_pair.parity_of(2) is Parity.ODD


def test_gaussian_parity_brunnian_all_odd():
    assignment = gaussian_parity(parse_word(BRUNNIAN_TEXT))
    assert assignment.all_odd()
    assert sum(p is Parity.ODD for p in assignment.parities.values()) == 8


def test_gaussian_parity_diagnostic_message():
    with pytest.raises(PreconditionError, match=(
            "closure has 3 components; Gaussian parity requires a cyclic permutation")):
        gaussian_parity(parse_word("n=3; z1 z1"))


def _linking_counts(seq):
    ends = {}
    for k, c in enumerate(seq):
        ends.setdefault(c, []).append(k)
    out = {}
    for c, (a1, a2) in ends.items():
        cnt = 0
        for d, (b1, b2) in ends.items():
            if d != c and (a1 < b1 < a2) != (a1 < b2 < a2):
                cnt += 1
        out[c] = cnt % 2
    return out


def _reference_parities(word, q=None):
    """Pairwise linking counts on the chord diagram of word, extended by q's virtual braid."""
    extended = word if q is None else word * permutation_braid(q)
    counts = _linking_counts(chord_diagram(extended).gauss_sequence)
    return {c: Parity.ODD if k else Parity.EVEN for c, k in counts.items()}


@settings(max_examples=1000, deadline=None)
@given(st.integers(1, 8), st.integers(0, 40), st.randoms(use_true_random=False))
def test_endpoint_gap_parities_match_pairwise_linking_reference(n, length, rng):
    word = random_word(rng, n, length)
    q = completion_for(rng, word)
    expected = _reference_parities(word, q)
    for got in (q_gaussian_parity(word, q), gaussian_parity(word * permutation_braid(q))):
        assert got.parities == expected
        assert list(got.parities) == list(expected)
    if is_cyclic(permutation(word)):
        expected = _reference_parities(word)
        got = gaussian_parity(word)
        assert got.parities == expected
        assert list(got.parities) == list(expected)


def test_gaussian_parity_is_rotation_invariant():
    rng = random.Random(3)
    for _ in range(25):
        word = random_cyclic_word(rng, rng.randint(2, 5), rng.randint(1, 10))
        d = chord_diagram(word)
        base = _linking_counts(d.gauss_sequence)
        for r in range(1, len(d.gauss_sequence)):
            rotated = d.gauss_sequence[r:] + d.gauss_sequence[:r]
            assert _linking_counts(rotated) == base


def test_q_gaussian_empty_word():
    q = Permutation((2, 3, 1))
    assert q_gaussian_parity(BraidWord(3), q).positions == ()


def test_q_gaussian_two_crossings_odd():
    assignment = q_gaussian_parity(BraidWord(2, (1, 1)), Permutation((2, 1)))
    assert assignment.parity_of(0) is Parity.ODD
    assert assignment.parity_of(1) is Parity.ODD


def test_q_gaussian_identity_completion_requires_cyclic_composite():
    with pytest.raises(PreconditionError, match=(
            "completed permutation has 2 cycles; the completion must make it cyclic")):
        q_gaussian_parity(BraidWord(2, (1, 1)), Permutation.identity(2))


def test_q_gaussian_with_identity_completion_matches_gaussian():
    rng = random.Random(11)
    for _ in range(20):
        word = random_cyclic_word(rng, rng.randint(2, 5), rng.randint(1, 8))
        direct = gaussian_parity(word)
        completed = q_gaussian_parity(word, Permutation.identity(word.n))
        assert direct.parities == completed.parities


def test_component_parity_examples():
    part = StrandPartition.from_first(4, {1, 2})
    assert component_parity(BraidWord(4, (1,)), part).parity_of(0) is Parity.EVEN
    assert component_parity(BraidWord(4, (2,)), part).parity_of(0) is Parity.ODD
    assert component_parity(parse_word("n=4; t1 z1"), part).parity_of(1) is Parity.EVEN


def test_completion_and_partition_must_cover_the_word_strands():
    with pytest.raises(PreconditionError, match="completion acts on 3 strands, word has 2"):
        q_gaussian_parity(BraidWord(2, (1,)), Permutation((2, 3, 1)))
    with pytest.raises(PreconditionError, match="partition covers 3 strands, word has 2"):
        component_parity(BraidWord(2, (1,)), StrandPartition.from_first(3, {1}))


def test_chord_diagram_refuses_a_crossing_not_seen_exactly_twice():
    for gauss, c, times in (((0, 1, 0), 1, 1), ((0, 0, 0, 1, 1), 0, 3)):
        with pytest.raises(ValueError, match=f"^crossing {c} appears {times} times in the gauss sequence$"):
            ChordDiagram(gauss)


def test_linked_refuses_one_crossing_twice():
    with pytest.raises(ValueError, match="^linkedness needs two distinct crossings$"):
        linked(ChordDiagram((0, 1, 0, 1)), 1, 1)


def test_parity_of_refuses_a_position_without_parity():
    assignment = gaussian_parity(parse_word("n=2; z1 t1 z1"))
    for position in (1, 3, -1):  # a virtual letter, past the end, and not a position
        with pytest.raises(PreconditionError, match=f"^position {position} carries no parity$"):
            assignment.parity_of(position)


def test_partition_refuses_parts_that_do_not_cover_1_to_n():
    for first, second in (({1}, {3}), ({2}, set()), (set(), {0, 1})):
        with pytest.raises(ValueError, match=r"^partition parts must cover 1\.\.n exactly$"):
            StrandPartition(frozenset(first), frozenset(second))


def test_partition_from_first_refuses_more_strands_than_the_parser():
    """Refused before the set of 1..n is built, whatever the part; no strands at all stays the empty split,
    and a negative count is refused rather than read as none."""
    assert StrandPartition.from_first(0, ()).n == 0
    assert refusal_and_peak(lambda: StrandPartition.from_first(-1, ()))[0] == "strand count must be >= 0, got -1"
    error, peak = refusal_and_peak(lambda: StrandPartition.from_first(10**6, [1]))
    assert error == f"strand count must be at most 10000, got {10**6}" and peak < 4096, (error, peak)


def test_parse_scheme_refuses_a_partition_of_more_strands_than_the_parser():
    error, peak = refusal_and_peak(lambda: parse_scheme("component:N1=1", 10**6))
    expected = "bad partition in 'component:N1=1': strand count must be at most 10000, got 1000000"
    assert error == expected and peak < 4096, (error, peak)


def test_partition_validation():
    with pytest.raises(ValueError):
        StrandPartition(frozenset({1}), frozenset({1, 2}))
    with pytest.raises(ValueError):
        StrandPartition.from_first(3, {4})
    part = StrandPartition.from_first(3, set())
    assert part.second == frozenset({1, 2, 3})
    with pytest.raises(ValueError, match="strand 2 given twice"):
        StrandPartition.from_first(3, [2, 1, 2])
    assert StrandPartition.from_first(3, range(1, 3)).second == frozenset({3})


def test_parse_scheme_designations():
    assert parse_scheme("gaussian", 5) == GaussianScheme()
    comp = parse_scheme("component:N1=1,3", 4)
    assert comp == ComponentScheme(StrandPartition.from_first(4, {1, 3}))
    assert comp.assignment(BraidWord(4)).scheme == "component:N1=1,3"
    qg = parse_scheme("qgaussian:Q=2,1", 2)
    assert qg == QGaussianScheme(Permutation((2, 1)))
    assert qg.assignment(BraidWord(2)).scheme == "qgaussian:Q=2,1"
    with pytest.raises(PreconditionError):
        parse_scheme("nonsense", 3)
    with pytest.raises(PreconditionError):
        parse_scheme("qgaussian:Q=2,1", 3)
    with pytest.raises(PreconditionError, match="bad partition list"):
        parse_scheme("component:N1=\u0661", 2)
    with pytest.raises(PreconditionError, match="bad permutation image"):
        parse_scheme("qgaussian:Q=\u0662,1", 2)
    with pytest.raises(PreconditionError, match="not a subset of 1..4"):
        parse_scheme("component:N1=9", 4)
    with pytest.raises(PreconditionError, match="not a bijection"):
        parse_scheme("qgaussian:Q=1,1", 2)
    assert parse_scheme("component:N1=", 3) == ComponentScheme(StrandPartition.from_first(3, ()))
    with pytest.raises(PreconditionError, match="bad partition in 'component:N1=1,1': strand 1 given twice"):
        parse_scheme("component:N1=1,1", 3)
    for body in ("1,,2", ",", ",1", "1,"):
        with pytest.raises(PreconditionError, match="bad partition list"):
            parse_scheme(f"component:N1={body}", 3)
    for body in (",,2,,1", "2,1,", ","):
        with pytest.raises(PreconditionError, match="bad permutation image"):
            parse_scheme(f"qgaussian:Q={body}", 2)
    zeros = "0" * 4400  # int() converts at most 4300 digits
    assert parse_scheme(f"component:N1={zeros}2", 3) == ComponentScheme(StrandPartition.from_first(3, {2}))
    assert parse_scheme(f"qgaussian:Q={zeros}2,1", 2) == qg
    with pytest.raises(PreconditionError, match="bad partition list"):
        parse_scheme(f"component:N1=1{zeros}", 2)
    with pytest.raises(PreconditionError, match="bad permutation image"):
        parse_scheme(f"qgaussian:Q=1{zeros},1", 2)
    for padded in (" gaussian", "gaussian\n", " component:N1=1 ", "\tqgaussian:Q=2,1"):
        with pytest.raises(PreconditionError, match=f"^unknown parity scheme {re.escape(repr(padded))}$"):
            parse_scheme(padded, 2)
    with pytest.raises(PreconditionError, match="bad partition list in 'component:N1=1 '"):
        parse_scheme("component:N1=1 ", 2)
    with pytest.raises(PreconditionError, match="bad permutation image in " + re.escape(repr("qgaussian:Q=2,1\n"))):
        parse_scheme("qgaussian:Q=2,1\n", 2)


def test_axioms_on_virtualization_instance():
    word = parse_word("n=2; z1 t1 z1")
    move = next(m for m in applicable_moves(word, MoveSet.F)
                if m.relation.value == "Virtualization")
    report = check_parity_axioms(GaussianScheme(), word, move)
    assert report.passed, report


def test_axioms_require_applicable_scheme():
    word = parse_word("n=3; z1 z1")
    move = applicable_moves(word, MoveSet.F)[0]
    with pytest.raises(PreconditionError):
        check_parity_axioms(GaussianScheme(), word, move)


@settings(max_examples=50, deadline=None)
@given(braid_words(min_n=2, max_n=4, max_len=8))
def test_component_scheme_satisfies_axioms_on_all_moves(word):
    scheme = ComponentScheme(StrandPartition.from_first(word.n, set(range(1, word.n, 2))))
    for move in applicable_moves(word, MoveSet.FB):
        report = check_parity_axioms(scheme, word, move)
        assert report.passed, (word, move, report)


def test_all_schemes_satisfy_axioms_on_random_instances():
    rng = random.Random(2024)
    checked = 0
    while checked < 400:
        n = rng.randint(2, 5)
        word = random_word(rng, n, rng.randint(0, 12))
        scheme = random_scheme(rng, word)
        moves = applicable_moves(word, MoveSet.FB)
        if not moves:
            continue
        move = moves[rng.randrange(len(moves))]
        report = check_parity_axioms(scheme, word, move)
        assert report.passed, (word, scheme, move, report)
        checked += 1


def test_triple_slide_odd_count_is_even_under_every_scheme():
    rng = random.Random(505)
    seen = 0
    while seen < 60:
        n = rng.randint(3, 5)
        word = random_word(rng, n, rng.randint(3, 12))
        slides = [m for m in applicable_moves(word, MoveSet.FB)
                  if m.relation.value == "ClassicalR3"]
        if not slides:
            continue
        scheme = random_scheme(rng, word)
        assignment = scheme.assignment(word)
        for m in slides:
            odd = sum(1 for k in range(3) if assignment.is_odd(m.position + k))
            assert odd % 2 == 0
            assert check_parity_axioms(scheme, word, m).passed
            seen += 1


def test_axioms_on_planted_triple_slides():
    """Axiom 5 on at least 1000 classical triple slides per scheme, both directions.

    Uniform draws from `applicable_moves` rarely give a triple slide, so the
    words get planted windows; each Gaussian word is closed to one circle by
    a virtual permutation braid.
    """
    rng = random.Random(5005)
    for kind in ("gaussian", "component", "qgaussian"):
        directions = Counter()
        while sum(directions.values()) < 1000:
            n = rng.randint(3, 6)
            word = triple_slide_rich_word(rng, n, rng.randint(0, 10), rng.randint(1, 3))
            if kind == "gaussian":
                word = word * permutation_braid(completion_for(rng, word))
                scheme = GaussianScheme()
            elif kind == "component":
                scheme = ComponentScheme(random_partition(rng, n))
            else:
                scheme = QGaussianScheme(completion_for(rng, word))
            for move in applicable_moves(word, MoveSet.FB):
                if move.relation is Relation.CLASSICAL_R3:
                    report = check_parity_axioms(scheme, word, move)
                    assert report.passed, (kind, word, move, report)
                    directions[move.direction] += 1
        assert len(directions) == 2, (kind, directions)


def test_axioms_on_planted_windows_of_the_other_relations():
    """The axioms on at least 1000 instances per scheme of each relation but
    the classical triple slide, in both directions (an R2 pair is deleted or
    inserted).

    As for the triple slides, the words get planted windows, and each
    Gaussian word is closed to one circle by a virtual permutation braid.
    An R2 pair fits anywhere, so each word adds one insertion of each kind
    at a random offset.  Once a (relation, direction) has 1000 checks, further
    instances of it are skipped.
    """
    rng = random.Random(6006)
    rels = relations_in(MoveSet.FB)
    wanted = [(rel, d) for rel in Relation if rel is not Relation.CLASSICAL_R3 for d in Direction]
    for kind in ("gaussian", "component", "qgaussian"):
        counts, words = Counter(), 0
        while min(counts[key] for key in wanted) < 1000:
            words += 1
            assert words <= 6000, (kind, counts)
            n = rng.randint(4, 5)
            word = relation_rich_word(rng, n, rng.randint(0, 2), rng.randint(4, 8))
            if kind == "gaussian":
                word = word * permutation_braid(completion_for(rng, word))
                scheme = GaussianScheme()
            elif kind == "component":
                scheme = ComponentScheme(random_partition(rng, n))
            else:
                scheme = QGaussianScheme(completion_for(rng, word))
            insertions = [MoveInstance(rel, rng.randint(1, n - 1), rng.randint(0, len(word)),
                                       Direction.RIGHT_TO_LEFT)
                          for rel in (Relation.VIRTUAL_R2, Relation.CLASSICAL_R2)]
            before = scheme.assignment(word)
            for move in reference_match_instances(word.letters, rels) + insertions:
                key = (move.relation, move.direction)
                if move.relation is Relation.CLASSICAL_R3 or counts[key] >= 1000:
                    continue
                report = check_parity_axioms(scheme, word, move, before)
                assert report.passed, (kind, word, move, report)
                counts[key] += 1
