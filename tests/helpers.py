"""Shared generators for randomized tests, and the reference forms that the package's fast paths are checked against.

The references that need strands read them from `reference_strand_trace` and their endpoints from
`reference_permutation`, which walk the word themselves, so no reference shares a walk with the code under test.
"""

from __future__ import annotations

import heapq
import itertools
import random
import re
from collections import deque
from dataclasses import dataclass

from freebraid.words import (
    BraidWord,
    ParseError,
    Permutation,
    PreconditionError,
    _parse_word_json,
    is_cyclic,
    permutation,
    virtual,
)
from freebraid.moves import (
    Direction,
    MoveInstance,
    MoveSet,
    Relation,
    apply_move,
    relation_sides,
    relations_in,
)
from freebraid.normalform import Bigon, CanonicalCode, canonical_code, irreducible_code, irreducible_form_tracked
from freebraid.parity import ComponentScheme, GaussianScheme, Parity, QGaussianScheme, StrandPartition
from freebraid.oracle import EquivalenceBall, OracleVerdict, bfs_ball
from freebraid.bracket import ReproductionReport, bracket, is_odd_irreducible


def permutation_braid(q: Permutation) -> BraidWord:
    """A virtual-only word realizing q, built by selection sort.

    The strand destined for the leftmost unfinished slot is walked there by
    adjacent virtual transpositions, which makes the representative
    deterministic.  Concatenating it to a word gives the completed closure
    that `q_gaussian_parity` walks directly; the tests use it as the
    reference.
    """
    arrangement = list(range(1, q.n + 1))
    inv = q.inverse()
    letters: list[int] = []
    for slot in range(1, q.n + 1):
        target = inv(slot)
        c = arrangement.index(target) + 1
        for pos in range(c - 1, slot - 1, -1):
            letters.append(virtual(pos))
            arrangement[pos - 1], arrangement[pos] = arrangement[pos], arrangement[pos - 1]
    return BraidWord(q.n, tuple(letters))


def reference_final_arrangement(word: BraidWord) -> tuple[int, ...]:
    """Strand identity at each bottom position after reading the whole word."""
    pos = list(range(1, word.n + 1))
    for x in word.letters:
        i = abs(x)
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    return tuple(pos)


def reference_permutation(word: BraidWord) -> Permutation:
    """`permutation` from the final arrangement, in a walk of its own.

    With `reference_strand_trace`, the reference for the walks in `words`.
    """
    arr = reference_final_arrangement(word)
    image = [0] * word.n
    for p, strand in enumerate(arr, start=1):
        image[strand - 1] = p
    return Permutation(tuple(image))


def reference_strand_trace(word: BraidWord) -> tuple[tuple[int, int], ...]:
    """For each letter, the sorted pair of strand identities meeting at it, in a walk of its own."""
    pos = list(range(1, word.n + 1))
    out = []
    for x in word.letters:
        i = abs(x)
        a, b = pos[i - 1], pos[i]
        out.append((a, b) if a < b else (b, a))
        pos[i - 1], pos[i] = b, a
    return tuple(out)


def reference_crossings_by_strand(word: BraidWord) -> list[list[int]]:
    """`crossings_by_strand`'s lists, each strand's classical letters in order (strand 0 empty), in a
    second pass over `reference_strand_trace`: the two-pass form that the fused pass replaced."""
    trace = reference_strand_trace(word)
    seqs: list[list[int]] = [[] for _ in range(word.n + 1)]
    for t, x in enumerate(word.letters):
        if x > 0:
            for s in trace[t]:
                seqs[s].append(t)
    return seqs


def reference_find_bigons(word: BraidWord) -> tuple[Bigon, ...]:
    """`find_bigons` by scanning every strand's classical sequence.

    The reference for `normalform.find_bigons`.
    """
    pair_of, seqs = reference_strand_trace(word), reference_crossings_by_strand(word)
    index_on: list[dict[int, int]] = [{t: k for k, t in enumerate(seq)} for seq in seqs]
    found = set()
    for s in range(1, word.n + 1):
        seq = seqs[s]
        for k in range(len(seq) - 1):
            p, q = seq[k], seq[k + 1]
            if pair_of[p] != pair_of[q]:
                continue
            a, b = pair_of[p]
            other = b if s == a else a
            if index_on[other][q] == index_on[other][p] + 1:
                found.add((p, q))
    return tuple(Bigon((p, q), frozenset(pair_of[p])) for p, q in sorted(found))


def delete_bigon(word: BraidWord, bigon: Bigon) -> BraidWord:
    """word without the bigon's two letters."""
    p, q = bigon.positions
    return BraidWord(word.n, word.letters[:p] + word.letters[p + 1:q] + word.letters[q + 1:])


def reference_irreducible_form_tracked(word: BraidWord) -> tuple[BraidWord, tuple[int, ...]]:
    """`irreducible_form_tracked` by rescanning the whole word after every deletion.

    The reference for the heap-and-splice reduction in `normalform`.
    """
    current = word
    kept = list(range(len(word.letters)))
    while True:
        bigons = reference_find_bigons(current)
        if not bigons:
            return current, tuple(kept)
        p, q = bigons[0].positions
        current = delete_bigon(current, bigons[0])
        del kept[q]
        del kept[p]


def reference_canonical_code(word: BraidWord) -> CanonicalCode:
    """`canonical_code` from the reference walk: crossings labelled by first encounter."""
    seqs = reference_crossings_by_strand(word)
    label: dict[int, int] = {}
    for seq in seqs[1:]:
        for t in seq:
            label.setdefault(t, len(label) + 1)
    return CanonicalCode(word.n, reference_permutation(word).image, len(label),
                         tuple(tuple(label[t] for t in seq) for seq in seqs[1:]))


def reference_verify_reproduction(beta: BraidWord, beta_prime: BraidWord, scheme) -> ReproductionReport:
    """`verify_reproduction` as it was before it read both codes off one reduction per word.

    It builds the candidate's reduced bracket word, walks it again for its code, and walks beta for its
    permutation and its code.
    """
    if beta.n != beta_prime.n:
        raise PreconditionError(f"strand counts differ: {beta.n} vs {beta_prime.n}")
    if not is_odd_irreducible(beta, scheme):
        raise PreconditionError("the target word is not odd and irreducible under the scheme")
    if permutation(beta_prime) != permutation(beta):
        return ReproductionReport(
            success=False, witness_positions=None, reduced_code=None,
            reason="permutations differ; the words are not equivalent under any move set")
    br = bracket(beta_prime, scheme)
    reduced, survivors = irreducible_form_tracked(br.word)
    code = canonical_code(reduced)
    if code == canonical_code(beta):
        witness = tuple(br.kept_positions[k] for k in survivors)
        return ReproductionReport(True, witness, code)
    return ReproductionReport(
        success=False, witness_positions=None, reduced_code=code,
        reason="brackets differ; the words are certified non-equivalent")


def reference_trivial_components(word: BraidWord) -> tuple[tuple[int, ...], ...]:
    """`trivial_components` of the closure's cycles: those that no classical letter's strand pair meets."""
    trace = reference_strand_trace(word)
    crossed = {s for t, x in enumerate(word.letters) if x > 0 for s in trace[t]}
    return tuple(c for c in reference_permutation(word).cycles() if crossed.isdisjoint(c))


def reference_heap_reduce(word: BraidWord) -> tuple[list[list[int]], tuple[int, ...], bytearray]:
    """`normalform._reduce` as strand links and a heap of bigon starts, as it was before the one-pass stacks.

    Classical letter t with strands a < b (read off `reference_strand_trace`) is node 2t
    on strand a and 2t + 1 on strand b, doubly linked to its neighbours along
    each strand.  A min-heap of first letters deletes the leftmost bigon of
    the current word first; a popped letter is skipped if it is gone or no
    longer starts a bigon.  A deletion splices both strands' links, moves a
    strand's head when its first node goes, and pushes p's predecessors,
    the only letters that can start a new bigon.  Returns each strand's
    surviving classical letters (strand 0 empty), the image, and alive[t].
    """
    trace = reference_strand_trace(word)
    nxt = [-1] * (2 * len(trace))
    prv = nxt.copy()
    head = [-1] * (word.n + 1)
    last = head.copy()
    heap = []
    for t, x in enumerate(word.letters):
        if x < 0:
            continue
        u = 2 * t
        a, b = trace[t]
        la, lb = last[a], last[b]
        if la >= 0:
            nxt[la] = u
            prv[u] = la
        else:
            head[a] = u
        if lb >= 0:
            nxt[lb] = u + 1
            prv[u + 1] = lb
            if la >> 1 == lb >> 1:
                heap.append(lb >> 1)
        else:
            head[b] = u + 1
        last[a] = u
        last[b] = u + 1
    heap.sort()  # found in order of their last letters, so not yet a heap

    def bigon_end(p):
        q = nxt[2 * p] >> 1
        return q if q >= 0 and nxt[2 * p + 1] >> 1 == q else None

    alive = bytearray(b"\x01") * len(word.letters)
    while heap:
        p = heapq.heappop(heap)
        q = bigon_end(p) if alive[p] else None
        if q is None:
            continue
        alive[p] = alive[q] = 0
        for side in (0, 1):
            before, after = prv[2 * p + side], nxt[2 * q + side]
            if after >= 0:
                prv[after] = before
            if before >= 0:
                nxt[before] = after
                heapq.heappush(heap, before >> 1)
            else:
                head[trace[p][side]] = after
    seqs = [[] for _ in head]
    for seq, u in zip(seqs[1:], head[1:]):
        while u >= 0:
            seq.append(u >> 1)
            u = nxt[u]
    return seqs, reference_permutation(word).image, alive


def reference_parities(word: BraidWord, q: Permutation | None = None):
    """The closure through q (the plain closure if None): its cycle count, Gauss sequence and parities.

    Read off the reference walk; a crossing is odd iff its endpoint gap is
    even.  The sequence and parities are None unless the closure is one
    circle.
    """
    walk = reference_permutation(word)
    if q is not None:
        walk = walk.compose(q)
    count = len(walk.cycles())
    if count != 1:
        return count, None, None
    seqs = reference_crossings_by_strand(word)
    gauss: list[int] = []
    strand = 1
    for _ in range(word.n):
        gauss += seqs[strand]
        strand = walk(strand)
    ends: dict[int, list[int]] = {}
    for k, t in enumerate(gauss):
        ends.setdefault(t, []).append(k)
    parities = {t: Parity.ODD if (b - a) % 2 == 0 else Parity.EVEN for t, (a, b) in ends.items()}
    return count, tuple(gauss), parities


# Indices are ASCII digits only: `\d` and `int` would also take other scripts' digits.
_LETTER_RE = re.compile(r"([zt])([0-9]+)\Z")
_HEADER_RE = re.compile(r"\An=([0-9]+)\s*;")


def reference_parse_word(text: str) -> BraidWord:
    """`parse_word` with one regex match per token, as it was before the whole-body match.

    The reference for the text path in `words`; it has no strand cap.
    """
    s = text.strip()
    if s.startswith("{"):
        return _parse_word_json(s)
    n_header = None
    m = _HEADER_RE.match(s)
    if m:
        n_header = int(m.group(1))
        if n_header < 1:
            raise ParseError(f"strand count must be >= 1, got {n_header}")
        s = s[m.end():]
    letters = []
    for tok in s.split():
        lm = _LETTER_RE.match(tok)
        if not lm:
            raise ParseError(f"unknown token {tok!r}")
        idx = int(lm.group(2))
        if idx < 1:
            raise ParseError(f"letter index must be positive in {tok!r}")
        letters.append(idx if lm.group(1) == "z" else -idx)
    if n_header is not None:
        n = n_header
        for x in letters:
            if abs(x) > n - 1:
                raise ParseError(f"letter index {abs(x)} out of range for n={n}")
    else:
        n = max((abs(x) for x in letters), default=0) + 1
    return BraidWord(n, tuple(letters))


def random_word(rng: random.Random, n: int, length: int) -> BraidWord:
    if n < 2:
        return BraidWord(n)
    letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
    return BraidWord(n, letters)


def triple_slide_rich_word(rng: random.Random, n: int, length: int, windows: int) -> BraidWord:
    """A random word on n >= 3 strands with classical triple-slide windows planted.

    Each window, z_i z_{i+1} z_i or z_{i+1} z_i z_{i+1}, goes in at a random
    offset, so a later one may split an earlier one.
    """
    letters = list(random_word(rng, n, length).letters)
    for _ in range(windows):
        i = rng.randint(1, n - 2)
        at = rng.randint(0, len(letters))
        letters[at:at] = [i, i + 1, i] if rng.random() < 0.5 else [i + 1, i, i + 1]
    return BraidWord(n, tuple(letters))


def relation_rich_word(rng: random.Random, n: int, length: int, windows: int) -> BraidWord:
    """A random word on n >= 4 strands with relation windows planted.

    Each window is either side of a random instance of a relation other than
    the classical triple slide (an R2 pair for the cancelling side), drawn
    relation first, and goes in at a random offset.
    """
    letters = list(random_word(rng, n, length).letters)
    relations = [rel for rel in Relation if rel is not Relation.CLASSICAL_R3]
    far = [(i, j) for i in range(1, n) for j in range(1, n) if abs(i - j) >= 2]
    for _ in range(windows):
        rel = rng.choice(relations)
        if rel in (Relation.FAR_COMM_ZZ, Relation.FAR_COMM_TT):
            i, j = sorted(rng.choice(far))
        elif rel is Relation.FAR_COMM_ZT:
            i, j = rng.choice(far)
        else:
            slide = rel in (Relation.VIRTUAL_R3, Relation.SEMIVIRTUAL_R3)
            i, j = rng.randint(1, n - 2 if slide else n - 1), None
        window = rng.choice([side for side in relation_sides(rel, i, j) if side])
        at = rng.randint(0, len(letters))
        letters[at:at] = window
    return BraidWord(n, tuple(letters))


def random_cyclic_word(rng: random.Random, n: int, length: int, extra: int = 200) -> BraidWord:
    """Rejection-sample a word whose closure is a single circle.

    An n-cycle needs at least n-1 transpositions and the matching sign, so
    the requested length is bumped to the nearest feasible one.
    """
    length = max(length, n - 1)
    if (length - (n - 1)) % 2:
        length += 1
    for _ in range(extra * n):
        w = random_word(rng, n, length)
        if is_cyclic(permutation(w)):
            return w
    raise RuntimeError("failed to sample a cyclic word")


def random_cycle(rng: random.Random, n: int) -> Permutation:
    """A uniformly random n-cycle."""
    rest = list(range(2, n + 1))
    rng.shuffle(rest)
    order = [1] + rest
    image = [0] * n
    for k in range(n):
        image[order[k] - 1] = order[(k + 1) % n]
    return Permutation(tuple(image))


def random_partition(rng: random.Random, n: int) -> StrandPartition:
    first = frozenset(s for s in range(1, n + 1) if rng.random() < 0.5)
    return StrandPartition.from_first(n, first)


def completion_for(rng: random.Random, word: BraidWord) -> Permutation:
    """A permutation q making word's permutation composed with q cyclic."""
    p = permutation(word)
    c = random_cycle(rng, word.n)
    # want p.compose(q) == c, i.e. q = p^-1 then c
    return p.inverse().compose(c)


def random_scheme(rng: random.Random, word: BraidWord):
    kind = rng.choice(("gaussian", "component", "qgaussian"))
    if kind == "gaussian" and is_cyclic(permutation(word)):
        return GaussianScheme()
    if kind == "qgaussian" and word.n >= 1:
        return QGaussianScheme(completion_for(rng, word))
    return ComponentScheme(random_partition(rng, word.n))


def reference_match_instances(letters: tuple[int, ...], rels: frozenset[Relation]) -> list[MoveInstance]:
    """Non-insertion instances whose source side matches, by rescanning the whole word.

    The reference for the per-position matcher in `moves`.
    """
    R = Relation
    L2R, R2L = Direction.LEFT_TO_RIGHT, Direction.RIGHT_TO_LEFT
    out = []
    L = len(letters)
    for p in range(L - 1):
        a, b = letters[p], letters[p + 1]
        if a == b:
            if a < 0 and R.VIRTUAL_R2 in rels:
                out.append(MoveInstance(R.VIRTUAL_R2, -a, p, L2R))
            elif a > 0 and R.CLASSICAL_R2 in rels:
                out.append(MoveInstance(R.CLASSICAL_R2, a, p, L2R))
        if b == -a and R.VIRTUALIZATION in rels:
            out.append(MoveInstance(R.VIRTUALIZATION, abs(a), p, L2R if a < 0 else R2L))
        ia, ib = abs(a), abs(b)
        if abs(ia - ib) >= 2:
            if a > 0 and b > 0 and R.FAR_COMM_ZZ in rels:
                out.append(MoveInstance(R.FAR_COMM_ZZ, min(a, b), p,
                                        L2R if a < b else R2L, j=max(a, b)))
            elif a < 0 and b < 0 and R.FAR_COMM_TT in rels:
                out.append(MoveInstance(R.FAR_COMM_TT, min(ia, ib), p,
                                        L2R if ia < ib else R2L, j=max(ia, ib)))
            elif (a > 0) != (b > 0) and R.FAR_COMM_ZT in rels:
                if a > 0:
                    out.append(MoveInstance(R.FAR_COMM_ZT, a, p, L2R, j=ib))
                else:
                    out.append(MoveInstance(R.FAR_COMM_ZT, b, p, R2L, j=ia))
        if p + 2 < L:
            c = letters[p + 2]
            if a == c:
                if a < 0 and b < 0 and R.VIRTUAL_R3 in rels:
                    if ib == ia + 1:
                        out.append(MoveInstance(R.VIRTUAL_R3, ia, p, L2R))
                    elif ib == ia - 1:
                        out.append(MoveInstance(R.VIRTUAL_R3, ib, p, R2L))
                elif a > 0 and R.CLASSICAL_R3 in rels:
                    if b == a + 1:
                        out.append(MoveInstance(R.CLASSICAL_R3, a, p, L2R))
                    elif b == a - 1:
                        out.append(MoveInstance(R.CLASSICAL_R3, b, p, R2L))
            if R.SEMIVIRTUAL_R3 in rels:
                if a < 0 and b == a - 1 and c == ia:
                    out.append(MoveInstance(R.SEMIVIRTUAL_R3, ia, p, L2R))
                elif a > 1 and b == -(a - 1) and c == -a:
                    out.append(MoveInstance(R.SEMIVIRTUAL_R3, a - 1, p, R2L))
    return out


_R2_RELATIONS = (Relation.VIRTUAL_R2, Relation.CLASSICAL_R2)
_REL_ORDER = {rel: k for k, rel in enumerate(Relation)}
_DIR_ORDER = {Direction.LEFT_TO_RIGHT: 0, Direction.RIGHT_TO_LEFT: 1}


def move_sort_key(m: MoveInstance):
    """(position, relation, direction, indices): the order of `applicable_moves`."""
    return (m.position, _REL_ORDER[m.relation], _DIR_ORDER[m.direction],
            m.i, m.j if m.j is not None else 0)


def reference_insertion_instances(word_len: int, n: int, rels: frozenset[Relation]) -> list[MoveInstance]:
    out = []
    for p in range(word_len + 1):
        for rel in _R2_RELATIONS:
            if rel in rels:
                for i in range(1, n):
                    out.append(MoveInstance(rel, i, p, Direction.RIGHT_TO_LEFT))
    return out


def applicable_moves(word: BraidWord, moveset: MoveSet = MoveSet.FB) -> tuple[MoveInstance, ...]:
    """Every applicable instance, insertions included, sorted by `move_sort_key`."""
    rels = relations_in(moveset)
    moves = (reference_match_instances(word.letters, rels)
             + reference_insertion_instances(len(word), word.n, rels))
    return tuple(sorted(moves, key=move_sort_key))


def _moves_by_offset(word: BraidWord, moveset: MoveSet):
    """The move set's relations, its matches keyed by offset, and the insertions at each offset."""
    rels = relations_in(moveset)
    matches = {m.position: m for m in reference_match_instances(word.letters, rels)}
    return rels, matches, (word.n - 1) * sum(rel in rels for rel in _R2_RELATIONS)


def applicable_count(word: BraidWord, moveset: MoveSet = MoveSet.FB) -> int:
    """`len(applicable_moves(word, moveset))` without building the insertions."""
    _, matches, per_offset = _moves_by_offset(word, moveset)
    return len(matches) + (len(word) + 1) * per_offset


def applicable_move(word: BraidWord, moveset: MoveSet, r: int) -> MoveInstance:
    """`applicable_moves(word, moveset)[r]`, building only the moves at its offset.

    The sort puts the moves in offset order, and every offset has the same
    insertions plus at most one match.
    """
    rels, matches, per_offset = _moves_by_offset(word, moveset)
    for p in range(len(word) + 1):
        here = per_offset + (p in matches)
        if r < here:
            moves = [MoveInstance(rel, i, p, Direction.RIGHT_TO_LEFT)
                     for rel in _R2_RELATIONS if rel in rels for i in range(1, word.n)]
            moves += [matches[p]] if p in matches else []
            return sorted(moves, key=move_sort_key)[r]
        r -= here
    raise IndexError("move index out of range")


def move_image(m: MoveInstance, pos: int, lengths: tuple[int, int] | None = None) -> int | None:
    """Where `apply_move` puts the letter at pos, or None if m deletes it.

    Letters outside the rewritten window shift by the change in length; a
    rewrite that keeps the length reverses its window (the outer letters of
    a triple slide trade places, each keeping its strand pair); R2 letters
    have no image.  lengths, if given, is the lengths of `m.sides()`,
    computed once for several positions.
    """
    if lengths is None:
        lengths = tuple(map(len, m.sides()))
    source_len, target_len = lengths
    lo, hi = m.position, m.position + source_len
    if pos < lo:
        return pos
    if pos >= hi:
        return pos + target_len - source_len
    return lo + hi - 1 - pos if source_len == target_len else None


@dataclass(frozen=True, slots=True)
class AxiomReport:
    passed: bool
    violated: str | None = None
    detail: str = ""


_TRANSPORT_AXIOM = {
    Relation.FAR_COMM_ZZ: "2",
    Relation.FAR_COMM_ZT: "3",
    Relation.FAR_COMM_TT: "1",
    Relation.VIRTUALIZATION: "7",
    Relation.SEMIVIRTUAL_R3: "6",
    Relation.VIRTUAL_R3: "1",
    Relation.VIRTUAL_R2: "1",
    Relation.CLASSICAL_R2: "1",
}
_R3_PAIR_AXIOM = {(0, 2): "5b", (1, 1): "5c", (2, 0): "5d"}


def check_parity_axioms(scheme, word: BraidWord, move: MoveInstance, before=None) -> AxiomReport:
    """Evaluate the seven parity axioms on (word, apply_move(word, move)).

    Spectator crossings keep their parity, transported crossings keep theirs
    under commutations, virtualization and the triple slides, a cancelling
    pair has equal parities, and a classical triple slide touches an even
    number of odd crossings.  Returns a pass, or the first violated axiom by
    number (5 splits into its even-count part `5a` and the three pairings
    `5b`-`5d`).  A scheme that does not apply raises `PreconditionError`
    from its `assignment`.  `before`, if given, is `scheme.assignment(word)`,
    computed once for several moves on the same word.
    """
    p1 = scheme.assignment(word) if before is None else before
    p2 = scheme.assignment(apply_move(word, move))
    lengths = tuple(map(len, move.sides()))
    window_lo = move.position
    window_hi = window_lo + lengths[0]

    for s in p1.positions:
        r = move_image(move, s, lengths)
        if r is None:
            continue
        if p1.parity_of(s) is p2.parity_of(r):
            continue
        if s < window_lo or s >= window_hi:
            axiom = "1"
        elif move.relation is Relation.CLASSICAL_R3:
            axiom = _R3_PAIR_AXIOM[(s - window_lo, r - window_lo)]
        else:
            axiom = _TRANSPORT_AXIOM[move.relation]
        return AxiomReport(False, axiom,
                           f"letter {s} -> {r} changed parity under {move.relation.value}")

    if move.relation is Relation.CLASSICAL_R2:
        assignment = p1 if move.direction is Direction.LEFT_TO_RIGHT else p2
        a, b = window_lo, window_lo + 1
        if assignment.parity_of(a) is not assignment.parity_of(b):
            return AxiomReport(False, "4", f"cancelling pair at {a},{b} has mixed parities")

    if move.relation is Relation.CLASSICAL_R3:
        for assignment in (p1, p2):
            odd = sum(1 for k in range(3) if assignment.is_odd(window_lo + k))
            if odd % 2:
                return AxiomReport(False, "5a",
                                   f"triple slide touches {odd} odd crossings")

    return AxiomReport(True)


def reference_scramble(word: BraidWord, steps: int, moveset: MoveSet, seed: int,
                       max_length: int) -> tuple[BraidWord, tuple[MoveInstance, ...]]:
    """`scramble` by rescanning the whole word on every step.

    The reference for the windowed rescan in `moves`.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if max_length < len(word.letters):
        raise ValueError("max_length must be at least the current word length")
    rng = random.Random(seed)
    rels = relations_in(moveset)
    ins_kinds = [rel for rel in _R2_RELATIONS if rel in rels]
    letters = word.letters
    n = word.n
    history: list[MoveInstance] = []
    for _ in range(steps):
        matches = reference_match_instances(letters, rels)
        L = len(letters)
        per_kind = (n - 1) * (L + 1)
        ins_total = per_kind * len(ins_kinds) if (L + 2 <= max_length and n >= 2) else 0
        total = len(matches) + ins_total
        if total == 0:
            break
        r = rng.randrange(total)
        if r < len(matches):
            m = matches[r]
        else:
            q = r - len(matches)
            rel = ins_kinds[q // per_kind]
            q %= per_kind
            m = MoveInstance(rel, q // (L + 1) + 1, q % (L + 1), Direction.RIGHT_TO_LEFT)
        letters = apply_move(BraidWord(n, letters), m).letters
        history.append(m)
    return BraidWord(n, letters), tuple(history)


def reference_bfs_ball(word: BraidWord, moveset: MoveSet, length_bound: int,
                       node_cap: int = 1_000_000) -> EquivalenceBall:
    """`bfs_ball` through `MoveInstance` objects from a full rescan of every node.

    The reference for the packed-integer search, `moves._discover`.
    """
    if length_bound < len(word.letters):
        raise PreconditionError("length bound must be at least the origin's length")
    rels = relations_in(moveset)
    n = word.n
    seen: set[tuple[int, ...]] = {word.letters}
    order: list[tuple[int, ...]] = [word.letters]
    queue: deque[tuple[int, ...]] = deque([word.letters])
    cap_exceeded = False
    while queue:
        letters = queue.popleft()
        instances = reference_match_instances(letters, rels)
        if len(letters) + 2 <= length_bound:
            instances += reference_insertion_instances(len(letters), n, rels)
        for m in instances:
            neighbor = apply_move(BraidWord(n, letters), m).letters
            if neighbor in seen:
                continue
            if len(seen) >= node_cap:
                cap_exceeded = True
                queue.clear()
                break
            seen.add(neighbor)
            order.append(neighbor)
            queue.append(neighbor)
    members = tuple(BraidWord(n, ls) for ls in order)
    return EquivalenceBall(word, moveset, length_bound, members, cap_exceeded)


def reference_oracle_equal(w1: BraidWord, w2: BraidWord, moveset: MoveSet, length_bound: int,
                           node_cap: int = 1_000_000) -> OracleVerdict:
    """`oracle_equal` as membership in the whole reference ball, then its cap flag.

    The reference for the early exit in `oracle`.
    """
    if w1.n != w2.n:
        raise PreconditionError(f"strand counts differ: {w1.n} vs {w2.n}")
    ball = reference_bfs_ball(w1, moveset, length_bound, node_cap)
    if w2 in ball:
        return OracleVerdict.EQUAL
    if ball.cap_exceeded:
        return OracleVerdict.CAP_EXCEEDED
    return OracleVerdict.NOT_FOUND_WITHIN_BOUND


def oracle_disagreements(n: int, max_length: int, bound: int) -> tuple[int, int]:
    """Criterion 6's check: do the deciders split words exactly as the oracle does?

    Every word over the letters +-1 ... +-(n-1) of length at most max_length is
    grouped by its `canonical_code` (`STRONG`) and its `irreducible_code` (`F`),
    and by the oracle's ball of length bound, which must not be capped.  Returns
    the word count and the number of decider classes that are not exactly one
    oracle class.
    """
    alphabet = [*range(1, n), *range(-1, -n, -1)]
    words = [BraidWord(n, seq) for k in range(max_length + 1) for seq in itertools.product(alphabet, repeat=k)]
    disagreements = 0
    for moveset, key in ((MoveSet.STRONG, canonical_code), (MoveSet.F, irreducible_code)):
        class_of = {}
        for w in words:
            if w.letters in class_of:
                continue
            ball = bfs_ball(w, moveset, bound, node_cap=1_000_000)
            assert not ball.cap_exceeded, (moveset, w)
            for member in ball.members:
                if len(member.letters) <= max_length:
                    class_of.setdefault(member.letters, w.letters)
        decider_class = {}
        for w in words:
            decider_class.setdefault(key(w).format(), []).append(w.letters)
        oracle_roots = set()
        for group in decider_class.values():
            roots = {class_of[letters] for letters in group}
            root = next(iter(roots))
            disagreements += (len(roots) != 1) + (root in oracle_roots)
            oracle_roots.add(root)
    return len(words), disagreements
