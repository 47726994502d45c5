"""Hypothesis strategies for braid words."""

from __future__ import annotations

from hypothesis import strategies as st

from freebraid.words import BraidWord, Permutation, permutation

from helpers import permutation_braid


@st.composite
def braid_words(draw, min_n=1, max_n=5, max_len=12):
    n = draw(st.integers(min_n, max_n))
    if n == 1:
        return BraidWord(1)
    length = draw(st.integers(0, max_len))
    letters = tuple(
        draw(st.integers(1, n - 1)) * draw(st.sampled_from((1, -1)))
        for _ in range(length)
    )
    return BraidWord(n, letters)


@st.composite
def cyclic_braid_words(draw, min_n=2, max_n=5, max_len=12):
    """A drawn word followed by the virtual letters that complete its
    permutation to a drawn n-cycle, so its closure is one circle."""
    word = draw(braid_words(min_n, max_n, max_len))
    order = [1] + draw(st.permutations(range(2, word.n + 1)))
    image = [0] * word.n
    for k in range(word.n):
        image[order[k] - 1] = order[(k + 1) % word.n]
    return word * permutation_braid(permutation(word).inverse().compose(Permutation(tuple(image))))


@st.composite
def permutations(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    image = draw(st.permutations(list(range(1, n + 1))))
    return Permutation(tuple(image))


@st.composite
def word_pairs_same_n(draw, max_n=4, max_len=8):
    n = draw(st.integers(2, max_n))
    def word():
        length = draw(st.integers(0, max_len))
        return BraidWord(n, tuple(
            draw(st.integers(1, n - 1)) * draw(st.sampled_from((1, -1)))
            for _ in range(length)))
    return word(), word()


@st.composite
def bigon_rich_words(draw, max_n=8, max_len=60):
    """Random words with classical pairs z_i z_i inserted, up to three virtual
    letters between the two letters of each pair, so many bigons, nested and
    overlapping, are present."""
    n = draw(st.integers(2, max_n))
    index = st.integers(1, n - 1)
    letters = [draw(index) * draw(st.sampled_from((1, -1)))
               for _ in range(draw(st.integers(0, max_len // 2)))]
    inserts = draw(st.lists(st.tuples(st.integers(0, max_len), index, st.lists(index, max_size=3)),
                            max_size=max_len // 2))
    for at, i, between in inserts:
        block = [i] + [-k for k in between] + [i]
        if len(letters) + len(block) > max_len:
            break
        at %= len(letters) + 1
        letters[at:at] = block
    return BraidWord(n, tuple(letters))
