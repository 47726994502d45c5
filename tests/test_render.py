from pathlib import Path

import pytest

from freebraid.words import BraidWord, PreconditionError, parse_word
from freebraid.render import MAX_STRAND_ROWS, RenderFormat, render
from freebraid.scenarios import brunnian_word

GOLDEN = Path(__file__).parent / "golden"


def test_ascii_golden_small():
    w = parse_word("n=3; z1 t2 z2")
    assert render(w) + "\n" == (GOLDEN / "small.txt").read_text()


def test_svg_golden_small():
    w = parse_word("n=3; z1 t2 z2")
    assert render(w, RenderFormat.SVG) + "\n" == (GOLDEN / "small.svg").read_text()


def test_ascii_golden_brunnian():
    assert render(brunnian_word()) + "\n" == (GOLDEN / "brunnian.txt").read_text()


def test_renders_are_byte_deterministic():
    w = parse_word("n=4; z2 t1 z3")
    assert render(w, RenderFormat.ASCII) == render(w, RenderFormat.ASCII)
    assert render(w, RenderFormat.SVG) == render(w, RenderFormat.SVG)


def test_ascii_row_count_and_markers():
    w = parse_word("n=3; z1 t2")
    lines = render(w).splitlines()
    assert len(lines) == 2 + len(w)  # label rows top and bottom
    assert lines[1].count("*") == 1
    assert lines[2].count("o") == 1


def test_empty_word_renders():
    out = render(BraidWord(3))
    assert out.splitlines()[0].split() == ["1", "2", "3"]
    assert "<svg" in render(BraidWord(3), RenderFormat.SVG)


def test_render_refuses_more_strand_rows_than_its_bound():
    """n strands by L letters weigh (n + 2) * max(L, 1) strand-rows; both formats refuse more than the bound."""
    assert MAX_STRAND_ROWS == 10**6
    assert len(render(BraidWord(10_000, (1,) * 99)).splitlines()) == 101
    assert len(render(BraidWord(2, (1, -1) * 125_000)).splitlines()) == 250_002
    assert len(render(BraidWord(10_000)).splitlines()) == 2  # no letters: the two label rows
    for word in (BraidWord(10_000, (1,) * 100), BraidWord(10_000, (1,) * 101), BraidWord(2, (1, -1) * 125_000 + (1,)),
                 BraidWord(2, (1, -1) * 250_000 + (1,))):
        for format in RenderFormat:
            with pytest.raises(PreconditionError, match=f"^{word.n} strands by {len(word)} rows is over 1000000 "):
                render(word, format)


def test_render_refuses_a_format_that_is_not_a_render_format():
    with pytest.raises(ValueError, match="^unknown render format 'svg'$"):
        render(BraidWord(2, (1,)), "svg")
