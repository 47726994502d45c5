from pathlib import Path

from freebraid.words import BraidWord, parse_word
from freebraid.render import RenderFormat, render, render_ascii, render_svg
from freebraid.scenarios import brunnian_word

GOLDEN = Path(__file__).parent / "golden"


def test_ascii_golden_small():
    w = parse_word("n=3; z1 t2 z2")
    assert render_ascii(w) + "\n" == (GOLDEN / "small.txt").read_text()


def test_svg_golden_small():
    w = parse_word("n=3; z1 t2 z2")
    assert render_svg(w) + "\n" == (GOLDEN / "small.svg").read_text()


def test_ascii_golden_brunnian():
    assert render_ascii(brunnian_word()) + "\n" == (GOLDEN / "brunnian.txt").read_text()


def test_renders_are_byte_deterministic():
    w = parse_word("n=4; z2 t1 z3")
    assert render(w, RenderFormat.ASCII) == render(w, RenderFormat.ASCII)
    assert render(w, RenderFormat.SVG) == render(w, RenderFormat.SVG)


def test_ascii_row_count_and_markers():
    w = parse_word("n=3; z1 t2")
    lines = render_ascii(w).splitlines()
    assert len(lines) == 2 + len(w)  # label rows top and bottom
    assert lines[1].count("*") == 1
    assert lines[2].count("o") == 1


def test_empty_word_renders():
    out = render_ascii(BraidWord(3))
    assert out.splitlines()[0].split() == ["1", "2", "3"]
    assert "<svg" in render_svg(BraidWord(3))
