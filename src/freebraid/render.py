"""Static diagram emission, one row per letter, top to bottom.

Classical crossings are drawn with a solid dot, virtual ones with an open
circle.  Output is byte-deterministic for a fixed input.
"""

from __future__ import annotations

from enum import Enum

from .words import BraidWord, PreconditionError, permutation


class RenderFormat(Enum):
    ASCII = "ascii"
    SVG = "svg"


_PITCH = 4  # ascii columns between strands
# Larger diagrams are refused unbuilt.  A row weighs n + 2 strand-rows: ~49 SVG characters a strand, ~70 its marker.
MAX_STRAND_ROWS = 1_000_000


def render(word: BraidWord, format: RenderFormat = RenderFormat.ASCII) -> str:
    n, rows = word.n, len(word)
    if (n + 2) * max(rows, 1) > MAX_STRAND_ROWS:
        raise PreconditionError(f"{n} strands by {rows} rows is over {MAX_STRAND_ROWS} strand-rows, n + 2 a row")
    if format is RenderFormat.ASCII:
        return _render_ascii(word)
    if format is RenderFormat.SVG:
        return _render_svg(word)
    raise ValueError(f"unknown render format {format!r}")


def _label_line(labels, width: int) -> str:
    chars = [" "] * width
    for k, text in enumerate(labels):
        x = k * _PITCH
        for c, ch in enumerate(text):
            if x + c < width:
                chars[x + c] = ch
    return "".join(chars).rstrip()


def _render_ascii(word: BraidWord) -> str:
    n = word.n
    width = (n - 1) * _PITCH + 1
    lines = [_label_line([str(k) for k in range(1, n + 1)], width)]
    for x in word.letters:
        i = abs(x)
        row = [" "] * width
        for col in range(n):
            row[col * _PITCH] = "|"
        left = (i - 1) * _PITCH
        row[left] = "\\"
        row[left + _PITCH] = "/"
        row[left + _PITCH // 2] = "*" if x > 0 else "o"
        lines.append("".join(row).rstrip())
    lines.append(_label_line([str(s) for s in permutation(word).inverse().image], width))
    return "\n".join(lines)


_SVG_PITCH = 40
_SVG_ROW = 40
_SVG_MARGIN = 20
_SVG_RADIUS = 6


def _render_svg(word: BraidWord) -> str:
    n = word.n
    width = (n - 1) * _SVG_PITCH + 2 * _SVG_MARGIN
    height = max(len(word.letters), 1) * _SVG_ROW + 2 * _SVG_MARGIN

    def x_of(position: int) -> int:
        return _SVG_MARGIN + (position - 1) * _SVG_PITCH

    segments: list[str] = []
    markers: list[str] = []
    y = _SVG_MARGIN
    if not word.letters:
        for pos in range(1, n + 1):
            segments.append(f'<line x1="{x_of(pos)}" y1="{y}" x2="{x_of(pos)}" y2="{y + _SVG_ROW}"/>')
    for x in word.letters:
        i = abs(x)
        for pos in range(1, n + 1):
            end = i + 1 if pos == i else i if pos == i + 1 else pos
            segments.append(f'<line x1="{x_of(pos)}" y1="{y}" x2="{x_of(end)}" y2="{y + _SVG_ROW}"/>')
        cx = (x_of(i) + x_of(i + 1)) // 2
        cy = y + _SVG_ROW // 2
        fill = "black" if x > 0 else "white"
        markers.append(f'<circle cx="{cx}" cy="{cy}" r="{_SVG_RADIUS}" fill="{fill}" stroke="black"/>')
        y += _SVG_ROW
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<g stroke="black" stroke-width="2" fill="none">',
        *segments,
        "</g>",
        *markers,
        "</svg>",
    ]
    return "\n".join(parts)
