"""SVG rendering: structure, determinism, unsupported input."""

from fractions import Fraction

import pytest

from delzant import Polygon, UnsupportedError, Vec2, enumerate_candidates, spectral_data
from delzant.render import render_svg


def test_square_single_path(unit_square):
    svg = render_svg(unit_square)
    text = svg.decode("utf-8")
    assert text.count("<path") == 1
    assert "<svg" in text and "</svg>" in text
    # One outward-normal arrow per edge, one label per vertex.
    assert text.count("<line") == 4
    assert text.count("<circle") == 4


def test_overlay_path_count(unit_triangle):
    candidates = enumerate_candidates(spectral_data(unit_triangle))
    svg = render_svg(unit_triangle, candidates)
    assert svg.decode("utf-8").count("<path") == 3


def test_deterministic_bytes(hirzebruch_111):
    assert render_svg(hirzebruch_111) == render_svg(hirzebruch_111)


def test_rejects_3d(unit_cube):
    with pytest.raises(UnsupportedError):
        render_svg(unit_cube)


@pytest.mark.parametrize("vertices, message", [
    ([(0, 0), (10**400, 0), (0, 1)], "a vertex coordinate is past the float range"),
    ([(0, 0), (1, 0), (0, Fraction(1, int("7" * 400)))], "the normal of edge 1 is past the float range"),
    ([(-int(1.5e308), 0), (int(1.5e308), 0), (0, 1)], "the coordinate span is past the float range"),
], ids=["vertex", "normal", "span"])
def test_past_the_float_range_is_unsupported(vertices, message):
    with pytest.raises(UnsupportedError, match=f"^{message}$"):
        render_svg(Polygon([Vec2(*v) for v in vertices]))
