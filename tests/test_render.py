import math
import re

import pytest

from horospheres.geometry import EuclideanCircle, HorosphereParam, horocycle_disc_embedding
from horospheres.render import Scene, horocycle_scene, render_svg
from horospheres.sampling import SimConfig, simulate_batch

_CIRCLE_RE = re.compile(
    r'<circle cx="(-?\d+\.\d{12})" cy="(-?\d+\.\d{12})" r="(\d+\.\d{12})"'
)


def test_scene_matches_realization():
    scene = horocycle_scene(3.0, seed=11)
    count = simulate_batch(SimConfig(d=2, R=3.0, replications=1, seed=11)).counts[0]
    assert len(scene.circles) == len(scene.points) == count
    assert scene.circles == tuple(horocycle_disc_embedding(p) for p in scene.points)


def test_scene_deterministic():
    a = horocycle_scene(2.5, seed=5)
    b = horocycle_scene(2.5, seed=5)
    assert a.circles == b.circles
    assert a.points == b.points


def test_scene_count_tracks_hitting_mass():
    # mass 2 sinh 3 ~ 20.04; average over seeds within Monte Carlo range
    mass = 2.0 * math.sinh(3.0)
    counts = [len(horocycle_scene(3.0, seed=s).points) for s in range(30)]
    mean = sum(counts) / len(counts)
    assert abs(mean - mass) < 5.0 * math.sqrt(mass / 30.0)


def test_every_circle_tangent_to_boundary():
    scene = horocycle_scene(3.0, seed=7)
    for c in scene.circles:
        assert math.hypot(*c.center) + c.radius == pytest.approx(1.0, abs=1e-12)


def test_svg_is_reproducible_bytes():
    one = render_svg(horocycle_scene(3.0, seed=11))
    two = render_svg(horocycle_scene(3.0, seed=11))
    assert one == two


def test_svg_structure():
    svg = render_svg(horocycle_scene(2.0, seed=1))
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
    assert 'viewBox="-1.05 -1.05 2.1 2.1"' in svg
    assert 'clip-path="url(#disc)"' in svg
    assert svg.endswith("</svg>\n")
    assert "\r" not in svg


def test_svg_circle_count():
    scene = horocycle_scene(2.0, seed=9)
    svg = render_svg(scene)
    # sampled circles plus the clip-path circle and the boundary circle
    assert svg.count("<circle") == len(scene.circles) + 2


def test_svg_coordinates_parse_and_are_tangent():
    svg = render_svg(horocycle_scene(3.0, seed=13))
    rows = _CIRCLE_RE.findall(svg)
    assert rows
    for cx, cy, r in rows:
        gap = math.hypot(float(cx), float(cy)) + float(r) - 1.0
        assert abs(gap) < 1e-9


def test_negative_zero_is_normalized():
    point = HorosphereParam(1.0, (1.0, 0.0))
    scene = Scene(circles=(horocycle_disc_embedding(point),), points=(point,))
    svg = render_svg(scene)
    assert "-0.000000000000" not in svg
    assert 'cy="0.000000000000"' in svg


def test_metadata_comment():
    scene = Scene(circles=(EuclideanCircle((0.5, 0.0), 0.5),), points=(HorosphereParam(0.0, (-1.0, 0.0)),))
    svg = render_svg(scene, metadata='config {"seed": 3}')
    assert '<!-- config {"seed": 3} -->' in svg.splitlines()[1]
    with pytest.raises(ValueError):
        render_svg(scene, metadata="a -- b")
