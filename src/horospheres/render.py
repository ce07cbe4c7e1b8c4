"""Deterministic SVG pictures of horocycle samples, replayed by
:func:`horospheres.sampling.sample_points`, in the unit disc."""

from __future__ import annotations

from typing import NamedTuple

from .geometry import EuclideanCircle, HorosphereParam, horocycle_disc_embedding
from .sampling import SimConfig, sample_points

__all__ = ["Scene", "horocycle_scene", "render_svg"]


class Scene(NamedTuple):
    """Disc-model circles and the horocycles they embed, in sampling order."""

    circles: tuple[EuclideanCircle, ...]
    points: tuple[HorosphereParam, ...]


def horocycle_scene(R: float, seed: int) -> Scene:
    """Sample one planar realization truncated at distance R (replication 0
    of ``seed``) and embed every horocycle as a disc-model circle."""
    points = sample_points(SimConfig(d=2, R=R, replications=1, seed=seed), 0)
    return Scene(circles=tuple(horocycle_disc_embedding(p) for p in points), points=points)


def _fmt(v: float) -> str:
    # v + 0.0 maps -0.0 to 0.0 so output bytes do not depend on sign of zero
    return f"{v + 0.0:.12f}"


def render_svg(scene: Scene, metadata: str | None = None) -> str:
    """Serialize a scene as a standalone SVG document.

    Output is byte-deterministic for a given scene: circles are emitted in
    sampling order and every coordinate is printed with a fixed format.
    ``metadata``, when given, is embedded as a comment so the file records
    how it was produced; it must not contain the sequence ``--``.
    """
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    if metadata is not None:
        if "--" in metadata:
            raise ValueError("metadata must not contain '--'")
        lines.append(f"<!-- {metadata} -->")
    lines += [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="600" height="600" viewBox="-1.05 -1.05 2.1 2.1">',
        "<defs>",
        '<clipPath id="disc"><circle cx="0" cy="0" r="1"/></clipPath>',
        "</defs>",
        '<rect x="-1.05" y="-1.05" width="2.1" height="2.1" fill="white"/>',
        '<g clip-path="url(#disc)">',
    ]
    for c in scene.circles:
        lines.append(
            f'<circle cx="{_fmt(c.center[0])}" cy="{_fmt(c.center[1])}" '
            f'r="{_fmt(c.radius)}" fill="none" stroke="black" stroke-width="0.004"/>'
        )
    lines.append("</g>")
    lines.append(
        '<circle cx="0" cy="0" r="1" fill="none" stroke="black" stroke-width="0.008"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
