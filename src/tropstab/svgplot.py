"""Deterministic SVG figures for rank-two fans and hypersurface samples.

Supported apartments: the rank-two special linear one (n = 3), drawn in an
angle-preserving projection of the sum-zero plane, and the rank-two
symplectic one (n = 2), drawn in its own coordinates.  Maximal cones are
bounded by the rays normal to the polytope edges; those rays are computed
exactly from the weights and only converted to floats for drawing.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .errors import UnsupportedRankError
from .feasibility import _primitive_vector
from .groups import GROUP_SL, GROUP_SP
from .suites import hypersurface_samples
from .weights import WeightedCharacter, polytope_vertices, weight_eval


def fan_rays(char: WeightedCharacter) -> list:
    """Exact integer directions of the rays of the rank-two fan, one per
    polytope edge: the locus where two adjacent vertices tie and dominate."""
    verts = sorted(polytope_vertices(char))
    weights = char.weights
    rays = set()
    for a, b in itertools.combinations(verts, 2):
        diff = tuple(int(p - q) for p, q in zip(a, b))
        if char.group == GROUP_SL:
            d = (diff[1] - diff[2], diff[2] - diff[0], diff[0] - diff[1])
        else:
            d = (-diff[1], diff[0])
        if not any(d):
            continue
        for cand in (d, tuple(-c for c in d)):
            top = weight_eval(a, cand)
            if all(weight_eval(mu, cand) <= top for mu in weights):
                rays.add(_primitive_vector(cand))
                break
    return sorted(rays)


def _project(char, coords):
    if char.group == GROUP_SL:
        x1, x2, x3 = (float(c) for c in coords)
        return ((x1 - x2) / math.sqrt(2.0),
                (x1 + x2 - 2.0 * x3) / math.sqrt(6.0))
    x1, x2 = (float(c) for c in coords)
    return (x1, x2)


def _check_rank_two(group, rank):
    if (group, rank) not in ((GROUP_SL, 3), (GROUP_SP, 2)):
        raise UnsupportedRankError("figures exist for rank-two apartments only")


def _fmt(v: float) -> str:
    return f"{v:.3f}"


#: Width and height of every figure, in pixels.
_SIZE = 560


def render_fan_svg(char: WeightedCharacter, *, p: int = 2, samples: int = 0,
                   seed: int = 0, walls: bool = False) -> str:
    """Fan figure: cone boundary rays, optional wall lattice, and optionally
    a seeded overlay of sampled hypersurface members."""
    _check_rank_two(char.group, char.rank)
    half = _SIZE / 2.0
    unit = _SIZE / 9.0

    def to_screen(xy):
        return (half + unit * xy[0], half - unit * xy[1])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]

    def line(start, end, stroke="#dddddd", width=1, extra=""):
        (x0, y0), (x1, y1) = to_screen(start), to_screen(end)
        parts.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" '
            f'y2="{_fmt(y1)}" stroke="{stroke}" stroke-width="{width}"{extra}/>')

    if walls:
        if char.group == GROUP_SL:
            pairs = [(0, 1), (0, 2), (1, 2)]
            for (i, j), m in itertools.product(pairs, range(-3, 4)):
                base = [Fraction(0)] * 3
                base[i] += Fraction(m, 2)
                base[j] -= Fraction(m, 2)
                diff = [0, 0, 0]
                diff[i], diff[j] = 1, -1
                direction = (diff[1] - diff[2], diff[2] - diff[0],
                             diff[0] - diff[1])
                bx, by = _project(char, base)
                dx, dy = _project(char, direction)
                norm = math.hypot(dx, dy)
                dx, dy = dx / norm, dy / norm
                line((bx - 8 * dx, by - 8 * dy), (bx + 8 * dx, by + 8 * dy))
        else:
            for k in range(-3, 4):
                c = k / 2.0
                line((c, -8.0), (c, 8.0))
                line((-8.0, c), (8.0, c))
                for sign in (1, -1):
                    line((-8.0, sign * -8.0 + k), (8.0, sign * 8.0 + k))

    for ray in fan_rays(char):
        dx, dy = _project(char, ray)
        norm = math.hypot(dx, dy)
        line((0.0, 0.0), (4.2 * dx / norm, 4.2 * dy / norm), "#222222", 2,
             f' data-ray="{",".join(str(c) for c in ray)}"')

    if samples:
        kept = 0
        for coords, member, skel in hypersurface_samples(
                char, p, random.Random(seed), samples, 16):
            if member != skel:
                raise AssertionError("hypersurface and skeleton disagree in figure")
            if not member:
                continue
            kept += 1
            x, y = to_screen(_project(char, coords))
            parts.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.4" fill="#cc2222" '
                f'fill-opacity="0.7"/>')
        parts.append(f'<!-- hypersurface samples kept: {kept} of {samples} -->')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
