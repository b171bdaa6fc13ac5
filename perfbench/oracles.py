"""Reference values the benchmark scores every verdict against.

Everything here is closed-form NumPy written independently of
``contraction_lab``; nothing in this module imports the library.  The
oracles are evaluated while a round's jobs are generated, before the round's
timer starts, so they never count towards a timed metric.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)
PAPER_POINT = 4.0 * SQRT_2PI
PAPER_INPUT = 27.0 / 16.0
PAPER_VIOLATION = -2.0 + 13.5 * SQRT_2PI  # contraction value at (PAPER_POINT, PAPER_INPUT)
R_STAR_PRINTED = 2.79098840365914


def scalar_value(xs, c, beta):
    """2 f'(x) m(x) + m'(x) f(x, c) + beta m(x) for the paper's scalar system.

    f(x, c) = x sin(x^2)/2 - x + c and m(x) = 1/(sin(x^2)/2 - 1)^2.  The
    1x1 contraction matrix plus beta*M, so its largest value over a grid is
    the margin of a region certificate on that grid.
    """
    xs = np.asarray(xs, dtype=float)
    s, co = np.sin(xs * xs), np.cos(xs * xs)
    f = 0.5 * xs * s - xs + c
    fp = 0.5 * s + xs * xs * co - 1.0
    m = 1.0 / (0.5 * s - 1.0) ** 2
    mp = 16.0 * xs * co / (2.0 - s) ** 3
    return 2.0 * fp * m + mp * f + beta * m


def bump_value(xs, c, m, beta):
    """Contraction value of x' = -x + c under M(x) = 1 + exp(-x^2/m), per axis.

    For the product metric diag(1 + exp(-x_i^2/m)) the contraction matrix of
    x' = -x + c is diagonal with these entries, so the 2-D margin is the
    largest 1-D value.
    """
    xs = np.asarray(xs, dtype=float)
    e = np.exp(-xs * xs / m)
    return -2.0 * (1.0 + e) + (-2.0 * xs / m * e) * (c - xs) + beta * (1.0 + e)


def bounded_metric_margin(m, bound, count=40001):
    """max over |x| <= 10 sqrt(m), c in {-B, 0, B} of |(c - x) eps'| - (1 + eps)."""
    xs = np.linspace(-10.0 * math.sqrt(m), 10.0 * math.sqrt(m), count)
    eps = np.exp(-xs * xs / m)
    return max(float(np.max(np.abs((c - xs) * (-2.0 * xs / m * eps)) - (1.0 + eps))) for c in (-bound, 0.0, bound))


def ges_generator_margin(rate, count=50001, hi=50.0):
    """max over r in [0, hi] of f(r) + rate r with f(r) = -r + (r/2) sin(r^2)."""
    r = np.linspace(0.0, hi, count)
    return float(np.max(-r + 0.5 * r * np.sin(r * r) + rate * r))


def circle_deviation(states, radius):
    """max | ||x(t)|| - radius | along a trajectory of the forced system."""
    return float(np.max(np.abs(np.linalg.norm(states, axis=1) - radius)))


def linear_flow_sine(x0, a, phase, t1, t2):
    """Exact flow of x' = -x + a sin(t + phase) from x0 at t1 to t2."""

    def particular(t):
        return 0.5 * a * (math.sin(t + phase) - math.cos(t + phase))

    return particular(t2) + math.exp(-(t2 - t1)) * (x0 - particular(t1))


def linear_flow_pieces(x0, values, fractions, t1, t2):
    """Exact flow of x' = -x + c_i, c_i held for fraction alpha_i of [t1, t2]."""
    x = x0
    for c, alpha in zip(values, fractions):
        x = c + math.exp(-alpha * (t2 - t1)) * (x - c)
    return x


def worst_ratio(flow, pairs):
    """max over pairs of |flow(x) - flow(y)| / |x - y|."""
    return max(abs(flow(x) - flow(y)) / abs(x - y) for x, y in pairs)


def entrainment_fixed_point(a):
    """Return-map fixed point of x' = -x + a sin t: the periodic solution at t = 0."""
    return -0.5 * a


def simplex_inradius(vertices):
    """Distance from 0 to the nearest facet of the hull of four 3-D points."""
    pts = np.asarray(vertices, dtype=float)
    dists = []
    for drop in range(4):
        a, b, c = np.delete(pts, drop, axis=0)
        normal = np.cross(b - a, c - a)
        dists.append(abs(float(normal @ a)) / float(np.linalg.norm(normal)))
    return min(dists)


# Input directions of the two 3-D constancy examples: u_{i,j} = i * e_j through
# B = [e1 e2 e3 -(1,1,1)] for the first, u_{i,j} = i * v_j with v_j the unit
# simplex vertices for the second.  Both fields are x' = -x + (input), so the
# Jacobian is -I and the Jacobian-to-field ratio is 1/||f||.
DIAGONAL_RAYS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -1.0, -1.0]])
SIMPLEX_RAYS = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / math.sqrt(3.0)
DIAGONAL_HULL = DIAGONAL_RAYS / np.linalg.norm(DIAGONAL_RAYS, axis=1, keepdims=True)


def field_ratio(x, i, rays):
    """Worst ||J|| / ||f|| over the family members i * ray at state x."""
    x = np.asarray(x, dtype=float)
    return float(np.max(1.0 / np.linalg.norm(-x + i * rays, axis=1)))


def relative_error(value, reference):
    return abs(value - reference) / max(1.0, abs(reference))
