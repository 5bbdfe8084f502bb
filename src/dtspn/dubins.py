"""Closed-form Dubins shortest paths between oriented poses.

A Dubins path for a forward-only vehicle with minimum turning radius rho is
one of six segment words (LSL, RSR, LSR, RSL, RLR, LRL).  This module finds
the minimum-length word for a pose pair, evaluates lengths in bulk for cost
matrices, and samples poses exactly on the path arc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# Fixed word order; ties in length are broken toward the earlier word.
WORDS = ("LSL", "RSR", "LSR", "RSL", "RLR", "LRL")

# Segment parameters below this are clamped to zero to keep degenerate
# paths from flipping between adjacent words.
SEGMENT_EPS = 1e-9


def normalize_angle(theta: float) -> float:
    """Wrap an angle to [-pi, pi).

    In-range values pass through untouched so normalization is idempotent
    bit-for-bit (serialized poses re-normalize to themselves).
    """
    if -math.pi <= theta < math.pi:
        return theta
    return (theta + math.pi) % TWO_PI - math.pi


def mod2pi(theta):
    return theta % TWO_PI


@dataclass(frozen=True)
class Pose:
    """Planar configuration (x, y, heading).  Heading is kept in [-pi, pi)."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", normalize_angle(self.theta))


@dataclass(frozen=True)
class DubinsPath:
    """A three-segment Dubins path.

    segment_params holds the turn angle in radians for L/R segments and the
    length in meters for the S segment, in word order.
    """

    start: Pose
    word: str
    segment_params: tuple[float, float, float]
    rho: float


def _apply_segment(x, y, theta, kind, param, rho):
    """Advance a pose along one exact segment (no chord approximation)."""
    if kind == "S":
        return x + param * math.cos(theta), y + param * math.sin(theta), theta
    if kind == "L":
        t2 = theta + param
        return (x + rho * (math.sin(t2) - math.sin(theta)),
                y - rho * (math.cos(t2) - math.cos(theta)),
                t2)
    # right turn: heading decreases
    t2 = theta - param
    return (x - rho * (math.sin(t2) - math.sin(theta)),
            y + rho * (math.cos(t2) - math.cos(theta)),
            t2)


def _center_distance(p_sq, cx, cy):
    """Distance between the turn centers of an LSL or RSR path.

    Near zero, sqrt turns the rounding error of the expanded p_sq (about
    1e-16 * d^2) into an error of about 1e-8 in p, which moves the path's
    end by micrometers; there the norm of the center offset (cx, cy) is
    used instead.  Elsewhere the expanded form stays: the tour search
    breaks exact cost ties, so planner output moves when costs change in
    the last bit.
    """
    p = np.sqrt(np.maximum(p_sq, 0.0))
    near = p_sq < 1e-6
    p[near] = np.hypot(cx[near], cy[near])
    return p


def _unloop(t, q, p, total):
    """Keep rounding from adding a loop to an LSL or RSR path, in place.

    When the two turn centers nearly coincide (the goal lies on or near the
    start's own circle), the heading between them, which splits the total
    turn into t and q, is uncertain, and t or q can come out just short of
    a whole turn (or exactly one, as mod2pi rounds a tiny negative angle up
    to 2pi).  Where rotating that heading onto the start (goal) heading
    moves the far center by less than SEGMENT_EPS, the whole turn goes into
    q (t) instead.
    """
    near = p * (TWO_PI - t) < SEGMENT_EPS
    t[near], q[near] = 0.0, mod2pi(total[near])
    near = p * (TWO_PI - q) < SEGMENT_EPS
    t[near], q[near] = mod2pi(total[near]), 0.0


def _segments(a, b, rho):
    """Normalized segment parameters (t, p, q) of every word, and feasibility.

    a and b are arrays of (x, y, theta) rows that broadcast against each
    other.  Each result has shape (6,) + the broadcast shape, words in WORDS
    order.  Curve parameters are turn angles; for CSC words p is the straight
    length over rho.  Segments below SEGMENT_EPS are clamped to zero.
    Entries of infeasible words are finite but meaningless: they are
    computed from clamped inputs, because NaN slows the remainder operation
    down severalfold.
    """
    dx = b[..., 0] - a[..., 0]
    dy = b[..., 1] - a[..., 1]
    line = np.arctan2(dy, dx)
    # standard normalized frame: start at the origin, goal at (d, 0)
    alpha = mod2pi(a[..., 2] - line)
    beta = mod2pi(b[..., 2] - line)
    d = np.hypot(dx, dy) / rho

    sa, ca = np.sin(alpha), np.cos(alpha)
    sb, cb = np.sin(beta), np.cos(beta)
    cab = np.cos(alpha - beta)
    shape = (6,) + np.shape(d)
    t, p, q = np.empty(shape), np.empty(shape), np.empty(shape)
    ok = np.ones(shape, dtype=bool)

    # LSL / RSR are always feasible; p is the distance between the two turn
    # centers and tmp the heading from one to the other.
    p_sq = 2.0 + d * d - 2.0 * cab + 2.0 * d * (sa - sb)
    cx, cy = d + sa - sb, cb - ca
    p[0] = _center_distance(p_sq, cx, cy)
    tmp = np.arctan2(cy, cx)
    t[0], q[0] = mod2pi(tmp - alpha), mod2pi(beta - tmp)
    _unloop(t[0], q[0], p[0], beta - alpha)

    p_sq = 2.0 + d * d - 2.0 * cab + 2.0 * d * (sb - sa)
    cx, cy = d - sa + sb, ca - cb
    p[1] = _center_distance(p_sq, cx, cy)
    tmp = np.arctan2(cy, cx)
    t[1], q[1] = mod2pi(alpha - tmp), mod2pi(tmp - beta)
    _unloop(t[1], q[1], p[1], alpha - beta)

    # LSR / RSL need circles that do not overlap, p^2 >= 0.  Where they
    # touch, rounding can make p^2 slightly negative, and rejecting the word
    # there can leave a path a whole loop longer.
    p_sq = -2.0 + d * d + 2.0 * cab + 2.0 * d * (sa + sb)
    ok[2] = p_sq >= -SEGMENT_EPS
    p[2] = np.sqrt(np.maximum(p_sq, 0.0))
    tmp = np.arctan2(-ca - cb, d + sa + sb) - np.arctan2(-2.0, p[2])
    t[2], q[2] = mod2pi(tmp - alpha), mod2pi(tmp - beta)

    p_sq = -2.0 + d * d + 2.0 * cab - 2.0 * d * (sa + sb)
    ok[3] = p_sq >= -SEGMENT_EPS
    p[3] = np.sqrt(np.maximum(p_sq, 0.0))
    tmp = np.arctan2(ca + cb, d - sa - sb) - np.arctan2(2.0, p[3])
    t[3], q[3] = mod2pi(alpha - tmp), mod2pi(beta - tmp)

    tmp = (6.0 - d * d + 2.0 * cab + 2.0 * d * (sa - sb)) / 8.0
    ok[4] = np.abs(tmp) <= 1.0
    p[4] = mod2pi(TWO_PI - np.arccos(np.where(ok[4], tmp, 0.0)))
    t[4] = mod2pi(alpha - np.arctan2(ca - cb, d - sa + sb) + p[4] / 2.0)
    q[4] = mod2pi(alpha - beta - t[4] + p[4])

    tmp = (6.0 - d * d + 2.0 * cab + 2.0 * d * (sb - sa)) / 8.0
    ok[5] = np.abs(tmp) <= 1.0
    p[5] = mod2pi(TWO_PI - np.arccos(np.where(ok[5], tmp, 0.0)))
    t[5] = mod2pi(-alpha + np.arctan2(cb - ca, d + sa - sb) + p[5] / 2.0)
    q[5] = mod2pi(beta - alpha - t[5] + p[5])

    for seg in (t, p, q):
        seg[seg < SEGMENT_EPS] = 0.0
    return t, p, q, ok


def shortest_path(start: Pose, end: Pose, rho: float) -> DubinsPath:
    """Minimum-length Dubins path from start to end with turning radius rho.

    Every pose pair admits at least one word, so this always succeeds.
    Near-zero segments are clamped to exactly zero; length ties within 1e-9
    go to the earlier word in WORDS.
    """
    if rho <= 0.0:
        raise ValueError("turning radius must be positive")
    t, p, q, ok = (x[:, 0] for x in
                   _segments(pose_array([start]), pose_array([end]), rho))
    best = None
    best_cost = math.inf
    for k in np.nonzero(ok)[0]:
        cost = t[k] + p[k] + q[k]
        if cost < best_cost - 1e-9:
            best, best_cost = k, cost
    word = WORDS[best]
    straight = rho if word[1] == "S" else 1.0
    params = (float(t[best]), float(p[best]) * straight, float(q[best]))
    return DubinsPath(start=start, word=word, segment_params=params, rho=rho)


def path_length(path: DubinsPath) -> float:
    """Total arc length: rho times the turn angles plus the straight length."""
    t, p, q = path.segment_params
    if path.word[1] == "S":
        return path.rho * (t + q) + p
    return path.rho * (t + p + q)


def shortest_path_length(start: Pose, end: Pose, rho: float) -> float:
    return path_length(shortest_path(start, end, rho))


def path_endpoint(path: DubinsPath) -> Pose:
    x, y, theta = path.start.x, path.start.y, path.start.theta
    for kind, param in zip(path.word, path.segment_params):
        p = param if kind != "S" else param
        x, y, theta = _apply_segment(x, y, theta, kind, p, path.rho)
    return Pose(x, y, theta)


def _pose_at(path: DubinsPath, s: float) -> Pose:
    """Pose after arc length s along the path."""
    t, p, q = path.segment_params
    lengths = (
        path.rho * t,
        p if path.word[1] == "S" else path.rho * p,
        path.rho * q,
    )
    x, y, theta = path.start.x, path.start.y, path.start.theta
    remaining = s
    for kind, full_param, seg_len in zip(path.word, (t, p, q), lengths):
        if remaining >= seg_len:
            x, y, theta = _apply_segment(x, y, theta, kind, full_param, path.rho)
            remaining -= seg_len
        else:
            frac = remaining / seg_len if seg_len > 0.0 else 0.0
            x, y, theta = _apply_segment(x, y, theta, kind, full_param * frac, path.rho)
            remaining = 0.0
            break
    return Pose(x, y, theta)


def sample_path(path: DubinsPath, spacing: float) -> list[Pose]:
    """Poses exactly on the path at arc-length steps of at most `spacing`.

    The first sample is the start pose and the last the endpoint; samples on
    curve segments sit on the true circle, not on chords.
    """
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    total = path_length(path)
    if total <= SEGMENT_EPS:
        return [path.start]
    n = max(1, math.ceil(total / spacing - 1e-12))
    return [_pose_at(path, total * i / n) for i in range(n + 1)]


def pose_array(poses) -> np.ndarray:
    """Stack Pose objects (or raw (x, y, theta) rows) into an (n, 3) array."""
    seq = list(poses)
    if seq and isinstance(seq[0], Pose):
        return np.array([(p.x, p.y, p.theta) for p in seq], dtype=float)
    return np.asarray(seq, dtype=float).reshape(len(seq), 3)


def length_matrix(from_poses, to_poses, rho: float) -> np.ndarray:
    """Dubins shortest-path lengths between two pose sets, shape (n, m).

    Accepts sequences of Pose or arrays of rows (x, y, theta).
    """
    a = pose_array(from_poses)
    b = pose_array(to_poses)
    t, p, q, ok = _segments(a[:, None, :], b[None, :, :], rho)
    return rho * np.where(ok, t + p + q, np.inf).min(axis=0)
