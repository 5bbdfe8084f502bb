"""Closed-form Dubins shortest paths between oriented poses.

A Dubins path for a forward-only vehicle with minimum turning radius rho is
one of six segment words (LSL, RSR, LSR, RSL, RLR, LRL).  This module finds
the minimum-length words for pose pairs, evaluates lengths in bulk for cost
matrices, and samples poses exactly on the path arc with advance, the one
exact-arc step that the simulator flies too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Fixed word order; ties in length are broken toward the earlier word.
WORDS = ("LSL", "RSR", "LSR", "RSL", "RLR", "LRL")

# Segment parameters below this are clamped to zero to keep degenerate
# paths from flipping between adjacent words.
SEGMENT_EPS = 1e-9

# Pose pairs per _segments call in length_matrix.  The kernel's peak is
# about 310 bytes per pair, its results included (tracemalloc), so one chunk
# needs about 20 MB however many poses there are.
LENGTH_CHUNK_PAIRS = 1 << 16


def normalize_angle(theta: float) -> float:
    """Wrap an angle to [-pi, pi).

    In-range values pass through untouched so normalization is idempotent
    bit-for-bit (serialized poses re-normalize to themselves).
    """
    if -math.pi <= theta < math.pi:
        return theta
    return (theta + math.pi) % TWO_PI - math.pi


def mod2pi(theta):
    """theta % TWO_PI bit for bit, without the quotient that % also computes:
    fmod's remainder plus TWO_PI where it is negative and plus 0.0
    elsewhere, which turns -0.0 into +0.0 as % does."""
    r = np.fmod(theta, TWO_PI)
    r += (r < 0.0) * TWO_PI
    return r


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


def advance(x, y, theta, omega, v, dt):
    """One exact kinematic step at constant turn rate (arc, not chord)."""
    if omega == 0.0:
        return x + v * dt * math.cos(theta), y + v * dt * math.sin(theta), theta
    t2 = theta + omega * dt
    r = v / omega
    return (x + r * (math.sin(t2) - math.sin(theta)),
            y - r * (math.cos(t2) - math.cos(theta)),
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
    Entries of infeasible words are finite but meaningless, so callers mask
    them with ok: LSR and RSL are computed from clamped inputs, which keeps
    sqrt free of NaN and warnings, and RLR and LRL are zero wherever
    neither of them is feasible.
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
    t, p, q = np.zeros(shape), np.zeros(shape), np.zeros(shape)
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

    # RLR / LRL need |tmp| <= 1 (outer circles at most 4 rho apart), which
    # holds for about 12 % of a 20-task plan's pairs; their angles are
    # computed only there.  The subset comes from ok, not from a bound on d,
    # so rounding cannot drop a feasible pair.  Elsewhere both words are 0.
    tmp4 = (6.0 - d * d + 2.0 * cab + 2.0 * d * (sa - sb)) / 8.0
    tmp5 = (6.0 - d * d + 2.0 * cab + 2.0 * d * (sb - sa)) / 8.0
    ok[4] = np.abs(tmp4) <= 1.0
    ok[5] = np.abs(tmp5) <= 1.0
    sub = np.flatnonzero(ok[4] | ok[5])
    # from here on these names hold the subset, flattened
    alpha, beta, d, sa, ca, sb, cb, tmp4, tmp5 = (
        x.take(sub) for x in (alpha, beta, d, sa, ca, sb, cb, tmp4, tmp5))

    p4 = mod2pi(TWO_PI - np.arccos(np.clip(tmp4, -1.0, 1.0)))
    t4 = mod2pi(alpha - np.arctan2(ca - cb, d - sa + sb) + p4 / 2.0)
    q4 = mod2pi(alpha - beta - t4 + p4)

    p5 = mod2pi(TWO_PI - np.arccos(np.clip(tmp5, -1.0, 1.0)))
    t5 = mod2pi(-alpha + np.arctan2(cb - ca, d + sa - sb) + p5 / 2.0)
    q5 = mod2pi(beta - alpha - t5 + p5)
    for seg, v4, v5 in ((t, t4, t5), (p, p4, p5), (q, q4, q5)):
        seg[4].put(sub, v4)
        seg[5].put(sub, v5)

    for seg in (t, p, q):
        seg[seg < SEGMENT_EPS] = 0.0
    return t, p, q, ok


def shortest_paths(starts, ends, rho: float) -> list[DubinsPath]:
    """Minimum-length Dubins path of each (start, end) pose pair with
    turning radius rho, through one kernel call.

    Every pose pair admits at least one word, so this always succeeds.
    Near-zero segments are clamped to exactly zero; length ties within 1e-9
    go to the earlier word in WORDS.
    """
    if rho <= 0.0:
        raise ValueError("turning radius must be positive")
    if len(starts) != len(ends):
        raise ValueError(f"{len(starts)} starts but {len(ends)} ends")
    t, p, q, ok = (x.T.tolist() for x in
                   _segments(pose_array(starts), pose_array(ends), rho))
    paths = []
    for start, tk, pk, qk, okk in zip(starts, t, p, q, ok):
        best, best_cost = None, math.inf
        for k in range(len(WORDS)):
            cost = tk[k] + pk[k] + qk[k]
            if okk[k] and cost < best_cost - 1e-9:
                best, best_cost = k, cost
        word = WORDS[best]
        straight = rho if word[1] == "S" else 1.0
        params = (tk[best], pk[best] * straight, qk[best])
        paths.append(DubinsPath(start=start, word=word, segment_params=params,
                                rho=rho))
    return paths


def shortest_path(start: Pose, end: Pose, rho: float) -> DubinsPath:
    """shortest_paths on one (start, end) pair."""
    return shortest_paths([start], [end], rho)[0]


def path_length(path: DubinsPath) -> float:
    """Total arc length: rho times the turn angles plus the straight length."""
    t, p, q = path.segment_params
    if path.word[1] == "S":
        return path.rho * (t + q) + p
    return path.rho * (t + p + q)


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
        # an advance for a time of param: turn rate +-1 at speed rho, or 0 at 1
        omega = {"L": 1.0, "S": 0.0, "R": -1.0}[kind]
        v = path.rho if omega else 1.0
        if remaining >= seg_len:
            x, y, theta = advance(x, y, theta, omega, v, full_param)
            remaining -= seg_len
        else:
            frac = remaining / seg_len if seg_len > 0.0 else 0.0
            x, y, theta = advance(x, y, theta, omega, v, full_param * frac)
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
    out = np.empty((len(a), len(b)))
    rows = max(1, LENGTH_CHUNK_PAIRS // max(1, len(b)))
    for i in range(0, len(a), rows):
        t, p, q, ok = _segments(a[i:i + rows, None, :], b[None, :, :], rho)
        out[i:i + rows] = rho * np.where(ok, t + p + q, np.inf).min(axis=0)
    return out
