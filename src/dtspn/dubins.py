"""Closed-form Dubins shortest paths between oriented poses.

A Dubins path for a forward-only vehicle with minimum turning radius rho is
one of six segment words (LSL, RSR, LSR, RSL, RLR, LRL).  This module finds
the minimum-length words for pose pairs, prices lengths in bulk, and samples
poses exactly on the path arc with advance, the one exact-arc step that the
simulator flies too.  Bulk lengths come from one chunked loop, pair_lengths,
which prices positions x headings: it takes positions, the same number of
headings at each, and a list of position pairs, and prices every heading
combination of each pair.  A chunk may span any number of from-positions
(or planner groups); which poses share a position is for the caller to say.
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

# Pose pairs per chunk of pair_lengths, whatever positions or groups the
# chunk's position pairs come from.  A chunk's peak is about 250-280 bytes
# per pair (tracemalloc), so one chunk needs about 4 MB however many poses
# there are, near the 2 MB L2 cache a core of a 2-core x86 machine has.
# There, 20-task and 40-task cost matrices took about as long at 2^14 and
# 2^15 pairs, and 5-15 % longer at 2^13 and 2^16.
LENGTH_CHUNK_PAIRS = 1 << 14


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


def _unloop(t, q, p, x, y):
    """Keep rounding from adding a loop to an LSL or RSR path, in place.

    When the two turn centers nearly coincide (the goal lies on or near the
    start's own circle), the heading between them, which splits the total
    turn x - y into t and q, is uncertain, and t or q can come out just
    short of a whole turn (or exactly one, as mod2pi rounds a tiny negative
    angle up to 2pi).  Where rotating that heading onto the start (goal)
    heading moves the far center by less than SEGMENT_EPS, the whole turn
    goes into q (t) instead.
    """
    near = p * (TWO_PI - t) < SEGMENT_EPS
    t[near], q[near] = 0.0, mod2pi(x[near] - y[near])
    near = p * (TWO_PI - q) < SEGMENT_EPS
    t[near], q[near] = mod2pi(x[near] - y[near]), 0.0


def _clamp(*segs):
    """Clamp segment parameters below SEGMENT_EPS to zero, in place."""
    for seg in segs:
        seg[seg < SEGMENT_EPS] = 0.0
    return segs


def _words(alpha, beta, d, sa, ca, sb, cb):
    """Normalized segment parameters (sub, t, p, q) of each word, in WORDS
    order, from the standard frame: start at the origin with heading alpha,
    goal at (d, 0) with heading beta, sa = sin(alpha) and so on, as 1-D
    arrays of one length n.

    sub is None where t, p and q have n entries, else the indices of the
    entries that they hold.  Curve parameters are turn angles; for CSC
    words p is the straight length over rho.  Segments below SEGMENT_EPS
    are clamped to zero, and t is +inf wherever the word is infeasible, so
    that t + p + q is the word's length over rho or +inf.
    """
    dd = d * d
    d2 = 2.0 * d
    cab2 = 2.0 * np.cos(alpha - beta)

    # LSL / RSR are always feasible; p is the distance between the two turn
    # centers and tmp the heading from one to the other.
    csc = 2.0 + dd - cab2
    y0 = d2 * (sa - sb)
    cx, cy = d + sa - sb, cb - ca
    p = _center_distance(csc + y0, cx, cy)
    tmp0 = np.arctan2(cy, cx)
    t, q = mod2pi(tmp0 - alpha), mod2pi(beta - tmp0)
    _unloop(t, q, p, beta, alpha)
    yield (None,) + _clamp(t, p, q)

    y1 = d2 * (sb - sa)
    cx, cy = d - sa + sb, ca - cb
    p = _center_distance(csc + y1, cx, cy)
    tmp1 = np.arctan2(cy, cx)
    t, q = mod2pi(alpha - tmp1), mod2pi(tmp1 - beta)
    _unloop(t, q, p, alpha, beta)
    yield (None,) + _clamp(t, p, q)

    # LSR / RSL need circles that do not overlap, p^2 >= 0.  Where they
    # touch, rounding can make p^2 slightly negative, and rejecting the word
    # there can leave a path a whole loop longer.
    csc = -2.0 + dd + cab2
    y2 = d2 * (sa + sb)
    p_sq = csc + y2
    p = np.sqrt(np.maximum(p_sq, 0.0))
    tmp = np.arctan2(-ca - cb, d + sa + sb) - np.arctan2(-2.0, p)
    t, q = mod2pi(tmp - alpha), mod2pi(tmp - beta)
    _clamp(t, p, q)
    t[p_sq < -SEGMENT_EPS] = np.inf
    yield None, t, p, q

    p_sq = csc - y2
    p = np.sqrt(np.maximum(p_sq, 0.0))
    tmp = np.arctan2(ca + cb, d - sa - sb) - np.arctan2(2.0, p)
    t, q = mod2pi(alpha - tmp), mod2pi(beta - tmp)
    _clamp(t, p, q)
    t[p_sq < -SEGMENT_EPS] = np.inf
    yield None, t, p, q

    # RLR / LRL need |x / 8| <= 1 (outer circles at most 4 rho apart),
    # which holds for about 12 % of a 20-task plan's pairs; each word is
    # computed only there.  The subset comes from that test, not from a
    # bound on d, so rounding cannot drop a feasible pair; dividing by 8 is
    # exact, so the test reads |x| <= 8.  The headings between the turn
    # centers are those of RSR and LSL.
    ccc = 6.0 - dd + cab2
    x = ccc + y0
    sub = np.flatnonzero(np.abs(x) <= 8.0)
    a, b = alpha.take(sub), beta.take(sub)
    p = mod2pi(TWO_PI - np.arccos(x.take(sub) / 8.0))
    t = mod2pi(a - tmp1.take(sub) + p / 2.0)
    q = mod2pi(a - b - t + p)
    yield (sub,) + _clamp(t, p, q)

    x = ccc + y1
    sub = np.flatnonzero(np.abs(x) <= 8.0)
    a, b = alpha.take(sub), beta.take(sub)
    p = mod2pi(TWO_PI - np.arccos(x.take(sub) / 8.0))
    t = mod2pi(-a + tmp0.take(sub) + p / 2.0)
    q = mod2pi(b - a - t + p)
    yield (sub,) + _clamp(t, p, q)


def _frame(dx, dy, theta_a, theta_b, rho):
    """The standard normalized frame of _words, start at the origin and goal
    at (d, 0), from offsets (dx, dy) between positions and the headings at
    either end, which broadcast against them.  Each term is computed at the
    shape of its own inputs and then copied out to the broadcast shape,
    which _words needs contiguous; returns that shape and _words' inputs,
    flattened.  Every kernel call comes through here, so the turning radius
    is checked here."""
    if not 0.0 < rho < math.inf:    # NaN fails too
        raise ValueError(f"turning radius must be positive and finite, "
                         f"got {rho}")
    line = np.arctan2(dy, dx)
    alpha = mod2pi(theta_a - line)
    beta = mod2pi(theta_b - line)
    shape = np.broadcast_shapes(alpha.shape, beta.shape)
    return shape, [np.broadcast_to(x, shape).ravel() for x in (
        alpha, beta, np.hypot(dx, dy) / rho, np.sin(alpha), np.cos(alpha),
        np.sin(beta), np.cos(beta))]


def shortest_paths(starts, ends, rho: float) -> list[DubinsPath]:
    """Minimum-length Dubins path of each (start, end) Pose pair with
    turning radius rho, through one kernel call.

    Every pair of finite poses admits at least one word.  Near-zero
    segments are clamped to exactly zero; as _words yields each word, it
    replaces a pair's best only if more than 1e-9 shorter, so length ties
    go to the earlier word in WORDS.
    """
    if len(starts) != len(ends):
        raise ValueError(f"{len(starts)} starts but {len(ends)} ends")
    if not all(isinstance(p, Pose) for p in (*starts, *ends)):
        raise ValueError("starts and ends must be Pose objects")
    a, b = pose_array(starts), pose_array(ends)
    _, frame = _frame(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1], a[:, 2], b[:, 2],
                      rho)
    word = np.zeros(len(a), dtype=np.intp)
    best = np.full(len(a), np.inf)
    t, p, q = np.zeros((3, len(a)))
    for k, (sub, tk, pk, qk) in enumerate(_words(*frame)):
        cost = tk + pk
        cost += qk
        won = cost < (best if sub is None else best.take(sub)) - 1e-9
        at = won if sub is None else sub[won]
        word[at] = k
        best[at], t[at], p[at], q[at] = cost[won], tk[won], pk[won], qk[won]
    if np.isinf(best).any():
        raise ValueError("no Dubins word joins non-finite poses")
    paths = []
    for start, k, tk, pk, qk in zip(starts, word.tolist(), t.tolist(),
                                    p.tolist(), q.tolist()):
        straight = rho if WORDS[k][1] == "S" else 1.0
        paths.append(DubinsPath(start=start, word=WORDS[k],
                                segment_params=(tk, pk * straight, qk),
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


def pair_lengths(positions, headings, pairs, rho: float):
    """Dubins shortest-path lengths between the poses at listed pairs of
    positions, one chunk of LENGTH_CHUNK_PAIRS // H^2 pairs at a time.

    positions is (P, 2) rows (x, y) and headings (P, H) the H headings at
    each position, so position p holds the poses (x, y, headings[p, i]).
    pairs holds (from-position, to-position) rows.  Yields (rows, lengths)
    per chunk: rows is its slice of pairs, and lengths[i, j, n], shape (H,
    H, chunk), runs from heading i of position pairs[rows][n, 0] to heading
    j of position pairs[rows][n, 1].  Bearing and distance are computed
    once per position pair, alpha once per (from-heading, pair) and beta
    once per (to-heading, pair).
    """
    x, y = np.asarray(positions, dtype=float).T
    th = np.asarray(headings, dtype=float).T
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    step = max(1, LENGTH_CHUNK_PAIRS // len(th) ** 2)
    for lo in range(0, len(pairs), step):
        rows = slice(lo, min(lo + step, len(pairs)))
        i, j = pairs[rows].T
        shape, frame = _frame(x[j] - x[i], y[j] - y[i], th[:, None, i],
                              th[None, :, j], rho)
        best = None
        for sub, t, p, q in _words(*frame):
            cost = t + p
            cost += q
            if sub is None:
                best = cost if best is None else np.minimum(best, cost,
                                                            out=best)
            else:
                best.put(sub, np.minimum(best.take(sub), cost))
        best *= rho
        yield rows, best.reshape(shape)
