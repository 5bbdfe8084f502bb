"""Independent numerical oracles for the test suite.

Nothing in here reuses the closed-form machinery from the package: arcs are
advanced with rotation matrices about explicit turn centers, tour optima come
from dynamic programming or plain enumeration, and gradients from central
differences.  Slower than the real code on purpose.  The exceptions are:

- reference_segments, the Dubins kernel as it was before it computed CCC
  words only where they are feasible and wrapped angles with fmod: every
  word on every pair, wrapped with %.  It is kept as the byte-for-byte
  reference for the kernel, and reference_shortest_paths picks each pair's
  word from it by the package's rule.
- kernel_segments, every word of the package's kernel (_frame and _words)
  laid out as reference_segments lays them out, for comparing the two.
- apply_segment and reference_pose_at, the sampler's per-segment step as it
  was before sample_path flew segments with advance, the simulator's step.
  They are kept as the byte-for-byte reference for sample_path.
- forward, gradients and softmax, one-call conveniences over the package's
  forward_cached and backward that only tests use, and shortest_path_length
  over shortest_path and path_length.
- reference_backward, ReferenceAdam, reference_adam_step and
  reference_pack_network, the network code as it ran before parameters,
  gradients and moments shared one flat buffer per network: one array per
  layer's weights and biases, and a loop over them.  They are kept as the
  byte-for-byte reference for backward, adam_step and save_bundle.
- encode_privileged, the simulator's privileged encoding as it ran over
  arrays of padded waypoints before it joined the per-row pass.
- ReferenceBatch, EnvBatch with the array-level sensing, common encoding
  and privileged encoding it ran before its per-row pass: it shares
  EnvBatch's loading, kinematics and expert distance, and is kept as the
  byte-for-byte reference for the rest.
"""

import itertools
import math
import struct

import numpy as np
from scipy.optimize import brentq, minimize_scalar, root

from dtspn.dubins import (SEGMENT_EPS, WORDS, DubinsPath, Pose, _frame,
                          _words, normalize_angle, path_length, pose_array,
                          shortest_path)
from dtspn.env import (ALL, PROGRESS_WINDOW, EnvBatch, RewardBreakdown,
                       advance, goal_reward, imitation_reward)
from dtspn.learn.nets import backward, forward_cached

TWO_PI = 2.0 * math.pi


def wrap(a):
    return (a + math.pi) % TWO_PI - math.pi


def turn_step(x, y, th, phi, rho, side):
    """Advance along an arc of angle phi >= 0, turning left (side=+1) or
    right (side=-1) with radius rho."""
    cx = x - side * rho * math.sin(th)
    cy = y + side * rho * math.cos(th)
    rx, ry = x - cx, y - cy
    rot = side * phi
    c, s = math.cos(rot), math.sin(rot)
    return cx + c * rx - s * ry, cy + s * rx + c * ry, th + rot


def straight_step(x, y, th, length):
    return x + length * math.cos(th), y + length * math.sin(th), th


_CSC_SIDES = {"LSL": (1, 1), "RSR": (-1, -1), "LSR": (1, -1), "RSL": (-1, 1)}
_CCC_SIDES = {"LRL": 1, "RLR": -1}


def apply_segment(x, y, theta, kind, param, rho):
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


def reference_pose_at(path, s):
    """Pose after arc length s along a DubinsPath, stepped by apply_segment."""
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
            x, y, theta = apply_segment(x, y, theta, kind, full_param, path.rho)
            remaining -= seg_len
        else:
            frac = remaining / seg_len if seg_len > 0.0 else 0.0
            x, y, theta = apply_segment(x, y, theta, kind, full_param * frac,
                                        path.rho)
            remaining = 0.0
            break
    return Pose(x, y, theta)


def _mod2pi(theta):
    return theta % TWO_PI


def _center_distance(p_sq, cx, cy):
    p = np.sqrt(np.maximum(p_sq, 0.0))
    near = p_sq < 1e-6
    p[near] = np.hypot(cx[near], cy[near])
    return p


def _unloop(t, q, p, total):
    near = p * (TWO_PI - t) < SEGMENT_EPS
    t[near], q[near] = 0.0, _mod2pi(total[near])
    near = p * (TWO_PI - q) < SEGMENT_EPS
    t[near], q[near] = _mod2pi(total[near]), 0.0


def reference_segments(a, b, rho):
    """kernel_segments as the kernel was with every word computed on every
    pair and every angle wrapped with %; same arguments and results.  Its
    entries of infeasible words differ from the kernel's, the feasible ones
    may not."""
    dx = b[..., 0] - a[..., 0]
    dy = b[..., 1] - a[..., 1]
    line = np.arctan2(dy, dx)
    alpha = _mod2pi(a[..., 2] - line)
    beta = _mod2pi(b[..., 2] - line)
    d = np.hypot(dx, dy) / rho

    sa, ca = np.sin(alpha), np.cos(alpha)
    sb, cb = np.sin(beta), np.cos(beta)
    cab = np.cos(alpha - beta)
    shape = (6,) + np.shape(d)
    t, p, q = np.empty(shape), np.empty(shape), np.empty(shape)
    ok = np.ones(shape, dtype=bool)

    p_sq = 2.0 + d * d - 2.0 * cab + 2.0 * d * (sa - sb)
    cx, cy = d + sa - sb, cb - ca
    p[0] = _center_distance(p_sq, cx, cy)
    tmp = np.arctan2(cy, cx)
    t[0], q[0] = _mod2pi(tmp - alpha), _mod2pi(beta - tmp)
    _unloop(t[0], q[0], p[0], beta - alpha)

    p_sq = 2.0 + d * d - 2.0 * cab + 2.0 * d * (sb - sa)
    cx, cy = d - sa + sb, ca - cb
    p[1] = _center_distance(p_sq, cx, cy)
    tmp = np.arctan2(cy, cx)
    t[1], q[1] = _mod2pi(alpha - tmp), _mod2pi(tmp - beta)
    _unloop(t[1], q[1], p[1], alpha - beta)

    p_sq = -2.0 + d * d + 2.0 * cab + 2.0 * d * (sa + sb)
    ok[2] = p_sq >= -SEGMENT_EPS
    p[2] = np.sqrt(np.maximum(p_sq, 0.0))
    tmp = np.arctan2(-ca - cb, d + sa + sb) - np.arctan2(-2.0, p[2])
    t[2], q[2] = _mod2pi(tmp - alpha), _mod2pi(tmp - beta)

    p_sq = -2.0 + d * d + 2.0 * cab - 2.0 * d * (sa + sb)
    ok[3] = p_sq >= -SEGMENT_EPS
    p[3] = np.sqrt(np.maximum(p_sq, 0.0))
    tmp = np.arctan2(ca + cb, d - sa - sb) - np.arctan2(2.0, p[3])
    t[3], q[3] = _mod2pi(alpha - tmp), _mod2pi(beta - tmp)

    tmp = (6.0 - d * d + 2.0 * cab + 2.0 * d * (sa - sb)) / 8.0
    ok[4] = np.abs(tmp) <= 1.0
    p[4] = _mod2pi(TWO_PI - np.arccos(np.where(ok[4], tmp, 0.0)))
    t[4] = _mod2pi(alpha - np.arctan2(ca - cb, d - sa + sb) + p[4] / 2.0)
    q[4] = _mod2pi(alpha - beta - t[4] + p[4])

    tmp = (6.0 - d * d + 2.0 * cab + 2.0 * d * (sb - sa)) / 8.0
    ok[5] = np.abs(tmp) <= 1.0
    p[5] = _mod2pi(TWO_PI - np.arccos(np.where(ok[5], tmp, 0.0)))
    t[5] = _mod2pi(-alpha + np.arctan2(cb - ca, d + sa - sb) + p[5] / 2.0)
    q[5] = _mod2pi(beta - alpha - t[5] + p[5])

    for seg in (t, p, q):
        seg[seg < SEGMENT_EPS] = 0.0
    return t, p, q, ok


def kernel_segments(a, b, rho):
    """Normalized segment parameters (t, p, q) of every word from the
    package's kernel, and feasibility, for arrays of (x, y, theta) rows a
    and b that broadcast against each other.  Each result has shape (6,) +
    the broadcast shape, words in WORDS order, as reference_segments gives
    them; entries of infeasible words are 0.0 or +inf in t, masked by ok."""
    shape, frame = _frame(b[..., 0] - a[..., 0], b[..., 1] - a[..., 1],
                          a[..., 2], b[..., 2], rho)
    t, p, q = (np.zeros((6, frame[0].size)) for _ in range(3))
    ok = np.zeros(t.shape, dtype=bool)
    for k, (sub, tk, pk, qk) in enumerate(_words(*frame)):
        at = slice(None) if sub is None else sub
        t[k, at], p[k, at], q[k, at] = tk, pk, qk
        ok[k, at] = tk < np.inf
    return tuple(x.reshape((6,) + shape) for x in (t, p, q, ok))


def reference_shortest_paths(starts, ends, rho):
    """shortest_paths over reference_segments, one pair at a time: the
    first feasible word in WORDS order whose length t + p + q is more than
    1e-9 below the best so far."""
    t, p, q, ok = (x.T.tolist() for x in reference_segments(
        pose_array(starts), pose_array(ends), rho))
    paths = []
    for start, tk, pk, qk, okk in zip(starts, t, p, q, ok):
        best, best_cost = None, math.inf
        for k in range(len(WORDS)):
            cost = tk[k] + pk[k] + qk[k]
            if okk[k] and cost < best_cost - 1e-9:
                best, best_cost = k, cost
        straight = rho if WORDS[best][1] == "S" else 1.0
        paths.append(DubinsPath(start=start, word=WORDS[best], rho=rho,
                                segment_params=(tk[best], pk[best] * straight,
                                                qk[best])))
    return paths


def _csc_eval(word, p0, p1, rho, t):
    """Residual distance, straight length and total length for a CSC word as a
    function of the first turn angle t.  Vectorized over t."""
    s1, s2 = _CSC_SIDES[word]
    x0, y0, th0 = p0
    x1, y1, th1 = p1
    cx = x0 - s1 * rho * math.sin(th0)
    cy = y0 + s1 * rho * math.cos(th0)
    rx, ry = x0 - cx, y0 - cy
    rot = s1 * t
    c, s = np.cos(rot), np.sin(rot)
    ax = cx + c * rx - s * ry
    ay = cy + s * rx + c * ry
    h = th0 + rot
    # final turn angle is pinned by the heading constraint
    q = (s2 * (th1 - h)) % TWO_PI
    # displacement of the final arc, taken from the origin pose (0, 0, h)
    c2x = -s2 * rho * np.sin(h)
    c2y = s2 * rho * np.cos(h)
    r2x, r2y = -c2x, -c2y
    rot2 = s2 * q
    c2, s2_ = np.cos(rot2), np.sin(rot2)
    dx = c2x + c2 * r2x - s2_ * r2y
    dy = c2y + s2_ * r2x + c2 * r2y
    ux, uy = np.cos(h), np.sin(h)
    wx = x1 - (ax + dx)
    wy = y1 - (ay + dy)
    p = np.clip(wx * ux + wy * uy, 0.0, None)
    err = np.hypot(wx - p * ux, wy - p * uy)
    signed = wy * ux - wx * uy
    return err, signed, rho * (t + q) + p


def _ccc_eval(word, p0, p1, rho, t, u):
    """Residual and total length for a CCC word with first-turn t and middle
    turn u free.  Vectorized over matching-shape t, u."""
    s1 = _CCC_SIDES[word]
    x0, y0, th0 = p0
    x1, y1, th1 = p1
    cx = x0 - s1 * rho * math.sin(th0)
    cy = y0 + s1 * rho * math.cos(th0)
    rx, ry = x0 - cx, y0 - cy
    rot = s1 * t
    c, s = np.cos(rot), np.sin(rot)
    ax = cx + c * rx - s * ry
    ay = cy + s * rx + c * ry
    h1 = th0 + rot
    # middle turn, opposite side
    c2x = ax + s1 * rho * np.sin(h1)
    c2y = ay - s1 * rho * np.cos(h1)
    rot2 = -s1 * u
    c2, s2 = np.cos(rot2), np.sin(rot2)
    bx = c2x + c2 * (ax - c2x) - s2 * (ay - c2y)
    by = c2y + s2 * (ax - c2x) + c2 * (ay - c2y)
    h2 = h1 + rot2
    q = (s1 * (th1 - h2)) % TWO_PI
    c3x = bx - s1 * rho * np.sin(h2)
    c3y = by + s1 * rho * np.cos(h2)
    rot3 = s1 * q
    c3, s3 = np.cos(rot3), np.sin(rot3)
    ex = c3x + c3 * (bx - c3x) - s3 * (by - c3y)
    ey = c3y + s3 * (bx - c3x) + c3 * (by - c3y)
    err = np.hypot(x1 - ex, y1 - ey)
    return err, rho * (t + u + q)


def _csc_eval_s(word, p0, p1, rho, t):
    """Scalar-math twin of _csc_eval for refinement closures."""
    s1, s2 = _CSC_SIDES[word]
    x0, y0, th0 = p0
    x1, y1, th1 = p1
    cx = x0 - s1 * rho * math.sin(th0)
    cy = y0 + s1 * rho * math.cos(th0)
    rx, ry = x0 - cx, y0 - cy
    rot = s1 * t
    c, s = math.cos(rot), math.sin(rot)
    ax = cx + c * rx - s * ry
    ay = cy + s * rx + c * ry
    h = th0 + rot
    q = (s2 * (th1 - h)) % TWO_PI
    c2x = -s2 * rho * math.sin(h)
    c2y = s2 * rho * math.cos(h)
    rot2 = s2 * q
    c2, s2_ = math.cos(rot2), math.sin(rot2)
    dx = c2x - c2 * c2x + s2_ * c2y
    dy = c2y - s2_ * c2x - c2 * c2y
    ux, uy = math.cos(h), math.sin(h)
    wx = x1 - (ax + dx)
    wy = y1 - (ay + dy)
    p = max(wx * ux + wy * uy, 0.0)
    err = math.hypot(wx - p * ux, wy - p * uy)
    signed = wy * ux - wx * uy
    return err, signed, rho * (t + q) + p


def _ccc_eval_s(word, p0, p1, rho, t, u):
    """Scalar-math twin of _ccc_eval."""
    dx, dy, total = _ccc_miss_s(word, p0, p1, rho, t, u)
    return math.hypot(dx, dy), total


def _ccc_miss_s(word, p0, p1, rho, t, u):
    """Endpoint miss (dx, dy) and total length of a CCC word with first turn t
    and middle turn u.  The miss is smooth and 2*pi-periodic in t and u, so a
    root finder can drive it to zero from a grid start."""
    s1 = _CCC_SIDES[word]
    x0, y0, th0 = p0
    x1, y1, th1 = p1
    cx = x0 - s1 * rho * math.sin(th0)
    cy = y0 + s1 * rho * math.cos(th0)
    rx, ry = x0 - cx, y0 - cy
    rot = s1 * t
    c, s = math.cos(rot), math.sin(rot)
    ax = cx + c * rx - s * ry
    ay = cy + s * rx + c * ry
    h1 = th0 + rot
    c2x = ax + s1 * rho * math.sin(h1)
    c2y = ay - s1 * rho * math.cos(h1)
    rot2 = -s1 * u
    c2, s2 = math.cos(rot2), math.sin(rot2)
    bx = c2x + c2 * (ax - c2x) - s2 * (ay - c2y)
    by = c2y + s2 * (ax - c2x) + c2 * (ay - c2y)
    h2 = h1 + rot2
    q = (s1 * (th1 - h2)) % TWO_PI
    c3x = bx - s1 * rho * math.sin(h2)
    c3y = by + s1 * rho * math.cos(h2)
    rot3 = s1 * q
    c3, s3 = math.cos(rot3), math.sin(rot3)
    ex = c3x + c3 * (bx - c3x) - s3 * (by - c3y)
    ey = c3y + s3 * (bx - c3x) + c3 * (by - c3y)
    return ex - x1, ey - y1, rho * (t + u + q)


def _local_minima(err, thresh):
    left = np.roll(err, 1)
    right = np.roll(err, -1)
    return np.nonzero((err <= left) & (err <= right) & (err < thresh))[0]


def _refine_csc(word, p0, p1, rho, t_lo, t_hi, fit_tol):
    """Refine one grid-localized CSC fit.  The perpendicular residual crosses
    zero linearly at an exact fit, so a bracketed root gets machine precision;
    fall back to bounded minimization when there is no sign change (p = 0
    fits, tangency cases)."""

    def signed(t):
        return _csc_eval_s(word, p0, p1, rho, t % TWO_PI)[1]

    def resid(t):
        return _csc_eval_s(word, p0, p1, rho, t % TWO_PI)[0]

    s_lo, s_hi = signed(t_lo), signed(t_hi)
    if s_lo == 0.0:
        t_ref = t_lo
    elif s_hi == 0.0:
        t_ref = t_hi
    elif s_lo * s_hi < 0.0:
        t_ref = brentq(signed, t_lo, t_hi, xtol=1e-13)
    else:
        t_ref = minimize_scalar(resid, bounds=(t_lo, t_hi), method="bounded",
                                options={"xatol": 1e-12}).x
    t_ref = float(t_ref) % TWO_PI
    e, _, total = _csc_eval_s(word, p0, p1, rho, t_ref)
    if e >= fit_tol:
        return math.inf
    best = total
    # a final turn of nearly 2*pi reaches the same endpoint as no final turn
    s1, s2 = _CSC_SIDES[word]
    q = (s2 * (p1[2] - (p0[2] + s1 * t_ref))) % TWO_PI
    if q > TWO_PI - 1e-7:
        best -= rho * q
    return best


def dubins_oracle_length(p0, p1, rho, n_grid=1024, fit_tol=1e-6):
    """Shortest bang-straight-bang / bang-bang-bang length found by dense
    scanning plus local refinement.  p0, p1 are (x, y, theta) triples."""
    x0, y0, _ = p0
    x1, y1, _ = p1
    dist = math.hypot(x1 - x0, y1 - y0)
    t_grid = np.arange(n_grid) * (TWO_PI / n_grid)
    dt = TWO_PI / n_grid
    thresh = 6.0 * dt * (2.0 * rho + dist + TWO_PI * rho)
    best = math.inf

    for word in _CSC_SIDES:
        err, _, _ = _csc_eval(word, p0, p1, rho, t_grid)
        for i in _local_minima(err, thresh):
            cand = _refine_csc(word, p0, p1, rho,
                               t_grid[i] - dt, t_grid[i] + dt, fit_tol)
            best = min(best, cand)

    if dist <= 6.6 * rho:
        m = 48
        tg = np.arange(m) * (TWO_PI / m)
        tt, uu = np.meshgrid(tg, tg, indexing="ij")
        for word in _CCC_SIDES:
            err, _ = _ccc_eval(word, p0, p1, rho, tt, uu)
            order = np.argsort(err, axis=None)
            starts = []
            for k in order[:24]:
                i, j = divmod(int(k), m)
                if all(min(abs(i - a), m - abs(i - a))
                       + min(abs(j - b), m - abs(j - b)) > 3
                       for a, b in starts):
                    starts.append((i, j))
                if len(starts) == 3:
                    break

            def miss(v, w=word):
                return _ccc_miss_s(w, p0, p1, rho, v[0], v[1])[:2]

            for i, j in starts:
                res = root(miss, [tg[i], tg[j]], method="hybr")
                e, total = _ccc_eval_s(word, p0, p1, rho,
                                       res.x[0] % TWO_PI, res.x[1] % TWO_PI)
                if e < fit_tol:
                    best = min(best, total)
    return best


def held_karp_atsp(cost):
    """Exact ATSP optimum by subset DP.  cost is (n, n) with +inf on forbidden
    arcs.  Returns (optimal cycle cost, tour starting at node 0)."""
    n = len(cost)
    assert n >= 2
    full = 1 << (n - 1)
    dp = [[math.inf] * (n - 1) for _ in range(full)]
    parent = [[-1] * (n - 1) for _ in range(full)]
    for j in range(1, n):
        dp[1 << (j - 1)][j - 1] = cost[0][j]
    for mask in range(1, full):
        row = dp[mask]
        for j in range(1, n):
            cur = row[j - 1]
            if cur == math.inf or not (mask >> (j - 1)) & 1:
                continue
            cj = cost[j]
            for k in range(1, n):
                if (mask >> (k - 1)) & 1:
                    continue
                nxt = mask | (1 << (k - 1))
                cand = cur + cj[k]
                if cand < dp[nxt][k - 1]:
                    dp[nxt][k - 1] = cand
                    parent[nxt][k - 1] = j
    best, best_j = math.inf, -1
    last = full - 1
    for j in range(1, n):
        cand = dp[last][j - 1] + cost[j][0]
        if cand < best:
            best, best_j = cand, j
    tour = []
    mask, j = last, best_j
    while j > 0:
        tour.append(j)
        pj = parent[mask][j - 1]
        mask ^= 1 << (j - 1)
        j = pj
    tour.append(0)
    tour.reverse()
    return best, tour


def gtsp_brute_force(cost, clusters):
    """Exhaustive open-path GTSP optimum: one node per cluster, cluster 0
    first, no leg back to the start.  Returns (cost, node path)."""
    best, best_tour = math.inf, None
    rest = list(range(1, len(clusters)))
    for first in clusters[0]:
        for perm in itertools.permutations(rest):
            pools = [clusters[i] for i in perm]
            for combo in itertools.product(*pools):
                nodes = (first,) + combo
                total = 0.0
                for a, b in zip(nodes, nodes[1:]):
                    total += cost[a][b]
                    if total >= best:
                        break
                else:
                    best, best_tour = total, list(nodes)
    return best, best_tour


def gtsp_blocks(cost, cluster_of, n_clusters):
    """Cost blocks (k, k, m, m) between clusters padded with +inf to the
    largest cluster size m, the start cluster's DP vector and the node id
    at each padded slot (k, m)."""
    members = [np.nonzero(np.asarray(cluster_of) == c)[0]
               for c in range(n_clusters)]
    m = max(len(ids) for ids in members)
    nodes = np.zeros((n_clusters, m), dtype=int)
    blocks = np.full((n_clusters, n_clusters, m, m), np.inf)
    for a, ia in enumerate(members):
        nodes[a, :len(ia)] = ia
        for b, ib in enumerate(members):
            blocks[a, b, :len(ia), :len(ib)] = cost[np.ix_(ia, ib)]
    start = np.full(m, np.inf)
    start[:len(members[0])] = 0.0
    return blocks, start, nodes


def gtsp_dp(blocks, start, orders):
    """Plain pose-choice DP over cluster orders (rows, start cluster first):
    the vector of shortest open paths ending at each pose after each column,
    every row computed in full."""
    v = np.broadcast_to(start, (len(orders), len(start)))
    yield v
    for a, b in zip(orders.T, orders.T[1:]):
        t = blocks[a, b]
        t += v[:, :, None]
        v = t.min(axis=1)
        yield v


def gtsp_open_costs(blocks, start, orders):
    """Open-path length of each cluster order by the plain DP."""
    *_, v = gtsp_dp(blocks, start, orders)
    return v.min(axis=1)


def gtsp_moves(r):
    """Position permutations of r clusters: every move of a segment of 1-3
    clusters to another position and every segment reversal, sorted."""
    ident = list(range(r))
    perms = set()
    for s in (1, 2, 3):
        for i in range(r - s + 1):
            seg, rest = ident[i:i + s], ident[:i] + ident[i + s:]
            for j in range(len(rest) + 1):
                perms.add(tuple(rest[:j] + seg + rest[j:]))
    for i in range(r):
        for j in range(i + 2, r + 1):
            perms.add(tuple(ident[:i] + ident[i:j][::-1] + ident[j:]))
    perms.discard(tuple(ident))
    return np.array(sorted(perms), dtype=int).reshape(len(perms), r)


def gtsp_search_full_rescoring(cost, cluster_of, n_clusters, improve_eps,
                               restart_work):
    """Open-path GTSP node list by the cluster-order search that rescores
    every neighbour with the full DP: greedy DP extension, best-improvement
    descent over gtsp_moves until no neighbour is shorter by more than
    improve_eps, one search per first cluster when the moves do not reach
    every order and (k-1) * moves * k * m * m <= restart_work, then the
    pose choice by backtracking."""
    blocks, start, nodes = gtsp_blocks(cost, cluster_of, n_clusters)
    k, m = nodes.shape

    def greedy(head):
        order = list(head)
        left = [c for c in range(k) if c not in order]
        while left:
            costs = gtsp_open_costs(
                blocks, start, np.array([order + [c] for c in left]))
            order.append(left.pop(int(np.argmin(costs))))
        return np.array(order)

    def descend(order):
        cost = gtsp_open_costs(blocks, start, order[None])[0]
        while len(moves):
            cands = np.concatenate(
                (np.zeros((len(moves), 1), dtype=int), order[1:][moves]),
                axis=1)
            costs = gtsp_open_costs(blocks, start, cands)
            i = int(np.argmin(costs))
            if costs[i] >= cost - improve_eps:
                break
            order, cost = cands[i], costs[i]
        return order, cost

    moves = gtsp_moves(k - 1)
    exhaustive = len(moves) + 1 == math.factorial(k - 1)
    restart = (not exhaustive
               and (k - 1) * len(moves) * k * m * m <= restart_work)
    heads = [[0, f] for f in range(1, k)] if restart else [[0]]
    order, _ = min((descend(greedy(h)) for h in heads),
                   key=lambda found: found[1])
    vs = [v[0] for v in gtsp_dp(blocks, start, order[None])]
    slot = int(np.argmin(vs[-1]))
    chosen = [slot]
    for a, b, v in reversed(list(zip(order, order[1:], vs))):
        slot = int(np.argmin(v + blocks[a, b][:, slot]))
        chosen.append(slot)
    return [int(nodes[c, s]) for c, s in zip(order, reversed(chosen))]


def shortest_path_length(start, end, rho):
    return path_length(shortest_path(start, end, rho))


def forward(params, x):
    """Network output of one input row (1-D x) or of a batch of rows."""
    return forward_cached(params, x)[0]


def gradients(params, x, upstream):
    """forward_cached then backward, in one call: (weight grads, bias
    grads, input grad), the parameter grads as per-layer lists.  A row x
    runs as a one-row batch, whose cache backward takes."""
    _, cache = forward_cached(params, np.atleast_2d(x))
    grad, gin = backward(params, cache, upstream)
    return grad.weights, grad.biases, gin


def reference_backward(params, cache, upstream):
    """backward with a fresh array per layer gradient: returns (weight
    grads, bias grads, input grad)."""
    g = np.asarray(upstream, dtype=float).reshape(len(cache[0]), -1)
    n = len(params.weights)
    gws, gbs = [None] * n, [None] * n
    for i in range(n - 1, -1, -1):
        gws[i] = cache[i].T @ g
        gbs[i] = g.sum(axis=0)
        g = g @ params.weights[i].T
        if i > 0:
            g = g * (1.0 - cache[i] ** 2)
    return gws, gbs, g


class ReferenceAdam:
    """Adam moments as four per-layer lists and the step count."""

    def __init__(self, params):
        self.m_w = [np.zeros_like(w) for w in params.weights]
        self.v_w = [np.zeros_like(w) for w in params.weights]
        self.m_b = [np.zeros_like(b) for b in params.biases]
        self.v_b = [np.zeros_like(b) for b in params.biases]
        self.t = 0


def reference_adam_step(params, gws, gbs, state, lr, beta1=0.9,
                        beta2=0.999, eps=1e-8):
    """adam_step one layer array at a time, in place in params' arrays."""
    if lr == 0.0:
        return
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    for i in range(len(params.weights)):
        for p, g, m, v in ((params.weights[i], gws[i], state.m_w[i],
                            state.v_w[i]),
                           (params.biases[i], gbs[i], state.m_b[i],
                            state.v_b[i])):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def reference_pack_network(params):
    """A network's checkpoint record written layer by layer."""
    out = [struct.pack("<I", len(params.layer_dims))]
    out.append(struct.pack(f"<{len(params.layer_dims)}I", *params.layer_dims))
    for w, b in zip(params.weights, params.biases):
        out.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        out.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return b"".join(out)


def softmax(logits):
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def fd_gradients(fun, arrays, h=1e-5):
    """Central finite differences of scalar fun() with respect to each array
    in `arrays`, perturbed in place."""
    out = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat, gf = arr.ravel(), g.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            fp = fun()
            flat[i] = old - h
            fm = fun()
            flat[i] = old
            gf[i] = (fp - fm) / (2.0 * h)
        out.append(g)
    return out


def discounted_returns(rewards, gamma):
    """Return-to-go per step, computed right to left."""
    out = np.zeros(len(rewards))
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        out[i] = acc
    return out


def encode_common(pose, sensed, offsets, frame) -> np.ndarray:
    """Rows [p, per-task (dx, dy, bearing) in the body frame, sensed flags].

    pose (E, 3), sensed (E, n), offsets (E, 2, n) the task positions minus
    the pose's, frame (E, 3) each row's map half-extents hw, hh and the
    larger of them.  Positions are normalized by the half-extents, angles
    by pi.
    """
    out = []
    for (x, y, th), flags, (dxs, dys), (hw, hh, scale) in zip(
            pose.tolist(), sensed.tolist(), offsets.tolist(), frame.tolist()):
        c, s = math.cos(th), math.sin(th)
        row = [(x - hw) / hw, (y - hh) / hh, th / math.pi]
        for dx, dy in zip(dxs, dys):
            row += ((c * dx + s * dy) / scale, (-s * dx + c * dy) / scale,
                    normalize_angle(math.atan2(dy, dx) - th) / math.pi
                    if dx or dy else 0.0)
        out.append(row + flags)
    return np.array(out, dtype=float)


# waypoints that encode_privileged may index past a row's last one
WAYPOINT_PAD = PROGRESS_WINDOW + 4
_SPAN = np.arange(WAYPOINT_PAD + 1)


def encode_privileged(pose, progress, waypoints, frame):
    """Next four expert waypoints, each as (dx, dy, dtheta) relative to the
    agent pose; returns the (E, PRIV_DIM) rows and the advanced progress.

    waypoints (E, W, 3) holds each row's polyline followed by at least
    WAYPOINT_PAD copies of its last waypoint, which stand in for clamping
    indices to it; frame (E, 3) holds each row's map half-extents hw, hh
    and the larger of them.  progress moves to the nearest waypoint in a
    short window ahead of the current one (the first, so never onto a
    copy)."""
    rows = np.arange(len(pose))[:, None]
    ahead = waypoints[rows, progress[:, None] + _SPAN] - pose[:, None]
    window = ahead[:, :PROGRESS_WINDOW + 1]
    gain = np.hypot(window[:, :, 0], window[:, :, 1]).argmin(axis=1)
    out = []
    for th, slots, k, scale in zip(pose[:, 2].tolist(), ahead.tolist(),
                                   gain.tolist(), frame[:, 2].tolist()):
        c, s = math.cos(th), math.sin(th)
        row = []
        for dx, dy, dth in slots[k + 1:k + 5]:
            row += ((c * dx + s * dy) / scale, (-s * dx + c * dy) / scale,
                    normalize_angle(dth) / math.pi)
        out.append(row)
    return np.array(out, dtype=float), progress + gain


def padded_waypoints(path):
    """path's waypoint array followed by WAYPOINT_PAD copies of its last
    waypoint."""
    wp = path.waypoint_array()
    return np.vstack([wp, np.repeat(wp[-1:], WAYPOINT_PAD, axis=0)])


def map_frame(x):
    """Instance x's map half-extents and the larger of them."""
    hw, hh = 0.5 * x.map_width, 0.5 * x.map_height
    return np.array([hw, hh, max(hw, hh)])


def sense(tasks, sense2, xy, sensed):
    """Mark in sensed, (rows, n), the tasks, (rows, 2, 1, n), within range
    (squared, (rows, 1, 1)) of any of the points xy, (rows, 2, k), testing
    every point against every task.  Returns each row's count of newly
    sensed tasks and the task offsets from its last point, (rows, 2, n)."""
    d = tasks - xy[:, :, :, None]
    # summing the two squares over axis 1 adds them in order, x first
    hit = np.logical_or.reduce(np.add.reduce(d * d, axis=1) <= sense2, axis=1)
    newly = np.add.reduce(hit > sensed, axis=1)
    np.logical_or(sensed, hit, out=sensed)
    return newly, d[:, :, -1]


class ReferenceBatch(EnvBatch):
    """EnvBatch whose reset and step sense every substep point of every
    row as one array (sense) and then encode all rows (encode_common and
    encode_privileged).  Its state is arrays with one row per env, where
    EnvBatch keeps lists: pose (E, 3), sensed (E, n), all_sensed, done, t
    and progress (E,); only load and expert_distance are EnvBatch's."""

    def __init__(self, envs):
        envs = list(envs)
        e, n = len(envs), envs[0].n_tasks
        self._tasks = np.empty((e, 2, 1, n))
        self._sense2 = np.empty((e, 1, 1))
        self._frame = np.empty((e, 3))
        self._waypoints = np.zeros((e, 1, 3))
        self._starts = np.empty((e, 3))
        super().__init__(envs)
        self.pose = np.zeros((e, 3))
        self.sensed = np.zeros((e, n), dtype=bool)
        self.all_sensed = np.zeros(e, dtype=bool)
        self.t = np.zeros(e, dtype=np.int64)
        self.progress = np.zeros(e, dtype=np.int64)
        self.done = np.ones(e, dtype=bool)

    def load(self, i, env):
        super().load(i, env)
        self._starts[i] = self._start[i]
        x = env.instance
        self._tasks[i, :, 0] = x.task_array().T
        self._sense2[i] = x.r_sense * x.r_sense
        self._frame[i] = map_frame(x)
        if self.has_path:
            wp = env.expert_path.waypoint_array()
            grow = len(wp) + WAYPOINT_PAD - self._waypoints.shape[1]
            if grow > 0:
                self._waypoints = np.concatenate([self._waypoints, np.repeat(
                    self._waypoints[:, -1:], grow, axis=1)], axis=1)
            self._waypoints[i, :len(wp)] = wp
            self._waypoints[i, len(wp):] = wp[-1]

    def _observe_offsets(self, rows, offsets):
        if rows is ALL:
            pose, sensed, frame = self.pose, self.sensed, self._frame
        else:
            pose, sensed, frame = (self.pose[rows], self.sensed[rows],
                                   self._frame[rows])
        common = encode_common(pose, sensed, offsets, frame)
        priv = None
        if self.has_path:
            priv, self.progress[rows] = encode_privileged(
                pose, self.progress[rows], self._waypoints[rows], frame)
        if rows is not ALL:
            common, c = self.common.copy(), common
            common[rows] = c
            if priv is not None:
                priv, p = self.privileged.copy(), priv
                priv[rows] = p
        self.common, self.privileged = common, priv

    def reset(self, rows=ALL):
        start = self._starts[rows]
        self.pose[rows] = start
        self.t[rows] = 0
        self.progress[rows] = 0
        sensed = np.zeros((len(start), self.n_tasks), dtype=bool)
        _, offsets = sense(self._tasks[rows], self._sense2[rows],
                           start[:, 0:2, None], sensed)
        self.sensed[rows] = sensed
        self.all_sensed[rows] = self.done[rows] = sensed.all(axis=1)
        self._observe_offsets(rows, offsets)

    def step(self, actions):
        if self.done.any():
            raise RuntimeError("a row is done or was never reset")
        cfg = self.config
        points, rows = [], []
        for (x, y, theta), a in zip(self.pose.tolist(), actions.tolist()):
            if not 0 <= a < cfg.n_actions:
                raise ValueError(f"action {a} out of range")
            steps = [advance(x, y, theta, cfg.omegas[a], cfg.v, dt)
                     for dt in cfg.substeps]
            points.append(list(zip(*steps))[0:2])
            x, y, theta = steps[-1]
            rows.append((x, y, normalize_angle(theta)))
        newly, offsets = sense(self._tasks, self._sense2, np.array(points),
                               self.sensed)
        self.pose = np.array(rows)
        self.t += 1
        self.all_sensed = all_sensed = np.logical_and.reduce(self.sensed, axis=1)
        r = (self.expert_distance(self.pose[:, 0:2, None]) if self.has_path
             else np.full(len(self.pose), np.nan))
        if self.mode == "train":
            self.done = all_sensed | (r > cfg.train_cutoff_dist)
        else:
            self.done = all_sensed | (self.t >= cfg.max_steps_eval)
        r_im = list(map(imitation_reward, r.tolist()))
        if cfg.literal_goal_sum:
            r_goal = [goal_reward(k, a, s) for k, a, s in zip(
                newly.tolist(), all_sensed.tolist(),
                self.sensed.sum(axis=1).tolist())]
        else:
            r_goal = list(map(goal_reward, newly.tolist(), all_sensed.tolist()))
        im, goal, total = np.array(
            [r_im, r_goal, [a + b for a, b in zip(r_im, r_goal)]])
        self._observe_offsets(ALL, offsets)
        return RewardBreakdown(imitation=im, goal=goal, total=total, r=r,
                               newly_sensed=newly)
