"""Sampling-based DTSPN heuristic expert.

Candidate visiting poses are sampled on a circle inside each task's sensing
disk, one group of (x, y, theta) rows per task plus the start group, each
position's headings in one run of adjacent rows.  build_gtsp finds those
runs, and the Dubins lengths between different groups, except those into
the start group, are priced in one kernel pass over the plan's position
pairs and laid out as padded blocks between groups, the only form the
search reads; no open path from the start uses the rest.  A generalized
TSP over the groups is solved for an open path from the start: local
search over the cluster order, with each order scored by a dynamic
program that picks one pose per cluster, gives the order and one slot per
cluster.  The chosen poses are stitched into a densified waypoint
polyline.
"""

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .dubins import (TWO_PI, Pose, normalize_angle, pair_lengths, path_length,
                     pose_array, sample_path, shortest_paths)
from .env import EnvConfig, config_for
from .instance import Instance

# Smallest path-length decrease (m) that counts as an improvement, so float
# noise cannot keep the local search moving.
IMPROVE_EPS = 1e-9

# Cap on the elements of one (prefixes, m, m) DP temporary: 512 KB of
# float64, which stays in a core's L2 cache.  On a 2-core x86 machine (2 MB
# L2 a core), 2^16 was the fastest of 2^13 to 2^21 for solve_gtsp on 8x4
# plans: 17-21 % under 2^21 at 20 tasks and 27 % at 40 tasks.  Smaller
# chunks pay more per-chunk Python overhead, larger ones miss the cache.
DP_CHUNK_ELEMENTS = 1 << 16

# Largest DP work of one search round over all first clusters (clusters k,
# padded cluster size m: (k-1) starts * neighbours * k layers * m * m) for
# which the search restarts from every first cluster.  At the default 8x4
# sampling the bound falls between 7 tasks (restarted search 35 ms, cost
# matrix 46 ms on a 2-core x86 machine) and 8 tasks (70 ms against 56 ms),
# timed when every neighbour was scored by the full DP and every CCC word
# computed on every pair.  On the same machine with the search and kernel
# of 2026-10, 7 tasks take 19 ms (restarted) against 16 ms, 8 tasks 4-5 ms
# (one descent) against 18-20 ms (medians over generate(k, 0..9), 3 runs
# each, in three runs).
RESTART_WORK = 1 << 22

# Default positions per sensing circle and headings per position, and the
# most sampled poses per task; the planner's pose-pair costs grow as N^2.
DEFAULT_POS, DEFAULT_HEADS = 8, 4
MAX_POSES_PER_TASK = 256


class SensingGap(RuntimeError):
    """A stitched expert path failed to sense some task (internal error:
    candidate circles lie strictly inside the sensing disks)."""

    def __init__(self, task, distance):
        super().__init__(f"task {task} never came within sensing range "
                         f"(closest approach {distance:.3f} m)")
        self.task = task
        self.distance = distance


@dataclass
class ExpertPath:
    """Visit order and densified waypoint polyline of the heuristic tour."""

    waypoints: Tuple[Pose, ...]
    total_length: float
    sensed_order: Tuple[int, ...]
    visiting_poses: Optional[Tuple[Pose, ...]] = field(default=None, compare=False)
    solve_time: Optional[float] = field(default=None, compare=False)

    def waypoint_array(self) -> np.ndarray:
        return pose_array(self.waypoints)


def check_sampling(n_pos: int, n_head: int) -> None:
    """ValueError unless n_pos and n_head are >= 1 and their product is at
    most MAX_POSES_PER_TASK."""
    if n_pos < 1 or n_head < 1 or n_pos * n_head > MAX_POSES_PER_TASK:
        raise ValueError(f"n_pos and n_head must be >= 1 and n_pos * n_head "
                         f"<= {MAX_POSES_PER_TASK}, got ({n_pos}, {n_head})")


def sample_poses(instance: Instance, n_pos: int, n_head: int):
    """The start group and one group per task, each an array of (x, y,
    theta) rows.  The start group holds the start position with n_head
    equally spaced headings; a task's group holds n_pos positions equally
    spaced on a circle of radius 0.8 * r_sense around it, each with those
    headings, so its n_head poses at a position are adjacent rows."""
    check_sampling(n_pos, n_head)
    radius = 0.8 * instance.r_sense
    headings = [normalize_angle(TWO_PI * k / n_head) for k in range(n_head)]
    angles = [TWO_PI * j / n_pos for j in range(n_pos)]
    ring = [(radius * math.cos(a), radius * math.sin(a)) for a in angles]
    tasks = [np.array([(tx + dx, ty + dy, h) for dx, dy in ring
                       for h in headings]) for tx, ty in instance.tasks]
    start = instance.start
    return np.array([(start.x, start.y, h) for h in headings]), tasks


def _run_length(xy):
    """Largest H such that the rows of xy split into runs of H consecutive
    rows with bitwise equal (x, y): 1 when no two neighbours share one.
    Bits, not values: 0.0 and -0.0 can give different bearings."""
    bits = np.ascontiguousarray(xy).view(np.uint64)
    starts = np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1)) + 1
    return max(1, math.gcd(len(xy), *starts.tolist()))


def build_gtsp(groups, rho: float):
    """Dubins lengths between pose groups, the start group first, as blocks
    (k, k, m, m) padded to the largest group size m: blocks[a, b, i, j] runs
    from pose i of group a to pose j of group b.  Only the blocks an open
    tour from the start can use (a != b, b != 0) are priced, in one
    pair_lengths pass over the position pairs between such groups, each
    chunk written straight into the blocks; the rest, and pads, are +inf.
    This is the one place that finds the positions the kernel prices: runs
    of H poses at one (x, y), H the gcd of every group's _run_length (1 if
    some group's poses do not come in equal runs).  Also returns the start
    group's DP vector (0 on its poses, +inf at pads)."""
    groups = [pose_array(g) for g in groups]
    sizes = [len(g) for g in groups]
    if min(sizes) == 0:
        raise ValueError(f"pose group {sizes.index(0)} is empty")
    k, m = len(groups), max(sizes)
    h = math.gcd(*(_run_length(g[:, :2]) for g in groups))
    # the group of each position and the row of its first pose in the group
    owner = np.repeat(np.arange(k), [s // h for s in sizes])
    row = np.concatenate([np.arange(0, s, h) for s in sizes])
    pairs = np.argwhere((owner[:, None] != owner) & (owner != 0))
    i, j = pairs.T
    # flat index into blocks of each pair's first pose pair, and the offset
    # of each (from-heading, to-heading) from it
    first = ((owner[i] * k + owner[j]) * m + row[i]) * m + row[j]
    offset = (np.arange(h)[:, None] * m + np.arange(h))[:, :, None]
    poses = np.concatenate(groups)
    blocks = np.full((k, k, m, m), np.inf)
    flat = blocks.reshape(-1)
    for rows, lengths in pair_lengths(poses[::h, :2],
                                      poses[:, 2].reshape(-1, h), pairs, rho):
        flat[offset + first[rows]] = lengths
    start = np.full(m, np.inf)
    start[:sizes[0]] = 0.0
    return blocks, start


def _step(blocks, v, a, b):
    """One step of the min-plus DP that picks one pose per cluster: from the
    shortest open paths v (rows, m) ending at each pose of clusters a, those
    ending at each pose of clusters b.  a and b are index arrays (so the
    gathered blocks are a copy); a row of v may serve every row."""
    t = blocks[a, b]
    t += v[:, :, None]
    return t.min(axis=1)


def _prefix_tree(rows):
    """Prefix tree of rows whose equal prefixes are adjacent (as in sorted
    rows): for each column d >= 1, the first row of each distinct prefix
    rows[:, :d+1] and the index of its parent among the distinct prefixes
    rows[:, :d]; the number of distinct first entries; and the index of
    each row among the distinct rows."""
    new = np.ones(rows.shape, dtype=bool)
    new[1:] = np.logical_or.accumulate(rows[1:] != rows[:-1], axis=1)
    ids = np.cumsum(new, axis=0) - 1
    first = [col.nonzero()[0] for col in new.T]
    levels = tuple((f, ids[f, d - 1]) for d, f in enumerate(first[1:], 1))
    return levels, len(first[0]), ids[:, -1]


def _open_costs(blocks, start, orders, tree, bound):
    """Open-path length of each cluster order (rows, start cluster first,
    with tree = _prefix_tree(orders)).

    The DP of _step runs over the prefix tree: the vector of a prefix
    (shortest partial paths ending at each pose of its last cluster) is
    computed once per distinct prefix, from its parent's, in chunks so the
    (prefixes, m, m) temporary stays bounded.  Costs are non-negative, so a
    prefix's smallest entry bounds every completion from below: a prefix
    whose smallest entry is >= bound is not extended, and its rows score inf.
    """
    levels, n_first, last = tree
    m = len(start)
    chunk = max(1, DP_CHUNK_ELEMENTS // (m * m))
    v = np.repeat(start[None], n_first, axis=0)
    live = np.full(n_first, start.min() < bound)
    for d, (first, parent) in enumerate(levels, start=1):
        grow = live[parent].nonzero()[0]
        v_next = np.full((len(first), m), np.inf)
        live = np.zeros(len(first), dtype=bool)
        for lo in range(0, len(grow), chunk):
            p = grow[lo:lo + chunk]
            r = first[p]
            u = _step(blocks, v[parent[p]], orders[r, d - 1], orders[r, d])
            v_next[p] = u
            live[p] = u.min(axis=1) < bound
        v = v_next
    return v.min(axis=1)[last]


@functools.lru_cache(maxsize=16)
def _moves(k):
    """Neighbours of an order of k clusters, as read-only position rows
    (start cluster first, lexicographically sorted), with their
    _prefix_tree: every move of a segment of 1-3 task clusters to another
    position and every segment reversal."""
    ident = list(range(1, k))
    perms = set()
    for s in (1, 2, 3):
        for i in range(k - s):
            seg, rest = ident[i:i + s], ident[:i] + ident[i + s:]
            for j in range(len(rest) + 1):
                perms.add(tuple(rest[:j] + seg + rest[j:]))
    for i in range(k - 1):
        for j in range(i + 2, k):
            perms.add(tuple(ident[:i] + ident[i:j][::-1] + ident[j:]))
    perms.discard(tuple(ident))
    rows = np.array([(0,) + p for p in sorted(perms)],
                    dtype=int).reshape(len(perms), k)
    tree = _prefix_tree(rows)
    for a in (rows, tree[2], *(x for level in tree[0] for x in level)):
        a.flags.writeable = False
    return rows, tree


def _greedy(blocks, start, head):
    """Greedy extension of the order prefix head: append the cluster that
    gives the shortest partial path until every cluster is in.  The
    candidates share the current order as prefix, so its DP vector is
    carried along.  Returns the order and its open-path length."""
    order = list(head)
    v = start[None]
    for a, b in zip(order, order[1:]):
        v = _step(blocks, v, [a], [b])
    cost = v.min()
    left = [c for c in range(len(blocks)) if c not in order]
    while left:
        u = _step(blocks, v, [order[-1]], left)
        costs = u.min(axis=1)
        i = int(np.argmin(costs))
        v, cost = u[i:i + 1], costs[i]
        order.append(left.pop(i))
    return np.array(order), cost


def _descend(blocks, start, order, cost, moves, tree):
    """Best-improvement local search from an order of open-path length cost:
    go to the best neighbour until none is shorter by more than IMPROVE_EPS.
    Neighbours that cannot beat that margin are dropped unscored."""
    while len(moves):
        cands = order[moves]
        bound = cost - IMPROVE_EPS
        costs = _open_costs(blocks, start, cands, tree, bound)
        i = int(np.argmin(costs))
        if costs[i] >= bound:
            break
        order, cost = cands[i], costs[i]
    return order, cost


def solve_gtsp(blocks: np.ndarray, start: np.ndarray):
    """A short open path through the clusters of build_gtsp's blocks, one
    pose each: the cluster order (start cluster first) and the chosen slot
    in each cluster, in that order.

    The cluster order starts from greedy DP extension and is improved by
    best-improvement local search over segment moves and reversals; every
    order is scored by the exact pose-choice DP of _step.  Where the
    moves do not already reach every order (more than 3 task clusters) but
    a descent costs little, one descent can stop short of the optimum, so
    the search runs once per choice of first cluster and keeps the best.
    Costs must be non-negative (inf allowed); no block from a cluster to
    itself, and no block into the start cluster, is read.
    """
    if not (blocks >= 0).all():
        raise ValueError("GTSP costs must be non-negative and not NaN")
    k, m = len(blocks), len(start)
    moves, tree = _moves(k)
    exhaustive = len(moves) + 1 == math.factorial(k - 1)
    restart = (not exhaustive
               and (k - 1) * len(moves) * k * m * m <= RESTART_WORK)
    heads = [[0, f] for f in range(1, k)] if restart else [[0]]
    order, _ = min((_descend(blocks, start, *_greedy(blocks, start, h),
                             moves, tree) for h in heads),
                   key=lambda found: found[1])

    # backtrack: the pose of each cluster that the next cluster's pick came from
    vs = [start[None]]
    for a, b in zip(order, order[1:]):
        vs.append(_step(blocks, vs[-1], [a], [b]))
    slot = int(np.argmin(vs[-1]))
    chosen = [slot]
    for a, b, v in reversed(list(zip(order, order[1:], vs))):
        slot = int(np.argmin(v[0] + blocks[a, b][:, slot]))
        chosen.append(slot)
    return order.tolist(), chosen[::-1]


def plan(instance: Instance, n_pos: int = DEFAULT_POS,
         n_head: int = DEFAULT_HEADS,
         config: Optional[EnvConfig] = None) -> ExpertPath:
    """Full expert pipeline for one instance, sampling n_pos positions
    with n_head headings each per task (see sample_poses).

    The tour is an open path: it starts at the start pose, with the heading
    the solver picks, and ends at the last visiting pose, with no return leg.
    Tasks already inside sensing range of the start are sensed at reset and
    excluded from the tour.  Waypoints are one env step apart, the
    step_dist of config_for(instance, config), since the privileged encoder
    reads one waypoint per env step; a config whose turning radius is not
    the instance's raises ValueError.
    """
    t0 = time.perf_counter()
    step_dist = config_for(instance, config).step_dist
    start = instance.start
    tasks = instance.task_array()
    d_start = np.hypot(tasks[:, 0] - start.x, tasks[:, 1] - start.y)
    remaining = [i for i in range(instance.n_tasks)
                 if d_start[i] > instance.r_sense]

    if not remaining:
        return ExpertPath(waypoints=(start,), total_length=0.0,
                          sensed_order=tuple(range(instance.n_tasks)),
                          visiting_poses=(start,),
                          solve_time=time.perf_counter() - t0)

    start_group, task_groups = sample_poses(instance, n_pos, n_head)
    groups = [start_group] + [task_groups[i] for i in remaining]
    order, slots = solve_gtsp(*build_gtsp(groups, instance.turn_radius))
    # Python floats, so that waypoints and the saved text hold no np.float64
    visiting = tuple(Pose(*groups[c][s].tolist())
                     for c, s in zip(order, slots))

    waypoints = [visiting[0]]
    total = 0.0
    for leg in shortest_paths(visiting[:-1], visiting[1:],
                              instance.turn_radius):
        total += path_length(leg)
        waypoints.extend(sample_path(leg, step_dist)[1:])

    # (waypoints, tasks) distances; a task's first hit orders it, ties by
    # task index
    wp = np.array([(p.x, p.y) for p in waypoints])
    d = np.hypot(wp[:, 0, None] - tasks[:, 0], wp[:, 1, None] - tasks[:, 1])
    hit = d <= instance.r_sense
    missed = np.flatnonzero(~hit.any(axis=0))
    if len(missed):
        raise SensingGap(int(missed[0]), float(d[:, missed[0]].min()))
    sensed_order = tuple(np.argsort(hit.argmax(axis=0), kind="stable")
                         .tolist())

    return ExpertPath(waypoints=tuple(waypoints), total_length=total,
                      sensed_order=sensed_order, visiting_poses=visiting,
                      solve_time=time.perf_counter() - t0)


def save(ep: ExpertPath, path) -> None:
    """Write ep as dtspn-expert v1 text, for inspection: no stage reads it."""
    lines = ["dtspn-expert v1",
             f"length {ep.total_length!r}",
             "order " + " ".join(str(i) for i in ep.sensed_order)]
    for p in ep.waypoints:
        lines.append(f"wp {p.x!r} {p.y!r} {p.theta!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
