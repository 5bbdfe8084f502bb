"""Sampling-based DTSPN heuristic expert.

Candidate visiting poses are sampled on a circle inside each task's sensing
disk, a generalized TSP over the clusters (Dubins edge costs) is reduced to an
asymmetric TSP with zero-cost intra-cluster cycles and big-M offset edges, the
ATSP is solved by direction-preserving local search, and the decoded tour is
stitched into a densified waypoint polyline.
"""

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .dubins import (TWO_PI, Pose, length_matrix, path_length, pose_array,
                     sample_path, shortest_path)
from .instance import Instance

# Smallest cost decrease counted as an improvement; keeps float noise from
# the big-M offsets out of the move loop.
GAIN_EPS = 1e-6


class SensingGap(RuntimeError):
    """A stitched expert path failed to sense some task (internal error:
    candidate circles lie strictly inside the sensing disks)."""

    def __init__(self, task, distance):
        super().__init__(f"task {task} never came within sensing range "
                         f"(closest approach {distance:.3f} m)")
        self.task = task
        self.distance = distance


class ExpertFormatError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class PoseClusterSet:
    """Candidate visiting poses per task plus the start cluster.

    The start cluster carries one variant per sampled heading; the solver's
    pick fixes the agent's initial heading.
    """

    clusters: Tuple[Tuple[Pose, ...], ...]
    start_cluster: Tuple[Pose, ...]


@dataclass
class GtspProblem:
    cost: np.ndarray            # (n, n), +inf on diagonal / intra-cluster
    cluster_of: np.ndarray      # node -> cluster, cluster 0 is the start
    n_clusters: int
    poses: Optional[Tuple[Pose, ...]] = None

    @property
    def n(self):
        return len(self.cost)


@dataclass
class AtspMatrix:
    n: int
    cost: np.ndarray
    cluster_of: np.ndarray
    big_m: float
    succ: np.ndarray            # intra-cluster cycle successor per node

    @property
    def n_clusters(self):
        return int(self.cluster_of.max()) + 1


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


def sample_poses(instance: Instance, n_pos: int, n_head: int) -> PoseClusterSet:
    """n_pos positions equally spaced on a circle of radius 0.8 * r_sense
    around each task, each with n_head equally spaced headings."""
    if n_pos < 1 or n_head < 1:
        raise ValueError(f"n_pos and n_head must be >= 1, got ({n_pos}, {n_head})")
    radius = 0.8 * instance.r_sense
    headings = [TWO_PI * k / n_head for k in range(n_head)]
    clusters = []
    for tx, ty in instance.tasks:
        cands = []
        for j in range(n_pos):
            ang = TWO_PI * j / n_pos
            px = tx + radius * math.cos(ang)
            py = ty + radius * math.sin(ang)
            cands.extend(Pose(px, py, h) for h in headings)
        clusters.append(tuple(cands))
    start = instance.start
    start_cluster = tuple(Pose(start.x, start.y, h) for h in headings)
    return PoseClusterSet(clusters=tuple(clusters), start_cluster=start_cluster)


def build_gtsp(clusters: PoseClusterSet, rho: float) -> GtspProblem:
    """Pairwise Dubins costs between candidates of different clusters; the
    start cluster is cluster 0."""
    groups = [clusters.start_cluster] + list(clusters.clusters)
    if any(len(g) == 0 for g in groups):
        raise ValueError("empty candidate cluster")
    poses = tuple(p for g in groups for p in g)
    cluster_of = np.concatenate(
        [np.full(len(g), i, dtype=int) for i, g in enumerate(groups)])
    cost = length_matrix(poses, poses, rho)
    same = cluster_of[:, None] == cluster_of[None, :]
    cost[same] = np.inf
    return GtspProblem(cost=cost, cluster_of=cluster_of,
                       n_clusters=len(groups), poses=poses)


def noon_bean(gtsp: GtspProblem) -> AtspMatrix:
    """GTSP -> ATSP: each cluster becomes a zero-cost directed cycle and every
    outgoing edge is re-attached to the cycle predecessor with a big-M offset,
    so optimal ATSP tours sweep whole clusters and decode to GTSP tours."""
    n = gtsp.n
    cluster_of = gtsp.cluster_of
    succ = np.arange(n)
    for c in range(gtsp.n_clusters):
        nodes = np.nonzero(cluster_of == c)[0]
        if len(nodes) == 0:
            raise ValueError(f"cluster {c} is empty")
        succ[nodes] = np.roll(nodes, -1)
    finite = np.isfinite(gtsp.cost)
    big_m = float(gtsp.cost[finite].sum()) + 1.0
    diff = cluster_of[:, None] != cluster_of[None, :]
    cost = np.where(diff, big_m + gtsp.cost[succ, :], np.inf)
    cycle = succ != np.arange(n)
    cost[np.nonzero(cycle)[0], succ[cycle]] = 0.0
    return AtspMatrix(n=n, cost=cost, cluster_of=cluster_of.copy(),
                      big_m=big_m, succ=succ)


def tour_cost(cost: np.ndarray, tour) -> float:
    order = np.asarray(tour)
    return float(cost[order, np.roll(order, -1)].sum())


def _nearest_neighbor(cost, start, n):
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    tour = [start]
    cur = start
    for _ in range(n - 1):
        row = np.where(visited, np.inf, cost[cur])
        cur = int(np.argmin(row))
        visited[cur] = True
        tour.append(cur)
    return tour


def _gather(cost, order):
    d2 = cost[np.ix_(order, order)]
    d2r = np.roll(d2, -1, axis=1)
    edges = np.ascontiguousarray(np.diagonal(d2r))
    return d2, d2r, edges


def _apply_move(order, i, j, k):
    """Cut after positions i < j < k and swap the two middle segments,
    keeping every segment's direction."""
    return np.concatenate((order[:i + 1], order[j + 1:k + 1],
                           order[i + 1:j + 1], order[k + 1:]))


def _sweep(cost, order, window, budget):
    """One first-improvement pass over the move set.  Returns the new order,
    whether anything improved, and the number of accepted moves."""
    n = len(order)
    moves = 0
    improved = False
    d2, d2r, edges = _gather(cost, order)

    i = 0
    while i <= n - 3:
        j_hi = min(i + window, n - 2)
        moved = False
        for j in range(i + 1, j_hi + 1):
            base = edges[i] + edges[j] - d2[i, j + 1]
            gains = base + edges[j + 1:] - d2[j + 1:, i + 1] - d2r[j, j + 1:]
            k_rel = int(np.argmax(gains))
            if gains[k_rel] > GAIN_EPS:
                order = _apply_move(order, i, j, j + 1 + k_rel)
                d2, d2r, edges = _gather(cost, order)
                moves += 1
                improved = True
                moved = True
                break
        if moves >= budget:
            return order, improved, moves
        if not moved:
            i += 1

    # short segments relocated backward to anywhere earlier in the tour
    j = 1
    while j <= n - 2:
        moved = False
        for seg in (1, 2, 3):
            k = j + seg
            if k > n - 1:
                break
            base = edges[j] + edges[k] - d2r[j, k]
            gains = base + edges[:j] - d2[:j, j + 1] - d2[k, 1:j + 1]
            i_best = int(np.argmax(gains))
            if gains[i_best] > GAIN_EPS:
                order = _apply_move(order, i_best, j, k)
                d2, d2r, edges = _gather(cost, order)
                moves += 1
                improved = True
                moved = True
                break
        if moves >= budget:
            return order, improved, moves
        if not moved:
            j += 1
    return order, improved, moves


def solve_atsp(matrix: AtspMatrix, seed: int = 0, max_moves: Optional[int] = None):
    """Hamiltonian cycle by nearest-neighbor construction plus sequential
    direction-preserving 3-opt and Or-opt local search; exhaustive for tiny
    problems.  Deterministic for a given seed."""
    n = matrix.n
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    cost = matrix.cost

    if n <= 8:
        best_cost, best_perm = math.inf, None
        for perm in itertools.permutations(range(1, n)):
            tour = (0,) + perm
            c = tour_cost(cost, tour)
            if c < best_cost - 1e-12:
                best_cost, best_perm = c, tour
        return list(best_perm)

    if max_moves is None:
        max_moves = 50 * n
    sizes = np.bincount(matrix.cluster_of)
    window = n if n <= 64 else max(12, 2 * int(sizes.max()) + 4)

    if n <= 40:
        starts = list(range(n))
    elif n <= 200:
        rng = np.random.default_rng(seed)
        extra = [int(s) for s in rng.integers(0, n, size=2)]
        starts = [0] + [s for s in dict.fromkeys(extra) if s != 0]
    else:
        starts = [0]

    best_tour, best_cost = None, math.inf
    for s in starts:
        order = np.asarray(_nearest_neighbor(cost, s, n))
        left = max_moves
        while left > 0:
            order, improved, used = _sweep(cost, order, window, left)
            left -= used
            if not improved:
                break
        c = tour_cost(cost, order)
        if c < best_cost - 1e-12:
            best_cost, best_tour = c, order
    zero = int(np.nonzero(best_tour == 0)[0][0])
    return list(np.roll(best_tour, -zero))


def decode_tour(tour, matrix: AtspMatrix):
    """One node per cluster, in tour order, start cluster first.

    Proper tours visit each cluster as one contiguous block whose entry node
    is the decoded pick; fragmented tours fall back to first-encounter repair.
    """
    n = len(tour)
    cl = [int(matrix.cluster_of[u]) for u in tour]
    k = matrix.n_clusters
    entries = [i for i in range(n) if cl[i] != cl[(i - 1) % n]]
    if len(entries) == k:
        ordered = [(cl[i], tour[i]) for i in entries]
    else:
        # repair: keep the first node seen from each cluster, tour order
        seen = {}
        for i in range(n):
            seen.setdefault(cl[i], tour[i])
        ordered = [(c, u) for c, u in seen.items()]
    found = [c for c, _ in ordered]
    if sorted(found) != list(range(k)):
        missing = sorted(set(range(k)) - set(found))
        raise ValueError(f"tour does not cover clusters {missing}; "
                         f"non-contiguous blocks could not be repaired")
    at = found.index(0)
    ordered = ordered[at:] + ordered[:at]
    return [u for _, u in ordered]


def plan(instance: Instance, n_pos: int = 8, n_head: int = 4, seed: int = 0,
         step_dist: Optional[float] = None,
         max_moves: Optional[int] = None) -> ExpertPath:
    """Full expert pipeline for one instance.

    Tasks already inside sensing range of the start are sensed at reset and
    excluded from the tour.  The returned polyline spacing is step_dist,
    which should be the simulator's EnvConfig.step_dist: the privileged
    encoder assumes one waypoint per env step.  It defaults to the default
    config's v*dt = 0.12*pi*turn_radius.
    """
    t0 = time.perf_counter()
    if step_dist is None:
        step_dist = 0.12 * math.pi * instance.turn_radius
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

    sampled = sample_poses(instance, n_pos, n_head)
    subset = PoseClusterSet(
        clusters=tuple(sampled.clusters[i] for i in remaining),
        start_cluster=sampled.start_cluster)
    gtsp = build_gtsp(subset, instance.turn_radius)
    atsp = noon_bean(gtsp)
    tour = solve_atsp(atsp, seed=seed, max_moves=max_moves)
    chosen = decode_tour(tour, atsp)
    visiting = tuple(gtsp.poses[u] for u in chosen)

    waypoints = [visiting[0]]
    total = 0.0
    for a, b in zip(visiting, visiting[1:]):
        leg = shortest_path(a, b, instance.turn_radius)
        total += path_length(leg)
        waypoints.extend(sample_path(leg, step_dist)[1:])

    wp = np.array([(p.x, p.y) for p in waypoints])
    first_idx = np.empty(instance.n_tasks, dtype=int)
    for t in range(instance.n_tasks):
        d = np.hypot(wp[:, 0] - tasks[t, 0], wp[:, 1] - tasks[t, 1])
        hits = np.nonzero(d <= instance.r_sense)[0]
        if len(hits) == 0:
            raise SensingGap(t, float(d.min()))
        first_idx[t] = hits[0]
    sensed_order = tuple(sorted(range(instance.n_tasks),
                                key=lambda t: (first_idx[t], t)))

    return ExpertPath(waypoints=tuple(waypoints), total_length=total,
                      sensed_order=sensed_order, visiting_poses=visiting,
                      solve_time=time.perf_counter() - t0)


def save(ep: ExpertPath, path) -> None:
    lines = ["dtspn-expert v1",
             f"length {ep.total_length!r}",
             "order " + " ".join(str(i) for i in ep.sensed_order)]
    for p in ep.waypoints:
        lines.append(f"wp {p.x!r} {p.y!r} {p.theta!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load(path) -> ExpertPath:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0].strip() != "dtspn-expert v1":
        raise ExpertFormatError("missing 'dtspn-expert v1' header", line=1)
    length = None
    order = None
    waypoints = []
    for line_no, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, *parts = line.split()
        try:
            if key == "length":
                length = float(parts[0])
            elif key == "order":
                order = tuple(int(p) for p in parts)
            elif key == "wp":
                if len(parts) != 3:
                    raise ExpertFormatError(
                        f"field 'wp' expects 3 numbers, got {len(parts)}", line_no)
                waypoints.append(Pose(*(float(p) for p in parts)))
            else:
                raise ExpertFormatError(f"unknown field '{key}'", line_no)
        except (ValueError, IndexError) as exc:
            if isinstance(exc, ExpertFormatError):
                raise
            raise ExpertFormatError(f"bad value in field '{key}': {parts}", line_no)
    if length is None:
        raise ExpertFormatError("missing field 'length'")
    if order is None:
        raise ExpertFormatError("missing field 'order'")
    if not waypoints:
        raise ExpertFormatError("missing field 'wp' (no waypoints)")
    return ExpertPath(waypoints=tuple(waypoints), total_length=length,
                      sensed_order=order)
