import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dtspn.dubins as dubins_mod
from dtspn.dubins import Pose, normalize_angle, pair_lengths, pose_array
from dtspn import expert as ex
from dtspn.env import DtspnEnv, EnvConfig, config_for
from dtspn import instance as inst
from oracles import (gtsp_blocks, gtsp_brute_force, gtsp_moves,
                     gtsp_open_costs, gtsp_search_full_rescoring,
                     held_karp_atsp, length_matrix, sensing,
                     shortest_path_length)


def make_gtsp(rng, sizes, lo=1.0, hi=100.0):
    """Random asymmetric GTSP node costs with the given cluster sizes
    (cluster 0 first), +inf within a cluster."""
    n = sum(sizes)
    cluster_of = np.concatenate([np.full(s, i) for i, s in enumerate(sizes)])
    cost = rng.uniform(lo, hi, size=(n, n))
    cost[cluster_of[:, None] == cluster_of[None, :]] = np.inf
    return SimpleNamespace(cost=cost, cluster_of=cluster_of,
                           n_clusters=len(sizes))


def rough_gtsp(rng, k, max_size=5):
    """Random GTSP of k clusters of 1..max_size nodes, made hard on the
    scorer: uniform costs, integer costs 0-4 (many exact ties) or costs
    within 1e-6 of 0 or of 1 (tiny improvements), and some +inf edges."""
    sizes = list(rng.integers(1, max_size + 1, size=k))
    g = make_gtsp(rng, sizes)
    finite = np.isfinite(g.cost)
    kind = rng.integers(3)
    if kind == 1:
        g.cost[finite] = rng.integers(0, 5, size=int(finite.sum()))
    elif kind == 2:
        g.cost[finite] = rng.choice((0.0, 1.0)) + rng.uniform(
            0.0, 1e-6, size=int(finite.sum()))
    g.cost[rng.random(g.cost.shape) < rng.uniform(0.0, 0.3)] = np.inf
    return g


def blocks_of(g):
    """The blocks, start vector and slot node ids of a node-cost GTSP."""
    return gtsp_blocks(g.cost, g.cluster_of, g.n_clusters)


def solve(g):
    """ex.solve_gtsp on the blocks of a node-cost GTSP, as a node path."""
    blocks, start, nodes = blocks_of(g)
    order, slots = ex.solve_gtsp(blocks, start)
    return [int(nodes[c, s]) for c, s in zip(order, slots)]


def planner_groups(x, n_pos=8, n_head=4):
    """sample_poses' groups, the start group first."""
    start, tasks = ex.sample_poses(x, n_pos, n_head)
    return [start] + tasks


def node_gtsp(groups, rho):
    """The node form of pose groups: the length matrix over all their
    poses, each its own position, with no sentinels, and the group of each
    pose."""
    poses = np.concatenate([pose_array(g) for g in groups])
    cluster_of = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    return SimpleNamespace(cost=length_matrix(poses, poses, rho),
                           cluster_of=cluster_of, n_clusters=len(groups))


def node_path(groups, order, slots):
    """solve_gtsp's (order, slots) as ids into the concatenated groups."""
    offsets = np.cumsum([0] + [len(g) for g in groups])
    return [int(offsets[c] + s) for c, s in zip(order, slots)]


def score(blocks, start, orders, bound=np.inf):
    """ex._open_costs of rows in any order: sorted for the prefix tree,
    then put back."""
    perm = np.lexsort(orders.T[::-1])
    out = np.empty(len(orders))
    out[perm] = ex._open_costs(blocks, start, orders[perm],
                               ex._prefix_tree(orders[perm]), bound)
    return out


def search_reference(g):
    return gtsp_search_full_rescoring(g.cost, g.cluster_of, g.n_clusters,
                                      ex.IMPROVE_EPS, ex.RESTART_WORK)


def clusters_from(cluster_of):
    k = int(max(cluster_of)) + 1
    return [list(np.nonzero(np.asarray(cluster_of) == c)[0]) for c in range(k)]


# ---------------------------------------------------------------- sampling

def test_sample_poses_smallest_budget():
    x = inst.generate(3, seed=2)
    start, tasks = ex.sample_poses(x, 1, 1)
    assert all(t.shape == (1, 3) for t in tasks)
    for (tx, ty), t in zip(x.tasks, tasks):
        px, py, theta = t[0].tolist()
        assert px == pytest.approx(tx + 0.8 * 58.0, abs=1e-9)
        assert py == pytest.approx(ty, abs=1e-9)
        assert theta == 0.0
    assert start.tolist() == [[x.start.x, x.start.y, 0.0]]


def test_sample_poses_geometry():
    x = inst.generate(4, seed=5)
    start, tasks = ex.sample_poses(x, 8, 4)
    headings = [normalize_angle(2 * math.pi * h / 4) for h in range(4)]
    for (tx, ty), t in zip(x.tasks, tasks):
        assert t.shape == (32, 3)
        for px, py, _ in t.tolist():
            d = math.hypot(px - tx, py - ty)
            assert d == pytest.approx(0.8 * 58.0, abs=1e-9)
            ang = math.atan2(py - ty, px - tx) % (2 * math.pi)
            r = ang % (math.pi / 4)
            assert min(r, math.pi / 4 - r) < 1e-9
        # the ring from math.cos and math.sin, headings as a Pose keeps them
        ring = [(tx + 0.8 * 58.0 * math.cos(2 * math.pi * j / 8),
                 ty + 0.8 * 58.0 * math.sin(2 * math.pi * j / 8))
                for j in range(8)]
        assert t.tolist() == [[px, py, h] for px, py in ring for h in headings]
    assert start.tolist() == [[x.start.x, x.start.y, h] for h in headings]
    with pytest.raises(ValueError):
        ex.sample_poses(x, 0, 1)


def test_sample_poses_bounds_the_pose_budget():
    x = inst.generate(1, seed=5)
    _, tasks = ex.sample_poses(x, 16, 16)
    assert len(tasks[0]) == ex.MAX_POSES_PER_TASK
    for n_pos, n_head in ((17, 16), (16, 17), (257, 1)):
        with pytest.raises(ValueError, match="256"):
            ex.sample_poses(x, n_pos, n_head)


# ---------------------------------------------------------------- build_gtsp

def read_blocks(k):
    """The (a, b) blocks an open tour from cluster 0 can use: a != b and
    b != 0."""
    read = ~np.eye(k, dtype=bool)
    read[:, 0] = False
    return read


def check_blocks(groups, rho):
    """build_gtsp on groups against the reference layout of the full length
    matrix: every read block bit for bit, every other block +inf, and the
    start vector bit for bit.  Returns the blocks, start and node form."""
    g = node_gtsp(groups, rho)
    blocks, start = ex.build_gtsp(groups, rho)
    want_blocks, want_start, _ = blocks_of(g)
    read = read_blocks(len(groups))
    assert blocks.shape == want_blocks.shape
    assert blocks[read].tobytes() == want_blocks[read].tobytes()
    assert np.isposinf(blocks[~read]).all()
    assert start.tobytes() == want_start.tobytes()
    return blocks, start, g


def test_build_gtsp_costs_and_sentinels():
    a = Pose(0, 0, 0)
    b = Pose(100, 50, 1.0)
    c = Pose(-80, 20, 2.0)
    blocks, start = ex.build_gtsp([[a], [b, c]], 30.0)
    assert blocks.shape == (2, 2, 2, 2)
    for j, q in enumerate((b, c)):
        assert blocks[0, 1, 0, j] == pytest.approx(
            shortest_path_length(a, q, 30.0))
    # only the start-to-task block is read: the rest, and the pads of the
    # start group, are +inf
    assert np.isinf(blocks[0, 1, 1]).all()
    assert np.isinf(blocks[1]).all() and np.isinf(blocks[0, 0]).all()
    assert start.tolist() == [0.0, math.inf]


def test_dubins_length_matrix_is_asymmetric():
    a, b = Pose(0, 0, 0), Pose(100, 50, 1.0)
    cost = length_matrix([a, b], [a, b], 30.0)
    assert cost[0, 1] != cost[1, 0]


def test_build_gtsp_seven_node_count():
    rng = np.random.default_rng(0)
    poses = [Pose(*rng.uniform((0, 0, -3), (300, 300, 3))) for _ in range(7)]
    groups = [poses[:1], poses[1:3], poses[3:5], poses[5:7]]
    blocks, start = ex.build_gtsp(groups, 30.0)
    assert blocks.shape == (4, 4, 2, 2) and start.shape == (2,)
    # the start pose to each of the 6 task poses, and each task pose to the
    # 4 poses of the other task groups
    assert np.isfinite(blocks).sum() == 6 + 6 * 4


def test_build_gtsp_rejects_empty_group():
    p = Pose(0.0, 0.0, 0.0)
    for groups in ([[p], [], [p]], [[], [p]]):
        with pytest.raises(ValueError, match="empty"):
            ex.build_gtsp(groups, 30.0)


@pytest.mark.parametrize("n_tasks, span", [(3, 300.0), (7, 500.0),
                                           (20, 800.0)])
@pytest.mark.parametrize("n_pos, n_head", [(8, 4), (3, 5), (1, 1)])
def test_build_gtsp_equals_reference_blocks_on_planner_groups(
        n_tasks, span, n_pos, n_head):
    # the read blocks and the start vector are the reference layout of the
    # full length matrix, bit for bit, +inf pads included
    x = inst.generate(n_tasks, 900 + n_tasks, map_size=(span, span))
    groups = planner_groups(x, n_pos, n_head)
    blocks, start, g = check_blocks(groups, x.turn_radius)
    # the solver's pick as node ids, against the full-rescoring search
    assert (node_path(groups, *ex.solve_gtsp(blocks, start))
            == search_reference(g))


def test_build_gtsp_equals_reference_blocks_on_random_pose_groups():
    # groups of 1-3 uniform random Poses on a 300 m square, as in gate 2
    rng = np.random.default_rng(77)
    for _ in range(40):
        groups = [[Pose(*rng.uniform(0.0, 300.0, size=2),
                        rng.uniform(-math.pi, math.pi)) for _ in range(s)]
                  for s in rng.integers(1, 4, size=int(rng.integers(1, 6)))]
        blocks, start, g = check_blocks(groups, 30.0)
        assert (node_path(groups, *ex.solve_gtsp(blocks, start))
                == search_reference(g))


def test_build_gtsp_equals_reference_blocks_on_mixed_groups():
    # planner groups (runs of n_head poses at a position) beside a one-pose
    # group, a random-pose group (run length 1) and a copy of a task group
    # (two tasks at one position), so build_gtsp prices at H = 1
    x = inst.generate(3, 907, map_size=(300.0, 300.0))
    rng = np.random.default_rng(907)
    groups = planner_groups(x)
    groups += [[Pose(150.0, 150.0, 0.5)],
               [Pose(*rng.uniform(0.0, 300.0, size=2),
                     rng.uniform(-math.pi, math.pi)) for _ in range(5)],
               groups[2]]
    blocks, start, g = check_blocks(groups, x.turn_radius)
    assert (node_path(groups, *ex.solve_gtsp(blocks, start))
            == search_reference(g))


def test_build_gtsp_finds_positions_by_bits(monkeypatch):
    # build_gtsp is the one place that splits groups into positions: runs
    # of H poses with bitwise equal (x, y), H the gcd over the groups.  The
    # read blocks equal the node form's, each pose its own position.
    runs = []

    def recording(positions, headings, pairs, rho):
        runs.append(headings.shape[1])
        return pair_lengths(positions, headings, pairs, rho)

    monkeypatch.setattr(ex, "pair_lengths", recording)
    x = inst.generate(3, 908, map_size=(300.0, 300.0))
    grid = planner_groups(x)
    # 0.0 and -0.0 are equal but can give different bearings (arctan2 of
    # +-0.0 over -1 is +-pi), so they do not share a position
    zeros = [np.array([[0.0, 0.0, 0.5], [-0.0, 0.0, -1.0]]),
             np.array([[0.0, -0.0, 2.0], [-0.0, -0.0, 3.0]]),
             np.array([[60.0, 0.0, 0.0], [60.0, 0.0, 1.0]])]
    # unequal runs: the first position twice, the rest once
    uneven = grid[1][::4].copy()
    uneven[1, :2] = uneven[0, :2]
    # runs of 2 and 6 beside runs of 4 group by 2
    mixed = grid[1][:16].copy()
    mixed[2:4, :2] = mixed[4:6, :2]
    for groups, rho, h in ((zeros, 30.0, 1), (zeros[2:] * 2, 30.0, 2),
                           ([grid[0], uneven, grid[2]], x.turn_radius, 1),
                           ([grid[0], mixed, grid[2]], x.turn_radius, 2),
                           (grid, x.turn_radius, 4)):
        runs.clear()
        check_blocks(groups, rho)
        assert runs == [h]


@pytest.mark.parametrize("n_tasks, span", [(3, 300.0), (7, 500.0),
                                           (20, 800.0)])
def test_solve_gtsp_reads_no_block_within_a_cluster_or_into_the_start(
        n_tasks, span):
    # the full reference blocks with the unread ones poisoned by 0.0 or
    # +inf give build_gtsp's order and slots
    x = inst.generate(n_tasks, 930 + n_tasks, map_size=(span, span))
    groups = planner_groups(x)
    want = ex.solve_gtsp(*ex.build_gtsp(groups, x.turn_radius))
    full, start, _ = blocks_of(node_gtsp(groups, x.turn_radius))
    unread = ~read_blocks(len(groups))
    assert ex.solve_gtsp(full, start) == want
    for poison in (0.0, np.inf):
        blocks = full.copy()
        blocks[unread] = poison
        assert ex.solve_gtsp(blocks, start) == want, poison


@pytest.mark.parametrize("n_tasks, span, seed, pairs", [
    (3, 300.0, 105, 6_528), (20, 800.0, 105, 391_680)])
def test_plan_prices_only_the_pairs_the_search_reads(monkeypatch, n_tasks,
                                                     span, seed, pairs):
    # 8x4 sampling: the 4 start poses to every task pose, and each task's
    # 32 poses to those of the other tasks, in one pair_lengths pass
    x = inst.generate(n_tasks, seed, map_size=(span, span))
    start = x.start
    assert all(math.hypot(tx - start.x, ty - start.y) > x.r_sense
               for tx, ty in x.tasks)
    passes, priced = [], []

    def counting(*args):
        passes.append(args)
        for rows, lengths in pair_lengths(*args):
            priced.append(lengths.size)
            yield rows, lengths

    monkeypatch.setattr(ex, "pair_lengths", counting)
    ex.plan(x)
    assert sum(priced) == pairs
    assert len(passes) == 1


@pytest.mark.parametrize("n_tasks, span, position_pairs, chunks", [
    (3, 300.0, 408, 1), (20, 800.0, 24_480, 24)])
def test_plan_prices_in_chunks_that_span_source_groups(
        monkeypatch, n_tasks, span, position_pairs, chunks):
    # 8x4 sampling: 16 pose pairs per position pair, so a chunk holds
    # LENGTH_CHUNK_PAIRS // 16 position pairs from any source groups;
    # pricing each source group on its own would take 42 chunks at 20 tasks
    assert chunks == math.ceil(position_pairs
                               / (dubins_mod.LENGTH_CHUNK_PAIRS // 16))
    x = inst.generate(n_tasks, 105, map_size=(span, span))
    frames = []

    def counting(*args):
        frames.append(args)
        return frame(*args)

    frame = dubins_mod._frame
    monkeypatch.setattr(dubins_mod, "_frame", counting)
    ex.plan(x)
    # the pricing chunks, then the one shortest_paths call that stitches
    assert len(frames) == chunks + 1


# ---------------------------------------------------------------- solve_gtsp

def open_cost(g, path):
    return sum(g.cost[u, v] for u, v in zip(path, path[1:]))


def block_cost(blocks, order, slots):
    """Open-path length of solve_gtsp's (order, slots) in blocks."""
    return sum(blocks[a, b, i, j] for a, b, i, j in
               zip(order, order[1:], slots, slots[1:]))


def open_dp(g, order):
    """Shortest open path through the clusters in this order, one node each,
    by plain DP over each pair of consecutive clusters."""
    cl = clusters_from(g.cluster_of)
    v = np.zeros(len(cl[order[0]]))
    for a, b in zip(order, order[1:]):
        v = (v[:, None] + g.cost[np.ix_(cl[a], cl[b])]).min(axis=0)
    return float(v.min())


def neighbours(order):
    """Every move of a 1-3 cluster segment and every segment reversal,
    the start cluster staying first."""
    head, rest = list(order[:1]), list(order[1:])
    r = len(rest)
    for s in (1, 2, 3):
        for i in range(r - s + 1):
            seg, others = rest[i:i + s], rest[:i] + rest[i + s:]
            for j in range(len(others) + 1):
                yield head + others[:j] + seg + others[j:]
    for i in range(r):
        for j in range(i + 2, r + 1):
            yield head + rest[:i] + rest[i:j][::-1] + rest[j:]


def test_solve_gtsp_trivial_sizes():
    rng = np.random.default_rng(4)
    g = make_gtsp(rng, [3])
    assert ex.solve_gtsp(*blocks_of(g)[:2]) == ([0], [0])
    g = make_gtsp(rng, [2, 3])
    path = solve(g)
    assert open_cost(g, path) == g.cost[:2, 2:].min()
    assert list(g.cluster_of[path]) == [0, 1]


def test_solve_gtsp_near_optimal_small():
    # singleton clusters: the open-path optimum is Held-Karp with free return
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 10))
        g = make_gtsp(rng, [1] * n)
        path = solve(g)
        assert sorted(path) == list(range(n)) and path[0] == 0
        free_return = g.cost.copy()
        free_return[1:, 0] = 0.0
        exact, _ = held_karp_atsp(free_return)
        if open_cost(g, path) <= 1.05 * exact + 1e-9:
            hits += 1
    assert hits >= 95


def test_solve_gtsp_exact_up_to_three_task_clusters(monkeypatch):
    # with at most 3 task clusters every order is a neighbour, so one descent
    # from the greedy start is exact and the search does not restart
    monkeypatch.setattr(ex, "RESTART_WORK", 0)
    for seed in range(40):
        rng = np.random.default_rng(2000 + seed)
        sizes = list(rng.integers(1, 4, size=int(rng.integers(2, 5))))
        g = make_gtsp(rng, sizes)
        best, _ = gtsp_brute_force(g.cost, clusters_from(g.cluster_of))
        assert open_cost(g, solve(g)) == pytest.approx(best, rel=1e-12)


def test_dp_matches_brute_force_over_pose_choices():
    rng = np.random.default_rng(5)
    for _ in range(10):
        sizes = list(rng.integers(1, 4, size=5))
        g = make_gtsp(rng, sizes)
        cl = clusters_from(g.cluster_of)
        blocks, start, _ = blocks_of(g)
        orders = np.array([[0] + list(rng.permutation(np.arange(1, 5)))
                           for _ in range(6)])
        got = score(blocks, start, orders)
        for order, cost in zip(orders, got):
            best = min(open_cost(g, nodes) for nodes in
                       itertools.product(*(cl[c] for c in order)))
            assert cost == pytest.approx(best, rel=1e-12)


def test_moves_keep_the_neighbourhood_and_its_order():
    for k in range(1, 12):
        rows, _ = ex._moves(k)
        want = gtsp_moves(k - 1)
        assert np.array_equal(rows[:, 1:], 1 + want) and not rows[:, 0].any()
        assert ex._moves(k)[0] is rows and not rows.flags.writeable


@pytest.mark.parametrize("chunk", [1 << 21, 7, 1])
def test_open_costs_equal_plain_dp_on_every_neighbour(monkeypatch, chunk):
    # bit-equal to the plain DP, sorted (cached tree) or shuffled rows alike
    monkeypatch.setattr(ex, "DP_CHUNK_ELEMENTS", chunk)
    rng = np.random.default_rng(40)
    for _ in range(12 if chunk == 1 else 40):
        g = rough_gtsp(rng, int(rng.integers(2, 11)))
        blocks, start, _ = blocks_of(g)
        order = np.concatenate(([0], 1 + rng.permutation(g.n_clusters - 1)))
        rows, tree = ex._moves(g.n_clusters)
        cands = order[rows]
        want = gtsp_open_costs(blocks, start, cands)
        assert np.array_equal(
            ex._open_costs(blocks, start, cands, tree, np.inf), want)
        shuffled = rng.permutation(len(cands))
        assert np.array_equal(score(blocks, start, cands[shuffled]),
                              want[shuffled])


def test_open_costs_with_a_bound_drops_only_rows_that_cannot_beat_it():
    rng = np.random.default_rng(41)
    dropped = 0
    for _ in range(60):
        g = rough_gtsp(rng, int(rng.integers(3, 11)))
        blocks, start, _ = blocks_of(g)
        order = np.concatenate(([0], 1 + rng.permutation(g.n_clusters - 1)))
        rows, tree = ex._moves(g.n_clusters)
        cands = order[rows]
        want = gtsp_open_costs(blocks, start, cands)
        finite = want[np.isfinite(want)]
        bound = (rng.choice(finite) if len(finite) and rng.random() < 0.8
                 else rng.choice([0.0, np.inf]))
        got = ex._open_costs(blocks, start, cands, tree, bound)
        kept = np.isfinite(got)
        assert np.array_equal(got[kept], want[kept])
        assert np.all(want[~kept] >= bound)
        dropped += int((~kept & np.isfinite(want)).sum())
    assert dropped > 300


def test_solve_gtsp_matches_full_rescoring_search_on_random_gtsps():
    rng = np.random.default_rng(42)
    for _ in range(120):
        g = rough_gtsp(rng, int(rng.integers(1, 12)), max_size=4)
        assert solve(g) == search_reference(g)


def test_solve_gtsp_matches_full_rescoring_search_on_planner_instances():
    for n, seed in itertools.product(range(3, 13), (500, 600)):
        x = inst.generate(n, seed + n)
        groups = planner_groups(x)
        blocks, start = ex.build_gtsp(groups, x.turn_radius)
        assert (node_path(groups, *ex.solve_gtsp(blocks, start))
                == search_reference(node_gtsp(groups, x.turn_radius))), \
            (n, seed)


@pytest.mark.parametrize("bad", [-1e-12, np.nan])
def test_solve_gtsp_rejects_negative_and_nan_costs(bad):
    g = make_gtsp(np.random.default_rng(9), [2, 3, 2])
    g.cost[0, 3] = bad
    with pytest.raises(ValueError, match="non-negative"):
        solve(g)


def test_solve_gtsp_local_optimum_and_consistent_path():
    # termination means no single segment move or reversal improves the order
    rng = np.random.default_rng(6)
    g = make_gtsp(rng, [2] + list(rng.integers(1, 5, size=11)))
    path = solve(g)
    order = [int(c) for c in g.cluster_of[path]]
    assert order[0] == 0 and sorted(order) == list(range(12))
    base = open_cost(g, path)
    assert base == pytest.approx(open_dp(g, order), rel=1e-12)
    count = 0
    for cand in neighbours(order):
        assert open_dp(g, cand) >= base - ex.IMPROVE_EPS
        count += 1
    assert count > 300


def test_solve_gtsp_chunking_and_determinism(monkeypatch):
    rng = np.random.default_rng(7)
    x = inst.generate(20, 104, map_size=(800, 800))
    # a random problem and a 20-task planner problem at the default chunk
    problems = [blocks_of(make_gtsp(rng, [4] + [3] * 9))[:2],
                ex.build_gtsp(planner_groups(x), x.turn_radius)]
    want = [ex.solve_gtsp(*p) for p in problems]
    assert [ex.solve_gtsp(*p) for p in problems] == want
    monkeypatch.setattr(ex, "DP_CHUNK_ELEMENTS", 1)
    assert [ex.solve_gtsp(*p) for p in problems] == want


def test_solve_gtsp_robust_to_last_bit_cost_changes():
    # exact cost ties must not be broken in a way that one-ulp noise flips
    rng = np.random.default_rng(8)
    for i in range(60):
        x = inst.generate(3, 401000 + i, map_size=(300, 300))
        blocks, start = ex.build_gtsp(planner_groups(x), x.turn_radius)
        noisy = blocks * (1.0 + 2.2e-16 * rng.choice((-1.0, 1.0),
                                                     blocks.shape))
        a = block_cost(blocks, *ex.solve_gtsp(blocks, start))
        b = block_cost(blocks, *ex.solve_gtsp(noisy, start))
        assert abs(a - b) <= 1e-9 * a, (i, a, b)


# ---------------------------------------------------------------- plan

def test_plan_trivial_when_all_tasks_at_start():
    probe = inst.generate(1, seed=0)
    tx, ty = probe.tasks[0]
    x = inst.generate(1, seed=0, start=Pose(tx + 10.0, ty, 0.0))
    ep = ex.plan(x)
    assert ep.waypoints == (x.start,)
    assert ep.total_length == 0.0
    assert ep.sensed_order == (0,)
    assert ep.solve_time is not None


def test_plan_senses_all_and_length_consistent():
    x = inst.generate(4, seed=11)
    ep = ex.plan(x, n_pos=3, n_head=2)
    wp = ep.waypoint_array()
    for t, (tx, ty) in enumerate(x.tasks):
        d = np.hypot(wp[:, 0] - tx, wp[:, 1] - ty)
        assert d.min() <= x.r_sense
    assert sorted(ep.sensed_order) == list(range(4))
    # spacing bound along the polyline
    gaps = np.hypot(np.diff(wp[:, 0]), np.diff(wp[:, 1]))
    assert gaps.max() <= config_for(x, None).step_dist * (1 + 1e-9)
    # recorded length equals the sum of Dubins legs between visiting poses
    legs = sum(shortest_path_length(a, b, x.turn_radius)
               for a, b in zip(ep.visiting_poses, ep.visiting_poses[1:]))
    assert ep.total_length == pytest.approx(legs, abs=1e-6)
    # the polyline starts at the start position with the chosen heading
    assert ep.waypoints[0].x == x.start.x
    assert ep.waypoints[0].y == x.start.y


def test_plan_sensing_check_matches_the_loop_over_tasks(monkeypatch):
    # legs sampled up to 8 steps apart leave gaps: the first task missed
    # and its closest approach, or the sensed order, are the loop's
    sample = ex.sample_path
    outcomes = []
    for seed in range(16):
        x = inst.generate(3 + seed % 4, seed)
        rng = np.random.default_rng(seed)
        legs = []

        def thinned(path, spacing):
            s = sample(path, spacing)
            k = int(rng.integers(1, 9))
            legs.append(s[:1] + s[k::k])
            return legs[-1]

        monkeypatch.setattr(ex, "sample_path", thinned)
        try:
            got = ("ok", ex.plan(x, 3, 2).sensed_order)
        except ex.SensingGap as e:
            got = ("gap", e.task, e.distance)
        waypoints = legs[0][:1] + [p for leg in legs for p in leg[1:]]
        assert got == sensing(waypoints, x.tasks, x.r_sense)
        outcomes.append(got[0])
    assert {"ok", "gap"} <= set(outcomes)


def test_plan_spacing_follows_the_env_config_of_the_instance():
    x = inst.generate(3, seed=11, turn_radius=20.0)
    ep = ex.plan(x, n_pos=3, n_head=2)
    assert ep == ex.plan(x, n_pos=3, n_head=2,
                         config=EnvConfig(turn_radius=20.0))
    wp = ep.waypoint_array()
    gaps = np.hypot(np.diff(wp[:, 0]), np.diff(wp[:, 1]))
    assert gaps.max() <= EnvConfig(turn_radius=20.0).step_dist + 1e-9
    # a config for another radius is refused, as DtspnEnv refuses it
    y = inst.generate(3, seed=11)
    for bad in (lambda: ex.plan(y, config=EnvConfig(turn_radius=20.0)),
                lambda: DtspnEnv(y, config=EnvConfig(turn_radius=20.0))):
        with pytest.raises(ValueError, match="does not match"):
            bad()


def test_plan_matches_exhaustive_gtsp_oracle():
    x = inst.generate(3, seed=21)
    n_pos, n_head = 3, 2
    ep = ex.plan(x, n_pos=n_pos, n_head=n_head)
    g = node_gtsp(planner_groups(x, n_pos, n_head), x.turn_radius)
    best, tour = gtsp_brute_force(g.cost, clusters_from(g.cluster_of))
    # plan optimizes the open path: no leg back to the start
    assert ep.total_length == pytest.approx(best, abs=1e-6)


def test_plan_mirror_symmetric_tasks():
    start = Pose(400.0, 40.0, 0.0)
    a = inst.Instance(map_width=800, map_height=800,
                      tasks=((300.0, 300.0), (500.0, 300.0)),
                      r_sense=58.0, turn_radius=30.0, start=start, seed=0)
    b = inst.Instance(map_width=800, map_height=800,
                      tasks=((500.0, 300.0), (300.0, 300.0)),
                      r_sense=58.0, turn_radius=30.0, start=start, seed=0)
    ea = ex.plan(a, n_pos=2, n_head=2)
    eb = ex.plan(b, n_pos=2, n_head=2)
    assert ea.total_length == pytest.approx(eb.total_length, abs=1e-6)


def test_plan_monotone_in_sampling_budget():
    lo, hi = [], []
    for seed in range(30):
        x = inst.generate(3, seed=300 + seed)
        lo.append(ex.plan(x, n_pos=1, n_head=1).total_length)
        hi.append(ex.plan(x, n_pos=2, n_head=2).total_length)
    diff = np.asarray(lo) - np.asarray(hi)
    se = diff.std(ddof=1) / math.sqrt(len(diff))
    assert diff.mean() >= -se


@st.composite
def degenerate_instances(draw):
    """1-6 tasks on corners and edges of the map, on top of an earlier
    task, within r_sense of the start, or anywhere."""
    w, h = draw(st.sampled_from([60.0, 300.0, 800.0])), draw(
        st.sampled_from([60.0, 300.0, 800.0]))
    r_sense = draw(st.sampled_from([5.0, 58.0, 150.0]))
    unit = st.floats(0.0, 1.0)
    start = Pose(draw(unit) * w, draw(unit) * h,
                 draw(st.floats(-math.pi, math.pi)))
    tasks = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["corner", "edge", "same", "near",
                                     "free"]))
        if kind == "corner":
            t = (draw(st.sampled_from([0.0, w])),
                 draw(st.sampled_from([0.0, h])))
        elif kind == "edge":
            u = draw(unit)
            t = draw(st.sampled_from([(u * w, 0.0), (u * w, h),
                                      (0.0, u * h), (w, u * h)]))
        elif kind == "same" and tasks:
            t = draw(st.sampled_from(tasks))
        elif kind == "near":
            # clipping to the map only moves it closer to the start
            r, phi = draw(unit) * r_sense, draw(st.floats(-math.pi, math.pi))
            t = (min(max(start.x + r * math.cos(phi), 0.0), w),
                 min(max(start.y + r * math.sin(phi), 0.0), h))
        else:
            t = (draw(unit) * w, draw(unit) * h)
        tasks.append(t)
    return inst.Instance(w, h, tuple(tasks), r_sense,
                         draw(st.sampled_from([10.0, 30.0])), start, 0)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(degenerate_instances(),
       st.sampled_from([(1, 1), (2, 1), (3, 5), (8, 4)]))
def test_plan_on_degenerate_geometry_senses_every_task_or_reports_a_gap(
        x, sampling):
    try:
        ep = ex.plan(x, *sampling)
    except ex.SensingGap:
        return
    assert (ep.waypoints[0].x, ep.waypoints[0].y) == (x.start.x, x.start.y)
    wp = ep.waypoint_array()
    gaps = np.hypot(np.diff(wp[:, 0]), np.diff(wp[:, 1]))
    assert gaps.max(initial=0.0) <= config_for(x, None).step_dist * (1 + 1e-9)
    for tx, ty in x.tasks:
        assert np.hypot(wp[:, 0] - tx, wp[:, 1] - ty).min() <= x.r_sense


# ---------------------------------------------------------------- file io

def test_expert_save_writes_each_waypoint_bit_for_bit(tmp_path):
    x = inst.generate(3, seed=31)
    ep = ex.plan(x, n_pos=2, n_head=2)
    p = tmp_path / "e.txt"
    ex.save(ep, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "dtspn-expert v1"
    assert lines[1] == f"length {ep.total_length!r}"
    assert lines[2] == "order " + " ".join(map(str, ep.sensed_order))
    rows = [line.split() for line in lines[3:]]
    assert len(rows) == len(ep.waypoints)
    assert all(r[0] == "wp" and len(r) == 4 for r in rows)
    back = np.array([[float(v) for v in r[1:]] for r in rows])
    assert back.tobytes() == ep.waypoint_array().tobytes()
