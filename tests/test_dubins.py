import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dtspn.dubins as dubins_mod
from dtspn.dubins import (
    TWO_PI,
    DubinsPath,
    Pose,
    WORDS,
    length_matrix,
    mod2pi,
    path_length,
    pose_array,
    sample_path,
    shortest_path,
    shortest_paths,
)
from dtspn.expert import sample_poses
from dtspn.instance import generate
from oracles import (dubins_oracle_length, kernel_segments,
                     reference_pose_at, reference_segments,
                     reference_shortest_paths, shortest_path_length,
                     straight_step, turn_step, wrap)

RHO = 30.0


def reconstruct(path):
    """Re-integrate a path with the oracle's rotation-matrix stepping."""
    x, y, th = path.start.x, path.start.y, path.start.theta
    for kind, prm in zip(path.word, path.segment_params):
        if kind == "S":
            x, y, th = straight_step(x, y, th, prm)
        else:
            x, y, th = turn_step(x, y, th, prm, path.rho, 1 if kind == "L" else -1)
    return x, y, th


def random_pose(rng, span=800.0):
    return Pose(rng.uniform(0, span), rng.uniform(0, span),
                rng.uniform(-math.pi, math.pi))


def test_identity_pair_has_zero_length():
    p = Pose(0.0, 0.0, 0.0)
    path = shortest_path(p, p, RHO)
    assert path_length(path) == 0.0


def test_collinear_aligned_poses_give_straight_path():
    path = shortest_path(Pose(0, 0, 0), Pose(100, 0, 0), RHO)
    assert path_length(path) == pytest.approx(100.0, abs=1e-9)
    # LSL and RSR tie here; fixed word order breaks the tie
    assert path.word == "LSL"
    assert path.segment_params[0] == 0.0
    assert path.segment_params[2] == 0.0


def test_semicircle_turn():
    path = shortest_path(Pose(0, 0, 0), Pose(0, 60, math.pi), RHO)
    assert path_length(path) == pytest.approx(30.0 * math.pi, abs=1e-9)
    x, y, _ = reconstruct(path)
    assert x == pytest.approx(0.0, abs=1e-9)
    assert y == pytest.approx(60.0, abs=1e-9)


def test_shortest_path_is_deterministic():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = random_pose(rng), random_pose(rng)
        p1 = shortest_path(a, b, RHO)
        p2 = shortest_path(a, b, RHO)
        assert p1.word == p2.word
        assert p1.segment_params == p2.segment_params


def test_endpoint_reconstruction_all_words():
    rng = np.random.default_rng(11)
    seen = set()
    for k in range(800):
        span = 140.0 if k % 2 else 800.0
        a, b = random_pose(rng, span), random_pose(rng, span)
        path = shortest_path(a, b, RHO)
        seen.add(path.word)
        x, y, th = reconstruct(path)
        assert math.hypot(x - b.x, y - b.y) < 1e-6
        assert abs(wrap(th - b.theta)) < 1e-6
    # the sample should exercise every word at least once
    assert seen == set(WORDS)


def test_length_lower_bound_and_word_optimality():
    rng = np.random.default_rng(5)
    for k in range(400):
        span = 150.0 if k % 2 else 800.0
        a, b = random_pose(rng, span), random_pose(rng, span)
        best = shortest_path_length(a, b, RHO)
        assert best >= math.hypot(b.x - a.x, b.y - a.y) - 1e-9
        t, p, q, ok = kernel_segments(pose_array([a]), pose_array([b]), RHO)
        for k, word in enumerate(WORDS):
            if not ok[k, 0]:
                continue
            total = RHO * (t[k, 0] + p[k, 0] + q[k, 0])
            assert best <= total + 1e-9


def test_triangle_property():
    rng = np.random.default_rng(17)
    for _ in range(150):
        a, b, c = (random_pose(rng, 300.0) for _ in range(3))
        lac = shortest_path_length(a, c, RHO)
        lab = shortest_path_length(a, b, RHO)
        lbc = shortest_path_length(b, c, RHO)
        assert lac <= lab + lbc + 1e-9


def test_against_control_sampling_oracle():
    rng = np.random.default_rng(23)
    for k in range(120):
        span = 160.0 if k % 3 == 0 else 800.0
        a, b = random_pose(rng, span), random_pose(rng, span)
        closed = shortest_path_length(a, b, RHO)
        oracle = dubins_oracle_length((a.x, a.y, a.theta), (b.x, b.y, b.theta), RHO)
        assert closed <= oracle + 1e-3
        assert oracle <= closed + 1e-3


def test_sample_path_zero_length():
    p = Pose(5.0, 6.0, 1.0)
    samples = sample_path(shortest_path(p, p, RHO), 10.0)
    assert len(samples) == 1
    assert samples[0] == p


def test_sample_path_straight():
    path = shortest_path(Pose(0, 0, 0), Pose(100, 0, 0), RHO)
    samples = sample_path(path, 10.0)
    assert len(samples) == 11
    for i, s in enumerate(samples):
        assert s.x == pytest.approx(10.0 * i, abs=1e-9)
        assert s.y == pytest.approx(0.0, abs=1e-9)
        assert s.theta == pytest.approx(0.0, abs=1e-12)


def test_sample_path_semicircle_lies_on_circle():
    path = shortest_path(Pose(0, 0, 0), Pose(0, 60, math.pi), RHO)
    samples = sample_path(path, 5.0)
    for s in samples:
        assert math.hypot(s.x - 0.0, s.y - 30.0) == pytest.approx(30.0, abs=1e-9)
    # discrete kinematics: equal signed heading increments along the arc
    step = path_length(path) / (len(samples) - 1)
    for a, b in zip(samples, samples[1:]):
        assert wrap(b.theta - a.theta) == pytest.approx(step / RHO, abs=1e-9)


def test_shortest_paths_pairs_up_starts_and_ends():
    a, b = Pose(0.0, 0.0, 0.0), Pose(100.0, 0.0, 0.0)
    assert shortest_paths([], [], RHO) == []
    assert shortest_paths([a, b], [b, a], RHO) == [shortest_path(a, b, RHO),
                                                   shortest_path(b, a, RHO)]
    with pytest.raises(ValueError):
        shortest_paths([a, b], [b], RHO)
    with pytest.raises(ValueError):
        shortest_paths([a], [b], 0.0)
    # a row would become the path's start, which sample_path cannot fly
    for starts, ends in (([(0.0, 0.0, 0.0)], [b]),
                         ([a], [np.array([100.0, 0.0, 0.0])])):
        with pytest.raises(ValueError, match="Pose objects"):
            shortest_paths(starts, ends, RHO)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"), \
                np.errstate(invalid="ignore"):
            shortest_paths([a, Pose(bad, 0.0, 0.0)], [b, b], RHO)


segment_params = st.one_of(st.just(0.0), st.floats(1e-12, 2.0 * math.pi))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.builds(Pose, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
                 st.floats(-4.0, 4.0)),
       st.sampled_from(WORDS), segment_params, segment_params,
       st.one_of(st.just(0.0), st.floats(1e-12, 500.0)), segment_params,
       st.sampled_from((RHO, 1.0, 7.25, 55.5)), st.floats(0.5, 40.0))
def test_sample_path_keeps_the_segment_step_bits(start, word, t, p_turn,
                                                 p_straight, q, rho, spacing):
    # zero-length segments included; the middle parameter is a length for
    # CSC words and a turn angle for CCC words
    p = p_straight if word[1] == "S" else p_turn
    path = DubinsPath(start=start, word=word, segment_params=(t, p, q),
                      rho=rho)
    with mock.patch.object(dubins_mod, "_pose_at", reference_pose_at):
        ref = sample_path(path, spacing)
    got = sample_path(path, spacing)
    assert pose_array(got).tobytes() == pose_array(ref).tobytes()


def test_sample_path_endpoints_and_spacing():
    rng = np.random.default_rng(31)
    for _ in range(40):
        a, b = random_pose(rng, 400.0), random_pose(rng, 400.0)
        path = shortest_path(a, b, RHO)
        spacing = rng.uniform(3.0, 20.0)
        samples = sample_path(path, spacing)
        assert samples[0] == a
        assert math.hypot(samples[-1].x - b.x, samples[-1].y - b.y) < 1e-6
        assert abs(wrap(samples[-1].theta - b.theta)) < 1e-6
        total = path_length(path)
        gap = total / (len(samples) - 1)
        assert gap <= spacing + 1e-9
        # chord between consecutive samples can never exceed the arc gap
        for s, t in zip(samples, samples[1:]):
            assert math.hypot(t.x - s.x, t.y - s.y) <= gap + 1e-9


def test_length_matrix_matches_scalar():
    rng = np.random.default_rng(41)
    a = [random_pose(rng, 500.0) for _ in range(13)]
    b = [random_pose(rng, 500.0) for _ in range(9)]
    mat = length_matrix(a, b, RHO)
    assert mat.shape == (13, 9)
    for i in range(13):
        for j in range(9):
            assert mat[i, j] == pytest.approx(
                shortest_path_length(a[i], b[j], RHO), abs=1e-9)


def random_pose_array(rng, n):
    return np.column_stack([rng.uniform(0.0, 800.0, n),
                            rng.uniform(0.0, 800.0, n),
                            rng.uniform(-math.pi, math.pi, n)])


def pose_grid(n_tasks, seed, n_pos, n_head, span=300.0):
    """The planner's poses: the start cluster, then n_pos positions of
    n_head headings around each task."""
    clusters = sample_poses(generate(n_tasks, seed, map_size=(span, span)),
                            n_pos, n_head)
    return pose_array([p for g in (clusters.start_cluster,) + clusters.clusters
                       for p in g])


def reference_length_matrix(a, b):
    """The length matrix of reference_segments, 16 rows of a at a time."""
    out = np.empty((len(a), len(b)))
    for i in range(0, len(a), 16):
        t, p, q, ok = reference_segments(a[i:i + 16, None], b[None], RHO)
        out[i:i + 16] = RHO * np.where(ok, t + p + q, np.inf).min(axis=0)
    return out


def assert_matrix_matches_reference(a, b, runs):
    assert (dubins_mod._run_length(a[:, :2]),
            dubins_mod._run_length(b[:, :2])) == runs
    assert (length_matrix(a, b, RHO).tobytes()
            == reference_length_matrix(a, b).tobytes())


@pytest.mark.parametrize("n_tasks, n_pos, n_head",
                         [(20, 1, 1), (5, 8, 4), (10, 3, 5), (1, 16, 16)])
def test_length_matrix_matches_reference_on_pose_grids(n_tasks, n_pos,
                                                       n_head):
    poses = pose_grid(n_tasks, 3, n_pos, n_head)
    assert_matrix_matches_reference(poses, poses, (n_head, n_head))


def test_length_matrix_matches_reference_across_groupings():
    rng = np.random.default_rng(45)
    grid = pose_grid(4, 5, 8, 4)
    loose = random_pose_array(rng, 40)
    loose[:, :2] *= 300.0 / 800.0
    # raw headings outside [-pi, pi)
    raw = grid.copy()
    raw[:, 2] = rng.uniform(-10.0, 10.0, len(raw))
    # unequal runs: the first position twice, the rest once
    uneven = loose[:9].copy()
    uneven[1, :2] = uneven[0, :2]
    # runs of 4 and 8 group by 4
    mixed = grid[:16].copy()
    mixed[8:12, :2] = mixed[4:8, :2]
    # 0.0 and -0.0 are equal but give different bearings, so they do not
    # share a position
    zeros = np.array([[0.0, 0.0, 0.5], [-0.0, 0.0, -1.0], [0.0, -0.0, 2.0],
                      [-0.0, -0.0, 3.0], [60.0, 0.0, 0.0], [60.0, 0.0, 1.0]])
    assert_matrix_matches_reference(loose, loose, (1, 1))
    assert_matrix_matches_reference(raw, grid, (4, 4))
    assert_matrix_matches_reference(grid, loose, (4, 1))
    assert_matrix_matches_reference(loose, raw, (1, 4))
    assert_matrix_matches_reference(pose_grid(3, 6, 5, 3), grid, (3, 4))
    assert_matrix_matches_reference(uneven, grid, (1, 4))
    assert_matrix_matches_reference(mixed, uneven, (4, 1))
    assert_matrix_matches_reference(zeros, zeros, (1, 1))
    assert_matrix_matches_reference(grid[:0], grid, (1, 4))


def repeated_poses(rng, n, runs):
    """n poses at n // runs random positions, runs consecutive poses each,
    with random headings."""
    poses = np.repeat(random_pose_array(rng, n // runs), runs, axis=0)
    poses[:, 2] = rng.uniform(-math.pi, math.pi, n)
    return poses


def test_length_matrix_chunks_match_one_kernel_call(monkeypatch):
    rng = np.random.default_rng(43)
    # runs of poses that share a position on both sides, or none
    for runs in (1, 4):
        a = repeated_poses(rng, 37 * runs, runs)
        b = repeated_poses(rng, 11 * runs, runs)
        t, p, q, ok = kernel_segments(a[:, None, :], b[None, :, :], RHO)
        whole = RHO * np.where(ok, t + p + q, np.inf).min(axis=0)
        for pairs in (1, 7, 11, 50, 10**6):
            monkeypatch.setattr(dubins_mod, "LENGTH_CHUNK_PAIRS", pairs)
            assert length_matrix(a, b, RHO).tobytes() == whole.tobytes()
        assert length_matrix(a, b[:0], RHO).shape == (len(a), 0)
        assert length_matrix(a[:0], b, RHO).shape == (0, len(b))


def test_length_matrix_memory_stays_bounded():
    # 1,000 poses, at 1,000 positions or at 250 of 4 headings each: the
    # output is 8 MB; unchunked, the kernel's temporaries peaked near 290 MB
    rng = np.random.default_rng(44)
    for runs in (1, 4):
        poses = repeated_poses(rng, 1000, runs)
        tracemalloc.start()
        try:
            length_matrix(poses, poses, RHO)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_pose_theta_normalization():
    # convention is [-pi, pi), so +pi wraps to -pi
    assert Pose(0, 0, 3 * math.pi).theta == pytest.approx(-math.pi, abs=1e-12)
    assert Pose(0, 0, math.pi).theta == pytest.approx(-math.pi, abs=1e-12)
    assert -math.pi <= Pose(0, 0, -math.pi).theta < math.pi
    assert Pose(0, 0, 2 * math.pi).theta == pytest.approx(0.0, abs=1e-12)
    assert Pose(0, 0, 0.5).theta == 0.5


# Property tests near the word-feasibility edges.  Each builds the goal by
# flying a known path from the start, so the shortest path may not be longer
# than that path, shortest_path and length_matrix must agree, and the path
# must land on the goal.

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
coords = st.floats(0.0, 800.0)
headings = st.floats(-math.pi, math.pi)
turns = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
sides = st.sampled_from((1, -1))
tiny = st.sampled_from((0.0, 1e-15, 1e-12, 1e-9, 1e-7, 1e-5))
signed_tiny = st.sampled_from((0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9,
                               -1e-9, 1e-6, -1e-6))
poses = st.builds(Pose, coords, coords, headings)


def assert_consistent(a, b):
    path = shortest_path(a, b, RHO)
    length = path_length(path)
    # shortest_path keeps an earlier word up to 1e-9 longer (normalized)
    assert abs(length - length_matrix([a], [b], RHO)[0, 0]) <= 1e-9 * RHO + 1e-11
    x, y, th = reconstruct(path)
    assert math.hypot(x - b.x, y - b.y) < 1e-6
    assert abs(wrap(th - b.theta)) < 1e-6
    return length


@PROPERTY
@given(poses, turns, sides)
def test_goal_on_own_turning_circle_is_one_arc(a, phi, side):
    b = Pose(*turn_step(a.x, a.y, a.theta, phi, RHO, side))
    assert assert_consistent(a, b) <= RHO * phi + 1e-6


@PROPERTY
@given(poses, turns, tiny, turns, sides, sides)
def test_csc_with_vanishing_straight(a, t, s, q, side1, side2):
    # p^2 ~ 0: the two turning circles coincide (same side) or touch
    x, y, th = turn_step(a.x, a.y, a.theta, t, RHO, side1)
    x, y, th = straight_step(x, y, th, s)
    b = Pose(*turn_step(x, y, th, q, RHO, side2))
    assert assert_consistent(a, b) <= RHO * (t + q) + s + 1e-6


@PROPERTY
@given(poses, turns,
       st.sampled_from((math.pi, math.pi - 1e-12, math.pi + 1e-12,
                        math.pi - 1e-7, 1e-12, 1e-7, 2.0 * math.pi - 1e-7)),
       turns, sides)
def test_ccc_at_the_feasibility_edge(a, t, u, q, side):
    # |cos| ~ 1 in the CCC formulas: middle arc near pi (outer circles 4 rho
    # apart) or near zero
    x, y, th = turn_step(a.x, a.y, a.theta, t, RHO, side)
    x, y, th = turn_step(x, y, th, u, RHO, -side)
    b = Pose(*turn_step(x, y, th, q, RHO, side))
    assert assert_consistent(a, b) <= RHO * (t + u + q) + 1e-6


@PROPERTY
@given(poses, signed_tiny, signed_tiny, st.one_of(signed_tiny, headings))
def test_nearly_coincident_poses(a, dx, dy, dth):
    # d ~ 0
    assert_consistent(a, Pose(a.x + dx, a.y + dy, a.theta + dth))


@PROPERTY
@given(poses, st.floats(0.0, 300.0), signed_tiny, signed_tiny)
def test_nearly_aligned_poses(a, dist, off, dth):
    # alpha ~ beta: the goal lies (almost) straight ahead, (almost) aligned
    th = a.theta + off
    b = Pose(a.x + dist * math.cos(th), a.y + dist * math.sin(th),
             a.theta + dth)
    length = assert_consistent(a, b)
    if off == 0.0 and dth == 0.0:
        assert length <= dist + 1e-6


# The kernel against reference_segments, the kernel it replaced: every word
# on every pair, wrapped with %.  Entries of feasible words, lengths and
# shortest paths must keep their bits.

def test_mod2pi_matches_remainder_bit_for_bit():
    edges = [0.0, -0.0, 1e-17, -1e-17, TWO_PI, -TWO_PI, 2 * TWO_PI,
             -2 * TWO_PI, math.nan, 5e-324, -5e-324, 1e300, -1e300,
             math.nextafter(TWO_PI, 0.0), math.nextafter(-TWO_PI, 0.0)]
    sweep = np.random.default_rng(61).uniform(-3 * math.pi, 3 * math.pi,
                                              100_000)
    for x in (np.array(edges), sweep):
        assert mod2pi(x).tobytes() == (x % TWO_PI).tobytes()
    zeros = mod2pi(np.array([0.0, -0.0, TWO_PI, -TWO_PI]))
    assert (zeros == 0.0).all() and not np.signbit(zeros).any()


def assert_matches_reference(a, b, pairs):
    """Pose rows a (n, 3) against b (m, 3): feasibility and every feasible
    word's (t, p, q), the length matrix, and the shortest paths of the
    (i, j) pairs listed, one pair at a time and all in one shortest_paths
    call, keep the reference kernel's bits."""
    new = kernel_segments(a[:, None], b[None], RHO)
    old = reference_segments(a[:, None], b[None], RHO)
    ok = old[3]
    assert new[3].tobytes() == ok.tobytes()
    for x, y in zip(new[:3], old[:3]):
        assert np.where(ok, x, 0.0).tobytes() == np.where(ok, y, 0.0).tobytes()
    assert (length_matrix(a, b, RHO).tobytes()
            == reference_length_matrix(a, b).tobytes())
    starts = [Pose(*a[i]) for i, _ in pairs]
    ends = [Pose(*b[j]) for _, j in pairs]
    batched = shortest_paths(starts, ends, RHO)
    refs = reference_shortest_paths(starts, ends, RHO)
    for s, e, one, ref in zip(starts, ends, batched, refs):
        for path in (shortest_path(s, e, RHO), one):
            assert path.word == ref.word
            assert (np.array(path.segment_params).tobytes()
                    == np.array(ref.segment_params).tobytes())


@pytest.mark.parametrize("n_tasks, span", [(3, 300.0), (20, 800.0)])
@pytest.mark.parametrize("seed", [0, 1, 104])
def test_kernel_matches_reference_on_planner_poses(n_tasks, span, seed):
    clusters = sample_poses(generate(n_tasks, seed, map_size=(span, span)), 8, 4)
    poses = pose_array([p for g in (clusters.start_cluster,) + clusters.clusters
                        for p in g])
    # shortest paths of 200 pairs where a CCC word is feasible and 100 others
    ok = reference_segments(poses[:, None], poses[None], RHO)[3]
    ccc = ok[4] | ok[5]
    rng = np.random.default_rng(seed)
    pairs = [pair for where, k in ((ccc, 200), (~ccc, 100))
             for pair in rng.permutation(np.argwhere(where))[:k].tolist()]
    assert_matches_reference(poses, poses, pairs)


def ulps_from(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


@PROPERTY
@given(headings, st.sampled_from((0.0, math.pi / 2, -math.pi / 2, math.pi)),
       signed_tiny, st.one_of(headings, st.sampled_from((0.0, math.pi))),
       signed_tiny)
def test_kernel_matches_reference_four_rho_apart(bearing, turn_a, dth_a,
                                                 turn_b, dth_b):
    # the goal 4 rho +- 6 ulps from the start, so d straddles 4 (RLR and LRL
    # can be feasible up to d = 6); turn_a = +-pi/2 with turn_b = 0 puts
    # both headings across the line, where the outer circles are d rho apart
    th_a = bearing + turn_a + dth_a
    goals = []
    for k in range(-6, 7):
        dist = ulps_from(4.0 * RHO, k)
        goals.append((dist * math.cos(bearing), dist * math.sin(bearing),
                      th_a + turn_b + dth_b))
    start = np.array([[0.0, 0.0, th_a]])
    assert_matches_reference(start, np.array(goals),
                             [(0, j) for j in range(len(goals))])


def test_kernel_matches_reference_on_edge_geometry():
    rng = np.random.default_rng(62)
    rows, pairs = [], []

    def add(a, b):
        rows.extend((a, b))
        pairs.append((len(rows) - 2, len(rows) - 1))

    tiny = (0.0, 1e-15, -1e-15, 1e-12, -1e-9, 1e-6)
    for _ in range(10):
        x, y = rng.uniform(0.0, 800.0, 2)
        th = rng.uniform(-math.pi, math.pi)
        # coincident and nearly coincident poses, headings equal or not
        for dx in tiny:
            add((x, y, th), (x + dx, y - dx, th + rng.choice(tiny)))
        add((x, y, th), (x, y, th + rng.uniform(-math.pi, math.pi)))
        # goals on the start's turning circle, either side
        for phi in (1e-12, 1e-7, math.pi / 2, math.pi, 2 * math.pi - 1e-7,
                    rng.uniform(0.0, 2 * math.pi)):
            for side in (1, -1):
                add((x, y, th), turn_step(x, y, th, phi, RHO, side))
        # headings at +-pi, unnormalized rows included
        for ha in (math.pi, -math.pi, math.nextafter(math.pi, 0.0)):
            for hb in (math.pi, -math.pi, 0.0):
                add((x, y, ha), (x + rng.uniform(-150.0, 150.0),
                                 y + rng.uniform(-150.0, 150.0), hb))
    poses = np.array(rows)
    assert_matches_reference(poses, poses, pairs)
