import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtspn.dubins import (
    Pose,
    WORDS,
    _segments,
    length_matrix,
    path_endpoint,
    path_length,
    pose_array,
    sample_path,
    shortest_path,
    shortest_path_length,
)
from oracles import dubins_oracle_length, straight_step, turn_step, wrap

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
    end = path_endpoint(path)
    assert end.x == pytest.approx(0.0, abs=1e-9)
    assert end.y == pytest.approx(60.0, abs=1e-9)


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
        t, p, q, ok = _segments(pose_array([a]), pose_array([b]), RHO)
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
