import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtspn.demos import DemoMeta, collect_batch, greedy_action, track
from dtspn.dubins import Pose, normalize_angle
from dtspn.env import (MAX_SUBSTEPS, DtspnEnv, EnvBatch, EnvConfig,
                       Observation, advance, goal_reward, imitation_reward,
                       run_episode)
from dtspn.evaluate import bundle_actor
from dtspn.learn import init_bundle
from dtspn.expert import ExpertPath, plan
from dtspn.instance import Instance, default_start, generate
from oracles import (ReferenceBatch, encode_privileged, map_frame,
                     padded_waypoints, sense)


def straight_expert(start: Pose, n: int, spacing: float) -> ExpertPath:
    wps = tuple(Pose(start.x + k * spacing, start.y, 0.0) for k in range(n))
    return ExpertPath(waypoints=wps, total_length=(n - 1) * spacing,
                      sensed_order=())


def common_row(pose, sensed, x: Instance) -> np.ndarray:
    """The common encoding EnvBatch's per-row pass gives one pose (x, y,
    theta) on instance x with the given sensed flags (a task within range
    of the pose is marked too)."""
    b = DtspnEnv(x, mode="eval").batch
    return np.array(b._pass(0, [bool(f) for f in sensed], *pose)[0])


def privileged_row(pose, progress, path: ExpertPath, x: Instance):
    """The privileged encoding EnvBatch's per-row pass gives one pose (x, y,
    theta) from the given progress along path on instance x; returns (row,
    new progress)."""
    b = DtspnEnv(x, path, mode="train").batch
    _, _, row, progress = b._pass(0, [False] * x.n_tasks, *pose,
                                  progress=progress)
    return np.array(row), progress


def small_instance(tasks, map_size=(200.0, 200.0), r_sense=50.0):
    w, h = map_size
    return Instance(map_width=w, map_height=h, tasks=tuple(tasks),
                    r_sense=r_sense, turn_radius=30.0,
                    start=default_start(w, h), seed=0)


def test_imitation_reward_exact_values():
    assert imitation_reward(0.0) == 0.0
    assert imitation_reward(3.0) == 0.0
    assert imitation_reward(5.0) == 0.0
    assert imitation_reward(10.0) == -0.1
    assert imitation_reward(60.0) == -24.1
    assert imitation_reward(61.0) == -10.0
    assert imitation_reward(1e9) == -10.0
    assert imitation_reward(float("nan")) == 0.0
    # smooth branch interior spot checks against the definition
    for r in (5.5, 7.0, 20.0, 35.0, 59.9):
        assert abs(imitation_reward(r) - (0.1 - (r - 5.0) ** 2 / 125.0)) < 1e-12


def test_imitation_reward_branch_shape():
    # the parabola branch starts at +0.1 just past the 5 m dead zone, crosses
    # zero near 8.54 m, and decreases monotonically out to the 60 m boundary
    assert abs(imitation_reward(5.0 + 1e-9) - 0.1) < 1e-8
    assert imitation_reward(8.5) > 0.0 > imitation_reward(8.6)
    prev = imitation_reward(5.0 + 1e-12)
    for r in np.linspace(5.001, 60.0, 400):
        cur = imitation_reward(float(r))
        assert cur <= prev + 1e-12
        prev = cur
    # the cutoff branch jumps back up by design (episode ends there in train)
    assert imitation_reward(60.0 + 1e-9) == -10.0


def test_goal_reward_exact_values():
    assert goal_reward(0, False) == 0.1
    assert goal_reward(1, False) == 5.1
    assert goal_reward(2, False) == 10.1
    assert goal_reward(0, True) == 10.0
    assert goal_reward(1, True) == 10.0


def test_config_defaults_and_validation():
    cfg = EnvConfig()
    assert abs(cfg.v - 18.0 * math.pi) < 1e-12
    assert abs(cfg.step_dist - 3.6 * math.pi) < 1e-12
    om = cfg.omegas
    assert len(om) == 7
    assert om[3] == 0.0
    assert abs(om[0] + 0.6 * math.pi) < 1e-15
    assert abs(om[-1] - 0.6 * math.pi) < 1e-15
    for a, b in zip(om, om[1:]):
        assert b > a
    # speed is derived, so it cannot disagree with the turning radius
    assert EnvConfig(turn_radius=40.0).v == 0.6 * math.pi * 40.0
    try:
        EnvConfig(v=50.0)
        assert False, "speed accepted as an option"
    except TypeError:
        pass
    try:
        EnvConfig(n_actions=6)
        assert False, "even action count accepted"
    except ValueError:
        pass


def test_advance_straight_and_arc():
    x, y, th = advance(1.0, 2.0, 0.5, 0.0, 10.0, 0.2)
    assert abs(x - (1.0 + 2.0 * math.cos(0.5))) < 1e-12
    assert abs(y - (2.0 + 2.0 * math.sin(0.5))) < 1e-12
    assert th == 0.5

    # constant-rate turn is a rotation about the turning center
    cfg = EnvConfig()
    omega = cfg.omegas[-1]
    rho = cfg.v / omega
    x0, y0, th0 = 40.0, -7.0, 0.3
    cx, cy = x0 - rho * math.sin(th0), y0 + rho * math.cos(th0)
    x1, y1, th1 = advance(x0, y0, th0, omega, cfg.v, cfg.dt)
    assert abs(math.hypot(x1 - cx, y1 - cy) - rho) < 1e-9
    assert abs(th1 - (th0 + omega * cfg.dt)) < 1e-12
    chord = 2.0 * rho * math.sin(0.5 * omega * cfg.dt)
    assert abs(math.hypot(x1 - x0, y1 - y0) - chord) < 1e-9
    # fractional advances land on the same arc, full fraction matches exactly
    xf, yf, thf = advance(x0, y0, th0, omega, cfg.v, cfg.dt * 1.0)
    assert (xf, yf, thf) == (x1, y1, th1)


def test_env_straight_motion_and_heading():
    x = small_instance([(180.0, 180.0)])
    env = DtspnEnv(x, mode="eval")
    b = env.batch
    b.reset()
    x0, y0, th0 = b.pose[0]
    b.step(np.array([3]))
    x1, y1, th1 = b.pose[0]
    assert th1 == th0
    assert abs(x1 - (x0 + env.config.step_dist)) < 1e-12
    assert abs(y1 - y0) < 1e-12


def test_sensing_is_monotone_and_marks_along_arc():
    # task sits near the first sub-sample point of a straight step, outside
    # sensing range of both endpoints
    start = default_start(200.0, 200.0)
    sub = start.x + 3.6 * math.pi / 3.0
    x = small_instance([(sub, start.y + 1.0)], r_sense=2.0)
    b = DtspnEnv(x, mode="eval").batch
    b.reset()
    assert not any(b.sensed[0])
    rew = b.step(np.array([3]))
    assert rew.newly_sensed[0] == 1
    assert b.done[0] and rew.goal[0] == 10.0

    # with sub-sampling disabled (one sample per step) the same task is missed
    coarse = EnvConfig(sense_substep=1e9)
    b2 = DtspnEnv(x, mode="eval", config=coarse).batch
    b2.reset()
    rew2 = b2.step(np.array([3]))
    assert rew2.newly_sensed[0] == 0 and not b2.done[0]


def test_sensed_flags_never_clear():
    x = generate(n_tasks=6, seed=3, map_size=(400.0, 400.0))
    b = DtspnEnv(x, mode="eval").batch
    b.reset()
    rng = np.random.default_rng(0)
    prev = b.sensed[0].copy()
    for _ in range(120):
        b.step(np.array([int(rng.integers(7))]))
        cur = b.sensed[0]
        assert all(c >= p for c, p in zip(cur, prev))
        prev = cur.copy()
        if b.done[0]:
            break


def test_reward_decomposition_and_return_bound():
    x = generate(n_tasks=4, seed=11, map_size=(300.0, 300.0))
    b = DtspnEnv(x, mode="eval").batch
    rng = np.random.default_rng(5)
    for _ in range(3):
        b.reset()
        total_goal = 0.0
        steps = 0
        while not b.done[0]:
            rew = b.step(np.array([int(rng.integers(7))]))
            assert rew.total[0] == rew.imitation[0] + rew.goal[0]
            assert rew.imitation[0] == 0.0  # no expert path attached
            total_goal += rew.goal[0]
            steps += 1
        assert total_goal <= 0.1 * steps + 5.0 * x.n_tasks + 10.0 + 1e-9


def test_encode_common_layout_and_values():
    x = small_instance([(120.0, 140.0), (30.0, 60.0)])
    v = common_row((100.0, 100.0, 0.5 * math.pi), [1, 0], x)
    assert v.shape == (3 + 4 * 2,)
    assert v[0] == 0.0 and v[1] == 0.0
    assert abs(v[2] - 0.5) < 1e-12
    # first task: world delta (20, 40) seen from a pose facing +y
    assert abs(v[3] - 40.0 / 100.0) < 1e-12
    assert abs(v[4] - (-20.0 / 100.0)) < 1e-12
    bearing = math.atan2(40.0, 20.0) - 0.5 * math.pi
    assert abs(v[5] - bearing / math.pi) < 1e-12
    assert v[9] == 1.0 and v[10] == 0.0


def test_encode_common_rotation_invariance_of_task_blocks():
    rng = np.random.default_rng(42)
    w = h = 400.0
    for _ in range(20):
        cx, cy = 0.5 * w, 0.5 * h
        tasks = [(cx + rng.uniform(-80, 80), cy + rng.uniform(-80, 80))
                 for _ in range(3)]
        px, py = cx + rng.uniform(-80, 80), cy + rng.uniform(-80, 80)
        th = rng.uniform(-math.pi, math.pi)
        phi = rng.uniform(-math.pi, math.pi)
        c, s = math.cos(phi), math.sin(phi)

        def rot(ax, ay):
            return (cx + c * (ax - cx) - s * (ay - cy),
                    cy + s * (ax - cx) + c * (ay - cy))

        a = Instance(w, h, tuple(tasks), 50.0, 30.0, default_start(w, h), 0)
        b = Instance(w, h, tuple(rot(*t) for t in tasks), 50.0, 30.0,
                     default_start(w, h), 0)
        sensed = [0, 0, 0]
        va = common_row((px, py, th), sensed, a)
        rx, ry = rot(px, py)
        vb = common_row((rx, ry, Pose(rx, ry, th + phi).theta), sensed, b)
        assert np.allclose(va[3:], vb[3:], atol=1e-9)


def test_encode_privileged_straight_line_window():
    w = h = 400.0
    start = Pose(40.0, 40.0, 0.0)
    x = Instance(w, h, ((300.0, 300.0),), 50.0, 30.0, start, 0)
    path = straight_expert(start, 12, 10.0)
    v, _ = privileged_row((start.x, start.y, 0.0), 0, path, x)
    assert v.shape == (12,)
    scale = 200.0
    for slot in range(4):
        assert abs(v[3 * slot] - 10.0 * (slot + 1) / scale) < 1e-12
        assert v[3 * slot + 1] == 0.0
        assert v[3 * slot + 2] == 0.0
    # near the end of the path the window clamps to the final waypoint
    v2, progress = privileged_row((start.x + 109.0, start.y, 0.0), 9, path, x)
    assert progress == 11
    assert np.allclose(v2[0::3], (110.0 - 109.0) / scale)
    # the search window is bounded: a far-ahead nearest waypoint is reached
    # over several updates, never in one jump
    pose = (start.x + 109.0, start.y, 0.0)
    _, progress = privileged_row(pose, 0, path, x)
    assert progress == 8
    _, progress = privileged_row(pose, progress, path, x)
    assert progress == 11


def test_encode_privileged_progress_is_monotone():
    w = h = 400.0
    start = Pose(40.0, 40.0, 0.0)
    x = Instance(w, h, ((300.0, 300.0),), 50.0, 30.0, start, 0)
    path = straight_expert(start, 12, 10.0)
    # pose sits right on waypoint 2, but progress already reached 5
    v, progress = privileged_row((start.x + 20.0, start.y, 0.0), 5, path, x)
    assert progress == 5
    assert abs(v[0] - (start.x + 60.0 - (start.x + 20.0)) / 200.0) < 1e-12


def test_train_cutoff_and_eval_cap():
    w = h = 400.0
    start = Pose(200.0, 200.0, 0.0)
    x = Instance(w, h, ((390.0, 390.0),), 5.0, 30.0, start, 0)
    point_path = ExpertPath(waypoints=(Pose(200.0, 200.0, 0.0),),
                            total_length=0.0, sensed_order=())
    b = DtspnEnv(x, expert_path=point_path, mode="train").batch
    b.reset()
    steps = 0
    while not b.done[0]:
        rew = b.step(np.array([3]))
        steps += 1
    # straight run leaves the 60 m tube after ceil(60 / step_dist) + 1 steps
    assert steps == 6
    assert rew.imitation[0] == -10.0 and not b.all_sensed[0]

    env2 = DtspnEnv(x, expert_path=point_path, mode="eval")
    b2 = env2.batch
    b2.reset()
    steps = 0
    while not b2.done[0]:
        b2.step(np.array([3]))
        steps += 1
    assert steps == env2.config.max_steps_eval


def test_imitation_reward_follows_polyline_distance():
    w = h = 400.0
    start = Pose(50.0, 200.0, 0.0)
    x = Instance(w, h, ((390.0, 390.0),), 5.0, 30.0, start, 0)
    path = straight_expert(start, 30, 10.0)
    b = DtspnEnv(x, expert_path=path, mode="train").batch
    b.reset()
    # drift upward with a gentle left action; r should match point-to-segment
    # distance to the horizontal line y = 200 while x stays in [50, 340]
    for _ in range(4):
        rew = b.step(np.array([4]))
        px, py, _ = b.pose[0]
        r = float(rew.r[0])
        if 50.0 <= px <= 340.0:
            assert abs(r - abs(py - 200.0)) < 1e-9
        assert rew.imitation[0] == imitation_reward(r)
        if b.done[0]:
            break


def test_expert_distance_projects_onto_segments():
    w = h = 400.0
    start = Pose(100.0, 100.0, 0.0)
    x = Instance(w, h, ((390.0, 390.0),), 5.0, 30.0, start, 0)
    path = ExpertPath(waypoints=(Pose(100.0, 100.0, 0.0),
                                 Pose(200.0, 100.0, 0.0)),
                      total_length=100.0, sensed_order=())
    b = DtspnEnv(x, expert_path=path, mode="eval").batch
    # midway above the segment: nearest vertex is ~58.3 away, the segment 30
    assert abs(b.expert_distance(np.array([[[150.0], [130.0]]]))[0]
               - 30.0) < 1e-12
    # beyond the last vertex the endpoint is nearest
    assert abs(b.expert_distance(np.array([[[260.0], [100.0]]]))[0]
               - 60.0) < 1e-12
    # T points as (T, 2, 1) broadcast against the one row's segments and
    # give the same bits as one point at a time
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.0, 400.0, size=(50, 2, 1))
    many = b.expert_distance(pts)
    assert many.shape == (50,)
    assert many.tobytes() == np.concatenate(
        [b.expert_distance(p[None]) for p in pts]).tobytes()


def test_replay_is_bit_exact():
    x = generate(n_tasks=8, seed=21, map_size=(400.0, 400.0))
    rng = np.random.default_rng(9)
    actions = [int(rng.integers(7)) for _ in range(200)]

    def run():
        b = DtspnEnv(x, mode="eval").batch
        b.reset()
        obs = [b.common[0]]
        rewards = []
        for a in actions:
            if b.done[0]:
                break
            rew = b.step(np.array([a]))
            obs.append(b.common[0])
            rewards.append(rew.total[0])
        return obs, rewards

    obs1, rew1 = run()
    obs2, rew2 = run()
    assert rew1 == rew2
    assert len(obs1) == len(obs2)
    for a, b in zip(obs1, obs2):
        assert a.tobytes() == b.tobytes()


def test_env_argument_errors():
    x = small_instance([(180.0, 180.0)])
    try:
        DtspnEnv(x, mode="demo")
        assert False, "bad mode accepted"
    except ValueError:
        pass
    try:
        DtspnEnv(x, mode="train")
        assert False, "train mode without expert accepted"
    except ValueError:
        pass
    try:
        DtspnEnv(x, mode="eval", config=EnvConfig(turn_radius=40.0))
        assert False, "mismatched turn radius accepted"
    except ValueError:
        pass
    b = DtspnEnv(x, mode="eval").batch
    # every row is done until its first reset
    with pytest.raises(RuntimeError):
        b.step(np.array([3]))
    assert b.t[0] == 0
    b.reset()
    start = np.array(b.pose)
    for a in (-1, b.config.n_actions, True, 1.5, 2.0):
        with pytest.raises(ValueError):
            b.step(np.array([a]))
    # one row takes a (1,) array, not a (1, 1) or 0-d one
    for actions in (np.array([[3]]), np.array(3)):
        with pytest.raises(ValueError, match=r"got \("):
            b.step(actions)
    # a rejected step changes no row, and a good one still runs
    two = EnvBatch([DtspnEnv(x, mode="eval"), DtspnEnv(x, mode="eval")])
    two.reset()
    with pytest.raises(ValueError):
        two.step(np.array([3, -1]))
    assert two.t == [0, 0] and b.t[0] == 0
    assert np.array(b.pose).tobytes() == start.tobytes()
    b.step(np.array([3]))
    assert b.t[0] == 1


def test_reset_of_no_rows_changes_nothing():
    x = small_instance([(180.0, 180.0)])
    for path in (None, _polyline_through_tasks(x)):
        two = EnvBatch([DtspnEnv(x, path, mode="eval"),
                        DtspnEnv(x, path, mode="eval")])
        two.reset()
        two.step(np.array([3, 5]))
        before = _state_bytes(two)
        two.reset(np.array([], dtype=int))
        assert _state_bytes(two) == before


def test_step_rejects_an_action_count_other_than_the_rows():
    x = small_instance([(180.0, 180.0)])
    three = EnvBatch([DtspnEnv(x, mode="eval") for _ in range(3)])
    three.reset()
    before = _state_bytes(three)
    # too few actions once dropped rows; too many were ignored
    for actions in ([3], [3, 3, 3, 3], []):
        with pytest.raises(ValueError, match="actions for 3 rows"):
            three.step(np.array(actions, dtype=int))
        assert _state_bytes(three) == before
    three.step(np.array([3, 3, 3]))
    assert three.t == [1, 1, 1] and len(three.common) == 3


def test_step_after_done_raises():
    start = default_start(200.0, 200.0)
    x = small_instance([(start.x + 20.0, start.y)], r_sense=50.0)
    b = DtspnEnv(x, mode="eval").batch
    b.reset()
    # the single task is already within range of the start pose
    assert b.done[0]
    with pytest.raises(RuntimeError):
        b.step(np.array([3]))
    # one done row stops the whole batch
    far = small_instance([(180.0, 180.0)])
    two = EnvBatch([DtspnEnv(far, mode="eval"), DtspnEnv(x, mode="eval")])
    two.reset()
    assert two.done == [False, True]
    with pytest.raises(RuntimeError):
        two.step(np.array([3, 3]))
    assert two.t == [0, 0]


def _single_run(x, path, mode, config, actions):
    """One episode in the env's own one-row batch under the given action
    stream: the observation each action saw, then per step the rewards,
    done flag, sensed flags and pose."""
    b = DtspnEnv(x, path, mode=mode, config=config).batch
    b.reset()
    rows = []
    for a in actions:
        if b.done[0]:
            break
        common, priv = b.common, b.privileged
        rew = b.step(np.array([a]))
        rows.append((common[0].tobytes(),
                     None if priv is None else priv[0].tobytes(),
                     rew.imitation[0], rew.goal[0], rew.total[0], rew.r[0],
                     rew.newly_sensed[0], b.done[0], bytes(b.sensed[0]),
                     b.pose[0]))
    return rows


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batch_rows_match_single_env_runs(mode):
    # E rows over different instances, each with its own action stream;
    # rows end at different steps and are refilled with the next episode
    config = EnvConfig(max_steps_eval=40)
    episodes = []
    for seed in range(30):
        x = generate(3, 4000 + seed, map_size=(300.0, 300.0))
        path = plan(x) if mode == "train" else None
        rng = np.random.default_rng(seed)
        episodes.append((x, path, rng.integers(0, 7, size=60).tolist()))
    want = [_single_run(x, p, mode, config, acts) for x, p, acts in episodes]
    assert len({len(w) for w in want}) >= 3

    e = 4
    batch = EnvBatch(DtspnEnv(x, p, mode=mode, config=config)
                     for x, p, _ in episodes[:e])
    batch.reset()
    slot = list(range(e))          # episode index held by each row
    nxt = e
    got = {i: [] for i in range(e)}
    while any(s is not None for s in slot):
        live = [i for i in range(e) if slot[i] is not None]
        # retired rows keep flying, unread; one that ends starts over, as
        # a batch steps only when no row is done
        idle = [i for i in range(e) if slot[i] is None and batch.done[i]]
        if idle:
            batch.reset(np.array(idle))
        assert not any(batch.done[i] for i in live)
        acts = np.array([episodes[slot[i]][2][len(got[slot[i]])]
                         if slot[i] is not None else 3 for i in range(e)])
        common, priv = batch.common, batch.privileged
        rew = batch.step(acts)
        for i in live:
            k = slot[i]
            got[k].append((common[i].tobytes(),
                           None if priv is None else priv[i].tobytes(),
                           rew.imitation[i], rew.goal[i], rew.total[i],
                           rew.r[i], rew.newly_sensed[i], batch.done[i],
                           bytes(batch.sensed[i]), batch.pose[i]))
            if batch.done[i] or len(got[k]) == len(episodes[k][2]):
                if nxt < len(episodes):
                    x, p, _ = episodes[nxt]
                    batch.load(i, DtspnEnv(x, p, mode=mode, config=config))
                    batch.reset(np.array([i]))
                    slot[i] = nxt
                    got[nxt] = []
                    nxt += 1
                else:
                    slot[i] = None
    assert nxt == len(episodes)
    for k, rows in enumerate(want):
        assert len(got[k]) == len(rows)
        for g, w in zip(got[k], rows):
            assert g[:2] == w[:2]
            # reward floats, distance and flags, compared by their bits
            assert np.array(g[2:8]).tobytes() == np.array(w[2:8]).tobytes()
            assert g[8] == w[8]
            assert g[9] == w[9]


def test_batch_reproduces_collected_demo_bytes():
    dataset, rep = collect_batch(
        DemoMeta(n_tasks=3, map_width=300.0, map_height=300.0), 8, 4100)
    assert rep["accepted"] == 8
    meta = dataset.meta
    envs = [DtspnEnv(meta.instance_for(d.seed),
                     plan(meta.instance_for(d.seed), n_pos=meta.n_pos,
                          n_head=meta.n_head, config=meta.config),
                     mode="train", config=meta.config) for d in dataset]
    batch = EnvBatch(envs)
    batch.reset()
    n = max(len(d) for d in dataset)
    assert len({len(d) for d in dataset}) > 1
    commons = np.zeros((n, len(dataset), meta.common_dim))
    privs = np.zeros((n, len(dataset), meta.priv_dim))
    rewards = np.zeros((n, len(dataset)))
    dones = np.zeros((n, len(dataset)), dtype=np.uint8)
    for t in range(n):
        # rows past their demo's end start over and fly straight, unread
        acts = np.array([d.actions[t] if t < len(d) else 3 for d in dataset])
        commons[t], privs[t] = batch.common, batch.privileged
        rew = batch.step(acts)
        rewards[t], dones[t] = rew.total, batch.done
        if any(batch.done):
            batch.reset(np.flatnonzero(batch.done))
    for i, d in enumerate(dataset):
        m = len(d)
        assert commons[:m, i].tobytes() == d.commons.tobytes()
        assert privs[:m, i].tobytes() == d.privileged.tobytes()
        assert rewards[:m, i].tobytes() == d.rewards.tobytes()
        assert dones[:m, i].tobytes() == d.dones.tobytes()


def _as_array(values, kind):
    """values as an array: EnvBatch's lists (whose entries must be plain
    Python numbers of type kind) or ReferenceBatch's arrays."""
    if isinstance(values, list):
        flat = [v for row in values
                for v in (row if isinstance(row, (list, tuple)) else [row])]
        assert {type(v) for v in flat} <= {kind}, kind
    return np.array(values)


def _state_bytes(b):
    """Everything a row exposes after reset or step, as dtypes and bytes."""
    return [(a.dtype.str, a.tobytes()) for a in (
        b.common, _as_array(b.pose, float), _as_array(b.sensed, bool),
        _as_array(b.all_sensed, bool), _as_array(b.done, bool),
        _as_array(b.t, int), _as_array(b.progress, int))] + [
            None if b.privileged is None else b.privileged.tobytes()]


def _reward_bytes(rew):
    return [(a.dtype.str, a.tobytes()) for a in (
        _as_array(rew.imitation, float), _as_array(rew.goal, float),
        _as_array(rew.total, float), _as_array(rew.r, float),
        _as_array(rew.newly_sensed, int))]


def _polyline_through_tasks(x: Instance) -> ExpertPath:
    """A cheap stand-in for a planned tour: the start, then each task."""
    pts = [(x.start.x, x.start.y)] + list(x.tasks)
    wps = tuple(Pose(ax, ay, math.atan2(by - ay, bx - ax))
                for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[-1:]))
    return ExpertPath(waypoints=wps, total_length=0.0, sensed_order=())


def _run_pair(envs, pool, actions_of):
    """Step an EnvBatch and a ReferenceBatch over the same envs and
    actions, refilling ended rows from pool, and check after every reset
    and step that the two agree byte for byte.  Returns the refill count."""
    got, ref = EnvBatch(envs), ReferenceBatch(envs)
    got.reset()
    ref.reset()
    assert _state_bytes(got) == _state_bytes(ref)
    refills = 0
    for t, acts in enumerate(actions_of):
        if any(got.done):
            ended = np.flatnonzero(got.done)
            for i in ended.tolist():
                env = pool[refills % len(pool)]
                got.load(i, env)
                ref.load(i, env)
                refills += 1
            got.reset(ended)
            ref.reset(ended)
            assert _state_bytes(got) == _state_bytes(ref)
            if any(got.done):
                continue
        assert _reward_bytes(got.step(acts)) == _reward_bytes(ref.step(acts))
        assert _state_bytes(got) == _state_bytes(ref), t
    return refills


@pytest.mark.parametrize("e", [1, 4, 16])
@pytest.mark.parametrize("n", [3, 20])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_step_and_reset_match_the_array_reference(e, n, mode):
    # random actions over instances whose rows end at different steps and
    # are refilled; train rows follow a polyline through the tasks, eval
    # rows fly without one, except with e=4, where they carry one
    size = (300.0, 300.0) if n == 3 else (800.0, 800.0)
    with_path = mode == "train" or e == 4
    config = EnvConfig(max_steps_eval=30, train_cutoff_dist=25.0)
    pool = []
    for seed in range(e + 12):
        x = generate(n, 6000 + seed, map_size=size)
        pool.append(DtspnEnv(x, _polyline_through_tasks(x) if with_path
                             else None, mode=mode, config=config))
    rng = np.random.default_rng(e * 100 + n)
    actions = rng.integers(0, 7, size=(120, e))
    refills = _run_pair(pool[:e], pool[e:], actions)
    assert refills >= e


def _flight(start: Pose, actions, config: EnvConfig) -> ExpertPath:
    """An expert path one env step per waypoint: start, then each pose a
    flight under actions reaches."""
    x, y, th = start.x, start.y, start.theta
    wps = [start]
    for a in actions:
        x, y, th = advance(x, y, th, config.omegas[a], config.v, config.dt)
        wps.append(Pose(x, y, th))
    return ExpertPath(waypoints=tuple(wps), total_length=0.0, sensed_order=())


@pytest.mark.parametrize("n", [3, 20])
def test_privileged_rows_match_the_array_encoder(n):
    # 16 rows rolled along paths of one waypoint up to longer than their
    # episodes, mostly flying each path's own actions, refilled as they
    # end: after every reset and step, each row's privileged row and
    # progress equal the array encoder's from its pose and prior progress.
    # Every third path repeats each waypoint, whose equal distances the
    # first of them wins
    config = EnvConfig()
    size = (300.0, 300.0) if n == 3 else (800.0, 800.0)
    rng = np.random.default_rng(n)
    pool = []
    for seed, length in enumerate([1, 2, 3, 5, 9, 10, 14, 40, 80, 1] * 3):
        x = generate(n, 6500 + seed, map_size=size)
        acts = rng.integers(0, 7, size=length - 1).tolist()
        path = _flight(x.start, acts, config)
        if seed % 3 == 2:
            path = ExpertPath(tuple(w for w in path.waypoints for _ in "ab"),
                              0.0, ())
        pool.append((DtspnEnv(x, path, mode="train", config=config), acts))
    e = 16
    batch = EnvBatch(env for env, _ in pool[:e])
    slot = list(range(e))

    def check(rows, before):
        for i in rows:
            env = pool[slot[i]][0]
            want, progress = encode_privileged(
                np.array(batch.pose[i:i + 1]), before[i:i + 1],
                padded_waypoints(env.expert_path)[None],
                map_frame(env.instance)[None])
            assert batch.privileged[i].tobytes() == want[0].tobytes()
            assert batch.progress[i] == progress[0]

    batch.reset()
    check(range(e), np.zeros(e, dtype=np.int64))
    refills, clamped, single = 0, 0, 0
    for _ in range(150):
        ended = np.flatnonzero(batch.done).tolist()
        if ended:
            for i in ended:
                slot[i] = (e + refills) % len(pool)
                batch.load(i, pool[slot[i]][0])
                refills += 1
            batch.reset(np.array(ended))
            check(ended, np.zeros(e, dtype=np.int64))
            if any(batch.done):
                continue
        acts = []
        for i, t in enumerate(batch.t):
            plan_acts = pool[slot[i]][1]
            follow = t < len(plan_acts) and rng.random() < 0.9
            acts.append(plan_acts[t] if follow else int(rng.integers(7)))
        before = np.array(batch.progress)
        batch.step(np.array(acts))
        check(range(e), before)
        for i, k in enumerate(batch.progress):
            last = len(pool[slot[i]][0].expert_path.waypoints) - 1
            clamped += k + 4 > last
            single += last == 0
    assert refills >= e and single > 0 and clamped > 0


def _one_row_pair(x, actions, path=None, mode="eval", config=None):
    env = DtspnEnv(x, path, mode=mode, config=config)
    return _run_pair([env], [env], [np.array([a]) for a in actions])


def test_step_matches_the_array_reference_on_edge_geometry():
    cfg = EnvConfig()
    start = default_start(200.0, 200.0)
    # a task within range of a middle substep only, on a straight step and
    # on the hardest left turn
    for a in (3, 6):
        pts = [advance(start.x, start.y, start.theta, cfg.omegas[a], cfg.v,
                       dt) for dt in cfg.substeps]
        mx, my, mth = pts[len(pts) // 2 - 1]
        task = (mx - 1.9 * math.sin(mth), my + 1.9 * math.cos(mth))
        x = small_instance([task, (180.0, 180.0)], r_sense=2.0)
        for px, py in [(start.x, start.y), pts[-1][:2]]:
            assert math.hypot(task[0] - px, task[1] - py) > 2.0
        b = DtspnEnv(x, mode="eval").batch
        b.reset()
        assert b.step(np.array([a])).newly_sensed[0] == 1
        _one_row_pair(x, [a, 3])
    # a task exactly at the start pose and one exactly at the first step's
    # end: offsets (0, 0) encode the bearing as 0.0
    end = advance(start.x, start.y, start.theta, 0.0, cfg.v, cfg.dt)
    x = small_instance([(start.x, start.y), end[:2], (180.0, 180.0)],
                       r_sense=0.5)
    b = DtspnEnv(x, mode="eval").batch
    b.reset()
    assert b.common[0, 5] == 0.0
    b.step(np.array([3]))
    assert b.common[0, 8] == 0.0 and b.sensed[0] == [True, True, False]
    _one_row_pair(x, [3, 3, 2])
    # headings that wrap across +-pi, with tasks straight behind the pose
    for th, a in ((math.pi - 0.05, 6), (math.pi, 0), (-math.pi + 0.05, 0)):
        s = Pose(100.0, 100.0, th)
        tasks = [(100.0 - 40.0 * math.cos(th), 100.0 - 40.0 * math.sin(th)),
                 (20.0, 100.0), (100.0, 20.0)]
        x = Instance(200.0, 200.0, tuple(tasks), 5.0, 30.0, s, 0)
        _one_row_pair(x, [a] * 12 + [3] * 4)
    # r_sense whose square overflows to inf senses every task at reset
    for r_sense in (1e155, 1e200):
        x = small_instance([(180.0, 180.0), (10.0, 20.0)], r_sense=r_sense)
        b = DtspnEnv(x, mode="eval").batch
        b.reset()
        assert b.done[0] and b.all_sensed[0]
        _one_row_pair(x, [])
    # large coordinates, with an expert path in train mode and without
    big = 1e9
    s = default_start(big, big)
    rng = np.random.default_rng(4)
    tasks = [(s.x + dx, s.y + dy)
             for dx, dy in rng.uniform(-150.0, 150.0, size=(6, 2)).tolist()]
    x = Instance(big, big, tuple(tasks), 58.0, 30.0, s, 0)
    acts = rng.integers(0, 7, size=80).tolist()
    _one_row_pair(x, acts)
    _one_row_pair(x, acts, _polyline_through_tasks(x), mode="train",
                  config=EnvConfig(train_cutoff_dist=1e3))


def _reference_record(env, choose, max_steps=None):
    """run_episode's record fields, assembled by stepping a ReferenceBatch
    of env by hand; choose(ref, obs) picks each action."""
    ref = ReferenceBatch([env])
    ref.reset()
    sensed = ref.sensed[0].copy()
    events = [(-1, int(j)) for j in np.flatnonzero(sensed)]
    steps = []
    while not ref.done[0] and (max_steps is None or len(steps) < max_steps):
        obs = Observation(ref.common[0], None if ref.privileged is None
                          else ref.privileged[0])
        a = choose(ref, obs)
        rew = ref.step(np.array([a]))
        steps.append((obs.common, obs.privileged, ref.pose[0], a,
                      rew.imitation[0], rew.goal[0], rew.newly_sensed[0],
                      ref.done[0]))
        events += [(len(steps) - 1, int(j))
                   for j in np.flatnonzero(ref.sensed[0] & ~sensed)]
        sensed = ref.sensed[0].copy()
    commons, privs, poses, actions, r_im, r_goal, newly, dones = zip(*steps)
    return dict(
        start_pose=tuple(ref._starts[0].tolist()),
        commons=np.array(commons),
        privileged=None if privs[0] is None else np.array(privs),
        poses=np.array(poses), actions=np.array(actions, dtype=np.int64),
        r_imitation=np.array(r_im), r_goal=np.array(r_goal),
        newly_sensed=np.array(newly, dtype=np.int64),
        dones=np.array(dones, dtype=np.uint8), sensed_events=events,
        sensed_all=bool(sensed.all()), n_sensed=int(sensed.sum()))


def _assert_record_matches(rec, want):
    for name, value in want.items():
        got = getattr(rec, name)
        if isinstance(value, np.ndarray):
            assert (got.dtype.str, got.shape, got.tobytes()) == \
                (value.dtype.str, value.shape, value.tobytes()), name
        else:
            assert got == value and type(got) is type(value), name
    assert [type(v) for v in rec.start_pose] == [float] * 3
    assert {type(v) for e in rec.sensed_events for v in e} <= {int}


def test_run_episode_matches_reference_steps():
    # an eval row without a path under a bundle actor
    x = generate(20, 104, map_size=(800.0, 800.0))
    env = DtspnEnv(x, mode="eval", config=EnvConfig(max_steps_eval=120))
    act_fn = bundle_actor(init_bundle(common_dim=83, seed=0), False)
    rec = run_episode(env, act_fn)
    want = _reference_record(env, lambda ref, obs: act_fn(obs))
    assert len(rec) == 120 and rec.privileged is None
    _assert_record_matches(rec, want)

    # a train row tracking its expert path, with the step cap of track
    x = generate(3, 4101, map_size=(300.0, 300.0))
    path = plan(x)
    env, rec = track(x, path)
    last = len(path.waypoints) - 1

    def follow(ref, obs):
        target = path.waypoints[min(int(ref.progress[0]) + 2, last)]
        return greedy_action(*ref.pose[0].tolist(), target, env.config)

    want = _reference_record(env, follow,
                             max_steps=max(4 * len(path.waypoints), 400))
    assert rec.sensed_all and rec.privileged is not None
    _assert_record_matches(rec, want)

    # a task in range at reset, then two sensed on one step (mirror images
    # across the straight flight line), then a far one left unsensed
    s = Pose(100.0, 100.0, 0.0)
    x = Instance(400.0, 400.0, ((110.0, 100.0), (140.0, 110.0),
                                (140.0, 90.0), (380.0, 380.0)), 15.0, 30.0,
                 s, 0)
    env = DtspnEnv(x, mode="eval", config=EnvConfig(max_steps_eval=12))
    rec = run_episode(env, lambda obs: 3)
    want = _reference_record(env, lambda ref, obs: 3)
    assert rec.sensed_events[0] == (-1, 0) and 2 in rec.newly_sensed.tolist()
    assert not rec.sensed_all and rec.n_sensed == 3
    _assert_record_matches(rec, want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(-math.pi, math.pi), st.integers(0, 6),
       st.floats(0.5, 120.0), st.floats(-1e-9, 1e-9),
       st.sampled_from([0.5, 2.0, 5.0, 1e9]), st.integers(0, 2 ** 32 - 1))
def test_far_task_filter_never_drops_a_hit(theta, a, r_sense, slack,
                                           substep, seed):
    # one task at r_sense + slack from each substep point: the per-row pass,
    # which tests substeps only for tasks near the step's end, senses
    # exactly the tasks that testing every point against every task does
    cfg = EnvConfig(sense_substep=substep)
    x0, y0 = 1000.0, 1000.0
    pts = [advance(x0, y0, theta, cfg.omegas[a], cfg.v, dt)
           for dt in cfg.substeps]
    bearings = np.random.default_rng(seed).uniform(-math.pi, math.pi,
                                                   size=len(pts))
    tasks = [(px + (r_sense + slack) * math.cos(phi),
              py + (r_sense + slack) * math.sin(phi))
             for (px, py, _), phi in zip(pts, bearings.tolist())]
    x = Instance(2000.0, 2000.0, tuple(tasks), r_sense, 30.0,
                 Pose(x0, y0, 0.0), 0)
    b = DtspnEnv(x, mode="eval", config=cfg).batch
    ex, ey, eth = pts[-1]
    flags = [False] * len(tasks)
    _, newly, _, _ = b._pass(0, flags, ex, ey, normalize_angle(eth),
                             (x0, y0, theta, cfg.omegas[a]))
    want = np.zeros((1, len(tasks)), dtype=bool)
    k, _ = sense(x.task_array().T[None, :, None], np.full((1, 1, 1),
                 r_sense * r_sense), np.array(pts)[:, 0:2].T[None], want)
    assert flags == want[0].tolist() and newly == k[0]


def test_config_rejects_empty_eval_cap_and_bad_cutoff():
    for kw in ({"max_steps_eval": 0}, {"max_steps_eval": -3},
               {"train_cutoff_dist": -1.0}, {"train_cutoff_dist": math.nan},
               {"dt": 1e307}):
        with pytest.raises(ValueError, match=next(iter(kw))):
            EnvConfig(**kw)
    assert EnvConfig(max_steps_eval=1, train_cutoff_dist=0.0).max_steps_eval == 1
    assert EnvConfig(train_cutoff_dist=math.inf).train_cutoff_dist == math.inf


def test_config_refuses_more_sensing_substeps_than_its_cap():
    # 1e-300 m would ask substeps for about 1e301 entries, and 5e-324 m
    # for infinitely many: each is refused in __post_init__, with no more
    # allocated than the error takes
    step = EnvConfig().step_dist
    for tiny in (1e-300, 5e-324, step / (MAX_SUBSTEPS + 0.5)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="sense_substep"):
                EnvConfig(sense_substep=tiny)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, tiny
    assert len(EnvConfig(sense_substep=step / (MAX_SUBSTEPS - 0.5))
               .substeps) == MAX_SUBSTEPS
