import math

import numpy as np

import dtspn.demos as demos_mod
from dtspn.demos import (DemoDataset, DemoFormatError, GAMMA, TrackingFailure,
                         _HEADER, MAGIC, collect, collect_batch,
                         greedy_action, load_dataset,
                         make_meta, replay_rewards, save_dataset,
                         track_target)
from dtspn.dubins import Pose
from dtspn.env import DtspnEnv, EnvConfig, advance
from dtspn.expert import ExpertPath, plan
from dtspn.instance import Instance, generate
from dtspn.learn import discounted_return


def straight_path(start: Pose, n: int, spacing: float) -> ExpertPath:
    wps = tuple(Pose(start.x + k * spacing, start.y, 0.0) for k in range(n))
    return ExpertPath(waypoints=wps, total_length=(n - 1) * spacing,
                      sensed_order=())


def test_greedy_action_examples():
    cfg = EnvConfig()
    pose = Pose(0.0, 0.0, 0.0)
    # dead ahead at one step's distance: straight wins
    assert greedy_action(pose, Pose(cfg.step_dist, 0.0, 0.0), cfg) == 3
    # bearing +90 nearby: hard left
    a = greedy_action(pose, Pose(0.0, 10.0, 0.0), cfg)
    assert a == cfg.n_actions - 1
    assert cfg.omegas[a] == cfg.omega_max
    # bearing -90: hard right
    a = greedy_action(pose, Pose(0.0, -10.0, 0.0), cfg)
    assert a == 0 and cfg.omegas[a] == -cfg.omega_max
    # directly behind: both extremes tie, the index order picks the right turn
    assert greedy_action(pose, Pose(-50.0, 0.0, 0.0), cfg) in (0, cfg.n_actions - 1)


def test_greedy_action_is_exhaustively_optimal():
    cfg = EnvConfig()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        pose = Pose(rng.uniform(-100, 100), rng.uniform(-100, 100),
                    rng.uniform(-math.pi, math.pi))
        target = Pose(rng.uniform(-100, 100), rng.uniform(-100, 100), 0.0)
        a = greedy_action(pose, target, cfg)
        dists = []
        for omega in cfg.omegas:
            x, y, _ = advance(pose.x, pose.y, pose.theta, omega, cfg.v, cfg.dt)
            dists.append(math.hypot(x - target.x, y - target.y))
        assert dists[a] <= min(dists) + 1e-12


def test_track_target_lookahead_and_clamp():
    start = Pose(40.0, 200.0, 0.0)
    path = straight_path(start, 10, 10.0)
    from dtspn.env import SimState
    sim = SimState(pose=start, sensed=np.zeros(1, dtype=np.uint8),
                   t=0, progress_idx=0)
    assert track_target(sim, path) == path.waypoints[2]
    assert track_target(sim, path, lookahead=0) == path.waypoints[0]
    sim.progress_idx = 9
    assert track_target(sim, path) == path.waypoints[9]
    sim.progress_idx = 8
    assert track_target(sim, path, lookahead=5) == path.waypoints[9]


def test_collect_straight_corridor():
    w = h = 400.0
    start = Pose(40.0, 200.0, 0.0)
    sp = 3.6 * math.pi  # one env step per waypoint
    far = start.x + 19.0 * sp
    x = Instance(w, h, ((far, 230.0), (far, 170.0)), 50.0, 30.0, start, 0)
    path = straight_path(start, 20, sp)
    d = collect(x, path)
    assert d.sensed_all
    assert len(d) > 0
    assert np.all(d.actions == 3)
    assert np.all(d.rewards[:-1] == 0.1)
    assert d.rewards[-1] == 10.0
    assert abs(d.return_undiscounted - d.rewards.sum()) < 1e-9
    assert abs(d.return_discounted - discounted_return(d.rewards, GAMMA)) < 1e-9
    assert d.commons.shape == (len(d), 3 + 4 * 2)
    assert d.privileged.shape == (len(d), 12)
    assert d.dones[-1] == 1 and np.all(d.dones[:-1] == 0)


def test_collect_zero_transitions_when_presensed():
    w = h = 200.0
    start = Pose(100.0, 10.0, 0.0)
    x = Instance(w, h, ((110.0, 20.0),), 50.0, 30.0, start, 0)
    path = ExpertPath(waypoints=(start,), total_length=0.0, sensed_order=(0,))
    d = collect(x, path)
    assert len(d) == 0 and d.sensed_all
    assert d.return_undiscounted == 0.0 and d.return_discounted == 0.0
    assert d.commons.shape == (0, 7)


def test_collect_raises_on_cutoff():
    w = h = 400.0
    start = Pose(200.0, 200.0, 0.0)
    x = Instance(w, h, ((390.0, 390.0),), 5.0, 30.0, start, 0)
    # expert polyline nowhere near the start pose: first step exceeds 60 m
    off_path = ExpertPath(waypoints=(Pose(200.0, 330.0, 0.0),
                                     Pose(210.0, 330.0, 0.0)),
                          total_length=10.0, sensed_order=())
    try:
        collect(x, off_path)
        assert False, "cutoff episode accepted"
    except TrackingFailure as e:
        assert e.step_index == 1
        assert e.max_deviation > 60.0


def test_collect_raises_on_stall():
    w = h = 400.0
    start = Pose(200.0, 200.0, 0.0)
    x = Instance(w, h, ((390.0, 390.0),), 5.0, 30.0, start, 0)
    point = ExpertPath(waypoints=(start,), total_length=0.0, sensed_order=())
    try:
        collect(x, point)
        assert False, "stalled episode accepted"
    except TrackingFailure as e:
        assert e.step_index == 400
        assert e.max_deviation <= 61.0


def test_tracking_deviation_is_small_on_planned_paths():
    x = generate(n_tasks=3, seed=5, map_size=(300.0, 300.0))
    path = plan(x, n_pos=3, n_head=2)
    env = DtspnEnv(x, path, mode="train")
    env.reset()
    devs = []
    done = env._finished
    while not done:
        target = track_target(env.state, path)
        a = greedy_action(env.state.pose, target, env.config)
        _, rew, done, info = env.step(a)
        devs.append(rew.r)
    assert info["all_sensed"]
    rms = math.sqrt(np.mean(np.square(devs)))
    assert rms <= 5.0, f"tracking RMS {rms:.2f} m"


def test_collect_batch_and_roundtrip(tmp_path):
    ds, report = collect_batch(3, base_seed=0, n_tasks=3,
                               map_size=(300.0, 300.0), n_pos=3, n_head=2)
    assert len(ds) == 3
    assert report["accepted"] == 3
    assert report["accepted"] + len(report["rejected"]) == report["attempted"]
    assert ds.meta.n_tasks == 3 and ds.meta.common_dim == 15
    assert ds.meta.n_pos == 3 and ds.meta.n_head == 2
    for d in ds:
        assert d.sensed_all
        assert abs(d.return_undiscounted - d.rewards.sum()) < 1e-9
        assert abs(d.return_discounted - discounted_return(d.rewards, GAMMA)) < 1e-9

    p = tmp_path / "demos.bin"
    save_dataset(ds, str(p))
    back = load_dataset(str(p))
    assert back.meta == ds.meta
    assert len(back) == len(ds)
    for a, b in zip(ds, back):
        assert a.seed == b.seed and a.sensed_all == b.sensed_all
        assert a.return_undiscounted == b.return_undiscounted
        assert a.return_discounted == b.return_discounted
        assert a.commons.tobytes() == b.commons.tobytes()
        assert a.privileged.tobytes() == b.privileged.tobytes()
        assert a.rewards.tobytes() == b.rewards.tobytes()
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.dones, b.dones)


def test_replay_reproduces_rewards_exactly(tmp_path):
    ds, _ = collect_batch(2, base_seed=10, n_tasks=3,
                          map_size=(300.0, 300.0), n_pos=3, n_head=2)
    for d in ds:
        again = replay_rewards(d, ds.meta)
        assert len(again) == len(d)
        assert again.tobytes() == d.rewards.tobytes()


def test_waypoints_follow_env_step_and_replay_stays_exact(monkeypatch):
    # a shorter step than the default: the planner must space its waypoints
    # one env step apart, in collection and in replay alike
    cfg = EnvConfig(dt=0.1)
    planned = []

    def recording_plan(*args, **kwargs):
        planned.append(plan(*args, **kwargs))
        return planned[-1]

    monkeypatch.setattr(demos_mod, "plan", recording_plan)
    ds, report = collect_batch(2, base_seed=10, n_tasks=3,
                               map_size=(300.0, 300.0), n_pos=3, n_head=2,
                               config=cfg)
    assert report["accepted"] == 2
    for d in ds:
        assert replay_rewards(d, ds.meta).tobytes() == d.rewards.tobytes()
    assert len(planned) >= 4
    for path in planned:
        w = path.waypoint_array()
        gaps = np.hypot(*np.diff(w[:, :2], axis=0).T)
        assert gaps.max() <= cfg.step_dist + 1e-9


def test_empty_dataset_roundtrip(tmp_path):
    x = generate(n_tasks=4, seed=0, map_size=(300.0, 300.0))
    ds = DemoDataset([], meta=make_meta(x))
    p = tmp_path / "empty.bin"
    save_dataset(ds, str(p))
    back = load_dataset(str(p))
    assert len(back) == 0 and back.meta == ds.meta


def test_transitions_view():
    w = h = 400.0
    start = Pose(40.0, 200.0, 0.0)
    sp = 3.6 * math.pi
    x = Instance(w, h, ((start.x + 10.0 * sp, 200.0),), 50.0, 30.0, start, 0)
    d = collect(x, straight_path(start, 12, sp))
    trs = d.transitions
    assert len(trs) == len(d)
    assert trs[0].action == int(d.actions[0])
    assert trs[-1].done and not trs[0].done
    assert np.array_equal(trs[2].common_obs, d.commons[2])


def test_load_rejects_malformed_files(tmp_path):
    x = generate(n_tasks=3, seed=0, map_size=(300.0, 300.0))
    ds = DemoDataset([], meta=make_meta(x))
    p = tmp_path / "ok.bin"
    save_dataset(ds, str(p))
    raw = p.read_bytes()

    bad_magic = b"XXXXXXXX" + raw[8:]
    (tmp_path / "m.bin").write_bytes(bad_magic)
    try:
        load_dataset(str(tmp_path / "m.bin"))
        assert False
    except DemoFormatError as e:
        assert "magic" in str(e)

    bad_version = raw[:8] + (99).to_bytes(4, "little") + raw[12:]
    (tmp_path / "v.bin").write_bytes(bad_version)
    try:
        load_dataset(str(tmp_path / "v.bin"))
        assert False
    except DemoFormatError as e:
        assert "99" in str(e) and "1" in str(e)

    (tmp_path / "t.bin").write_bytes(raw[: _HEADER.size - 3])
    try:
        load_dataset(str(tmp_path / "t.bin"))
        assert False
    except DemoFormatError as e:
        assert "truncated" in str(e)

    (tmp_path / "x.bin").write_bytes(raw + b"zz")
    try:
        load_dataset(str(tmp_path / "x.bin"))
        assert False
    except DemoFormatError as e:
        assert "trailing" in str(e)

    # header whose declared common dim disagrees with its task count
    vals = list(_HEADER.unpack_from(raw, 0))
    vals[17] = 50  # common_dim; for 3 tasks the encoder produces 15
    (tmp_path / "d.bin").write_bytes(_HEADER.pack(*vals) + raw[_HEADER.size:])
    try:
        load_dataset(str(tmp_path / "d.bin"))
        assert False
    except DemoFormatError as e:
        assert "15" in str(e) and "50" in str(e)

    # header whose speed is not omega_max * turn_radius
    vals = list(_HEADER.unpack_from(raw, 0))
    vals[7] = 50.0  # v
    (tmp_path / "k.bin").write_bytes(_HEADER.pack(*vals) + raw[_HEADER.size:])
    try:
        load_dataset(str(tmp_path / "k.bin"))
        assert False
    except DemoFormatError as e:
        assert "kinematics" in str(e) and "50" in str(e)


def test_collect_batch_reports_rejections():
    # a point-size sensing radius makes the expert planner fail on purpose
    ds, report = collect_batch(1, base_seed=0, n_tasks=3,
                               map_size=(300.0, 300.0), r_sense=1e-6,
                               n_pos=1, n_head=1, max_attempts=2)
    assert len(ds) <= 1
    assert report["attempted"] == 2 or report["accepted"] == 1
    if report["accepted"] == 0:
        assert len(report["rejected"]) == 2
        assert report["accept_rate"] == 0.0
