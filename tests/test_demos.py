import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dtspn.demos as demos_mod
from dtspn.demos import (DemoDataset, DemoFormatError, DemoMeta,
                         Demonstration, GAMMA,
                         TrackingFailure, _HEADER, _RECORD, MAGIC,
                         _transition_dtype, collect,
                         collect_batch,
                         greedy_action, load_dataset,
                         make_meta, replay_rewards, save_dataset,
                         tracker)
from dtspn.dubins import Pose
from dtspn.env import DtspnEnv, EnvConfig, advance, run_episode
from dtspn.expert import MAX_POSES_PER_TASK, ExpertPath, plan
from dtspn.instance import Instance, generate
from dtspn.learn import discounted_return


SMALL = DemoMeta(n_tasks=3, map_width=300.0, map_height=300.0, n_pos=3,
                 n_head=2)


def straight_path(start: Pose, n: int, spacing: float) -> ExpertPath:
    wps = tuple(Pose(start.x + k * spacing, start.y, 0.0) for k in range(n))
    return ExpertPath(waypoints=wps, total_length=(n - 1) * spacing,
                      sensed_order=())


def test_greedy_action_examples():
    cfg = EnvConfig()
    pose = (0.0, 0.0, 0.0)
    # dead ahead at one step's distance: straight wins
    assert greedy_action(*pose, Pose(cfg.step_dist, 0.0, 0.0), cfg) == 3
    # bearing +90 nearby: hard left
    a = greedy_action(*pose, Pose(0.0, 10.0, 0.0), cfg)
    assert a == cfg.n_actions - 1
    assert cfg.omegas[a] == cfg.omega_max
    # bearing -90: hard right
    a = greedy_action(*pose, Pose(0.0, -10.0, 0.0), cfg)
    assert a == 0 and cfg.omegas[a] == -cfg.omega_max
    # directly behind: both extremes tie, the index order picks the right turn
    assert greedy_action(*pose, Pose(-50.0, 0.0, 0.0), cfg) in (0, cfg.n_actions - 1)


def test_greedy_action_is_exhaustively_optimal():
    cfg = EnvConfig()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        pose = Pose(rng.uniform(-100, 100), rng.uniform(-100, 100),
                    rng.uniform(-math.pi, math.pi))
        target = Pose(rng.uniform(-100, 100), rng.uniform(-100, 100), 0.0)
        a = greedy_action(pose.x, pose.y, pose.theta, target, cfg)
        dists = []
        for omega in cfg.omegas:
            x, y, _ = advance(pose.x, pose.y, pose.theta, omega, cfg.v, cfg.dt)
            dists.append(math.hypot(x - target.x, y - target.y))
        assert dists[a] <= min(dists) + 1e-12


def test_tracker_chases_two_waypoints_ahead_clamped_to_the_end(monkeypatch):
    start = Pose(40.0, 200.0, 0.0)
    path = straight_path(start, 10, 10.0)
    x = Instance(400.0, 400.0, ((390.0, 390.0),), 5.0, 30.0, start, 0)
    env = DtspnEnv(x, path, mode="train")
    b = env.batch
    b.reset()
    targets = []
    monkeypatch.setattr(demos_mod, "greedy_action",
                        lambda px, py, th, target, cfg: targets.append(
                            (px, py, th, target)) or 3)
    act_fn = tracker(env)
    for progress, want in ((0, 2), (7, 9), (8, 9), (9, 9)):
        b.progress[0] = progress
        assert act_fn(None) == 3
        assert targets[-1] == (*b.pose[0], path.waypoints[want])


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
    rec = run_episode(env, tracker(env))
    assert rec.sensed_all
    devs = env.batch.expert_distance(rec.poses[:, 0:2, None])
    rms = math.sqrt(np.mean(np.square(devs)))
    assert rms <= 5.0, f"tracking RMS {rms:.2f} m"


def test_collect_batch_and_roundtrip(tmp_path):
    ds, report = collect_batch(SMALL, 3)
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


def test_collect_batch_matches_the_per_seed_pipeline(tmp_path):
    # a family off every default; seed 80's start senses both tasks
    cfg = EnvConfig(turn_radius=20.0, dt=0.15, literal_goal_sum=True)
    meta = DemoMeta(n_tasks=2, map_width=300.0, map_height=300.0,
                    r_sense=40.0, config=cfg, n_pos=5, n_head=3)
    ds, report = collect_batch(meta, 5, 78)
    demos, rejected = [], []
    for seed in range(78, 84):
        x = generate(2, seed, map_size=(300.0, 300.0), r_sense=40.0,
                     turn_radius=20.0)
        try:
            demo = collect(x, plan(x, n_pos=5, n_head=3, config=cfg), cfg)
        except RuntimeError as e:
            rejected.append((seed, str(e)))
        else:
            if len(demo):
                demos.append(demo)
            else:
                rejected.append((seed, "start senses every task"))
    assert report["rejected"] == rejected == [(80, "start senses every task")]
    assert (report["attempted"], report["accepted"]) == (6, 5)
    save_dataset(ds, str(tmp_path / "batch.bin"))
    save_dataset(DemoDataset(demos, meta=meta), str(tmp_path / "want.bin"))
    assert (tmp_path / "batch.bin").read_bytes() == \
        (tmp_path / "want.bin").read_bytes()


def test_replay_reproduces_rewards_exactly(tmp_path):
    ds, _ = collect_batch(SMALL, 2, 10)
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
    ds, report = collect_batch(dataclasses.replace(SMALL, config=cfg), 2, 10)
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
        assert "99" in str(e) and "2" in str(e)

    # version 1 files were planned with the closed-tour solver; replaying
    # them against today's planner would give different rewards
    v1 = raw[:8] + (1).to_bytes(4, "little") + raw[12:]
    (tmp_path / "v1.bin").write_bytes(v1)
    try:
        load_dataset(str(tmp_path / "v1.bin"))
        assert False
    except DemoFormatError as e:
        assert "version 1" in str(e)

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


def test_load_rejects_invalid_header_values(tmp_path):
    # values the format can hold but that no env config, instance or
    # planner accepts
    x = generate(n_tasks=3, seed=0, map_size=(300.0, 300.0))
    p = tmp_path / "ok.bin"
    save_dataset(DemoDataset([], meta=make_meta(x)), str(p))
    raw = p.read_bytes()
    for field, value, word in ((10, 6, "n_actions"), (3, -300.0, "map_width"),
                               (5, -58.0, "r_sense"), (5, math.nan, "r_sense"),
                               (7, math.nan, "kinematics"),
                               (8, -0.2, "dt"), (13, 0.0, "sense_substep"),
                               (14, 2, "literal_goal_sum"), (15, 0, "n_pos"),
                               # one flipped high byte of n_actions (7),
                               # n_pos (8) or n_head (4)
                               (10, 7 + 2 ** 24, "n_actions"),
                               (10, 7 + 2 ** 8, "n_actions"),
                               (15, 8 + 2 ** 24, "n_pos"),
                               (16, 4 + 2 ** 16, "n_head")):
        vals = list(_HEADER.unpack_from(raw, 0))
        vals[field] = value
        bad = tmp_path / "h.bin"
        bad.write_bytes(_HEADER.pack(*vals) + raw[_HEADER.size:])
        with pytest.raises(DemoFormatError, match=word):
            load_dataset(str(bad))


def corridor_demo():
    """A one-task instance and the demonstration that tracks a straight
    expert path through it."""
    w = h = 400.0
    start = Pose(40.0, 200.0, 0.0)
    sp = 3.6 * math.pi
    x = Instance(w, h, ((start.x + 10.0 * sp, 200.0),), 50.0, 30.0, start, 0)
    return x, collect(x, straight_path(start, 12, sp))


def test_load_rejects_out_of_range_action(tmp_path):
    x, d = corridor_demo()
    d.actions[3] = 7
    save_dataset(DemoDataset([d], meta=make_meta(x)), str(tmp_path / "a.bin"))
    with pytest.raises(DemoFormatError, match="record 0: action"):
        load_dataset(str(tmp_path / "a.bin"))


def test_load_rejects_records_whose_stored_fields_disagree_with_rows(tmp_path):
    x, d = corridor_demo()
    n = len(d)
    assert n > 3
    p = tmp_path / "ok.bin"
    save_dataset(DemoDataset([d, d], meta=make_meta(x)), str(p))
    raw = p.read_bytes()
    assert len(load_dataset(str(p))) == 2
    # second record: its header, then its rows
    size = _transition_dtype(7, 12).itemsize
    rec = _HEADER.size + _RECORD.size + n * size
    done = rec + _RECORD.size + size - 1        # the done byte ends each row
    nan = struct.pack("<d", math.nan)
    for at, value, word in (
            (rec + 12, [0], "sensed_all"),
            # the high byte of each stored return flipped, or a NaN return
            (rec + 20, [raw[rec + 20] ^ 0xFF], "stored undiscounted"),
            (rec + 28, [raw[rec + 28] ^ 0xFF], "stored discounted"),
            (rec + 13, nan, "stored undiscounted"),
            (rec + 21, nan, "stored discounted"),
            (done, [5], "done"),
            (done + (n // 2) * size, [1], "done"),
            (done + (n - 1) * size, [0], "done")):
        bad = bytearray(raw)
        bad[at:at + len(value)] = bytes(value)
        (tmp_path / "bad.bin").write_bytes(bytes(bad))
        with pytest.raises(DemoFormatError, match=f"record 1: .*{word}"):
            load_dataset(str(tmp_path / "bad.bin"))


def reference_save_dataset(demos, path: str) -> None:
    """The record-by-record writer that predates the row store, kept to pin
    the file layout."""
    meta = demos.meta
    cfg = meta.config
    header = _HEADER.pack(
        MAGIC, 2, meta.n_tasks,
        meta.map_width, meta.map_height, meta.r_sense, cfg.turn_radius,
        cfg.v, cfg.dt, cfg.omega_max, cfg.n_actions, cfg.max_steps_eval,
        cfg.train_cutoff_dist, cfg.sense_substep,
        int(cfg.literal_goal_sum), meta.n_pos, meta.n_head,
        meta.common_dim, meta.priv_dim, len(demos))
    rec = struct.Struct("<QIBdd")
    dt = _transition_dtype(meta.common_dim, meta.priv_dim)
    with open(path, "wb") as f:
        f.write(header)
        for d in demos:
            f.write(rec.pack(d.seed, len(d), int(d.sensed_all),
                             d.return_undiscounted, d.return_discounted))
            block = np.empty(len(d), dtype=dt)
            block["common"] = d.commons
            block["priv"] = d.privileged
            block["reward"] = d.rewards
            block["action"] = d.actions
            block["done"] = d.dones
            f.write(block.tobytes())


@pytest.fixture(scope="module")
def small_batch():
    ds, report = collect_batch(dataclasses.replace(SMALL, n_tasks=1), 2)
    assert report["accepted"] == 2
    return ds


def test_save_matches_reference_writer(tmp_path, small_batch):
    x = Instance(200.0, 200.0, ((110.0, 20.0),), 50.0, 30.0,
                 Pose(100.0, 10.0, 0.0), 0)
    presensed = collect(x, ExpertPath(waypoints=(x.start,), total_length=0.0,
                                      sensed_order=(0,)))
    assert len(presensed) == 0
    for ds in (small_batch, DemoDataset([], meta=small_batch.meta),
               DemoDataset([presensed], meta=make_meta(x))):
        save_dataset(ds, str(tmp_path / "new.bin"))
        reference_save_dataset(ds, str(tmp_path / "ref.bin"))
        raw = (tmp_path / "new.bin").read_bytes()
        assert raw == (tmp_path / "ref.bin").read_bytes()
        back = load_dataset(str(tmp_path / "new.bin"))
        save_dataset(back, str(tmp_path / "again.bin"))
        assert (tmp_path / "again.bin").read_bytes() == raw


def reference_stack(dataset, idxs):
    """Per-episode vstack that predates DemoDataset.rows_of."""
    commons = np.vstack([dataset[i].commons for i in idxs])
    privs = np.vstack([dataset[i].privileged for i in idxs])
    actions = np.concatenate([dataset[i].actions for i in idxs]).astype(np.int64)
    return commons, privs, actions


def test_rows_of_matches_per_episode_stack():
    rng = np.random.default_rng(3)
    demos = []
    for e, n in enumerate([5, 0, 17, 1, 9, 0, 12, 30]):
        dones = np.zeros(n, dtype=np.uint8)
        dones[-1:] = 1
        demos.append(Demonstration(
            seed=e, commons=rng.normal(size=(n, 11)),
            privileged=rng.normal(size=(n, 12)),
            actions=rng.integers(0, 7, n).astype(np.uint8),
            rewards=rng.normal(size=n), dones=dones))
    ds = DemoDataset(demos)
    subsets = [rng.choice(len(ds), size=k, replace=False)
               for k in (1, 2, 3, 5, 8) for _ in range(4)]
    subsets += [np.sort(s) for s in subsets] + [[1, 5]]
    for idxs in subsets:
        for a, b in zip(ds.rows_of(idxs), reference_stack(ds, idxs)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.flags.c_contiguous and not np.shares_memory(a, ds.rows)
            assert a.tobytes() == b.tobytes()
    # the vstack needs at least one episode; the row store yields no rows
    with pytest.raises(ValueError):
        reference_stack(ds, [])
    c, p, a = ds.rows_of([])
    assert c.shape == (0, 11) and p.shape == (0, 12) and a.shape == (0,)
    assert (c.dtype, p.dtype, a.dtype) == (np.float64, np.float64, np.int64)


def test_dataset_items_are_views_of_the_rows(small_batch):
    ds = small_batch
    assert len(ds.offsets) == len(ds) + 1 and ds.offsets[-1] == len(ds.rows)
    for i, d in enumerate(ds):
        assert np.shares_memory(d.commons, ds.rows)
        assert d.seed == ds.seeds[i] and len(d) == np.diff(ds.offsets)[i]
        assert (d.commons.dtype, d.privileged.dtype, d.actions.dtype,
                d.rewards.dtype, d.dones.dtype) == (
            np.float64, np.float64, np.uint8, np.float64, np.uint8)
        assert d.return_undiscounted == float(np.array(d.rewards).sum())
        assert d.return_discounted == discounted_return(d.rewards, GAMMA)
    assert ds[-1].seed == ds.seeds[-1]
    head = ds[:1]
    assert isinstance(head, DemoDataset) and head.meta == ds.meta
    assert len(head) == 1 and head[0].rewards.tobytes() == \
        ds[0].rewards.tobytes()
    with pytest.raises(IndexError):
        ds[len(ds)]


def test_long_episode_return_is_the_contiguous_sum():
    # numpy sums a strided view in blocks of 8192 rows, which rounds
    # differently from the one contiguous sum made at collection
    rng = np.random.default_rng(5)
    n = 9000
    rewards = 10.0 * rng.normal(size=n)
    dones = np.zeros(n, dtype=np.uint8)
    dones[-1] = 1
    ds = DemoDataset([Demonstration(0, np.zeros((n, 7)), np.zeros((n, 12)),
                                    np.zeros(n, dtype=np.uint8), rewards,
                                    dones)])
    assert ds[0].return_undiscounted == float(rewards.sum())


@pytest.fixture(scope="module")
def demo_bytes(tmp_path_factory, small_batch):
    p = tmp_path_factory.mktemp("demos") / "d.bin"
    save_dataset(small_batch, str(p))
    return p.read_bytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_load_fuzz_raises_only_format_errors(tmp_path_factory, demo_bytes,
                                             data):
    # byte flips (half of them in the header) and truncations either raise
    # DemoFormatError or load a dataset whose config, instances and envs
    # can be built and whose stored fields agree with its rows
    raw = bytearray(demo_bytes)
    at = st.one_of(st.integers(0, _HEADER.size - 1),
                   st.integers(0, len(raw) - 1))
    for i, value in data.draw(st.lists(st.tuples(at, st.integers(0, 255)),
                                       min_size=1, max_size=4)):
        raw[i] = value
    end = st.one_of(st.just(len(raw)), st.integers(0, len(raw)))
    raw = bytes(raw[:data.draw(end)])
    p = tmp_path_factory.mktemp("fuzz") / "d.bin"
    p.write_bytes(raw)
    try:
        ds = load_dataset(str(p))
    except DemoFormatError:
        return
    meta = ds.meta
    for seed in [0] + [d.seed for d in ds]:
        DtspnEnv(meta.instance_for(seed), mode="eval",
                 config=meta.config).batch.reset()
    off = _HEADER.size
    for d in ds:
        assert d.commons.shape == (len(d), meta.common_dim)
        assert (d.actions < meta.config.n_actions).all()
        seed, n, sensed_all, r_u, r_d = _RECORD.unpack_from(raw, off)
        assert (seed, n, sensed_all) == (d.seed, len(d), 1)
        assert abs(r_u - float(np.array(d.rewards).sum())) <= 1e-9
        assert abs(r_d - discounted_return(d.rewards, GAMMA)) <= 1e-9
        assert list(d.dones) == [0] * (len(d) - 1) + [1] * (len(d) > 0)
        off += _RECORD.size + n * ds.rows.itemsize
    assert off == len(raw)
    assert meta.config.n_actions <= 255
    assert meta.n_pos * meta.n_head <= MAX_POSES_PER_TASK


def test_collect_batch_reports_rejections():
    # a point-size sensing radius makes the expert planner fail on purpose
    ds, report = collect_batch(dataclasses.replace(
        SMALL, r_sense=1e-6, n_pos=1, n_head=1), 1)
    # every seed fails, so the batch stops at its bound of 2 * 1 + 20 seeds
    assert len(ds) == 0
    assert report["attempted"] == 22 and report["accepted"] == 0
    assert [seed for seed, _ in report["rejected"]] == list(range(22))
    assert report["accept_rate"] == 0.0


def test_collect_batch_rejects_an_episode_whose_start_senses_every_task():
    # instance 872's start already senses both tasks: collect records no
    # transition, and the batch moves on to the next seed
    ds, report = collect_batch(
        DemoMeta(n_tasks=2, map_width=300.0, map_height=300.0), 4, 870)
    x = generate(n_tasks=2, seed=872, map_size=(300.0, 300.0))
    assert len(collect(x, plan(x))) == 0
    assert [d.seed for d in ds] == [870, 871, 873, 874]
    assert all(len(d) > 0 for d in ds)
    assert report["rejected"] == [(872, "start senses every task")]
    assert (report["attempted"], report["accepted"]) == (5, 4)


def test_collect_batch_of_zero_demos_saves_an_empty_dataset(tmp_path):
    ds, report = collect_batch(SMALL, 0)
    assert len(ds) == 0 and report["attempted"] == 0
    assert ds.meta == dataclasses.replace(
        make_meta(generate(3, 0, map_size=(300.0, 300.0))), n_pos=3, n_head=2)
    save_dataset(ds, str(tmp_path / "e.bin"))
    back = load_dataset(str(tmp_path / "e.bin"))
    assert len(back) == 0 and back.meta == ds.meta
    with pytest.raises(ValueError, match="n_demos"):
        collect_batch(SMALL, -2)
    with pytest.raises(ValueError, match="base_seed"):
        collect_batch(SMALL, 0, -1)


def test_train_envs_rejects_an_empty_pool():
    for size in (0, -1):
        with pytest.raises(ValueError, match="pool size"):
            SMALL.train_envs(0, size)
