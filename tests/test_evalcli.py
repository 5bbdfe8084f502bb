import json
import os
import shlex

import numpy as np
import pytest

from dtspn.cli import build_parser, main
from dtspn.demos import collect_batch
from dtspn.env import DtspnEnv
from dtspn.evaluate import (Metrics, benchmark_speed, evaluate,
                            load_episode_csv, run_episode, save_episode_csv)
from dtspn.expert import load as load_expert, plan
from dtspn.instance import generate, load as load_instance
from dtspn.learn import load_bundle
from dtspn.svg import emit_trajectory_svg


def small_instances(n, base=500, n_tasks=3, size=300.0):
    return [generate(n_tasks, base + i, map_size=(size, size))
            for i in range(n)]


def hard_left(obs):
    return 6


def test_metrics_invariants():
    Metrics(1.0, 1.0, 0.5, None, 3)
    with pytest.raises(ValueError):
        Metrics(1.0, 1.0, 1.5, None, 3)
    with pytest.raises(ValueError):
        Metrics(1.0, 1.0, 0.5, None, 0)


def test_evaluate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        evaluate("expert", [])
    with pytest.raises(ValueError):
        evaluate(42, small_instances(1))


def test_metrics_recompute_from_records():
    insts = small_instances(3)
    metrics, records = evaluate(hard_left, insts)
    assert metrics.episodes == 3
    avg_r = np.mean([r.rewards.sum() for r in records])
    rets = []
    for r in records:
        g = 0.0
        for v in r.rewards[::-1]:
            g = v + 0.95 * g
        rets.append(g)
    assert abs(metrics.avg_reward - avg_r) < 1e-9
    assert abs(metrics.avg_return - np.mean(rets)) < 1e-9
    assert abs(metrics.sensing_rate
               - np.mean([r.n_sensed / 3 for r in records])) < 1e-9


def test_broken_policy_senses_little_and_reports_no_time():
    # spinning in place: a single 20-task map leaves most tasks unsensed,
    # so there is no successful episode and no mean_time
    insts = [generate(20, 11)]
    metrics, records = evaluate(hard_left, insts)
    assert metrics.sensing_rate < 0.5
    assert metrics.mean_time is None
    assert not records[0].sensed_all
    assert len(records[0]) == 300


def test_expert_replay_senses_all_on_accepted_instances():
    dataset, report = collect_batch(5, base_seed=620, n_tasks=3,
                                    map_size=(300.0, 300.0))
    assert report["accepted"] == 5
    insts = [dataset.meta.instance_for(d.seed) for d in dataset]
    metrics, records = evaluate("expert", insts)
    assert metrics.sensing_rate == 1.0
    assert metrics.mean_time is not None and metrics.mean_time > 0
    # imitation stream is live on the expert rows: finite, never nan
    for r in records:
        assert np.isfinite(r.r_imitation).all()


@pytest.fixture(scope="module")
def tiny_bundle():
    from dtspn.learn import TrainConfig, bc_pretrain, init_bundle
    dataset, _ = collect_batch(4, base_seed=640, n_tasks=3,
                               map_size=(300.0, 300.0))
    b = init_bundle(common_dim=15, seed=0)
    b, _ = bc_pretrain(dataset, b, TrainConfig(seed=0, bc_epochs=2))
    return b


def test_evaluate_policy_paths_and_dim_check(tiny_bundle):
    insts = small_instances(2)
    m_free, recs = evaluate(tiny_bundle, insts)
    assert m_free.episodes == 2 and 0.0 <= m_free.sensing_rate <= 1.0
    m_pi, _ = evaluate(tiny_bundle, insts, pi_eval=True)
    assert m_pi.episodes == 2
    with pytest.raises(ValueError):
        evaluate(tiny_bundle, [generate(7, 3)])


def test_benchmark_speed_shape_and_guards(tiny_bundle):
    insts = small_instances(10, base=700)
    report = benchmark_speed(insts, tiny_bundle)
    assert report["instances"] == 10
    assert report["expert_median_s"] > 0 and report["policy_median_s"] > 0
    assert report["ratio"] == report["expert_median_s"] / report["policy_median_s"]
    with pytest.raises(ValueError):
        benchmark_speed(insts[:9], tiny_bundle)


def test_benchmark_single_task_report_well_formed():
    from dtspn.learn import TrainConfig, bc_pretrain, init_bundle
    dataset, _ = collect_batch(2, base_seed=660, n_tasks=1,
                               map_size=(300.0, 300.0))
    b = init_bundle(common_dim=7, seed=0)
    b, _ = bc_pretrain(dataset, b, TrainConfig(seed=0, bc_epochs=1))
    insts = [generate(1, 700 + i, map_size=(300.0, 300.0)) for i in range(10)]
    report = benchmark_speed(insts, b)
    assert set(report) == {"instances", "expert_median_s",
                           "policy_median_s", "ratio"}
    assert np.isfinite(report["ratio"]) and report["ratio"] > 0


def test_expert_time_grows_with_sampling_density():
    insts = small_instances(10, base=720)
    def med(n_pos):
        times = []
        for x in insts:
            import time as _t
            t0 = _t.perf_counter()
            plan(x, n_pos=n_pos, n_head=4)
            times.append(_t.perf_counter() - t0)
        return float(np.median(times))
    assert med(16) > med(8)


def test_episode_csv_roundtrip_and_purity(tmp_path):
    inst = generate(3, 801, map_size=(300.0, 300.0))
    path = plan(inst)
    env = DtspnEnv(inst, path, mode="eval")
    from dtspn.demos import greedy_action, track_target

    def fn(obs):
        return greedy_action(env.state.pose, track_target(env.state, path),
                             env.config)

    rec = run_episode(env, fn)
    before = (rec.poses.tobytes(), rec.actions.tobytes(),
              rec.r_imitation.tobytes())
    out = tmp_path / "ep.csv"
    save_episode_csv(rec, str(out))
    after = (rec.poses.tobytes(), rec.actions.tobytes(),
             rec.r_imitation.tobytes())
    assert before == after
    cols = load_episode_csv(str(out))
    assert len(cols["t"]) == len(rec)
    assert np.array_equal(cols["x"], rec.poses[:, 0])
    assert np.array_equal(cols["theta"], rec.poses[:, 2])
    assert np.array_equal(cols["action"], rec.actions.astype(float))
    assert np.array_equal(cols["r_imitation"], rec.r_imitation)
    assert np.array_equal(cols["r_goal"], rec.r_goal)
    assert list(cols) == ["t", "x", "y", "theta", "action", "r_imitation",
                          "r_goal", "newly_sensed", "done"]
    (tmp_path / "bad.csv").write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_episode_csv(str(tmp_path / "bad.csv"))


def test_svg_deterministic_and_counts(tmp_path):
    inst = generate(3, 810, map_size=(300.0, 300.0))
    path = plan(inst)
    env = DtspnEnv(inst, path, mode="eval")
    from dtspn.demos import greedy_action, track_target

    def fn(obs):
        return greedy_action(env.state.pose, track_target(env.state, path),
                             env.config)

    rec = run_episode(env, fn)
    assert rec.sensed_all
    out = tmp_path / "ep.svg"
    b1 = emit_trajectory_svg(rec, inst, expert_path=path, path=str(out))
    b2 = emit_trajectory_svg(rec, inst, expert_path=path)
    assert b1 == b2
    assert out.read_bytes() == b1
    # one sensing-radius circle per sensed task
    mark = f'r="{inst.r_sense:.3f}"'.encode()
    assert b1.count(mark) == inst.n_tasks
    # agent solid line and expert dashed line both present (the dash
    # pattern shows up twice: the path itself plus its legend swatch)
    assert b1.count(b'stroke-dasharray="6,4"') == 2
    assert b'#2ca02c' in b1 and b'#d62728' in b1
    assert b1.startswith(b'<?xml')


def test_svg_empty_episode_is_map_and_tasks_only():
    inst = generate(4, 812)
    data = emit_trajectory_svg(None, inst)
    assert b"polyline" not in data
    assert data.count(b"<circle") == inst.n_tasks
    assert data.count(f'r="{inst.r_sense:.3f}"'.encode()) == 0


def test_svg_sensing_at_reset_still_counted():
    # drop a task right on the start point: it is sensed during reset,
    # before any step, and must still draw a sensing circle
    from dtspn.instance import Instance
    from dtspn.dubins import Pose
    inst = Instance(map_width=300.0, map_height=300.0,
                    tasks=((150.0, 20.0), (150.0, 250.0)),
                    r_sense=50.0, turn_radius=30.0,
                    start=Pose(150.0, 15.0, 0.0), seed=0)
    path = plan(inst)
    env = DtspnEnv(inst, path, mode="eval")
    from dtspn.demos import greedy_action, track_target

    def fn(obs):
        return greedy_action(env.state.pose, track_target(env.state, path),
                             env.config)

    rec = run_episode(env, fn)
    assert rec.sensed_all
    assert (-1, 0) in rec.sensed_events
    data = emit_trajectory_svg(rec, inst)
    assert data.count(b'r="50.000"') == 2


def run_cli(*argv):
    return main(list(argv))


def test_cli_gen_and_errors(tmp_path, capsys):
    out = tmp_path / "i.txt"
    assert run_cli("gen", "--tasks", "4", "--seed", "9",
                   "--out", str(out)) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("stage=gen ") and "tasks=4" in line
    inst = load_instance(str(out))
    assert inst.n_tasks == 4 and inst.seed == 9

    assert run_cli("gen", "--tasks", "4") == 1          # no --out
    assert run_cli("gen", "--bogus") == 1               # unknown flag
    assert run_cli() == 1                               # no stage
    assert run_cli("--help") == 0
    assert run_cli("eval", "--ckpt", str(tmp_path / "nope.ckpt")) == 1


def test_cli_config_validation(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"no_such_field": 3}')
    assert run_cli("demos", "--demos", "1", "--config", str(cfg),
                   "--out", str(tmp_path / "d.bin")) == 1
    err = capsys.readouterr().err
    assert "no_such_field" in err
    cfg.write_text('[1, 2]')
    assert run_cli("demos", "--demos", "1", "--config", str(cfg),
                   "--out", str(tmp_path / "d.bin")) == 1


def test_readme_commands_parse():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        commands = [shlex.split(line) for line in f
                    if line.startswith("dtspn ")]
    assert len(commands) >= 9
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_cli_full_pipeline_desk_scale(tmp_path, capsys):
    d = str(tmp_path)
    shared = ["--tasks", "3", "--map", "300", "300"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bc_epochs": 2}')

    assert run_cli("gen", *shared, "--seed", "5",
                   "--out", f"{d}/i.txt") == 0
    assert run_cli("expert", "--instance", f"{d}/i.txt",
                   "--out", f"{d}/path.txt") == 0
    ep = load_expert(f"{d}/path.txt")
    assert len(ep.waypoints) > 2

    assert run_cli("demos", *shared, "--seed", "830", "--demos", "8",
                   "--out", f"{d}/demos.bin") == 0
    assert run_cli("train-bc", "--data", f"{d}/demos.bin",
                   "--config", str(cfg), "--out", f"{d}/bc.ckpt") == 0
    assert run_cli("train-ppo", *shared, "--seed", "840",
                   "--ckpt", f"{d}/bc.ckpt", "--steps", "4096",
                   "--pool", "4", "--out", f"{d}/ppo.ckpt") == 0
    assert run_cli("distill", "--data", f"{d}/demos.bin",
                   "--ckpt", f"{d}/ppo.ckpt", "--epochs", "2",
                   "--out", f"{d}/final.ckpt") == 0
    bundle = load_bundle(f"{d}/final.ckpt")
    assert bundle.common_dim == 15

    assert run_cli("eval", *shared, "--seed", "850", "--episodes", "2",
                   "--ckpt", f"{d}/final.ckpt", "--out", f"{d}/evald") == 0
    line = [l for l in capsys.readouterr().out.splitlines()
            if l.startswith("stage=eval")][-1]
    assert "sensing_rate=" in line
    assert os.path.exists(f"{d}/evald/episode_0000.csv")
    assert os.path.exists(f"{d}/evald/episode_0001.csv")
    with open(f"{d}/evald/metrics.json") as f:
        agg = json.load(f)
    assert agg["episodes"] == 2

    assert run_cli("eval", *shared, "--seed", "850", "--episodes", "2",
                   "--ckpt", f"{d}/final.ckpt", "--pi-eval") == 0
    assert run_cli("plot", "--instance", f"{d}/i.txt",
                   "--ckpt", f"{d}/final.ckpt",
                   "--out", f"{d}/ep.svg") == 0
    svg = open(f"{d}/ep.svg", "rb").read()
    assert svg.startswith(b'<?xml') and b"</svg>" in svg


def test_cli_eval_expert_and_mismatch(tmp_path, capsys):
    d = str(tmp_path)
    assert run_cli("eval", "--expert", "--tasks", "2", "--map", "300", "300",
                   "--seed", "860", "--episodes", "2") == 0
    line = [l for l in capsys.readouterr().out.splitlines()
            if l.startswith("stage=eval")][-1]
    assert "sensing_rate=1" in line

    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bc_epochs": 1}')
    assert run_cli("demos", "--tasks", "2", "--map", "300", "300",
                   "--seed", "870", "--demos", "4",
                   "--out", f"{d}/demos.bin") == 0
    assert run_cli("train-bc", "--data", f"{d}/demos.bin",
                   "--config", str(cfg), "--out", f"{d}/bc.ckpt") == 0
    capsys.readouterr()
    assert run_cli("eval", "--tasks", "6", "--ckpt", f"{d}/bc.ckpt",
                   "--episodes", "1") == 1
    err = capsys.readouterr().err
    assert "common dim" in err and "6" in err

    assert run_cli("train-ppo", "--tasks", "2", "--steps", "4096",
                   "--out", f"{d}/x.ckpt") == 1   # no --ckpt, no --dense


def test_cli_expert_spacing_follows_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"dt": 0.1}')
    out = str(tmp_path / "path.txt")
    assert run_cli("expert", "--tasks", "3", "--map", "300", "300",
                   "--seed", "4", "--config", str(cfg), "--out", out) == 0
    w = load_expert(out).waypoint_array()
    gaps = np.hypot(*np.diff(w[:, :2], axis=0).T)
    assert gaps.max() <= 0.6 * np.pi * 30.0 * 0.1 + 1e-9


def test_cli_expert_plot_and_literal_flag(tmp_path):
    d = str(tmp_path)
    assert run_cli("plot", "--tasks", "2", "--map", "300", "300",
                   "--seed", "880", "--expert", "--out", f"{d}/e.svg") == 0
    assert os.path.getsize(f"{d}/e.svg") > 500
    assert run_cli("demos", "--tasks", "2", "--map", "300", "300",
                   "--seed", "890", "--demos", "2", "--literal-eq7",
                   "--out", f"{d}/lit.bin") == 0
