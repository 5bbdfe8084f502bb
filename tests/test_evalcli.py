import glob
import importlib
import json
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from dtspn.cli import _load_config, build_parser, main
from dtspn.demos import collect, collect_batch, load_dataset, tracker
from dtspn.env import DtspnEnv, run_episode
from dtspn.evaluate import (Metrics, benchmark_speed, bundle_actor, evaluate,
                            load_episode_csv, save_episode_csv)
from dtspn.expert import SensingGap, plan
from dtspn.instance import generate, load as load_instance
from dtspn.learn import init_bundle, load_bundle, save_bundle
from dtspn.learn.nets import actor_forward
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


def test_evaluate_checks_every_instance_against_the_bundle(tiny_bundle):
    # the 7-task instance is rejected up front, not in its forward pass
    with pytest.raises(ValueError, match="checkpoint expects common dim 15, "
                       "instances with 7 tasks produce 31"):
        evaluate(tiny_bundle, small_instances(1) + [generate(7, 3)])


def test_evaluate_sensing_rate_divides_by_each_instance_task_count():
    insts = [generate(5, 1, map_size=(300.0, 300.0)),
             generate(3, 0, map_size=(300.0, 300.0))]
    metrics, records = evaluate("expert", insts)
    assert [(r.n_sensed, r.sensed_all) for r in records] == [(5, True),
                                                             (3, True)]
    assert metrics.sensing_rate == 1.0


def test_benchmark_speed_shape_and_guards(tiny_bundle):
    insts = small_instances(10, base=700)
    report = benchmark_speed(insts, tiny_bundle)
    assert report["instances"] == 10
    assert report["expert_median_s"] > 0 and report["policy_median_s"] > 0
    assert report["ratio"] == report["expert_median_s"] / report["policy_median_s"]
    with pytest.raises(ValueError):
        benchmark_speed(insts[:9], tiny_bundle)


def test_benchmark_speed_plans_and_rolls_out_each_instance_in_turn(
        tiny_bundle, monkeypatch):
    ev = sys.modules["dtspn.evaluate"]     # dtspn.evaluate is the function
    calls = []
    monkeypatch.setattr(ev, "plan", lambda x, **kw: calls.append(
        ("plan", x.seed)))
    monkeypatch.setattr(ev, "run_episode", lambda env, fn: (
        calls.append(("rollout", env.instance.seed)) or run_episode(env, fn)))
    insts = small_instances(10, base=700)
    benchmark_speed(insts, tiny_bundle)
    assert calls == [(kind, x.seed) for x in insts
                     for kind in ("plan", "rollout")]


def test_bundle_actor_episode_matches_one_row_batch_forwards():
    # the row path of act gives the episode the one-row batch path gives,
    # byte for byte, on both latent paths at 20 tasks
    x = generate(20, 8000)
    b = init_bundle(common_dim=83, seed=0)
    zeros = np.zeros(b.priv_dim)
    for pi_eval in (False, True):
        def batch_actor(obs):
            c = obs.common[None]
            p = zeros[None] if pi_eval else None
            return int(actor_forward(b, c, p)[0].argmax())
        recs = [run_episode(DtspnEnv(x, mode="eval"), fn)
                for fn in (bundle_actor(b, pi_eval), batch_actor)]
        for name in ("commons", "poses", "actions", "r_imitation", "r_goal",
                     "newly_sensed", "dones"):
            assert getattr(recs[0], name).tobytes() == \
                getattr(recs[1], name).tobytes(), (pi_eval, name)
        assert recs[0].sensed_events == recs[1].sensed_events


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


def test_expert_evaluation_matches_demo_collection():
    # both roll the greedy tracker through the same episode loop and cap
    for x in small_instances(4, base=401000):
        _, (rec,) = evaluate("expert", [x])
        d = collect(x, plan(x))
        assert np.array_equal(rec.actions, d.actions)
        assert rec.rewards.tobytes() == d.rewards.tobytes()
        assert rec.commons.tobytes() == d.commons.tobytes()
        assert rec.privileged.tobytes() == d.privileged.tobytes()


def test_episode_csv_roundtrip_and_purity(tmp_path):
    inst = generate(3, 801, map_size=(300.0, 300.0))
    path = plan(inst)
    env = DtspnEnv(inst, path, mode="eval")
    rec = run_episode(env, tracker(env))
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
    rec = run_episode(env, tracker(env))
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
    rec = run_episode(env, tracker(env))
    assert rec.sensed_all
    assert (-1, 0) in rec.sensed_events
    data = emit_trajectory_svg(rec, inst)
    assert data.count(b'r="50.000"') == 2


def run_cli(*argv):
    return main(list(argv))


def expert_waypoints(path):
    """The (x, y, theta) rows of the wp lines of a dtspn-expert v1 file."""
    with open(path, encoding="utf-8") as f:
        return np.array([[float(v) for v in line.split()[1:]]
                         for line in f if line.startswith("wp ")])


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


@pytest.mark.parametrize("line", ["sense nan", "sense inf", "turn nan",
                                  "map inf 300.0"])
def test_cli_rejects_instance_file_with_nonfinite_size(tmp_path, capsys, line):
    path = tmp_path / "i.txt"
    assert run_cli("gen", "--tasks", "3", "--map", "300", "300", "--seed", "5",
                   "--out", str(path)) == 0
    key = line.split()[0]
    path.write_text("".join(line + "\n" if l.startswith(key + " ") else l
                            for l in path.read_text().splitlines(True)))
    capsys.readouterr()
    assert run_cli("eval", "--expert", "--episodes", "1",
                   "--instance", str(path)) == 1
    assert "must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("width", ["nan", "inf"])
def test_cli_gen_rejects_nonfinite_map(tmp_path, capsys, width):
    out = tmp_path / "i.txt"
    assert run_cli("gen", "--tasks", "3", "--map", width, "300",
                   "--out", str(out)) == 1
    assert "must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


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
    # a value must have its field's JSON type: integers for int fields,
    # numbers for float fields, true or false for bool fields
    for key, value in (("dt", '"0.2"'), ("bc_epochs", '"3"'),
                       ("n_actions", "7.0"), ("n_actions", "true"),
                       ("gamma", "false"), ("literal_goal_sum", "1"),
                       ("bc_batch", "null"), ("omega_max", "[30]")):
        cfg.write_text(f'{{"{key}": {value}}}')
        assert run_cli("demos", "--demos", "1", "--config", str(cfg),
                       "--out", str(tmp_path / "d.bin")) == 1, (key, value)
        assert f"'{key}'" in capsys.readouterr().err
    # a value that a flag or the instances set is not a config key
    for key, flag in (("seed", "--seed"), ("turn_radius", "--turn"),
                      ("steps_budget", "--steps")):
        cfg.write_text(f'{{"{key}": 7}}')
        assert run_cli("demos", "--demos", "0", "--config", str(cfg),
                       "--out", str(tmp_path / "d.bin")) == 1, key
        err = capsys.readouterr().err
        assert f"'{key}'" in err and flag in err
    assert not (tmp_path / "d.bin").exists()
    cfg.write_text('{"dt": 1, "n_actions": 5, "literal_goal_sum": true, '
                   '"gamma": 0.9, "bc_epochs": 0}')
    env_kw, train_kw = _load_config(str(cfg))
    assert env_kw == {"dt": 1, "n_actions": 5, "literal_goal_sum": True}
    assert train_kw == {"gamma": 0.9, "bc_epochs": 0}


def test_cli_config_rejects_empty_eval_cap_and_bad_cutoff(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    for key, value in (("max_steps_eval", "0"), ("max_steps_eval", "-1"),
                       ("train_cutoff_dist", "-2.0"),
                       ("train_cutoff_dist", "NaN")):
        cfg.write_text(f'{{"{key}": {value}}}')
        assert run_cli("demos", "--demos", "1", "--config", str(cfg),
                       "--out", str(tmp_path / "d.bin")) == 1, (key, value)
        assert key in capsys.readouterr().err
        assert not (tmp_path / "d.bin").exists()


def test_cli_demos_zero_writes_empty_dataset(tmp_path, capsys):
    out = tmp_path / "d.bin"
    assert run_cli("demos", "--demos", "0", "--tasks", "3",
                   "--out", str(out)) == 0
    assert "accepted=0" in capsys.readouterr().out
    dataset = load_dataset(str(out))
    assert len(dataset) == 0 and dataset.meta.n_tasks == 3
    assert run_cli("demos", "--demos", "-2", "--out", str(out)) == 1
    assert "n_demos" in capsys.readouterr().err


def test_readme_commands_parse():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        commands = [shlex.split(line) for line in f
                    if line.startswith("dtspn ")]
    assert len(commands) >= 9
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.mark.parametrize("script", sorted(
    glob.glob(os.path.join(REPO, "demo", "*.py"))), ids=os.path.basename)
def test_demo_script_runs(script, tmp_path):
    # in tmp_path, so the files a demo writes stay out of the checkout
    path = [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH", "")]
    run = subprocess.run(
        [sys.executable, script], cwd=tmp_path, capture_output=True,
        text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
    assert run.returncode == 0, run.stderr


def test_cli_full_pipeline_desk_scale(tmp_path, capsys):
    d = str(tmp_path)
    shared = ["--tasks", "3", "--map", "300", "300"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bc_epochs": 2}')

    assert run_cli("gen", *shared, "--seed", "5",
                   "--out", f"{d}/i.txt") == 0
    assert run_cli("expert", "--instance", f"{d}/i.txt",
                   "--out", f"{d}/path.txt") == 0
    assert len(expert_waypoints(f"{d}/path.txt")) > 2

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


def test_cli_train_ppo_dense_baseline_and_log(tmp_path):
    # --dense trains from scratch with the privileged input zeroed; its
    # train-mode envs still carry expert paths
    d = str(tmp_path)
    assert run_cli("train-ppo", "--dense", "--tasks", "3", "--map", "300",
                   "300", "--steps", "256", "--pool", "4",
                   "--out", f"{d}/dense.ckpt", "--log", f"{d}/log.jsonl") == 0
    assert load_bundle(f"{d}/dense.ckpt").common_dim == 15
    with open(f"{d}/log.jsonl") as f:
        records = [json.loads(line) for line in f]
    # the default rollout is 4096 steps, so a 256-step budget is one batch
    assert len(records) == 1
    assert records[0]["batch"] == 1 and records[0]["env_steps"] == 4096
    assert {"approx_kl", "clip_frac", "entropy", "value_loss",
            "explained_var", "rollout_s", "update_s",
            "steps_per_s"} <= set(records[0])


def test_cli_eval_log_writes_one_json_line_per_episode(tmp_path, tiny_bundle):
    d = str(tmp_path)
    save_bundle(tiny_bundle, f"{d}/b.ckpt")
    assert run_cli("eval", "--ckpt", f"{d}/b.ckpt", "--tasks", "3", "--map",
                   "300", "300", "--seed", "40", "--episodes", "3",
                   "--log", f"{d}/eval.jsonl") == 0
    with open(f"{d}/eval.jsonl") as f:
        lines = [json.loads(line) for line in f]
    _, records = evaluate(tiny_bundle, small_instances(3, base=40))
    assert [l["seed"] for l in lines] == [40, 41, 42]
    for line, rec in zip(lines, records):
        assert set(line) == {"seed", "steps", "n_sensed", "reward",
                             "wall_time"}
        assert (line["steps"], line["n_sensed"], line["reward"]) == \
            (len(rec), rec.n_sensed, rec.total_reward())
        assert line["wall_time"] > 0


def test_cli_train_ppo_gives_up_when_every_plan_fails(tmp_path, monkeypatch,
                                                     capsys):
    tried = []

    def failing_plan(inst, **_):
        tried.append(inst.seed)
        raise SensingGap(0, 99.0)

    monkeypatch.setattr("dtspn.cli.plan", failing_plan)
    assert run_cli("train-ppo", "--dense", "--tasks", "3", "--map", "300",
                   "300", "--pool", "2", "--steps", "16",
                   "--out", str(tmp_path / "x.ckpt")) == 2
    assert "could not assemble a training pool" in capsys.readouterr().err
    # the seed bound, 4 * pool + 40, is checked once per seed tried
    assert tried == list(range(4 * 2 + 41))


def test_cli_train_ppo_rejects_an_empty_pool(tmp_path, capsys):
    for pool in ("0", "-3"):
        assert run_cli("train-ppo", "--dense", "--tasks", "3", "--pool", pool,
                       "--out", str(tmp_path / "x.ckpt")) == 1
        assert "--pool" in capsys.readouterr().err


def test_cli_train_ppo_with_no_steps_saves_the_unchanged_bundle(tmp_path,
                                                                capsys):
    d = str(tmp_path)
    assert run_cli("train-ppo", "--dense", "--tasks", "3", "--map", "300",
                   "300", "--pool", "2", "--steps", "0",
                   "--out", f"{d}/x.ckpt") == 0
    assert "best_avg_return=nan last_avg_return=nan" in capsys.readouterr().out
    save_bundle(init_bundle(15, seed=0), f"{d}/fresh.ckpt")
    with open(f"{d}/x.ckpt", "rb") as a, open(f"{d}/fresh.ckpt", "rb") as b:
        assert a.read() == b.read()


@pytest.fixture(scope="module")
def tiny_demos(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("demos") / "demos.bin")
    assert run_cli("demos", "--tasks", "2", "--map", "300", "300",
                   "--seed", "870", "--demos", "4", "--out", path) == 0
    return path


def test_cli_train_bc_with_no_epochs_saves_the_initial_bundle(tmp_path,
                                                              capsys,
                                                              tiny_demos):
    d = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bc_epochs": 0}')
    assert run_cli("train-bc", "--data", tiny_demos, "--config", str(cfg),
                   "--out", f"{d}/bc.ckpt") == 0
    assert "val_acc=nan val_loss=nan critic_val_mse=nan" in \
        capsys.readouterr().out
    save_bundle(init_bundle(11, seed=0), f"{d}/fresh.ckpt")
    with open(f"{d}/bc.ckpt", "rb") as a, open(f"{d}/fresh.ckpt", "rb") as b:
        assert a.read() == b.read()


def test_cli_distill_rejects_negative_epochs(tmp_path, capsys, tiny_demos):
    d = str(tmp_path)
    save_bundle(init_bundle(11, seed=0), f"{d}/b.ckpt")
    assert run_cli("distill", "--data", tiny_demos, "--ckpt", f"{d}/b.ckpt",
                   "--epochs", "-3", "--out", f"{d}/out.ckpt") == 1
    assert "epochs must be >= 0" in capsys.readouterr().err
    assert not os.path.exists(f"{d}/out.ckpt")


def test_cli_train_ppo_checks_the_checkpoint_before_planning(
        tmp_path, monkeypatch, capsys):
    planned = []
    monkeypatch.setattr("dtspn.cli.plan",
                        lambda *a, **k: planned.append(a) or plan(*a, **k))
    save_bundle(init_bundle(15, seed=0), str(tmp_path / "b.ckpt"))
    assert run_cli("train-ppo", "--ckpt", str(tmp_path / "b.ckpt"),
                   "--tasks", "20", "--steps", "256",
                   "--out", str(tmp_path / "x.ckpt")) == 1
    assert ("checkpoint expects common dim 15, instances with 20 tasks "
            "produce 83") in capsys.readouterr().err
    assert planned == [] and not (tmp_path / "x.ckpt").exists()


def refuse_to_plan(*args, **kwargs):
    raise AssertionError("planned before the checkpoint was checked")


@pytest.mark.parametrize("stage, module", [("plot", "dtspn.cli"),
                                           ("bench", "dtspn.evaluate")])
def test_cli_plot_and_bench_check_the_checkpoint_before_planning(
        tmp_path, monkeypatch, capsys, stage, module):
    # dtspn.evaluate the attribute is the function, so fetch the module
    monkeypatch.setattr(importlib.import_module(module), "plan",
                        refuse_to_plan)
    save_bundle(init_bundle(15, seed=0), str(tmp_path / "b.ckpt"))
    out = ["--out", str(tmp_path / "x.svg")] if stage == "plot" else []
    assert run_cli(stage, "--ckpt", str(tmp_path / "b.ckpt"), "--tasks", "5",
                   "--map", "300", "300", *out) == 1
    assert ("checkpoint expects common dim 15, instances with 5 tasks "
            "produce 23") in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_cli_distill_checks_the_checkpoint_against_the_data(tmp_path, capsys,
                                                           tiny_demos):
    save_bundle(init_bundle(15, seed=0), str(tmp_path / "b.ckpt"))
    assert run_cli("distill", "--data", tiny_demos,
                   "--ckpt", str(tmp_path / "b.ckpt"),
                   "--out", str(tmp_path / "out.ckpt")) == 1
    assert ("checkpoint expects common dim 15, demonstrations with 2 tasks "
            "produce 11") in capsys.readouterr().err
    assert not (tmp_path / "out.ckpt").exists()


def test_cli_expert_rejects_a_pose_budget_over_the_bound(tmp_path, capsys):
    out = str(tmp_path / "path.txt")
    assert run_cli("expert", "--tasks", "1", "--pos", "17", "--heads", "16",
                   "--out", out) == 1
    assert "256" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_expert_spacing_follows_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"dt": 0.1}')
    out = str(tmp_path / "path.txt")
    assert run_cli("expert", "--tasks", "3", "--map", "300", "300",
                   "--seed", "4", "--config", str(cfg), "--out", out) == 0
    w = expert_waypoints(out)
    gaps = np.hypot(*np.diff(w[:, :2], axis=0).T)
    assert gaps.max() <= 0.6 * np.pi * 30.0 * 0.1 + 1e-9


def test_cli_expert_plot_and_literal_flag(tmp_path):
    d = str(tmp_path)
    assert run_cli("plot", "--tasks", "2", "--map", "300", "300",
                   "--seed", "880", "--expert", "--out", f"{d}/e.svg") == 0
    assert os.path.getsize(f"{d}/e.svg") > 500
    cfg = tmp_path / "lit.json"
    cfg.write_text('{"literal_goal_sum": true}')
    assert run_cli("demos", "--tasks", "2", "--map", "300", "300",
                   "--seed", "890", "--demos", "2", "--config", str(cfg),
                   "--out", f"{d}/lit.bin") == 0
    assert load_dataset(f"{d}/lit.bin").meta.config.literal_goal_sum


def test_cli_instance_file_sets_the_env_radius(tmp_path):
    d = str(tmp_path)
    assert run_cli("gen", "--tasks", "3", "--map", "300", "300",
                   "--turn", "20", "--out", f"{d}/i20.txt") == 0
    want = plan(load_instance(f"{d}/i20.txt")).waypoint_array()
    assert run_cli("expert", "--instance", f"{d}/i20.txt",
                   "--out", f"{d}/p.txt") == 0
    assert expert_waypoints(f"{d}/p.txt").tobytes() == want.tobytes()
    # no --turn needed to agree with the file
    assert run_cli("eval", "--expert", "--instance", f"{d}/i20.txt") == 0
    assert run_cli("plot", "--expert", "--instance", f"{d}/i20.txt",
                   "--out", f"{d}/e.svg") == 0


def test_cli_instance_excludes_generation_flags(tmp_path, capsys):
    d = str(tmp_path)
    assert run_cli("gen", "--tasks", "3", "--map", "300", "300",
                   "--turn", "20", "--out", f"{d}/i20.txt") == 0
    inst = ["--instance", f"{d}/i20.txt"]
    stages = (["expert", "--out", f"{d}/p.txt"], ["eval", "--expert"],
              ["plot", "--expert", "--out", f"{d}/e.svg"])
    flags = (["--tasks", "9"], ["--map", "300", "300"], ["--sense", "40"],
             ["--turn", "50"])
    capsys.readouterr()
    for stage in stages:
        for flag in flags:
            assert run_cli(*stage, *inst, *flag) == 1, (stage, flag)
            assert flag[0] in capsys.readouterr().err, (stage, flag)
    assert not os.path.exists(f"{d}/p.txt")
    assert not os.path.exists(f"{d}/e.svg")
    # an --instance run is one episode: --episodes may only say so
    assert run_cli("eval", "--expert", *inst, "--turn", "50", "--tasks", "9",
                   "--episodes", "7", "--seed", "3") == 1
    err = capsys.readouterr().err
    assert all(f in err for f in ("--episodes", "--tasks", "--turn"))
    assert run_cli("eval", "--expert", *inst, "--episodes", "7") == 1
    assert "--episodes" in capsys.readouterr().err
    for extra in ([], ["--episodes", "1"]):
        assert run_cli("eval", "--expert", *inst, *extra) == 0
        assert "episodes=1 " in capsys.readouterr().out


def test_cli_stages_reject_flags_they_do_not_read(tmp_path, tiny_demos):
    d = str(tmp_path)
    save_bundle(init_bundle(11, seed=0), f"{d}/b.ckpt")
    for argv in (["train-bc", "--data", tiny_demos, "--tasks", "2"],
                 ["distill", "--data", tiny_demos, "--ckpt", f"{d}/b.ckpt",
                  "--tasks", "2"],
                 ["gen", "--config", f"{d}/c.json"]):
        assert run_cli(*argv, "--out", f"{d}/x") == 1, argv
    assert run_cli("bench", "--ckpt", f"{d}/b.ckpt", "--out", f"{d}/x") == 1
    assert not os.path.exists(f"{d}/x")


def test_checkpoint_action_count_must_match_the_env(tmp_path, capsys):
    # action k of a 5-action checkpoint would fly another turn rate in the
    # default 7-action env
    five = init_bundle(15, n_actions=5, seed=0)
    with pytest.raises(ValueError, match="checkpoint has 5 actions, the env "
                       "config 7"):
        evaluate(five, small_instances(1))
    with pytest.raises(ValueError, match="5 actions"):
        benchmark_speed(small_instances(10), five)
    d = str(tmp_path)
    save_bundle(five, f"{d}/five.ckpt")
    gen = ["--tasks", "3", "--map", "300", "300"]
    for argv in (["eval", "--ckpt", f"{d}/five.ckpt", "--episodes", "1"],
                 ["bench", "--ckpt", f"{d}/five.ckpt"],
                 ["plot", "--ckpt", f"{d}/five.ckpt", "--out", f"{d}/x.svg"],
                 ["train-ppo", "--ckpt", f"{d}/five.ckpt", "--steps", "16",
                  "--out", f"{d}/x.ckpt"]):
        assert run_cli(*argv, *gen) == 1, argv
        assert "checkpoint has 5 actions" in capsys.readouterr().err, argv
    assert not os.path.exists(f"{d}/x.svg")
    assert not os.path.exists(f"{d}/x.ckpt")


@pytest.mark.parametrize("n_actions", [5, 9])
def test_cli_train_ppo_dense_takes_the_config_action_count(tmp_path,
                                                          n_actions):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_actions": n_actions}))
    out = str(tmp_path / "dense.ckpt")
    assert run_cli("train-ppo", "--dense", "--tasks", "3", "--map", "300",
                   "300", "--steps", "16", "--pool", "2",
                   "--config", str(cfg), "--out", out) == 0
    assert load_bundle(out).n_actions == n_actions


def test_cli_eval_and_bench_reject_no_episodes(tmp_path, capsys):
    for episodes in ("0", "-2"):
        for argv in (["eval", "--expert"],
                     ["bench", "--ckpt", str(tmp_path / "none.ckpt")]):
            assert run_cli(*argv, "--episodes", episodes) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "--episodes" in err, argv


def test_cli_eval_and_plot_reject_conflicting_policy_flags(tmp_path, capsys):
    d = str(tmp_path)
    gen = ["--tasks", "2", "--map", "300", "300"]
    for stage in (["eval"], ["plot", "--out", f"{d}/x.svg"]):
        assert run_cli(*stage, *gen, "--expert", "--ckpt", f"{d}/none.ckpt",
                       "--pi-eval") == 1, stage
        assert "--expert excludes --ckpt, --pi-eval" in \
            capsys.readouterr().err, stage
        assert run_cli(*stage, *gen, "--expert", "--pi-eval") == 1, stage
        assert "--expert excludes --pi-eval" in capsys.readouterr().err
        assert run_cli(*stage, *gen, "--pi-eval") == 1, stage
        assert "--pi-eval requires --ckpt" in capsys.readouterr().err, stage
    assert not os.path.exists(f"{d}/x.svg")
    # with neither flag, plot still draws the expert
    assert run_cli("plot", *gen, "--out", f"{d}/e.svg") == 0
