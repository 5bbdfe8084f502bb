"""End-to-end acceptance checks, one per headline property of the toolkit.

Each test prints a single summary line with its measured numbers and a
PASS/FAIL verdict before asserting, so the tee'd pytest log doubles as an
acceptance report.  Budgets are desk-scale: minutes, not the hours a
full-scale reproduction would need.
"""

import math
import time
import zlib

import numpy as np
import pytest

import dtspn.expert as ex
from dtspn.dubins import Pose, shortest_path
from dtspn.demos import DemoMeta, collect_batch, replay_rewards
from dtspn.env import goal_reward, imitation_reward
from dtspn.evaluate import benchmark_speed, evaluate
from dtspn.instance import generate
from dtspn.learn import (ModelBundle, TrainConfig, act, bc_pretrain,
                         critic_init, distill_adaptation, init_bundle,
                         ppo_finetune)
from dtspn.learn.nets import backward, forward_cached, init_network

from oracles import (dubins_oracle_length, forward, gtsp_brute_force,
                     shortest_path_length, straight_step, turn_step)


def report(n, label, ok, detail):
    print(f"[{n}/10] {label}: {detail}: {'PASS' if ok else 'FAIL'}")


# ------------------------------------------------------------------ 1


def test_dubins_beats_dense_sampling_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    rho = 30.0
    worst_gap, worst_recon = -math.inf, 0.0
    for _ in range(1000):
        x0, y0, x1, y1 = rng.uniform(0.0, 800.0, size=4)
        th0, th1 = rng.uniform(-math.pi, math.pi, size=2)
        p0, p1 = Pose(x0, y0, th0), Pose(x1, y1, th1)
        closed = shortest_path_length(p0, p1, rho)
        oracle = dubins_oracle_length((x0, y0, th0), (x1, y1, th1), rho)
        euclid = math.hypot(x1 - x0, y1 - y0)
        worst_gap = max(worst_gap, closed - oracle)
        assert closed >= euclid - 1e-9
        path = shortest_path(p0, p1, rho)
        x, y, th = p0.x, p0.y, p0.theta
        for kind, param in zip(path.word, path.segment_params):
            if kind == "S":
                x, y, th = straight_step(x, y, th, param)
            else:
                x, y, th = turn_step(x, y, th, param, rho,
                                     +1 if kind == "L" else -1)
        recon = math.hypot(x - p1.x, y - p1.y) + abs(
            (th - p1.theta + math.pi) % (2 * math.pi) - math.pi)
        worst_recon = max(worst_recon, recon)
    wall = time.perf_counter() - t0
    ok = worst_gap <= 1e-3 and worst_recon <= 1e-6 and wall < 5.0
    report(1, "dubins closed form vs control-sampling oracle",
           ok, f"1000 pairs, worst gap {worst_gap:.2e} m, worst endpoint "
               f"error {worst_recon:.2e}, {wall:.1f}s")
    assert ok


# ------------------------------------------------------------------ 2


def test_cluster_tour_matches_exhaustive_enumeration():
    t0 = time.perf_counter()
    hits, singleton_bad = 0, 0
    n_singleton = 0
    for seed in range(100):
        rng = np.random.default_rng(7000 + seed)
        all_singleton = seed % 5 == 0
        n_clusters = int(rng.integers(2, 5))          # includes the start
        sizes = [1] + [1 if all_singleton else int(rng.integers(1, 4))
                       for _ in range(n_clusters - 1)]
        def pose():
            return Pose(*rng.uniform(0.0, 300.0, size=2),
                        rng.uniform(-math.pi, math.pi))
        tasks = [[pose() for _ in range(s)] for s in sizes[1:]]
        groups = [[pose() for _ in range(sizes[0])]] + tasks
        blocks, start = ex.build_gtsp(groups, 30.0)
        order, slots = ex.solve_gtsp(blocks, start)
        got = sum(blocks[a, b, i, j] for a, b, i, j in
                  zip(order, order[1:], slots, slots[1:]))
        # the blocks as one matrix over padded slots, pads in no cluster
        k, m = blocks.shape[1:3]
        cost = blocks.transpose(0, 2, 1, 3).reshape(k * m, k * m)
        clusters = [[c * m + i for i in range(s)] for c, s in enumerate(sizes)]
        best, _ = gtsp_brute_force(cost, clusters)
        if got <= 1.05 * best + 1e-9:
            hits += 1
        if all_singleton:
            n_singleton += 1
            if got > best * (1.0 + 1e-9):
                singleton_bad += 1
    wall = time.perf_counter() - t0
    ok = hits >= 95 and singleton_bad == 0 and wall < 30.0
    report(2, "cluster tour vs exhaustive optimum", ok,
           f"{hits}/100 within 1.05x, {singleton_bad}/{n_singleton} "
           f"singleton misses, {wall:.1f}s")
    assert ok


# ------------------------------------------------------------------ 3


def test_expert_senses_everything_on_hundred_instances():
    t0 = time.perf_counter()
    insts = [generate(20, 3000 + i) for i in range(100)]
    metrics, records = evaluate("expert", insts)
    n_full = sum(r.sensed_all for r in records)
    wall = time.perf_counter() - t0
    ok = n_full == 100 and metrics.sensing_rate == 1.0 and wall < 1200.0
    report(3, "expert plans and replays sense all tasks", ok,
           f"{n_full}/100 complete at 20 tasks, {wall:.0f}s")
    assert ok


# ------------------------------------------------------------------ 4


def test_reward_units_are_exact():
    cases = (imitation_reward(3.0) == 0.0,
             imitation_reward(10.0) == -0.1,
             imitation_reward(61.0) == -10.0,
             imitation_reward(60.0) == -24.1,
             goal_reward(0, False) == 0.1,
             goal_reward(1, False) == 5.1,
             goal_reward(3, True) == 10.0)
    ok = all(cases)
    report(4, "reward units bit-exact", ok,
           f"{sum(cases)}/7 closed-form doubles match")
    assert ok


# ------------------------------------------------------------------ 5


def test_network_gradients_match_finite_differences():
    t0 = time.perf_counter()
    shapes = {"encoder": [95, 128, 128, 32], "policy": [115, 128, 128, 7],
              "critic": [115, 128, 128, 1], "adaptation": [83, 128, 128, 32]}
    h = 1e-5
    worst = 0.0
    for name, dims in shapes.items():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        params = init_network(dims, rng)
        x = rng.normal(size=(4, dims[0]))
        v = rng.normal(size=(4, dims[-1]))
        out, cache = forward_cached(params, x)
        grad, _ = backward(params, cache, v)
        for _ in range(100):
            li = int(rng.integers(len(params.weights)))
            use_bias = rng.random() < 0.2
            arr = params.biases[li] if use_bias else params.weights[li]
            idx = tuple(int(rng.integers(s)) for s in arr.shape)
            analytic = (grad.biases[li] if use_bias else grad.weights[li])[idx]
            old = arr[idx]
            arr[idx] = old + h
            fp = float((forward(params, x) * v).sum())
            arr[idx] = old - h
            fm = float((forward(params, x) * v).sum())
            arr[idx] = old
            fd = (fp - fm) / (2.0 * h)
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8)
            worst = max(worst, rel)
    wall = time.perf_counter() - t0
    ok = worst < 1e-4 and wall < 60.0
    report(5, "analytic gradients vs central differences", ok,
           f"400 probes over 4 networks, worst rel err {worst:.2e}, "
           f"{wall:.1f}s")
    assert ok


# ------------------------------------------------------------------ 6, 7


@pytest.fixture(scope="module")
def mid_scale_demos():
    dataset, rep = collect_batch(
        DemoMeta(n_tasks=5, map_width=400.0, map_height=400.0), 500, 20000)
    assert rep["accepted"] == 500
    return dataset


@pytest.fixture(scope="module")
def cloned_bundles(mid_scale_demos):
    cfg = TrainConfig(seed=0)
    b_priv = init_bundle(common_dim=23, seed=0)
    b_priv, m_priv = bc_pretrain(mid_scale_demos, b_priv, cfg,
                                 use_privileged=True)
    b_zero = init_bundle(common_dim=23, seed=0)
    b_zero, m_zero = bc_pretrain(mid_scale_demos, b_zero, cfg,
                                 use_privileged=False)
    return b_priv, m_priv["val_acc"][-1], b_zero, m_zero["val_acc"][-1]


def test_privileged_waypoints_lift_cloning_accuracy(cloned_bundles):
    t0 = time.perf_counter()
    _, acc_priv, _, acc_zero = cloned_bundles
    gap = acc_priv - acc_zero
    wall = time.perf_counter() - t0
    ok = gap >= 0.15
    report(6, "cloning accuracy gap from privileged waypoints", ok,
           f"with {acc_priv:.3f} vs zeroed {acc_zero:.3f}, gap {gap:.3f} "
           f"(budget incl. shared fixtures well under 30 min)")
    assert ok


def test_distillation_reproduces_encoder_and_actions(mid_scale_demos,
                                                     cloned_bundles):
    t0 = time.perf_counter()
    b_priv, _, b_zero, _ = cloned_bundles
    # the waypoint-reliant encoder: latent carries information a single
    # common observation cannot recover, so only the variance bound binds
    _, m_pi = distill_adaptation(mid_scale_demos, _copy(b_priv),
                                 TrainConfig(seed=0), epochs=80)
    # the realizable reference: an encoder that ignores its privileged
    # block (the zeroed-input cloning arm, with the never-trained rows
    # removed) must distill to near-perfect action agreement
    twin = _copy(b_zero)
    twin.encoder.weights[0][twin.common_dim:, :] = 0.0
    _, m_tw = distill_adaptation(mid_scale_demos, twin,
                                 TrainConfig(seed=0, bc_lr=0.003), epochs=120)
    wall = time.perf_counter() - t0
    ok = (m_pi["heldout_mse"] < m_pi["heldout_z_variance"]
          and m_tw["heldout_mse"] < m_tw["heldout_z_variance"]
          and m_tw["action_agreement"] >= 0.95)
    report(7, "adaptation net reproduces encoder latent", ok,
           f"privileged-reliant mse {m_pi['heldout_mse']:.2f} < var "
           f"{m_pi['heldout_z_variance']:.2f} (agreement "
           f"{m_pi['action_agreement']:.3f}, info only); priv-ignoring mse "
           f"{m_tw['heldout_mse']:.4f} < var {m_tw['heldout_z_variance']:.2f}, "
           f"agreement {m_tw['action_agreement']:.3f}, {wall:.0f}s")
    assert ok


def _copy(b: ModelBundle) -> ModelBundle:
    return ModelBundle(encoder=b.encoder.copy(), policy=b.policy.copy(),
                       critic=b.critic.copy(), adaptation=b.adaptation.copy())


# ------------------------------------------------------------------ 8


def test_distilled_policy_beats_dense_baseline_at_desk_scale():
    t0 = time.perf_counter()
    family = DemoMeta(n_tasks=3, map_width=300.0, map_height=300.0)
    dataset, rep = collect_batch(family, 400)
    assert rep["accepted"] == 400

    bundle = init_bundle(common_dim=15, seed=0)
    bundle, _ = bc_pretrain(dataset, bundle, TrainConfig(seed=0, bc_epochs=40))
    critic_init(dataset, bundle, TrainConfig(seed=0), epochs=20)

    # one factory for both runs: the dense run takes the pool up where the
    # distilled run left it
    factory = family.train_envs(1000, 64)
    cfg = TrainConfig(steps_budget=200_000, seed=0)
    bundle, _ = ppo_finetune(factory, bundle, cfg)
    distill_adaptation(dataset, bundle, TrainConfig(seed=0), epochs=80)

    eval_insts = [generate(3, 5000 + i, map_size=(300.0, 300.0))
                  for i in range(50)]
    m_distilled, _ = evaluate(bundle, eval_insts)

    dense = init_bundle(common_dim=15, seed=0)
    dense, _ = ppo_finetune(factory, dense, cfg, use_privileged=False)
    zeros = np.zeros(dense.priv_dim)
    m_dense, _ = evaluate(lambda obs: act(dense, obs.common, True, zeros),
                          eval_insts)
    wall = time.perf_counter() - t0
    ok = (m_distilled.sensing_rate >= 0.9
          and m_distilled.sensing_rate > m_dense.sensing_rate
          and wall < 7200.0)
    report(8, "distilled pipeline vs dense-reward baseline", ok,
           f"sensing {m_distilled.sensing_rate:.3f} (>=0.9) vs dense "
           f"{m_dense.sensing_rate:.3f}, 50 episodes, 200k steps each, "
           f"{wall:.0f}s")
    assert ok


# ------------------------------------------------------------------ 9


def test_policy_rollout_is_order_of_magnitude_faster_than_planner():
    t0 = time.perf_counter()
    insts = [generate(20, 8000 + i) for i in range(10)]
    # timing does not depend on the weights' values, so a fresh bundle of
    # deployment shape stands in for a trained one
    bundle = init_bundle(common_dim=83, seed=0)
    rep = benchmark_speed(insts, bundle)
    wall = time.perf_counter() - t0
    ok = (rep["policy_median_s"] <= rep["expert_median_s"] / 10.0
          and wall < 1800.0)
    report(9, "rollout speed vs planner speed", ok,
           f"expert {rep['expert_median_s']*1e3:.0f} ms vs policy "
           f"{rep['policy_median_s']*1e3:.1f} ms per 20-task instance, "
           f"ratio {rep['ratio']:.1f}x, {wall:.0f}s")
    assert ok


# ------------------------------------------------------------------ 10


def test_recorded_streams_and_training_are_deterministic():
    t0 = time.perf_counter()
    dataset, _ = collect_batch(
        DemoMeta(n_tasks=3, map_width=300.0, map_height=300.0), 6, 9100)
    replay_ok = all(
        np.array_equal(replay_rewards(d, dataset.meta), d.rewards)
        for d in dataset)

    runs = []
    for _ in range(2):
        b = init_bundle(common_dim=15, seed=3)
        b, _ = bc_pretrain(dataset, b, TrainConfig(seed=3, bc_epochs=3))
        runs.append(b"".join(w.tobytes() for net in
                             (b.encoder, b.policy, b.critic)
                             for w in net.weights + net.biases))
    train_ok = runs[0] == runs[1]
    wall = time.perf_counter() - t0
    ok = replay_ok and train_ok
    report(10, "bit-exact replay and training determinism", ok,
           f"6/6 reward streams replay bit-for-bit, repeated cloning "
           f"byte-identical {train_ok}, {wall:.0f}s")
    assert ok
