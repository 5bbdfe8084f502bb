import contextlib
import hashlib
import importlib
import math
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtspn.demos import (DemoDataset, DemoMeta, Demonstration, collect,
                         collect_batch)
from dtspn.dubins import Pose
from dtspn.env import DtspnEnv, EnvBatch
from dtspn.expert import ExpertPath
from dtspn.instance import Instance
from dtspn.learn import (AdamState, CheckpointError, ModelBundle,
                         NetworkParams, TrainConfig, act, adam_step,
                         bc_pretrain, clipped_surrogate, compute_gae,
                         critic_init, distill_adaptation, episode_split,
                         init_bundle, init_network, load_bundle, ppo_finetune,
                         return_to_go, sample_categorical, save_bundle)
from dtspn.learn import nets, ppo
from dtspn.learn.bc import regress
from dtspn.learn.nets import (CKPT_MAGIC, CKPT_VERSION, _pack_network,
                              actor_forward, actor_step, backward,
                              forward_cached, forward_rows)

import oracles
from oracles import (ReferenceAdam, discounted_returns, fd_gradients, forward,
                     gradients, reference_adam_step, reference_backward,
                     reference_forward_cached, reference_pack_network,
                     softmax)


def small_net(dims, seed=0):
    return init_network(dims, np.random.default_rng(seed))


def test_forward_trivial_cases():
    zero = NetworkParams((3, 4, 2), np.zeros(3 * 4 + 4 + 4 * 2 + 2))
    assert np.all(forward(zero, np.array([1.0, -2.0, 3.0])) == 0.0)

    ident = NetworkParams((3, 3), np.concatenate([np.eye(3).ravel(),
                                                  np.zeros(3)]))
    x = np.array([0.3, -1.7, 2.0])
    assert np.allclose(forward(ident, x), x)

    net = small_net((5, 16, 16, 4))
    y = forward(net, 1e6 * np.ones(5))
    assert np.all(np.isfinite(y))

    batch = forward(net, np.zeros((7, 5)))
    assert batch.shape == (7, 4)
    try:
        forward(net, np.zeros(4))
        assert False, "dim mismatch accepted"
    except ValueError:
        pass


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    for dims in ((4, 8, 3), (6, 10, 10, 2), (5, 7, 1)):
        net = small_net(dims, seed=int(rng.integers(1000)))
        for _ in range(5):
            x = rng.normal(size=dims[0])
            u = rng.normal(size=dims[-1])

            def loss():
                return float(forward(net, x) @ u)

            fd_w = fd_gradients(loss, net.weights)
            fd_b = fd_gradients(loss, net.biases)
            fd_x = fd_gradients(loss, [x])[0]
            gw, gb, gx = gradients(net, x, u)
            for a, b in zip(fd_w + fd_b + [fd_x], gw + gb + [gx[0]]):
                denom = max(1e-8, float(np.max(np.abs(a))))
                assert np.max(np.abs(a - b)) / denom < 1e-6


def test_gradients_zero_upstream_and_linear_closed_form():
    net = small_net((4, 8, 3))
    x = np.ones(4)
    gw, gb, gx = gradients(net, x, np.zeros(3))
    assert all(np.all(g == 0.0) for g in gw + gb)
    assert np.all(gx == 0.0)

    lin = NetworkParams((3, 2), np.array([1.0, 2.0, 0.5, -1.0, 3.0, 0.0,
                                          0.0, 0.0]))
    x = np.array([1.0, -2.0, 0.5])
    u = np.array([2.0, -1.0])
    gw, gb, gx = gradients(lin, x, u)
    assert np.allclose(gw[0], np.outer(x, u))
    assert np.allclose(gb[0], u)
    assert np.allclose(gx[0], lin.weights[0] @ u)


def test_gradients_batched_sum_over_batch():
    net = small_net((4, 6, 2))
    rng = np.random.default_rng(8)
    xs = rng.normal(size=(5, 4))
    us = rng.normal(size=(5, 2))
    gw_b, gb_b, gx_b = gradients(net, xs, us)
    gw_acc = [np.zeros_like(w) for w in net.weights]
    gb_acc = [np.zeros_like(b) for b in net.biases]
    for i in range(5):
        gw, gb, gx = gradients(net, xs[i], us[i])
        for acc, g in zip(gw_acc, gw):
            acc += g
        for acc, g in zip(gb_acc, gb):
            acc += g
        assert np.allclose(gx[0], gx_b[i])
    for a, b in zip(gw_acc + gb_acc, gw_b + gb_b):
        assert np.allclose(a, b)


def test_adam_step_and_zero_lr():
    net = NetworkParams((1, 1), np.zeros(2))
    st = AdamState(net)
    adam_step(net, NetworkParams((1, 1), np.array([4.0, 0.5])), st, lr=0.01)
    # bias-corrected first step moves by about -lr * sign(grad)
    assert abs(net.weights[0][0, 0] + 0.01) < 1e-6
    assert abs(net.biases[0][0] + 0.01) < 1e-6
    assert st.t == 1

    before_w = net.weights[0].copy()
    adam_step(net, NetworkParams((1, 1), np.array([9.0, 9.0])), st, lr=0.0)
    assert net.weights[0].tobytes() == before_w.tobytes()
    assert st.t == 1


@pytest.mark.parametrize("common_dim", [15, 83])
def test_backward_matches_the_per_layer_reference(common_dim):
    # the 3-task and 20-task bundles' networks, one row and a 512-row batch
    b = init_bundle(common_dim=common_dim, seed=5)
    rng = np.random.default_rng(common_dim)
    for net in b.networks:
        for rows in (1, 512):
            _, cache = forward_cached(net, rng.normal(size=(rows, net.in_dim)))
            up = rng.normal(size=(rows, net.out_dim))
            # backward consumes the hidden entries, so the reference runs
            # on the forward's cache as it was
            before = [a.copy() for a in cache]
            grad, gin = backward(net, cache, up)
            gws, gbs, ref_gin = reference_backward(net, before, up)
            assert grad.layer_dims == net.layer_dims
            for ours, ref in zip(grad.weights + grad.biases + [gin],
                                 gws + gbs + [ref_gin]):
                assert ours.shape == ref.shape
                assert ours.tobytes() == ref.tobytes()


def test_backward_without_the_input_gradient_gives_the_same_gradient():
    rng = np.random.default_rng(11)
    for net in init_bundle(common_dim=83, seed=5).networks:
        x = rng.normal(size=(512, net.in_dim))
        up = rng.normal(size=(512, net.out_dim))
        grads = []
        for input_grad in (True, False):
            _, cache = forward_cached(net, x)
            grad, gin = backward(net, cache, up, input_grad=input_grad)
            assert (gin is None) == (not input_grad)
            grads.append(grad.flat.tobytes())
        assert grads[0] == grads[1]


def test_backward_leaves_each_hidden_cache_entry_holding_its_slope():
    rng = np.random.default_rng(12)
    for net in init_bundle(common_dim=15, seed=5).networks:
        for input_grad in (True, False):
            x = rng.normal(size=(146, net.in_dim))
            _, cache = forward_cached(net, x)
            before = [a.copy() for a in cache]
            backward(net, cache, rng.normal(size=(146, net.out_dim)),
                     input_grad=input_grad)
            assert cache[0].tobytes() == before[0].tobytes()
            assert cache[-1].tobytes() == before[-1].tobytes()
            for h, slope in zip(before[1:-1], cache[1:-1]):
                assert slope.tobytes() == (1.0 - h ** 2).tobytes()


def test_adam_step_matches_the_per_layer_reference():
    net = init_bundle(common_dim=15, seed=6).policy
    ref = net.copy()
    st, ref_st = AdamState(net), ReferenceAdam(ref)
    rng = np.random.default_rng(6)
    for lr in (0.003, 0.003, 0.0, 0.001, 0.003):
        _, cache = forward_cached(net, rng.normal(size=(64, net.in_dim)))
        grad, _ = backward(net, cache, rng.normal(size=(64, net.out_dim)))
        adam_step(net, grad, st, lr)
        reference_adam_step(ref, grad.weights, grad.biases, ref_st, lr)
        assert st.t == ref_st.t
        assert net.flat.tobytes() == ref.flat.tobytes()
        m, v = (NetworkParams(net.layer_dims, a) for a in (st.m, st.v))
        for ours, theirs in ((m.weights, ref_st.m_w), (m.biases, ref_st.m_b),
                             (v.weights, ref_st.v_w), (v.biases, ref_st.v_b)):
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(ours, theirs))
    assert st.t == 4


def test_batch_steps_in_the_workspace_match_the_fresh_array_reference():
    # the four 3-task networks through batches of 512, 146, 16 and 512
    # rows: the first forward sizes the workspace, shorter batches use its
    # leading rows, and every output, cache entry, gradient, input gradient,
    # parameter and moment equals the fresh-array code's bytes
    rng = np.random.default_rng(21)
    for net in init_bundle(common_dim=15, seed=9).networks:
        ref = net.copy()
        st, ref_st = AdamState(net), ReferenceAdam(ref)
        for k, rows in enumerate((512, 146, 16, 512)):
            x = rng.normal(size=(rows, net.in_dim))
            out, cache = forward_cached(net, x)
            ref_out, ref_cache = reference_forward_cached(ref, x)
            assert out is cache[-1] and len(cache) == len(ref_cache)
            for ours, theirs in zip(cache, ref_cache):
                assert ours.shape == theirs.shape
                assert ours.tobytes() == theirs.tobytes()
            assert net.work.rows == 512
            assert np.shares_memory(out, net.work.outs[-1])

            up = rng.normal(size=(rows, net.out_dim))
            grad, gin = backward(net, cache, up)
            gws, gbs, ref_gin = reference_backward(ref, ref_cache, up)
            for ours, theirs in zip(grad.weights + grad.biases + [gin],
                                    gws + gbs + [ref_gin]):
                assert ours.shape == theirs.shape
                assert ours.tobytes() == theirs.tobytes()
            assert np.shares_memory(gin, net.work.deltas[0])

            adam_step(net, grad, st, 0.003)
            reference_adam_step(ref, gws, gbs, ref_st, 0.003)
            assert net.flat.tobytes() == ref.flat.tobytes()
            m, v = (NetworkParams(net.layer_dims, a) for a in (st.m, st.v))
            for ours, theirs in ((m.weights, ref_st.m_w),
                                 (m.biases, ref_st.m_b),
                                 (v.weights, ref_st.v_w),
                                 (v.biases, ref_st.v_b)):
                assert all(a.tobytes() == b.tobytes()
                           for a, b in zip(ours, theirs))

        # a batch larger than the workspace grows it and is written into
        # the grown one
        x = rng.normal(size=(600, net.in_dim))
        out, cache = forward_cached(net, x)
        assert out.tobytes() == reference_forward_cached(ref, x)[0].tobytes()
        assert net.work.rows == 600
        assert all(np.shares_memory(a, b)
                   for a, b in zip(cache[1:], net.work.outs))


def traced_peak(step) -> int:
    """Peak bytes that numpy and Python allocate while step() runs."""
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_warm_512_row_training_step_allocates_no_batch_sized_array():
    # one (512, 128) float64 temporary alone is 512 KiB; the fresh-array
    # code peaked at 2.1 MiB for actor_step and 2.9-3.2 MiB for a regress
    # minibatch at 3-task dims, and joining each network's input outside
    # its workspace peaked at 906 KiB for a warm actor_forward plus
    # actor_step at 20-task dims
    for common_dim in (15, 83):
        b = init_bundle(common_dim=common_dim, seed=3)
        rng = np.random.default_rng(4)
        c = rng.normal(size=(512, common_dim))
        p = rng.normal(size=(512, 12))
        dlogits = rng.normal(size=(512, 7)) / 512
        states = [AdamState(b.encoder), AdamState(b.policy)]
        for _ in range(2):      # a warm-up step, then the measured one
            peak = traced_peak(lambda: actor_step(
                b, actor_forward(b, c, p)[2], dlogits, states, 0.001))
        assert peak < 512 * 1024, common_dim

    # a regress minibatch at 3- and 20-task dims, in the dtype each stage
    # trains: critic_init regresses the bundle's float64 critic on common
    # and latent blocks, and distillation a float32 copy of the adaptation
    # net.  Gathering each minibatch with fancy indexing came to 460 KiB
    # at 20-task float64 critic dims alone (a 547,072 B peak); gathered
    # into buffers made once, the critic peaked at 72,088 B and the
    # adaptation net at 137,560 B at both dims
    for common_dim in (15, 83):
        b = init_bundle(common_dim=common_dim, seed=3)
        with nets.working_copy(b, ()) as (work,):
            for net, cols, targets in (
                    (b.critic, (common_dim, nets.Z_DIM), 1),
                    (work.adaptation, (common_dim,), nets.Z_DIM)):
                dtype = net.flat.dtype
                assert dtype == (np.float64 if net is b.critic
                                 else np.float32)
                x = tuple(rng.normal(size=(512, k)).astype(dtype)
                          for k in cols)
                y = rng.normal(size=(512, targets)).astype(dtype)
                steps = regress(net, x, y, 0.001, 512, 2, rng)
                next(steps)     # the first epoch is one warm-up minibatch
                assert traced_peak(lambda: next(steps)) < 512 * 1024, \
                    (common_dim, targets)


def test_training_matches_the_fresh_array_reference_end_to_end(monkeypatch):
    # cloning, the critic warm start, two PPO batches and distillation, as
    # shipped and with the fresh-array network code patched in: parameters
    # and every metric, action_agreement included, are equal, at 3-task
    # dims and at 20-task dims (common dim 83), each with a pool of one.
    # Cloning and distillation train working copies, recorded here
    copied = []

    @contextlib.contextmanager
    def recorded_copy(bundle, trained, *rows):
        with nets.working_copy(bundle, trained, *rows) as out:
            yield out
        copied.append([getattr(out[0], name) for name in trained])

    for module in ("bc", "distill"):
        monkeypatch.setattr(f"dtspn.learn.{module}.working_copy",
                            recorded_copy)

    def train(family):
        copied.clear()
        b = init_bundle(common_dim=family.common_dim, seed=7)
        ds = synthetic_dataset(n_episodes=12, ep_len=40,
                               common_dim=family.common_dim, seed=3,
                               reward_from_obs=True)
        cfg = TrainConfig(bc_epochs=3, bc_batch=128, steps_budget=1024,
                          rollout_steps=512, minibatch=128, seed=5)
        _, bc = bc_pretrain(ds, b, cfg)
        _, critic = critic_init(ds, b, cfg, epochs=3)
        _, curve = ppo_finetune(family.train_envs(5, 1), b, cfg)
        _, ada = distill_adaptation(ds, b, cfg, epochs=3)
        return b, ([net.flat.tobytes() for net in b.networks],
                   repr((bc, critic, curve, ada)))

    for family in (DemoMeta(3, 300.0, 300.0, n_pos=3, n_head=2),
                   DemoMeta(20, 800.0, 800.0, n_pos=3, n_head=2)):
        b, shipped = train(family)
        # every trained network went through its workspace: PPO and critic
        # fitting step the bundle's networks, and the other stages copies
        # of the encoder and policy, then of the adaptation net
        trained = [b.encoder, b.policy, b.critic] + sum(copied, [])
        assert len(trained) == 6
        assert all(net.work is not None for net in trained)
        assert b.adaptation.work is None
        with monkeypatch.context() as patch:
            for name, ref in (
                    ("forward_cached", reference_forward_cached),
                    ("backward", oracles.reference_backward_params),
                    ("adam_step", oracles.reference_adam_step_params)):
                for module in ("nets", "bc", "distill", "ppo"):
                    mod = importlib.import_module(f"dtspn.learn.{module}")
                    if hasattr(mod, name):
                        patch.setattr(mod, name, ref)
            b, reference = train(family)
        assert all(net.work is None
                   for net in [*b.networks, *sum(copied, [])])
        assert reference == shipped, family.n_tasks


def test_stages_match_bit_for_bit_at_any_evaluation_chunk(monkeypatch):
    # cloning, the critic warm start and distillation with the shipped
    # workspace-sized chunks against one whole-split chunk: parameters and
    # every metric are equal.  A one-row chunk may change a matmul's last
    # bits, since numpy takes it by another BLAS routine; forward_rows
    # never makes one of a longer input
    ds = synthetic_dataset(n_episodes=20, ep_len=100, common_dim=15,
                           seed=3, reward_from_obs=True)
    cfg = TrainConfig(bc_epochs=2, bc_batch=256, seed=5)
    for k in range(3):      # each training split spans several chunks
        train, _ = episode_split(len(ds), np.random.default_rng(cfg.seed + k))
        assert len(train) * 100 > 2 * nets.EVAL_ROWS

    def train():
        b = init_bundle(common_dim=15, seed=7)
        _, bc = bc_pretrain(ds, b, cfg)
        _, critic = critic_init(ds, b, cfg)
        _, ada = distill_adaptation(ds, b, cfg, epochs=2)
        return ([net.flat.tobytes() for net in b.networks],
                repr((bc, critic, ada)))

    shipped = train()
    monkeypatch.setattr(nets, "EVAL_ROWS", 1 << 20)
    assert train() == shipped


@pytest.mark.parametrize("n", [3 * 512 + 7, 2 * 512 + 1])
def test_forward_rows_of_two_blocks_matches_one_forward_of_the_whole(n):
    # the 20-task encoder over commons and privileged rows, as cloning's
    # validation pass sees them: byte for byte one fresh-array forward of
    # the concatenated rows, in an array of its own (at 2 * 512 + 1 rows,
    # 512-row chunks would leave a one-row chunk, whose last bits differ);
    # a warm call allocates no more than its output and one chunk
    enc = init_bundle(common_dim=83, seed=2).encoder
    rng = np.random.default_rng(8)
    c, p = rng.normal(size=(n, 83)), rng.normal(size=(n, 12))
    ref = reference_forward_cached(enc, np.concatenate([c, p], axis=1))[0]
    for _ in range(2):      # a cold call makes the workspace, a warm one not
        out = forward_rows(enc, c, p)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
        assert enc.work.rows <= nets.EVAL_ROWS
        assert not np.shares_memory(out, enc.work.outs[-1])
    chunk = nets.EVAL_ROWS * enc.in_dim * 8
    assert traced_peak(lambda: forward_rows(enc, c, p)) < out.nbytes + chunk
    # one block works too; no rows give no output rows
    x = np.concatenate([c, p], axis=1)
    assert forward_rows(enc, x).tobytes() == ref.tobytes()
    assert forward_rows(enc, x[:0]).shape == (0, 32)


def test_every_stage_refuses_an_empty_split():
    real, _ = collect_batch(DemoMeta(n_tasks=1, map_width=300.0,
                                     map_height=300.0, n_pos=3, n_head=2), 3)
    x = Instance(200.0, 200.0, ((110.0, 20.0),), 50.0, 30.0,
                 Pose(100.0, 10.0, 0.0), 0)
    empty = collect(x, ExpertPath(waypoints=(x.start,), total_length=0.0,
                                  sensed_order=(0,)))
    assert len(empty) == 0 and min(map(len, real)) > 0
    cfg = TrainConfig(bc_epochs=1, seed=4)
    for offset, stage in enumerate((bc_pretrain, critic_init,
                                    distill_adaptation)):
        # the empty episode is the stage's whole validation split
        _, (val,) = episode_split(4, np.random.default_rng(cfg.seed + offset))
        demos = list(real)
        demos.insert(val, empty)
        ds = DemoDataset(demos, meta=real.meta)
        bundle = init_bundle(real.meta.common_dim, seed=0)
        with pytest.raises(ValueError, match="a split has no transitions"):
            stage(ds, bundle, cfg)


def test_parameter_views_share_the_flat_buffer():
    net = small_net((4, 6, 3), seed=2)
    net.weights[1][2, 1] = 7.5
    net.biases[0][3] = -2.0
    assert 7.5 in net.flat and -2.0 in net.flat
    net.flat[...] = np.arange(net.flat.size)
    assert net.weights[0][0, 1] == 1.0 and net.biases[1][-1] == net.flat[-1]
    assert all(np.shares_memory(a, net.flat)
               for a in net.weights + net.biases)

    twin = net.copy()
    assert twin.flat.tobytes() == net.flat.tobytes()
    assert not any(np.shares_memory(a, net.flat)
                   for a in [twin.flat] + twin.weights + twin.biases)
    twin.weights[0][...] = 0.0
    assert net.weights[0][0, 1] == 1.0


def test_bundle_copy_into_out_keeps_out_buffers():
    src, out = init_bundle(common_dim=9, seed=1), init_bundle(common_dim=9,
                                                              seed=2)
    flats = [net.flat for net in out.networks]
    first_weights = [net.weights[0] for net in out.networks]
    assert src.copy(out=out) is out
    for net, flat, w0, ref in zip(out.networks, flats, first_weights,
                                  src.networks):
        assert net.flat is flat and net.weights[0] is w0
        assert flat.tobytes() == ref.flat.tobytes()
        assert not np.shares_memory(flat, ref.flat)


def test_network_params_rejects_bad_buffers():
    dims = (3, 4, 2)
    for dtype in (np.float32, np.float64):
        NetworkParams(dims, np.zeros(26, dtype))
    for bad in (np.zeros((2, 13)), np.zeros(26, dtype=np.float16),
                np.zeros(26, dtype=np.int64), np.zeros(25), np.zeros(27),
                np.zeros(52)[::2], np.zeros(26, dtype=">f8"), [0.0] * 26):
        with pytest.raises(ValueError):
            NetworkParams(dims, bad)
    for short in ((), (3,)):
        with pytest.raises(ValueError):
            NetworkParams(short, np.zeros(0))


def test_init_bundle_shapes_and_policy_scale():
    b = init_bundle(common_dim=83, seed=0)
    assert b.encoder.layer_dims == (95, 128, 128, 32)
    assert b.policy.layer_dims == (115, 128, 128, 7)
    assert b.critic.layer_dims == (115, 128, 128, 1)
    assert b.adaptation.layer_dims == (83, 128, 128, 32)
    assert b.z_dim == 32 and b.common_dim == 83 and b.priv_dim == 12
    assert b.n_actions == 7
    # policy head is shrunk so initial logits are near zero
    assert np.max(np.abs(b.policy.weights[-1])) < 0.01 * np.max(
        np.abs(b.policy.weights[0]))
    b2 = init_bundle(common_dim=83, seed=0)
    assert b.encoder.weights[0].tobytes() == b2.encoder.weights[0].tobytes()


def test_bundle_validation():
    b = init_bundle(common_dim=20, seed=1)
    try:
        ModelBundle(b.encoder, b.policy, b.critic,
                    small_net((20, 8, 31)))  # wrong z dim
        assert False
    except ValueError:
        pass
    try:
        ModelBundle(b.encoder, small_net((10, 8, 7)), b.critic, b.adaptation)
        assert False
    except ValueError:
        pass


def test_train_config_rejects_bad_rates_nan_and_inf():
    TrainConfig(bc_lr=0.0, ppo_actor_lr=0.0, ppo_critic_lr=0.0,
                entropy_coef=0.0)
    for name in ("bc_lr", "ppo_actor_lr", "ppo_critic_lr", "entropy_coef"):
        for bad in (-1e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: bad})
    for kw in ({"gamma": math.nan}, {"ppo_clip": math.nan},
               {"gae_lambda": math.nan}):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


def pi_free_twin(common_dim=9, seed=4):
    """Bundle whose encoder ignores its privileged block and whose adaptation
    is the same function restricted to the common inputs."""
    b = init_bundle(common_dim=common_dim, seed=seed)
    b.encoder.weights[0][common_dim:, :] = 0.0
    ada = init_network((common_dim,) + b.encoder.layer_dims[1:],
                       np.random.default_rng(0))
    for dst, src in zip(ada.weights + ada.biases,
                        b.encoder.weights + b.encoder.biases):
        dst[...] = src[:len(dst)]
    return ModelBundle(b.encoder, b.policy, b.critic, ada)


def test_act_paths_and_tie_break():
    b = pi_free_twin()
    c = np.random.default_rng(0).normal(size=9)
    p = np.random.default_rng(1).normal(size=12)
    a1 = act(b, c, use_privileged=True, privileged_obs=p)
    a2 = act(b, c, use_privileged=False)
    assert a1 == a2  # z' == z by construction
    assert act(b, c, True, p) == a1  # deterministic repeat

    # all-zero policy gives uniform logits: argmax tie-break is index 0
    zb = init_bundle(common_dim=9, seed=0)
    for w in zb.policy.weights:
        w[...] = 0.0
    for bias in zb.policy.biases:
        bias[...] = 0.0
    assert act(zb, c, use_privileged=False) == 0

    try:
        act(b, c, use_privileged=True)
        assert False, "missing privileged obs accepted"
    except ValueError:
        pass


def test_act_logit_shift_invariance():
    b = init_bundle(common_dim=9, seed=2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = rng.normal(size=9)
        p = rng.normal(size=12)
        a0 = act(b, c, True, p)
        b.policy.biases[-1] += 3.7
        a1 = act(b, c, True, p)
        b.policy.biases[-1] -= 3.7
        assert a0 == a1


def test_act_on_each_row_matches_one_actor_forward_over_all_rows():
    b = init_bundle(common_dim=9, seed=8)
    rng = np.random.default_rng(2)
    commons = rng.normal(size=(40, 9))
    privs = rng.normal(size=(40, 12))
    for use_privileged in (True, False):
        logits, x, _ = actor_forward(b, commons,
                                     privs if use_privileged else None)
        assert logits.shape == (40, 7) and x.shape == (40, 9 + 32)
        assert np.array_equal(x[:, :9], commons)
        for i in range(40):
            one = actor_forward(b, commons[i:i + 1],
                                privs[i:i + 1] if use_privileged else None)[0]
            assert np.allclose(one[0], logits[i], rtol=0.0, atol=1e-12)
            assert act(b, commons[i], use_privileged, privs[i]) == \
                int(logits[i].argmax())


@pytest.mark.parametrize("common_dim", [15, 83])
def test_forward_on_a_row_is_row_0_of_its_one_row_batch(common_dim):
    b = init_bundle(common_dim=common_dim, seed=common_dim)
    rng = np.random.default_rng(common_dim)
    for net in b.networks:
        for _ in range(20):
            x = rng.normal(size=net.in_dim)
            out, cache = forward_cached(net, x)
            out_b, cache_b = forward_cached(net, x[None])
            assert out.shape == (net.out_dim,)
            assert out.tobytes() == out_b[0].tobytes()
            assert [h.tobytes() for h in cache] == \
                [h[0].tobytes() for h in cache_b]
    with pytest.raises(ValueError):
        forward_cached(b.policy, np.zeros(b.policy.in_dim + 1))
    with pytest.raises(ValueError):
        forward_cached(b.policy, np.zeros((1, 1, b.policy.in_dim)))


def test_forward_of_column_blocks_matches_the_reference_on_the_joined_rows():
    # the four 20-task networks, each on its input's column blocks: a row,
    # then batches of 1, 16, 512 and 600 rows (the last grows the
    # workspace) give the fresh-array forward's bytes on the joined input,
    # with a batch's input written into the workspace
    b = init_bundle(common_dim=83, seed=13)
    rng = np.random.default_rng(13)
    widths = ((83, 12), (83, 32), (83, 32), (83,))
    for net, cols in zip(b.networks, widths):
        for rows in (None, 1, 16, 512, 600):
            shape = () if rows is None else (rows,)
            blocks = [rng.normal(size=shape + (w,)) for w in cols]
            out, cache = forward_cached(net, *blocks)
            ref_out, ref_cache = reference_forward_cached(
                net, np.concatenate(blocks, axis=-1))
            assert out.tobytes() == ref_out.tobytes()
            assert [a.shape for a in cache] == [a.shape for a in ref_cache]
            assert all(a.tobytes() == r.tobytes()
                       for a, r in zip(cache, ref_cache))
            assert not any(np.shares_memory(cache[0], x) for x in blocks)
            if rows is not None:
                assert np.shares_memory(cache[0], net.work.inp)
        assert net.work.rows == 600
        for bad in ([np.zeros(83), np.zeros(cols[-1] + 1)],
                    [np.zeros((4, 83)), np.zeros((4, cols[-1] - 1))],
                    [np.zeros((4, 83)), np.zeros((5, cols[-1]))],
                    [np.zeros((4, 83)), np.zeros(cols[-1])],
                    [np.zeros((1, 1, net.in_dim))]):
            with pytest.raises(ValueError):
                forward_cached(net, *bad)


def test_act_is_the_argmax_of_the_one_row_batch_forward():
    b = init_bundle(common_dim=15, seed=4)
    zb = init_bundle(common_dim=15, seed=4)
    zb.policy.flat[...] = 0.0       # uniform logits: the tie goes to 0
    rng = np.random.default_rng(6)
    for bundle in (b, zb):
        for _ in range(50):
            c, p = rng.normal(size=15), rng.normal(size=12)
            for privs in (p, None):
                logits = actor_forward(bundle, c[None], None if privs is None
                                       else privs[None])[0]
                row = actor_forward(bundle, c, privs)[0]
                assert row.tobytes() == logits[0].tobytes()
                assert act(bundle, c, privs is not None, privs) == \
                    int(logits.argmax())
    assert act(zb, c, False) == act(zb, c, True, p) == 0


def test_backward_rejects_the_cache_of_a_row():
    net = small_net((4, 8, 3))
    _, cache = forward_cached(net, np.ones(4))
    with pytest.raises(ValueError, match="cache of a batch"):
        backward(net, cache, np.ones(3))
    with pytest.raises(ValueError, match="cache of a batch"):
        backward(net, cache, np.ones((1, 3)))


def test_backward_rejects_an_upstream_not_of_the_output_shape():
    net = small_net((4, 8, 3))
    _, cache = forward_cached(net, np.ones((5, 4)))
    # a row, a transposed batch, another batch size, another output width
    for shape in ((3,), (3, 5), (4, 3), (5, 2), (5, 3, 1)):
        with pytest.raises(ValueError, match="upstream shape"):
            backward(net, cache, np.ones(shape))
    grad, _ = backward(net, cache, np.ones((5, 3)))
    assert np.isfinite(grad.flat).all()


def test_softmax_rows_sum_to_one():
    x = np.array([[1.0, 2.0, 3.0], [1000.0, 1000.0, 999.0]])
    p = softmax(x)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p > 0)


def test_checkpoint_roundtrip_and_errors(tmp_path):
    b = init_bundle(common_dim=15, seed=9)
    path = str(tmp_path / "model.ckpt")
    save_bundle(b, path)
    back = load_bundle(path)
    for n1, n2 in ((b.encoder, back.encoder), (b.policy, back.policy),
                   (b.critic, back.critic), (b.adaptation, back.adaptation)):
        assert n1.layer_dims == n2.layer_dims
        for w1, w2 in zip(n1.weights, n2.weights):
            assert w1.tobytes() == w2.tobytes()
        for b1, b2 in zip(n1.biases, n2.biases):
            assert b1.tobytes() == b2.tobytes()
    # the loaded bundle acts identically
    c = np.random.default_rng(3).normal(size=15)
    p = np.random.default_rng(4).normal(size=12)
    assert act(b, c, True, p) == act(back, c, True, p)

    raw = (tmp_path / "model.ckpt").read_bytes()
    corrupt = bytearray(raw)
    corrupt[50] ^= 0xFF
    (tmp_path / "bad.ckpt").write_bytes(bytes(corrupt))
    try:
        load_bundle(str(tmp_path / "bad.ckpt"))
        assert False
    except CheckpointError as e:
        assert "fingerprint" in str(e)

    (tmp_path / "short.ckpt").write_bytes(raw[:40])
    try:
        load_bundle(str(tmp_path / "short.ckpt"))
        assert False
    except CheckpointError:
        pass

    wrong_magic = b"NOTMODEL" + raw[8:-32]
    (tmp_path / "magic.ckpt").write_bytes(
        wrong_magic + hashlib.sha256(wrong_magic).digest())
    try:
        load_bundle(str(tmp_path / "magic.ckpt"))
        assert False
    except CheckpointError as e:
        assert "magic" in str(e)

    # each network well formed, but the policy expects a wider common input
    other = init_bundle(common_dim=19, seed=9)
    mixed = b"".join([CKPT_MAGIC, struct.pack("<II", CKPT_VERSION, 4)] + [
        _pack_network(n) for n in (b.encoder, other.policy, b.critic,
                                   b.adaptation)])
    (tmp_path / "mixed.ckpt").write_bytes(
        mixed + hashlib.sha256(mixed).digest())
    with pytest.raises(CheckpointError, match="policy"):
        load_bundle(str(tmp_path / "mixed.ckpt"))


def write_ckpt(path, records):
    """A checkpoint of these network records under a matching fingerprint."""
    body = b"".join([CKPT_MAGIC, struct.pack("<II", CKPT_VERSION, 4)] +
                    records)
    path.write_bytes(body + hashlib.sha256(body).digest())
    return str(path)


def test_save_bundle_bytes_match_the_per_layer_reference(tmp_path):
    for common_dim in (15, 83):
        b = init_bundle(common_dim=common_dim, seed=7)
        save_bundle(b, str(tmp_path / "m.ckpt"))
        ref = write_ckpt(tmp_path / "ref.ckpt",
                         [reference_pack_network(n) for n in b.networks])
        with open(ref, "rb") as f:
            assert (tmp_path / "m.ckpt").read_bytes() == f.read()


def test_loaded_parameters_are_writeable_and_own_their_memory(tmp_path):
    b = init_bundle(common_dim=15, seed=8)
    save_bundle(b, str(tmp_path / "m.ckpt"))
    back = load_bundle(str(tmp_path / "m.ckpt"))
    for net in back.networks:
        assert net.flat.flags.writeable and net.flat.flags.owndata
        assert net.flat.dtype == np.float64
    _, cache = forward_cached(back.critic, np.ones((2, back.critic.in_dim)))
    grad, _ = backward(back.critic, cache, np.ones((2, 1)))
    adam_step(back.critic, grad, AdamState(back.critic), 0.01)
    assert back.critic.flat.tobytes() != b.critic.flat.tobytes()


def test_load_bundle_rejects_impossible_layer_dims(tmp_path):
    b = init_bundle(common_dim=7, hidden=4, z_dim=3, seed=1)
    rest = [_pack_network(n) for n in b.networks[1:]]
    # a parameter count past what a C size holds, under a valid fingerprint
    huge = struct.pack("<3I", 2, 2 ** 32 - 1, 2 ** 32 - 1)
    with pytest.raises(CheckpointError, match="parameters"):
        load_bundle(write_ckpt(tmp_path / "huge.ckpt", [huge] + rest))
    # one-dim encoder and adaptation: networks without a layer, whose
    # dims alone would pass the bundle's checks
    one = struct.pack("<2I", 1, 5)
    rec = [one, _pack_network(small_net((10, 4, 7))),
           _pack_network(small_net((10, 4, 1))), one]
    with pytest.raises(CheckpointError, match="two or more layer dims"):
        load_bundle(write_ckpt(tmp_path / "one.ckpt", rec))


@pytest.fixture(scope="module")
def ckpt_bytes(tmp_path_factory):
    p = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_bundle(init_bundle(common_dim=7, hidden=4, z_dim=3, seed=1), str(p))
    return p.read_bytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_load_bundle_fuzz_raises_only_checkpoint_errors(tmp_path_factory,
                                                       ckpt_bytes, data):
    # byte flips and truncations of the body, under the stored fingerprint
    # or one recomputed over the damaged body (so the parser itself sees
    # them), either raise CheckpointError or load a bundle
    body = bytearray(ckpt_bytes[:-32])
    for at, value in data.draw(st.lists(st.tuples(
            st.integers(0, len(body) - 1), st.integers(0, 255)),
            min_size=1, max_size=4)):
        body[at] = value
    end = st.one_of(st.just(len(body)), st.integers(0, len(body)))
    body = bytes(body[:data.draw(end)])
    digest = (hashlib.sha256(body).digest() if data.draw(st.booleans())
              else ckpt_bytes[-32:])
    p = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    p.write_bytes(body + digest)
    try:
        assert isinstance(load_bundle(str(p)), ModelBundle)
    except CheckpointError:
        pass


def test_episode_split_and_return_to_go():
    rng = np.random.default_rng(0)
    tr, va = episode_split(10, rng)
    assert len(va) == 1 and len(tr) == 9
    assert set(tr) | set(va) == set(range(10))
    try:
        episode_split(1, rng)
        assert False
    except ValueError:
        pass

    assert np.all(return_to_go(np.array([10.0]), 0.95) == [10.0])
    tg = return_to_go(np.array([0.1, 10.0]), 0.95)
    assert tg[1] == 10.0 and tg[0] == 9.6
    r = rng.normal(size=17)
    assert np.allclose(return_to_go(r, 0.93), discounted_returns(r, 0.93))


def test_return_to_go_bytes_equal_the_numpy_scalar_loop():
    rng = np.random.default_rng(1)
    for n, gamma in ((1, 0.95), (4000, 0.99), (4000, 0.93), (517, 0.5)):
        r = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-8, 8, n)
        assert (return_to_go(r, gamma).tobytes()
                == discounted_returns(r, gamma).tobytes())
    assert return_to_go(np.zeros(0), 0.9).shape == (0,)


def synthetic_dataset(n_episodes=12, ep_len=30, common_dim=9, seed=0,
                      rule="common", reward_from_obs=False):
    """Toy demonstrations.  The action depends on a common feature
    (rule='common'), only on a privileged feature (rule='priv'), or is
    constant (rule='const').  With reward_from_obs the reward is a fixed
    function of the state, so return-to-go is partially predictable."""
    rng = np.random.default_rng(seed)
    out = []
    for e in range(n_episodes):
        c = rng.normal(size=(ep_len, common_dim))
        p = rng.normal(size=(ep_len, 12))
        if rule == "common":
            a = np.where(c[:, 0] > 0, 1, 4).astype(np.uint8)
        elif rule == "priv":
            a = np.where(p[:, 0] > 0, 2, 5).astype(np.uint8)
        else:
            a = np.full(ep_len, 3, dtype=np.uint8)
        rew = c[:, 1].copy() if reward_from_obs else rng.uniform(0, 1, ep_len)
        dones = np.zeros(ep_len, dtype=np.uint8)
        dones[-1] = 1
        out.append(Demonstration(
            seed=e, commons=c, privileged=p, actions=a, rewards=rew,
            dones=dones))
    return DemoDataset(out)


def test_bc_learns_and_is_deterministic():
    ds = synthetic_dataset(rule="common")
    cfg = TrainConfig(bc_epochs=20, bc_batch=64, bc_lr=0.003, seed=3)
    b1, m1 = bc_pretrain(ds, init_bundle(common_dim=9, seed=1), cfg)
    assert len(m1["train_loss"]) == 20 and len(m1["val_acc"]) == 20
    assert m1["val_acc"][-1] >= 0.95
    # loss trend: last third should be below the first third
    third = len(m1["train_loss"]) // 3
    assert np.mean(m1["train_loss"][-third:]) < np.mean(
        m1["train_loss"][:third])

    b2, m2 = bc_pretrain(ds, init_bundle(common_dim=9, seed=1), cfg)
    assert m1["val_acc"] == m2["val_acc"]
    for w1, w2 in zip(b1.policy.weights, b2.policy.weights):
        assert w1.tobytes() == w2.tobytes()
    for w1, w2 in zip(b1.encoder.weights, b2.encoder.weights):
        assert w1.tobytes() == w2.tobytes()


def test_bc_constant_action_dataset():
    ds = synthetic_dataset(rule="const")
    cfg = TrainConfig(bc_epochs=4, bc_batch=64, seed=0)
    _, m = bc_pretrain(ds, init_bundle(common_dim=9, seed=0), cfg)
    assert m["val_acc"][-1] == 1.0


def test_bc_privileged_gap_on_synthetic_labels():
    # labels depend only on privileged features: with PI the policy can fit,
    # without it the best possible is the class prior (about 0.5)
    ds = synthetic_dataset(n_episodes=16, ep_len=40, rule="priv", seed=5)
    cfg = TrainConfig(bc_epochs=25, bc_batch=64, bc_lr=0.003, seed=1)
    _, with_pi = bc_pretrain(ds, init_bundle(common_dim=9, seed=2), cfg,
                             use_privileged=True)
    rows = ds.rows.tobytes()
    _, without = bc_pretrain(ds, init_bundle(common_dim=9, seed=2), cfg,
                             use_privileged=False)
    assert with_pi["val_acc"][-1] - without["val_acc"][-1] >= 0.25
    assert ds.rows.tobytes() == rows    # the ablation zeroes its own copies


def test_bc_rejects_tiny_dataset():
    ds = synthetic_dataset(n_episodes=1)
    try:
        bc_pretrain(ds, init_bundle(common_dim=9, seed=0),
                    TrainConfig(bc_epochs=1))
        assert False
    except ValueError as e:
        assert "split" in str(e)


def test_critic_init_beats_mean_predictor_and_freezes_encoder():
    # reward = a state feature, so a share of return-to-go is predictable
    ds = synthetic_dataset(n_episodes=14, ep_len=25, seed=7,
                           reward_from_obs=True)
    cfg = TrainConfig(gamma=0.5, ppo_critic_lr=0.003, bc_batch=64, seed=2)
    b = init_bundle(common_dim=9, seed=3)
    enc_before = [w.copy() for w in b.encoder.weights]
    _, m = critic_init(ds, b, cfg, epochs=40)
    assert m["val_mse"][-1] < m["val_target_variance"]
    for w0, w1 in zip(enc_before, b.encoder.weights):
        assert w0.tobytes() == w1.tobytes()


def test_a_stage_that_moves_no_parameter_changes_no_byte():
    # cloning and distillation at bc_lr 0 and critic fitting at
    # ppo_critic_lr 0 step every minibatch, and move nothing: no byte of
    # the float64 bundle changes, although cloning and distillation trained
    # float32 copies, whose cast back would round almost every parameter
    ds = synthetic_dataset(n_episodes=12, ep_len=30, seed=3,
                           reward_from_obs=True)
    cfg = TrainConfig(bc_epochs=2, bc_batch=64, bc_lr=0.0,
                      ppo_critic_lr=0.0, seed=1)
    b = init_bundle(common_dim=9, seed=2)
    before = [net.flat.tobytes() for net in b.networks]
    _, bc = bc_pretrain(ds, b, cfg)
    _, critic = critic_init(ds, b, cfg)
    _, ada = distill_adaptation(ds, b, cfg, epochs=2)
    assert len(bc["val_acc"]) == len(critic["val_mse"]) == 2
    assert len(ada["train_mse"]) == 2
    assert [net.flat.tobytes() for net in b.networks] == before

    # a parameter no step moves keeps its bytes while the rest train: the
    # no-PI ablation zeroes the privileged rows, so their first-layer
    # encoder weights get zero gradients
    enc = b.encoder.weights[0]
    priv, common = enc[9:].tobytes(), enc[:9].tobytes()
    bc_pretrain(ds, b, TrainConfig(bc_epochs=2, bc_batch=64, seed=1),
                use_privileged=False)
    assert enc[9:].tobytes() == priv and enc[:9].tobytes() != common
    assert all(net.flat.dtype == np.float64 for net in b.networks)


def test_supervised_stages_in_float32_agree_with_float64_copies(
        monkeypatch):
    # the precision contract of the float32 working copies, against the
    # same stages on float64 copies (bit for bit the float64 code), with
    # critic fitting, float64 in both, between them.  Over six seeds of
    # this dataset and of 3-task demos, 5 epochs each, the continuous
    # metrics differed by at most 3.9e-7 relative, and the accuracy and
    # agreement rates not at all; the bounds are 1e-5 and one validation
    # row
    ds = synthetic_dataset(n_episodes=12, ep_len=40, common_dim=15, seed=3,
                           reward_from_obs=True)
    rate_keys = {"train_acc", "val_acc", "action_agreement"}

    def train():
        b = init_bundle(common_dim=15, seed=3)
        cfg = TrainConfig(bc_epochs=5, bc_batch=128, seed=3)
        _, bc = bc_pretrain(ds, b, cfg)
        _, critic = critic_init(ds, b, cfg)
        _, ada = distill_adaptation(ds, b, cfg, epochs=5)
        assert all(net.flat.dtype == np.float64 for net in b.networks)
        return b"".join(net.flat.tobytes() for net in b.networks), \
            (bc, critic, ada)

    params32, ours = train()
    monkeypatch.setattr(nets, "TRAIN_DTYPE", np.float64)
    params64, wide = train()
    assert params32 != params64
    for m32, m64 in zip(ours, wide):
        assert m32.keys() == m64.keys()
        for key in m32:
            x, y = np.asarray(m32[key]), np.asarray(m64[key])
            assert x.shape == y.shape, key
            if key in rate_keys:
                assert np.abs(x - y).max() <= 1 / 40, key
            else:
                assert np.allclose(x, y, rtol=1e-5, atol=0.0), key


def test_regress_at_zero_lr_changes_no_parameter():
    net = small_net((5, 8, 2), seed=4)
    before = _pack_network(net)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(50, 5)), rng.normal(size=(50, 2))
    curve = list(regress(net, (x,), y, 0.0, 16, 3, rng))
    assert _pack_network(net) == before
    # nothing moved, so every epoch sees the same error up to the order
    # its minibatches are summed in
    assert len(curve) == 3 and curve[0] > 0.0
    assert np.allclose(curve, curve[0], rtol=1e-12, atol=0.0)


def test_compute_gae_examples_and_bruteforce():
    adv, rets = compute_gae(np.array([1.0, 1.0]), np.array([0.0, 0.0]),
                            np.array([False, True]), 5.0, 1.0, 1.0)
    assert np.allclose(adv, [2.0, 1.0])
    assert np.allclose(rets, [2.0, 1.0])

    rng = np.random.default_rng(11)
    r = rng.normal(size=6)
    v = rng.normal(size=6)
    dones = np.zeros(6, dtype=bool)
    last = 0.7
    gamma, lam = 0.9, 0.8
    adv, rets = compute_gae(r, v, dones, last, gamma, lam)
    vv = np.append(v, last)
    deltas = r + gamma * vv[1:] - vv[:-1]
    for t in range(6):
        expect = sum((gamma * lam) ** (k - t) * deltas[k] for k in range(t, 6))
        assert abs(adv[t] - expect) < 1e-12
    assert np.allclose(rets, adv + v)


def test_compute_gae_columns_are_independent_runs():
    # (T, E) advantages: each column equals the 1-D run over that env,
    # bit for bit, with its own bootstrap value
    rng = np.random.default_rng(12)
    t_len, e = 9, 5
    r = rng.normal(size=(t_len, e))
    v = rng.normal(size=(t_len, e))
    dones = rng.random((t_len, e)) < 0.2
    last = rng.normal(size=e)
    adv, rets = compute_gae(r, v, dones, last, 0.95, 0.9)
    for j in range(e):
        a1, r1 = compute_gae(r[:, j], v[:, j], dones[:, j], last[j], 0.95, 0.9)
        assert adv[:, j].tobytes() == a1.tobytes()
        assert rets[:, j].tobytes() == r1.tobytes()


def test_sample_categorical_matches_generator_choice():
    rng = np.random.default_rng(3)
    probs = softmax(rng.normal(scale=3.0, size=(2000, 7)))
    probs[:50, 2:] = 0.0            # rows with zero-probability tails
    probs[:50] /= probs[:50].sum(axis=1, keepdims=True)
    ours = sample_categorical(probs, np.random.default_rng(99))
    ref = np.random.default_rng(99)
    theirs = [ref.choice(7, p=row) for row in probs]
    assert ours.tolist() == theirs
    for bad in (np.nan, np.inf):
        p = probs[:3].copy()
        p[1, 4] = bad
        with pytest.raises(ValueError):
            sample_categorical(p, np.random.default_rng(0))


def test_clipped_surrogate_properties():
    rng = np.random.default_rng(0)
    ratio = rng.uniform(0.0, 2.5, size=500)
    adv = rng.normal(size=500)
    clip = 0.2
    obj, dobj = clipped_surrogate(ratio, adv, clip)
    lo, hi = 1.0 - clip, 1.0 + clip
    # objective never rewards moving the ratio outside the clip box
    assert np.all(obj <= np.maximum(lo * adv, hi * adv) + 1e-12)
    # gradient is dead exactly where the clipped branch is active
    dead = ((adv > 0) & (ratio > hi)) | ((adv < 0) & (ratio < lo))
    assert np.all(dobj[dead] == 0.0)
    live = ((adv > 0) & (ratio < hi)) | ((adv < 0) & (ratio > lo))
    assert np.allclose(dobj[live], ratio[live] * adv[live])
    inside = (ratio > lo) & (ratio < hi)
    assert np.allclose(obj[inside], ratio[inside] * adv[inside])


def make_env_factory(seed=5):
    return DemoMeta(3, 300.0, 300.0, n_pos=3, n_head=2).train_envs(seed, 1)


def test_ppo_zero_lr_is_identity():
    factory = make_env_factory()
    b = init_bundle(common_dim=15, seed=4)
    before = b.copy()
    cfg = TrainConfig(ppo_actor_lr=0.0, ppo_critic_lr=0.0, steps_budget=512,
                      rollout_steps=256, minibatch=64, seed=0)
    b, curve = ppo_finetune(factory, b, cfg)
    assert len(curve) == 2
    for n0, n1 in ((before.encoder, b.encoder), (before.policy, b.policy),
                   (before.critic, b.critic)):
        for w0, w1 in zip(n0.weights, n1.weights):
            assert w0.tobytes() == w1.tobytes()
        for c0, c1 in zip(n0.biases, n1.biases):
            assert c0.tobytes() == c1.tobytes()


def test_ppo_zero_actor_lr_trains_only_the_critic():
    b = init_bundle(common_dim=15, seed=4)
    before = [_pack_network(net) for net in (b.encoder, b.policy, b.critic)]
    live = []   # the parameters in training after each batch's update

    def log(_):
        live.append([_pack_network(net)
                     for net in (b.encoder, b.policy, b.critic)])

    cfg = TrainConfig(steps_budget=768, rollout_steps=256, minibatch=64,
                      ppo_actor_lr=0.0, seed=0)
    ppo_finetune(make_env_factory(), b, cfg, log=log)
    assert len(live) == 3
    for enc, pol, cri in live:
        assert enc == before[0] and pol == before[1]
        assert cri != before[2]
    assert live[0][2] != live[1][2]


def test_ppo_smoke_runs_and_tracks_best():
    factory = make_env_factory(seed=9)
    b = init_bundle(common_dim=15, seed=1)
    cfg = TrainConfig(steps_budget=4096, rollout_steps=2048, minibatch=512,
                      entropy_coef=0.0, seed=3)
    b, curve = ppo_finetune(factory, b, cfg)
    assert len(curve) == 2
    assert b.finite()
    assert all(np.isfinite(c) for c in curve)


LOG_KEYS = {"batch", "env_steps", "avg_reward", "approx_kl", "clip_frac",
            "entropy", "value_loss", "explained_var", "rollout_s",
            "update_s", "steps_per_s", "kept_batch", "kept_return"}


def assert_last_batch_record(rec, batch, rollout_steps):
    """The record of a batch that no update follows."""
    assert set(rec) == LOG_KEYS
    assert rec["batch"] == batch
    assert rec["env_steps"] == batch * rollout_steps
    assert all(np.isnan(rec[k]) for k in ("approx_kl", "clip_frac",
                                          "entropy", "value_loss"))
    assert rec["update_s"] == 0.0
    assert rec["rollout_s"] > 0.0
    assert rec["steps_per_s"] == rollout_steps / rec["rollout_s"]
    assert np.isfinite(rec["explained_var"])


def test_ppo_log_has_one_record_per_batch_and_changes_nothing():
    cfg = TrainConfig(steps_budget=1536, rollout_steps=512, minibatch=128,
                      seed=4)
    runs, records = [], []
    for log in (None, records.append):
        b = init_bundle(common_dim=15, seed=2)
        b, curve = ppo_finetune(make_env_factory(seed=9), b, cfg, log=log)
        runs.append(b"".join(a.tobytes() for net in b.networks
                             for a in net.weights + net.biases))
    assert runs[0] == runs[1]
    assert len(records) == len(curve) == 3
    assert_last_batch_record(records[-1], 3, 512)
    # each record names the batch the run would return if it ended there:
    # the first with the best finite curve entry so far, else its own
    for k, rec in enumerate(records, 1):
        seen = [c for c in curve[:k] if np.isfinite(c)]
        kept = curve.index(max(seen)) + 1 if seen else k
        assert rec["kept_batch"] == kept
        assert np.array_equal(rec["kept_return"], curve[kept - 1],
                              equal_nan=True)
    for k, rec in enumerate(records[:-1], 1):
        assert set(rec) == LOG_KEYS
        assert rec["batch"] == k and rec["env_steps"] == 512 * k
        assert 0.0 <= rec["clip_frac"] <= 1.0 and rec["approx_kl"] >= -1e-12
        assert rec["entropy"] > 0.0 and rec["value_loss"] >= 0.0
        assert rec["rollout_s"] > 0.0 and rec["update_s"] > 0.0
        assert np.isclose(rec["steps_per_s"],
                          512 / (rec["rollout_s"] + rec["update_s"]))


def diverging_bundle():
    b = init_bundle(common_dim=15, seed=0)
    # saturate the critic's first layer and blow up its head: the backward
    # pass then produces inf * 0 = nan parameter gradients
    b.critic.weights[0][...] = 1e200
    b.critic.weights[-1][...] = 1e300
    return b


# two batches: the first batch's update diverges
DIVERGING = TrainConfig(steps_budget=512, rollout_steps=256, minibatch=64,
                        seed=0)


def test_ppo_divergence_guard():
    try:
        with np.errstate(all="ignore"):
            ppo_finetune(make_env_factory(seed=2), diverging_bundle(),
                         DIVERGING)
        assert False, "non-finite parameters not caught"
    except RuntimeError as e:
        assert "non-finite" in str(e)


def test_ppo_critic_steps_under_the_callers_errstate():
    # the critic's overflows stay as quiet as the caller asked, so no
    # RuntimeWarning turns into an error
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeError, match="non-finite"):
            ppo_finetune(make_env_factory(seed=2), diverging_bundle(),
                         DIVERGING)


def test_ppo_starts_no_thread(monkeypatch):
    def forbidden(self):
        raise AssertionError(f"PPO started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", forbidden)
    cfg = TrainConfig(steps_budget=512, rollout_steps=256, minibatch=64,
                      seed=0)
    ppo_finetune(make_env_factory(), init_bundle(common_dim=15, seed=4), cfg)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError):
        ppo_finetune(make_env_factory(seed=2), diverging_bundle(), DIVERGING)

    # an env factory that fails in the second batch's rollout (the first
    # takes 30 envs), after the first batch's update
    factory, calls = make_env_factory(), [0]

    def failing():
        calls[0] += 1
        if calls[0] > 40:
            raise ValueError("no more envs")
        return factory()

    with pytest.raises(ValueError, match="no more envs"):
        ppo_finetune(failing, init_bundle(common_dim=15, seed=4), cfg)


def test_ppo_refuses_envs_not_in_train_mode(monkeypatch):
    # an eval-mode env may carry no expert path, whose privileged rows the
    # encoder would read as zeros: PPO raises before any env step, with
    # no parameter changed
    family = DemoMeta(3, 300.0, 300.0, n_pos=3, n_head=2)
    x = family.instance_for(5)
    path = family.expert_path(x)

    def forbidden(*_):
        raise AssertionError("an env was reset or stepped")

    monkeypatch.setattr(EnvBatch, "reset", forbidden)
    monkeypatch.setattr(EnvBatch, "step", forbidden)
    b = init_bundle(common_dim=15, seed=4)
    before = [net.flat.tobytes() for net in b.networks]
    cfg = TrainConfig(steps_budget=512, rollout_steps=256, minibatch=64,
                      seed=0)
    for factory in (lambda: DtspnEnv(x, mode="eval"),
                    lambda: DtspnEnv(x, path, mode="eval")):
        for use_privileged in (True, False):
            with pytest.raises(ValueError, match="'eval'"):
                ppo_finetune(factory, b, cfg, use_privileged=use_privileged)
    assert [net.flat.tobytes() for net in b.networks] == before


def count_training_steps(monkeypatch):
    """Counts of PPO's actor_step and squared_error_step calls, as they
    run."""
    calls = {"actor_step": 0, "squared_error_step": 0}
    for name in calls:
        def counted(*args, _name=name, _step=getattr(ppo, name)):
            calls[_name] += 1
            return _step(*args)
        monkeypatch.setattr(ppo, name, counted)
    return calls


def test_ppo_runs_no_update_after_the_last_rollout(monkeypatch):
    calls = count_training_steps(monkeypatch)
    b = init_bundle(common_dim=15, seed=4)
    before = [net.flat.tobytes() for net in b.networks]
    records = []
    cfg = TrainConfig(steps_budget=256, rollout_steps=256, minibatch=64,
                      seed=0)
    out, curve = ppo_finetune(make_env_factory(), b, cfg,
                              log=records.append)
    assert out is b and len(curve) == len(records) == 1
    assert calls == {"actor_step": 0, "squared_error_step": 0}
    assert [net.flat.tobytes() for net in b.networks] == before
    assert_last_batch_record(records[0], 1, 256)


def test_ppo_updates_after_every_batch_but_the_last(monkeypatch):
    calls = count_training_steps(monkeypatch)
    cfg = TrainConfig(steps_budget=768, rollout_steps=256, minibatch=100,
                      epochs_per_batch=2, seed=0)
    _, curve = ppo_finetune(make_env_factory(), init_bundle(common_dim=15,
                                                            seed=4), cfg)
    assert len(curve) == 3
    steps = 2 * cfg.epochs_per_batch * math.ceil(256 / 100)
    assert calls == {"actor_step": steps, "squared_error_step": steps}


def test_ppo_without_a_finished_episode_returns_the_last_collectors():
    # a one-step rollout ends no episode, so every curve entry is nan and
    # the result is the parameters that collected the last batch: those
    # after the second batch's update, since no update follows the third
    cfg = TrainConfig(steps_budget=3, rollout_steps=1, minibatch=1,
                      seed=0)
    live, kept = [], []

    def log(rec):
        live.append([net.flat.tobytes() for net in b.networks])
        kept.append((rec["kept_batch"], math.isnan(rec["kept_return"])))

    b = init_bundle(common_dim=15, seed=4)
    out, curve = ppo_finetune(make_env_factory(), b, cfg, log=log)
    assert len(curve) == 3 and all(np.isnan(c) for c in curve)
    assert kept == [(1, True), (2, True), (3, True)]
    assert live[0] != live[1] == live[2]
    assert [net.flat.tobytes() for net in out.networks] == live[2]


def test_distill_realizable_target_and_zero_epochs():
    b = pi_free_twin(common_dim=9, seed=6)
    # scramble the adaptation so distillation has work to do
    rng = np.random.default_rng(0)
    for w in b.adaptation.weights:
        w += 0.1 * rng.normal(size=w.shape)
    ds = synthetic_dataset(n_episodes=12, ep_len=40, seed=3)
    cfg = TrainConfig(bc_batch=128, bc_lr=0.003, seed=0)

    before = [w.copy() for w in b.adaptation.weights]
    _, m0 = distill_adaptation(ds, b, cfg, epochs=0)
    for w0, w1 in zip(before, b.adaptation.weights):
        assert w0.tobytes() == w1.tobytes()
    assert m0["train_mse"] == []

    _, m = distill_adaptation(ds, b, cfg, epochs=120)
    assert m["heldout_mse"] < m0["heldout_mse"]
    assert m["heldout_mse"] < 0.05 * m["heldout_z_variance"]
    assert m["action_agreement"] >= 0.95
