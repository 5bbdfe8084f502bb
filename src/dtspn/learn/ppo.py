"""Clipped-surrogate policy-gradient fine-tuning with generalized advantage
estimation.  The encoder and policy share the actor optimizer; the critic
trains on its own with the latent treated as a constant input.  Rollouts
step several envs in lockstep through one EnvBatch, with one forward of
each network over all of them per step."""

import math
import time

import numpy as np

from ..env import EnvBatch
from .config import TrainConfig
from .nets import (AdamState, ModelBundle, actor_forward, actor_step,
                   forward_cached, log_softmax, sample_categorical,
                   squared_error_step)

# Envs rolled in lockstep.  On a 2-core x86-64 machine one forward of the
# three networks plus the action draw costs 110-130 us for one env and
# 19-20, 11-12 and 9-12 us per env at 8, 16 and 32 envs.
ROLLOUT_ENVS = 16


def compute_gae(rewards, values, dones, last_value, gamma, lam):
    """Advantages and value targets over one rollout segment, time along
    the first axis (one column per env if 2-D).  dones marks true episode
    ends (no bootstrap across them); last_value bootstraps each truncated
    tail."""
    adv = np.empty(np.shape(rewards))
    g = 0.0
    next_v = last_value
    for t in range(len(rewards) - 1, -1, -1):
        nonterm = 1.0 - np.asarray(dones[t], dtype=float)
        delta = rewards[t] + gamma * next_v * nonterm - values[t]
        g = delta + gamma * lam * nonterm * g
        adv[t] = g
        next_v = values[t]
    return adv, adv + values


def clipped_surrogate(ratio, adv, clip):
    """Per-sample clipped objective min(r*A, clip(r)*A) and its derivative
    with respect to log-prob.  The derivative is zero exactly where the
    clipped branch is active, which is what bounds each sample's
    contribution to [1-clip, 1+clip] times its advantage."""
    clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip)
    raw = ratio * adv
    obj = np.minimum(raw, clipped * adv)
    dobj_dlogp = np.where(raw <= clipped * adv, raw, 0.0)
    return obj, dobj_dlogp


def ppo_finetune(env_factory, bundle: ModelBundle, config: TrainConfig,
                 use_privileged: bool = True, log=None):
    """Train encoder + policy + critic on-policy until steps_budget env steps.

    env_factory() must return a fresh env each call, in train mode
    (another mode raises ValueError), so episodes carry expert paths and
    the shaped reward.  gcd(ROLLOUT_ENVS, rollout_steps) envs roll in
    lockstep, so every batch is exactly rollout_steps env steps; a slot
    whose episode ends takes the next env from env_factory.  The curve
    holds the mean completed-episode reward of each rollout batch,
    measured under the parameters that collected it.  Every batch but
    the last is followed by an update; after the last rollout an update
    would feed no batch and reach no caller, so none runs.  The returned
    bundle holds the parameters that collected the batch with the best
    curve entry or, if no batch ended an episode, the last batch.

    log, if given, is called once per batch with a dict: batch, env_steps,
    avg_reward, approx_kl, clip_frac, entropy, value_loss (means over the
    update's minibatches), explained_var (of the rollout's value targets by
    its values), rollout_s, update_s, steps_per_s (env steps per second
    of rollout and update), and kept_batch and kept_return: the batch
    whose parameters the run would return if it ended there, and its curve
    entry.  So the last record names the batch returned.  The last batch's
    record has update_s 0.0 and the four update means nan.
    """
    rng = np.random.default_rng(config.seed)
    cd, pd = bundle.common_dim, bundle.priv_dim
    n_env = math.gcd(ROLLOUT_ENVS, config.rollout_steps)
    t_len = config.rollout_steps // n_env
    actor_states = [AdamState(bundle.encoder), AdamState(bundle.policy)]
    cri_state = AdamState(bundle.critic)

    best = bundle.copy()
    best_reward, best_batch = -np.inf, 0
    curve = []
    steps_done = 0
    envs = EnvBatch(env_factory() for _ in range(n_env))
    if envs.mode != "train":
        raise ValueError(f"PPO needs train-mode envs, got mode {envs.mode!r}")
    envs.reset()
    ep_acc = np.zeros(n_env)
    rows = np.arange(n_env)
    no_priv = np.zeros((n_env, pd))

    def refill(ended):
        for i in ended:
            for _ in range(1000):
                envs.load(i, env_factory())
                envs.reset(np.array([i]))
                if not envs.done[i]:
                    break
            else:
                raise RuntimeError(
                    "env factory produced 1000 pre-finished episodes")

    def observed():
        return envs.common, envs.privileged if use_privileged else no_priv

    def update(commons, privs, actions, logp_old, adv, rets):
        """One batch's epochs of minibatch steps.  Returns the means over
        its minibatches of approx_kl, clip_frac, entropy and value_loss."""
        n = len(actions)
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        idx = np.arange(n)
        stats = np.zeros(4)
        n_mb = 0
        for _ in range(config.epochs_per_batch):
            rng.shuffle(idx)
            for s in range(0, n, config.minibatch):
                mb = idx[s:s + config.minibatch]
                b = len(mb)
                logits, x, caches = actor_forward(bundle, commons[mb],
                                                  privs[mb])
                err = squared_error_step(bundle.critic, (x,),
                                         rets[mb][:, None], cri_state,
                                         config.ppo_critic_lr)
                lsm = log_softmax(logits)
                probs = np.exp(lsm)
                lp = lsm[np.arange(b), actions[mb]]
                log_ratio = lp - logp_old[mb]
                ratio = np.exp(log_ratio)
                _, dobj = clipped_surrogate(ratio, adv[mb], config.ppo_clip)
                dlp = -dobj / b
                dlogits = dlp[:, None] * (-probs)
                dlogits[np.arange(b), actions[mb]] += dlp
                ent = -(probs * lsm).sum(axis=1, keepdims=True)
                if config.entropy_coef != 0.0:
                    dlogits += ((config.entropy_coef / b) * probs *
                                (lsm + ent))
                actor_step(bundle, caches, dlogits, actor_states,
                           config.ppo_actor_lr)
                stats += (np.mean(ratio - 1.0 - log_ratio),
                          np.mean(np.abs(ratio - 1.0) > config.ppo_clip),
                          ent.mean(), np.mean(err * err))
                n_mb += 1
        return stats / n_mb

    refill(np.flatnonzero(envs.done))
    while steps_done < config.steps_budget:
        t0 = time.perf_counter()
        commons = np.empty((t_len, n_env, cd))
        privs = np.empty((t_len, n_env, pd))
        actions = np.empty((t_len, n_env), dtype=np.int64)
        rewards = np.empty((t_len, n_env))
        dones = np.empty((t_len, n_env), dtype=bool)
        values = np.empty((t_len, n_env))
        logp_old = np.empty((t_len, n_env))
        ep_returns = []

        for t in range(t_len):
            c, p = observed()
            logits, x, _ = actor_forward(bundle, c, p)
            lsm = log_softmax(logits)
            a = sample_categorical(np.exp(lsm), rng)
            v, _ = forward_cached(bundle.critic, x)
            rew = envs.step(a)
            commons[t] = c
            privs[t] = p
            actions[t] = a
            rewards[t] = rew.total
            dones[t] = envs.done
            values[t] = v[:, 0]
            logp_old[t] = lsm[rows, a]
            ep_acc += rew.total
            if True in envs.done:
                ended = np.flatnonzero(envs.done)
                ep_returns.extend(ep_acc[ended].tolist())
                ep_acc[ended] = 0.0
                refill(ended)
        steps_done += config.rollout_steps
        x = actor_forward(bundle, *observed())[1]
        last_value = forward_cached(bundle.critic, x)[0][:, 0]
        t1 = time.perf_counter()

        adv, rets = compute_gae(rewards, values, dones, last_value,
                                config.gamma, config.gae_lambda)
        n = config.rollout_steps
        rets = rets.reshape(n)
        var = float(np.var(rets))
        explained_var = (
            1.0 - float(np.var(rets - values.reshape(n))) / var
            if var > 0 else float("nan"))

        avg_reward = (float(np.mean(ep_returns)) if ep_returns
                      else float("nan"))
        curve.append(avg_reward)
        if ep_returns and avg_reward > best_reward:
            best_reward, best_batch = avg_reward, len(curve)
            bundle.copy(out=best)

        # an update after the last rollout would reach no batch and no
        # caller, so its record keeps nan statistics and a zero update time
        stats, t2 = np.full(4, np.nan), t1
        if steps_done < config.steps_budget:
            stats = update(commons.reshape(n, cd), privs.reshape(n, pd),
                           actions.reshape(n), logp_old.reshape(n),
                           adv.reshape(n), rets)
            t2 = time.perf_counter()
        if log is not None:
            approx_kl, clip_frac, entropy, value_loss = stats.tolist()
            kept = best_batch or len(curve)
            log({"batch": len(curve), "env_steps": steps_done,
                 "avg_reward": avg_reward, "approx_kl": approx_kl,
                 "clip_frac": clip_frac, "entropy": entropy,
                 "value_loss": value_loss, "explained_var": explained_var,
                 "rollout_s": t1 - t0, "update_s": t2 - t1,
                 "steps_per_s": n / (t2 - t0), "kept_batch": kept,
                 "kept_return": curve[kept - 1]})
        if not bundle.finite():
            raise RuntimeError(f"divergence after {steps_done} steps "
                               f"(batch {len(curve)}): non-finite parameters")

    if best_batch:
        best.copy(out=bundle)
    return bundle, curve
