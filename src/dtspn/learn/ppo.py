"""Clipped-surrogate policy-gradient fine-tuning with generalized advantage
estimation.  The encoder and policy share the actor optimizer; the critic
trains on its own with the latent treated as a constant input."""

import numpy as np

from .config import TrainConfig
from .nets import (AdamState, ModelBundle, adam_step, backward, forward_cached,
                   log_softmax)


def compute_gae(rewards, values, dones, last_value, gamma, lam):
    """Advantages and value targets over one rollout segment.  dones marks
    true episode ends (no bootstrap across them); last_value bootstraps the
    truncated tail."""
    t_len = len(rewards)
    adv = np.empty(t_len)
    g = 0.0
    next_v = last_value
    for t in range(t_len - 1, -1, -1):
        nonterm = 0.0 if dones[t] else 1.0
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
                 use_privileged: bool = True, critic_warmup_steps: int = 0):
    """Train encoder + policy + critic on-policy until steps_budget env steps.

    env_factory() must return a fresh ready-to-reset env each call (train
    mode, so episodes carry expert paths and the shaped reward).  The curve
    holds the mean completed-episode reward of each rollout batch, measured
    under the parameters that collected it; the returned bundle is the
    checkpoint with the best curve entry.  Actor updates are skipped for the
    first critic_warmup_steps env steps.
    """
    rng = np.random.default_rng(config.seed)
    cd, pd = bundle.common_dim, bundle.priv_dim
    n_act = bundle.n_actions
    enc_state = AdamState.for_network(bundle.encoder)
    pol_state = AdamState.for_network(bundle.policy)
    cri_state = AdamState.for_network(bundle.critic)

    best = bundle.copy()
    best_reward = -np.inf
    curve = []
    env = None
    obs = None
    steps_done = 0

    def fresh_env():
        for _ in range(1000):
            e = env_factory()
            o = e.reset()
            if not e.done:
                return e, o
        raise RuntimeError("env factory produced 1000 pre-finished episodes")

    def priv_of(o):
        if use_privileged and o.privileged is not None:
            return o.privileged
        return np.zeros(pd)

    while steps_done < config.steps_budget:
        r_steps = config.rollout_steps
        commons = np.empty((r_steps, cd))
        privs = np.empty((r_steps, pd))
        actions = np.empty(r_steps, dtype=np.int64)
        rewards = np.empty(r_steps)
        dones = np.zeros(r_steps, dtype=bool)
        values = np.empty(r_steps)
        logp_old = np.empty(r_steps)
        ep_returns = []
        ep_acc = 0.0

        for t in range(r_steps):
            if env is None:
                env, obs = fresh_env()
                ep_acc = 0.0
            c = obs.common
            p = priv_of(obs)
            z, _ = forward_cached(bundle.encoder,
                                  np.concatenate([c, p])[None, :])
            x = np.concatenate([c, z[0]])[None, :]
            logits, _ = forward_cached(bundle.policy, x)
            lp = log_softmax(logits[0])
            a = int(rng.choice(n_act, p=np.exp(lp)))
            v, _ = forward_cached(bundle.critic, x)
            obs2, rew, done, _ = env.step(a)
            commons[t] = c
            privs[t] = p
            actions[t] = a
            rewards[t] = rew.total
            dones[t] = done
            values[t] = v[0, 0]
            logp_old[t] = lp[a]
            ep_acc += rew.total
            if done:
                ep_returns.append(ep_acc)
                env = None
            else:
                obs = obs2
        steps_done += r_steps

        if env is None:
            last_value = 0.0
        else:
            c = obs.common
            p = priv_of(obs)
            z, _ = forward_cached(bundle.encoder,
                                  np.concatenate([c, p])[None, :])
            lv, _ = forward_cached(bundle.critic,
                                   np.concatenate([c, z[0]])[None, :])
            last_value = float(lv[0, 0])

        adv, rets = compute_gae(rewards, values, dones, last_value,
                                config.gamma, config.gae_lambda)
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)

        avg_reward = float(np.mean(ep_returns)) if ep_returns else float("nan")
        curve.append(avg_reward)
        if ep_returns and avg_reward > best_reward:
            best_reward = avg_reward
            bundle.copy(out=best)

        actor_on = steps_done > critic_warmup_steps
        idx = np.arange(r_steps)
        for _ in range(config.epochs_per_batch):
            rng.shuffle(idx)
            for s in range(0, r_steps, config.minibatch):
                mb = idx[s:s + config.minibatch]
                b = len(mb)
                c, p = commons[mb], privs[mb]
                z, enc_cache = forward_cached(
                    bundle.encoder, np.concatenate([c, p], axis=1))
                x = np.concatenate([c, z], axis=1)
                logits, pol_cache = forward_cached(bundle.policy, x)
                lsm = log_softmax(logits)
                probs = np.exp(lsm)
                lp = lsm[np.arange(b), actions[mb]]
                ratio = np.exp(lp - logp_old[mb])
                _, dobj = clipped_surrogate(ratio, adv[mb], config.ppo_clip)
                dlp = -dobj / b
                dlogits = dlp[:, None] * (-probs)
                dlogits[np.arange(b), actions[mb]] += dlp
                if config.entropy_coef != 0.0:
                    ent = -(probs * lsm).sum(axis=1, keepdims=True)
                    dlogits += (config.entropy_coef / b) * probs * (lsm + ent)
                gw_p, gb_p, gin = backward(bundle.policy, pol_cache, dlogits)
                gw_e, gb_e, _ = backward(bundle.encoder, enc_cache,
                                         gin[:, cd:])
                v, cri_cache = forward_cached(bundle.critic, x)
                gw_c, gb_c, _ = backward(
                    bundle.critic, cri_cache,
                    (2.0 / b) * (v[:, 0] - rets[mb])[:, None])
                if actor_on:
                    adam_step(bundle.policy, gw_p, gb_p, pol_state,
                              config.ppo_actor_lr)
                    adam_step(bundle.encoder, gw_e, gb_e, enc_state,
                              config.ppo_actor_lr)
                adam_step(bundle.critic, gw_c, gb_c, cri_state,
                          config.ppo_critic_lr)
        if not bundle.finite():
            raise RuntimeError(
                f"divergence after {steps_done} steps "
                f"(batch {len(curve)}): non-finite parameters")

    if best_reward > -np.inf:
        best.copy(out=bundle)
    return bundle, curve
