"""Behavioral cloning initialization of the policy (with the privileged
encoder in the loop) and MSE initialization of the critic on expert
return-to-go."""

from typing import Optional

import numpy as np

from .config import TrainConfig
from .nets import (AdamState, ModelBundle, adam_step, backward, forward_cached,
                   log_softmax)

EVAL_CHUNK = 8192


def episode_split(n_episodes: int, rng: np.random.Generator):
    """90/10 train/validation split by episode index."""
    if n_episodes < 2:
        raise ValueError(f"dataset too small for a 90/10 split: "
                         f"{n_episodes} episodes, need at least 2")
    perm = rng.permutation(n_episodes)
    n_val = max(1, int(round(0.1 * n_episodes)))
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def stack(dataset, idxs, use_privileged: bool, priv_dim: int):
    """Transitions of the given episodes as (commons, privileged, actions)
    rows; without use_privileged the privileged block is zeros."""
    commons = np.vstack([dataset[i].commons for i in idxs])
    if use_privileged:
        privs = np.vstack([dataset[i].privileged for i in idxs])
    else:
        privs = np.zeros((len(commons), priv_dim))
    actions = np.concatenate([dataset[i].actions for i in idxs]).astype(np.int64)
    return commons, privs, actions


def encode(bundle: ModelBundle, commons, privs) -> np.ndarray:
    """Encoder latents of many rows, computed in chunks."""
    out = np.empty((len(commons), bundle.z_dim))
    for s in range(0, len(commons), EVAL_CHUNK):
        out[s:s + EVAL_CHUNK], _ = forward_cached(
            bundle.encoder,
            np.concatenate([commons[s:s + EVAL_CHUNK], privs[s:s + EVAL_CHUNK]],
                           axis=1))
    return out


def return_to_go(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Discounted return from each step to the end of the episode."""
    out = np.empty(len(rewards))
    g = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        g = rewards[i] + gamma * g
        out[i] = g
    return out


def discounted_return(rewards: np.ndarray, gamma: float) -> float:
    """Discounted return of a whole episode; 0 for an empty one."""
    return float(return_to_go(rewards, gamma)[0]) if len(rewards) else 0.0


def _policy_forward(bundle: ModelBundle, commons, privs):
    z, enc_cache = forward_cached(bundle.encoder,
                                  np.concatenate([commons, privs], axis=1))
    logits, pol_cache = forward_cached(bundle.policy,
                                       np.concatenate([commons, z], axis=1))
    return z, enc_cache, logits, pol_cache


def _ce_eval(bundle: ModelBundle, commons, privs, actions):
    """Mean cross-entropy and accuracy, computed in chunks."""
    n = len(actions)
    if n == 0:
        return float("nan"), float("nan")
    loss = 0.0
    correct = 0
    for s in range(0, n, EVAL_CHUNK):
        c, p, a = commons[s:s + EVAL_CHUNK], privs[s:s + EVAL_CHUNK], \
            actions[s:s + EVAL_CHUNK]
        _, _, logits, _ = _policy_forward(bundle, c, p)
        lp = log_softmax(logits)
        loss -= lp[np.arange(len(a)), a].sum()
        correct += int((np.argmax(logits, axis=1) == a).sum())
    return loss / n, correct / n


def bc_pretrain(dataset, bundle: ModelBundle, config: TrainConfig,
                use_privileged: bool = True):
    """Cross-entropy training of encoder + policy on recorded expert actions.
    With use_privileged False the privileged block is zeroed, which is the
    no-PI ablation.  Returns (bundle, metrics) with per-epoch curves."""
    rng = np.random.default_rng(config.seed)
    train_eps, val_eps = episode_split(len(dataset), rng)
    pd = bundle.priv_dim
    xc, xp, y = stack(dataset, train_eps, use_privileged, pd)
    vc, vp, vy = stack(dataset, val_eps, use_privileged, pd)
    n = len(y)
    if n == 0:
        raise ValueError("training split has no transitions")

    enc_state = AdamState.for_network(bundle.encoder)
    pol_state = AdamState.for_network(bundle.policy)
    metrics = {"train_loss": [], "train_acc": [], "val_loss": [], "val_acc": []}

    for _ in range(config.bc_epochs):
        order = rng.permutation(n)
        ep_loss = 0.0
        ep_correct = 0
        for s in range(0, n, config.bc_batch):
            mb = order[s:s + config.bc_batch]
            c, p, a = xc[mb], xp[mb], y[mb]
            b = len(mb)
            z, enc_cache, logits, pol_cache = _policy_forward(bundle, c, p)
            lp = log_softmax(logits)
            probs = np.exp(lp)
            ep_loss -= lp[np.arange(b), a].sum()
            ep_correct += int((np.argmax(logits, axis=1) == a).sum())
            dlogits = probs
            dlogits[np.arange(b), a] -= 1.0
            dlogits /= b
            gw_p, gb_p, gin = backward(bundle.policy, pol_cache, dlogits)
            gw_e, gb_e, _ = backward(bundle.encoder, enc_cache,
                                     gin[:, bundle.common_dim:])
            adam_step(bundle.policy, gw_p, gb_p, pol_state, config.bc_lr)
            adam_step(bundle.encoder, gw_e, gb_e, enc_state, config.bc_lr)
        if not (bundle.encoder.finite() and bundle.policy.finite()):
            raise RuntimeError("non-finite parameters during cloning")
        vl, va = _ce_eval(bundle, vc, vp, vy)
        metrics["train_loss"].append(ep_loss / n)
        metrics["train_acc"].append(ep_correct / n)
        metrics["val_loss"].append(vl)
        metrics["val_acc"].append(va)
    return bundle, metrics


def critic_init(dataset, bundle: ModelBundle, config: TrainConfig,
                use_privileged: bool = True, epochs: Optional[int] = None):
    """Regress the critic onto discounted expert return-to-go with the
    encoder frozen.  Returns (critic, metrics)."""
    if epochs is None:
        epochs = config.bc_epochs
    rng = np.random.default_rng(config.seed + 1)
    train_eps, val_eps = episode_split(len(dataset), rng)
    pd = bundle.priv_dim

    def targets(idxs):
        return np.concatenate(
            [return_to_go(dataset[i].rewards, config.gamma) for i in idxs])

    xc, xp, _ = stack(dataset, train_eps, use_privileged, pd)
    vc, vp, _ = stack(dataset, val_eps, use_privileged, pd)
    ty, vty = targets(train_eps), targets(val_eps)
    n = len(ty)
    if n == 0:
        raise ValueError("training split has no transitions")

    xin = np.concatenate([xc, encode(bundle, xc, xp)], axis=1)
    vin = np.concatenate([vc, encode(bundle, vc, vp)], axis=1)

    cri_state = AdamState.for_network(bundle.critic)
    metrics = {"train_mse": [], "val_mse": [],
               "val_target_variance": float(np.var(vty))}
    for _ in range(epochs):
        order = rng.permutation(n)
        ep_se = 0.0
        for s in range(0, n, config.bc_batch):
            mb = order[s:s + config.bc_batch]
            b = len(mb)
            v, cache = forward_cached(bundle.critic, xin[mb])
            err = v[:, 0] - ty[mb]
            ep_se += float(np.sum(err ** 2))
            gw, gb, _ = backward(bundle.critic, cache,
                                 (2.0 / b) * err[:, None])
            adam_step(bundle.critic, gw, gb, cri_state, config.ppo_critic_lr)
        vv, _ = forward_cached(bundle.critic, vin)
        metrics["train_mse"].append(ep_se / n)
        metrics["val_mse"].append(float(np.mean((vv[:, 0] - vty) ** 2)))
    if not bundle.critic.finite():
        raise RuntimeError("non-finite critic parameters")
    return bundle.critic, metrics
