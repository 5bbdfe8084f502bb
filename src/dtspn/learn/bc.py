"""Behavioral cloning initialization of the policy (with the privileged
encoder in the loop) and MSE initialization of the critic on expert
return-to-go, through the regression loop distillation uses too."""

from typing import Optional

import numpy as np

from .config import TrainConfig
from .nets import (AdamState, ModelBundle, actor_forward, actor_step,
                   forward_rows, log_softmax, squared_error_step)


def episode_split(n_episodes: int, rng: np.random.Generator):
    """90/10 train/validation split by episode index."""
    if n_episodes < 2:
        raise ValueError(f"dataset too small for a 90/10 split: "
                         f"{n_episodes} episodes, need at least 2")
    perm = rng.permutation(n_episodes)
    n_val = max(1, int(round(0.1 * n_episodes)))
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def split_rows(dataset, rng: np.random.Generator):
    """episode_split's training and validation episodes, each as (episode
    indices, commons, privileged, actions) from dataset.rows_of.  Raises
    ValueError if either split has no transitions."""
    splits = [(eps, *dataset.rows_of(eps))
              for eps in episode_split(len(dataset), rng)]
    if any(len(rows[1]) == 0 for rows in splits):
        raise ValueError("a split has no transitions")
    return splits


def return_to_go(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Discounted return from each step to the end of the episode.  The
    loop runs on Python floats, which round as float64 does."""
    rewards = np.asarray(rewards, dtype=np.float64).tolist()
    out = [0.0] * len(rewards)
    g = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        g = rewards[i] + gamma * g
        out[i] = g
    return np.array(out, dtype=np.float64)


def discounted_return(rewards: np.ndarray, gamma: float) -> float:
    """Discounted return of a whole episode; 0 for an empty one."""
    return float(return_to_go(rewards, gamma)[0]) if len(rewards) else 0.0


def regress(net, inputs, targets, lr: float, batch: int, epochs: int,
            rng: np.random.Generator):
    """Fit net to targets (one row per input row) by minibatch squared
    error under its own Adam state, in a fresh rng.permutation order each
    epoch.  Yields each epoch's training squared error per row."""
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    state = AdamState(net)
    n = len(inputs)
    for _ in range(epochs):
        order = rng.permutation(n)
        se = 0.0
        for s in range(0, n, batch):
            mb = order[s:s + batch]
            err = squared_error_step(net, inputs[mb], targets[mb], state, lr)
            se += float(np.sum(err ** 2))
        yield se / n


def _ce_eval(bundle: ModelBundle, commons, privs, actions):
    """Mean cross-entropy and accuracy, computed in chunks."""
    z = forward_rows(bundle.encoder, commons, privs)
    logits = forward_rows(bundle.policy, commons, z)
    n = len(actions)
    loss = -log_softmax(logits)[np.arange(n), actions].sum()
    return loss / n, int((np.argmax(logits, axis=1) == actions).sum()) / n


def bc_pretrain(dataset, bundle: ModelBundle, config: TrainConfig,
                use_privileged: bool = True):
    """Cross-entropy training of encoder + policy on recorded expert actions.
    With use_privileged False the privileged rows are zeroed, which is the
    no-PI ablation.  Returns (bundle, metrics) with per-epoch curves."""
    rng = np.random.default_rng(config.seed)
    (_, xc, xp, y), (_, vc, vp, vy) = split_rows(dataset, rng)
    if not use_privileged:
        xp[...] = vp[...] = 0.0
    n = len(y)

    states = [AdamState(bundle.encoder), AdamState(bundle.policy)]
    metrics = {"train_loss": [], "train_acc": [], "val_loss": [], "val_acc": []}

    for _ in range(config.bc_epochs):
        order = rng.permutation(n)
        ep_loss = 0.0
        ep_correct = 0
        for s in range(0, n, config.bc_batch):
            mb = order[s:s + config.bc_batch]
            c, p, a = xc[mb], xp[mb], y[mb]
            b = len(mb)
            logits, _, caches = actor_forward(bundle, c, p)
            lp = log_softmax(logits)
            probs = np.exp(lp)
            ep_loss -= lp[np.arange(b), a].sum()
            ep_correct += int((np.argmax(logits, axis=1) == a).sum())
            dlogits = probs
            dlogits[np.arange(b), a] -= 1.0
            dlogits /= b
            actor_step(bundle, caches, dlogits, states, config.bc_lr)
        if not (bundle.encoder.finite() and bundle.policy.finite()):
            raise RuntimeError("non-finite parameters during cloning")
        vl, va = _ce_eval(bundle, vc, vp, vy)
        metrics["train_loss"].append(ep_loss / n)
        metrics["train_acc"].append(ep_correct / n)
        metrics["val_loss"].append(vl)
        metrics["val_acc"].append(va)
    return bundle, metrics


def critic_init(dataset, bundle: ModelBundle, config: TrainConfig,
                epochs: Optional[int] = None):
    """Regress the critic onto discounted expert return-to-go with the
    encoder frozen.  Returns (critic, metrics)."""
    if epochs is None:
        epochs = config.bc_epochs
    rng = np.random.default_rng(config.seed + 1)
    (train_eps, xc, xp, _), (val_eps, vc, vp, _) = split_rows(dataset, rng)
    ty, vty = (np.concatenate([return_to_go(dataset[i].rewards, config.gamma)
                               for i in eps]) for eps in (train_eps, val_eps))
    xin = np.concatenate([xc, forward_rows(bundle.encoder, xc, xp)], axis=1)
    vz = forward_rows(bundle.encoder, vc, vp)

    metrics = {"train_mse": [], "val_mse": [],
               "val_target_variance": float(np.var(vty))}
    for mse in regress(bundle.critic, xin, ty[:, None], config.ppo_critic_lr,
                       config.bc_batch, epochs, rng):
        vv = forward_rows(bundle.critic, vc, vz)
        metrics["train_mse"].append(mse)
        metrics["val_mse"].append(float(np.mean((vv[:, 0] - vty) ** 2)))
    if not bundle.critic.finite():
        raise RuntimeError("non-finite critic parameters")
    return bundle.critic, metrics
