"""Phase-2 distillation: train the adaptation network to reproduce the
frozen encoder's latent from common observations alone."""

import numpy as np

from .config import TrainConfig
from .bc import EVAL_CHUNK, encode, episode_split, stack
from .nets import AdamState, ModelBundle, adam_step, backward, forward_cached


def _agreement(bundle: ModelBundle, commons, z_true, z_pred) -> float:
    hits = 0
    for s in range(0, len(commons), EVAL_CHUNK):
        c = commons[s:s + EVAL_CHUNK]
        lt, _ = forward_cached(bundle.policy,
                               np.concatenate([c, z_true[s:s + EVAL_CHUNK]],
                                              axis=1))
        lp, _ = forward_cached(bundle.policy,
                               np.concatenate([c, z_pred[s:s + EVAL_CHUNK]],
                                              axis=1))
        hits += int((np.argmax(lt, axis=1) == np.argmax(lp, axis=1)).sum())
    return hits / len(commons)


def distill_adaptation(dataset, bundle: ModelBundle, config: TrainConfig,
                       epochs: int = 20):
    """MSE-regress adaptation(common) onto encoder(common, privileged) over
    the demonstration transitions; encoder and policy stay frozen.

    Returns (adaptation, metrics).  metrics carries the held-out latent MSE,
    the held-out variance of the target latent (the constant-mean predictor's
    error, which the adaptation should beat), and the held-out rate at which
    the policy's argmax action under z' matches the one under z.
    """
    rng = np.random.default_rng(config.seed + 2)
    train_eps, val_eps = episode_split(len(dataset), rng)

    pd = bundle.priv_dim
    xc, xp, _ = stack(dataset, train_eps, True, pd)
    vc, vp, _ = stack(dataset, val_eps, True, pd)
    if len(xc) == 0 or len(vc) == 0:
        raise ValueError("a split has no transitions")
    zt = encode(bundle, xc, xp)
    vzt = encode(bundle, vc, vp)

    ada_state = AdamState.for_network(bundle.adaptation)
    n = len(xc)
    train_curve = []
    for _ in range(epochs):
        order = rng.permutation(n)
        se = 0.0
        for s in range(0, n, config.bc_batch):
            mb = order[s:s + config.bc_batch]
            b = len(mb)
            zp, cache = forward_cached(bundle.adaptation, xc[mb])
            err = zp - zt[mb]
            se += float(np.sum(err ** 2))
            gw, gb, _ = backward(bundle.adaptation, cache, (2.0 / b) * err)
            adam_step(bundle.adaptation, gw, gb, ada_state, config.bc_lr)
        train_curve.append(se / n)
    if not bundle.adaptation.finite():
        raise RuntimeError("non-finite adaptation parameters")

    vzp, _ = forward_cached(bundle.adaptation, vc)
    heldout_mse = float(np.mean(np.sum((vzp - vzt) ** 2, axis=1)))
    z_var = float(np.mean(np.sum((vzt - vzt.mean(axis=0)) ** 2, axis=1)))
    metrics = {
        "train_mse": train_curve,
        "heldout_mse": heldout_mse,
        "heldout_z_variance": z_var,
        "action_agreement": _agreement(bundle, vc, vzt, vzp),
    }
    return bundle.adaptation, metrics
