"""Phase-2 distillation: train the adaptation network to reproduce the
frozen encoder's latent from common observations alone."""

import numpy as np

from .config import TrainConfig
from .bc import EVAL_CHUNK, encode, episode_split, regress
from .nets import ModelBundle, forward_cached


def _agreement(bundle: ModelBundle, commons, z_true, z_pred) -> float:
    """Rate at which the policy's argmax action under z_pred matches the
    one under z_true.  Each chunk's first argmax is taken before the second
    forward, which may overwrite the first's logits."""
    hits = 0
    for s in range(0, len(commons), EVAL_CHUNK):
        c = commons[s:s + EVAL_CHUNK]
        actions = []
        for z in (z_true, z_pred):
            logits, _ = forward_cached(
                bundle.policy,
                np.concatenate([c, z[s:s + EVAL_CHUNK]], axis=1))
            actions.append(np.argmax(logits, axis=1))
        hits += int((actions[0] == actions[1]).sum())
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
    xc, xp, _ = dataset.rows_of(train_eps)
    vc, vp, _ = dataset.rows_of(val_eps)
    if len(xc) == 0 or len(vc) == 0:
        raise ValueError("a split has no transitions")
    zt = encode(bundle, xc, xp)
    vzt = encode(bundle, vc, vp)

    train_curve = list(regress(bundle.adaptation, xc, zt, config.bc_lr,
                               config.bc_batch, epochs, rng))
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
