"""Phase-2 distillation: train the adaptation network to reproduce the
frozen encoder's latent from common observations alone."""

import numpy as np

from .config import TrainConfig
from .bc import regress, split_rows
from .nets import ModelBundle, forward_rows, working_copy

DEFAULT_EPOCHS = 20


def _agreement(bundle: ModelBundle, commons, z_true, z_pred) -> float:
    """Rate at which the policy's argmax action under z_pred matches the
    one under z_true."""
    true, pred = (np.argmax(forward_rows(bundle.policy, commons, z), axis=1)
                  for z in (z_true, z_pred))
    return int((true == pred).sum()) / len(commons)


def distill_adaptation(dataset, bundle: ModelBundle, config: TrainConfig,
                       epochs: int = DEFAULT_EPOCHS):
    """MSE-regress adaptation(common) onto encoder(common, privileged) over
    the demonstration transitions, on a working_copy of bundle; encoder and
    policy stay frozen.

    Returns (adaptation, metrics).  metrics carries the held-out latent MSE,
    the held-out variance of the target latent (the constant-mean predictor's
    error, which the adaptation should beat), and the held-out rate at which
    the policy's argmax action under z' matches the one under z.
    """
    rng = np.random.default_rng(config.seed + 2)
    (_, xc, xp, _), (_, vc, vp, _) = split_rows(dataset, rng)
    with working_copy(bundle, ("adaptation",),
                      xc, xp, vc, vp) as (work, xc, xp, vc, vp):
        zt = forward_rows(work.encoder, xc, xp)
        vzt = forward_rows(work.encoder, vc, vp)
        train_curve = list(regress(work.adaptation, (xc,), zt, config.bc_lr,
                                   config.bc_batch, epochs, rng))
        if not work.adaptation.finite():
            raise RuntimeError("non-finite adaptation parameters")

        vzp = forward_rows(work.adaptation, vc)
        heldout_mse = float(np.mean(np.sum((vzp - vzt) ** 2, axis=1)))
        z_var = float(np.mean(np.sum((vzt - vzt.mean(axis=0)) ** 2, axis=1)))
        agreement = _agreement(work, vc, vzt, vzp)
    metrics = {
        "train_mse": train_curve,
        "heldout_mse": heldout_mse,
        "heldout_z_variance": z_var,
        "action_agreement": agreement,
    }
    return bundle.adaptation, metrics
