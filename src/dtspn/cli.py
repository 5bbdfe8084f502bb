"""Command-line front end.  One subcommand per pipeline stage; every stage
prints a single machine-readable `key=value` summary line on success.

Exit codes: 0 success, 1 validation error (bad flags, missing or malformed
files, dimension mismatches), 2 runtime failure (tracking/planning/training
blowups)."""

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import time
from typing import Optional

import numpy as np

from . import expert as expert_mod
from . import instance as instance_mod
from .demos import DemoMeta, collect_batch, load_dataset, save_dataset
from .env import EnvConfig
from .evaluate import (benchmark_speed, check_bundle, evaluate,
                       save_episode_csv)
from .learn import (TrainConfig, bc_pretrain, critic_init,
                    distill_adaptation, init_bundle, load_bundle,
                    ppo_finetune, save_bundle)
from .learn.distill import DEFAULT_EPOCHS
from .svg import emit_trajectory_svg

_ENV_FIELDS = {f.name: f.type for f in dataclasses.fields(EnvConfig)}
_TRAIN_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
# config fields that a run sets elsewhere, and where
_SET_ELSEWHERE = {"seed": "--seed", "steps_budget": "--steps",
                  "turn_radius": "the instances (--turn or the --instance "
                                 "file)"}
# the JSON values each field type accepts; bool is an int subclass, so
# true and false are told apart from numbers separately
_JSON_TYPES = {bool: bool, int: int, float: (int, float)}


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _summary(stage: str, **kv) -> None:
    parts = [f"stage={stage}"] + [f"{k}={_fmt(v)}" for k, v in kv.items()]
    print(" ".join(parts))


def _last(curve) -> float:
    """The last entry of a per-epoch or per-batch curve, nan if none ran."""
    return curve[-1] if curve else float("nan")


def _load_config(path: Optional[str]):
    """Split a flat JSON dict into env-config and train-config overrides.
    Unknown keys, keys set elsewhere (_SET_ELSEWHERE) and values whose JSON
    type does not match their field (integers for int fields, numbers for
    float fields, true or false for bool fields) are validation errors
    naming the offending key."""
    if path is None:
        return {}, {}
    with open(path) as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must hold a JSON object, "
                         f"got {type(raw).__name__}")
    env_kw, train_kw = {}, {}
    for key, val in raw.items():
        if key in _SET_ELSEWHERE:
            raise ValueError(f"config {path}: '{key}' is set by "
                             f"{_SET_ELSEWHERE[key]}, not the config file")
        kind = _ENV_FIELDS.get(key) or _TRAIN_FIELDS.get(key)
        if kind is None:
            raise ValueError(f"config {path}: unknown key '{key}'")
        if isinstance(val, bool) != (kind is bool) or \
                not isinstance(val, _JSON_TYPES[kind]):
            raise ValueError(f"config {path}: '{key}' must be "
                             f"{kind.__name__}, got {json.dumps(val)}")
        (env_kw if key in _ENV_FIELDS else train_kw)[key] = val
    return env_kw, train_kw


@contextlib.contextmanager
def _json_lines(path: Optional[str]):
    """A callable writing each dict it gets to path as one JSON line (nan
    and infinities as null), or None without a path."""
    if path is None:
        yield None
        return
    with open(path, "w") as f:
        def write(record: dict) -> None:
            clean = {k: v if not isinstance(v, float) or math.isfinite(v)
                     else None for k, v in record.items()}
            f.write(json.dumps(clean, allow_nan=False) + "\n")
            f.flush()
        yield write


def _log_epochs(log, phase: str, metrics: dict, keys) -> None:
    """One JSON line per epoch of the per-epoch curves metrics[key]."""
    if log is not None:
        for epoch, values in enumerate(zip(*(metrics[k] for k in keys)), 1):
            log({"phase": phase, "epoch": epoch, **dict(zip(keys, values))})


def _family(args, count: int = 0):
    """The stage's instance family and count of its instances generated
    from --seed on, or the --instance file's one instance and family (which
    excludes the generation flags).  The family runs under the env config
    for its turning radius with the --config file's env keys, and plans
    with --pos and --heads."""
    if getattr(args, "episodes", 1) < 1:
        raise ValueError(f"--episodes must be >= 1, got {args.episodes}")
    x = None
    tasks, (w, h), sense, turn = args.tasks, args.map, args.sense, args.turn
    if getattr(args, "instance", None) is not None:
        clash = [f"--{f}" for f in sorted(getattr(args, "given", ()))
                 if f != "episodes" or args.episodes != 1]
        if clash:
            raise ValueError(f"--instance excludes {', '.join(clash)}")
        x = instance_mod.load(args.instance)
        tasks, w, h = x.n_tasks, x.map_width, x.map_height
        sense, turn = x.r_sense, x.turn_radius
    config = EnvConfig(turn_radius=turn, **args.env_kw)
    meta = DemoMeta(tasks, w, h, sense, config, args.pos, args.heads)
    if x is not None:
        return meta, [x]
    return meta, [meta.instance_for(args.seed + i) for i in range(count)]


def cmd_gen(args) -> int:
    inst = instance_mod.generate(args.tasks, args.seed,
                                 map_size=tuple(args.map),
                                 r_sense=args.sense, turn_radius=args.turn)
    instance_mod.save(inst, args.out)
    _summary("gen", tasks=inst.n_tasks, seed=inst.seed, out=args.out)
    return 0


def cmd_expert(args) -> int:
    meta, (inst,) = _family(args, 1)
    path = meta.expert_path(inst)
    expert_mod.save(path, args.out)
    _summary("expert", tasks=inst.n_tasks, length=path.total_length,
             waypoints=len(path.waypoints), solve_s=path.solve_time,
             out=args.out)
    return 0


def cmd_demos(args) -> int:
    meta, _ = _family(args)
    dataset, report = collect_batch(meta, args.demos, args.seed)
    save_dataset(dataset, args.out)
    _summary("demos", accepted=report["accepted"],
             attempted=report["attempted"],
             accept_rate=report["accept_rate"], out=args.out)
    return 0


def _dataset(args):
    """The --data dataset.  Training runs under the env config it was
    collected with, so an env key of --config must repeat its value."""
    dataset = load_dataset(args.data)
    for key, val in args.env_kw.items():
        have = getattr(dataset.meta.config, key)
        if val != have:
            raise ValueError(f"config {args.config}: '{key}' is "
                             f"{json.dumps(val)}, but --data {args.data} "
                             f"was collected with {json.dumps(have)}")
    return dataset


def cmd_train_bc(args) -> int:
    tc = TrainConfig(seed=args.seed, **args.train_kw)
    dataset = _dataset(args)
    meta = dataset.meta
    bundle = init_bundle(meta.common_dim, meta.priv_dim,
                         n_actions=meta.config.n_actions, seed=tc.seed)
    with _json_lines(args.log) as log:
        _, metrics = bc_pretrain(dataset, bundle, tc)
        _log_epochs(log, "bc", metrics,
                    ("train_loss", "train_acc", "val_loss", "val_acc"))
        _, critic = critic_init(dataset, bundle, tc)
        _log_epochs(log, "critic", critic, ("train_mse", "val_mse"))
    save_bundle(bundle, args.out)
    _summary("train-bc", demos=len(dataset), epochs=tc.bc_epochs,
             val_acc=_last(metrics["val_acc"]),
             val_loss=_last(metrics["val_loss"]),
             critic_val_mse=_last(critic["val_mse"]), out=args.out)
    return 0


def cmd_train_ppo(args) -> int:
    if args.dense == (args.ckpt is not None):
        raise ValueError("--dense excludes --ckpt" if args.dense else
                         "train-ppo requires --ckpt PATH (or --dense for a "
                         "from-scratch baseline)")
    tc = TrainConfig(seed=args.seed, steps_budget=args.steps, **args.train_kw)
    meta, _ = _family(args)
    if args.pool < 1:
        raise ValueError(f"--pool must be >= 1, got {args.pool}")
    if args.dense:
        bundle = init_bundle(meta.common_dim, n_actions=meta.config.n_actions,
                             seed=tc.seed)
    else:
        bundle = load_bundle(args.ckpt)
        check_bundle(bundle, meta.n_tasks, meta.config)
    env_factory = meta.train_envs(args.seed, args.pool)
    t0 = time.perf_counter()
    with _json_lines(args.log) as log:
        _, curve = ppo_finetune(env_factory, bundle, tc,
                                use_privileged=not args.dense,
                                critic_warmup_steps=args.warmup, log=log)
    save_bundle(bundle, args.out)
    finite = [c for c in curve if np.isfinite(c)]
    _summary("train-ppo", steps=len(curve) * tc.rollout_steps, pool=args.pool,
             best_avg_return=max(finite) if finite else float("nan"),
             last_avg_return=_last(curve),
             wall_s=time.perf_counter() - t0,
             out=args.out)
    return 0


def cmd_distill(args) -> int:
    tc = TrainConfig(seed=args.seed, **args.train_kw)
    dataset = _dataset(args)
    bundle = load_bundle(args.ckpt)
    check_bundle(bundle, dataset.meta.n_tasks, dataset.meta.config,
                 "demonstrations")
    with _json_lines(args.log) as log:
        _, metrics = distill_adaptation(dataset, bundle, tc,
                                        epochs=args.epochs)
        _log_epochs(log, "distill", metrics, ("train_mse",))
        if log is not None:
            log({"phase": "heldout", **{k: metrics[k] for k in (
                "heldout_mse", "heldout_z_variance", "action_agreement")}})
    save_bundle(bundle, args.out)
    _summary("distill", epochs=args.epochs,
             heldout_mse=metrics["heldout_mse"],
             heldout_z_variance=metrics["heldout_z_variance"],
             action_agreement=metrics["action_agreement"], out=args.out)
    return 0


def _policy(args):
    """The --ckpt bundle, or "expert" without one.  --expert excludes --ckpt
    and --pi-eval, and --pi-eval needs --ckpt."""
    clash = [flag for flag, given in (("--ckpt", args.ckpt is not None),
                                      ("--pi-eval", args.pi_eval)) if given]
    if args.expert and clash:
        raise ValueError(f"--expert excludes {', '.join(clash)}")
    if args.pi_eval and args.ckpt is None:
        raise ValueError("--pi-eval requires --ckpt")
    return "expert" if args.ckpt is None else load_bundle(args.ckpt)


def cmd_eval(args) -> int:
    meta, instances = _family(args, args.episodes)
    policy = _policy(args)
    if args.ckpt is None and not args.expert:
        raise ValueError("eval requires --ckpt PATH or --expert")
    metrics, records = evaluate(policy, instances, meta, args.pi_eval)
    if args.log is not None:
        with _json_lines(args.log) as log:
            for x, rec in zip(instances, records):
                log({"seed": x.seed, "steps": len(rec),
                     "n_sensed": rec.n_sensed, "reward": rec.total_reward(),
                     "wall_time": rec.wall_time})
    kv = dict(episodes=metrics.episodes, sensing_rate=metrics.sensing_rate,
              avg_reward=metrics.avg_reward, avg_return=metrics.avg_return)
    if metrics.mean_time is not None:
        kv["mean_time"] = metrics.mean_time
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        for i, rec in enumerate(records):
            save_episode_csv(rec, os.path.join(args.out,
                                               f"episode_{i:04d}.csv"))
        with open(os.path.join(args.out, "metrics.json"), "w") as f:
            json.dump(kv, f, indent=1, sort_keys=True)
            f.write("\n")
        kv["out"] = args.out
    _summary("eval", **kv)
    return 0


def cmd_bench(args) -> int:
    meta, instances = _family(args, args.episodes)
    report = benchmark_speed(instances, load_bundle(args.ckpt), meta)
    _summary("bench", instances=report["instances"],
             expert_median_s=report["expert_median_s"],
             policy_median_s=report["policy_median_s"],
             ratio=report["ratio"])
    return 0


def cmd_plot(args) -> int:
    meta, (inst,) = _family(args, 1)
    (record,) = evaluate(_policy(args), [inst], meta, args.pi_eval)[1]
    # the dashed overlay, planned here only for a PI-free checkpoint episode
    epath = record.expert_path or meta.expert_path(inst)
    emit_trajectory_svg(record, inst, expert_path=epath, path=args.out)
    _summary("plot", steps=len(record), sensed=record.n_sensed,
             tasks=inst.n_tasks, out=args.out)
    return 0


class _Given(argparse.Action):
    """Store, noting the flag in the namespace's given set."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", set()) | {self.dest}


def _add_generation(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tasks", type=int, default=20, action=_Given)
    p.add_argument("--map", nargs=2, type=float,
                   default=instance_mod.DEFAULT_MAP, metavar=("W", "H"),
                   action=_Given)
    p.add_argument("--sense", type=float, default=instance_mod.DEFAULT_SENSE,
                   metavar="R", action=_Given)
    p.add_argument("--turn", type=float, default=instance_mod.DEFAULT_TURN,
                   metavar="RHO", action=_Given,
                   help="turning radius of generated instances, which the "
                        "env takes too")


def _add_sampling(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pos", type=int, default=expert_mod.DEFAULT_POS,
                   help="candidate positions per sensing circle")
    p.add_argument("--heads", type=int, default=expert_mod.DEFAULT_HEADS,
                   help="candidate headings per position")


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, metavar="PATH",
                   help="JSON object of EnvConfig and TrainConfig fields, "
                        "except seed (--seed), steps_budget (--steps) and "
                        "turn_radius (from the instances)")


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=str, required=True, metavar="PATH")


def _add_instance(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", type=str, default=None, metavar="PATH",
                   help="use this instance file, and its turning radius, "
                        "instead of generating one; excludes --tasks, "
                        "--map, --sense and --turn")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtspn",
        description="Dubins multi-point sensing: expert planner, simulator, "
                    "demonstration pipeline, and learned controller.")
    sub = parser.add_subparsers(dest="stage", required=True)

    def stage(name, func, help, *groups):
        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=int, default=0)
        for add in groups:
            add(p)
        p.set_defaults(func=func, config=None)    # gen takes no --config
        return p

    env = (_add_generation, _add_sampling, _add_config)

    stage("gen", cmd_gen, "write a random problem instance",
          _add_generation, _add_out)

    stage("expert", cmd_expert, "plan an expert path for one instance",
          *env, _add_out, _add_instance)

    p = stage("demos", cmd_demos, "collect expert demonstrations",
              *env, _add_out)
    p.add_argument("--demos", type=int, default=100, metavar="N")

    p = stage("train-bc", cmd_train_bc,
              "behavior cloning + critic warm start", _add_config, _add_out)
    p.add_argument("--data", type=str, required=True, metavar="PATH",
                   help="demonstration dataset")
    p.add_argument("--log", type=str, default=None, metavar="PATH",
                   help="write one JSON line per cloning and critic epoch")

    p = stage("train-ppo", cmd_train_ppo, "on-policy fine-tuning",
              *env, _add_out)
    p.add_argument("--ckpt", type=str, default=None, metavar="PATH")
    p.add_argument("--steps", type=int, default=TrainConfig.steps_budget,
                   metavar="N", help="environment step budget, rounded up "
                                     "to whole rollouts")
    p.add_argument("--pool", type=int, default=32, metavar="N",
                   help="training instance pool size")
    p.add_argument("--warmup", type=int, default=0, metavar="N",
                   help="critic-only steps before joint updates")
    p.add_argument("--dense", action="store_true",
                   help="from-scratch baseline: fresh nets, no privileged "
                        "encoder input")
    p.add_argument("--log", type=str, default=None, metavar="PATH",
                   help="write per-batch PPO diagnostics as JSON lines")

    p = stage("distill", cmd_distill,
              "fit the adaptation net to encoder outputs",
              _add_config, _add_out)
    p.add_argument("--data", type=str, required=True, metavar="PATH")
    p.add_argument("--ckpt", type=str, required=True, metavar="PATH")
    p.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS, metavar="N")
    p.add_argument("--log", type=str, default=None, metavar="PATH",
                   help="write one JSON line per epoch, then the held-out "
                        "metrics")

    p = stage("eval", cmd_eval, "run eval episodes and report metrics",
              *env, _add_instance)
    p.add_argument("--out", type=str, default=None, metavar="DIR",
                   help="write episode CSVs and metrics.json here")
    p.add_argument("--ckpt", type=str, default=None, metavar="PATH")
    p.add_argument("--expert", action="store_true",
                   help="replay the expert instead of a checkpoint")
    p.add_argument("--episodes", type=int, default=50, metavar="N",
                   action=_Given, help="instances to generate (one with "
                                       "--instance)")
    p.add_argument("--pi-eval", action="store_true",
                   help="use the encoder on expert privileged obs instead "
                        "of the adaptation net")
    p.add_argument("--log", type=str, default=None, metavar="PATH",
                   help="write one JSON line per episode")

    p = stage("bench", cmd_bench, "expert vs policy wall-clock benchmark",
              *env)
    p.add_argument("--ckpt", type=str, required=True, metavar="PATH")
    p.add_argument("--episodes", type=int, default=10, metavar="N")

    p = stage("plot", cmd_plot, "render one episode as SVG",
              *env, _add_out, _add_instance)
    p.add_argument("--ckpt", type=str, default=None, metavar="PATH")
    p.add_argument("--expert", action="store_true")
    p.add_argument("--pi-eval", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags (after printing the offending
        # token); fold that into the validation-error code
        return 0 if e.code == 0 else 1
    try:
        args.env_kw, args.train_kw = _load_config(args.config)
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:
        print(f"failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
