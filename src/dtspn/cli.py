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
from .demos import collect_batch, load_dataset, save_dataset, tracker
from .env import DtspnEnv, EnvConfig, config_for, run_episode
from .evaluate import (benchmark_speed, bundle_actor, check_bundle,
                       evaluate, save_episode_csv)
from .expert import SensingGap, plan
from .learn import (TrainConfig, bc_pretrain, critic_init,
                    distill_adaptation, init_bundle, load_bundle,
                    ppo_finetune, save_bundle)
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


def _train_config(args, **flags) -> TrainConfig:
    """--seed and the given flag values, with the --config file's train
    keys."""
    _, train_kw = _load_config(args.config)
    return TrainConfig(seed=args.seed, **flags, **train_kw)


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


def _generate(args, seed: int) -> instance_mod.Instance:
    return instance_mod.generate(args.tasks, seed, map_size=tuple(args.map),
                                 r_sense=args.sense, turn_radius=args.turn)


def _instances(args, count: int = 1):
    """The stage's instances, the --instance file or count generated from
    --seed on, and the env config they run under: config_for's, with the
    --config file's env keys.  The file excludes generation flags."""
    if count < 1:
        raise ValueError(f"--episodes must be >= 1, got {count}")
    if getattr(args, "instance", None) is not None:
        clash = [f"--{f}" for f in sorted(getattr(args, "given", ()))
                 if f != "episodes" or args.episodes != 1]
        if clash:
            raise ValueError(f"--instance excludes {', '.join(clash)}")
        xs = [instance_mod.load(args.instance)]
    else:
        xs = [_generate(args, args.seed + i) for i in range(count)]
    env_kw, _ = _load_config(args.config)
    return xs, dataclasses.replace(config_for(xs[0], None), **env_kw)


def cmd_gen(args) -> int:
    inst = _generate(args, args.seed)
    instance_mod.save(inst, args.out)
    _summary("gen", tasks=inst.n_tasks, seed=inst.seed, out=args.out)
    return 0


def cmd_expert(args) -> int:
    (inst,), cfg = _instances(args)
    path = plan(inst, n_pos=args.pos, n_head=args.heads, config=cfg)
    expert_mod.save(path, args.out)
    _summary("expert", tasks=inst.n_tasks, length=path.total_length,
             waypoints=len(path.waypoints), solve_s=path.solve_time,
             out=args.out)
    return 0


def cmd_demos(args) -> int:
    _, cfg = _instances(args)
    dataset, report = collect_batch(
        args.demos, base_seed=args.seed, n_tasks=args.tasks,
        map_size=tuple(args.map), r_sense=args.sense, turn_radius=args.turn,
        n_pos=args.pos, n_head=args.heads, config=cfg)
    save_dataset(dataset, args.out)
    _summary("demos", accepted=report["accepted"],
             attempted=report["attempted"],
             accept_rate=report["accept_rate"], out=args.out)
    return 0


def cmd_train_bc(args) -> int:
    tc = _train_config(args)
    dataset = load_dataset(args.data)
    meta = dataset.meta
    bundle = init_bundle(meta.common_dim, meta.priv_dim,
                         n_actions=meta.config.n_actions, seed=tc.seed)
    _, metrics = bc_pretrain(dataset, bundle, tc)
    _, critic = critic_init(dataset, bundle, tc)
    save_bundle(bundle, args.out)
    _summary("train-bc", demos=len(dataset), epochs=tc.bc_epochs,
             val_acc=_last(metrics["val_acc"]),
             val_loss=_last(metrics["val_loss"]),
             critic_val_mse=_last(critic["val_mse"]), out=args.out)
    return 0


def cmd_train_ppo(args) -> int:
    tc = _train_config(args, steps_budget=args.steps)
    _, cfg = _instances(args)
    use_privileged = not args.dense
    if args.pool < 1:
        raise ValueError(f"--pool must be >= 1, got {args.pool}")
    if args.ckpt is not None:
        bundle = load_bundle(args.ckpt)
        check_bundle(bundle, args.tasks, cfg)
    elif args.dense:
        bundle = init_bundle(3 + 4 * args.tasks, n_actions=cfg.n_actions,
                             seed=tc.seed)
    else:
        raise ValueError("train-ppo requires --ckpt PATH (or --dense for a "
                         "from-scratch baseline)")

    pool = []
    seed, want = args.seed, args.pool
    while len(pool) < want:
        if seed - args.seed > 4 * want + 40:
            raise RuntimeError("could not assemble a training pool: too many "
                               "instances failed expert planning")
        inst = _generate(args, seed)
        seed += 1
        # train-mode envs need expert paths in both modes: they shape the
        # reward and cut episodes off; --dense only hides them from the
        # encoder
        try:
            pool.append((inst, plan(inst, n_pos=args.pos, n_head=args.heads,
                                    config=cfg)))
        except SensingGap:
            continue
    counter = [0]

    def env_factory() -> DtspnEnv:
        inst, epath = pool[counter[0] % len(pool)]
        counter[0] += 1
        return DtspnEnv(inst, epath, mode="train", config=cfg)

    t0 = time.perf_counter()
    with _json_lines(args.log) as log:
        _, curve = ppo_finetune(env_factory, bundle, tc,
                                use_privileged=use_privileged,
                                critic_warmup_steps=args.warmup, log=log)
    save_bundle(bundle, args.out)
    finite = [c for c in curve if np.isfinite(c)]
    _summary("train-ppo", steps=tc.steps_budget, pool=len(pool),
             best_avg_return=max(finite) if finite else float("nan"),
             last_avg_return=_last(curve),
             wall_s=time.perf_counter() - t0,
             out=args.out)
    return 0


def cmd_distill(args) -> int:
    tc = _train_config(args)
    dataset = load_dataset(args.data)
    bundle = load_bundle(args.ckpt)
    check_bundle(bundle, dataset.meta.n_tasks, dataset.meta.config,
                 "demonstrations")
    _, metrics = distill_adaptation(dataset, bundle, tc, epochs=args.epochs)
    save_bundle(bundle, args.out)
    _summary("distill", epochs=args.epochs,
             heldout_mse=metrics["heldout_mse"],
             heldout_z_variance=metrics["heldout_z_variance"],
             action_agreement=metrics["action_agreement"], out=args.out)
    return 0


def _check_policy_flags(args) -> None:
    """--expert excludes --ckpt and --pi-eval, and --pi-eval needs --ckpt."""
    clash = [flag for flag, given in (("--ckpt", args.ckpt is not None),
                                      ("--pi-eval", args.pi_eval)) if given]
    if args.expert and clash:
        raise ValueError(f"--expert excludes {', '.join(clash)}")
    if args.pi_eval and args.ckpt is None:
        raise ValueError("--pi-eval requires --ckpt")


def cmd_eval(args) -> int:
    _check_policy_flags(args)
    instances, cfg = _instances(args, args.episodes)
    if args.expert:
        policy = "expert"
    else:
        if args.ckpt is None:
            raise ValueError("eval requires --ckpt PATH or --expert")
        policy = load_bundle(args.ckpt)
    metrics, records = evaluate(policy, instances, config=cfg,
                                pi_eval=args.pi_eval,
                                n_pos=args.pos, n_head=args.heads)
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
    instances, cfg = _instances(args, args.episodes)
    bundle = load_bundle(args.ckpt)
    report = benchmark_speed(instances, bundle, config=cfg,
                             n_pos=args.pos, n_head=args.heads)
    _summary("bench", instances=report["instances"],
             expert_median_s=report["expert_median_s"],
             policy_median_s=report["policy_median_s"],
             ratio=report["ratio"])
    return 0


def cmd_plot(args) -> int:
    _check_policy_flags(args)
    (inst,), cfg = _instances(args)
    bundle = None
    if args.ckpt is not None:
        bundle = load_bundle(args.ckpt)
        check_bundle(bundle, inst.n_tasks, cfg)
    epath = plan(inst, n_pos=args.pos, n_head=args.heads, config=cfg)
    # the expert path rides along even for policy plots: it supplies the
    # dashed overlay and the imitation column of the record
    env = DtspnEnv(inst, epath, mode="eval", config=cfg)
    if bundle is None:
        act_fn = tracker(env)
    else:
        act_fn = bundle_actor(bundle, args.pi_eval)
    record = run_episode(env, act_fn)
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
    p.add_argument("--map", nargs=2, type=float, default=(800.0, 800.0),
                   metavar=("W", "H"), action=_Given)
    p.add_argument("--sense", type=float, default=58.0, metavar="R",
                   action=_Given)
    p.add_argument("--turn", type=float, default=30.0, metavar="RHO",
                   action=_Given, help="turning radius of generated "
                                       "instances, which the env takes too")


def _add_sampling(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pos", type=int, default=8,
                   help="candidate positions per sensing circle")
    p.add_argument("--heads", type=int, default=4,
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
        p.set_defaults(func=func)
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

    p = stage("train-ppo", cmd_train_ppo, "on-policy fine-tuning",
              *env, _add_out)
    p.add_argument("--ckpt", type=str, default=None, metavar="PATH")
    p.add_argument("--steps", type=int, default=TrainConfig.steps_budget,
                   metavar="N", help="environment step budget")
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
    p.add_argument("--epochs", type=int, default=20, metavar="N")

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
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:
        print(f"failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
