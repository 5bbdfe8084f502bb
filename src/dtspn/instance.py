"""Problem instances: seeded generation and a line-oriented text format."""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .dubins import Pose

DEFAULT_MAP = (800.0, 800.0)
DEFAULT_SENSE = 58.0
DEFAULT_TURN = 30.0


class InstanceFormatError(ValueError):
    """Raised for malformed instance files; carries the offending line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Instance:
    map_width: float
    map_height: float
    tasks: Tuple[Tuple[float, float], ...]
    r_sense: float
    turn_radius: float
    start: Pose
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(tuple(t) for t in self.tasks))
        validate(self)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def task_array(self) -> np.ndarray:
        return np.asarray(self.tasks, dtype=float)


def positive_finite(name: str, value: float) -> float:
    """value, or ValueError naming it unless it is positive and finite."""
    if not 0.0 < value < math.inf:    # NaN fails too
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def validate(instance: Instance) -> None:
    for name in ("map_width", "map_height", "r_sense", "turn_radius"):
        positive_finite(name, getattr(instance, name))
    if instance.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {instance.seed}")
    start = instance.start
    if not all(map(math.isfinite, (start.x, start.y, start.theta))):
        raise ValueError(f"start pose must be finite, got {start}")
    if not instance.tasks:
        raise ValueError("instance has no tasks")
    for i, (x, y) in enumerate(instance.tasks):
        if not (0.0 <= x <= instance.map_width and 0.0 <= y <= instance.map_height):
            raise ValueError(f"task {i} at ({x}, {y}) lies outside the map")


def default_start(map_width: float, map_height: float) -> Pose:
    """Start on the lower interior edge, mid-width, heading 0.

    The heading is a placeholder; episode resets overwrite it with the first
    expert waypoint's heading when an expert path is available.
    """
    return Pose(0.5 * map_width, 0.05 * map_height, 0.0)


def generate(n_tasks: int, seed: int,
             map_size: Tuple[float, float] = DEFAULT_MAP,
             r_sense: float = DEFAULT_SENSE,
             turn_radius: float = DEFAULT_TURN) -> Instance:
    """Uniform i.i.d. task positions from a counter-based generator, so the
    same (seed, config) reproduces the same instance on any platform.  The
    vehicle starts at default_start."""
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    # before the draw, which raises OverflowError on a non-finite bound
    w = positive_finite("map_width", float(map_size[0]))
    h = positive_finite("map_height", float(map_size[1]))
    rng = np.random.Generator(np.random.Philox(key=seed))
    pts = rng.uniform((0.0, 0.0), (w, h), size=(n_tasks, 2))
    return Instance(map_width=w, map_height=h,
                    tasks=tuple(map(tuple, pts.tolist())),
                    r_sense=float(r_sense), turn_radius=float(turn_radius),
                    start=default_start(w, h), seed=int(seed))


def save(instance: Instance, path) -> None:
    lines = ["dtspn-instance v1",
             f"map {instance.map_width!r} {instance.map_height!r}",
             f"sense {instance.r_sense!r}",
             f"turn {instance.turn_radius!r}",
             f"start {instance.start.x!r} {instance.start.y!r} {instance.start.theta!r}",
             f"seed {instance.seed}"]
    for x, y in instance.tasks:
        lines.append(f"task {x!r} {y!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# the numbers on each once-only line, in the order save writes them
_COUNTS = {"map": 2, "sense": 1, "turn": 1, "start": 3, "seed": 1}


def _floats(parts, count, key, line_no):
    if len(parts) != count:
        raise InstanceFormatError(
            f"field '{key}' expects {count} numbers, got {len(parts)}", line_no)
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise InstanceFormatError(
            f"field '{key}' has a non-numeric value: {parts}", line_no)


def load(path) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"not UTF-8 text (byte {exc.start})")
    if not raw or raw[0].strip() != "dtspn-instance v1":
        raise InstanceFormatError("missing 'dtspn-instance v1' header", line=1)
    fields = {}
    tasks = []
    for line_no, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, *parts = line.split()
        if key == "task":
            tasks.append(tuple(_floats(parts, 2, "task", line_no)))
        elif key not in _COUNTS:
            raise InstanceFormatError(f"unknown field '{key}'", line_no)
        elif key in fields:
            raise InstanceFormatError(f"field '{key}' is repeated", line_no)
        elif key == "seed":
            try:
                (fields["seed"],) = map(int, parts)
            except ValueError:
                raise InstanceFormatError(
                    f"field 'seed' is not one integer: {parts}", line_no)
        else:
            fields[key] = _floats(parts, _COUNTS[key], key, line_no)
    for key in _COUNTS:
        if key not in fields:
            raise InstanceFormatError(f"missing field '{key}'")
    if not tasks:
        raise InstanceFormatError("missing field 'task' (no tasks)")
    try:
        return Instance(map_width=fields["map"][0],
                        map_height=fields["map"][1], tasks=tuple(tasks),
                        r_sense=fields["sense"][0],
                        turn_radius=fields["turn"][0],
                        start=Pose(*fields["start"]), seed=fields["seed"])
    except ValueError as exc:
        raise InstanceFormatError(str(exc))
