"""Trajectory plots as standalone SVG files.

Pure function of its inputs: the same record and instance always produce the
same bytes, so plots can be diffed and cached.  World coordinates map to SVG
with y flipped (SVG grows downward)."""

from typing import Optional

from .env import EpisodeRecord
from .expert import ExpertPath
from .instance import Instance

_MARGIN = 20.0
_TASK_R = 4.0

_STYLE = {
    "frame": 'fill="white" stroke="black" stroke-width="1.5"',
    "task": 'fill="black" stroke="none"',
    "sense": 'fill="none" stroke="#7f7f7f" stroke-width="0.8" stroke-dasharray="3,3"',
    "expert": 'fill="none" stroke="#d62728" stroke-width="1.5" stroke-dasharray="6,4"',
    "agent": 'fill="none" stroke="#2ca02c" stroke-width="2"',
    "start": 'fill="none" stroke="black" stroke-width="1.5"',
}


def _f(v: float) -> str:
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def _polyline(points, style: str) -> str:
    pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
    return f'<polyline points="{pts}" {style}/>'


def emit_trajectory_svg(record: Optional[EpisodeRecord], instance: Instance,
                        expert_path: Optional[ExpertPath] = None,
                        path: Optional[str] = None) -> bytes:
    """Render map frame, task markers, sensing circles at the tasks sensed
    during the episode, the expert path (dashed red) and the agent track
    (solid green).  record=None or an empty record draws map and tasks only.
    Returns the SVG bytes; also writes them when path is given."""
    w, h = instance.map_width, instance.map_height
    m = _MARGIN

    def sx(x: float) -> float:
        return x + m

    def sy(y: float) -> float:
        return (h - y) + m

    width = w + 2 * m
    height = h + 2 * m + 18.0  # room for the legend strip below the frame
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" '
        f'height="{_f(height)}" viewBox="0 0 {_f(width)} {_f(height)}">',
        f'<rect x="{_f(m)}" y="{_f(m)}" width="{_f(w)}" height="{_f(h)}" '
        f'{_STYLE["frame"]}/>',
    ]

    for i, (tx, ty) in enumerate(instance.tasks):
        out.append(f'<circle cx="{_f(sx(tx))}" cy="{_f(sy(ty))}" '
                   f'r="{_f(_TASK_R)}" {_STYLE["task"]}/>'
                   f'<!-- task {i} -->')

    if record is not None:
        for _, task_idx in record.sensed_events:
            tx, ty = instance.tasks[task_idx]
            out.append(f'<circle cx="{_f(sx(tx))}" cy="{_f(sy(ty))}" '
                       f'r="{_f(instance.r_sense)}" {_STYLE["sense"]}/>')

    if expert_path is not None and len(expert_path.waypoints) >= 2:
        out.append(_polyline(((sx(p.x), sy(p.y)) for p in expert_path.waypoints),
                             _STYLE["expert"]))

    if record is not None and len(record) > 0:
        x0, y0, _ = record.start_pose
        track = [(sx(x0), sy(y0))]
        track += [(sx(px), sy(py)) for px, py, _ in record.poses]
        out.append(_polyline(track, _STYLE["agent"]))
        out.append(f'<circle cx="{_f(sx(x0))}" cy="{_f(sy(y0))}" '
                   f'r="{_f(_TASK_R + 2.0)}" {_STYLE["start"]}/>')

    ly = h + 2 * m + 12.0
    legend = [(_STYLE["agent"], "agent"), (_STYLE["expert"], "expert"),
              (_STYLE["sense"], "sensed")]
    lx = m
    for style, label in legend:
        out.append(f'<line x1="{_f(lx)}" y1="{_f(ly - 4.0)}" x2="{_f(lx + 22.0)}" '
                   f'y2="{_f(ly - 4.0)}" {style}/>')
        out.append(f'<text x="{_f(lx + 26.0)}" y="{_f(ly)}" '
                   f'font-family="sans-serif" font-size="11">{label}</text>')
        lx += 26.0 + 9.0 * len(label) + 14.0
    out.append("</svg>")
    data = ("\n".join(out) + "\n").encode("utf-8")
    if path is not None:
        with open(path, "wb") as f:
            f.write(data)
    return data
