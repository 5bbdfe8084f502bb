import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtspn.dubins import Pose
from dtspn import instance as inst


def test_generate_defaults_inside_map():
    x = inst.generate(20, seed=7)
    assert x.n_tasks == 20
    assert x.map_width == 800.0 and x.map_height == 800.0
    assert x.r_sense == 58.0 and x.turn_radius == 30.0
    for tx, ty in x.tasks:
        assert 0.0 <= tx <= 800.0
        assert 0.0 <= ty <= 800.0
    assert x.start.x == 400.0 and x.start.y == 40.0


def test_generate_is_deterministic():
    a = inst.generate(12, seed=99)
    b = inst.generate(12, seed=99)
    assert a == b
    c = inst.generate(12, seed=100)
    assert a != c


def test_generate_rejects_bad_args():
    with pytest.raises(ValueError):
        inst.generate(0, seed=1)
    with pytest.raises(ValueError):
        inst.generate(3, seed=1, map_size=(0.0, 100.0))
    with pytest.raises(ValueError):
        inst.generate(3, seed=-1)


NONFINITE = [("r_sense", math.nan), ("r_sense", math.inf),
             ("turn_radius", math.nan), ("turn_radius", math.inf),
             ("map_width", math.nan), ("map_width", math.inf),
             ("map_height", math.nan), ("map_height", math.inf)]


@pytest.mark.parametrize("name, value", NONFINITE)
def test_instance_rejects_nonfinite_sizes(name, value):
    x = inst.generate(3, seed=1)
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        dataclasses.replace(x, **{name: value})


@pytest.mark.parametrize("name, value", NONFINITE)
def test_load_rejects_nonfinite_sizes(tmp_path, name, value):
    p = tmp_path / "i.txt"
    inst.save(inst.generate(3, seed=1, map_size=(300.0, 300.0)), p)
    field, col = {"r_sense": ("sense", 1), "turn_radius": ("turn", 1),
                  "map_width": ("map", 1), "map_height": ("map", 2)}[name]
    lines = p.read_text().splitlines()
    for i, line in enumerate(lines):
        parts = line.split()
        if parts[0] == field:
            parts[col] = repr(value)
            lines[i] = " ".join(parts)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(inst.InstanceFormatError,
                       match=f"{name} must be positive and finite"):
        inst.load(p)


@pytest.mark.parametrize("start", [(math.nan, 5.0, 0.0), (5.0, math.inf, 0.0),
                                   (5.0, 5.0, math.nan)])
def test_instance_and_load_reject_nonfinite_start(tmp_path, start):
    x = inst.generate(3, seed=1)
    with pytest.raises(ValueError, match="start pose must be finite"):
        dataclasses.replace(x, start=Pose(*start))
    p = tmp_path / "i.txt"
    inst.save(x, p)
    p.write_text("".join(
        "start {!r} {!r} {!r}\n".format(*start) if l.startswith("start ")
        else l for l in p.read_text().splitlines(True)))
    with pytest.raises(inst.InstanceFormatError,
                       match="start pose must be finite"):
        inst.load(p)


@pytest.mark.parametrize("size", [(math.nan, 100.0), (100.0, math.inf)])
def test_generate_rejects_nonfinite_map(size):
    with pytest.raises(ValueError, match="positive and finite"):
        inst.generate(3, seed=1, map_size=size)


def test_task_within_sense_of_start():
    # pin a start right on top of the first sampled task; downstream the
    # expert tour for this instance is trivially empty
    probe = inst.generate(1, seed=0)
    tx, ty = probe.tasks[0]
    x = dataclasses.replace(probe, start=Pose(tx, ty, 0.0))
    d = math.hypot(x.tasks[0][0] - x.start.x, x.tasks[0][1] - x.start.y)
    assert d < x.r_sense


def test_round_trip_exact(tmp_path):
    x = dataclasses.replace(
        inst.generate(9, seed=4, map_size=(300.0, 400.0), r_sense=40.0),
        start=Pose(150.0, 20.0, 0.7))
    p = tmp_path / "i.txt"
    inst.save(x, p)
    y = inst.load(p)
    assert x == y
    # a second round trip is byte-stable
    p2 = tmp_path / "j.txt"
    inst.save(y, p2)
    assert p.read_text() == p2.read_text()


def test_load_rejects_task_outside_map(tmp_path):
    x = inst.generate(3, seed=1, map_size=(100.0, 100.0))
    p = tmp_path / "i.txt"
    inst.save(x, p)
    text = p.read_text().replace("dtspn-instance v1", "dtspn-instance v1") \
        + "task 500.0 5.0\n"
    p.write_text(text)
    with pytest.raises(inst.InstanceFormatError, match="outside the map"):
        inst.load(p)


def test_load_truncated_names_missing_field(tmp_path):
    p = tmp_path / "i.txt"
    p.write_text("dtspn-instance v1\nmap 100.0 100.0\nsense 58.0\n")
    with pytest.raises(inst.InstanceFormatError, match="turn"):
        inst.load(p)


def test_load_reports_line_of_bad_value(tmp_path):
    p = tmp_path / "i.txt"
    p.write_text("dtspn-instance v1\nmap 100.0 oops\n")
    with pytest.raises(inst.InstanceFormatError, match="line 2"):
        inst.load(p)
    p.write_text("nope\n")
    with pytest.raises(inst.InstanceFormatError, match="header"):
        inst.load(p)


def test_load_rejects_unknown_field(tmp_path):
    p = tmp_path / "i.txt"
    p.write_text("dtspn-instance v1\nbogus 1 2\n")
    with pytest.raises(inst.InstanceFormatError, match="bogus"):
        inst.load(p)


def test_load_rejects_junk_after_the_seed(tmp_path):
    x = inst.generate(2, seed=7)
    p = tmp_path / "i.txt"
    inst.save(x, p)
    text = p.read_text()
    for bad in ("seed 7 junk", "seed 7 8", "seed", "seed 7.0"):
        p.write_text(text.replace("seed 7", bad))
        with pytest.raises(inst.InstanceFormatError,
                           match="line 6: field 'seed'"):
            inst.load(p)


def test_a_negative_seed_is_refused(tmp_path):
    # generate refuses seed -1; a loaded file or a replaced field must too,
    # or a demo of such an instance cannot be saved
    x = inst.generate(2, seed=7)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        dataclasses.replace(x, seed=-1)
    p = tmp_path / "i.txt"
    inst.save(x, p)
    p.write_text(p.read_text().replace("seed 7", "seed -1"))
    with pytest.raises(inst.InstanceFormatError,
                       match="seed must be nonnegative"):
        inst.load(p)
    assert dataclasses.replace(x, seed=0).seed == 0


@pytest.mark.parametrize("line", ["map 50.0 50.0", "sense 1.0", "turn 5.0",
                                  "start 1.0 1.0 0.0", "seed 8"])
def test_load_rejects_a_repeated_field(tmp_path, line):
    x = inst.generate(2, seed=7)
    p = tmp_path / "i.txt"
    inst.save(x, p)
    p.write_text(p.read_text() + line + "\n")
    key = line.split()[0]
    with pytest.raises(inst.InstanceFormatError,
                       match=f"line 9: field '{key}' is repeated"):
        inst.load(p)
    # tasks repeat, one line each
    p.write_text(p.read_text().replace(line + "\n", "task 1.0 1.0\n"))
    assert inst.load(p).n_tasks == 3


def test_generation_matches_philox_stream():
    x = inst.generate(5, seed=123)
    rng = np.random.Generator(np.random.Philox(key=123))
    expect = rng.uniform((0.0, 0.0), (800.0, 800.0), size=(5, 2))
    assert np.array_equal(x.task_array(), expect)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_load_fuzz_raises_only_format_errors(tmp_path_factory, data):
    # byte flips and truncations of a saved file either load or raise
    # InstanceFormatError; nothing else escapes (non-UTF-8 bytes included)
    p = tmp_path_factory.mktemp("fuzz") / "i.txt"
    inst.save(inst.generate(3, seed=4), p)
    raw = bytearray(p.read_bytes())
    for at, value in data.draw(st.lists(st.tuples(
            st.integers(0, len(raw) - 1), st.integers(0, 255)), max_size=4)):
        raw[at] = value
    p.write_bytes(bytes(raw[:data.draw(st.integers(0, len(raw)))]))
    try:
        inst.load(p)
    except inst.InstanceFormatError:
        pass
