"""Tests of the benchmark's own arithmetic and metric tables.

    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import json
import re
import types
from pathlib import Path

import pytest

import layers
import run
from spans import Recorder, Span, aggregate, self_times, tail_percentile

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _span(name, start, end, parent=None):
    return Span(name=name, start=start, end=end, parent=parent, run_id=1)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),  # overlaps a: union 1..5 covers 4
        _span("a.inner", 1.5, 2.5, parent=1),  # a grandchild leaves root alone
        _span("late", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


def test_aggregate_sums_per_name():
    spans = [_span("p", 0.0, 4.0), _span("c", 0.0, 1.0, 0), _span("c", 2.0, 3.0, 0)]
    stats = aggregate(spans)
    assert stats["p"].self_s == pytest.approx(2.0)
    assert stats["c"].calls == 2
    assert stats["c"].s == pytest.approx(2.0)


@pytest.mark.parametrize("n, pct", [(19, None), (20, 50.0), (39, 50.0), (40, 75.0),
                                    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
                                    (10000, 99.9)])
def test_tail_keeps_ten_samples_beyond(n, pct):
    samples = [float(i) for i in range(n)]
    tail = tail_percentile(samples)
    if pct is None:
        assert tail is None
        return
    p, value = tail
    assert p == pct
    assert sum(1 for s in samples if s > value) >= 10


def test_metric_names_use_the_allowed_charset():
    names = ([m["name"] for m in SPEC["end_to_end"]] + [m["name"] for m in SPEC["per_layer"]]
             + [w["name"] for w in SPEC["workloads"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    values = {name: 1.0 for name in run.END_TO_END}
    emitted = run.end_to_end_metrics(values)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: v["unit"] for k, v in emitted.items()}
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def test_every_per_layer_metric_is_emitted_with_its_unit():
    emitted = layers.layer_metrics({}, iterations=1, overhead_pct=1.0)
    spec = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert set(emitted) == set(spec)
    for name, metric in emitted.items():
        assert metric["unit"] == spec[name][0]
        assert layers.better_of(name) == spec[name][1]


def test_every_per_layer_metric_maps_to_known_end_to_end_metrics():
    workloads = set(run.WORKLOADS) | {"*"}
    for name in layers.PER_LAYER_NAMES:
        moves, holds = layers.moves_for(name)
        for ref in moves + holds:
            workload, metric = ref.split(":")
            assert workload in workloads and metric in run.END_TO_END, (name, ref)


def test_missing_wrap_target_is_absent_not_a_crash():
    module = types.SimpleNamespace(present=lambda x: x * 2)
    rec = Recorder()
    assert not rec.wrap(module, "gone", "m.gone")
    assert rec.wrap(module, "present", "m.present")
    assert module.present(3) == 6
    rec.restore()
    assert module.present.__name__ == "<lambda>"
    assert len(rec.absent) == 1 and rec.absent[0].endswith(".gone")
    assert [s.name for s in rec.spans] == ["m.present"]


def test_wrappers_record_parents_and_survive_count_errors():
    calls = []
    module = types.SimpleNamespace()
    module.inner = lambda: calls.append("inner")
    module.outer = lambda: (module.inner(), calls.append("outer"))
    rec = Recorder()
    rec.wrap(module, "inner", "m.inner", counts=lambda a, k, r: {"samples": a[5]})
    rec.wrap(module, "outer", lambda a, k, r: "m.outer")
    module.outer()
    rec.restore()
    assert calls == ["inner", "outer"]
    outer, inner = rec.spans
    assert (outer.name, outer.parent) == ("m.outer", None)
    assert (inner.name, inner.parent) == ("m.inner", 0)
    assert len(rec.count_errors) == 1 and inner.samples == 0


def test_expected_split_matches_the_study_protocol():
    assert run.expected_split(run.FULL_SCALE) == (3081, 390, 390)
    assert sum(run.expected_split(run.DESK_SCALE)) == run.DESK_SCALE
