"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from tracing import MemoryTracer, Probe, Span, Tracer, installed, self_by_name, self_times, unrestored  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE = {
    "sweep": dataclasses.replace(WORKLOADS["sweep"], n=80, k_star=3,
                                 k_range=(2, 3, 4), replicates=2),
    "large": dataclasses.replace(WORKLOADS["large"], n=300, k_star=3, k_range=(3,)),
    "heldout": dataclasses.replace(WORKLOADS["heldout"], splits=5, chunk=2),
}


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, None),
        Span(1, "a", 1.0, 4.0, 0, None),
        Span(2, "b", 3.0, 6.0, 0, None),   # overlaps a: the union is [1, 6]
        Span(3, "a", 2.0, 3.0, 1, None),   # grandchild, not a child of root
        Span(4, "b", 8.0, 9.0, 0, None),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0})
    by_name = self_by_name(spans)
    assert by_name == pytest.approx({"root": 4.0, "a": 3.0, "b": 4.0})
    # spans from one thread never overlap their siblings; then self times
    # partition the root
    nested = [s for s in spans if s.id != 2]
    assert sum(self_by_name(nested).values()) == pytest.approx(10.0)


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("bench_fake_layer")

    def work(x, fail=False):
        if fail:
            raise RuntimeError("boom")
        return inner(x) + 1

    def inner(x):
        return 2 * x

    mod.work = work
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_wrappers_restored_after_exception(fake_module):
    orig = fake_module.work
    probes = (Probe(fake_module.__name__, "work", "layer", unit=lambda a: a["x"],
                    count=lambda add, a, r: add("calls")),
              Probe(fake_module.__name__, "absent", "layer"))
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with installed(tracer, probes) as missing:
            assert missing == [f"{fake_module.__name__}.absent"]
            assert fake_module.work(3) == 7
            fake_module.work(5, fail=True)
    assert fake_module.work is orig
    assert unrestored(probes) == []
    assert [(s.name, s.unit) for s in tracer.spans] == [("layer", 3), ("layer", 5)]
    assert tracer.counters == {"calls": 1}  # the raising call reports no result
    assert tracer.unit is None


def test_memory_tracer_peak_includes_children():
    mem = MemoryTracer()
    tracemalloc.start()
    try:
        with mem.span("outer"):
            with mem.span("inner"):
                block = bytearray(8 * 2**20)
                del block
            small = bytearray(2**20)
            del small
    finally:
        tracemalloc.stop()
    assert mem.peaks["inner"] >= 8 * 2**20
    assert mem.peaks["outer"] >= mem.peaks["inner"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)


def _smoke(name, seed, trace, tmp_path):
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    out.mkdir()
    return run.benchmark(SMOKE[name], seed, 0.0, trace, out)


@pytest.mark.parametrize("name", list(SMOKE))
def test_smoke_run(name, tmp_path):
    report, tally = _smoke(name, 1, False, tmp_path)
    assert tally.problems == [] and tally.failed == 0 and tally.attempted > 0
    assert set(report["metrics"]) == {n for n, _ in run.END_TO_END}
    assert all(math.isfinite(v) and v > 0 for v in report["metrics"].values())

    report, tally = _smoke(name, 1, True, tmp_path)
    assert tally.problems == [] and tally.failed == 0
    assert list(report["metrics"]) == [n for n, *_ in layers.PER_LAYER]
    assert report["missing_probes"] == [] and report["hook_errors"] == []
    assert unrestored(layers.PROBES) == []


def test_second_seed_gives_other_inputs_and_passes(tmp_path):
    first, _ = _smoke("sweep", 1, True, tmp_path)
    again, _ = _smoke("sweep", 1, True, tmp_path)
    second, tally = _smoke("sweep", 2, True, tmp_path)
    assert tally.problems == [] and tally.failed == 0
    edges = first["metrics"]["samplers.edges"]
    assert edges > 0 and again["metrics"]["samplers.edges"] == edges
    assert second["metrics"]["samplers.edges"] != edges


def test_units_compute_what_one_call_computes(tmp_path):
    wl = SMOKE["heldout"]
    inputs = wl.setup(1)
    units = wl.units(inputs)
    assert [u.splits for u in units] == [2, 2, 1]
    whole = wl.call(inputs, str(tmp_path))
    parts = [wl.call(u, str(tmp_path)) for u in units]
    assert {m: [v for p in parts for v in p[m]] for m in wl.methods} == whole

    wl = SMOKE["sweep"]
    cfg = wl.setup(1)
    whole = wl.call(cfg, str(tmp_path)).records
    parts = [rec for u in wl.units(cfg) for rec in wl.call(u, str(tmp_path)).records]
    assert len(parts) == len(whole) == cfg.replicates * len(cfg.k_range)
    for part, rec in zip(parts, whole):
        assert part.replicate == 0
        assert dataclasses.replace(part, replicate=rec.replicate) == rec


def test_check_counts_a_bad_record_as_a_failed_replicate(tmp_path):
    wl = SMOKE["sweep"]
    inputs = wl.setup(1)
    result = wl.call(inputs, str(tmp_path))
    assert wl.check(inputs, result, str(tmp_path)).failed == 0
    bad = dataclasses.replace(result.records[0], mse_eb=math.nan)
    result.records[0] = bad
    checked = wl.check(inputs, result, str(tmp_path))
    assert checked.failed == 1 and checked.problems


def test_exits_nonzero_without_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
