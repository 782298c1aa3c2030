"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root: ``python3 -m pytest bench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import days  # noqa: E402
from layers import boundary_f  # noqa: E402
from tracing import MissingSpanError, Tracer, fingerprint  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_days_are_a_function_of_the_seed():
    spec = days.SMOKE_SPECS["concepts"]
    a, b = days.generate_day(spec, (5, 2, 0)), days.generate_day(spec, (5, 2, 0))
    np.testing.assert_array_equal(a.contextual, b.contextual)
    assert (a.frames, a.starts, a.table) == (b.frames, b.starts, b.table)
    assert not np.array_equal(days.generate_day(spec, (6, 2, 0)).contextual, a.contextual)


@pytest.mark.parametrize("name", sorted(days.SPECS))
def test_day_shape(name):
    spec = days.SPECS[name]
    day = days.generate_day(spec, (3, 1, 0))
    lengths = np.diff(day.starts + [spec.n])
    assert day.contextual.shape == (spec.n, spec.dim)
    assert len(lengths) == spec.events
    assert lengths.min() >= days.MIN_EVENT and lengths.max() <= days.MAX_EVENT
    assert len({t for frame in day.frames for t, _ in frame}) == spec.tags


def test_boundary_f_matches_the_program():
    from photoseg import Segmentation, f_measure

    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        pred = [0] + sorted(set(rng.integers(1, n, rng.integers(0, 10)).tolist()))
        true = [0] + sorted(set(rng.integers(1, n, rng.integers(0, 10)).tolist()))
        expected = f_measure(Segmentation(n, tuple(pred)), Segmentation(n, tuple(true))).fmeasure
        assert boundary_f(pred, true) == pytest.approx(expected, abs=1e-12)


def test_fingerprint_follows_content():
    from photoseg import AggloParams

    a = (np.arange(6.0).reshape(2, 3), AggloParams(cutoff=0.3), {"k": [1, 2]})
    same = (np.arange(6.0).reshape(2, 3), AggloParams(cutoff=0.3), {"k": [1, 2]})
    other = (np.arange(6.0).reshape(2, 3), AggloParams(cutoff=0.4), {"k": [1, 2]})
    assert fingerprint(a, {}) == fingerprint(same, {})
    assert fingerprint(a, {}) != fingerprint(other, {})


def test_tracer_rejects_missing_targets_and_spans():
    tracer = Tracer()
    with pytest.raises(MissingSpanError, match="no longer exists"):
        with tracer.installed(("photoseg.pipeline.no_such_stage",)):
            pass
    with pytest.raises(MissingSpanError, match="never fired"):
        tracer.check_fired(("photoseg.pipeline.cluster_frames",))


def test_tracer_restores_originals_and_computes_self_time():
    import photoseg.agglo as agglo
    import photoseg.pipeline as pipeline

    original = pipeline.cluster_frames
    tracer = Tracer()
    rows = np.random.default_rng(1).random((30, 4))
    with tracer.installed(("photoseg.pipeline.cluster_frames",
                           "photoseg.agglo.linkage_merge_sequence")):
        pipeline.cluster_frames(rows, agglo.AggloParams())
    assert pipeline.cluster_frames is original
    outer, inner = tracer.spans
    assert (outer.name, inner.parent) == ("photoseg.pipeline.cluster_frames", 0)
    own = tracer.self_seconds()
    assert own[0] == pytest.approx(outer.seconds - inner.seconds - inner.book)
    assert own[1] == inner.seconds


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_smoke_outputs_repeat_for_a_seed():
    digests = []
    for _ in range(2):
        proc = run_bench(ROOT, "--workload", "concepts", "--seed", "4", "--seconds", "0",
                         "--smoke")
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(proc.stdout.strip().splitlines()[-2])["run_digest"])
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "day", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
