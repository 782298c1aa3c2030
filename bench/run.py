"""Benchmark of photoseg on seeded synthetic days.

Run it from the repository root:

    python3 bench/run.py --workload day --seed 1 --seconds 30 --trace 0

``--workload`` is ``day``, ``concepts`` or ``sweep`` (see README.md).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run instead. ``--smoke`` runs the same code on tiny days.
The line before it records the output digests and the thread cap.
"""

import os

# set before numpy loads OpenBLAS; the child processes inherit it
THREAD_CAP = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREAD_CAP)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import days  # noqa: E402
from layers import CheckFailed, boundary_f, check_starts, layer_metrics  # noqa: E402
from tracing import EXPECTED, MissingSpanError, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDED = Path(__file__).resolve().parent / "recorded.json"
STREAMS = {"day": 1, "concepts": 2, "sweep": 3}
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919   # for confirming a claim; never tune against it
DAYS_PER_RUN = 3       # F differs between days, so a run averages three
SETUP_REPEATS = 5
DEADLINE_S = 120.0     # no pass that would end later starts, so a run ends within 180 s

SETUP_CODE = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import photoseg
if len(sys.argv) > 2:
    photoseg.FileSimilarityProvider.from_file(sys.argv[2])
print(time.perf_counter() - t)
"""


def import_photoseg() -> None:
    """Import photoseg from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import photoseg
    except ImportError as exc:
        sys.exit(f"error: cannot import photoseg from {src}: {exc}")
    if Path(photoseg.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"error: imported photoseg from {photoseg.__file__}, not from {src}")


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


class Job:
    """One day of one workload, ready to run: ``run`` is the timed call
    into photoseg and ``check`` validates its output, returning the output
    digest and the fused F-measure."""

    input_mb = 0.0

    def __init__(self, day: days.Day, out: Path, grid: dict):
        from photoseg import ConceptDetections, FeatureStream, FileSimilarityProvider

        out.mkdir(parents=True, exist_ok=True)
        self.n = len(day.frames)
        self.truth = day.starts
        self.frames = self.n
        self.stream = FeatureStream(contextual=day.contextual)
        self.detections = ConceptDetections(frames=tuple(tuple(f) for f in day.frames))
        self.table = days.write_table(day, out) if day.table else None
        self.provider = FileSimilarityProvider.from_file(self.table) if self.table else None

    def segmentation_check(self, n: int, starts) -> tuple[str, float]:
        if n != self.n:
            raise CheckFailed(f"segmentation covers {n} frames, expected {self.n}")
        starts = check_starts(starts, self.n)
        return digest({"n": n, "starts": starts}), boundary_f(starts, self.truth)


class DayJob(Job):
    """``photoseg segment`` in-process on feature and detection files."""

    def __init__(self, day, out, grid):
        super().__init__(day, out, grid)
        self.features, self.detection_file = days.write_inputs(day, out)
        self.out = out / "segmentation.json"
        self.input_mb = (self.features.stat().st_size
                         + self.detection_file.stat().st_size) / 1e6
        self.argv = ["segment", str(self.features), "--detections", str(self.detection_file),
                     "--out", str(self.out)]

    def run(self):
        from photoseg import cli

        self.out.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def check(self, code):
        if code != 0:
            raise CheckFailed(f"photoseg segment exited with {code}")
        obj = json.loads(self.out.read_text())
        return self.segmentation_check(obj["n"], obj["starts"])


class ConceptsJob(Job):
    """``run_pipeline`` with a meaning-level similarity table."""

    def run(self):
        from photoseg import PipelineConfig, pipeline

        return pipeline.run_pipeline(self.stream, self.detections, PipelineConfig(),
                                     provider=self.provider)

    def check(self, result):
        return self.segmentation_check(result.segmentation.n, result.segmentation.starts)


class SweepJob(Job):
    """``grid_search`` over the sweep grid against the generator's truth."""

    def __init__(self, day, out, grid):
        from photoseg import PipelineConfig, Segmentation

        super().__init__(day, out, grid)
        self.grid = grid
        self.config = PipelineConfig.from_dict({"grid": grid})
        self.gt = Segmentation(self.n, tuple(self.truth))
        self.configs = math.prod(len(values) for values in grid.values())
        self.frames = self.n * self.configs

    def run(self):
        from photoseg import pipeline

        return pipeline.grid_search(self.stream, self.detections, self.gt, self.config)

    def check(self, rows):
        if len(rows) != self.configs:
            raise CheckFailed(f"{len(rows)} rows for {self.configs} configurations")
        seen = {tuple(sorted(r.params.items())) for r in rows}
        if len(seen) != self.configs or any(set(p) != set(self.grid) for p in map(dict, seen)):
            raise CheckFailed("rows do not cover the grid once each")
        fs = [r.fmeasure for r in rows]
        true_boundaries = len(self.truth) - 1
        if any(not 0.0 <= f <= 1.0 for f in fs) or any(b > a for a, b in zip(fs, fs[1:])):
            raise CheckFailed("F-measures out of [0, 1] or not ranked")
        if any(r.report.tp + r.report.fn != true_boundaries for r in rows):
            raise CheckFailed("a row's tp + fn differs from the true boundary count")
        table = [[sorted(r.params.items()), repr(r.report.precision), repr(r.report.recall),
                  repr(r.fmeasure), r.report.tp, r.report.fp, r.report.fn] for r in rows]
        return digest(table), fs[0]


JOBS = {"day": DayJob, "concepts": ConceptsJob, "sweep": SweepJob}


class Ledger:
    """Counts passes and failures; every pass on a day must reproduce the
    digest of the first pass on that day."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.fmeasures: dict = {}

    def attempt(self, label, fn):
        self.attempted += 1
        try:
            out_digest, fmeasure, payload = fn()
        except MissingSpanError:
            raise
        except Exception:   # a failed pass is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        first = self.digests.setdefault(label, out_digest)
        self.fmeasures.setdefault(label, fmeasure)
        if out_digest != first:
            print(f"error: a pass on day {label} gave {out_digest}, another {first}",
                  file=sys.stderr)
            self.failed += 1
            return None
        return payload


def timed_pass(job: Job):
    start = time.perf_counter()
    raw = job.run()
    seconds = time.perf_counter() - start
    return (*job.check(raw), seconds)


def traced_pass(job: Job, workload: str):
    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter()
        raw = job.run()
        seconds = time.perf_counter() - start
    tracer.check_fired(EXPECTED[workload])
    return (*job.check(raw), (seconds, layer_metrics(tracer, job.truth, job.input_mb)))


def child_pass(args, work: Path):
    """One pass in a fresh process; returns its digest, F and peak RSS."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload",
           args.workload, "--seed", str(args.seed), "--workdir", str(work / "child")]
    # glibc raises its mmap threshold after a large free and then serves
    # large arrays from the heap, whose peak depends on the per-process
    # address layout (~20 MB apart between runs of one input); pinning the
    # threshold at its initial 128 KiB makes the peak follow live data
    env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "131072"}
    proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise CheckFailed(f"child pass exited with {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["digest"], out["fused_f"], out["peak_rss_kb"] / 1024.0


def peak_rss_kb() -> int:
    """This process's own peak RSS. ``ru_maxrss`` is not used because after
    a vfork it can report the parent's peak, which Linux keeps across exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup_seconds(table) -> float:
    """Import photoseg and load the similarity table in a fresh interpreter."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src")]
    proc = subprocess.run(cmd + ([str(table)] if table else []), cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(proc.stdout.strip().splitlines()[-1])


def mean_of_medians(per_day: dict) -> float:
    return statistics.fmean(statistics.median(v) for v in per_day.values())


def make_job(args, index: int, out: Path) -> Job:
    """The job for day ``index`` of this run's seed."""
    specs, grid = ((days.SMOKE_SPECS, days.SMOKE_SWEEP_GRID) if args.smoke
                   else (days.SPECS, days.SWEEP_GRID))
    day = days.generate_day(specs[args.workload], (args.seed, STREAMS[args.workload], index))
    return JOBS[args.workload](day, out, grid)


def passes(args, ledger: Ledger, jobs, kinds: dict, begin: float):
    """Cycle over the days, running one pass of each kind per visit, until
    every day has had a visit and a visit of median length would end after
    the run's time. Returns per kind and day the payloads of the passes
    that succeeded."""
    got = {kind: {d: [] for d in range(len(jobs))} for kind in kinds}
    visits: list[float] = []
    loop_start = time.perf_counter()
    d = 0
    while True:
        now = time.perf_counter()
        if len(visits) >= len(jobs):
            next_visit = statistics.median(visits)
            if (now + next_visit - loop_start > args.seconds
                    or now + next_visit - begin > DEADLINE_S):
                break
        for kind, fn in kinds.items():
            payload = ledger.attempt(d, lambda: fn(jobs[d]))
            if payload is not None:
                got[kind][d].append(payload)
        visits.append(time.perf_counter() - now)
        d = (d + 1) % len(jobs)
    return got


def measure(args, work: Path):
    begin = time.perf_counter()
    jobs = [make_job(args, d, work / f"day{d}") for d in range(DAYS_PER_RUN)]
    # a tiny day first, so lazy imports and first-call costs are not timed
    warm = JOBS[args.workload](
        days.generate_day(days.SMOKE_SPECS[args.workload], (args.seed, STREAMS[args.workload])),
        work / "warm", days.SMOKE_SWEEP_GRID)
    ledger = Ledger()
    ledger.attempt("warm", lambda: timed_pass(warm))
    info = {}

    if args.trace:
        got = passes(args, ledger, jobs, {
            "plain": timed_pass,
            "traced": lambda job: traced_pass(job, args.workload),
        }, begin)
        traced = {d: v for d, v in got["traced"].items() if v}
        plain = {d: v for d, v in got["plain"].items() if v}
        if not traced or not plain:
            raise CheckFailed("no traced or no untraced pass succeeded")
        names = list(next(iter(traced.values()))[0][1])
        metrics = {name: mean_of_medians({d: [m[name] for _, m in v] for d, v in traced.items()})
                   for name in names}
        metrics["trace.overhead_s"] = (
            mean_of_medians({d: [s for s, _ in v] for d, v in traced.items()})
            - mean_of_medians(plain))
    else:
        setup = [setup_seconds(jobs[0].table) for _ in range(SETUP_REPEATS)]
        rss = ledger.attempt(0, lambda: child_pass(args, work))
        got = passes(args, ledger, jobs, {"plain": timed_pass}, begin)["plain"]
        good = {d: v for d, v in got.items() if v}
        if not good or rss is None:
            raise CheckFailed("no pass succeeded")
        # medians over all passes of the run: a pass slowed by a burst of
        # load from other tenants of the host moves neither
        metrics = {
            "pass_s": statistics.median(s for v in good.values() for s in v),
            "frames_per_s": statistics.median(jobs[d].frames / s
                                              for d, v in good.items() for s in v),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
            "fused_f": statistics.fmean(ledger.fmeasures[d] for d in good),
        }
        info["setup_runs_s"] = setup
        info["pass_times_s"] = [got[d] for d in range(len(jobs))]

    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise CheckFailed(f"BENCHMARK.json and this run disagree on {set(units) ^ set(metrics)}")
    day_digests = [ledger.digests.get(d) for d in range(len(jobs))]
    info.update({
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "thread_cap": THREAD_CAP, "nproc": os.cpu_count(),
        "day_digests": day_digests, "run_digest": digest(day_digests),
        "day_fused_f": [ledger.fmeasures.get(d) for d in range(len(jobs))],
    })
    recorded = json.loads(RECORDED.read_text()).get(args.workload, {}) if not args.smoke else {}
    if str(args.seed) in recorded:
        info["matches_recorded"] = recorded[str(args.seed)] == info["run_digest"]
        if not info["matches_recorded"]:
            print(f"warning: output digest {info['run_digest']} differs from the one "
                  f"recorded for seed {args.seed}", file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return info, result


def child_main(args) -> None:
    import_photoseg()
    job = make_job(args, 0, Path(args.workdir))
    out_digest, fmeasure = job.check(job.run())
    print(json.dumps({"digest": out_digest, "fused_f": fmeasure, "peak_rss_kb": peak_rss_kb()}))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(JOBS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny days, for tests")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.child:
        child_main(args)
        return
    import_photoseg()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        info, result = measure(args, work)
    except (MissingSpanError, CheckFailed) as exc:
        sys.exit(f"error: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    summary = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
    print(f"{args.workload} seed {args.seed}: {summary}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
