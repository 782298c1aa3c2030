"""A whole 1,000-frame day runs in a small process.

The child interpreter pins glibc's mmap threshold at its initial 128 KiB,
as the benchmark's child pass does, so large arrays come from ``mmap`` and
the process's high-water mark follows live data rather than heap layout.
It reports how far its peak RSS (``VmHWM``) rose over its RSS right after
the imports; building the day's inputs is part of that growth.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# ~41 MB while the merge loop copied the distances and the unary and DP
# tables made whole-table temporaries; ~31 MB once neither does, with the
# peak at the distance matrix
GROWTH_BOUND_MB = 36.0

CHILD = """
import numpy as np
from photoseg import ConceptDetections, FeatureStream, PipelineConfig
from photoseg.pipeline import run_pipeline


def status_kb(key):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])


base = status_kb("VmRSS")
# 25 events of 40 frames: 256-d uniform means with noise 0.1, and 5 of
# 300 tags per event with jittered confidences
rng = np.random.default_rng(1)
means = rng.uniform(size=(25, 256))
contextual = np.repeat(means, 40, axis=0) + rng.normal(0.0, 0.1, size=(1000, 256))
frames = []
for _ in range(25):
    tags = rng.choice(300, size=5, replace=False)
    conf = rng.uniform(0.5, 1.0, size=5)
    for _ in range(40):
        jittered = np.clip(conf + rng.normal(0.0, 0.1, size=5), 0.0, 1.0)
        frames.append(tuple((f"tag{t}", float(c)) for t, c in zip(tags, jittered)))
result = run_pipeline(FeatureStream(contextual=contextual),
                      ConceptDetections(frames=tuple(frames)), PipelineConfig())
print(result.seg_adw.num_segments, (status_kb("VmHWM") - base) / 1024.0)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs VmHWM from /proc/self/status")
def test_a_1000_frame_day_grows_the_process_by_under_36_mb():
    env = dict(os.environ)
    env.update(MALLOC_MMAP_THRESHOLD_="131072", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    adwin_segments, growth_mb = done.stdout.split()
    # a change detector that finds few segments would leave the label
    # tables, and so this check, small
    assert int(adwin_segments) > 100
    assert float(growth_mb) < GROWTH_BOUND_MB
