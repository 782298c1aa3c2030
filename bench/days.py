"""Seeded synthetic days for the benchmark workloads.

Every input is a pure function of (workload, seed, size): the same seed
gives bit-identical inputs. The generator uses numpy only, so a change to
``photoseg.synth`` cannot change what the benchmark measures.

A day is a run of stationary events. Event lengths are log-normal and
clipped to [3, 240] frames, as wearable-camera events range from a few
photos to a couple of hours at 2-3 photos a minute. Each event has a
uniform-random contextual mean plus Gaussian noise, and a fixed set of
tags seen on every frame with a jittered confidence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

MIN_EVENT, MAX_EVENT = 3, 240
HOME_EVENT = 40


@dataclass(frozen=True)
class DaySpec:
    """Size and shape of one synthetic day.

    Exactly ``tags`` distinct tags are observed. Each tag has a home event
    of at least ``HOME_EVENT`` frames (the longest event if none is that
    long), so its semantic column always survives low-variance pruning;
    events with fewer than ``tags_per_event`` tags get random extra ones.
    The fused width is then 256 + ``tags`` on every seed when the
    vocabulary is the identity, which matters: the change detector's
    threshold jumps with that width (see README). ``meanings`` > 0 also
    builds a similarity table with that many meanings per tag.
    """

    n: int
    events: int
    dim: int
    noise: float
    tags: int
    tags_per_event: int
    meanings: int = 0
    families: int = 0


# the three workloads at benchmark scale and at smoke-test scale
SPECS = {
    "day": DaySpec(n=1000, events=30, dim=256, noise=0.1, tags=60, tags_per_event=5),
    "concepts": DaySpec(n=400, events=25, dim=256, noise=0.1, tags=250, tags_per_event=3,
                        meanings=3, families=50),
    "sweep": DaySpec(n=400, events=12, dim=256, noise=1.5, tags=30, tags_per_event=4),
}
SMOKE_SPECS = {
    "day": DaySpec(n=80, events=6, dim=16, noise=0.1, tags=10, tags_per_event=3),
    "concepts": DaySpec(n=60, events=6, dim=16, noise=0.1, tags=24, tags_per_event=2,
                        meanings=3, families=8),
    "sweep": DaySpec(n=60, events=5, dim=16, noise=1.5, tags=8, tags_per_event=2),
}

# the sweep grid: 4 cutoffs x 2 unary mixes x 2 radii = 16 configurations
SWEEP_GRID = {"cutoff": [0.1, 0.2, 0.3, 0.45], "unary_mix": [0.5, 0.85], "radius": [1, 2]}
SMOKE_SWEEP_GRID = {"cutoff": [0.2, 0.45], "radius": [1, 2]}


@dataclass
class Day:
    """One generated day: contextual rows, per-frame tags, true starts,
    and the meaning table when the spec asks for one."""

    contextual: np.ndarray
    frames: list[list[tuple[str, float]]]
    starts: list[int]
    table: Optional[dict] = None


def event_lengths(rng: np.random.Generator, n: int, events: int) -> np.ndarray:
    """Log-normal lengths in [MIN_EVENT, MAX_EVENT] that sum to exactly n."""
    if not events * MIN_EVENT <= n <= events * MAX_EVENT:
        raise ValueError(f"{events} events cannot cover {n} frames")
    raw = rng.lognormal(mean=0.0, sigma=1.0, size=events)
    lengths = np.clip(np.round(raw * n / raw.sum()), MIN_EVENT, MAX_EVENT).astype(int)
    while lengths.sum() != n:
        step = 1 if lengths.sum() < n else -1
        room = np.nonzero((lengths + step >= MIN_EVENT) & (lengths + step <= MAX_EVENT))[0]
        lengths[room[rng.integers(room.size)]] += step
    return lengths


def generate_day(spec: DaySpec, entropy: Sequence[int]) -> Day:
    """The day for ``entropy``, which is e.g. (seed, workload, day index)."""
    rng = np.random.default_rng(list(entropy))
    lengths = event_lengths(rng, spec.n, spec.events)
    homes = np.nonzero(lengths >= HOME_EVENT)[0]
    if homes.size == 0:
        homes = np.array([int(np.argmax(lengths))])
    home = homes[rng.integers(homes.size, size=spec.tags)]
    event_tags: list[list[int]] = [list(np.nonzero(home == e)[0]) for e in range(spec.events)]
    for own in event_tags:
        others = np.setdiff1d(np.arange(spec.tags), own)
        extra = max(0, spec.tags_per_event - len(own))
        own.extend(rng.choice(others, extra, replace=False))

    rows, frames, starts = [], [], []
    for length, own in zip(lengths, event_tags):
        names = [f"tag{t:03d}" for t in sorted(own)]
        starts.append(len(rows))
        mean = rng.uniform(0.0, 1.0, spec.dim)
        base = rng.uniform(0.5, 0.95, len(names))
        for _ in range(length):
            rows.append(mean + rng.normal(0.0, spec.noise, spec.dim))
            conf = np.clip(base + rng.normal(0.0, 0.1, len(names)), 0.0, 1.0)
            frames.append([(name, float(c)) for name, c in zip(names, conf)])
    table = meaning_table(rng, spec, home) if spec.meanings else None
    return Day(np.asarray(rows), frames, starts, table)


def meaning_table(rng: np.random.Generator, spec: DaySpec, home: np.ndarray) -> dict:
    """A similarity table in ``FileSimilarityProvider``'s schema.

    Meanings fall into families and only meanings of one family are
    similar. First meanings fill the families in equal runs of tags sorted
    by home event, so tags of one event are related and the table has
    about the same size on every seed. Other meanings join random
    families, as the senses of a polysemous word do.
    """
    first = np.empty(spec.tags, dtype=int)
    first[np.argsort(home, kind="stable")] = np.arange(spec.tags) * spec.families // spec.tags
    family_of: dict[str, int] = {}
    meanings: dict[str, list[str]] = {}
    for t in range(spec.tags):
        name = f"tag{t:03d}"
        meanings[name] = [f"{name}.m{k}" for k in range(spec.meanings)]
        family_of[meanings[name][0]] = int(first[t])
        for m in meanings[name][1:]:
            family_of[m] = int(rng.integers(spec.families))
    members: dict[int, list[str]] = {}
    for m in sorted(family_of):
        members.setdefault(family_of[m], []).append(m)
    sims = []
    for fam in sorted(members):
        group = members[fam]
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                sims.append([group[i], group[j], round(float(rng.uniform(0.3, 0.9)), 6)])
    return {"meanings": dict(sorted(meanings.items())), "sims": sims}


def write_inputs(day: Day, out: Path) -> tuple[Path, Path]:
    """Write the features CSV and detections JSON lines the CLI reads."""
    features, detections = out / "features.csv", out / "detections.jsonl"
    with features.open("w") as fh:
        for row in day.contextual:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    with detections.open("w") as fh:
        for k, frame in enumerate(day.frames):
            tags = [{"tag": t, "confidence": c} for t, c in frame]
            fh.write(json.dumps({"id": f"frame{k:05d}", "tags": tags}) + "\n")
    return features, detections


def write_table(day: Day, out: Path) -> Path:
    """Write the similarity table ``FileSimilarityProvider.from_file`` reads."""
    path = out / "similarity.json"
    path.write_text(json.dumps(day.table) + "\n")
    return path
