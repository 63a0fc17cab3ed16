"""The benchmark's four workloads: inputs, the timed call, output checks and
quality figures.

Shape M: 16 tokens, 4 heads, d_model 16, d_head 4, 10 classes, residual.
Models are fixed (``random_model`` seeds 0..5), as for a deployed model that
is certified on fresh inputs; the run seed draws the pixel inputs and the
sweep seeds.  Drawing the models from the run seed as well made the
quality figures of one run depend mostly on which six models it drew.
"""

from __future__ import annotations

import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import attncert
import attncert.cli
import attncert.harness

EPSILONS = (0.001, 0.003, 0.01)
SHAPE_M = dict(tokens=16, heads=4, d_model=16, d_head=4, n_classes=10, residual=True)
MODEL_SEEDS = tuple(range(6))
SWEEP_KS = (4, 16, 64, 256)
# Trials per K in one `rows` item: a sweep call of about 0.1 s, so that one
# item's latency averages over the cost spread of single trials.
SWEEP_TRIALS = 4
ATTACK_BUDGET = 200
EXHAUSTIVE_MAX_K = 16

# Round-to-nearest slack allowed where two computations of one real number
# are compared.  CLEAN_RTOL: a margin bound against the clean margin or the
# CLI's attack.  ARM_RTOL: the vertex arm against the baseline arm, and on
# `rows` every bound against the attack and the box-center value (the attack
# can sit one ulp below the exact vertex value).
CLEAN_RTOL = 1e-9
ARM_RTOL = 1e-12


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _model(seed: int, suffix_kind: str):
    return attncert.random_model(seed=seed, suffix_kind=suffix_kind, hidden=32, **SHAPE_M)


def _scale(*values: float) -> float:
    return max(1.0, *(abs(v) for v in values))


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


@dataclass(frozen=True, eq=False)
class Box:
    """One pixel box: model index, clean input, radius, label and the clean
    margins logit_y - logit_t for every class t."""

    index: int
    model: int
    x0: np.ndarray
    eps: float
    y: int
    clean: np.ndarray


def _boxes(models, seed: int, stream: int, size: int) -> list[Box]:
    rng = _rng(seed, stream)
    out = []
    for i in range(size):
        m = i % len(models)
        model = models[m]
        x0 = rng.uniform(0.0, 1.0, model.image_size)
        logits = attncert.forward(model, x0)
        y = int(np.argmax(logits))
        eps = EPSILONS[(i // len(models)) % len(EPSILONS)]
        out.append(Box(index=i, model=m, x0=x0, eps=eps, y=y, clean=logits[y] - logits))
    return out


def _bound_problems(box: Box, targets, fast: bool) -> list[str]:
    """Checks shared by the verify and report workloads.  `targets` holds
    (target, l_vertex, l_baseline, l_hybrid, attack or None)."""
    problems = []
    expected = [t for t in range(len(box.clean)) if t != box.y]
    if [t[0] for t in targets] != expected:
        problems.append(f"box {box.index}: targets {[t[0] for t in targets]} != {expected}")
        return problems
    for t, lv, lb, lh, attack in targets:
        where = f"box {box.index} target {t}"
        if not _finite(lv, lb, lh):
            problems.append(f"{where}: non-finite bound ({lv}, {lb}, {lh})")
            continue
        clean = float(box.clean[t])
        for arm, v in (("vertex", lv), ("baseline", lb), ("hybrid", lh)):
            if v > clean + CLEAN_RTOL * _scale(clean):
                problems.append(f"{where}: {arm} bound {v!r} above the clean margin {clean!r}")
            if attack is not None and v > attack + CLEAN_RTOL * _scale(attack):
                problems.append(f"{where}: {arm} bound {v!r} above the attack {attack!r}")
        if fast and lv < lb - ARM_RTOL * _scale(lb):
            problems.append(f"{where}: vertex {lv!r} below baseline {lb!r}")
    return problems


class CertifyWorkload:
    """`certify_targets` on one pixel box per item (`verify`, `verify-certified`)."""

    def __init__(self, name: str, suffix_kind: str, certified: bool, pool_size: int, stream: int):
        self.name = name
        self.suffix_kind = suffix_kind
        self.certified = certified
        self.pool_size = pool_size
        self.stream = stream

    def build(self, seed: int, size: int | None = None, tag: str = "pool") -> list[Box]:
        self.models = [_model(s, self.suffix_kind) for s in MODEL_SEEDS]
        return _boxes(self.models, seed, self.stream, size or self.pool_size)

    def run(self, box: Box, certified: bool | None = None):
        mode = self.certified if certified is None else certified
        pixels = attncert.pixel_box(box.x0, box.eps)
        return attncert.certify_targets(self.models[box.model], pixels, box.y, certified=mode)

    def collect(self, box: Box, raw):
        return raw

    @staticmethod
    def _rows(result):
        return [(b.target, b.l_vertex, b.l_baseline, b.l_hybrid, None) for b in result.bounds]

    def check(self, box: Box, result) -> list[str]:
        if result.y != box.y:
            return [f"box {box.index}: result for class {result.y}, asked {box.y}"]
        return _bound_problems(box, self._rows(result), fast=not self.certified)

    def fingerprint(self, result):
        return (result.y, result.certified, tuple((b.target, b.l_vertex, b.l_baseline, b.l_hybrid) for b in result.bounds))

    def reference_values(self, box: Box) -> list[float]:
        result = self.run(box, certified=False)
        return [v for row in self._rows(result) for v in row[1:4]]

    def quality(self, boxes: list[Box], results) -> dict[str, float]:
        margins = [(float(box.clean[b.target]), b) for box, r in zip(boxes, results) for b in r.bounds]
        return {
            "certified_frac": sum(b.l_hybrid > 0.0 for _, b in margins) / len(margins),
            "mean_gap": sum(c - b.l_hybrid for c, b in margins) / len(margins),
            "boxes_certified_frac": sum(r.certified for r in results) / len(results),
            "baseline.win_ratio": sum(b.l_baseline > b.l_vertex for _, b in margins) / len(margins),
        }

    def close(self) -> None:
        pass


@dataclass(frozen=True, eq=False)
class Invocation:
    box: Box
    argv: tuple[str, ...]
    out: Path


class ReportWorkload:
    """In-process `attncert certify` on a saved model, one invocation per item."""

    name = "report"

    def __init__(self, workdir: Path, pool_size: int, stream: int):
        self.workdir = workdir
        self.pool_size = pool_size
        self.stream = stream

    def build(self, seed: int, size: int | None = None, tag: str = "pool") -> list[Invocation]:
        self.workdir.mkdir(parents=True, exist_ok=True)
        models = [_model(s, "linear") for s in MODEL_SEEDS]
        paths = []
        for m, model in zip(MODEL_SEEDS, models):
            path = self.workdir / f"model-{m}.json"
            attncert.save_model(model, str(path))
            paths.append(path)
        out = []
        for box in _boxes(models, seed, self.stream, size or self.pool_size):
            inp = self.workdir / f"{tag}-{box.index}-input.json"
            inp.write_text(json.dumps({"x": [float(v) for v in box.x0]}), encoding="utf-8")
            res = self.workdir / f"{tag}-{box.index}-report.json"
            argv = (
                "certify", str(paths[box.model]), "--input", str(inp), "--epsilon", repr(box.eps),
                "--budget", str(ATTACK_BUDGET), "--out", str(res),
            )
            out.append(Invocation(box=box, argv=argv, out=res))
        return out

    def run(self, inv: Invocation):
        # The CLI's summary line goes to a buffer; the benchmark owns stdout.
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = attncert.cli.main(list(inv.argv))
        return code, err.getvalue()

    def collect(self, inv: Invocation, raw):
        code, err = raw
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.strip()}")
        report = json.loads(inv.out.read_text(encoding="utf-8"))
        inv.out.unlink()
        return report

    @staticmethod
    def _rows(report):
        return [(t["target"], t["l_vertex"], t["l_baseline"], t["l_hybrid"], t["attack"]) for t in report["targets"]]

    def check(self, inv: Invocation, report) -> list[str]:
        box = inv.box
        if report["y"] != box.y or report["certified_mode"]:
            return [f"box {box.index}: report for class {report['y']} (mode {report['certified_mode']}), expected {box.y}"]
        return _bound_problems(box, self._rows(report), fast=True)

    def fingerprint(self, report):
        return json.dumps({k: v for k, v in report.items() if k != "time_ms"}, sort_keys=True)

    def reference_values(self, inv: Invocation) -> list[float]:
        report = self.collect(inv, self.run(inv))
        return [v for row in self._rows(report) for v in row[1:4]]

    def quality(self, invs: list[Invocation], reports) -> dict[str, float]:
        targets = [t for r in reports for t in r["targets"]]
        return {
            "certified_frac": sum(t["l_hybrid"] > 0.0 for t in targets) / len(targets),
            "mean_gap": sum(t["attack"] - t["l_hybrid"] for t in targets) / len(targets),
            "boxes_certified_frac": sum(r["certified"] for r in reports) / len(reports),
            "baseline.win_ratio": sum(t["l_baseline"] > t["l_vertex"] for t in targets) / len(targets),
        }

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


@dataclass(frozen=True, eq=False)
class Sweep:
    index: int
    seed: int


class RowsWorkload:
    """`run_sweep` over K in SWEEP_KS with SWEEP_TRIALS trials per item."""

    name = "rows"

    def __init__(self, pool_size: int, stream: int):
        self.pool_size = pool_size
        self.stream = stream
        self._reference: dict[tuple[int, int, int], tuple] = {}

    def build(self, seed: int, size: int | None = None, tag: str = "pool") -> list[Sweep]:
        seeds = np.random.SeedSequence([seed, self.stream]).generate_state(size or self.pool_size, dtype=np.uint64)
        return [Sweep(index=i, seed=int(s)) for i, s in enumerate(seeds)]

    def run(self, sweep: Sweep):
        config = attncert.SweepConfig(k_values=SWEEP_KS, trials=SWEEP_TRIALS, seed=sweep.seed)
        return attncert.run_sweep(config, attack_budget=ATTACK_BUDGET)

    def collect(self, sweep: Sweep, raw):
        return raw

    def _cell_reference(self, sweep: Sweep, k: int, trial: int):
        """Objective at the box center and, for small K, the exhaustive minimum."""
        key = (sweep.seed, k, trial)
        if key not in self._reference:
            c, box = attncert.synth_instance(k, attncert.harness.trial_seed(sweep.seed, k, trial))
            center = attncert.softmax_objective(c, 0.5 * (box.lower + box.upper))
            exhaustive = attncert.exhaustive_vertex_min(c, box).value if k <= EXHAUSTIVE_MAX_K else None
            self._reference[key] = (_scale(*c), center, exhaustive)
        return self._reference[key]

    @staticmethod
    def _cells(records):
        cells: dict[tuple[int, int], dict[str, object]] = {}
        for r in records:
            cells.setdefault((r.K, r.trial), {})[r.method] = r
        return cells

    def check(self, sweep: Sweep, records) -> list[str]:
        problems = []
        cells = self._cells(records)
        expected = {(k, t) for k in SWEEP_KS for t in range(SWEEP_TRIALS)}
        if set(cells) != expected or any(set(c) != set(attncert.harness.METHODS) for c in cells.values()):
            return [f"sweep {sweep.index}: records do not cover K x trial x method"]
        for (k, trial), cell in cells.items():
            where = f"sweep {sweep.index} K={k} trial={trial}"
            scale, center, exhaustive = self._cell_reference(sweep, k, trial)
            for method, r in cell.items():
                if not _finite(r.lower, r.attack):
                    problems.append(f"{where} {method}: non-finite ({r.lower}, {r.attack})")
                    continue
                if r.lower > r.attack + ARM_RTOL * scale:
                    problems.append(f"{where} {method}: bound {r.lower!r} above the attack {r.attack!r}")
                if r.lower > center + ARM_RTOL * scale:
                    problems.append(f"{where} {method}: bound {r.lower!r} above the box-center value {center!r}")
            vertex, base, cert = (cell[m].lower for m in ("vertex", "baseline", "certified"))
            if vertex < base - ARM_RTOL * scale:
                problems.append(f"{where}: vertex {vertex!r} below baseline {base!r}")
            if not cert <= vertex:
                problems.append(f"{where}: certified {cert!r} above vertex {vertex!r}")
            if exhaustive is not None and abs(vertex - exhaustive) > ARM_RTOL * scale:
                problems.append(f"{where}: vertex {vertex!r} != exhaustive {exhaustive!r}")
        return problems

    def fingerprint(self, records):
        return tuple((r.K, r.trial, r.method, r.lower, r.attack) for r in records)

    def reference_values(self, sweep: Sweep) -> list[float]:
        return [r.lower for r in self.run(sweep) if r.method in ("vertex", "baseline")]

    def quality(self, sweeps: list[Sweep], runs) -> dict[str, float]:
        cells = [cell for records in runs for cell in self._cells(records).values()]
        records = [r for recs in runs for r in recs]
        return {
            "certified_frac": sum((c["certified"].lower > 0.0) == (c["vertex"].lower > 0.0) for c in cells) / len(cells),
            "mean_gap": sum(r.gap for r in records) / len(records),
            "baseline.win_ratio": sum(c["baseline"].lower > c["vertex"].lower for c in cells) / len(cells),
        }

    def close(self) -> None:
        pass


def make(name: str, workdir: Path, pool_size: int | None = None):
    """The workload called `name`; pool_size overrides the default pool."""
    if name == "verify":
        return CertifyWorkload("verify", "mlp1", certified=False, pool_size=pool_size or 120, stream=1)
    if name == "verify-certified":
        return CertifyWorkload("verify-certified", "linear", certified=True, pool_size=pool_size or 42, stream=2)
    if name == "report":
        return ReportWorkload(workdir, pool_size=pool_size or 27, stream=3)
    if name == "rows":
        return RowsWorkload(pool_size=pool_size or 125, stream=4)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify", "verify-certified", "report", "rows")
