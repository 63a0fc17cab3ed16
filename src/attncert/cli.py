"""Command-line interface: solve, sweep, certify, selfcheck.

Exit codes: 0 success, 2 usage error (argparse), 3 validation error,
4 certification infeasible (the certified sweep saturated), 5 selfcheck failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .certified import certified_directional_min
from .errors import CertificationInfeasibleError, ValidationError, check_int
from .harness import (
    AGGREGATE_COLUMNS,
    SweepConfig,
    aggregate_records,
    attack_min_margin,
    keyed_rng,
    run_sweep,
    selfcheck,
    write_aggregate_csv,
    write_trial_csv,
)
from .model import _require_keys, forward, load_model, read_json
from .solver import ScoreBox, directional_min
from .verify import certify_targets, pixel_box

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_INFEASIBLE = 4
EXIT_INTERNAL = 5

REPORT_SCHEMA = "certify-report/1"


def _number_array(doc: dict, key: str, path: str) -> np.ndarray:
    v = doc[key]
    if not isinstance(v, list) or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
        raise ValidationError(f"{path}: field '{key}' must be a list of numbers")
    return np.asarray(v, dtype=np.float64)


def cmd_solve(args: argparse.Namespace) -> int:
    doc = read_json(args.instance)
    _require_keys(doc, {"c", "ell", "u"}, set(), args.instance)
    c, ell, u = (_number_array(doc, key, args.instance) for key in ("c", "ell", "u"))
    box = ScoreBox(lower=ell, upper=u)
    res = directional_min(c, box)
    print(f"value={res.value!r} m={res.m} sense={res.sense}")
    print("vertex=[" + ", ".join(repr(float(v)) for v in res.vertex) + "]")
    if args.certified:
        cb = certified_directional_min(c, box)
        if cb.saturated:
            print("certified_lower=unavailable (saturated)", file=sys.stderr)
            return EXIT_INFEASIBLE
        print(f"certified_lower={cb.lower!r}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        k_values=tuple(args.k),
        trials=args.trials,
        seed=args.seed,
        width_scale=args.width_scale,
        coeff_scale=args.coeff_scale,
    )
    records = run_sweep(config, attack_budget=args.budget)
    if args.out is not None:
        write_trial_csv(records, args.out)
    if args.agg_out is not None:
        write_aggregate_csv(records, args.agg_out)
    print(",".join(AGGREGATE_COLUMNS))
    for row in aggregate_records(records):
        print(
            f"{row['K']},{row['method']},{row['cert_rate']:.4f},"
            f"{row['mean_lower']:.6g},{row['mean_gap']:.6g},{row['total_time_s']:.6f}"
        )
    return EXIT_OK


def _predicted_class(model, x0: np.ndarray) -> int:
    """The clean prediction, the default label.  A model whose logits
    overflow at x0 has no prediction: that is a validation error."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits = forward(model, x0)
    if not np.all(np.isfinite(logits)):
        raise ValidationError("model logits at the input are not finite")
    return int(np.argmax(logits))


def cmd_certify(args: argparse.Namespace) -> int:
    t_start = time.perf_counter()
    seed = check_int("seed", args.seed, 0)
    model = load_model(args.model)
    if args.input is not None:
        doc = read_json(args.input)
        _require_keys(doc, {"x"}, {"y"}, args.input)
        x0 = _number_array(doc, "x", args.input)
        if "y" in doc:
            y = doc["y"]
            if not isinstance(y, int) or isinstance(y, bool):
                raise ValidationError(f"{args.input}: field 'y' must be an integer class index")
        else:
            y = _predicted_class(model, x0)
    else:
        x0 = keyed_rng(seed, model.image_size).uniform(0.0, 1.0, model.image_size)
        y = _predicted_class(model, x0)

    box = pixel_box(x0, args.epsilon)
    result = certify_targets(model, box, y, certified=args.certified)

    attacks = attack_min_margin(model, box, y, [b.target for b in result.bounds], args.budget, seed=seed).tolist()

    time_ms = int(round((time.perf_counter() - t_start) * 1e3))
    min_hybrid = min(b.l_hybrid for b in result.bounds)
    report = {
        "schema": REPORT_SCHEMA,
        "model": args.model,
        "epsilon": args.epsilon,
        "y": y,
        "certified": result.certified,
        "certified_mode": bool(args.certified),
        "min_hybrid": min_hybrid,
        "budget": args.budget,
        "time_ms": time_ms,
        "targets": [
            {
                "target": b.target,
                "l_vertex": b.l_vertex,
                "l_baseline": b.l_baseline,
                "l_hybrid": b.l_hybrid,
                "attack": attacks[i],
            }
            for i, b in enumerate(result.bounds)
        ],
    }
    text = json.dumps(report, indent=1)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(
        f"certified={'true' if result.certified else 'false'} "
        f"min_hybrid={min_hybrid!r} targets={len(result.bounds)} time_ms={time_ms}"
    )
    return EXIT_OK


def cmd_selfcheck(args: argparse.Namespace) -> int:
    report = selfcheck(trials=args.trials, samples=args.samples, seed=args.seed)
    for suite in report.suites:
        line = f"{suite.name}: checked={suite.checked} failures={suite.failures}"
        if suite.failures:
            line += " failing_seeds=" + ",".join(str(s) for s in suite.failing_seeds)
        print(line)
    if not report.passed:
        print("selfcheck FAILED", file=sys.stderr)
        return EXIT_INTERNAL
    print("selfcheck passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attncert",
        description="Exact directional softmax bounds over score boxes and attention-model certification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file (JSON with c, ell, u)")
    p_solve.add_argument("instance", help="instance file path")
    p_solve.add_argument("--certified", action="store_true", help="also print the certified lower bound")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run a synthetic sweep and emit CSV records")
    p_sweep.add_argument("--k", type=int, nargs="+", required=True, help="box sizes to sweep")
    p_sweep.add_argument("--trials", type=int, default=50, help="trials per K")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--width-scale", type=float, default=1.0)
    p_sweep.add_argument("--coeff-scale", type=float, default=1.0)
    p_sweep.add_argument("--budget", type=int, default=200, help="attack sample budget per trial")
    p_sweep.add_argument("--out", default=None, help="per-trial CSV path")
    p_sweep.add_argument("--agg-out", default=None, help="aggregate CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cert = sub.add_parser("certify", help="certify a model on one input box")
    p_cert.add_argument("model", help="model weight file (JSON)")
    p_cert.add_argument("--input", default=None, help="input file (JSON with x and optional y)")
    p_cert.add_argument("--epsilon", type=float, default=0.0, help="pixel box radius")
    p_cert.add_argument("--seed", type=int, default=0, help="seed for the generated input and attacks")
    p_cert.add_argument("--budget", type=int, default=200, help="attack sample budget, shared by all targets")
    p_cert.add_argument("--certified", action="store_true", help="route the vertex arm through the certified sweep")
    p_cert.add_argument("--out", default=None, help="JSON report path (stdout when omitted)")
    p_cert.set_defaults(func=cmd_certify)

    p_check = sub.add_parser("selfcheck", help="run the release property suites")
    p_check.add_argument("--trials", type=int, default=200)
    p_check.add_argument("--samples", type=int, default=200)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CertificationInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
