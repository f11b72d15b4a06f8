"""Command-line entry points: run experiments, verify filter properties, reproduce benchmarks."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .harness import (
    FILTER_ORDER,
    MODELS,
    ExperimentConfig,
    TruthDiverged,
    example1_traces,
    export_csv,
    reproduce_config,
    run_experiment,
    verify_propositions,
)
from .numerics import NotPositiveDefinite


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",") if v.strip()])


def _parse_matrix(text: str) -> np.ndarray:
    rows = [[float(v) for v in row.split(",") if v.strip()] for row in text.split(";")]
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"rows have different numbers of entries: {[len(row) for row in rows]}")
    return np.array(rows)


def load_config_file(path) -> dict[str, str]:
    """Flat `key = value` file; blank lines and '#' comments are ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().lower()] = value.strip()
    return values


_CONFIG_PARSERS = {
    "model": str,
    "steps": int,
    "seed": int,
    "alpha": float,
    "ensemble": int,
    "filters": lambda s: tuple(s.split(",")),
    "ts": float,
    "mu": float,
    "q": float,
    "r": float,
    "x0": _parse_vector,
    "p0": lambda s: float(s) if "," not in s else _parse_vector(s),
    "a": _parse_matrix,
    "c": _parse_matrix,
}


def _config_from_args(args) -> ExperimentConfig:
    """Merge config-file values with CLI flags; explicit flags win."""
    merged: dict[str, object] = {}
    if args.config:
        raw = load_config_file(args.config)
        for key, text in raw.items():
            if key not in _CONFIG_PARSERS:
                raise ValueError(f"unknown config key {key!r} in {args.config}")
            try:
                merged[key] = _CONFIG_PARSERS[key](text)
            except ValueError as exc:
                raise ValueError(f"{args.config}: {key}: {exc}") from exc
    for key in ("model", "steps", "seed", "alpha", "ensemble", "ts", "mu", "q", "r"):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if args.filters is not None:
        merged["filters"] = tuple(args.filters.split(","))
    merged.setdefault("model", None)
    merged.setdefault("steps", 100)
    merged.setdefault("seed", 0)
    if merged["model"] is None:
        raise ValueError("a model must be given via --model or the config file")
    return ExperimentConfig(**merged)


def _run_and_export(cfg: ExperimentConfig, out) -> int:
    records = run_experiment(cfg)
    export_csv(records, out)
    last = records[-1]
    dead = [name for name, m in last.metrics.items() if m.diverged]
    print(f"wrote {len(records)} steps x {len(last.metrics)} filters to {out}")
    if dead:
        print(f"error: filter(s) diverged before the end of the run: {', '.join(dead)}", file=sys.stderr)
        for rec in records:
            for name, m in rec.metrics.items():
                if m.failure:
                    print(f"error: {name} failed at step {rec.step}: {m.failure}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ukfkit", description="State-estimation experiment runner.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and export a CSV")
    run_p.add_argument("--model", choices=MODELS)
    run_p.add_argument("--steps", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--alpha", type=float)
    run_p.add_argument("--ensemble", type=int)
    run_p.add_argument("--filters", help=f"comma list from: {','.join(FILTER_ORDER)}")
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--ts", type=float)
    run_p.add_argument("--mu", type=float)
    run_p.add_argument("--q", type=float)
    run_p.add_argument("--r", type=float)
    run_p.add_argument("--config", help="flat key=value config file; flags override it")

    verify_p = sub.add_parser("verify", help="check the linear-system filter properties")
    verify_p.add_argument("--trials", type=int, default=100)
    verify_p.add_argument("--seed", type=int, default=0)

    repro_p = sub.add_parser("reproduce", help="run one of the four benchmark experiments")
    repro_p.add_argument("--example", type=int, choices=(1, 2, 3, 4), required=True)
    repro_p.add_argument("--out", required=True, help="output directory")
    repro_p.add_argument("--seed", type=int, default=0)
    repro_p.add_argument("--ensemble", type=int)
    repro_p.add_argument("--steps", type=int)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _run_and_export(_config_from_args(args), args.out)
        if args.command == "verify":
            report = verify_propositions(seed=args.seed, trials=args.trials)
            print(report.summary())
            return 0 if report.passed else 1
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg = reproduce_config(args.example, seed=args.seed, ensemble=args.ensemble, steps=args.steps)
        if args.example == 1:
            traces = example1_traces()
            print(
                f"one-step traces: kf {traces['tr_kf']:.4f}, ukf {traces['tr_ukf']:.4f},"
                f" true cost of the ukf gain {traces['tr_at_ukf_gain']:.4f}"
            )
        return _run_and_export(cfg, out_dir / f"example{args.example}.csv")
    except (ValueError, OSError, TruthDiverged, NotPositiveDefinite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
