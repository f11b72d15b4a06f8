#!/usr/bin/env python3
"""ukfkit benchmark: drives `ukfkit.cli.main(argv)` in-process the way users do.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; ukfkit is imported from `src/` of the
tree that holds this file.  Each run makes warm-up call 0, then times calls
1, 2, ... until `--seconds` have passed, with call i using seed
1000 * N + i.  Each call is preceded by a machine-speed probe (probes.py),
which scales its time to a nominal machine speed.  With `--trace 0` it prints
the end-to-end metrics (`items_per_s`, `setup_s`, `peak_rss_mb`); with
`--trace 1` it spends half the time untraced and half with span hooks
installed, prints the per-layer metrics, and writes the spans to
`.bench_out/`.  The last stdout line is the JSON result; the line before it
holds run information (environment, raw timings, CSV sha256s, sample
counts, per-layer busy shares).  Everything runs in this one process on one
thread, with the BLAS pools pinned to one thread.
"""

import os

BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Callable  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import probes  # noqa: E402
from spans import LAYER_METRICS, Tracer, layer_report  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
MAX_CALLS = 1000  # call seeds are 1000 * seed + i
SIGMA_FILTERS = ("ekf", "ukf", "eukfa", "eukfc")
LINEAR_CONFIG = Path(__file__).resolve().parent / "linear-4x2.cfg"


@dataclass(frozen=True)
class Workload:
    """One CLI command, repeated with fresh seeds; an item is one trajectory step."""

    command: str  # "reproduce" or "run"
    why: str
    probe: Callable[[], float]  # machine-speed probe of the same grain, see probes.py
    steps: int
    filters: tuple[str, ...]
    ensemble: int = 0
    model: tuple[str, ...] = ()  # `run` arguments that pick the model

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        if self.command == "reproduce":
            return ["reproduce", "--example", "4", "--ensemble", str(self.ensemble),
                    "--steps", str(self.steps), "--seed", str(seed), "--out", str(out_dir)]
        return ["run", *self.model, "--filters", ",".join(self.filters),
                "--steps", str(self.steps), "--seed", str(seed), "--out", str(out_dir / "run.csv")]

    def csv_path(self, out_dir: Path) -> Path:
        return out_dir / ("example4.csv" if self.command == "reproduce" else "run.csv")


WORKLOADS = {
    "ensemble-lorenz": Workload(
        "reproduce",
        "20k-member EnKF at the acceptance size: enkf_step and its Philox draws dominate",
        probes.ensemble_arrays,
        steps=100,
        filters=("enkf",) + SIGMA_FILTERS,
        ensemble=20_000,
    ),
    "sigma-lorenz": Workload(
        "run",
        "sigma-point and EKF steps on 3x3 Lorenz, no EnKF: Python per-call overhead dominates",
        probes.small_matrices,
        steps=300,
        filters=SIGMA_FILTERS,
        model=("--model", "lorenz"),
    ),
    "linear-4x2": Workload(
        "run",
        "kf/ukf/eukfa/eukfc on a fixed 4-state, 2-output linear system: guards shapes other than 3x1",
        probes.small_matrices,
        steps=300,
        filters=("kf", "ukf", "eukfa", "eukfc"),
        model=("--config", str(LINEAR_CONFIG)),
    ),
}


@dataclass
class Tally:
    """Operations attempted and failed, plus what the checks saw."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    sha256: dict[int, str] = field(default_factory=dict)
    csv_bytes: list[int] = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        self.notes.append(note)


def _tail_mean(values: list[float]) -> float:
    tail = values[len(values) // 2:]
    return math.fsum(tail) / len(tail)


def check_csv(wl: Workload, path: Path, rc: int, index: int, tally: Tally) -> None:
    """One operation per filter trajectory; a filter fails on divergence, a gate, or a bad value.

    The gates: with an ensemble, the tail relerr of eukfa and eukfc is below
    0.05 and the UKF's is at least twice either; with an EKF, the eukfa and
    eukfc traces stay within 2% of its trace; with a KF (linear system),
    the eukfa and eukfc traces equal its trace to 1e-9 relative at every
    step and the UKF's trace departs from it.
    """
    filters = wl.filters
    tally.attempted += len(filters)
    if not path.is_file():
        tally.fail(len(filters), f"call {index}: no CSV written (exit code {rc})")
        return
    data = path.read_bytes()
    tally.csv_bytes.append(len(data))
    tally.sha256[index] = hashlib.sha256(data).hexdigest()
    rows = list(csv.reader(io.StringIO(data.decode("utf-8", errors="replace"))))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    expected = ["k"] + [f"{c}_{f}" for f in filters for c in ("trP", "relerr", "z", "enorm")]
    if header != expected or len(body) != wl.steps or any(len(r) != len(header) for r in body):
        tally.fail(len(filters), f"call {index}: CSV has header {header} and {len(body)} rows")
        return
    bad: dict[str, str] = {}
    col: dict[str, list[float]] = {name: [] for name in header[1:]}
    for row in body:
        for name, text in zip(header[1:], row[1:]):
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if format(value, ".17g") != text:
                bad.setdefault(name.split("_", 1)[1], f"{name} value {text!r} does not round-trip")
            col[name].append(value)
    for f in filters:
        if not math.isfinite(col[f"trP_{f}"][-1]):
            bad.setdefault(f, "diverged")
    if "enkf" in filters:
        rel = {f: _tail_mean(col[f"relerr_{f}"]) for f in ("ukf", "eukfa", "eukfc")}
        for f in ("eukfa", "eukfc"):
            if not rel[f] < 0.05:
                bad.setdefault(f, f"tail relerr {rel[f]:.4g} >= 0.05")
        if not rel["ukf"] >= 2.0 * max(rel["eukfa"], rel["eukfc"]):
            bad.setdefault("ukf", f"tail relerr {rel['ukf']:.4g} < 2x corrected variants")
    elif "ekf" in filters:
        tr_ekf = col["trP_ekf"]
        for f in ("eukfa", "eukfc"):
            gap = _tail_mean([abs(a - b) / b if b else math.nan for a, b in zip(col[f"trP_{f}"], tr_ekf)])
            if not gap < 0.02:
                bad.setdefault(f, f"trace gap to ekf {gap:.4g} >= 0.02")
    else:
        tr_kf = col["trP_kf"]
        for f in ("ukf", "eukfa", "eukfc"):
            gap = max(abs(a - b) / b if b > 0 else math.nan for a, b in zip(col[f"trP_{f}"], tr_kf))
            if f == "ukf" and not gap > 1e-6:
                bad.setdefault(f, f"trace never departs from the kf's (largest gap {gap:.4g})")
            elif f != "ukf" and not gap <= 1e-9:
                bad.setdefault(f, f"trace differs from the kf's by {gap:.4g} > 1e-9")
    if rc != 0 and not bad:
        bad = {f: f"exit code {rc}" for f in filters}
    if bad:
        tally.fail(len(bad), f"call {index}: " + "; ".join(f"{f}: {why}" for f, why in sorted(bad.items())))


def run_call(cli, wl: Workload, seed: int, index: int, work: Path, tally: Tally) -> float:
    """Time one `cli.main` call (looked up now, so hooks apply), then check its output."""
    argv = wl.argv(1000 * seed + index, work)
    out, err = io.StringIO(), io.StringIO()
    rc = -1
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = cli.main(argv)
            elapsed = time.perf_counter() - t0
    except Exception:  # a crashing call is a failed call; keep measuring the rest
        elapsed = time.perf_counter() - t0
        err.write(traceback.format_exc())
    if rc != 0 and err.getvalue():
        tally.notes.append(f"call {index} stderr: {err.getvalue().strip()[-500:]}")
    path = wl.csv_path(work)
    check_csv(wl, path, rc, index, tally)
    path.unlink(missing_ok=True)
    return elapsed


def measure(cli, wl: Workload, seed: int, seconds: float, work: Path, tally: Tally) -> list[tuple[float, float]]:
    """(call seconds, probe seconds just before it) for calls 1, 2, ... until `seconds` have passed."""
    samples: list[tuple[float, float]] = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MAX_CALLS - 1:
        probe_s = wl.probe()
        samples.append((run_call(cli, wl, seed, len(samples) + 1, work, tally), probe_s))
        if time.perf_counter() >= deadline:
            break
    return samples


def measure_setup() -> list[tuple[float, float]]:
    """(import seconds, probe import seconds) from fresh interpreters; see probes.IMPORT_CODE."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", probes.IMPORT_CODE, str(SRC)],
            cwd=ROOT, env=dict(os.environ), capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, probe_s, module_file = proc.stdout.split(maxsplit=2)
        if not Path(module_file.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported ukfkit from {module_file.strip()}, not {SRC}")
        samples.append((float(seconds), float(probe_s)))
    return samples


def rate_summary(wl: Workload, samples: list[tuple[float, float]]) -> dict:
    """Items/s scaled to the nominal machine speed: median, slow tail with ten calls below it, count.

    The raw median is reported too.
    """
    rates = sorted(wl.steps / call_s * probe_s / probes.PROBE_NOMINAL_S for call_s, probe_s in samples)
    n = len(rates)
    k = 10 if n > 10 else 0
    return {
        "median": statistics.median(rates),
        f"p{100 * k / n:.0f}": rates[k],
        "samples": n,
        "raw_median": statistics.median(wl.steps / call_s for call_s, _ in samples),
        "probe_median_s": statistics.median(probe_s for _, probe_s in samples),
    }


def _blas_version(module) -> str:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "ukfkit").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": _blas_version(numpy), "scipy": _blas_version(scipy)},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_PINS},
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "machine": platform.machine(),
        "seed": seed,
    }


def load_cli():
    """Import ukfkit.cli from this tree's src/, or exit 2 when it is not there."""
    if not (SRC / "ukfkit" / "__init__.py").is_file():
        print(f"error: no ukfkit sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import ukfkit.cli

    if not Path(ukfkit.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: ukfkit imported from {ukfkit.cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return ukfkit.cli


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    wl = WORKLOADS[args.workload]
    cli = load_cli()

    info: dict = {"workload": args.workload, "why": wl.why, "items_per_call": wl.steps,
                  "environment": environment(args.seed)}
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(exist_ok=True)
    try:
        if not args.trace:
            setup = measure_setup()
        run_call(cli, wl, args.seed, 0, work, tally)  # warm-up: lazy imports, caches, allocator
        budget = args.seconds / 2 if args.trace else args.seconds
        plain = measure(cli, wl, args.seed, budget, work, tally)
        info["items_per_s"] = rate_summary(wl, plain)
        if args.trace:
            untraced_sha = dict(tally.sha256)
            with Tracer() as tracer:
                traced = measure(cli, wl, args.seed, budget, work, tally)
            mismatched = [i for i in range(1, len(traced) + 1)
                          if i in untraced_sha and tally.sha256.get(i) != untraced_sha[i]]
            if mismatched:
                tally.fail(len(mismatched), f"traced calls {mismatched} wrote different CSV bytes than untraced")
            values, info["trace"] = layer_report(tracer, len(traced), math.fsum(t for t, _ in traced), wl.ensemble)
            values["trace.overhead_ratio"] = info["items_per_s"]["median"] / rate_summary(wl, traced)["median"]
            values["harness.csv_bytes"] = statistics.fmean(tally.csv_bytes) if tally.csv_bytes else 0.0
            values["fail_ratio"] = tally.failed / max(tally.attempted, 1)
            info["trace"]["absent"] = tracer.absent
            info["trace"]["traced_calls"] = len(traced)
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
            tracer.save(trace_file)
            info["trace"]["file"] = str(trace_file.relative_to(ROOT))
            # Layer times are scaled by the traced calls' median probe, like the end-to-end times.
            speed = probes.PROBE_NOMINAL_S / statistics.median(p for _, p in traced)
            scale = {"ms": speed, "us": speed, "s": speed, "1/s": 1 / speed}
            metrics = {name: metric(float(values[name]) * scale.get(unit, 1.0), unit)
                       for name, (unit, *_) in LAYER_METRICS.items()}
        else:
            info["setup_s"] = {"raw": [t for t, _ in setup], "probe": [p for _, p in setup]}
            metrics = {
                "items_per_s": metric(info["items_per_s"]["median"], "1/s"),
                "setup_s": metric(statistics.median(t * probes.IMPORT_NOMINAL_S / p for t, p in setup), "s"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["csv_sha256"] = {str(i): h for i, h in sorted(tally.sha256.items())}
    info["notes"] = tally.notes[:50]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
