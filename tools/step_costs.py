"""Per-call cost of the stacked filter step and of the EnKF step, as timeit minima.

    python tools/step_costs.py [TREE]

Times the ukfkit of TREE/src (default: this tree), so that two trees can be
compared in one session.  BLAS is pinned to one thread, and scipy is not
imported.  Each case is timed in every one of ROUNDS rounds, which run one
after the other over all cases, so that a burst of load on a shared host
spoils a round rather than a case; each line is the smallest per-call time
over all rounds:

* ``ukf.stack_step`` on Lorenz for a ukf stack, an eukfa stack and the
  (ekf, ukf, eukfa, eukfc) stack, each at 1x, 4x, 16x and 64x its slices,
  every slice from one step-20 posterior;
* the (kf, ukf, eukfa, eukfc) stack on the benchmark's linear-4x2 system;
* ``enkf_step`` on Lorenz at 16 and at 20,000 members, stepped in a chain,
  and the step's process-noise draw alone at 20,000 members: the tree's
  ``enkf._process_noise`` sampler where it has one, else SFC64's
  ``standard_normal(out=)``;
* ``simulate_truth``, ``run_experiment`` and ``export_csv`` (to a
  temporary file) on the benchmark's sigma-lorenz and linear-4x2 runs, 300
  steps at seed 7, and on the last command of ``tools/cmp_outputs.sh``
  (ex1-replay: linear-ex1, all five covariance-form filters, alpha 0.2, 300
  steps at seed 2), where a failed stack is replayed as one-slice stacks at
  steps 43 and 44 and kf and ekf run on as one stack: what a call costs
  outside the stacked step.  No benchmark workload has a filter fail, so
  only the last run puts the replay path's cost on record;
* each routine of ``numerics``' LAPACK layer (``cholesky``, the two
  ``solve`` calls of ``cholesky_solve``, ``solve``, ``qr_raw``) against its
  ``numpy.linalg`` wrapper, at the shapes the benchmark's sigma-lorenz and
  linear-4x2 stacked steps give it: the posterior factors of four 3-state
  and four 4-state slices, the four 2x2 P_z of linear-4x2 and its gain's
  solves, eukfa's Jacobian solve on Lorenz, and eukfa's (2n, n) QR at n = 3
  and 4, each QR on a fresh copy, as np.linalg.qr makes one; a tree
  without the layer prints only the wrapper's time;
* ``verify_propositions(seed=0, trials=100)``, what ``ukfkit verify`` runs,
  as the smallest of VERIFY_REPEATS calls after the rounds: a call takes
  seconds, too long for a round.

A step's time at 64x, divided by its slices, is what one more slice costs.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import timeit
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parents[1]
ROUNDS = 12
WIDTHS = (1, 4, 16, 64)
STACKS = {"ukf": ("ukf",), "eukfa": ("eukfa",), "ekf+ukf+eukfa+eukfc": ("ekf", "ukf", "eukfa", "eukfc")}
RUN_CALLS = ("simulate_truth", "run_experiment", "export_csv")
VERIFY_REPEATS = 3


def best_us(cases: dict, loop_s: float = 0.005, repeats: int = 3) -> dict:
    """For each case's callable, the smallest per-call time in microseconds over ROUNDS rounds of `repeats` loops of about loop_s."""
    timers = {}
    for label, fn in cases.items():
        timer = timeit.Timer(fn)
        number, elapsed = timer.autorange()
        timers[label] = timer, max(1, int(number * loop_s / elapsed))
    best = dict.fromkeys(cases, float("inf"))
    for _ in range(ROUNDS):
        for label, (timer, number) in timers.items():
            best[label] = min(best[label], min(timer.repeat(repeats, number)) / number * 1e6)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", default=str(HERE), help="a directory holding src/ukfkit")
    tree = Path(parser.parse_args(argv).tree).resolve()
    sys.path.insert(0, str(tree / "src"))
    import numpy as np

    from ukfkit import enkf, numerics
    from ukfkit.cli import _config_from_args
    from ukfkit.enkf import enkf_init, enkf_step
    from ukfkit.harness import build_model, export_csv, run_experiment, simulate_truth, verify_propositions
    from ukfkit.statespace import StateEstimate, jacobian_dynamics, make_lorenz
    from ukfkit.ukf import stack_step

    assert "scipy" not in sys.modules, "ukfkit imported scipy"
    print(f"# ukfkit from {tree / 'src'}, numpy {np.__version__}, timeit minima per call")

    def posterior(model, names, steps=20):
        """The step-`steps` posterior of a one-slice names[0] stack on the model's seed-7 truth, and the next measurement."""
        _, meas = simulate_truth(model, np.ones(model.l_x), steps + 1, seed=7)
        est = StateEstimate(np.ones(model.l_x), np.eye(model.l_x))
        carry = est.mean[None], est.cov[None], est.sigma_factor()[None]
        for k in range(steps):
            rec, factors = stack_step(model, names[:1], k, *carry, meas[k + 1])
            carry = rec.posterior_mean, rec.posterior_cov, factors
        return carry, meas[steps + 1], steps

    def stack_case(model, names, carry, y, k):
        arrays = [np.repeat(a, len(names), axis=0) for a in carry]
        return lambda: stack_step(model, names, k, *arrays, y)

    cases = {}
    lorenz = make_lorenz()
    carry, y, k = posterior(lorenz, ("ukf",))
    for label, names in STACKS.items():
        for w in WIDTHS:
            cases[label, w] = stack_case(lorenz, names * w, carry, y, k)
    names = ("kf", "ukf", "eukfa", "eukfc")
    cfg = _config_from_args(argparse.Namespace(config=str(HERE / "bench" / "linear-4x2.cfg"), filters=",".join(names)))
    linear = build_model(cfg)[0]
    cases["linear-4x2"] = stack_case(linear, names, *posterior(linear, names))
    _, meas = simulate_truth(lorenz, np.ones(3), 1, seed=7)
    for members in (16, 20_000):
        chain = [enkf_init(StateEstimate(np.ones(3), np.eye(3)), members, 7)]

        def step(chain=chain):
            chain[0] = enkf_step(lorenz, chain[0], meas[1])[0]

        cases["enkf", members] = step
    noise = np.empty((3, 20_000))
    if hasattr(enkf, "_process_noise"):
        sampler, work = "float32 Box-Muller", np.empty((3, noise.size // 2), dtype=np.float32)
        cases["noise"] = lambda: enkf._process_noise(7, 1, noise, work)
    else:
        sampler = "standard_normal"
        cases["noise"] = lambda: enkf.sfc64_stream(7, 1, enkf.KIND_PROCESS).standard_normal(noise.shape, out=noise)
    rng = np.random.default_rng(7)

    def spd(s, n):
        g = rng.standard_normal((s, n, n))
        return g @ g.swapaxes(-1, -2) + np.eye(n)

    layer = hasattr(numerics, "qr_raw")
    lapack = {}  # label: (layer call, numpy.linalg call); the first is timed only where the tree has the layer
    for s, n in ((4, 3), (4, 2), (4, 4)):
        m = spd(s, n)
        lapack[f"cholesky ({s},{n},{n})"] = lambda m=m: numerics.cholesky(m), lambda m=m: np.linalg.cholesky(m)
    low, b = np.linalg.cholesky(spd(4, 2)), rng.standard_normal((4, 2, 4))
    lt = low.swapaxes(-1, -2)
    lapack["solve pair (4,2,2) (4,2,4)"] = (
        lambda: numerics.solve(lt, numerics.solve(low, b)),
        lambda: np.linalg.solve(lt, np.linalg.solve(low, b)),
    )
    a, qe = jacobian_dynamics(lorenz, np.ones(3)), rng.standard_normal((3, 6))
    lapack["solve (3,3) (3,6)"] = lambda: numerics.solve(a, qe), lambda: np.linalg.solve(a, qe)
    for n in (3, 4):
        wide = rng.standard_normal((n, 2 * n))
        lapack[f"qr_raw ({2 * n},{n})"] = (
            lambda wide=wide: numerics.qr_raw(wide.copy().T),
            lambda wide=wide: np.linalg.qr(wide.T, mode="raw"),
        )
    for label, (ours, theirs) in lapack.items():
        cases["numpy.linalg", label] = theirs
        if layer:
            cases["layer", label] = ours
    runs = {
        "sigma-lorenz": argparse.Namespace(config=None, model="lorenz", filters=",".join(STACKS["ekf+ukf+eukfa+eukfc"]), seed=7),
        "linear-4x2": argparse.Namespace(config=str(HERE / "bench" / "linear-4x2.cfg"), filters=",".join(names), seed=7),
        "ex1-replay": argparse.Namespace(config=None, model="linear-ex1", filters="kf,ekf,ukf,eukfa,eukfc", alpha=0.2, seed=2),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for label, args in runs.items():
            run_cfg = _config_from_args(argparse.Namespace(**vars(args), steps=300))
            model, x0, _ = build_model(run_cfg)
            result, out = run_experiment(run_cfg), Path(tmp) / f"{label}.csv"
            cases["simulate_truth", label] = lambda model=model, x0=x0, cfg=run_cfg: simulate_truth(model, x0, cfg.steps, cfg.seed)
            cases["run_experiment", label] = lambda cfg=run_cfg: run_experiment(cfg)
            cases["export_csv", label] = lambda result=result, out=out: export_csv(result, out)
        best = best_us(cases)
    verify_s = min(timeit.repeat(lambda: verify_propositions(seed=0, trials=100), number=1, repeat=VERIFY_REPEATS))

    print(f"{'stack_step lorenz':<36}" + "".join(f"{f'{w}x':>10}" for w in WIDTHS) + f"{'per slice at 64x':>18}")
    for label, names in STACKS.items():
        costs = [best[label, w] for w in WIDTHS]
        print(f"  {label:<34}" + "".join(f"{c:>8.1f}us" for c in costs) + f"{costs[-1] / (len(names) * WIDTHS[-1]):>16.1f}us")
    print(f"{'stack_step linear-4x2 kf+ukf+eukfa+eukfc':<46}{best['linear-4x2']:>8.1f}us")
    for members in (16, 20_000):
        print(f"{f'enkf_step lorenz N={members}':<46}{best['enkf', members]:>8.1f}us")
    print(f"{f'  process noise N=20000, {sampler}':<46}{best['noise']:>8.1f}us")
    print(f"{'per call, 300 steps':<36}" + "".join(f"{label:>14}" for label in runs))
    for call in RUN_CALLS:
        print(f"  {call:<34}" + "".join(f"{best[call, label] / 1e3:>12.2f}ms" for label in runs))
    print(f"{'LAPACK layer, per call':<36}{'layer':>10}{'numpy.linalg':>14}")
    for label in lapack:
        ours = f"{best['layer', label]:>8.2f}us" if layer else f"{'-':>10}"
        print(f"  {label:<34}{ours}{best['numpy.linalg', label]:>12.2f}us")
    print(f"{'verify_propositions seed=0 trials=100':<46}{verify_s * 1e3:>8.1f}ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
