"""Every function the benchmark's span tracer hooks still exists under its name.

`bench/spans.py` reports a hooked name that is gone as absent and runs on,
so a renamed helper would silently drop its per-layer metric.  This test
only reads the hook table.
"""

import importlib.util
from importlib import import_module
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
# Stale: the sigma-set builder is now part of ukf.unscented_prior, but the hook still names it.
KNOWN_ABSENT = {"ukf.make_sigma_set"}


def _hooks() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.HOOKS


def test_every_hooked_name_is_a_callable_of_its_module():
    missing = {
        f"{home}.{name}"
        for home, names in _hooks().values()
        for name in names
        if not callable(getattr(import_module(f"ukfkit.{home}"), name, None))
    }
    assert missing <= KNOWN_ABSENT
