import argparse
import csv
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ukfkit.cli import _CONFIG_PARSERS, _config_from_args, load_config_file, main


def test_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["run", "--model", "linear-ex2", "--steps", "20", "--seed", "3",
                 "--filters", "kf,ukf", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 21
    assert rows[0][0] == "k"
    assert "wrote 20 steps" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
def test_zero_ensemble_trace_gives_nan_relerr(tmp_path):
    # With q = 0 and p0 = 0 every member stays on the mean: the ensemble trace is 0, so relerr has no value.
    cfg = tmp_path / "z.cfg"
    cfg.write_text("model = linear-ex2\nq = 0\np0 = 0\n")
    out = tmp_path / "z.csv"
    code = main(["run", "--config", str(cfg), "--filters", "enkf", "--ensemble", "50", "--steps", "5", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["trP_enkf"], row["relerr_enkf"]) for row in rows] == [("0", "nan")] * 5


@pytest.mark.parametrize("filters", ["kf,ukf,eukfa,eukfc", "eukfc", "kf,ekf,enkf"])
def test_zero_p0_is_rejected_only_with_a_sigma_point_filter(tmp_path, capsys, filters):
    # ukf, eukfa and eukfc spread their first sigma points by chol(l_x p0); kf, ekf and enkf start from p0 = 0.
    cfg = tmp_path / "p0.cfg"
    cfg.write_text("model = linear-ex2\np0 = 0\n")
    out = tmp_path / "p0.csv"
    code = main(["run", "--config", str(cfg), "--filters", filters, "--ensemble", "50", "--steps", "5", "--out", str(out)])
    sigma = [name for name in filters.split(",") if name in ("ukf", "eukfa", "eukfc")]
    if sigma:
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: p0 must be positive definite for {', '.join(sigma)}: matrix of dimension 2 is not positive definite\n"
        )
        assert not out.exists()
    else:
        assert code == 0
        with open(out, newline="") as fh:
            assert len(list(csv.reader(fh))) == 6


def test_run_requires_model(tmp_path, capsys):
    code = main(["run", "--steps", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "model" in capsys.readouterr().err


def test_config_file_merging(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "model = linear-ex2\n"
        "steps = 15\n"
        "seed = 4\n"
        "filters = kf,ukf\n"
        "q = 0.2  # inline comment\n"
    )
    values = load_config_file(cfg_file)
    assert values == {"model": "linear-ex2", "steps": "15", "seed": "4", "filters": "kf,ukf", "q": "0.2"}

    out = tmp_path / "cfg.csv"
    # flag overrides the file's steps
    code = main(["run", "--config", str(cfg_file), "--steps", "8", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        assert len(list(csv.reader(fh))) == 9


def test_config_file_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model linear-ex2\n")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "key = value" in capsys.readouterr().err


def test_config_file_rejects_input_matrix_key(tmp_path, capsys):
    cfg_file = tmp_path / "with_b.cfg"
    cfg_file.write_text("model = custom\na = 0.5\nb = 1; 2\nc = 1\n")
    code = main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "unknown config key 'b'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,config,key",
    [
        (["--alpha", "nan"], None, "alpha"),
        (["--alpha", "inf"], None, "alpha"),
        (["--ts", "nan"], None, "ts"),
        (["--q", "nan"], None, "q"),
        ([], "alpha = nan\n", "alpha"),
        ([], "x0 = 1, nan, 1\n", "x0"),
        ([], "p0 = nan\n", "p0"),
        (["--model", "custom"], "a = 1, 0; 0, nan\nc = 1, 0\n", "a"),
        (["--model", "custom"], "a = 1, 0; 0, 1\nc = inf, 0\n", "c"),
    ],
    ids=[
        "alpha-nan",
        "alpha-inf",
        "ts-nan",
        "q-nan",
        "config-alpha-nan",
        "config-x0-nan",
        "config-p0-nan",
        "config-a-nan",
        "config-c-inf",
    ],
)
def test_non_finite_numbers_are_rejected_before_any_csv(tmp_path, capsys, flags, config, key):
    out = tmp_path / "x.csv"
    argv = ["run", "--model", "lorenz", "--filters", "ukf", "--steps", "5", "--out", str(out), *flags]
    if config is not None:
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(config)
        argv += ["--config", str(cfg_file)]
    assert main(argv) == 1
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_custom_model_via_config(tmp_path):
    cfg_file = tmp_path / "custom.cfg"
    cfg_file.write_text(
        "model = custom\n"
        "a = 0.5,0.1;0,0.4\n"
        "c = 1,0\n"
        "q = 0.1\n"
        "r = 0.3\n"
        "steps = 6\n"
        "filters = kf,eukfa\n"
        "x0 = 1,2\n"
        "p0 = 2\n"
    )
    out = tmp_path / "custom.csv"
    assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert out.exists()


def test_verify_command(capsys):
    assert main(["verify", "--trials", "4", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "overall" in out and "PASS" in out


def test_reproduce_example_2(tmp_path):
    out_dir = tmp_path / "repro"
    assert main(["reproduce", "--example", "2", "--out", str(out_dir), "--seed", "1"]) == 0
    path = out_dir / "example2.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 101
    # kf and ukf traces differ at every recorded step past the first
    trp_kf = [float(r[1]) for r in rows[2:]]
    trp_ukf = [float(r[5]) for r in rows[2:]]
    assert all(abs(a - b) > 1e-9 for a, b in zip(trp_kf, trp_ukf))


def test_reproduce_example_1_prints_traces(tmp_path, capsys):
    out_dir = tmp_path / "repro1"
    assert main(["reproduce", "--example", "1", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "8.8158" in out and "9.7302" in out and "9.0976" in out
    assert (out_dir / "example1.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergent_truth_exits_nonzero(tmp_path, capsys):
    cfg_file = tmp_path / "explode.cfg"
    cfg_file.write_text(
        "model = custom\n"
        "a = 3.0\n"
        "c = 1\n"
        "q = 0\n"
        "r = 0\n"
        "steps = 2000\n"
        "filters = kf\n"
        "x0 = 1\n"
    )
    code = main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_truth_divergence_prints_its_error_and_no_numpy_warning(tmp_path, capsys):
    # Lorenz at ts = 0.05 overflows on the way to a non-finite truth state at step 25.
    out = tmp_path / "x.csv"
    code = main(["run", "--model", "lorenz", "--ts", "0.05", "--steps", "100", "--seed", "1",
                 "--filters", "ekf,ukf", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr() == ("", "error: truth state became non-finite at step 25\n")
    assert not out.exists()


def _run_scaled_random_walk(tmp_path, c):
    """x_{k+1} = x_k + w_k observed as c x: the truth states stay finite, and c sets where the numbers overflow."""
    cfg = tmp_path / "walk.cfg"
    cfg.write_text(f"model = custom\na = 1\nc = {c}\nq = 1\nr = 1\n")
    out = tmp_path / "walk.csv"
    code = main(["run", "--config", str(cfg), "--filters", "enkf,ekf,ukf", "--ensemble", "100", "--steps", "50",
                 "--seed", "1", "--out", str(out)])
    return code, out


@pytest.mark.filterwarnings("error")
def test_an_overflowing_truth_measurement_is_named_with_its_step_and_no_numpy_warning(tmp_path, capsys):
    # 1e308 x overflows once |x| > 1.8, first at step 9; the filters never run.
    code, out = _run_scaled_random_walk(tmp_path, "1e308")
    assert code == 1
    assert capsys.readouterr() == ("", "error: truth measurement became non-finite at step 9\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_filters_whose_covariances_overflow_print_their_errors_and_no_numpy_warning(tmp_path, capsys):
    # 1e154 x stays finite, but its square does not: every filter's P_z overflows at step 1.
    code, out = _run_scaled_random_walk(tmp_path, "1e154")
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("wrote 50 steps x 3 filters")
    reason = "produced a non-finite innovation or cross covariance at step 1"
    assert captured.err.splitlines() == [
        "error: filter(s) diverged before the end of the run: enkf, ekf, ukf",
        *(f"error: {name} failed at step 1: FilterDiverged: {name} {reason}" for name in ("enkf", "ekf", "ukf")),
    ]


def test_diverged_filter_reports_step_and_reason(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = main(["run", "--model", "linear-ex1", "--steps", "60", "--seed", "1", "--alpha", "0.2",
                 "--filters", "kf,ukf", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: ukf failed at step 40: NotPositiveDefinite: matrix of dimension 2" in err
    assert err.count("failed at step") == 1


def test_diverged_filter_exits_nonzero(tmp_path, capsys, monkeypatch):
    import ukfkit.harness as harness

    def always_fail(model, est, y, alpha):
        raise harness.FilterDiverged("synthetic failure")

    monkeypatch.setattr(harness, "ukf_step", always_fail)
    out = tmp_path / "d.csv"
    code = main(["run", "--model", "linear-ex2", "--steps", "5", "--filters", "kf,ukf", "--out", str(out)])
    assert code == 1
    assert "diverged" in capsys.readouterr().err
    assert out.exists()  # partial results are still written


_junk = st.text(st.characters(codec="utf-8"), max_size=40)
_number_like = st.from_regex(r"[-+0-9.,;eE \tnaifNI_x]*", fullmatch=True)
_line = st.one_of(
    _junk,
    st.builds(
        "{} = {}".format,
        st.one_of(st.sampled_from(sorted(_CONFIG_PARSERS)), _junk),
        st.one_of(_number_like, _junk, st.sampled_from(["lorenz", "custom", "kf,ukf", "enkf", ""])),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_junk, st.lists(_line, max_size=8).map("\n".join)))
def test_config_file_junk_raises_only_value_error(text):
    fd, path = tempfile.mkstemp(suffix=".cfg")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            load_config_file(path)
            _config_from_args(argparse.Namespace(config=path, filters=None))
        except ValueError:
            pass
    finally:
        os.remove(path)
