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
    ],
    ids=["alpha-nan", "alpha-inf", "ts-nan", "q-nan", "config-alpha-nan"],
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
