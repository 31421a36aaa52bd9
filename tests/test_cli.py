import argparse
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import fracheat.cli
import fracheat.manufactured
import fracheat.studies
from fracheat.cli import _FLAGS, _build_config, main
from fracheat.inverse import DenominatorNearZero
from fracheat.studies import StudyConfig, load_config


def test_forward_smoke(tmp_path, capsys):
    out = tmp_path / "fwd"
    assert main(["forward", "--example", "1", "--s", "0.5", "--N", "30", "--M", "30",
                 "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "u_final.csv").exists()
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 31 * 29
    # the last level of the trajectory is U^M, written with the same text
    u_num = [line.split(",")[1] for line in (out / "u_final.csv").read_text().splitlines()[1:]]
    assert [line.split(",")[2] for line in lines[-29:]] == u_num


def test_inverse_smoke(tmp_path, capsys):
    out = tmp_path / "inv"
    assert main(["inverse", "--example", "1", "--s", "0.5", "--N", "30", "--M", "30",
                 "--out", str(out)]) == 0
    assert (out / "r_series.csv").exists()
    assert (out / "u_final.csv").exists()
    captured = capsys.readouterr()
    assert "Linf error in r" in captured.out


def test_inverse_with_noise_and_smoothing(tmp_path):
    out = tmp_path / "invn"
    assert main(["inverse", "--example", "1", "--N", "40", "--M", "40",
                 "--delta", "0.03", "--seed", "2", "--smooth-window", "5",
                 "--out", str(out)]) == 0
    header = (out / "r_series.csv").read_text().splitlines()[0]
    assert header == "t_mid,r_recovered,r_exact,abs_error"


def test_convergence_time_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["convergence-time", "--example", "1", "--s", "0.5", "--N", "30",
            "--config", str(tmp_path / "cfg")]
    (tmp_path / "cfg").write_text("m_values = 10, 20\n", encoding="utf-8")
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()


def test_convergence_space_smoke(tmp_path, capsys):
    out = tmp_path / "sp"
    assert main(["convergence-space", "--example", "1", "--s", "0.5", "--N", "20",
                 "--out", str(out)]) == 0
    lines = (out / "table.csv").read_text().splitlines()
    assert len(lines) == 4  # header + N in {20, 40, 80}
    assert "fitted order" in capsys.readouterr().out


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("example = example1\nn_values = 50\nm_values = 10, 20\n",
                   encoding="utf-8")
    out = tmp_path / "o"
    assert main(["convergence-time", "--config", str(cfg), "--N", "24",
                 "--out", str(out)]) == 0
    first_row = (out / "table.csv").read_text().splitlines()[1]
    h = float(first_row.split(",")[0])
    assert h == pytest.approx(1 / 24)


def test_unknown_config_key_fails(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n", encoding="utf-8")
    assert main(["inverse", "--config", str(cfg)]) == 2


def test_repeated_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("s = 0.3\n# again\ns = 0.7\n", encoding="utf-8")
    assert main(["inverse", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:3: key 's' already set on line 1\n"


def test_bad_number_in_config_keeps_location(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("example = example1\ns = abc\n", encoding="utf-8")
    assert main(["inverse", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}:2: could not convert string to float: 'abc'\n"
    )


def test_coarse_quadrature_source_converges(tmp_path, capsys):
    # N = 16 needs more far-field panels than the oracle's first count
    out = tmp_path / "cs"
    assert main(["convergence-space", "--example", "1", "--s", "0.1", "--source",
                 "quadrature", "--N", "16", "--out", str(out)]) == 0
    assert len((out / "table.csv").read_text().splitlines()) == 4


def test_noise_study_exit_code(tmp_path):
    out = tmp_path / "noise"
    cfg = tmp_path / "cfg"
    cfg.write_text("n_values = 40\nm_values = 40\ndeltas = 0.01\nseeds = 0, 1\n",
                   encoding="utf-8")
    assert main(["noise", "--example", "1", "--config", str(cfg),
                 "--out", str(out)]) == 0
    # one r and one u file per case, then the summary
    assert sorted(p.name for p in out.iterdir()) == [
        "noise_summary.csv", "r_recovered_delta0.01_seed0.csv", "r_recovered_delta0.01_seed1.csv",
        "u_final_delta0.01_seed0.csv", "u_final_delta0.01_seed1.csv",
    ]


def test_noise_cases_sharing_a_file_tag_exit_2(tmp_path, capsys):
    out = tmp_path / "noise"
    cfg = tmp_path / "cfg"
    cfg.write_text("n_values = 16\nm_values = 16\ndeltas = 0.01, 0.0100000001\nseeds = 0\n",
                   encoding="utf-8")
    assert main(["noise", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: two noise cases share the output file tag 'delta0.01_seed0'\n"
    )
    assert not out.exists()


def test_oracle_check_smoke(tmp_path, capsys):
    out = tmp_path / "oc"
    assert main(["oracle-check", "--example", "1", "--s", "0.5", "--N", "24",
                 "--out", str(out)]) == 0
    assert (out / "oracle_defect.csv").exists()
    assert "consistency" in capsys.readouterr().out


def test_domain_flags_plumb_through(tmp_path):
    out = tmp_path / "dom"
    assert main(["convergence-time", "--example", "1", "--s", "0.5", "--N", "20",
                 "--M", "10", "--T", "4.0", "--out", str(out)]) == 0
    row = (out / "table.csv").read_text().splitlines()[1].split(",")
    assert float(row[0]) == pytest.approx(1.0 / 20)  # h = l/N
    assert float(row[1]) == pytest.approx(4.0 / 10)  # tau = T/M
    # the closed-form benchmarks are tied to unit domain length, so no run
    # takes --l and a config that sets l fails
    cfg = tmp_path / "long.cfg"
    cfg.write_text("l = 2.0\n", encoding="utf-8")
    assert main(["inverse", "--example", "1", "--N", "20", "--M", "10",
                 "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    # operator-dump takes the domain length: h = l/N scales A by h^{-2s}
    for l, name in ((1.0, "unit"), (2.0, "long")):
        assert main(["operator-dump", "--N", "10", "--l", str(l),
                     "--out", str(tmp_path / name)]) == 0
    unit, long = (np.loadtxt(tmp_path / name / "operator.csv", delimiter=",", skiprows=1)
                  for name in ("unit", "long"))
    np.testing.assert_allclose(long, unit / 2.0, rtol=1e-14)


def test_operator_dump(tmp_path):
    out = tmp_path / "op"
    assert main(["operator-dump", "--N", "10", "--s", "0.5", "--out", str(out)]) == 0
    lines = (out / "operator.csv").read_text().splitlines()
    assert len(lines) == 10  # header + 9 rows
    first = [float(v) for v in lines[1].split(",")]
    assert len(first) == 9
    # dumped matrix is symmetric: entry (0,1) equals entry (1,0)
    second = [float(v) for v in lines[2].split(",")]
    assert first[1] == second[0]


def test_solver_error_exits_cleanly(tmp_path, capsys):
    # 1e-30 is below the rounding error of any residual evaluation
    assert main(["inverse", "--example", "1", "--N", "20", "--M", "5", "--solver", "cg",
                 "--tol", "1e-30", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cg:")
    assert "Traceback" not in err


def test_quadrature_error_exits_cleanly(tmp_path, capsys, monkeypatch):
    from fracheat import QuadratureConvergenceError

    def unconverged(*args, **kwargs):
        raise QuadratureConvergenceError("far-field quadrature not converged")

    monkeypatch.setattr(fracheat.cli, "quadrature_oracle", unconverged)
    assert main(["oracle-check", "--N", "12", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: far-field quadrature not converged\n"


def test_convergence_space_interpolated_scheme(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("n_values = 50, 100\n", encoding="utf-8")
    out = tmp_path / "cs"
    assert main(["convergence-space", "--example", "1", "--s", "0.1", "--source", "quadrature",
                 "--scheme", "interpolated", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "table.csv").read_text().splitlines()
    assert len(lines) == 3  # header + N in {50, 100}
    assert "fitted order" in capsys.readouterr().out


def test_scheme_selects_operator(tmp_path):
    dumps = {}
    for scheme in ("midpoint", "interpolated"):
        out = tmp_path / scheme
        assert main(["operator-dump", "--N", "6", "--s", "0.5", "--scheme", scheme,
                     "--out", str(out)]) == 0
        dumps[scheme] = (out / "operator.csv").read_text()
    assert main(["operator-dump", "--N", "6", "--s", "0.5", "--out", str(tmp_path / "d")]) == 0
    assert (tmp_path / "d" / "operator.csv").read_text() == dumps["midpoint"]
    assert dumps["interpolated"] != dumps["midpoint"]


def test_unknown_scheme_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["forward", "--N", "10", "--M", "5", "--scheme", "bogus",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--scheme" in capsys.readouterr().err


def test_unknown_scheme_in_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scheme = bogus\n", encoding="utf-8")
    assert main(["forward", "--N", "10", "--M", "5", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: unknown scheme 'bogus'\n"


def test_misspelt_solver_in_config_fails_before_any_work(tmp_path, capsys, monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled an operator for a config it rejects")

    monkeypatch.setattr(fracheat.cli, "assemble", no_assembly)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("solver = modl\n", encoding="utf-8")
    assert main(["forward", "--N", "10", "--M", "5", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: unknown solver 'modl' (expected one of ('cholesky', 'cg', 'modal'))\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["inverse", "--solver", "cg", "--tol", "nan"], "tol must be finite and positive, got nan"),
    (["forward", "--tol", "-1"], "tol must be finite and positive, got -1.0"),
    (["inverse", "--T", "nan"], "T must be finite and positive, got nan"),
    (["inverse", "--T", "inf"], "T must be finite and positive, got inf"),
    (["operator-dump", "--l", "nan"], "l must be finite and positive, got nan"),
    (["inverse", "--delta", "-0.1"], "noise level delta must lie in [0, 1), got -0.1"),
    (["inverse", "--delta", "0.1", "--seed", "-3"],
     "noise seed must be a non-negative integer, got -3"),
    (["noise", "--delta", "-0.1"], "noise level delta must lie in [0, 1), got -0.1"),
    (["noise", "--seed", "-3"], "noise seed must be a non-negative integer, got -3"),
    (["noise", "--source", "quadrature", "--delta", "-0.1"],
     "noise level delta must lie in [0, 1), got -0.1"),
    (["noise", "--source", "quadrature", "--seed", "-3"],
     "noise seed must be a non-negative integer, got -3"),
], ids=["tol-nan", "tol-negative", "T-nan", "T-inf", "l-nan", "delta-negative", "seed-negative",
        "noise-delta-negative", "noise-seed-negative", "noise-quadrature-delta-negative",
        "noise-quadrature-seed-negative"])
def test_bad_number_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv, message):
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled an operator for a run it rejects")

    monkeypatch.setattr(fracheat.cli, "assemble", no_assembly)
    monkeypatch.setattr(fracheat.studies, "assemble", no_assembly)
    steps = [] if argv[0] == "operator-dump" else ["--M", "4"]  # the operator has no steps
    assert main([*argv, "--N", "8", *steps, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_inverse_seed_without_delta_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    # a single run draws noise only for --delta, so a lone --seed would be ignored
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled an operator for a run it rejects")

    monkeypatch.setattr(fracheat.cli, "assemble", no_assembly)
    monkeypatch.setattr(fracheat.studies, "assemble", no_assembly)
    assert main(["inverse", "--N", "8", "--M", "4", "--seed", "3",
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: --seed seeds the noise of --delta: give --delta too, or no --seed\n")
    assert not (tmp_path / "o").exists()


def test_zero_delta_is_exact_data(tmp_path):
    args = ["inverse", "--N", "20", "--M", "10"]
    assert main([*args, "--out", str(tmp_path / "exact")]) == 0
    assert main([*args, "--delta", "0", "--out", str(tmp_path / "zero")]) == 0
    for name in ("r_series.csv", "u_final.csv"):
        assert (tmp_path / "zero" / name).read_bytes() == (tmp_path / "exact" / name).read_bytes()


@pytest.mark.parametrize("solver", ["cholesky", "cg", "modal"])
def test_solver_flag_routes_the_run(tmp_path, solver):
    out = tmp_path / solver
    assert main(["inverse", "--N", "30", "--M", "10", "--solver", solver,
                 "--out", str(out)]) == 0
    reference = main(["inverse", "--N", "30", "--M", "10", "--solver", "cholesky",
                      "--out", str(tmp_path / "ref")])
    assert reference == 0
    got = np.loadtxt(out / "r_series.csv", delimiter=",", skiprows=1)
    ref = np.loadtxt(tmp_path / "ref" / "r_series.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# Every StudyConfig field, each set to a value that no flag below and no
# default uses.
_FULL_CONFIG = """\
example = example2
s = 0.25
l = 2.0
t_final = 3.0
n_values = 10, 20
m_values = 5, 6
solver = cg
tol = 1e-11
deltas = 0.01, 0.05
seeds = 4, 5
source = quadrature
scheme = interpolated
smooth_window = 7
out = from_file
"""


# (flag, a value, the StudyConfig field it sets, that field's value)
_FLAG_CASES = [
    ("--example", "1", "example", "example1"),
    ("--s", "0.75", "s", 0.75),
    ("--N", "12", "n_values", (12,)),
    ("--M", "9", "m_values", (9,)),
    ("--l", "1.5", "l", 1.5),
    ("--T", "0.5", "t_final", 0.5),
    ("--solver", "cholesky", "solver", "cholesky"),
    ("--tol", "1e-9", "tol", 1e-9),
    ("--delta", "0.02", "deltas", (0.02,)),
    ("--seed", "3", "seeds", (3,)),
    ("--smooth-window", "3", "smooth_window", 3),
    ("--source", "discrete", "source", "discrete"),
    ("--scheme", "midpoint", "scheme", "midpoint"),
    ("--out", "from_flag", "out", "from_flag"),
    ("--solver", "modal", "solver", "modal"),
]


@pytest.mark.parametrize("flag, value, field, expected", _FLAG_CASES)
def test_each_flag_overrides_only_its_field(tmp_path, flag, value, field, expected):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(_FULL_CONFIG, encoding="utf-8")
    from_file = load_config(cfg)
    assert {line.partition(" = ")[0] for line in _FULL_CONFIG.splitlines()} == {
        f.name for f in fields(StudyConfig)
    }
    parser = argparse.ArgumentParser()
    for name, (dest, kwargs) in _FLAGS.items():
        parser.add_argument(name, dest=dest, **kwargs)
    config = _build_config(parser.parse_args(["--config", str(cfg), flag, value]))
    # repr tells (12,) from (12.0,) and 3 from 3.0
    assert repr(getattr(config, field)) == repr(expected)
    assert config == replace(from_file, **{field: expected})


_ALL_FLAGS = tuple(dict.fromkeys(flag for flag, *_ in _FLAG_CASES))
# every flag but the domain length, which only operator-dump reads
_NOISE_FLAGS = tuple(flag for flag in _ALL_FLAGS if flag != "--l")
# the flags each command reads; every command takes --config as well
_KEPT_FLAGS = {
    "forward": ("--example", "--s", "--N", "--M", "--T", "--solver", "--tol",
                "--source", "--scheme", "--out"),
    "inverse": _NOISE_FLAGS,
    "convergence-time": ("--example", "--s", "--N", "--M", "--T", "--solver", "--tol",
                         "--source", "--scheme", "--out"),
    "convergence-space": ("--example", "--s", "--N", "--T", "--solver", "--tol",
                          "--source", "--scheme", "--out"),
    "noise": _NOISE_FLAGS,
    "oracle-check": ("--example", "--s", "--N", "--scheme", "--out"),
    "operator-dump": ("--s", "--N", "--l", "--scheme", "--out"),
}
# the 33 (command, flag) pairs whose setting no command reads
_DROPPED_PAIRS = [(command, flag) for command, kept in _KEPT_FLAGS.items()
                  for flag in _ALL_FLAGS if flag not in kept]


@pytest.mark.parametrize("command, flag", _DROPPED_PAIRS)
def test_flag_a_command_does_not_read_exits_2(tmp_path, capsys, monkeypatch, command, flag):
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled an operator for a command line it rejects")

    monkeypatch.setattr(fracheat.cli, "assemble", no_assembly)
    monkeypatch.setattr(fracheat.studies, "assemble", no_assembly)
    value = next(value for name, value, *_ in _FLAG_CASES if name == flag)
    with pytest.raises(SystemExit) as exc:
        main([command, "--N", "8", flag, value, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", _KEPT_FLAGS)
def test_each_command_parses_every_flag_it_keeps(tmp_path, monkeypatch, command):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(_FULL_CONFIG, encoding="utf-8")
    configs = []
    # the command's function takes the config main built and does no work; the
    # two convergence commands share one
    name = "convergence" if command.startswith("convergence") else command.replace("-", "_")
    monkeypatch.setattr(fracheat.cli, "_cmd_" + name,
                        lambda *args: configs.append(args[-2]) or 0)
    cases = {flag: (value, field, expected) for flag, value, field, expected in _FLAG_CASES
             if flag in _KEPT_FLAGS[command]}
    argv = [command, "--config", str(cfg)]
    for flag, (value, _, _) in cases.items():
        argv += [flag, value]
    assert main(argv) == 0
    assert configs == [replace(load_config(cfg),
                               **{field: expected for _, field, expected in cases.values()})]


def test_help_lists_every_command_and_each_command_its_flags(capsys):
    """Only the invoked command's parser gets flags; --help shows each alike."""
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(command in out for command in _KEPT_FLAGS)
    for command, kept in _KEPT_FLAGS.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        # a flag and then its metavar: "--s S" and not the "--s" of "--solver"
        shown = {flag for flag in (*_ALL_FLAGS, "--config") if re.search(rf"{flag}\s", out)}
        assert shown == {*kept, "--config"}, command


# the grid a noise study runs on: N = M = 100 unless a grid flag or any config
# file is given; a config file without grid keys leaves StudyConfig's defaults
@pytest.mark.parametrize("argv, config_text, n_values, m_values", [
    ([], None, (100,), (100,)),
    (["--N", "40"], None, (40,), StudyConfig.m_values),
    (["--M", "30"], None, StudyConfig.n_values, (30,)),
    ([], "seeds = 0\n", StudyConfig.n_values, StudyConfig.m_values),
], ids=["default", "N", "M", "config"])
def test_noise_default_grid(tmp_path, monkeypatch, argv, config_text, n_values, m_values):
    if config_text is not None:
        (tmp_path / "seeds.cfg").write_text(config_text, encoding="utf-8")
        argv = [*argv, "--config", str(tmp_path / "seeds.cfg")]
    configs = []

    def no_study(config):
        configs.append(config)
        return fracheat.studies.NoiseStudyResult(cases=())

    monkeypatch.setattr(fracheat.cli, "noise_study", no_study)
    assert main(["noise", *argv, "--out", str(tmp_path / "o")]) == 0
    assert [(c.n_values, c.m_values) for c in configs] == [(n_values, m_values)]


def test_noise_refuses_an_empty_config_before_any_work(tmp_path, capsys, monkeypatch):
    # an empty --config read no file and ran the StudyConfig grid, N = 800 and
    # M = 50...800, in place of the command's default N = M = 100
    def no_study(config):
        raise AssertionError("ran a noise study for an empty --config")

    monkeypatch.setattr(fracheat.cli, "noise_study", no_study)
    assert main(["noise", "--config", "", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: --config names no file: give a config file's path, or no --config\n")
    assert not (tmp_path / "o").exists()


def test_a_warning_prints_as_one_line(tmp_path, capsys):
    # no source path and no source line, and the caller's filters still apply
    argv = ["inverse", "--example", "2", "--N", "40", "--M", "40", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().err == (
        "warning: initial measurement incompatible with phi: relative gap 1.203e-01\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert main(argv) == 0
    assert capsys.readouterr().err == ""


# the grids a space refinement runs on, with tau = h: N = 100, 200, 400, 800
# unless --N or any config file is given, and a single N doubled twice
@pytest.mark.parametrize("argv, config_text, n_values", [
    ([], None, (100, 200, 400, 800)),
    (["--N", "32"], None, (32, 64, 128)),
    ([], "s = 0.5\n", (800, 1600, 3200)),
    ([], "n_values = 20, 40\n", (20, 40)),
], ids=["default", "N", "config", "config-N"])
def test_convergence_space_default_grid(tmp_path, monkeypatch, argv, config_text, n_values):
    if config_text is not None:
        (tmp_path / "space.cfg").write_text(config_text, encoding="utf-8")
        argv = [*argv, "--config", str(tmp_path / "space.cfg")]
    sizes = []

    def no_study(config, grid_sizes, varied):
        sizes.append(list(grid_sizes))
        return fracheat.studies.ConvergenceTable(rows=(), varied=varied)

    monkeypatch.setattr(fracheat.studies, "_refinement_study", no_study)
    assert main(["convergence-space", *argv, "--out", str(tmp_path / "o")]) == 0
    assert sizes == [[(n, n) for n in n_values]]


def test_noise_failure_exits_1_and_lists_the_failed_cases(tmp_path, capsys, monkeypatch):
    def no_recovery(*args, **kwargs):
        raise DenominatorNearZero(0.0, 1e-12, 3)

    monkeypatch.setattr(fracheat.studies, "run_inverse_batch", no_recovery)
    cfg = tmp_path / "cases.cfg"
    cfg.write_text("deltas = 0.01, 0.02\nseeds = 0, 1\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["noise", "--N", "8", "--M", "8", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "failed cases: [(0.01, 0), (0.01, 1), (0.02, 0), (0.02, 1)]\n"
    assert captured.out == ("delta=0.01: mean Linf error in r over seeds = nan\n"
                            "delta=0.02: mean Linf error in r over seeds = nan\n")
    summary = (out / "noise_summary.csv").read_text().splitlines()
    assert [row.split(",")[2] for row in summary[1:]] == ["0"] * 4
    for name, column in (("r_recovered_delta0.01_seed1.csv", "r_recovered"),
                         ("u_final_delta0.02_seed0.csv", "u_num")):
        table = np.genfromtxt(out / name, delimiter=",", names=True)
        assert table.size > 0 and np.all(np.isnan(table[column])), name


def test_modal_route_refuses_an_inaccurate_eigendecomposition(tmp_path, capsys):
    # at s = 0.99 the interpolated A at N = 1000 is too stiff for the residual
    # check of its eigenpairs, 3e-10 against 1e-10; Cholesky runs it
    argv = ["forward", "--scheme", "interpolated", "--s", "0.99", "--N", "1000", "--M", "4"]
    assert main([*argv, "--solver", "modal", "--out", str(tmp_path / "modal")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: eigendecomposition residual \S+ exceeds 1\.0e-10\n", err), err
    assert main([*argv, "--out", str(tmp_path / "auto")]) == 0
    assert capsys.readouterr().err == ""


def test_oracle_check_binds_no_problem(tmp_path, monkeypatch):
    # it reads one mode's closed forms: no forcing image and no measurement
    argv = ["oracle-check", "--N", "16", "--scheme", "interpolated"]
    assert main([*argv, "--out", str(tmp_path / "bound")]) == 0

    def no_binding(*args, **kwargs):
        raise AssertionError("oracle-check bound a problem to a grid")

    monkeypatch.setattr(fracheat.cli, "build_manufactured", no_binding)
    monkeypatch.setattr(fracheat.manufactured, "build_manufactured", no_binding)
    assert main([*argv, "--out", str(tmp_path / "lookup")]) == 0
    assert ((tmp_path / "lookup" / "oracle_defect.csv").read_bytes()
            == (tmp_path / "bound" / "oracle_defect.csv").read_bytes())


def test_oracle_check_refuses_a_domain_of_other_length(tmp_path, capsys):
    # the closed forms are defined on unit domain length, as for every run
    cfg = tmp_path / "long.cfg"
    cfg.write_text("l = 2.0\n", encoding="utf-8")
    assert main(["oracle-check", "--N", "8", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: benchmarks are defined on unit domain length, got l=2.0\n")
    assert not (tmp_path / "o").exists()
