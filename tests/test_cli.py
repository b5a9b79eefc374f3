import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from lyapmetric.cli import (
    _COMMANDS,
    _FLAGS,
    RunConfig,
    build_parser,
    config_from_args,
    main,
)
from lyapmetric.errors import LyapmetricError


def _read_report(out_dir):
    return json.loads((Path(out_dir) / "report.json").read_text())


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(command="analyze", system="scalar-example",
                        radii="0.5,1", samples=3, out="/tmp/x", seed=5)
        again = RunConfig(**cfg.to_dict())
        assert again == cfg

    def test_rejects_bad_values(self):
        with pytest.raises(LyapmetricError):
            RunConfig(command="analyze", system="s", tol=-1.0)
        with pytest.raises(LyapmetricError):
            RunConfig(command="analyze", system="s", samples=0)

    def test_grid_forms(self):
        cfg = RunConfig(command="x", system="s", grid="-2,-1,0.5")
        assert cfg.grid_points(1).shape == (3, 1)
        cfg = RunConfig(command="x", system="s", grid="0:1:5")
        assert cfg.grid_points(1).shape == (5, 1)
        cfg = RunConfig(command="x", system="s", grid="1,0;0,1")
        assert cfg.grid_points(2).shape == (2, 2)

    @pytest.mark.parametrize("grid, radii, dim, message", [
        ("a,b", "0.5,1,2", 1, "not a list of numbers"),
        ("1,2;3", "0.5,1,2", 2, "differ in length"),
        ("0.8,-0.5", "0.5,1,2", 2, "separate points with ';'"),
        ("1,0;0,1", "0.5,1,2", 1, "points of size 1"),
        ("0:1:x", "0.5,1,2", 1, "'lo:hi:n'"),
        ("", "x", 1, "--radii"),
        ("inf,0;", "0.5,1,2", 2, "--grid: .* not finite"),
        ("nan", "0.5,1,2", 1, "--grid: .* not finite"),
        ("nan,0;", "0.5,1,2", 2, "--grid: .* not finite"),
        ("0:inf:3", "0.5,1,2", 1, "--grid: .* not finite"),
        ("nan:1:1", "0.5,1,2", 1, "--grid: .* not finite"),
    ])
    def test_malformed_numbers_are_operational_errors(self, grid, radii, dim,
                                                      message):
        cfg = RunConfig(command="x", system="s", grid=grid, radii=radii)
        with pytest.raises(LyapmetricError, match=message):
            cfg.grid_points(dim)

    @pytest.mark.parametrize("field, value", [
        ("tol", float("nan")), ("tol", float("inf")),
        ("horizon", float("inf")), ("lambda_gain", float("nan")),
        ("lambda_gain", float("-inf")), ("seed", -1),
    ])
    def test_malformed_scalars_are_operational_errors(self, field, value):
        with pytest.raises(LyapmetricError, match=field):
            RunConfig(command="x", system="s", **{field: value})

    @pytest.mark.parametrize("radii", ["1,inf", "-1,1", "0,1", "nan"])
    def test_radii_must_be_finite_and_positive(self, radii):
        cfg = RunConfig(command="x", system="s", radii=radii)
        with pytest.raises(LyapmetricError, match="--radii"):
            cfg.radii_values()

    @pytest.mark.parametrize("argv", [
        ["analyze", "--seed", "-1"],
        ["analyze", "--horizon", "inf"],
        ["certify", "--radii=-1,1"],
        ["certify", "--variant", "bogus"],
        ["certify", "--grid=nan"],
        ["certify", "--variant", "origin", "--grid=inf,0;"],
        ["certify", "--grid=0:inf:3"],
        ["metric", "--grid=nan,0;"],
        ["stabilize", "--grid=nan"],
    ])
    def test_malformed_numbers_end_before_any_solve(self, argv, tmp_path,
                                                    capsys, monkeypatch):
        from lyapmetric import integrate

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the usage error")

        monkeypatch.setattr(integrate, "solve", no_solve)
        code = main([*argv, "--system", "scalar-example",
                     "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("argv, env", [
        (["--system", "scalar-example", "--tol", "abc"], {}),
        (["--system", "scalar-example", "--samples", "2.5"], {}),
        (["--system", "scalar-example", "--variant", "bogus"], {}),
        ([], {}),
    ])
    def test_usage_errors_are_operational_errors(self, argv, env, tmp_path,
                                                 capsys, monkeypatch):
        # exit 2 is reserved for falsified properties
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code = main(["analyze", *argv, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main([flag])
        assert info.value.code == 0

    def test_module_entry_point_version(self):
        import lyapmetric

        src = str(Path(lyapmetric.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "lyapmetric", "--version"],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"lyapmetric {lyapmetric.__version__}"

    @pytest.mark.parametrize("q, dim", [("1,x;0,1", 2), ("2,0;0,1", 1),
                                        ("1,2,3", 2)])
    def test_malformed_matrix_is_operational_error(self, q, dim):
        cfg = RunConfig(command="x", system="s", q=q)
        with pytest.raises(LyapmetricError, match="--Q"):
            cfg.q_matrix(dim)

    def test_q_forms(self):
        cfg = RunConfig(command="x", system="s", q="I")
        assert np.array_equal(cfg.q_matrix(2), np.eye(2))
        cfg = RunConfig(command="x", system="s", q="2")
        assert np.array_equal(cfg.q_matrix(2), 2 * np.eye(2))
        cfg = RunConfig(command="x", system="s", q="2,0;0,1")
        assert np.array_equal(cfg.q_matrix(2), np.diag([2.0, 1.0]))

    def test_non_finite_q_is_operational_error(self, tmp_path, capsys):
        # Cholesky does not raise on NaN, so a NaN Q once passed certify
        code = main(["certify", "--system", "scalar-example", "--grid=1",
                     "--samples", "2", "--radii", "1", "--Q", "nan",
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --Q ")

    @pytest.mark.parametrize("command, flag", [
        *[("analyze", flag) for flag in ("--Q", "--grid", "--variant",
                                         "--lambda-gain", "--metric")],
        *[(command, flag) for command in ("metric", "certify")
          for flag in ("--lambda-gain", "--metric")],
        *[("stabilize", flag) for flag in ("--tol", "--horizon",
                                           "--variant")],
    ])
    def test_flag_a_command_does_not_read_is_usage_error(
            self, command, flag, tmp_path, capsys):
        value = "origin" if flag == "--variant" else "1"
        code = main([command, "--system", "scalar-example", flag, value,
                     "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: unrecognized arguments: {flag} ")
        assert not (tmp_path / "report.json").exists()

    def test_commands_register_exactly_the_flags_they_read(self):
        estimate = {"--tol", "--horizon", "--radii", "--samples", "--seed",
                    "--out"}
        metric = estimate | {"--Q", "--grid", "--variant"}
        expected = {
            "analyze": estimate, "metric": metric, "certify": metric,
            "stabilize": {"--Q", "--radii", "--samples", "--grid",
                          "--lambda-gain", "--metric", "--seed", "--out"},
        }
        [sub] = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        for command, flags in expected.items():
            registered = {option
                          for action in sub.choices[command]._actions
                          for option in action.option_strings}
            assert registered == flags | {"--system", "-h", "--help"}

    def test_every_config_field_is_read_by_some_command(self):
        read = {_FLAGS[flag][0] for _fn, flags in _COMMANDS.values()
                for flag in flags}
        assert read == {f.name for f in fields(RunConfig)} - {"command",
                                                              "system"}

    def test_environment_sets_no_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LYAPMETRIC_SAMPLES", "3")
        monkeypatch.setenv("LYAPMETRIC_VARIANT", "bogus")
        args = build_parser().parse_args(
            ["certify", "--system", "scalar-example", "--out", str(tmp_path)])
        config = config_from_args(args)
        assert (config.samples, config.variant) == (4, "along-solutions")


class TestAnalyze:
    def test_scalar_example_passes(self, tmp_path):
        code = main(["analyze", "--system", "scalar-example",
                     "--out", str(tmp_path), "--samples", "2",
                     "--horizon", "12"])
        assert code == 0
        report = _read_report(tmp_path)
        assert report["schema"] == 1
        assert report["verdict"] == "pass"
        assert report["local"]["lambda"] == pytest.approx(1.0, rel=0.05)
        assert (tmp_path / "envelopes.csv").exists()

    def test_unstable_linear_exits_two(self, tmp_path):
        payload = tmp_path / "unstable.json"
        payload.write_text(json.dumps({"A": [[1.0]]}))
        code = main(["analyze", "--system", f"linear:{payload}",
                     "--out", str(tmp_path / "r"), "--samples", "2"])
        assert code == 2
        report = _read_report(tmp_path / "r")
        assert report["verdict"] == "falsified"
        assert report["witness"] is not None

    def test_offset_origin_is_falsified(self, tmp_path):
        # F(0) = (0.1, 0): no decay estimate runs about a non-equilibrium
        spec = tmp_path / "offset.txt"
        spec.write_text("dim=2; F1 = -2*x1 + 0.1; F2 = -x2\n")
        code = main(["analyze", "--system", str(spec), "--samples", "2",
                     "--radii", "1", "--out", str(tmp_path / "r")])
        assert code == 2
        report = _read_report(tmp_path / "r")
        assert report["verdict"] == "falsified"
        assert report["stage"] == "equilibrium"
        assert report["witness"] == [0.0, 0.0]

    def _planar_analyze(self, out_dir, monkeypatch, keep_flows=True):
        """`analyze` of the planar field at CLI defaults; returns the
        flows it integrated and its two output files."""
        from lyapmetric import estimation

        spec = out_dir.parent / "planar.txt"
        spec.write_text("dim=2; F1 = -x1 + x2^2; F2 = -2*x2 - x1*x2\n")
        flows = []
        real_flow = estimation.flow

        def counting(*args, **kwargs):
            flows.append(args[1].tolist())
            return real_flow(*args, **kwargs)

        monkeypatch.setattr(estimation, "flow", counting)
        if not keep_flows:
            real_les = estimation.estimate_les

            def forgetful(*args, **kwargs):
                les = real_les(*args, **kwargs)
                les.flows.clear()
                return les

            monkeypatch.setattr("lyapmetric.cli.estimate_les", forgetful)
        assert main(["analyze", "--system", str(spec),
                     "--out", str(out_dir)]) == 0
        monkeypatch.undo()
        return flows, [(out_dir / name).read_bytes()
                       for name in ("report.json", "envelopes.csv")]

    def test_gain_function_reuses_local_flows(self, tmp_path, monkeypatch):
        # the gain function's radius-0 samples are the local estimate's
        # points at the same seed, horizon and tol: 16 -> 12 flows
        out = tmp_path / "r"
        flows, outputs = self._planar_analyze(out, monkeypatch)
        assert len(flows) == 12
        assert len({tuple(p) for p in flows}) == 12
        again, forgot = self._planar_analyze(out, monkeypatch,
                                             keep_flows=False)
        assert len(again) == 16
        assert forgot == outputs

    @pytest.mark.parametrize("command, text, message", [
        (["analyze"], "dim=1; F1 = -x1 - 0.1*sin(x1^0.5)",
         "fractional power of a negative base in subexpression '(x1 ^ 0.5)'"),
        # through the compiled lift of the along-solutions metric
        (["metric", "--grid=-0.5,0.2;"],
         "dim=2; F1 = -x1 + 0.1*sin(x1^0.5); F2 = -x2",
         "fractional power of a negative base in subexpression '(x1 ^ 0.5)'"),
        (["analyze"], "dim=1; F1 = -x1^1e400",
         "number '1e400' is not finite (at position 16)"),
        (["analyze"], "dim=1; F1 = -k*x1; k = 1e300*1e300",
         "parameter 'k' must be finite, not inf"),
    ], ids=["analyze-power", "metric-power", "literal", "parameter"])
    def test_domain_exits_are_typed(self, command, text, message, tmp_path,
                                    capsys):
        spec = tmp_path / "system.txt"
        spec.write_text(text + "\n")
        code = main([command[0], "--system", str(spec), *command[1:],
                     "--out", str(tmp_path / "r")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_stable_linear_rate_near_abscissa(self, tmp_path):
        payload = tmp_path / "stable.json"
        payload.write_text(json.dumps({"A": [[0.0, 1.0], [-1.0, -1.0]]}))
        code = main(["analyze", "--system", f"linear:{payload}",
                     "--out", str(tmp_path / "r"), "--samples", "4",
                     "--horizon", "20"])
        assert code == 0
        report = _read_report(tmp_path / "r")
        assert report["local"]["lambda"] == pytest.approx(0.5, rel=0.10)

    def test_unknown_system_is_operational_error(self, tmp_path):
        code = main(["analyze", "--system", "missing-system",
                     "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("case", [
        "missing", "malformed-json", "no-A", "non-numeric-A", "scalar-A",
        "directory", "not-utf8", "out-is-file"])
    def test_file_errors_are_operational_errors(self, case, tmp_path,
                                                capsys):
        # an unreadable or malformed file ends as "error: ...", naming it
        path = tmp_path / "input"
        system, out = f"linear:{path}", tmp_path / "out"
        if case == "directory":
            path.mkdir()
            system = str(path)
        elif case == "not-utf8":
            path.write_bytes(b"dim = 1\nF1 = -x1 \xff\n")
            system = str(path)
        elif case == "out-is-file":
            path.write_bytes(b"")
            system, out = "scalar-example", path
        elif case != "missing":
            path.write_bytes({"malformed-json": b"{",
                              "no-A": b'{"B": [[-1.0]]}',
                              "non-numeric-A": b'{"A": "x"}',
                              "scalar-A": b'{"A": 5}'}[case])
        code = main(["metric", "--system", system, "--variant", "origin",
                     "--grid", "0.5", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err


class TestMetricCommand:
    def test_origin_variant_writes_dump(self, tmp_path):
        payload = tmp_path / "stable.json"
        payload.write_text(json.dumps({"A": [[0.0, 1.0], [-1.0, -1.0]]}))
        code = main(["metric", "--system", f"linear:{payload}",
                     "--variant", "origin", "--out", str(tmp_path / "r"),
                     "--samples", "2", "--grid", "1,0;0,1;0.5,0.5"])
        assert code == 0
        report = _read_report(tmp_path / "r")
        assert report["residuals"]["verdict"] == "pass"
        header = (tmp_path / "r" / "metric.csv").read_text().splitlines()[0]
        assert header == "e_1,e_2,P_11,P_12,P_21,P_22"

    def test_transverse_blowup_is_falsified(self, tmp_path):
        # the transverse transition grows like exp(5t) and passes the
        # blow-up norm inside the horizon: a falsification with a witness
        spec = tmp_path / "expanding.txt"
        spec.write_text("dim=2; e_dim=1; F1 = 5*x1; G1 = 0*x2\n")
        code = main(["metric", "--system", str(spec), "--variant",
                     "transverse", "--grid=0.5;", "--out",
                     str(tmp_path / "r")])
        assert code == 2
        report = _read_report(tmp_path / "r")
        assert report["verdict"] == "falsified"
        assert "not forward complete" in report["reason"]
        assert len(report["witness"]) == 1

    def test_controlled_system_is_operational_error(self, tmp_path):
        # metric and certify need a closed loop, which only stabilize builds
        spec = tmp_path / "plant.txt"
        spec.write_text("dim=1; F1 = -x1; g1 = 1\n")
        for command in ("metric", "certify"):
            code = main([command, "--system", str(spec), "--samples", "2",
                         "--out", str(tmp_path / command)])
            assert code == 1

    def test_point_size_mismatch_is_operational_error(self, tmp_path,
                                                      capsys):
        # a comma list is 1-D points: a 2-D system must reject it before
        # any of its points reaches the integrator
        spec = tmp_path / "planar.txt"
        spec.write_text("dim=2; F1 = -x1 + x2^2; F2 = -2*x2 - x1*x2\n")
        code = main(["metric", "--system", str(spec), "--variant",
                     "rescaled", "--grid=0.8,-0.5", "--out",
                     str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --grid '0.8,-0.5'")
        assert not (tmp_path / "r" / "report.json").exists()

    def test_rescaled_variant(self, tmp_path):
        code = main(["metric", "--system", "scalar-example",
                     "--variant", "rescaled", "--out", str(tmp_path),
                     "--samples", "2", "--grid=-1,0.5,1"])
        assert code == 0
        report = _read_report(tmp_path)
        assert report["residuals"]["max_eigenvalue"] <= 1e-4
        assert min(report["bounds"]["empirical_lower"]) >= 0.5 - 1e-6


class TestCertify:
    def test_linear_origin_passes(self, tmp_path):
        payload = tmp_path / "stable.json"
        payload.write_text(json.dumps({"A": [[0.0, 1.0], [-1.0, -1.0]]}))
        code = main(["certify", "--system", f"linear:{payload}",
                     "--variant", "origin", "--out", str(tmp_path / "r"),
                     "--samples", "2", "--grid", "1,0;0,1;0.7,0.7"])
        assert code == 0
        report = _read_report(tmp_path / "r")
        assert report["verdict"] == "pass"
        assert report["flagged_fraction"] == 0.0
        # V equals the closed form sqrt(e' P e) for the constant metric
        from lyapmetric.catalog import linear_baseline

        base = linear_baseline(np.array([[0.0, 1.0], [-1.0, -1.0]]))
        for row in report["points"]:
            e = np.array(row["point"])
            assert row["V"] == pytest.approx(
                float(np.sqrt(e @ base.p @ e)), abs=1e-8)

    def test_one_distance_solve_per_point(self, tmp_path, monkeypatch):
        # D+V comes from the gradient of the one distance solve: no Dini
        # ladder, and on a constant metric D+V = e' P A e / V exactly
        from lyapmetric import geometry
        from lyapmetric.catalog import linear_baseline

        solves, ladders = [], []
        real = geometry._distance_between
        monkeypatch.setattr(
            geometry, "_distance_between",
            lambda *a, **k: solves.append(list(a[2])) or real(*a, **k))
        monkeypatch.setattr(geometry, "dini_derivative_V",
                            lambda *a, **k: ladders.append(a))
        a = np.array([[0.0, 1.0], [-1.0, -1.0]])
        payload = tmp_path / "stable.json"
        payload.write_text(json.dumps({"A": a.tolist()}))
        code = main(["certify", "--system", f"linear:{payload}",
                     "--variant", "origin", "--out", str(tmp_path / "r"),
                     "--samples", "2", "--grid", "1,0;0,1;0.7,0.7"])
        assert code == 0
        report = _read_report(tmp_path / "r")
        assert solves == [row["point"] for row in report["points"]]
        assert not ladders
        p = linear_baseline(a).p
        for row in report["points"]:
            e = np.array(row["point"])
            v = float(np.sqrt(e @ p @ e))
            assert row["dini"] == pytest.approx(e @ p @ a @ e / v, abs=1e-9)

    @pytest.mark.parametrize("text, variant, grid, origin", [
        ("dim=2; F1 = -2*x1 + 0.1; F2 = -x2", "along-solutions",
         "1,0;0,1;-1,0;0.7,0.7", [0.0, 0.0]),
        ("dim=2; F1 = -2*x1 + 0.1; F2 = -x2", "origin",
         "1,0;0,1;-1,0;0.7,0.7", [0.0, 0.0]),
        ("dim=2; F1 = -2*x1 + 0.1; F2 = -x2", "rescaled",
         "1,0;0,1;-1,0;0.7,0.7", [0.0, 0.0]),
        ("dim=1; F1 = -x1 + 0.1", "along-solutions", "-1,1", [0.0]),
    ])
    def test_offset_origin_is_falsified(self, text, variant, grid, origin,
                                        tmp_path):
        # F(0) != 0: V = d(e, 0) certifies nothing about a point that is
        # not an equilibrium, whatever the metric variant
        spec = tmp_path / "offset.txt"
        spec.write_text(text + "\n")
        code = main(["certify", "--system", str(spec), "--variant", variant,
                     f"--grid={grid}", "--samples", "2", "--radii", "1",
                     "--out", str(tmp_path / "r")])
        assert code == 2
        report = _read_report(tmp_path / "r")
        assert report["verdict"] == "falsified"
        assert report["stage"] == "equilibrium"
        assert report["witness"] == origin

    def test_decrease_violation_fails_certificate(self, tmp_path):
        # stable at the origin, divergent beyond |e| ~ 1: the constant
        # origin metric is tight for the linearization, so it certifies
        # only points where the cubic softening is below the tolerance
        spec = tmp_path / "local_only.txt"
        spec.write_text("dim = 1\nF1 = -x1 + 0.9 * x1^3\n")
        code = main(["certify", "--system", str(spec), "--variant", "origin",
                     "--out", str(tmp_path / "r"), "--samples", "2",
                     "--grid", "0.02,1.2"])
        assert code == 2
        report = _read_report(tmp_path / "r")
        assert report["verdict"] == "fail"
        verdicts = {tuple(r["point"]): r["ok"] for r in report["points"]}
        assert verdicts[(0.02,)] is True
        assert verdicts[(1.2,)] is False
        # the large point genuinely grows: its flow derivative is positive
        rows = {tuple(r["point"]): r for r in report["points"]}
        assert rows[(1.2,)]["dini"] > 0.0

    def test_transverse_slow_regime_falsified(self, tmp_path):
        code = main(["certify", "--system", "transverse-counterexample",
                     "--variant", "transverse", "--out", str(tmp_path),
                     "--samples", "2", "--horizon", "6",
                     "--radii", "0.5,1", "--grid", "0.5,1"])
        assert code == 2
        report = _read_report(tmp_path)
        assert report["verdict"] == "falsified"
        assert report["stage"] == "linearized-decay"

    def test_transverse_fast_regime_passes(self, tmp_path):
        spec = tmp_path / "fast.txt"
        spec.write_text("dim = 2\ne_dim = 1\nlam = 2.0\nmu_x = 1.0\n"
                        "F1 = -(lam + x2 * sin(x2)) * x1\nG1 = mu_x * x2\n")
        code = main(["certify", "--system", str(spec),
                     "--variant", "transverse", "--out", str(tmp_path / "r"),
                     "--samples", "2", "--horizon", "6",
                     "--radii", "0.5,1", "--grid", "0.5,1"])
        assert code == 0
        report = _read_report(tmp_path / "r")
        assert report["residuals"]["verdict"] == "pass"


class TestScalarCertify:
    def test_second_equilibrium_is_falsified(self, tmp_path):
        # -x + x^3 vanishes at +-1: the decay samples at radius 0.5 pass,
        # the closed-form metric's precondition s F(s) < 0 does not
        spec = tmp_path / "bistable.txt"
        spec.write_text("dim=1; F1 = -x1 + x1^3\n")
        code = main(["certify", "--system", str(spec), "--radii=0.5",
                     "--grid=2", "--out", str(tmp_path / "r")])
        assert code == 2
        report = _read_report(tmp_path / "r")
        assert report["verdict"] == "falsified"
        assert report["stage"] == "scalar-metric"
        [w] = report["witness"]
        assert abs(w) > 1.0 and w * (-w + w ** 3) >= 0.0

    def test_solves_only_for_the_decay_estimate(self, tmp_path,
                                                 monkeypatch):
        from lyapmetric import catalog, geometry, integrate
        from lyapmetric.estimation import estimate_linearized_decay
        from lyapmetric.metric import scalar_metric_field

        solves = []
        real = integrate.solve
        monkeypatch.setattr(integrate, "solve",
                            lambda *a, **k: solves.append(1) or real(*a, **k))
        code = main(["certify", "--system", "scalar-example",
                     "--grid=-2,-1,0.5,1,2", "--out", str(tmp_path)])
        assert code == 0
        certify_solves = len(solves)

        config = RunConfig(command="certify", system="scalar-example")
        model = catalog.get("scalar-example").build()
        decay = estimate_linearized_decay(
            model, config.radii_values(), n_samples=config.samples,
            horizon=config.horizon, tol=config.tol, seed=config.seed)
        assert certify_solves == len(solves) - certify_solves

        # V against the quadrature oracle; the exact D+V against the Dini
        # ladder, which shares no code with it, on the same metric
        field = scalar_metric_field(model, decay=decay)
        report = _read_report(tmp_path)
        assert len(report["points"]) == 5
        for row in report["points"]:
            e = row["point"][0]
            oracle = catalog.scalar_example_distance_oracle(
                lambda x: catalog.scalar_example_metric_oracle(x[0]), e)
            assert not row["flagged"]
            assert abs(row["V"] - oracle) <= 1e-6
            ladder = geometry.dini_derivative_V(field, model, [e])
            assert abs(row["dini"] - ladder.value) <= 1e-5


class TestStabilize:
    def test_scalar_plant(self, tmp_path):
        spec = tmp_path / "plant.txt"
        spec.write_text("dim = 1\nF1 = x1\ng1 = 1\n")
        code = main(["stabilize", "--system", str(spec),
                     "--lambda-gain", "3", "--out", str(tmp_path / "r"),
                     "--samples", "2", "--grid=-2,-1,1,2"])
        assert code == 0
        report = _read_report(tmp_path / "r")
        assert report["verdict"] == "pass"
        assert report["controller"]["killing_residual_sup"] <= 1e-8
        assert report["controller"]["integrability_residual_sup"] <= 1e-8
        text = (tmp_path / "r" / "closed_loop.txt").read_text()
        from lyapmetric import parse_system

        closed = parse_system(text)
        assert closed.f(np.array([1.0]))[0] == pytest.approx(-2.0, abs=1e-12)

    def test_first_variation_dini_is_exact_on_cubic_plant(self, tmp_path):
        # the closed loop has F(1, 0) = (-4, -4); with P = I, V = |e| and
        # D+V = e . F / |e| = -4 exactly (the Dini ladder gave -3.99976)
        spec = tmp_path / "plant.txt"
        spec.write_text("dim=2; F1 = x2 - x1^3; F2 = -x1 + 0.5*x2; "
                        "g1 = 1; g2 = 1\n")
        code = main(["stabilize", "--system", str(spec),
                     "--lambda-gain", "3", "--grid=1,0;",
                     "--out", str(tmp_path / "r")])
        assert code == 0
        report = _read_report(tmp_path / "r")
        assert report["verdict"] == "pass"
        [row] = report["closed_loop_certificate"]["points"]
        assert row["dini"] == pytest.approx(-4.0, abs=1e-9)
        assert row["bound"] == pytest.approx(-0.5, abs=1e-9)

    def test_non_finite_metric_names_its_flag(self, tmp_path, capsys):
        spec = tmp_path / "plant.txt"
        spec.write_text("dim = 1\nF1 = x1\ng1 = 1\n")
        code = main(["stabilize", "--system", str(spec), "--lambda-gain", "3",
                     "--grid=1", "--metric", "nan",
                     "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --metric ")
        assert "Q" not in err
        assert not (tmp_path / "r" / "report.json").exists()

    def test_offset_closed_loop_is_falsified(self, tmp_path):
        # the three conditions hold, but the loop x1 + 0.1 - 3 x1 rests at
        # 0.05: the certificate about the origin must not pass, and the
        # loop is not exported
        spec = tmp_path / "plant.txt"
        spec.write_text("dim = 1\nF1 = x1 + 0.1\ng1 = 1\n")
        code = main(["stabilize", "--system", str(spec),
                     "--lambda-gain", "3", "--grid=-2,-1,1,2",
                     "--out", str(tmp_path / "r")])
        assert code == 2
        report = _read_report(tmp_path / "r")
        assert report["verdict"] == "falsified"
        assert report["stage"] == "equilibrium"
        assert report["witness"] == [0.0]
        assert not (tmp_path / "r" / "closed_loop.txt").exists()

    def test_non_finite_grid_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "plant.txt"
        spec.write_text("dim = 1\nF1 = x1\ng1 = 1\n")
        code = main(["stabilize", "--system", str(spec), "--lambda-gain", "3",
                     "--grid=nan", "--out", str(tmp_path / "r")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --grid: ")
        assert not (tmp_path / "r" / "report.json").exists()

    def test_insufficient_gain_exits_two(self, tmp_path):
        spec = tmp_path / "plant.txt"
        spec.write_text("dim = 1\nF1 = x1\ng1 = 1\n")
        code = main(["stabilize", "--system", str(spec),
                     "--lambda-gain", "1", "--out", str(tmp_path / "r"),
                     "--samples", "2", "--grid=-1,1"])
        assert code == 2
        report = _read_report(tmp_path / "r")
        assert report["verdict"] == "falsified"
        assert "condition 1" in report["reason"]
        assert "witness" in report


class TestDeterminism:
    def test_reports_byte_identical_under_fixed_seed(self, tmp_path):
        args = ["analyze", "--system", "scalar-example",
                "--out", str(tmp_path), "--samples", "2", "--seed", "11"]
        assert main(args) == 0
        first = (tmp_path / "report.json").read_bytes()
        assert main(args) == 0
        second = (tmp_path / "report.json").read_bytes()
        assert first == second
