import csv
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatsource import cli
from heatsource.cli import (EXIT_DIVERGED, EXIT_ERROR, EXIT_INVALID_CONFIG,
                            EXIT_IO_FAILURE, EXIT_MISSING_FILE,
                            EXIT_NOT_CONVERGED, EXIT_OK, EXIT_PARSE_ERROR,
                            ConfigError, ConfigFileMissingError,
                            ConfigParseError, ConfigValueError, RunConfig,
                            config_echo, dispatch, main, parse_config,
                            parse_config_text)
from heatsource.errors import DivergenceError, DomainError, HeatSourceError
from heatsource.harness import get_case
from heatsource.output import OutputError


def read_summary(path):
    pairs = {}
    for line in Path(path).read_text().strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


# Each ranged key at its first bad value, with the full error message.
_RANGE_ERRORS = [
    ("n_x=0", "n_x=0: n_x must be an integer >= 1"),
    ("n_t=-2", "n_t=-2: n_t must be an integer >= 1"),
    ("alpha=-2", "alpha=-2.0: alpha must be >= 0"),
    ("epsilon=0", "epsilon=0.0: epsilon must be > 0"),
    ("max_iters=-1", "max_iters=-1: max_iters must be >= 0"),
    ("noise_level=-1e-300", "noise_level=-1e-300: noise_level must be >= 0"),
    ("seed=-1", "seed=-1: seed must be an integer >= 0"),
    ("i_x=0", "i_x=0: i_x must be an integer >= 1"),
    ("i_t=0", "i_t=0: i_t must be an integer >= 1"),
    # a sweep entry is checked like the key it stands for, and named with
    # the whole value
    ("sweep_n=6x5,0x5",
     "sweep_n entry '0x5' in '6x5,0x5': n_x must be an integer >= 1"),
    ("sweep_n=6x0",
     "sweep_n entry '6x0' in '6x0': n_t must be an integer >= 1"),
    ("sweep_alpha=1e-6,-1",
     "sweep_alpha entry '-1' in '1e-6,-1': alpha must be >= 0"),
]


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config_text("command=invert\ncase=example1\n")
        assert cfg.alpha == 1e-6
        assert cfg.epsilon == 1e-3
        assert cfg.max_iters == 10_000
        assert cfg.i_x == 100 and cfg.i_t == 100
        assert cfg.n_x == 12 and cfg.n_t == 9
        assert cfg.seed == 42
        assert cfg.x_star is None

    def test_sensitivity_command_curve_defaults(self):
        cfg = parse_config_text("command=sensitivity")
        assert cfg.n_x == 6 and cfg.n_t == 5
        cfg = parse_config_text("command=sensitivity\nn_x=8")
        assert cfg.n_x == 8 and cfg.n_t == 5

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\ncommand=invert  # trailing\n"
                        "alpha=1e-4\n")
        cfg = parse_config(path)
        assert cfg.alpha == 1e-4

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command=invert\nalpha=1e-6\n")
        cfg = parse_config(path, {"alpha": "1e-4"})
        assert cfg.alpha == 1e-4

    @pytest.mark.parametrize("line, message", _RANGE_ERRORS,
                             ids=[line for line, _ in _RANGE_ERRORS])
    @pytest.mark.parametrize("command", ["invert", "sweep"])
    def test_range_violations(self, command, line, message):
        with pytest.raises(ConfigValueError) as err:
            parse_config_text(f"command={command}\n{line}\n")
        assert str(err.value) == message

    def test_unknown_key_rejected(self):
        # no prefix matching; the truncation policy is a library-only
        # setting.  The error lists every key, config included.
        for key in ("bogus", "alp", "restart_period", "trunc_tol",
                    "max_terms"):
            with pytest.raises(ConfigValueError, match="unknown config keys"
                               ) as err:
                parse_config_text(f"command=invert\n{key}=1\n")
            listed = str(err.value).partition("known keys: ")[2]
            assert listed.startswith("config (command line only), ")
            assert {f.name for f in fields(RunConfig)} <= set(
                listed.replace(",", " ").split())

    @pytest.mark.parametrize("value", ["a#b", "a\nb", "a\rb", "1\n",
                                       "x\u2028y"])
    def test_value_a_file_line_cannot_hold_rejected(self, value):
        # the summary's config echo is a file; it must read back the same
        with pytest.raises(ConfigValueError, match="'#' or a line break"):
            parse_config(None, {"command": "forward", "run_id": value})

    def test_unknown_case_and_command(self):
        with pytest.raises(ConfigValueError, match="case"):
            parse_config_text("command=invert\ncase=nope\n")
        with pytest.raises(ConfigValueError, match="command"):
            parse_config_text("command=paint\n")

    def test_unknown_case_prints_its_message_unquoted(self, tmp_path,
                                                      capsys):
        assert main(["invert", "--case", "nope", "--outdir",
                     str(tmp_path)]) == EXIT_INVALID_CONFIG
        assert capsys.readouterr().err == (
            "error: unknown case 'nope'; available: "
            "['example1', 'polynomial']\n")

    def test_x_star_must_sit_inside_domain(self):
        with pytest.raises(ConfigValueError, match="x_star"):
            parse_config_text("command=invert\nx_star=9.0\n")
        cfg = parse_config_text("command=invert\nx_star=2.97\n")
        assert cfg.x_star == 2.97

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("command=invert\njust words\n")
        with pytest.raises(ConfigParseError, match="2"):
            parse_config(path)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = "command=invert\nalpha=3e-5\nrun_id=bom\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_config(marked) == parse_config(plain)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigFileMissingError):
            parse_config(tmp_path / "none.cfg")

    def test_bad_number(self):
        with pytest.raises(ConfigValueError, match="expected a number"):
            parse_config_text("command=invert\nalpha=abc\n")

    def test_phi_theta_lists(self):
        cfg = parse_config_text("command=forward\nphi=1.0,2.5\ntheta=0,0,1\n")
        assert cfg.phi == (1.0, 2.5)
        assert cfg.theta == (0.0, 0.0, 1.0)

    def test_outdir_env_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HEATSOURCE_OUTDIR", str(tmp_path))
        cfg = parse_config_text("command=invert\n")
        assert cfg.outdir == str(tmp_path)
        cfg = parse_config_text(f"command=invert\noutdir={tmp_path}/explicit\n")
        assert cfg.outdir == f"{tmp_path}/explicit"
        monkeypatch.delenv("HEATSOURCE_OUTDIR")
        cfg = parse_config_text("command=invert\n")
        assert cfg.outdir == "."

    def test_round_trip_echo(self):
        cfg = parse_config_text(
            "command=invert\nalpha=3e-5\nx_star=0.99\nmax_iters=9\n"
            "run_id=abc\nseed=5\n")
        text = "\n".join(f"{k}={v}" for k, v in config_echo(cfg))
        again = parse_config_text(text)
        assert again == cfg


class TestDispatch:
    def test_invert_writes_artifacts(self, tmp_path):
        cfg = parse_config_text(
            "command=invert\ncase=example1\nn_x=6\nn_t=5\ni_x=60\ni_t=60\n"
            f"outdir={tmp_path}\nrun_id=run\n")
        code = dispatch(cfg)
        assert code == EXIT_OK
        summary = read_summary(tmp_path / "run_summary.txt")
        assert summary["status"] == "converged"
        assert float(summary["final_cost"]) < 1e-3
        assert float(summary["e_f"]) > 0
        trace_lines = (tmp_path / "run_trace.csv").read_text().strip().splitlines()
        assert len(trace_lines) - 1 == int(summary["iterations"]) + 1
        for name in ("run_source.csv", "run_initial.csv"):
            lines = (tmp_path / name).read_text().strip().splitlines()
            assert lines[0].count(",") == 2
            assert len(lines) == 60 + 2  # header + I + 1 nodes

    def test_summary_config_echo_reparses(self, tmp_path):
        cfg = parse_config_text(
            f"command=invert\nn_x=4\nn_t=3\ni_x=30\ni_t=30\noutdir={tmp_path}\n"
            "max_iters=60\nrun_id=echoed\n")
        dispatch(cfg)
        summary = read_summary(tmp_path / "echoed_summary.txt")
        echo_text = "\n".join(
            f"{k.removeprefix('config.')}={v}" for k, v in summary.items()
            if k.startswith("config."))
        assert parse_config_text(echo_text) == cfg

    def test_invert_not_converged_exit_code(self, tmp_path):
        cfg = parse_config_text(
            f"command=invert\nn_x=6\nn_t=5\ni_x=40\ni_t=40\noutdir={tmp_path}\n"
            "max_iters=2\n")
        assert dispatch(cfg) == EXIT_NOT_CONVERGED

    def test_forward_zero_params(self, tmp_path):
        cfg = parse_config_text(
            f"command=forward\nn_x=4\nn_t=3\ni_x=25\ni_t=25\noutdir={tmp_path}\n"
            "run_id=fwd\n")
        assert dispatch(cfg) == EXIT_OK
        for name, col in (("fwd_final_profile.csv", 1),
                          ("fwd_sensor_history.csv", 1)):
            lines = (tmp_path / name).read_text().strip().splitlines()
            values = [float(line.split(",")[col]) for line in lines[1:]]
            assert all(v == 0.0 for v in values)

    def test_forward_with_coefficients(self, tmp_path):
        cfg = parse_config_text(
            f"command=forward\ncase=polynomial\nphi=1.0,1.0\ntheta=0,2,-1\n"
            f"i_x=20\ni_t=20\noutdir={tmp_path}\nrun_id=fwd2\n")
        assert dispatch(cfg) == EXIT_OK
        summary = read_summary(tmp_path / "fwd2_summary.txt")
        assert float(summary["max_abs_final"]) > 0.1

    def test_sensitivity_default_tables(self, tmp_path):
        cfg = parse_config_text(
            f"command=sensitivity\ni_x=30\ni_t=30\noutdir={tmp_path}\n"
            "run_id=sens\n")
        assert dispatch(cfg) == EXIT_OK
        names = sorted(p.name for p in tmp_path.glob("sens_*.csv"))
        assert names == ["sens_final_by_initial.csv",
                         "sens_final_by_source.csv",
                         "sens_sensor_by_initial.csv",
                         "sens_sensor_by_source.csv"]
        widths = {}
        for name in names:
            header = (tmp_path / name).read_text().splitlines()[0]
            widths[name] = len(header.split(","))
        assert widths["sens_final_by_initial.csv"] == 7
        assert widths["sens_sensor_by_initial.csv"] == 7
        assert widths["sens_final_by_source.csv"] == 6
        assert widths["sens_sensor_by_source.csv"] == 6

    def test_stationarity_audit_runs_only_for_invert(self, tmp_path,
                                                     monkeypatch):
        # Only invert's summary reads the audit: a sweep cell's solve does
        # not run it, and invert runs it once on the returned coefficients.
        from heatsource import solver

        calls = []
        real = solver.stationarity_check

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(solver, "stationarity_check", counting)
        monkeypatch.setattr(cli, "stationarity_check", counting,
                            raising=False)
        sized = ["--i_x", "20", "--i_t", "20", "--outdir", str(tmp_path)]
        assert main(["sweep", "--sweep_n", "4x3", "--sweep_xstar", "2.97",
                     *sized]) == EXIT_OK
        assert calls == []
        main(["invert", "--n_x", "4", "--n_t", "3", *sized])
        assert len(calls) == 1

    def test_sweep_single_cell(self, tmp_path):
        cfg = parse_config_text(
            f"command=sweep\nsweep_n=6x5\nsweep_xstar=2.97\ni_x=40\ni_t=40\n"
            f"outdir={tmp_path}\nrun_id=sw\n")
        assert dispatch(cfg) == EXIT_OK
        lines = (tmp_path / "sw_sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        summary = read_summary(tmp_path / "sw_summary.txt")
        assert summary["converged_cells"] == "1"

    def test_identical_config_gives_identical_artifacts(self, tmp_path):
        text = ("command=invert\nn_x=4\nn_t=3\ni_x=30\ni_t=30\n"
                "noise_level=0.01\nseed=9\nmax_iters=200\n")
        for sub in ("a", "b"):
            cfg = parse_config_text(
                text + f"outdir={tmp_path / sub}\nrun_id=same\n")
            dispatch(cfg)
        for name in ("same_trace.csv", "same_source.csv", "same_initial.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_io_failure_exit_code(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        cfg = parse_config_text(
            f"command=forward\nn_x=2\nn_t=2\ni_x=5\ni_t=5\n"
            f"outdir={blocker / 'sub'}\n")
        assert dispatch(cfg) == EXIT_IO_FAILURE

    def test_summary_is_written_once_by_dispatch(self, tmp_path, capsys,
                                                 monkeypatch):
        # the runner returns its tables, pairs, message and outcome;
        # dispatch writes the tables, adds the config echo, prints the
        # message and picks the exit code
        def runner(cfg):
            return ([("table", ["a"], [[1]])], [("status", "partial")],
                    "half done", False)

        monkeypatch.setitem(cli._RUNNERS, "forward", runner)
        cfg = parse_config_text(
            f"command=forward\noutdir={tmp_path}\nrun_id=stub\n")
        assert dispatch(cfg) == EXIT_NOT_CONVERGED
        assert capsys.readouterr().out == "stub: half done\n"
        assert (tmp_path / "stub_table.csv").read_text() == "a\n1\n"
        summary = read_summary(tmp_path / "stub_summary.txt")
        assert list(summary)[0] == "status"
        assert [k for k in summary if k.startswith("config.")] == [
            f"config.{f.name}" for f in fields(RunConfig)]

    @pytest.mark.parametrize("exc, code, line", [
        (DivergenceError("injected"), EXIT_DIVERGED,
         "iteration diverged: injected"),
        (OutputError("injected"), EXIT_IO_FAILURE, "injected"),
        (OSError("injected"), EXIT_IO_FAILURE, "injected"),
        (DomainError("injected"), EXIT_INVALID_CONFIG, "injected"),
        (FloatingPointError("injected"), EXIT_INVALID_CONFIG,
         "run overflows a float (injected)"),
        (MemoryError("injected"), EXIT_INVALID_CONFIG,
         "run needs more memory than is available (injected)"),
        (HeatSourceError("injected"), EXIT_ERROR, "injected"),
    ], ids=["DivergenceError", "OutputError", "OSError", "DomainError",
            "FloatingPointError", "MemoryError", "HeatSourceError"])
    def test_run_failure_exit_code(self, tmp_path, capsys, monkeypatch,
                                   exc, code, line):
        # dispatch maps each run failure by its first matching kind and
        # reports it in one error: line; the exact-step iteration cannot
        # diverge on finite data, and a real MemoryError would need a real
        # allocation, so the failures are injected
        def boom(cfg):
            raise exc

        monkeypatch.setitem(cli._RUNNERS, "invert", boom)
        cfg = parse_config_text(f"command=invert\noutdir={tmp_path}\n")
        assert dispatch(cfg) == code
        assert capsys.readouterr() == ("", f"error: {line}\n")


class TestMain:
    def test_exit_code_contract(self, tmp_path):
        assert main(["invert", "--case", "nope"]) == EXIT_INVALID_CONFIG
        assert main(["invert", "--epsilon", "-1"]) == EXIT_INVALID_CONFIG
        assert main(["invert", "--config",
                     str(tmp_path / "missing.cfg")]) == EXIT_MISSING_FILE
        bad = tmp_path / "bad.cfg"
        bad.write_text("no equals sign here\n")
        assert main(["invert", "--config", str(bad)]) == EXIT_PARSE_ERROR

    def test_end_to_end_invert(self, tmp_path):
        code = main(["invert", "--n_x", "6", "--n_t", "5", "--i_x", "50",
                     "--i_t", "50", "--outdir", str(tmp_path),
                     "--run_id", "e2e"])
        assert code == EXIT_OK
        assert (tmp_path / "e2e_summary.txt").exists()

    @pytest.mark.parametrize("args", [
        ["forward", "--case", "polynomial", "--phi", "1,1",
         "--theta", "0,2,-1"],
        ["invert", "--n_x", "6", "--n_t", "5"],
        ["sensitivity", "--n_x", "6", "--n_t", "5"],
        # the 200x9 cell fails with an error status that holds a comma
        ["sweep", "--sweep_n", "200x9,3x2", "--sweep_xstar", "2.97"],
    ], ids=lambda args: args[0])
    def test_every_csv_row_is_as_wide_as_its_header(self, tmp_path, args):
        main([*args, "--i_x", "10", "--i_t", "10",
              "--outdir", str(tmp_path)])
        paths = sorted(tmp_path.glob("*.csv"))
        assert paths
        for path in paths:
            with open(path, newline="") as file:
                header, *rows = csv.reader(file)
            assert rows, path
            assert {len(row) for row in rows} == {len(header)}, path
        if args[0] == "sweep":
            assert "," in rows[0][header.index("status")]

    def test_flag_beats_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command=sensitivity\nn_x=6\nn_t=5\ni_x=20\ni_t=20\n"
                        f"outdir={tmp_path}\nrun_id=flagged\n")
        code = main(["sensitivity", "--config", str(path), "--n_x", "3"])
        assert code == EXIT_OK
        header = (tmp_path / "flagged_final_by_initial.csv").read_text().splitlines()[0]
        assert len(header.split(",")) == 4

    def test_unreachable_epsilon_stops_at_floor(self, tmp_path):
        code = main(["invert", "--n_x", "6", "--n_t", "5", "--noise_level",
                     "0.01", "--epsilon", "1e-14", "--outdir", str(tmp_path),
                     "--run_id", "noisy"])
        assert code == EXIT_NOT_CONVERGED
        summary = read_summary(tmp_path / "noisy_summary.txt")
        assert summary["status"] == "floor"
        assert summary["converged"] == "false"
        assert float(summary["final_cost"]) == pytest.approx(
            float(summary["cost_floor"]), rel=1e-10)

    def test_noisy_polynomial_12x9_stops_at_floor(self, tmp_path):
        # epsilon (1e-3) lies below the floor (1.24e-2).  CG in the
        # monomial coefficients (condition number 3.7e10) ran all 10000
        # iterations and ended 8.4e-10 relative above the floor, outside
        # its 3.1e-12 rounding allowance; the Legendre run stops after 79,
        # 2.1e-12 above it.
        code = main(["invert", "--case", "polynomial", "--noise_level",
                     "0.01", "--outdir", str(tmp_path), "--run_id", "poly"])
        assert code == EXIT_NOT_CONVERGED
        summary = read_summary(tmp_path / "poly_summary.txt")
        assert (summary["config.n_x"], summary["config.n_t"]) == ("12", "9")
        assert summary["status"] == "floor"
        assert int(summary["iterations"]) <= 100
        assert float(summary["final_cost"]) == pytest.approx(
            float(summary["cost_floor"]), rel=1e-11)

    def test_summary_reports_the_cost_of_the_returned_coefficients(
            self, tmp_path):
        # final_cost is the Legendre iterate's; returned_cost is the
        # objective at the monomial coefficients x = T y that invert
        # returns, appended after the earlier keys.
        from heatsource.harness import (generate_measurements, get_case,
                                        invert_case)
        from heatsource.model import MeasurementMesh, sensitivity_tables
        from heatsource.objective import ObjectiveConfig, cost
        from heatsource.output import format_value
        from heatsource.solver import SolverConfig

        code = main(["invert", "--case", "polynomial", "--noise_level",
                     "0.01", "--outdir", str(tmp_path), "--run_id", "poly"])
        assert code == EXIT_NOT_CONVERGED
        summary = read_summary(tmp_path / "poly_summary.txt")
        assert list(summary)[:16] == [
            "status", "converged", "iterations", "final_cost",
            "grad_phi_norm", "grad_theta_norm", "e_f", "e_u0",
            "fit_residual_f", "fit_residual_u0", "stationarity_holds_mixed",
            "stationarity_holds_symmetric", "stationarity_worst_margin_mixed",
            "stationarity_worst_margin_symmetric", "cost_floor",
            "returned_cost"]
        case = get_case("polynomial")
        obj_cfg = ObjectiveConfig(alpha=1e-6)
        result = invert_case(case, 12, 9, obj_cfg, SolverConfig(),
                             noise_level=0.01, seed=42)
        mesh = MeasurementMesh.regular(case.geometry, 100, 100)
        want = cost(result.params, generate_measurements(case, mesh, 0.01, 42),
                    obj_cfg, sensitivity_tables(case.geometry, mesh, 12, 9))
        assert summary["returned_cost"] == format_value(want)
        assert want != result.report.final_cost
        assert want == pytest.approx(result.report.final_cost, rel=1e-8)

    @pytest.mark.parametrize("argv, code", [
        (["sweep", "--sweep_alpha", "abc"], EXIT_INVALID_CONFIG),
        (["sweep", "--sweep_n", "0x5"], EXIT_INVALID_CONFIG),
        (["sweep", "--sweep_alpha", "-1"], EXIT_INVALID_CONFIG),
        (["sweep", "--sweep_xstar", "99"], EXIT_INVALID_CONFIG),
        (["sweep", "--sweep_n", ","], EXIT_INVALID_CONFIG),  # empty grid
        (["invert", "--config", "{tmp}"], EXIT_MISSING_FILE),
        (["invert", "--config", "{tmp}/latin1.cfg"], EXIT_PARSE_ERROR),
        (["invert", "--noise_level", "inf"], EXIT_INVALID_CONFIG),
        (["invert", "--seed", "-1", "--noise_level", "0.01"],
         EXIT_INVALID_CONFIG),
        (["invert", "--alpha", "inf"], EXIT_INVALID_CONFIG),
        (["forward", "--phi", "nan"], EXIT_INVALID_CONFIG),
        (["forward", "--theta", "1,inf"], EXIT_INVALID_CONFIG),
        # flags and file lines share one parser: no option prefixes, no
        # flag without its value, exactly one known command word
        (["invert", "--bogus", "1"], EXIT_INVALID_CONFIG),
        (["invert", "--alp", "1e-5"], EXIT_INVALID_CONFIG),
        (["invert", "--alpha"], EXIT_INVALID_CONFIG),
        ([], EXIT_INVALID_CONFIG),
        (["paint"], EXIT_INVALID_CONFIG),
        (["invert", "extra"], EXIT_INVALID_CONFIG),
        (["invert", "--command", "sweep"], EXIT_INVALID_CONFIG),
        # a value no config file line can hold
        (["invert", "--run_id", "a#b"], EXIT_INVALID_CONFIG),
        (["invert", "--run_id=a\nb"], EXIT_INVALID_CONFIG),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_bad_input_exit_code(self, tmp_path, capsys, argv, code):
        (tmp_path / "latin1.cfg").write_bytes(
            b"command=invert\nrun_id=caf\xe9\n")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        small = ["--i_x", "20", "--i_t", "20", "--max_iters", "5",
                 "--outdir", str(tmp_path / "out")]
        # the small-run flags go first, so a case may end on a bare flag
        assert main(small + argv) == code
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"], ["invert", "-h"], ["sweep", "--n_x", "3", "--help"],
    ], ids=" ".join)
    def test_help_names_every_key(self, capsys, argv):
        assert main(argv) == EXIT_OK
        listed = capsys.readouterr().out.partition("Keys:")[2]
        listed = set(listed.replace(",", " ").replace(".", " ").split())
        assert {"config"} | {f.name for f in fields(RunConfig)} <= listed

    @pytest.mark.parametrize("argv, line", [
        (["forward", "--phi", "1.0,,2.0"],
         "error: phi entry '' in '1.0,,2.0': expected a number"),
        (["forward", "--theta", "1,abc"],
         "error: theta entry 'abc' in '1,abc': expected a number"),
        (["sweep", "--sweep_xstar", "1,abc"],
         "error: sweep_xstar entry 'abc' in '1,abc': expected a number"),
        (["sweep", "--sweep_alpha", "1e-6, abc"],
         "error: sweep_alpha entry 'abc' in '1e-6, abc': expected a number"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_bad_list_entry_is_named_with_its_value(self, tmp_path, capsys,
                                                    argv, line):
        assert main(argv + ["--outdir", str(tmp_path)]) \
            == EXIT_INVALID_CONFIG
        assert capsys.readouterr().err.splitlines() == [line]

    def test_help_token_after_a_flag_is_its_value(self, tmp_path, capsys):
        assert main(["invert", "--n_x", "-h", "--outdir",
                     str(tmp_path)]) == EXIT_INVALID_CONFIG
        assert "n_x='-h': expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # the default grid follows the case: polynomial's rod is (0, 2)
        ["sweep", "--case", "polynomial"],
        # negative comma lists after a flag are values, not options
        ["sweep", "--sweep_n", "6x5", "--sweep_xstar", "-1.34,2.97"],
        ["forward", "--phi", "-1,0.5", "--theta", "-1,2,0"],
        # a sensor moves the sensitivity rod off the demo geometry
        ["sensitivity", "--x_star", "1.0"],
    ], ids=" ".join)
    def test_accepted_input_exit_code(self, tmp_path, capsys, argv):
        small = ["--i_x", "20", "--i_t", "20", "--outdir", str(tmp_path)]
        assert main(argv + small) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err


def _rod_ends(case_name):
    # Each rod end is outside; one ulp in from it is inside.
    geom = get_case(case_name).geometry
    lo, hi = geom.offset, geom.offset + geom.length
    return [(lo, False), (np.nextafter(lo, np.inf), True),
            (np.nextafter(hi, -np.inf), True), (hi, False)]


@pytest.mark.parametrize("case_name, x, inside", [
    (case_name, x, inside) for case_name in ("example1", "polynomial")
    for x, inside in _rod_ends(case_name)])
def test_every_sensor_check_follows_the_rod_interior(case_name, x, inside):
    # The geometry, the x_star key and the sweep_xstar key reject a sensor
    # exactly where Geometry.contains is false.
    geom = get_case(case_name).geometry
    x = float(x)
    assert geom.contains(x) == inside
    checks = [
        (lambda: geom.with_sensor(x), DomainError),
        (lambda: parse_config_text(
            f"command=invert\ncase={case_name}\nx_star={x!r}"),
         ConfigValueError),
        (lambda: parse_config_text(
            f"command=sweep\ncase={case_name}\nsweep_xstar={x!r}"),
         ConfigValueError),
    ]
    for check, error in checks:
        if inside:
            check()
        else:
            with pytest.raises(error, match="strictly inside"):
                check()


_KEYS = [f.name for f in fields(RunConfig)] + ["bogus", ""]
_VALUES = st.one_of(
    st.text(max_size=12),
    st.text(st.sampled_from("ab1#\n\r\x0b\x85\u2028 "), max_size=6),
    st.floats().map(repr),
    st.integers(-3, 20).map(str),
    st.sampled_from(["sweep", "forward", "none", "6x5,0x2", "2.97", "abc",
                     "nan", "-1", "99"]),
)
_PAIRS = st.builds("{}={}".format, st.sampled_from(_KEYS), _VALUES)
# A valid command with a few pairs gets past the early checks to the range,
# domain and sweep-grid checks; free lines exercise the line parser.
_CONFIG_TEXT = st.builds(
    "command={}\n{}".format,
    st.sampled_from(cli.COMMANDS),
    st.lists(_PAIRS, max_size=3).map("\n".join),
) | st.lists(_PAIRS | st.text(max_size=20), max_size=8).map("\n".join)


def _parses_or_config_error(parse):
    try:
        parse()
    except ConfigError as exc:
        assert exc.exit_code in (EXIT_INVALID_CONFIG, EXIT_MISSING_FILE,
                                 EXIT_PARSE_ERROR)


@settings(database=None, deadline=None, max_examples=500)
@given(_CONFIG_TEXT)
def test_any_config_text_parses_or_raises_config_error(text):
    _parses_or_config_error(lambda: parse_config_text(text))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "run.cfg"


@settings(database=None, deadline=None)
@given(st.one_of(st.binary(max_size=200), _CONFIG_TEXT.map(str.encode)))
def test_any_config_file_parses_or_raises_config_error(config_path, data):
    config_path.write_bytes(data)
    _parses_or_config_error(lambda: parse_config(config_path))


# The command is the bare word of a command line, so --command is no flag.
_FLAG_KEYS = [key for key in _KEYS if key != "command"]


@settings(database=None, deadline=None, max_examples=300)
@given(st.sampled_from(cli.COMMANDS), st.sampled_from(_FLAG_KEYS), _VALUES)
def test_flag_and_file_line_parse_alike(command, key, value):
    # A value a file line can hold (one line, no comment) parses alike from
    # a flag; any other flag value exits 2.
    def outcome(parse):
        try:
            return parse()
        except ConfigError as exc:
            return exc.exit_code

    fits_a_line = "#" not in value and value.splitlines() in ([], [value])
    from_file = (outcome(lambda: parse_config_text(
        f"command={command}\n{key}={value}")) if fits_a_line
        else EXIT_INVALID_CONFIG)
    for argv in ([command, f"--{key}", value], [command, f"--{key}={value}"]):
        from_flag = outcome(lambda: parse_config(
            None, cli._split_argv(argv)))
        assert from_flag == from_file, argv


@pytest.mark.parametrize("args, code", [
    (["--help"], EXIT_OK),
    (["invert", "--bogus", "1"], EXIT_INVALID_CONFIG),
    (["invert", "--config", "{tmp}/missing.cfg"], EXIT_MISSING_FILE),
    # sweep keys are checked whatever the command
    (["invert", "--sweep_n", "bogus"], EXIT_INVALID_CONFIG),
    # in-range sizes and levels the model cannot represent
    (["invert", "--n_x", "400"], EXIT_INVALID_CONFIG),
    (["forward", "--n_t", "1100"], EXIT_INVALID_CONFIG),
    (["forward", "--n_t", "200", "--i_x", "10", "--i_t", "10"], EXIT_OK),
    # in-range sizes whose series overflow: the tables are not finite
    (["forward", "--n_x", "200"], EXIT_INVALID_CONFIG),
    (["forward", "--n_x", "158"], EXIT_INVALID_CONFIG),
    (["invert", "--n_x", "380"], EXIT_INVALID_CONFIG),
    (["forward", "--n_t", "500", "--i_x", "10", "--i_t", "10"],
     EXIT_INVALID_CONFIG),
    (["invert", "--noise_level", "1e308"], EXIT_INVALID_CONFIG),
    # in-range values whose run overflows a float
    (["invert", "--n_x", "100"], EXIT_INVALID_CONFIG),
    (["invert", "--noise_level", "1e200"], EXIT_INVALID_CONFIG),
    (["forward", "--theta", "1e308,1e308"], EXIT_INVALID_CONFIG),
    (["invert", "--alpha", "1e300"], EXIT_INVALID_CONFIG),
    # an output directory under a regular file
    (["invert", "--outdir", "{tmp}/blocker/sub"], EXIT_IO_FAILURE),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_console_exit_status(tmp_path, args, code):
    (tmp_path / "blocker").write_text("file, not a directory")
    proc = _console(tmp_path, args)
    assert proc.returncode == code, proc.stderr
    errors = [line for line in proc.stderr.splitlines()
              if line.startswith("error:")]
    assert len(errors) == (code != EXIT_OK), proc.stderr


def test_console_sweep_cell_overflow_fails_alone(tmp_path):
    # the overflowing cell is recorded in the sweep table; the run exits 5
    # with no error: line
    proc = _console(tmp_path, ["sweep", "--noise_level", "1e200",
                               "--sweep_n", "6x5", "--sweep_xstar", "2.97"])
    assert proc.returncode == EXIT_NOT_CONVERGED, proc.stderr
    assert "error:" not in proc.stderr
    with open(tmp_path / "sweep_example1_sweep.csv", newline="") as file:
        [row] = csv.DictReader(file)
    assert row["status"].startswith("error:"), row


def _console(tmp_path, args):
    """The console entry point run in a subprocess in ``tmp_path``; every
    run leaves no traceback and no numpy RuntimeWarning on stderr."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "heatsource.cli",
         *[arg.format(tmp=tmp_path) for arg in args]],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    return proc
