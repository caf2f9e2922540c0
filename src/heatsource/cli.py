"""Command-line front end.

Usage: heatsource <command> [--config PATH] [--key value | --key=value ...]

Commands: forward, invert, sweep, sensitivity.  A config file holds key=value
lines ('#' starts a comment).  Flags take the same keys, in full, through the
same parser, and override the file; the token after a bare --key is always
its value.  Every run writes a key=value summary (results plus a config.-
prefixed echo of the effective configuration) and per-command CSV artifacts.
"""

from __future__ import annotations

import logging
import math
import operator
import os
import sys
import textwrap
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DivergenceError, DomainError, HeatSourceError
from .harness import (DEFAULT_SIZES, ErrorReport, SweepCell, default_sensors,
                      emit_sensitivity_data, get_case, invert_case,
                      sensitivity_demo_geometry, sweep)
from .model import MeasurementMesh, PolyParams, sensitivity_tables
from .objective import ObjectiveConfig, cost
from .output import OutputError, write_key_values, write_tables
from .solver import IterationTrace, SolverConfig, stationarity_check

__all__ = [
    "RunConfig",
    "ConfigError",
    "ConfigFileMissingError",
    "ConfigParseError",
    "ConfigValueError",
    "parse_config",
    "parse_config_text",
    "config_echo",
    "dispatch",
    "main",
    "EXIT_OK",
    "EXIT_ERROR",
    "EXIT_INVALID_CONFIG",
    "EXIT_MISSING_FILE",
    "EXIT_PARSE_ERROR",
    "EXIT_NOT_CONVERGED",
    "EXIT_DIVERGED",
    "EXIT_IO_FAILURE",
]

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID_CONFIG = 2
EXIT_MISSING_FILE = 3
EXIT_PARSE_ERROR = 4
EXIT_NOT_CONVERGED = 5
EXIT_DIVERGED = 6
EXIT_IO_FAILURE = 7

class ConfigError(HeatSourceError):
    exit_code = EXIT_INVALID_CONFIG


class ConfigFileMissingError(ConfigError):
    exit_code = EXIT_MISSING_FILE


class ConfigParseError(ConfigError):
    exit_code = EXIT_PARSE_ERROR


class ConfigValueError(ConfigError):
    """A key, value or command line the run cannot take."""


def _ranged(default, rule):
    """A RunConfig field whose values must meet ``rule``, a phrase that ends
    in a comparison with a number ('must be an integer >= 1'); the phrase is
    both the check and its error message."""
    return field(default=default, metadata={"rule": rule})


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run configuration with all defaults resolved."""

    command: str
    case: str = "example1"
    n_x: int = _ranged(12, "must be an integer >= 1")
    n_t: int = _ranged(9, "must be an integer >= 1")
    alpha: float = _ranged(ObjectiveConfig.alpha, "must be >= 0")
    epsilon: float = _ranged(SolverConfig.epsilon, "must be > 0")
    max_iters: int = _ranged(SolverConfig.max_iters, "must be >= 0")
    noise_level: float = _ranged(0.0, "must be >= 0")
    seed: int = _ranged(42, "must be an integer >= 0")
    i_x: int = _ranged(100, "must be an integer >= 1")
    i_t: int = _ranged(100, "must be an integer >= 1")
    x_star: float | None = None
    outdir: str = ""  # resolved to HEATSOURCE_OUTDIR, then "."
    run_id: str = ""
    phi: tuple = ()
    theta: tuple = ()
    sweep_n: str = ",".join(f"{n_x}x{n_t}" for n_x, n_t in DEFAULT_SIZES)
    sweep_xstar: str = ""  # resolved to the case's default_sensors
    sweep_alpha: str = ""

    @cached_property
    def sweep_cells(self) -> list:
        """The sweep grid in run order.  Every entry is parsed and checked
        like the single-run key it stands for; a bad one raises
        ConfigValueError.  Blank entries are skipped."""
        def entries(key):
            whole = getattr(self, key)
            return [(part.strip(), _entry_label(key, part, whole))
                    for part in whole.split(",") if part.strip()]

        sizes = []
        for pair, label in entries("sweep_n"):
            left, sep, right = pair.partition("x")
            if not sep:
                raise ConfigValueError(f"{label}: expected N_XxN_T like 12x9")
            sizes.append((_parse_value("n_x", left, label),
                          _parse_value("n_t", right, label)))
        x_stars = [(_parse_float(raw, "sweep_xstar", label), label)
                   for raw, label in entries("sweep_xstar")]
        for x_star, label in x_stars:
            _check_x_star(self.case, x_star, label)
        alphas = ([_parse_value("alpha", raw, label)
                   for raw, label in entries("sweep_alpha")]
                  if self.sweep_alpha.strip() else [self.alpha])
        cells = [SweepCell(n_x=n_x, n_t=n_t, x_star=x_star, alpha=alpha)
                 for n_x, n_t in sizes for x_star, _ in x_stars
                 for alpha in alphas]
        if not cells:
            raise ConfigValueError("sweep grid is empty")
        return cells


def _entry_label(key, entry, whole):
    """How an error names an entry of a comma-separated value."""
    return f"{key} entry {entry.strip()!r} in {whole.strip()!r}"


# A parser's error messages start with ``label``, by default key='raw'.
def _parse_int(raw, key, label=None):
    try:
        return int(raw)
    except ValueError:
        label = label or f"{key}={raw!r}"
        raise ConfigValueError(f"{label}: expected an integer") from None


def _parse_float(raw, key, label=None):
    label = label or f"{key}={raw!r}"
    try:
        value = float(raw)
    except ValueError:
        raise ConfigValueError(f"{label}: expected a number") from None
    if not math.isfinite(value):
        raise ConfigValueError(f"{label}: expected a finite number")
    return value


def _parse_optional_float(raw, key, label=None):
    if raw.strip().lower() in ("", "none"):
        return None
    return _parse_float(raw, key, label)


def _parse_floats(raw, key, label=None):
    if not raw.strip():
        return ()
    return tuple(_parse_float(part, key, _entry_label(key, part, raw))
                 for part in raw.split(","))


# Each key's parser follows its RunConfig annotation (a string here, under
# postponed evaluation of annotations).
_PARSERS = {
    "str": lambda raw, key, label=None: raw.strip(),
    "int": _parse_int,
    "float": _parse_float,
    "float | None": _parse_optional_float,
    "tuple": _parse_floats,
}
_FIELDS = {f.name: f for f in fields(RunConfig)}
_KNOWN_KEYS = ", ".join(["config (command line only)", *_FIELDS])
_COMPARISONS = {">=": operator.ge, ">": operator.gt}


def _parse_value(key, raw, label=None):
    """``raw`` parsed as a value of ``key`` and checked against the range
    rule of its field, if it has one.  Error messages start with ``label``
    (a sweep entry's), else with ``key=`` and the value."""
    field_ = _FIELDS[key]
    value = _PARSERS[field_.type](str(raw), key, label)
    rule = field_.metadata.get("rule")
    if rule:
        comparison, bound = rule.split()[-2:]
        if not _COMPARISONS[comparison](value, float(bound)):
            raise ConfigValueError(
                f"{label or f'{key}={value}'}: {key} {rule}")
    return value


def _check_x_star(case_name, x_star, label):
    geom = get_case(case_name).geometry
    if not geom.contains(x_star):
        raise ConfigValueError(
            f"{label}: must lie strictly inside "
            f"({geom.offset:g}, {geom.offset + geom.length:g}) "
            f"for case {case_name!r}")


def _parse_lines(text: str, where: str) -> dict:
    """Key=value pairs of config text; '#' starts a comment, blank lines are
    ignored.  ``where`` prefixes the line number in error messages."""
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(
                f"{where}{lineno}: expected key=value, got {raw_line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _read_config_file(path) -> str:
    """The text of a config file; an unreadable file raises
    ConfigFileMissingError, one that is not UTF-8 ConfigParseError."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigFileMissingError(
            f"cannot read config file {path}: {exc.strerror}") from None
    try:
        return data.decode("utf-8-sig")  # a leading byte-order mark is dropped
    except UnicodeDecodeError as exc:
        raise ConfigParseError(
            f"{path}: not UTF-8 text (byte {exc.start})") from None


def parse_config_text(text: str) -> RunConfig:
    """Parse configuration from in-memory key=value text."""
    return _build_config(_parse_lines(text, "line "))


def parse_config(path=None, overrides=None) -> RunConfig:
    """Build a validated RunConfig from an optional file plus overrides.

    Precedence: built-in defaults, then file values, then overrides.  An
    override holding '#' or a line break, which no file line can hold (so
    the summary's config echo could not reproduce it), is rejected.
    """
    values = {}
    if path is not None:
        values.update(_parse_lines(_read_config_file(path), f"{path}:"))
    for key, raw in (overrides or {}).items():
        text = str(raw)
        if "#" in text or "".join(text.splitlines()) != text:
            raise ConfigValueError(
                f"{key}={text!r}: a value cannot hold '#' or a line break")
        values[key] = raw
    return _build_config(values)


def _build_config(raw_values: dict) -> RunConfig:
    unknown = sorted(set(raw_values) - set(_FIELDS))
    if unknown:
        raise ConfigValueError(
            f"unknown config keys: {', '.join(unknown)}; "
            f"known keys: {_KNOWN_KEYS}")
    if "command" not in raw_values:
        raise ConfigValueError(
            f"missing required key 'command' (one of {', '.join(COMMANDS)})")
    values = {key: _parse_value(key, raw)
              for key, raw in raw_values.items()}

    command = values["command"]
    if command not in COMMANDS:
        raise ConfigValueError(
            f"command={command!r}: must be one of {', '.join(COMMANDS)}")
    case_name = values.get("case", RunConfig.case)
    try:
        case = get_case(case_name)
    except KeyError as exc:
        raise ConfigValueError(exc.args[0]) from None
    if values.get("x_star") is not None:
        _check_x_star(case_name, values["x_star"],
                      f"x_star={values['x_star']}")

    # Defaults that depend on the command, the case or the environment.
    resolved = {"sweep_xstar": ",".join(map(repr, default_sensors(case)))}
    if command == "sensitivity":  # the demo curve counts
        resolved.update(n_x=6, n_t=5)
    resolved.update(values)
    resolved["outdir"] = (values.get("outdir")
                          or os.environ.get("HEATSOURCE_OUTDIR", "."))
    resolved["run_id"] = values.get("run_id") or f"{command}_{case_name}"
    cfg = RunConfig(**resolved)
    cfg.sweep_cells  # a bad sweep key exits 2 whatever the command
    return cfg


def config_echo(cfg: RunConfig):
    """The effective configuration as (key, value-string) pairs; feeding the
    values back through the parser reproduces an equivalent RunConfig."""
    pairs = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            text = "none"
        elif isinstance(value, tuple):
            text = ",".join(repr(v) for v in value)
        else:
            text = str(value)
        pairs.append((f.name, text))
    return pairs


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _solver_config(cfg: RunConfig) -> SolverConfig:
    return SolverConfig(epsilon=cfg.epsilon, max_iters=cfg.max_iters)


def _case_for(cfg: RunConfig):
    case = get_case(cfg.case)
    if cfg.x_star is not None:
        case = case.with_sensor(cfg.x_star)
    return case


def _run_invert(cfg: RunConfig):
    case = _case_for(cfg)
    obj_cfg = ObjectiveConfig(alpha=cfg.alpha)
    result = invert_case(case, cfg.n_x, cfg.n_t, obj_cfg,
                         _solver_config(cfg), i_x=cfg.i_x, i_t=cfg.i_t,
                         noise_level=cfg.noise_level, seed=cfg.seed)
    source, initial = case.curves(result.params, result.tables.mesh)
    rep = result.report
    solved = (result.params, result.meas, obj_cfg, result.tables)
    stat = stationarity_check(*solved)
    return [
        ("trace", IterationTrace.HEADER, result.trace.rows()),
        ("source", ["t", "exact", "reconstructed"], source),
        ("initial", ["x", "exact", "reconstructed"], initial),
    ], [
        ("status", rep.status),
        ("converged", rep.converged),
        ("iterations", rep.iterations),
        ("final_cost", rep.final_cost),
        ("grad_phi_norm", rep.grad_phi_norm),
        ("grad_theta_norm", rep.grad_theta_norm),
        ("e_f", result.errors.e_f),
        ("e_u0", result.errors.e_u0),
        ("fit_residual_f", result.errors.fit_residual_f),
        ("fit_residual_u0", result.errors.fit_residual_u0),
        ("stationarity_holds_mixed", stat.holds_mixed),
        ("stationarity_holds_symmetric", stat.holds_symmetric),
        ("stationarity_worst_margin_mixed", stat.worst_margin_mixed),
        ("stationarity_worst_margin_symmetric", stat.worst_margin_symmetric),
        ("cost_floor", rep.cost_floor),
        ("returned_cost", cost(*solved)),
    ], (f"{rep.status} after {rep.iterations} iterations, "
        f"cost {rep.final_cost:.6e}, E_F {result.errors.e_f:.6e}, "
        f"E_u0 {result.errors.e_u0:.6e}"), rep.converged


def _run_forward(cfg: RunConfig):
    case = _case_for(cfg)
    geom = case.geometry
    mesh = MeasurementMesh.regular(geom, cfg.i_x, cfg.i_t)
    phi = np.asarray(cfg.phi if cfg.phi else np.zeros(cfg.n_t))
    theta = np.asarray(cfg.theta if cfg.theta else np.zeros(cfg.n_x))
    params = PolyParams(phi=phi, theta=theta)
    tables = sensitivity_tables(geom, mesh, params.n_x, params.n_t)
    u_final, u_sensor = tables.predict(params)
    return [
        ("final_profile", ["x", "u"],
         np.column_stack([geom.to_physical(mesh.x_interior), u_final])),
        ("sensor_history", ["t", "u"],
         np.column_stack([mesh.t_interior, u_sensor])),
    ], [
        ("status", "ok"),
        ("max_abs_final", float(np.max(np.abs(u_final)))),
        ("max_abs_sensor", float(np.max(np.abs(u_sensor)))),
    ], f"forward model sampled on {mesh.i_x}x{mesh.i_t} mesh", True


def _run_sweep(cfg: RunConfig):
    reports = sweep(_case_for(cfg), cfg.sweep_cells, _solver_config(cfg),
                    i_x=cfg.i_x, i_t=cfg.i_t, noise_level=cfg.noise_level,
                    seed=cfg.seed)
    converged = sum(1 for r in reports if r.status == "converged")
    reached = converged == len(reports)
    return [
        ("sweep", ErrorReport.CSV_HEADER, (r.csv_row() for r in reports)),
    ], [
        ("status", "ok" if reached else "partial"),
        ("cells", len(reports)),
        ("converged_cells", converged),
    ], f"{converged}/{len(reports)} cells converged", reached


def _run_sensitivity(cfg: RunConfig):
    if cfg.case == "example1" and cfg.x_star is None:
        geom = sensitivity_demo_geometry()
    else:
        geom = _case_for(cfg).geometry
    mesh = MeasurementMesh.regular(geom, cfg.i_x, cfg.i_t)
    paths = emit_sensitivity_data(geom, cfg.n_x, cfg.n_t, mesh, cfg.outdir,
                                  run_id=cfg.run_id)
    return [], [
        ("status", "ok"),
        ("files", ";".join(str(p) for p in paths)),
    ], f"wrote {len(paths)} sensitivity tables", True


_RUNNERS = {
    "forward": _run_forward,
    "invert": _run_invert,
    "sweep": _run_sweep,
    "sensitivity": _run_sensitivity,
}
COMMANDS = tuple(_RUNNERS)


def dispatch(cfg: RunConfig) -> int:
    """Execute the configured command; returns the process exit code.

    Each runner returns (CSV tables, summary pairs, console message,
    reached); the tables are written with ``write_tables``, then the summary
    with the config echo appended, and an unreached run exits
    EXIT_NOT_CONVERGED."""
    try:
        Path(cfg.outdir).mkdir(parents=True, exist_ok=True)
        tables, pairs, message, reached = _RUNNERS[cfg.command](cfg)
        write_tables(cfg.outdir, cfg.run_id, tables)
        pairs.extend((f"config.{key}", value)
                     for key, value in config_echo(cfg))
        write_key_values(Path(cfg.outdir) / f"{cfg.run_id}_summary.txt",
                         pairs)
    except DivergenceError as exc:
        logger.error("iteration diverged: %s", exc)
        return EXIT_DIVERGED
    except (OutputError, OSError) as exc:
        logger.error("%s", exc)
        return EXIT_IO_FAILURE
    print(f"{cfg.run_id}: {message}")
    return EXIT_OK if reached else EXIT_NOT_CONVERGED


def _split_argv(argv):
    """The ``--key value`` / ``--key=value`` pairs of a command line as raw
    text, like a config file's, plus the bare command word; None where help
    is asked for in place of a key or the command."""
    pairs, tokens = {}, iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if not token.startswith("--"):
            if "command" in pairs:
                raise ConfigValueError(f"unexpected argument {token!r}")
            pairs["command"] = token
            continue
        key, sep, value = token[2:].partition("=")
        if key == "command":
            raise ConfigValueError("the command is a bare word, not --command")
        pairs[key] = value if sep else next(tokens, None)
        if pairs[key] is None:
            raise ConfigValueError(f"flag {token} expects a value")
    if "command" not in pairs:
        raise ConfigValueError(
            f"missing command (one of {', '.join(COMMANDS)})")
    return pairs


def main(argv=None) -> int:
    """Console entry point; returns the process exit code."""
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        pairs = _split_argv(sys.argv[1:] if argv is None else argv)
        if pairs is None:
            print((__doc__ or "").strip(),
                  textwrap.fill(f"Keys: {_KNOWN_KEYS}."), sep="\n\n")
            return EXIT_OK
        return dispatch(parse_config(pairs.pop("config", None), pairs))
    except HeatSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a size or level the model cannot represent is a bad setting too
        return (EXIT_INVALID_CONFIG if isinstance(exc, DomainError)
                else getattr(exc, "exit_code", EXIT_ERROR))


if __name__ == "__main__":
    sys.exit(main())
