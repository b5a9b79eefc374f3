"""Command-line driver.

Four subcommands chain the library end to end:

* ``analyze``    decay/gain/linearized-decay estimates -> report + CSV
* ``metric``     build a metric variant, dump it, check its inequality
* ``certify``    distance-to-origin Lyapunov certificate on a grid
* ``stabilize``  controller synthesis, export, closed-loop certification

Scalar systems take the closed-form metric (no lifted solves) for the
``along-solutions`` and ``rescaled`` variants; the lifted metrics serve two
or more dimensions.  Every certificate takes the flow derivative of its
distance from the one distance solve per point (its first variation).

Exit status contract: 0 = pass, 2 = a claimed property was falsified or a
certificate failed, 1 = operational error.  Commands let a
:class:`FalsificationError` propagate; :func:`main` alone turns it into the
falsified report (reason, witness, stage when known).  Reports embed the
resolved configuration and are byte-identical across runs with the same
config and seed (no timestamps, sorted keys).

Each command accepts only the flags it reads (see ``_COMMANDS``); the other
:class:`RunConfig` fields keep their defaults.  A flag the command does not
read, or a malformed one, is a usage error, reported like any other
operational error (exit 1).

Importing this module loads no SciPy, and a command imports nothing that
the module did not: the parser's messages go through gettext, which imports
``locale`` on its first lookup, so it is imported here.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  (gettext's first lookup would import it)
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, catalog, geometry, sampling, systems
from .dynamics import write_csv
from .errors import (
    DimensionMismatchError,
    FalsificationError,
    LyapmetricError,
)
from .estimation import (
    estimate_gain_function,
    estimate_les,
    estimate_linearized_decay,
    estimate_transverse_decay,
)
from .expressions import parse_system
from .metric import (
    check_positive_definite,
    constant_metric,
    gramian_at_origin,
    metric_bounds,
    rescaled_metric_field,
    residual_report,
    scalar_metric_field,
    solution_metric,
    transverse_metric_field,
)
from .stabilization import synthesize_controller
from .systems import ControlSystem, SystemModel, TransverseModel

_VARIANTS = ("origin", "along-solutions", "transverse", "rescaled")


@dataclass
class RunConfig:
    command: str
    system: str
    q: str = "I"
    tol: float = 1e-9
    horizon: float = 10.0
    radii: str = "0.5,1,2"
    samples: int = 4
    grid: str = ""
    variant: str = "along-solutions"
    lambda_gain: float = 1.0
    metric_matrix: str = "I"
    out: str = "."
    seed: int = 0

    def __post_init__(self):
        for name in ("tol", "horizon", "lambda_gain"):
            if not math.isfinite(getattr(self, name)):
                raise LyapmetricError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.tol <= 0 or self.horizon <= 0:
            raise LyapmetricError("tolerances and horizons must be positive")
        if self.samples < 1:
            raise LyapmetricError("samples must be >= 1")
        if self.seed < 0:
            raise LyapmetricError(f"seed must be >= 0, got {self.seed}")
        if self.variant not in _VARIANTS:
            raise LyapmetricError(f"unknown metric variant '{self.variant}'")

    def to_dict(self):
        return asdict(self)

    # -- parsed views --------------------------------------------------------

    def radii_values(self):
        radii = np.sort(_parse_rows(self.radii, "--radii").ravel())
        if not np.all(np.isfinite(radii) & (radii > 0.0)):
            raise LyapmetricError(
                f"--radii: '{self.radii}' holds a radius that is not finite "
                "and positive")
        return radii

    def grid_points(self, dim):
        """Evaluation points of size `dim`: the --grid points, by default
        sphere samples (dim >= 2) or +-radii (dim 1)."""
        pts = self.grid_rows()
        if pts is None:
            radii = self.radii_values()
            if dim == 1:
                pts = sorted(set([-r for r in radii] + list(radii)))
                return np.array(pts).reshape(-1, 1)
            return np.vstack([
                sampling.sphere_points(dim, r, 4, self.seed) for r in radii])
        if pts.shape[0] == 0 or pts.shape[1] != dim:
            raise LyapmetricError(
                f"--grid '{self.grid.strip()}' does not give points of size "
                f"{dim}; separate points with ';', as in '1,0;0,1'")
        return pts

    def grid_rows(self):
        """The --grid points, one per row, or None when --grid is empty:
        'a,b;c,d' (points separated by ';'), 'lo:hi:n' or a comma list of
        1-D points.  Every coordinate must be finite."""
        text = self.grid.strip()
        if not text:
            return None
        if ";" in text:
            pts = _parse_rows(text, "--grid")
        elif ":" in text:
            try:
                lo, hi, count = text.split(":")
                ends = [float(lo), float(hi)]
                # a non-finite end goes to the check below unexpanded
                pts = np.linspace(*ends, int(count)).reshape(-1, 1) \
                    if np.all(np.isfinite(ends)) else np.array(ends)
            except ValueError:
                raise LyapmetricError(
                    f"--grid range must be 'lo:hi:n', got '{text}'") from None
        else:
            pts = _parse_rows(text, "--grid").reshape(-1, 1)
        if not np.all(np.isfinite(pts)):
            raise LyapmetricError(
                f"--grid: '{text}' holds a coordinate that is not finite")
        return pts

    def q_matrix(self, dim):
        return _parse_matrix(self.q, dim, "--Q")

    def p_matrix(self, dim):
        return _parse_matrix(self.metric_matrix, dim, "--metric")


def _parse_rows(text, flag):
    """'a,b;c,d' -> 2-D array of numbers, one row per ';'-separated part."""
    try:
        rows = [[float(v) for v in row.split(",")]
                for row in text.split(";") if row.strip()]
    except ValueError:
        rows = []
    if not rows:
        raise LyapmetricError(f"{flag}: '{text}' is not a list of numbers")
    if len({len(row) for row in rows}) > 1:
        raise LyapmetricError(
            f"{flag}: the ';'-separated rows of '{text}' differ in length")
    return np.array(rows)


def _parse_matrix(text, dim, flag):
    text = text.strip()
    if text in ("I", "", "identity"):
        return np.eye(dim)
    values = _parse_rows(text, flag)
    if ";" not in text and values.size == 1:
        values = values[0, 0] * np.eye(dim)
    elif ";" not in text and values.size == dim * dim:
        values = values.reshape(dim, dim)
    if values.shape != (dim, dim):
        raise LyapmetricError(
            f"{flag}: cannot parse a {dim}x{dim} matrix from '{text}'")
    return check_positive_definite(values, flag)


def _read_text(path):
    """The UTF-8 text of the file `path`; a file that cannot be read as
    such is an operational error naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise LyapmetricError(f"'{path}' is not UTF-8 text") from None
    except OSError as exc:
        raise LyapmetricError(
            f"cannot read '{path}': {exc.strerror or exc}") from None


def _resolve_system(spec):
    """Catalog name, 'linear:<file.json>', or a path to a system text."""
    if spec in catalog.entries():
        return catalog.get(spec).build()
    if spec.startswith("linear:"):
        path = spec[len("linear:"):]
        text = _read_text(path)
        try:
            return SystemModel.from_linear(json.loads(text)["A"])
        except (ValueError, KeyError, TypeError,
                DimensionMismatchError) as exc:
            raise LyapmetricError(
                f"'{path}' does not hold a JSON object with a square numeric "
                f"matrix \"A\" ({type(exc).__name__}: {exc})") from None
    if Path(spec).exists():
        return parse_system(_read_text(spec))
    raise LyapmetricError(
        f"unknown system '{spec}': not a catalog name, linear:<file>, or "
        "readable file")


def _out_path(config, name):
    out_dir = Path(config.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise LyapmetricError(
            f"cannot use '{config.out}' as the output directory: "
            f"{exc.strerror or exc}") from None
    return out_dir / name


def _write_report(config, payload, verdict):
    """Write report.json and return the exit status of `verdict`."""
    report = {
        "schema": 1,
        "tool": {"name": "lyapmetric", "version": __version__},
        "command": config.command,
        "config": config.to_dict(),
        "verdict": verdict,
        **payload,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    _out_path(config, "report.json").write_text(text, encoding="utf-8")
    return 0 if verdict == "pass" else 2


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(config):
    model = _resolve_system(config.system)
    if isinstance(model, TransverseModel):
        raise LyapmetricError(
            "analyze expects an equilibrium system; use "
            "'certify --variant transverse' for two-block models")
    if isinstance(model, ControlSystem):
        model = model.drift
    radii = config.radii_values()

    les = estimate_les(model, float(radii[0]), n_samples=config.samples,
                       horizon=config.horizon, tol=config.tol,
                       seed=config.seed)
    gain = estimate_gain_function(
        model, radii, n_samples=config.samples, horizon=config.horizon,
        les=les, tol=config.tol, seed=config.seed)
    lin = estimate_linearized_decay(
        model, radii, n_samples=config.samples, horizon=config.horizon,
        tol=config.tol, seed=config.seed)
    payload = {
        "local": les.to_report(),
        "gain": gain.to_report(),
        "linearized": lin.to_report(),
    }
    write_csv(_out_path(config, "envelopes.csv"), ["s", "k", "k_tilde"],
              [(s, gain.gain(s), lin.gain(s)) for s in radii])
    return _write_report(config, payload, "pass")


def _build_metric(config, model, ode_tol=1e-12):
    """The configured metric field.  Scalar fields take the closed form
    (:func:`scalar_metric_field`) for `along-solutions` and `rescaled`;
    `ode_tol` applies to the lifted builders only."""
    variant = config.variant
    if isinstance(model, TransverseModel) and variant != "transverse":
        raise LyapmetricError(
            "two-block systems are served by --variant transverse")
    if isinstance(model, ControlSystem):
        raise LyapmetricError("controlled systems are served by 'stabilize', "
                              "which closes the loop first")
    if variant == "transverse":
        if not isinstance(model, TransverseModel):
            raise LyapmetricError("--variant transverse needs a two-block "
                                  "system (e_dim/G declarations)")
        q = config.q_matrix(model.n_e)
        radius = float(config.radii_values()[-1])
        decay = estimate_transverse_decay(
            model, (-radius * np.ones(model.n_x), radius * np.ones(model.n_x)),
            n_samples=config.samples, horizon=config.horizon,
            tol=config.tol, seed=config.seed)
        return transverse_metric_field(model, q, decay, ode_tol=ode_tol)
    q = config.q_matrix(model.dim)
    if variant == "origin":
        return gramian_at_origin(model, q)
    if variant == "rescaled":
        decay = None
    else:
        decay = estimate_linearized_decay(
            model, config.radii_values(), n_samples=config.samples,
            horizon=config.horizon, tol=config.tol, seed=config.seed)
    if model.dim == 1:
        return scalar_metric_field(model, q, variant, decay)
    if variant == "rescaled":
        return rescaled_metric_field(model, q, ode_tol=ode_tol)
    return solution_metric(model, q, decay, ode_tol=ode_tol)


def _metric_inequality(config, model):
    """Build the configured metric, check L_F P + Q <= 0 on the grid (with
    :func:`residual_report`'s one Richardson cross-check of a lifted field)
    and take its eigenvalue envelopes: (field, grid, payload, verdict)."""
    field = _build_metric(config, model)
    transverse = config.variant == "transverse"
    grid = config.grid_points(field.point_dim)
    report = residual_report(
        field, model.manifold_step() if transverse else model, grid)
    bounds = metric_bounds(field, config.radii_values(),
                           n_samples=config.samples, seed=config.seed)
    payload = {"residuals": report.to_dict(), "bounds": bounds.to_dict()}
    return field, grid, payload, report.verdict


def cmd_metric(config):
    field, grid, payload, verdict = _metric_inequality(
        config, _resolve_system(config.system))
    field.to_csv(grid, _out_path(config, "metric.csv"))
    return _write_report(config, payload, verdict)


def _certify_with_metric(config, model, field):
    """Distance-based decrease certificate on the configured grid.

    D+V(e) <= g . F(e), with g the gradient that the distance solve returns
    (:func:`geometry.distance_to_origin`); in one dimension it is exact,
    sign(e) sqrt(p(e)) F(e).
    """
    systems.require_equilibrium(model)
    radii = config.radii_values()
    grid = config.grid_points(field.point_dim)
    max_radius = max(float(np.max(np.linalg.norm(grid, axis=1))),
                     float(radii[-1]))
    bound_radii = np.array(sorted({*radii.tolist(), max_radius}))
    metric_bounds(field, bound_radii, n_samples=config.samples,
                  seed=config.seed)

    def evaluate(point):
        row = {"point": [float(x) for x in point]}
        if float(np.linalg.norm(point)) == 0.0:
            return {**row, "V": 0.0, "flagged": False, "dini": 0.0,
                    "bound": 0.0, "ok": True}
        v = geometry.distance_to_origin(field, point)
        if v.flagged:
            return {**row, "V": v.value, "flagged": True, "ok": None}
        dini = float(v.gradient @ model.f(point))
        bound = geometry.dini_decrease_bound(
            field, v.value, float(np.linalg.norm(point)))
        return {**row, "V": v.value, "flagged": False, "dini": dini,
                "bound": bound, "ok": bool(dini <= bound + 1e-3)}

    rows = [evaluate(point) for point in grid]
    flagged = sum(1 for r in rows if r["flagged"])
    failures = [r for r in rows if r.get("ok") is False]
    payload = {
        "points": rows,
        "flagged_fraction": flagged / len(rows) if rows else 0.0,
        "decrease_tolerance": 1e-3,
        "bounds": field.bounds.to_dict(),
    }
    verdict = "pass" if not failures else "fail"
    n = field.point_dim
    write_csv(_out_path(config, "certificate.csv"),
              [f"e_{i + 1}" for i in range(n)] + ["V", "dini", "bound"],
              [(*r["point"], r["V"], r.get("dini", math.nan),
                r.get("bound", math.nan)) for r in rows])
    return payload, verdict


def cmd_certify(config):
    model = _resolve_system(config.system)

    if config.variant == "transverse":
        if not isinstance(model, TransverseModel):
            raise LyapmetricError("--variant transverse needs a two-block "
                                  "system")
        # the lifted full system must contract in its e-rows first
        try:
            estimate_linearized_decay(
                model.full, config.radii_values(),
                n_samples=config.samples, horizon=config.horizon,
                tol=config.tol, seed=config.seed, row_block=model.n_e)
        except FalsificationError as exc:
            exc.stage = "linearized-decay"
            raise
        _, _, payload, verdict = _metric_inequality(config, model)
        return _write_report(config, payload, verdict)

    field = _build_metric(config, model, ode_tol=1e-10)
    payload, verdict = _certify_with_metric(config, model, field)
    return _write_report(config, payload, verdict)


def cmd_stabilize(config):
    model = _resolve_system(config.system)
    if not isinstance(model, ControlSystem):
        raise LyapmetricError("stabilize needs a system text with an input "
                              "field (g1..gn)")
    n = model.dim
    field = constant_metric(config.p_matrix(n), q=config.q_matrix(n))
    grid = config.grid_points(n)

    # a constant metric passes only a constant g: the loop always exports
    closed_loop, _, certificate = synthesize_controller(
        model, field, gain=config.lambda_gain, sample_points=grid)
    certify_payload, certify_verdict = _certify_with_metric(
        config, closed_loop, field)
    _out_path(config, "closed_loop.txt").write_text(
        closed_loop.to_spec_text(), encoding="utf-8")
    verdict = "pass" if certificate.verdict == "pass" \
        and certify_verdict == "pass" else "fail"
    payload = {"controller": certificate.to_dict(),
               "closed_loop_certificate": certify_payload,
               "closed_loop_spec": "closed_loop.txt"}
    return _write_report(config, payload, verdict)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise instead of exiting with status 2, which the exit
    status contract reserves for falsified properties."""

    def error(self, message):
        raise LyapmetricError(message)

    def add_argument(self, *args, **kwargs):
        # straight into the group the parser would choose: the parser's
        # own add_argument also builds a help formatter per argument only
        # to check a tuple metavar (none here); each formatter asks for the
        # terminal size and is left as cyclic garbage, 43 per command
        optional = bool(args) and args[0][:1] in self.prefix_chars
        group = self._optionals if optional else self._positionals
        return group.add_argument(*args, **kwargs)


# flag -> (RunConfig field, add_argument keywords)
_FLAGS = {
    "--Q": ("q", {"help": "scalar, 'I', or 'a,b;c,d' matrix rows"}),
    "--tol": ("tol", {"type": float}),
    "--horizon": ("horizon", {"type": float}),
    "--radii": ("radii", {}),
    "--samples": ("samples", {"type": int}),
    "--grid": ("grid", {"help": "comma list of 1-D points, 'lo:hi:n', or "
                                "points separated by ';' ('1,0;0,1')"}),
    "--variant": ("variant", {"choices": _VARIANTS}),
    "--lambda-gain": ("lambda_gain", {"type": float}),
    "--metric": ("metric_matrix", {"help": "constant metric"}),
    "--out": ("out", {}),
    "--seed": ("seed", {"type": int}),
}

_ESTIMATE_FLAGS = ("--tol", "--horizon", "--radii", "--samples", "--seed",
                   "--out")
_METRIC_FLAGS = _ESTIMATE_FLAGS + ("--Q", "--grid", "--variant")

# command -> (function, the flags it reads)
_COMMANDS = {
    "analyze": (cmd_analyze, _ESTIMATE_FLAGS),
    "metric": (cmd_metric, _METRIC_FLAGS),
    "certify": (cmd_certify, _METRIC_FLAGS),
    "stabilize": (cmd_stabilize, ("--Q", "--radii", "--samples", "--grid",
                                  "--lambda-gain", "--metric", "--seed",
                                  "--out")),
}


def build_parser():
    parser = _Parser(
        prog="lyapmetric",
        description="metric-based Lyapunov certificates for ODE systems")
    parser.add_argument("--version", action="version",
                        version=f"lyapmetric {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, flags) in _COMMANDS.items():
        # a flag left out keeps no attribute, so RunConfig supplies its default
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--system", required=True,
                       help="catalog name, linear:<file.json>, or a system "
                            "text file")
        for flag in flags:
            dest, kwargs = _FLAGS[flag]
            p.add_argument(flag, dest=dest, **kwargs)
    return parser


def config_from_args(args):
    config = RunConfig(**vars(args))
    # malformed radii and grids end here, before any solve
    config.radii_values()
    config.grid_rows()
    return config


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        try:
            return _COMMANDS[args.command][0](config)
        except FalsificationError as exc:
            payload = {"witness": exc.witness, "reason": str(exc)}
            if exc.stage is not None:
                payload["stage"] = exc.stage
            return _write_report(config, payload, "falsified")
    except LyapmetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
