"""Command-line front end: parameter sweeps to CSV plus a manifest.

Each subcommand emits one CSV with a fixed header; floats are printed with
17 significant digits so re-running an identical sweep is byte-identical.
Row-level computation errors land in an ``error`` column instead of
aborting the sweep.  ``validate`` runs the oracle suite and exits nonzero
if any assertion-grade invariant fails.
"""

from __future__ import annotations

import argparse
import csv
import math
import json
import sys
import time
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError, NonConvergence
from .information import (cramer_rao, fisher_closed, fisher_numeric, moments,
                          shannon_entropy)
from .quadrature import gaussian_window, integrate
from .spectrum import (DensityMode, ModelParams, _energies, eigenvalue,
                       residual, saturation_limit)
from .thermo import specific_heat_curve
from .wavefunction import density, perey_factor, psi, weight

_NORM_TOL = 1e-8
_RESIDUAL_TOL = 1e-10
_MOMENT_TOL = 1e-8
_CRAMER_RAO_SLACK = 1e-10


@dataclass
class SweepSpec:
    """Full description of one sweep; echoed verbatim into the manifest."""

    nu: int = 1
    gamma_list: tuple = (-0.5,)
    n_min: int = 0
    n_max: int = 20
    beta_grid: tuple = ()
    x_grid: tuple = ()
    outputs: tuple = ("spectrum",)
    eps_sat: float = 1e-6
    density_mode: str = "paper"
    fisher_source: str = "numeric"
    permissive: bool = False
    out_dir: str = "edho-out"

    def __post_init__(self):
        if self.n_max < self.n_min or self.n_min < 0:
            raise DomainError(
                f"empty quantum-number range [{self.n_min}, {self.n_max}]"
            )
        if self.n_max >= 2**52:
            # past 2**52, n + 1/2 is no longer exact in floating point
            raise DomainError(f"n_max must be below 2**52, got {self.n_max}")
        if not self.gamma_list:
            raise DomainError("gamma list is empty")
        if not all(math.isfinite(g) for g in self.gamma_list):
            raise DomainError(f"gamma must be finite, got {self.gamma_list}")
        if not self.permissive and any(g > 0 for g in self.gamma_list):
            raise DomainError("gamma > 0 requires --permissive")
        for name in ("beta_grid", "x_grid"):
            grid = getattr(self, name)
            if not all(math.isfinite(v) for v in grid):
                raise DomainError(f"{name} must be finite")
            if grid and any(b >= a for a, b in zip(grid[1:], grid)):
                raise DomainError(f"{name} must be strictly increasing")
        if self.beta_grid and self.beta_grid[0] <= 0:
            raise DomainError("beta_grid must be positive")

    def params(self, gamma: float) -> ModelParams:
        return ModelParams(gamma=gamma, nu=self.nu,
                           density_mode=DensityMode(self.density_mode),
                           permissive=self.permissive)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Rows of numbers and an empty error go through one template, which
    prints exactly what ``_fmt`` and ``csv.writer`` print for them (their
    integers stay below 2**52, see SweepSpec); rows with an error or a
    blank value keep the writer, whose quoting an error text may need."""
    template = ",".join(["%.17g"] * (len(header) - 1)) + ",%s\r\n"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if row[-1] or None in row:
                writer.writerow([_fmt(v) for v in row])
            else:
                fh.write(template % row)


_DEFAULT_BETAS = tuple(np.linspace(0.1, 10.0, 50))
_DEFAULT_XS = tuple(np.linspace(-6.0, 6.0, 241))


def _levels(spec: SweepSpec):
    return range(spec.n_min, spec.n_max + 1)


def _xs(spec: SweepSpec):
    return spec.x_grid or _DEFAULT_XS


def _each(spec, cell):
    """The keys of a cell that is the sequence of its points."""
    return zip(cell)


# The shapes of an output: (key columns after nu and gamma, the cells of one
# coupling, the keys of a cell's points, whether a cell that raises is
# retried one point at a time).  A cell is computed as a whole; without the
# retry it also fails as a whole.
_PER_LEVEL = (("n",), _levels, lambda spec, n: [(n,)], False)
# one cell, the level range, retried per level so that only the levels
# with no eigenvalue fail
_LEVEL_RANGE = (("n",), lambda spec: [_levels(spec)], _each, True)
_LEVEL_X = (("n", "x"), _levels,
            lambda spec, n: ((n, x) for x in _xs(spec)), False)
# one cell, the beta grid: the whole curve comes from one level set
_PER_BETA = (("beta",), lambda spec: [spec.beta_grid or _DEFAULT_BETAS],
             _each, False)
# one cell, the x grid, retried per x: perey_factor fails per x once gamma > 0
_X_GRID = (("x",), lambda spec: [_xs(spec)], _each, True)


# Each compute maps (spec, params, cell) to one tuple of values per point;
# a multi-point compute does all its work before it returns and hands the
# values back lazily.  They reach eigenvalue, fisher_numeric, ... as module
# globals at call time, so anything that rebinds those names here sees
# every call.

def _spectrum(spec, params, levels):
    energies = _energies(params, levels)
    lam = energies / (np.asarray(levels) + 0.5)
    limit = saturation_limit(params) if params.gamma < 0 else None
    return zip(energies, lam, repeat(limit))


def _thermo(spec, params, betas):
    curve = specific_heat_curve(params, betas, eps_sat=spec.eps_sat)
    return [(pt.Z, pt.U, pt.Cv, pt.N_used) for pt in curve]


def _fisher(spec, params, n):
    level = eigenvalue(params, n)
    # the source not chosen reads nan where it fails (the truncated closed
    # form at strong coupling, the integral once f vanishes in its window)
    values = {}
    for source, fisher in (("closed", fisher_closed),
                           ("numeric", fisher_numeric)):
        try:
            values[source] = fisher(level, params)
        except (DomainError, NonConvergence):
            if spec.fisher_source == source:
                raise
            values[source] = math.nan
    return [(values["closed"], values["numeric"], values[spec.fisher_source])]


def _cramer_rao(spec, params, n):
    level = eigenvalue(params, n)
    fisher = {"closed": fisher_closed,
              "numeric": fisher_numeric}[spec.fisher_source](level, params)
    _, _, variance = moments(level, params)
    return [(fisher, variance, fisher * variance)]


def _shannon(spec, params, n):
    return [(shannon_entropy(eigenvalue(params, n), params),)]


def _density(spec, params, n):
    rho = density(eigenvalue(params, n), params, np.asarray(_xs(spec)))
    return zip(rho)


def _perey(spec, params, xs):
    return zip(perey_factor(params, np.asarray(xs)))


# output -> (shape, value columns, compute)
_OUTPUTS = {
    "spectrum": (_LEVEL_RANGE, ("energy", "lambda", "saturation_limit"),
                 _spectrum),
    "thermo": (_PER_BETA, ("Z", "U", "Cv", "N_used"), _thermo),
    "fisher": (_PER_LEVEL, ("fisher_closed", "fisher_numeric", "fisher"),
               _fisher),
    "cramer_rao": (_PER_LEVEL, ("fisher", "variance", "product"),
                   _cramer_rao),
    "shannon": (_PER_LEVEL, ("shannon",), _shannon),
    "density": (_LEVEL_X, ("rho",), _density),
    "perey": (_X_GRID, ("perey",), _perey),
}


def _rows(spec: SweepSpec, name: str, counts: dict):
    """CSV rows of one output, counted into ``counts``, yielded as they are
    made; a cell that raises gives one error row per point, with its keys
    and blank values, unless its shape retries it one point at a time."""
    (_, cells, points, retry), columns, compute = _OUTPUTS[name]
    nu, blank = spec.nu, (None,) * len(columns)

    def cell_rows(gamma, cell):
        try:
            values, error = compute(spec, spec.params(gamma), cell), ""
        except Exception as exc:
            values, error = repeat(blank), f"{type(exc).__name__}: {exc}"
        if error and retry and len(cell) > 1:
            for i in range(len(cell)):
                yield from cell_rows(gamma, cell[i:i + 1])
            return
        rows = 0
        for rows, (key, vals) in enumerate(zip(points(spec, cell), values), 1):
            yield (nu, gamma, *key, *vals, error)
        counts["rows"] += rows
        counts["error_rows"] += rows if error else 0

    for gamma in spec.gamma_list:
        for cell in cells(spec):
            yield from cell_rows(gamma, cell)


def run_sweep(spec: SweepSpec) -> dict[str, Path]:
    """Write one CSV per requested output plus manifest.json; returns paths."""
    t0 = time.perf_counter()
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written, per_output = {}, {}
    for name in spec.outputs:
        t_out = time.perf_counter()
        (keys, *_), columns, _ = _OUTPUTS[name]
        counts = {"rows": 0, "error_rows": 0}
        path = out_dir / f"{name}.csv"
        _write_csv(path, ["nu", "gamma", *keys, *columns, "error"],
                   _rows(spec, name, counts))
        per_output[name] = {**counts, "wall_s": time.perf_counter() - t_out}
        written[name] = path
    manifest = {
        "tool": "edho",
        "version": __version__,
        "spec": asdict(spec),
        "tolerances": {
            "eps_sat": spec.eps_sat,
            "normalization": _NORM_TOL,
            "residual_relative": _RESIDUAL_TOL,
            "moment_closed_form": _MOMENT_TOL,
            "cramer_rao_slack": _CRAMER_RAO_SLACK,
        },
        "outputs": {k: str(v) for k, v in written.items()},
        "per_output": per_output,
        "wall_time_s": time.perf_counter() - t0,
    }
    with (out_dir / "manifest.json").open("w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    written["manifest"] = out_dir / "manifest.json"
    return written


def run_validation(spec: SweepSpec) -> tuple[list[str], bool]:
    """Oracle suite over the sweep grid; (report lines, all-gates-passed)."""
    lines = []
    ok = True

    def gate(name, max_err, tol):
        nonlocal ok
        passed = max_err < tol
        ok = ok and passed
        lines.append(f"CHECK {name}: max_err={max_err:.3e} tol={tol:.0e} "
                     f"{'PASS' if passed else 'FAILED'}")

    # the quadrature gates take the first 13 levels of the range and its top
    quad_levels = list(range(spec.n_min, min(spec.n_max, spec.n_min + 12) + 1))
    if quad_levels[-1] < spec.n_max:
        quad_levels.append(spec.n_max)
    res_err = norm_err = mom_err = cr_err = overlap = 0.0
    negative = []
    for gamma in spec.gamma_list:
        try:
            params = spec.params(gamma)
            # positivity before the residual scan, which can stop this
            # coupling at a level with no real eigenvalue
            if gamma > 0:
                xs = np.asarray(spec.x_grid
                                or tuple(np.linspace(-8.0, 8.0, 321)))
                level = eigenvalue(params, spec.n_min)
                rho = density(level, params, xs)
                # each run of grid points with rho < 0, by its end points
                edges = np.flatnonzero(np.diff(np.r_[False, rho < 0, False]))
                if edges.size:
                    runs = " and ".join(f"[{xs[a]:.4g}, {xs[b - 1]:.4g}]"
                                        for a, b in edges.reshape(-1, 2))
                    negative.append(f"gamma={gamma:g}: rho < 0 on x in {runs}")
            for n in range(spec.n_min, spec.n_max + 1):
                level = eigenvalue(params, n)
                res_err = max(res_err, abs(residual(params, n, level.energy))
                              / (n + 0.5) ** 2)
            if gamma > 0:
                continue
            # non-gating: modified-product overlap of distinct levels
            levels = [eigenvalue(params, n) for n in
                      range(spec.n_min, min(spec.n_max, spec.n_min + 6) + 1)]
            for i, lm in enumerate(levels):
                for ln in levels[i + 1:]:
                    if (lm.n - ln.n) % 2:
                        continue
                    window = gaussian_window(min(lm.lam, ln.lam), ln.n)
                    val, _ = integrate(
                        lambda x: (psi(lm, params, x) * psi(ln, params, x)
                                   * weight(params, x, ln)),
                        window, 1e-10)
                    overlap = max(overlap, abs(val))
            for n in quad_levels:
                level = eigenvalue(params, n)
                window = gaussian_window(level.lam, n)
                norm, _ = integrate(lambda x: density(level, params, x),
                                    window, 1e-11)
                norm_err = max(norm_err, abs(norm - 1.0))
                x2_quad, _ = integrate(
                    lambda x: np.asarray(x) ** 2 * density(level, params, x),
                    window, 1e-11)
                _, x2_closed, _ = moments(level, params)
                mom_err = max(mom_err, abs(x2_quad - x2_closed))
                cr_err = max(cr_err, 1.0 - cramer_rao(level, params))
        except (DomainError, NonConvergence) as exc:
            ok = False
            check = "domain" if isinstance(exc, DomainError) else "convergence"
            lines.append(f"CHECK {check}: FAILED gamma={gamma:g}: {exc}")

    gate("residual", res_err, _RESIDUAL_TOL)
    gate("normalization", norm_err, _NORM_TOL)
    gate("moment_closed_form", mom_err, _MOMENT_TOL)
    gate("cramer_rao_bound", cr_err, _CRAMER_RAO_SLACK)
    ok = ok and not negative
    lines += ([f"CHECK density_positivity: FAILED {where}"
               for where in negative] or ["CHECK density_positivity: PASS"])
    lines.append("REPORT orthogonality(modified product): "
                 f"max_overlap={overlap:.3e}")
    return lines, ok


def _parse_grid(text: str) -> tuple:
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:count, got {text!r}") from exc
    if count < 1 or not (math.isfinite(start) and math.isfinite(stop)):
        # checked before linspace, which warns on an infinite end
        raise argparse.ArgumentTypeError(
            f"grid needs finite ends and a count of at least 1, got {text!r}")
    return tuple(np.linspace(start, stop, count))


def _parse_gammas(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"gamma list must be comma-separated floats, got {text!r}") from exc


def _config_flags(path: str, parser) -> list[str]:
    """The flags named by a config file's ``key = value`` lines; a key is a
    flag name without its dashes (``n_max`` or ``n-max``), '#' a comment."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read config file {path!r}: {exc}")
    flags = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            parser.error(f"config line is not key = value: {raw!r}")
        flag, value = "--" + key.strip().replace("_", "-"), value.strip()
        if flag != "--permissive":
            flags.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes"):
            flags.append(flag)
        elif value.lower() not in ("0", "false", "no"):
            parser.error(f"config permissive must be yes or no, got {value!r}")
    return flags


def _build_parser() -> argparse.ArgumentParser:
    # unset flags stay out of the namespace, so SweepSpec's defaults apply
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--nu", type=int, choices=(1, 2))
    common.add_argument("--gamma", dest="gamma_list", type=_parse_gammas,
                        metavar="G1,G2,...",
                        help="coupling list (use --gamma=-0.5,-1 form)")
    common.add_argument("--n-min", type=int)
    common.add_argument("--n-max", type=int)
    common.add_argument("--beta-grid", type=_parse_grid,
                        metavar="START:STOP:COUNT")
    common.add_argument("--x-grid", type=_parse_grid,
                        metavar="START:STOP:COUNT")
    common.add_argument("--eps-sat", type=float)
    common.add_argument("--density-mode", choices=("paper", "nu-consistent"))
    common.add_argument("--fisher-source", choices=("numeric", "closed"))
    common.add_argument("--out", dest="out_dir", help="output directory")
    common.add_argument("--config",
                        help="key = value config file; flags win on conflict")
    common.add_argument("--permissive", action="store_true",
                        help="allow gamma > 0 (exploratory)")

    parser = argparse.ArgumentParser(
        prog="edho",
        description="energy-dependent oscillator sweeps and validation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "thermo", "fisher", "cramer-rao", "shannon",
                 "density", "perey", "validate"):
        sub.add_parser(name, parents=[common])
    return parser


def _resolve_spec(args, parser) -> SweepSpec:
    fields = {k: v for k, v in vars(args).items()
              if k not in ("command", "config")}
    output = args.command.replace("-", "_")
    if output in _OUTPUTS:
        fields["outputs"] = (output,)
    try:
        return SweepSpec(**fields)
    except DomainError as exc:
        parser.error(str(exc))


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if "config" in args:
        # the config's flags go first, so the command line's win on conflict
        args = parser.parse_args([argv[0], *_config_flags(args.config, parser),
                                  *argv[1:]])
    spec = _resolve_spec(args, parser)
    if args.command == "validate":
        lines, ok = run_validation(spec)
        for line in lines:
            print(line)
        return 0 if ok else 1
    written = run_sweep(spec)
    for name, path in written.items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
