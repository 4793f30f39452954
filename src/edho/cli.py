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
import numbers
import sys
import time
from dataclasses import dataclass
from itertools import product, repeat
from pathlib import Path, PurePath

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

# validate's gates in report order, each with the bound its maximum error
# must stay below (the residual's is relative to (n + 1/2)**2, the moment's
# to max(1, <x^2>), which grows like 1/lam at strong coupling)
_GATES = {"residual": 1e-10, "normalization": 1e-8,
          "moment_closed_form": 1e-8, "cramer_rao_bound": 1e-10}
# the values SweepSpec and the command line accept for these fields
_CHOICES = {"density_mode": tuple(mode.value for mode in DensityMode),
            "fisher_source": ("numeric", "closed")}
_MAX_GRID_COUNT = 10**6
# SweepSpec's fields -> (accepted type, stored type, what a value must be);
# a tuple field holds one or more items of that type; a bool is no number
_TYPES = {"nu": (numbers.Integral, int, "an integer"),
          "n_min": (numbers.Integral, int, "an integer"),
          "n_max": (numbers.Integral, int, "an integer"),
          "eps_sat": (numbers.Real, float, "a number"),
          "permissive": ((bool, np.bool_), bool, "a bool"),
          "out_dir": ((str, PurePath), str, "a string or a path"),
          "gamma_list": (numbers.Real, float, "numbers"),
          "beta_grid": (numbers.Real, float, "numbers"),
          "x_grid": (numbers.Real, float, "numbers"),
          "outputs": (str, str, "strings")}
_TUPLES = ("gamma_list", "beta_grid", "x_grid", "outputs")


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
        # a library caller may give numpy values, a path, and for a tuple
        # field one item or any iterable of items; each value is stored as
        # its plain Python type, which the manifest's json can write
        for name, (kind, plain, noun) in _TYPES.items():
            value = getattr(self, name)
            try:
                items = (tuple(value) if name in _TUPLES
                         and not isinstance(value, str) else (value,))
            except TypeError:  # not iterable: a scalar
                items = (value,)
            if not all(isinstance(item, kind)
                       and (plain is bool or not isinstance(item, bool))
                       for item in items):
                raise DomainError(f"{name} must be {noun}, got {value!r}")
            items = tuple(map(plain, items))
            setattr(self, name, items if name in _TUPLES else items[0])
        if self.n_max < self.n_min or self.n_min < 0:
            raise DomainError(
                f"empty quantum-number range [{self.n_min}, {self.n_max}]"
            )
        if self.n_max >= 2**52:
            # past 2**52, n + 1/2 is no longer exact in floating point
            raise DomainError(f"n_max must be below 2**52, got {self.n_max}")
        if not self.gamma_list:
            raise DomainError("gamma list is empty")
        unknown = [name for name in self.outputs if name not in _OUTPUTS]
        if unknown:
            raise DomainError(f"unknown outputs {unknown}")
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise DomainError(f"{name} must be one of {allowed}, "
                                  f"got {getattr(self, name)!r}")
        if not 0.0 < self.eps_sat < 1.0:
            raise DomainError(f"eps_sat must lie in (0, 1), "
                              f"got {self.eps_sat}")
        # ModelParams owns the coupling rules: nu, a finite gamma, and
        # gamma > 0 only when permissive
        for gamma in self.gamma_list:
            self.params(gamma)
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


def _fmt(value):
    # csv.writer prints None as an empty field and the rest through str()
    return format(value, ".17g") if isinstance(value, float) else value


def _write_csv(path: Path, header: list[str], rows) -> dict[str, int]:
    """Write the rows; returns their count and that of the error rows.

    Rows of numbers and an empty error go through one template, which
    prints exactly what ``_fmt`` and ``csv.writer`` print for them (their
    integers stay below 2**52, see SweepSpec); rows with an error or a
    blank value keep the writer, whose quoting an error text may need."""
    template = ",".join(["%.17g"] * (len(header) - 1)) + ",%s\r\n"
    n_rows = n_errors = 0
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for n_rows, row in enumerate(rows, 1):
            if row[-1] or None in row:
                n_errors += bool(row[-1])
                writer.writerow([_fmt(v) for v in row])
            else:
                fh.write(template % row)
    return {"rows": n_rows, "error_rows": n_errors}


_DEFAULT_BETAS = tuple(np.linspace(0.1, 10.0, 50))
_DEFAULT_XS = tuple(np.linspace(-6.0, 6.0, 241))

# each key column after nu and gamma -> its values over one coupling
_AXES = {
    "n": lambda spec: range(spec.n_min, spec.n_max + 1),
    "x": lambda spec: spec.x_grid or _DEFAULT_XS,
    "beta": lambda spec: spec.beta_grid or _DEFAULT_BETAS,
}


# Each compute maps (spec, params, cell) to one tuple of values per point;
# a cell is either a whole first axis or one value of it.  A multi-point
# compute does all its work before it returns and hands the values back
# lazily.  They reach eigenvalue, fisher_numeric, ... as module globals at
# call time, so anything that rebinds those names here sees every call.

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
    rho = density(eigenvalue(params, n), params, np.asarray(_AXES["x"](spec)))
    return zip(rho)


def _perey(spec, params, xs):
    return zip(perey_factor(params, np.asarray(xs)))


# output -> (key columns, value columns, compute, whether the compute takes
# the whole first axis in one call rather than one of its values)
_OUTPUTS = {
    "spectrum": (("n",), ("energy", "lambda", "saturation_limit"), _spectrum,
                 True),
    "thermo": (("beta",), ("Z", "U", "Cv", "N_used"), _thermo, True),
    "fisher": (("n",), ("fisher_closed", "fisher_numeric", "fisher"), _fisher,
               False),
    "cramer_rao": (("n",), ("fisher", "variance", "product"), _cramer_rao,
                   False),
    "shannon": (("n",), ("shannon",), _shannon, False),
    "density": (("n", "x"), ("rho",), _density, False),
    "perey": (("x",), ("perey",), _perey, True),
}


def _rows(spec: SweepSpec, name: str):
    """CSV rows of one output, yielded as they are made.  The cells of a
    coupling are its whole first axis, or each value of that axis; a
    point's keys are its first-axis value, crossed with the later axes for
    a per-value cell.  A cell that raises gives one error row per point,
    with its keys and blank values; a whole-axis cell is first retried one
    point at a time, so only the points that fail become error rows."""
    keys, columns, compute, whole = _OUTPUTS[name]
    first, *rest = (_AXES[key](spec) for key in keys)
    nu, blank = spec.nu, (None,) * len(columns)

    def cell_rows(gamma, cell):
        try:
            values, error = compute(spec, spec.params(gamma), cell), ""
        except Exception as exc:
            values, error = repeat(blank), f"{type(exc).__name__}: {exc}"
        if error and whole and len(cell) > 1:
            for i in range(len(cell)):
                yield from cell_rows(gamma, cell[i:i + 1])
            return
        points = zip(cell) if whole else product([cell], *rest)
        for key, vals in zip(points, values):
            yield (nu, gamma, *key, *vals, error)

    for gamma in spec.gamma_list:
        for cell in [first] if whole else first:
            yield from cell_rows(gamma, cell)


def run_sweep(spec: SweepSpec) -> dict[str, Path]:
    """Write one CSV per requested output plus manifest.json; returns paths."""
    t0 = time.perf_counter()
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written, per_output = {}, {}
    for name in spec.outputs:
        t_out = time.perf_counter()
        keys, columns, *_ = _OUTPUTS[name]
        path = out_dir / f"{name}.csv"
        counts = _write_csv(path, ["nu", "gamma", *keys, *columns, "error"],
                            _rows(spec, name))
        per_output[name] = {**counts, "wall_s": time.perf_counter() - t_out}
        written[name] = path
    manifest = {
        "tool": "edho",
        "version": __version__,
        "spec": vars(spec),
        "tolerances": {"eps_sat": spec.eps_sat, **_GATES},
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
    lines, ok, negative = [], True, []
    worst, overlap = dict.fromkeys(_GATES, 0.0), 0.0
    for gamma in spec.gamma_list:
        try:
            params = spec.params(gamma)
            # positivity before the residual scan, which can stop this
            # coupling at a level with no real eigenvalue
            if gamma > 0:
                xs = np.asarray(spec.x_grid or np.linspace(-8.0, 8.0, 321))
                level = eigenvalue(params, spec.n_min)
                rho = density(level, params, xs)
                # each run of grid points with rho < 0, by its end points
                edges = np.flatnonzero(np.diff(np.r_[False, rho < 0, False]))
                if edges.size:
                    runs = " and ".join(f"[{xs[a]:.4g}, {xs[b - 1]:.4g}]"
                                        for a, b in edges.reshape(-1, 2))
                    negative.append(f"gamma={gamma:g}: rho < 0 on x in {runs}")
            # the residual scan keeps the levels the quadrature gates take:
            # the first 13 of the range and its top
            levels = []
            for n in range(spec.n_min, spec.n_max + 1):
                level = eigenvalue(params, n)
                err = abs(residual(params, n, level.energy)) / (n + 0.5) ** 2
                worst["residual"] = max(worst["residual"], err)
                if n <= spec.n_min + 12 or n == spec.n_max:
                    levels.append(level)
            if gamma > 0:
                continue
            # non-gating: modified-product overlap of distinct levels among
            # n_min..min(n_max, n_min + 6), the first seven gated ones
            for i, lm in enumerate(levels[:7]):
                for ln in levels[i + 1:7]:
                    if (lm.n - ln.n) % 2:
                        continue
                    window = gaussian_window(min(lm.lam, ln.lam), ln.n)
                    val, _ = integrate(
                        lambda x: (psi(lm, params, x) * psi(ln, params, x)
                                   * weight(params, x, ln)),
                        window, 1e-10)
                    overlap = max(overlap, abs(val))
            for level in levels:
                window = gaussian_window(level.lam, level.n)
                norm, _ = integrate(lambda x: density(level, params, x),
                                    window, 1e-11)
                worst["normalization"] = max(worst["normalization"],
                                             abs(norm - 1.0))
                x2_quad, _ = integrate(
                    lambda x: np.asarray(x) ** 2 * density(level, params, x),
                    window, 1e-11)
                _, x2_closed, _ = moments(level, params)
                worst["moment_closed_form"] = max(
                    worst["moment_closed_form"],
                    abs(x2_quad - x2_closed) / max(1.0, x2_closed))
                worst["cramer_rao_bound"] = max(
                    worst["cramer_rao_bound"], 1.0 - cramer_rao(level, params))
        except (DomainError, NonConvergence) as exc:
            ok = False
            check = "domain" if isinstance(exc, DomainError) else "convergence"
            lines.append(f"CHECK {check}: FAILED gamma={gamma:g}: {exc}")

    for name, tol in _GATES.items():
        passed = worst[name] < tol
        ok = ok and passed
        lines.append(f"CHECK {name}: max_err={worst[name]:.3e} tol={tol:.0e} "
                     f"{'PASS' if passed else 'FAILED'}")
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
    if (not 1 <= count <= _MAX_GRID_COUNT
            or not (math.isfinite(start) and math.isfinite(stop))):
        # checked before linspace, which warns on an infinite end and would
        # allocate a grid of any count
        raise argparse.ArgumentTypeError(
            "grid needs finite ends and a count from 1 to "
            f"{_MAX_GRID_COUNT}, got {text!r}")
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
    parser = argparse.ArgumentParser(
        prog="edho", argument_default=argparse.SUPPRESS,
        description="energy-dependent oscillator sweeps and validation")
    parser.add_argument("command", choices=[name.replace("_", "-") for name
                                            in [*_OUTPUTS, "validate"]])
    parser.add_argument("--nu", type=int, choices=(1, 2))
    parser.add_argument("--gamma", dest="gamma_list", type=_parse_gammas,
                        metavar="G1,G2,...",
                        help="coupling list (use --gamma=-0.5,-1 form)")
    parser.add_argument("--n-min", type=int)
    parser.add_argument("--n-max", type=int)
    parser.add_argument("--beta-grid", type=_parse_grid,
                        metavar="START:STOP:COUNT")
    parser.add_argument("--x-grid", type=_parse_grid,
                        metavar="START:STOP:COUNT")
    parser.add_argument("--eps-sat", type=float)
    parser.add_argument("--density-mode", choices=_CHOICES["density_mode"])
    parser.add_argument("--fisher-source", choices=_CHOICES["fisher_source"])
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--config",
                        help="key = value config file; flags win on conflict")
    parser.add_argument("--permissive", action="store_true",
                        help="allow gamma > 0 (exploratory)")
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
        parser.error(str(exc).replace("permissive=True", "--permissive"))


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if "config" in args:
        # the config's flags go first, so the command line's win on conflict
        args = parser.parse_args([*_config_flags(args.config, parser), *argv])
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
