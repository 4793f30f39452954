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
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError
from .information import (cramer_rao, fisher_closed, fisher_numeric, moments,
                          shannon_entropy)
from .quadrature import IntegrationSpec, gaussian_window, integrate
from .spectrum import (DensityMode, ModelParams, eigenvalue, residual,
                       saturation_limit)
from .thermo import specific_heat_curve
from .wavefunction import density, perey_factor, psi, weight

OUTPUTS = ("spectrum", "thermo", "fisher", "cramer_rao", "shannon",
           "density", "perey")

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
        if not self.gamma_list:
            raise DomainError("gamma list is empty")
        if not all(math.isfinite(g) for g in self.gamma_list):
            raise DomainError(f"gamma must be finite, got {self.gamma_list}")
        if not self.permissive and any(g > 0 for g in self.gamma_list):
            raise DomainError("gamma > 0 requires --permissive")
        for name in ("beta_grid", "x_grid"):
            grid = getattr(self, name)
            if grid and any(b >= a for a, b in zip(grid[1:], grid)):
                raise DomainError(f"{name} must be strictly increasing")

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
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _spectrum_rows(spec: SweepSpec):
    for gamma in spec.gamma_list:
        params = None
        try:
            params = spec.params(gamma)
            limit = saturation_limit(params) if gamma < 0 else None
        except Exception as exc:
            for n in range(spec.n_min, spec.n_max + 1):
                yield (spec.nu, gamma, n, None, None, None,
                       f"{type(exc).__name__}: {exc}")
            continue
        for n in range(spec.n_min, spec.n_max + 1):
            try:
                level = eigenvalue(params, n)
                yield (spec.nu, gamma, n, level.energy, level.lam, limit, "")
            except Exception as exc:
                yield (spec.nu, gamma, n, None, None, limit,
                       f"{type(exc).__name__}: {exc}")


def _thermo_rows(spec: SweepSpec):
    betas = spec.beta_grid or tuple(np.linspace(0.1, 10.0, 50))
    for gamma in spec.gamma_list:
        try:
            points = specific_heat_curve(spec.params(gamma), betas,
                                         eps_sat=spec.eps_sat)
        except Exception as exc:
            for beta in betas:
                yield (spec.nu, gamma, beta, None, None, None, None,
                       f"{type(exc).__name__}: {exc}")
            continue
        for pt in points:
            yield (spec.nu, gamma, pt.beta, pt.Z, pt.U, pt.Cv, pt.N_used, "")


def _per_level_rows(spec: SweepSpec, compute):
    for gamma in spec.gamma_list:
        for n in range(spec.n_min, spec.n_max + 1):
            try:
                params = spec.params(gamma)
                yield (spec.nu, gamma, n, *compute(params, n), "")
            except Exception as exc:
                yield (spec.nu, gamma, n, None,
                       f"{type(exc).__name__}: {exc}")


def _fisher_rows(spec: SweepSpec):
    for gamma in spec.gamma_list:
        for n in range(spec.n_min, spec.n_max + 1):
            try:
                params = spec.params(gamma)
                level = eigenvalue(params, n)
                # the truncated closed form leaves its validity regime at
                # strong coupling; report nan there instead of losing the row
                try:
                    closed = fisher_closed(level, params)
                except DomainError:
                    if spec.fisher_source == "closed":
                        raise
                    closed = math.nan
                numeric = fisher_numeric(level, params)
                chosen = closed if spec.fisher_source == "closed" else numeric
                yield (spec.nu, gamma, n, closed, numeric, chosen, "")
            except Exception as exc:
                yield (spec.nu, gamma, n, None, None, None,
                       f"{type(exc).__name__}: {exc}")


def _cramer_rao_rows(spec: SweepSpec):
    for gamma in spec.gamma_list:
        for n in range(spec.n_min, spec.n_max + 1):
            try:
                params = spec.params(gamma)
                level = eigenvalue(params, n)
                product = cramer_rao(level, params, source=spec.fisher_source)
                _, _, variance = moments(level, params)
                yield (spec.nu, gamma, n, product / variance, variance,
                       product, "")
            except Exception as exc:
                yield (spec.nu, gamma, n, None, None, None,
                       f"{type(exc).__name__}: {exc}")


def _shannon_rows(spec: SweepSpec):
    def compute(params, n):
        level = eigenvalue(params, n)
        return (shannon_entropy(level, params),)

    yield from _per_level_rows(spec, compute)


def _density_rows(spec: SweepSpec):
    xs = spec.x_grid or tuple(np.linspace(-6.0, 6.0, 241))
    for gamma in spec.gamma_list:
        for n in range(spec.n_min, spec.n_max + 1):
            try:
                params = spec.params(gamma)
                level = eigenvalue(params, n)
                rho = density(level, params, np.asarray(xs))
                for x, r in zip(xs, rho):
                    yield (spec.nu, gamma, n, x, float(r), "")
            except Exception as exc:
                for x in xs:
                    yield (spec.nu, gamma, n, x, None,
                           f"{type(exc).__name__}: {exc}")


def _perey_rows(spec: SweepSpec):
    xs = spec.x_grid or tuple(np.linspace(-6.0, 6.0, 241))
    for gamma in spec.gamma_list:
        for x in xs:
            try:
                params = spec.params(gamma)
                yield (spec.nu, gamma, x, perey_factor(params, x), "")
            except Exception as exc:
                yield (spec.nu, gamma, x, None,
                       f"{type(exc).__name__}: {exc}")


_SCHEMAS = {
    "spectrum": (["nu", "gamma", "n", "energy", "lambda",
                  "saturation_limit", "error"], _spectrum_rows),
    "thermo": (["nu", "gamma", "beta", "Z", "U", "Cv", "N_used", "error"],
               _thermo_rows),
    "fisher": (["nu", "gamma", "n", "fisher_closed", "fisher_numeric",
                "fisher", "error"], _fisher_rows),
    "cramer_rao": (["nu", "gamma", "n", "fisher", "variance", "product",
                    "error"], _cramer_rao_rows),
    "shannon": (["nu", "gamma", "n", "shannon", "error"], _shannon_rows),
    "density": (["nu", "gamma", "n", "x", "rho", "error"], _density_rows),
    "perey": (["nu", "gamma", "x", "perey", "error"], _perey_rows),
}


def run_sweep(spec: SweepSpec) -> dict[str, Path]:
    """Write one CSV per requested output plus manifest.json; returns paths."""
    t0 = time.perf_counter()
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for name in spec.outputs:
        header, rows = _SCHEMAS[name]
        path = out_dir / f"{name}.csv"
        _write_csv(path, header, rows(spec))
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

    n_quad = min(spec.n_max, 12)
    res_err = norm_err = mom_err = cr_err = 0.0
    neg_interval = None
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
                if np.any(rho < 0):
                    neg = xs[rho < 0]
                    neg_interval = (float(neg.min()), float(neg.max()))
            for n in range(spec.n_min, spec.n_max + 1):
                level = eigenvalue(params, n)
                res_err = max(res_err, abs(residual(params, n, level.energy))
                              / (n + 0.5) ** 2)
            if gamma > 0:
                continue
            for n in range(spec.n_min, min(n_quad, spec.n_max) + 1):
                level = eigenvalue(params, n)
                window = gaussian_window(level.lam, n)
                quad_spec = IntegrationSpec(abs_tol=1e-12, rel_tol=1e-11,
                                            window=window)
                norm, _ = integrate(lambda x: density(level, params, x),
                                    quad_spec)
                norm_err = max(norm_err, abs(norm - 1.0))
                x2_quad, _ = integrate(
                    lambda x: np.asarray(x) ** 2 * density(level, params, x),
                    quad_spec)
                _, x2_closed, _ = moments(level, params)
                mom_err = max(mom_err, abs(x2_quad - x2_closed))
                cr_err = max(cr_err, 1.0 - cramer_rao(level, params))
        except DomainError as exc:
            ok = False
            lines.append(f"CHECK domain: FAILED gamma={gamma:g}: {exc}")

    gate("residual", res_err, _RESIDUAL_TOL)
    gate("normalization", norm_err, _NORM_TOL)
    gate("moment_closed_form", mom_err, _MOMENT_TOL)
    gate("cramer_rao_bound", cr_err, _CRAMER_RAO_SLACK)
    if neg_interval is not None:
        ok = False
        lines.append(f"CHECK density_positivity: FAILED rho < 0 on "
                     f"x in [{neg_interval[0]:.4g}, {neg_interval[1]:.4g}]")
    else:
        lines.append("CHECK density_positivity: PASS")
    lines.append(_orthogonality_report(spec))
    return lines, ok


def _orthogonality_report(spec: SweepSpec) -> str:
    """Non-gating report: modified-product overlap of distinct levels."""
    worst = 0.0
    for gamma in spec.gamma_list:
        if gamma > 0:
            continue
        params = spec.params(gamma)
        levels = [eigenvalue(params, n) for n in range(min(spec.n_max, 6) + 1)]
        for i, lm in enumerate(levels):
            for ln in levels[i + 1:]:
                if (lm.n - ln.n) % 2:
                    continue
                window = gaussian_window(min(lm.lam, ln.lam), ln.n)
                val, _ = integrate(
                    lambda x: (psi(lm, params, x) * psi(ln, params, x)
                               * weight(params, x, ln)),
                    IntegrationSpec(abs_tol=1e-12, rel_tol=1e-10,
                                    window=window))
                worst = max(worst, abs(val))
    return f"REPORT orthogonality(modified product): max_overlap={worst:.3e}"


def _parse_grid(text: str) -> tuple:
    try:
        start, stop, count = text.split(":")
        return tuple(np.linspace(float(start), float(stop), int(count)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:count, got {text!r}") from exc


def _parse_gammas(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"gamma list must be comma-separated floats, got {text!r}") from exc


def _read_config(path: str) -> dict:
    """Plain key = value lines; '#' starts a comment."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"bad config line: {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_CONFIG_PARSERS = {
    "nu": int,
    "gamma": _parse_gammas,
    "n_min": int,
    "n_max": int,
    "beta_grid": _parse_grid,
    "x_grid": _parse_grid,
    "eps_sat": float,
    "density_mode": str,
    "fisher_source": str,
    "out": str,
    "permissive": lambda s: s.lower() in ("1", "true", "yes"),
}

_DEFAULTS = {
    "nu": 1,
    "gamma": (-0.5,),
    "n_min": 0,
    "n_max": 20,
    "beta_grid": (),
    "x_grid": (),
    "eps_sat": 1e-6,
    "density_mode": "paper",
    "fisher_source": "numeric",
    "out": "edho-out",
    "permissive": False,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--nu", type=int, choices=(1, 2), default=None)
    common.add_argument("--gamma", type=_parse_gammas, default=None,
                        metavar="G1,G2,...",
                        help="coupling list (use --gamma=-0.5,-1 form)")
    common.add_argument("--n-min", type=int, default=None)
    common.add_argument("--n-max", type=int, default=None)
    common.add_argument("--beta-grid", type=_parse_grid, default=None,
                        metavar="START:STOP:COUNT")
    common.add_argument("--x-grid", type=_parse_grid, default=None,
                        metavar="START:STOP:COUNT")
    common.add_argument("--eps-sat", type=float, default=None)
    common.add_argument("--density-mode", choices=("paper", "nu-consistent"),
                        default=None)
    common.add_argument("--fisher-source", choices=("numeric", "closed"),
                        default=None)
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--config", default=None,
                        help="key = value config file; flags win on conflict")
    common.add_argument("--permissive", action="store_const", const=True,
                        default=None, help="allow gamma > 0 (exploratory)")

    parser = argparse.ArgumentParser(
        prog="edho",
        description="energy-dependent oscillator sweeps and validation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "thermo", "fisher", "cramer-rao", "shannon",
                 "density", "perey", "validate"):
        sub.add_parser(name, parents=[common])
    return parser


def _resolve_spec(args, parser) -> SweepSpec:
    config = _read_config(args.config) if args.config else {}
    resolved = {}
    for key, default in _DEFAULTS.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in config:
            resolved[key] = _CONFIG_PARSERS[key](config[key])
        else:
            resolved[key] = default
    output = args.command.replace("-", "_")
    try:
        return SweepSpec(
            nu=resolved["nu"],
            gamma_list=tuple(resolved["gamma"]),
            n_min=resolved["n_min"],
            n_max=resolved["n_max"],
            beta_grid=tuple(resolved["beta_grid"]),
            x_grid=tuple(resolved["x_grid"]),
            outputs=(output,) if output in OUTPUTS else OUTPUTS[:1],
            eps_sat=resolved["eps_sat"],
            density_mode=resolved["density_mode"],
            fisher_source=resolved["fisher_source"],
            permissive=resolved["permissive"],
            out_dir=resolved["out"],
        )
    except DomainError as exc:
        parser.error(str(exc))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
