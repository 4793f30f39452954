"""Command-line front end: parameter sweeps to CSV plus a manifest.

Each subcommand emits one CSV with a fixed header; floats are printed with
17 significant digits so re-running an identical sweep is byte-identical.
Row-level computation errors land in an ``error`` column instead of
aborting the sweep.  ``validate`` runs the oracle suite and exits nonzero
if any assertion-grade invariant fails.
"""

from __future__ import annotations

import argparse
import functools
import math
import json
import numbers
import sys
import time
from dataclasses import dataclass, replace
from itertools import starmap
from pathlib import Path, PurePath

import numpy as np

from . import __version__
from .errors import DomainError, NonConvergence, shown
from .information import (_I_N_MAX_N, cramer_rao, fisher_closed,
                          fisher_numeric, moments, shannon_entropy)
from .quadrature import gaussian_window, integrate
from .spectrum import (_N_SAT_MAX, DensityMode, ModelParams, _energies,
                       _levels, eigenvalue, residual, saturation_limit)
from .thermo import _HEAD, specific_heat_curve
from .wavefunction import (_PSI_MAX_N, density, perey_factor, psi,
                           weight_coefficient)

# validate's gates in report order, each with the bound its maximum error
# must stay below (the residual's is relative to max((n + 1/2)**2, E**2),
# the moment's to max(1, <x^2>), which grows like 1/lam at strong coupling).
# Over gamma in {0, -1e-5, -0.05, -0.1, -0.5, -1, -2, -1e6}, nu in {1, 2},
# both density modes and n = 0..680, the worst normalization error was
# 3.2e-14 and the worst moment error 4.9e-14, both at nu = 2, n = 680.  The
# worst overlap under the pair weight was 1.7e-13, at nu = 2, gamma = -1e-5,
# n = 600..612
_GATES = {"residual": 1e-10, "normalization": 1e-12,
          "moment_closed_form": 1e-12, "cramer_rao_bound": 1e-10,
          "orthogonality": 1e-12}
# the values SweepSpec and the command line accept for density_mode
_DENSITY_MODES = tuple(mode.value for mode in DensityMode)
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
                raise DomainError(f"{name} must be {noun}, got {shown(value)}")
            try:
                items = tuple(map(plain, items))
            except OverflowError:  # an integer past the float range
                raise DomainError(f"{name} must be {noun} in the float "
                                  "range") from None
            setattr(self, name, items if name in _TUPLES else items[0])
        # past 2**52, n + 1/2 is no longer exact in floating point; the
        # message names no value, which may have too many digits to print
        if not (0 <= self.n_min < 2**52 and 0 <= self.n_max < 2**52):
            raise DomainError("n_min and n_max must lie in [0, 2**52)")
        if self.n_max < self.n_min:
            raise DomainError("empty quantum-number range "
                              f"[{self.n_min}, {self.n_max}]")
        if self.n_max - self.n_min >= _MAX_GRID_COUNT:
            raise DomainError(f"quantum-number range [{self.n_min}, "
                              f"{self.n_max}] holds more than "
                              f"{_MAX_GRID_COUNT} levels")
        if not self.gamma_list:
            raise DomainError("gamma list is empty")
        unknown = [name for name in self.outputs if name not in _OUTPUTS]
        if unknown:
            raise DomainError(f"unknown outputs {unknown}")
        if self.density_mode not in _DENSITY_MODES:
            raise DomainError(f"density_mode must be one of {_DENSITY_MODES}, "
                              f"got {shown(self.density_mode)}")
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


_FMT = "%.17g".__mod__
# rows per write, so a cell's text is never held whole and a NumPy column
# is turned into Python floats a chunk at a time; chunks of 2048 rows
# raised the tables benchmark's peak RSS by 0.01-0.07 MB (three runs)
_CHUNK = 256


def _write_csv(path: Path, header: list[str], cells) -> dict[str, int]:
    """Write the cells' rows; returns their count and that of the error rows.

    A cell is (keys, columns, error): the text of the keys all its rows
    share, then each column as a sequence of one value per row (strings
    are written as they are) or one value all rows share (None is a
    blank).  Each cell becomes one %-template of the keys, shared values
    and error as text and one slot per sequence: ``%.17g`` prints a number
    as ``csv.writer`` prints ``format(value, ".17g")``, and ``%d`` a
    ``range`` of levels (below 2**52, see SweepSpec) with the same bytes.
    Only an error text may need quoting, once per cell, as csv.writer's."""
    counts = {"rows": 0, "error_rows": 0}
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")

        def write(keys, columns, error):
            # csv.writer's minimal quoting: in quotes, each quote doubled
            if any(ch in error for ch in ',"\r\n'):
                error = '"' + error.replace('"', '""') + '"'
            # the text all rows share, each % doubled, and one slot per
            # sequence
            parts, seqs = [k.replace("%", "%%") for k in keys], []
            for c in columns:
                if hasattr(c, "__len__"):
                    seqs.append(c)
                    parts.append("%s" if isinstance(c[0], str) else
                                 "%d" if isinstance(c, range) else "%.17g")
                else:
                    parts.append("" if c is None else _FMT(c))
            template = ",".join([*parts, error.replace("%", "%%")]) + "\r\n"
            size = len(seqs[0]) if seqs else 1  # one row without a sequence
            counts["rows"] += size
            counts["error_rows"] += size if error else 0
            for start in range(0, size, _CHUNK):
                chunk = [c[start:start + _CHUNK] for c in seqs]
                rows = zip(*[c.tolist() if isinstance(c, np.ndarray) else c
                             for c in chunk]) if seqs else [()]
                fh.write("".join(map(template.__mod__, rows)))

        # starmap lets go of each cell once it is written, so no cell is
        # held while the next one is computed
        for _ in starmap(write, cells):
            pass
    return counts


_DEFAULT_BETAS = tuple(np.linspace(0.1, 10.0, 50))
_DEFAULT_XS = tuple(np.linspace(-6.0, 6.0, 241))
# values per density call, whose Hermite pass over a block of levels holds
# six arrays of the block's size: a sweep of 681 levels of 241 points
# peaked at 0.25 MB under tracemalloc, 8.1 MB with one call per coupling
_DENSITY_POINTS = 2 ** 12

# each key column after nu and gamma -> its values over one coupling
_AXES = {
    "n": lambda spec: range(spec.n_min, spec.n_max + 1),
    "x": lambda spec: spec.x_grid or _DEFAULT_XS,
    "beta": lambda spec: spec.beta_grid or _DEFAULT_BETAS,
}


# Each compute maps (spec, params, block, table) to its value columns over
# the block, a slice of the first axis: one sequence of values per point,
# or one value every point shares.  table is a dict that lives for one
# output of one sweep, where a compute may keep what it made for every
# coupling at once.  The values reach eigenvalue, fisher_numeric, ... as
# module globals at call time, so anything that rebinds them sees every call.

def _spectrum(spec, params, levels, table):
    energies = _energies(params, levels)
    lam = energies / (np.asarray(levels) + 0.5)
    return [energies, lam,
            saturation_limit(params) if params.gamma < 0 else None]


def _thermo(spec, params, betas, table):
    curve = specific_heat_curve(params, betas, eps_sat=spec.eps_sat)
    # one saturation index (or None at gamma = 0) for the whole curve
    return [*zip(*[(pt.Z, pt.U, pt.Cv) for pt in curve]), curve[0].N_used]


# fisher and cramer_rao make each level as they reach it and keep 8 bytes
# per level and value: a range holds up to 10**6 levels.  A cell of several
# levels that reaches past _I_N_MAX_N is refused before any _i_n runs (none
# runs at gamma = 0): _rows retries it one level at a time, each _i_n once
def _cell_levels(params, levels):
    if len(levels) > 1 and levels[-1] > _I_N_MAX_N and params.gamma:
        raise DomainError(f"n={levels[-1]} is past n={_I_N_MAX_N}")
    return _levels(params, levels)


def _fisher(spec, params, levels, table):
    closed, numeric = np.empty((2, len(levels)))
    for i, level in enumerate(_cell_levels(params, levels)):
        # the truncated closed form reads nan where it leaves its regime at
        # strong coupling; the exact value fails where f vanishes (g > 0)
        try:
            closed[i] = fisher_closed(level, params)
        except DomainError:
            closed[i] = math.nan
        numeric[i] = fisher_numeric(level, params)
    return [closed, numeric, numeric]


def _cramer_rao(spec, params, levels, table):
    fisher, variance = np.empty((2, len(levels)))
    for i, level in enumerate(_cell_levels(params, levels)):
        fisher[i], variance[i] = (fisher_numeric(level, params),
                                  moments(level, params))
    return [fisher, variance, fisher * variance]


def _shannon(spec, params, levels, table):
    (n,) = levels
    # the first coupling that reaches level n takes it for every coupling
    # in one call, kept in table; where that call raises, and past the order
    # limit (so the table holds at most 681 levels), each coupling takes the
    # level alone, so that its row or error text is that of its own sweep
    if n <= _PSI_MAX_N and n not in table:
        each = [spec.params(gamma) for gamma in spec.gamma_list]
        try:
            table[n] = dict(zip(spec.gamma_list, shannon_entropy(
                [eigenvalue(p, n) for p in each], each)))
        except Exception:
            table[n] = None
    values = table.get(n)
    if values is None:
        return [shannon_entropy(eigenvalue(params, n), params)]
    return [values[params.gamma]]


def _density(spec, params, levels, table):
    return [density([eigenvalue(params, n) for n in levels], params,
                    np.asarray(_AXES["x"](spec)))]


def _perey(spec, params, xs, table):
    return [perey_factor(params, np.asarray(xs))]


# output -> (key columns, value columns, compute, values per compute call:
# None for the whole first axis in one call)
_OUTPUTS = {
    "spectrum": (("n",), ("energy", "lambda", "saturation_limit"), _spectrum,
                 None),
    "thermo": (("beta",), ("Z", "U", "Cv", "N_used"), _thermo, None),
    "fisher": (("n",), ("fisher_closed", "fisher_numeric", "fisher"), _fisher,
               None),
    "cramer_rao": (("n",), ("fisher", "variance", "product"), _cramer_rao,
                   None),
    "shannon": (("n",), ("shannon",), _shannon, 1),
    "density": (("n", "x"), ("rho",), _density, _DENSITY_POINTS),
    "perey": (("x",), ("perey",), _perey, None),
}


def _rows(spec: SweepSpec, name: str):
    """The cells of one output for ``_write_csv``, yielded as they are
    made.  A compute call takes one block of a coupling's first axis: all
    of it, or as many points as keep the call within the output's bound
    of values.  A block that raises is retried one point at a time, so only
    the points that fail become error rows, with blank values.  Without a
    later axis a block is one cell, whose rows share nu and gamma as keys;
    with one (density's x, formatted once per sweep) each point is a cell
    keyed by it too, and the later axis is a column.  Each call gives its
    compute a new table, dropped when the output is done."""
    keys, columns, compute, bound = _OUTPUTS[name]
    first, *rest = (_AXES[key](spec) for key in keys)
    rest = [[*map(_FMT, axis)] for axis in rest]
    size = len(first) if bound is None else max(
        1, bound // math.prod(map(len, rest)))
    table = {}

    def cells(gamma, lead, block):
        try:
            values, error = compute(spec, spec.params(gamma), block,
                                    table), ""
        except Exception as exc:
            values = [None] * len(columns)
            error = f"{type(exc).__name__}: {exc}"
        if error and len(block) > 1:
            for i in range(len(block)):
                yield from cells(gamma, lead, block[i:i + 1])
        elif not rest:
            yield lead, [block, *values], error
        else:
            for i, point in enumerate(block):
                yield ((*lead, _FMT(point)),
                       rest + [None if error else v[i] for v in values], error)

    for gamma in spec.gamma_list:
        lead = (_FMT(spec.nu), _FMT(gamma))
        for start in range(0, len(first), size):
            yield from cells(gamma, lead, first[start:start + size])


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
        # the largest orders psi and I_n take, the bound a saturation index
        # stays below, and the levels thermo sums directly
        "limits": {"psi_max_n": _PSI_MAX_N, "i_n_max_n": _I_N_MAX_N,
                   "n_sat_limit": _N_SAT_MAX, "thermo_head": _HEAD},
        "outputs": {k: str(v) for k, v in written.items()},
        "per_output": per_output,
        "wall_time_s": time.perf_counter() - t0,
    }
    # json.dumps without indent takes the C encoder; json.dump never does
    written["manifest"] = out_dir / "manifest.json"
    written["manifest"].write_text(json.dumps(manifest, sort_keys=True))
    return written


def _gated_integrals(levels, params):
    """Yield (levels, norms, <x^2>s, overlaps), the columns of one integral
    over u in [-1, 1]: each level's psi**2 f x^k at k = 0 and 2, and for
    the same-parity pairs a < b of the first seven levels psi_a psi_b times
    the modified product's pair weight 1 - (k_a + k_b) x**2 / 2, k the
    nu-consistent weight coefficient, in both density modes.  Level i takes
    x = W_i u on its Gaussian window W_i, and the first seven the widest of
    theirs, so that their pairs meet at one x.  Where it raises, the levels
    below the top take one integral and the top its own, so the levels and
    pairs below a failing one are taken."""
    if not levels:
        return
    windows = np.array([[gaussian_window(lv.lam, lv.n)] for lv in levels])
    windows[:7] = windows[:7].max()
    g = np.array([[weight_coefficient(params, lv)] for lv in levels])
    a, b = np.triu_indices(min(7, len(levels)), 2)
    a, b = a[(b - a) % 2 == 0], b[(b - a) % 2 == 0]
    consistent = replace(params, density_mode=DensityMode.NU_CONSISTENT)
    k = np.array([[weight_coefficient(consistent, lv)] for lv in levels[:7]])
    k = 0.5 * (k[a] + k[b])  # each pair's weight is 1 - k x**2

    def integrand(u):
        x = windows * u
        p = psi(levels, params, x)  # one Hermite pass for all levels
        pf = p * (1.0 - g * x * x) * windows  # dx = W_i du
        pairs = p[a] * p[b] * (1.0 - k * x[a] * x[a]) * windows[a]
        return np.concatenate([p * pf, p * pf * x * x, pairs]).T

    try:
        values, _ = integrate(integrand, 1.0, 1e-11)
    except (DomainError, NonConvergence):
        if len(levels) == 1:
            raise
        yield from _gated_integrals(levels[:-1], params)
        yield from _gated_integrals(levels[-1:], params)
        return
    yield levels, *np.split(values, [len(levels), 2 * len(levels)])


def run_validation(spec: SweepSpec) -> tuple[list[str], bool]:
    """Oracle suite over the sweep grid; (report lines, all-gates-passed)."""
    # each gate -> [largest error, levels or pairs taken]; np.maximum keeps
    # a nan, which fails its gate
    gates = {name: [0.0, 0] for name in _GATES}
    # CHECK domain and convergence lines; one positivity verdict per gamma > 0
    lines, positivity = [], []
    for gamma in spec.gamma_list:
        found = []  # (gate, error, levels taken), kept if a later step fails
        try:
            params = spec.params(gamma)
            # positivity before the residual scan, which can stop this
            # coupling: for g > 0, f = 1 - g x**2 and with it rho is
            # negative at every level for all |x| > 1/sqrt(g)
            if gamma > 0:
                positivity.append(f"CHECK density_positivity: SKIPPED "
                                  f"gamma={gamma:g} (no level checked)")
                # g underflows to 0 only at a subnormal gamma
                g = weight_coefficient(params, eigenvalue(params, spec.n_min))
                positivity[-1] = ("CHECK density_positivity: FAILED "
                                  f"gamma={gamma:g}: rho < 0 for |x| > "
                                  f"{1 / math.sqrt(g) if g else math.inf:.4g}")
            # the residual at every level of the range, in one array pass,
            # relative to its largest term: E**2 - (n+1/2)**2 gamma E cancels
            # at a huge gamma > 0, and E**2 may overflow there, giving nan
            ns = np.arange(spec.n_min, spec.n_max + 1)
            energies = _energies(params, ns)
            with np.errstate(over="ignore", invalid="ignore"):
                err = abs(residual(params, ns, energies)) / np.maximum(
                    (ns + 0.5) ** 2, energies ** 2)
            # fmax skips a level whose residual overflows to nan, and so
            # does the count of levels checked
            found.append(("residual", np.fmax.reduce(err, initial=0.0),
                          np.count_nonzero(~np.isnan(err))))
            # the levels the quadrature gates take, none for gamma > 0: the
            # first 13 and the top; orthogonality pairs the first seven
            levels = [eigenvalue(params, n) for n in
                      [*range(spec.n_min, min(spec.n_min + 13, spec.n_max)),
                       spec.n_max] if gamma <= 0]
            for part, norms, x2s, overlaps in _gated_integrals(levels, params):
                found += [("orthogonality", abs(q), 1) for q in overlaps]
                for level, norm, x2_quad in zip(part, norms, x2s):
                    found.append(("normalization", abs(norm - 1.0), 1))
                    x2_closed = moments(level, params)
                    # Python floats: inf / inf is nan without a warning
                    err = abs(float(x2_quad) - x2_closed) / max(1.0, x2_closed)
                    found.append(("moment_closed_form", err, 1))
                    found.append(("cramer_rao_bound",
                                  1.0 - cramer_rao(level, params), 1))
        except (DomainError, NonConvergence) as exc:
            check = "domain" if isinstance(exc, DomainError) else "convergence"
            lines.append(f"CHECK {check}: FAILED gamma={gamma:g}: {exc}")
        for name, err, taken in found:
            gates[name] = [np.maximum(gates[name][0], err),
                           gates[name][1] + taken]
    # each line so far is a failure, and so is each coupling gamma > 0
    ok = not lines and not positivity and all(
        gates[name][0] < tol for name, tol in _GATES.items())
    for name, tol in _GATES.items():
        err, taken = gates[name]
        lines.append(f"CHECK {name}: max_err={err:.3e} tol={tol:.0e} "
                     f"{'PASS' if err < tol else 'FAILED'}" if taken else
                     f"CHECK {name}: SKIPPED (no level checked)")
    return [*lines, *(positivity or ["CHECK density_positivity: PASS"])], ok


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
    if not math.isfinite(stop - start):
        # also before linspace, which warns where the span overflows
        raise argparse.ArgumentTypeError(
            f"grid span stop - start overflows the float range, got {text!r}")
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


# built by the first main call, not at import; a build takes 0.19-0.28 ms
@functools.cache
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
    parser.add_argument("--density-mode", choices=_DENSITY_MODES)
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
