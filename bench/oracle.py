"""Independent checks of the CSVs a workload writes.

Nothing here calls edho: eigenvalues come from the characteristic equation,
Hermite functions from a recurrence with a running exponent, and the
Fisher and Shannon integrals from ``scipy.integrate.quad`` split at the
zeros of H_n (eigenvalues of the Jacobi matrix).  Every row gets the cheap
checks; a seed-chosen sample of rows gets the quadrature ones.

``check`` returns (rows checked, rows failed, notes).  A row fails if it
carries an error, is missing or extra, or disagrees with the oracle.
"""

from __future__ import annotations

import csv
import math
import random
import warnings

import numpy as np

# tolerances: each sits above what the program's own arithmetic promises
RESIDUAL_TOL = 1e-10      # |E^2 - s (gamma E^nu + 1)| / s, as `validate`
ROUND_TOL = 1e-14         # values one or two roundings from a closed form
FISHER_TOL = 1e-10        # the program integrates to rel_tol 1e-12
SHANNON_TOL = 1e-9        # the program integrates to rel_tol 1e-10
THERMO_TOL = 1e-11
DENSITY_TOL = (1e-10, 1e-12)   # (relative, absolute)
EPS_SAT = 1e-6            # the CLI default the workloads use
QUAD_SAMPLES = 3          # most rows per sweep checked by quadrature
QUAD_REL = 1e-12          # quad's own target, below every tolerance above


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _grid(text):
    start, stop, count = text.split(":")
    return np.linspace(float(start), float(stop), int(count))


# -- independent physics ----------------------------------------------------


def energies(gamma, nu, ns):
    """Positive root of E^2 - s gamma E^nu - s = 0 with s = (n + 1/2)^2."""
    s = (np.asarray(ns, dtype=float) + 0.5) ** 2
    if nu == 1:
        return 2.0 * s / (np.sqrt(s * s * gamma * gamma + 4.0 * s) - s * gamma)
    return np.sqrt(s / (1.0 - s * gamma))


class Level:
    """psi_n normalized under the modified product, with f = 1 - (gamma/2) x^2."""

    def __init__(self, gamma, nu, n):
        self.n, self.g = n, 0.5 * gamma
        self.energy = float(energies(gamma, nu, n))
        self.lam = self.energy / (n + 0.5)
        self.a = math.sqrt(self.lam)
        brace = 1.0 - self.g * (2 * n + 1) / (2.0 * self.lam)
        self.amp = math.sqrt(self.a / brace)
        self.second_moment = ((n + 0.5) / self.lam - 0.75 * self.g
                              * (2.0 * n * n + 2.0 * n + 1.0)
                              / self.lam ** 2) / brace
        k = np.arange(n)
        self._c1 = np.sqrt(2.0 / (k + 1)).tolist()
        self._c2 = np.sqrt(k / (k + 1)).tolist()

    def hermite(self, y):
        """(h_n(y), h_{n-1}(y)) for scalar y, rescaled to avoid underflow."""
        h, h_prev, log_scale = math.pi ** -0.25, 0.0, -0.5 * y * y
        for c1, c2 in zip(self._c1, self._c2):
            h, h_prev = y * c1 * h - c2 * h_prev, h
            if abs(h) > 1e150:
                h, h_prev, log_scale = h * 1e-150, h_prev * 1e-150, \
                    log_scale + 150.0 * math.log(10.0)
        big = max(abs(h), abs(h_prev))
        if big == 0.0:
            return 0.0, 0.0
        factor = math.exp(log_scale + math.log(big))
        return h / big * factor, h_prev / big * factor

    def density(self, x):
        hn, _ = self.hermite(self.a * x)
        return self.amp * self.amp * hn * hn * (1.0 - self.g * x * x)

    def fisher_integrand(self, x):
        """rho'^2 / rho = (2 psi' f + psi f')^2 / f."""
        y = self.a * x
        hn, hn1 = self.hermite(y)
        p = self.amp * hn
        dp = self.amp * self.a * (math.sqrt(2.0 * self.n) * hn1 - y * hn)
        f = 1.0 - self.g * x * x
        return (2.0 * dp * f - 2.0 * self.g * x * p) ** 2 / f

    def shannon_integrand(self, x):
        rho = self.density(x)
        return -rho * math.log(rho) if rho > 1e-300 else 0.0

    def second_moment_integrand(self, x):
        return x * x * self.density(x)

    def quad(self, integrand):
        """Integral over the real line, split at the zeros of H_n."""
        from scipy.integrate import quad

        n = self.n
        off = np.sqrt(np.arange(1, n) / 2.0)
        jacobi = np.diag(off, 1) + np.diag(off, -1)
        zeros = np.linalg.eigvalsh(jacobi) if n > 1 else np.zeros(n)
        edge = math.sqrt(2 * n + 1) + 12.0
        cuts = np.concatenate(([-edge], zeros if n else [0.0], [edge]))
        cuts = cuts / self.a
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning means no answer
            parts = [quad(integrand, lo, hi, epsabs=1e-15, epsrel=QUAD_REL,
                          limit=200)[0] for lo, hi in zip(cuts, cuts[1:])]
        return math.fsum(parts)


def _close(value, ref, rel, abs_tol=0.0):
    return abs(value - ref) <= rel * abs(ref) + abs_tol


# -- per-output checks ------------------------------------------------------


class _Rows:
    """The rows of one CSV: error rows and grid mismatches already failed."""

    def __init__(self, path, keys, expected):
        header, rows = read_csv(path)
        self.col = {name: i for i, name in enumerate(header)}
        self.failed = set()
        self.notes = []
        self.total = max(len(rows), len(expected))
        for i in range(self.total):
            if i >= len(rows) or i >= len(expected):
                self.failed.add(i)
                continue
            row = rows[i]
            if row[self.col["error"]]:
                self.fail(i, f"error row: {row[self.col['error']]}")
            got = tuple(float(row[self.col[k]]) for k in keys)
            if got != expected[i]:
                self.fail(i, f"row {i} is {got}, expected {expected[i]}")
        self.rows = rows[:len(expected)]

    def fail(self, i, note):
        if len(self.notes) < 5:
            self.notes.append(note)
        self.failed.add(i)

    def floats(self, name):
        values = [r[self.col[name]] for r in self.rows]
        return np.array([float(v) if v else math.nan for v in values])

    def check_all(self, ok, what):
        for i in np.flatnonzero(~np.asarray(ok, dtype=bool)):
            self.fail(int(i), f"row {i}: {what}")


def _levels(sweep):
    return [(g, n) for g in sweep.gammas
            for n in range(sweep.n_min, sweep.n_max + 1)]


def _spectrum(sweep, path, seed):
    grid = _levels(sweep)
    r = _Rows(path, ("gamma", "n"), [(g, float(n)) for g, n in grid])
    gamma, n = r.floats("gamma"), r.floats("n")
    e, lam, limit = r.floats("energy"), r.floats("lambda"), \
        r.floats("saturation_limit")
    s = (n + 0.5) ** 2
    with np.errstate(invalid="ignore"):
        res = np.abs(e * e - s * gamma * e ** sweep.nu - s) / s
        r.check_all(res <= RESIDUAL_TOL, "characteristic residual")
        r.check_all(np.abs(lam - e / (n + 0.5)) <= ROUND_TOL * lam, "lambda")
        want = 1.0 / np.abs(gamma) ** (1.0 / sweep.nu)
        r.check_all((gamma == 0) | (np.abs(limit - want) <= ROUND_TOL * want),
                    "saturation limit")
        r.check_all((gamma == 0) | ((0 < e) & (e < limit)), "below the limit")
    return r


def _thermo(sweep, path, seed):
    rng = random.Random(f"thermo:{seed}:{sweep}")
    betas = _grid(sweep.beta_grid)
    r = _Rows(path, ("gamma", "beta"),
              [(g, float(b)) for g in sweep.gammas for b in betas])
    per_gamma = len(betas)
    for j, gamma in enumerate(sweep.gammas):
        rows = range(j * per_gamma, (j + 1) * per_gamma)
        n_used = {r.rows[i][r.col["N_used"]] for i in rows if i < len(r.rows)}
        if len(n_used) != 1 or "" in n_used:
            for i in rows:
                r.fail(i, f"no single N_used at gamma={gamma}")
            continue
        n_sat = int(n_used.pop())
        limit = 1.0 / abs(gamma) ** (1.0 / sweep.nu)
        levels = energies(gamma, sweep.nu, np.arange(n_sat + 1))
        dev = (limit - levels) / limit
        if not (dev[-1] < EPS_SAT and (n_sat == 0 or dev[-2] >= EPS_SAT)):
            for i in rows:
                r.fail(i, f"N_used={n_sat} is not the saturation index")
            continue
        spectrum = np.append(levels, limit).astype(np.longdouble)
        for i in rng.sample(list(rows), 4):
            row = r.rows[i]
            beta = np.longdouble(row[r.col["beta"]])
            w = np.exp(-beta * (spectrum - spectrum[0]))
            z = np.exp(-beta * spectrum[0]) * w.sum()
            u = (spectrum * w).sum() / w.sum()
            var = ((spectrum - u) ** 2 * w).sum() / w.sum()
            got = [float(row[r.col[k]]) for k in ("Z", "U", "Cv")]
            e2 = float((spectrum ** 2 * w).sum() / w.sum())
            # Cv = beta^2 (<E^2> - U^2) cancels: allow a few ulps of beta^2 <E^2>
            cv_abs = 8 * np.finfo(float).eps * float(beta) ** 2 * e2
            if not (_close(got[0], float(z), THERMO_TOL)
                    and _close(got[1], float(u), THERMO_TOL)
                    and _close(got[2], float(beta * beta * var), THERMO_TOL,
                               cv_abs)):
                r.fail(i, f"thermo row {i}: {got} vs "
                          f"{[float(z), float(u), float(beta * beta * var)]}")
    return r


def _density(sweep, path, seed):
    rng = random.Random(f"density:{seed}:{sweep}")
    xs = np.linspace(-6.0, 6.0, 241)
    grid = [(g, float(n), float(x)) for g, n in _levels(sweep) for x in xs]
    r = _Rows(path, ("gamma", "n", "x"), grid)
    rho = r.floats("rho")
    r.check_all(np.isfinite(rho) & (rho >= 0), "density negative or not finite")
    by_level = {}
    for i in sorted(rng.sample(range(len(r.rows)), min(300, len(r.rows)))):
        by_level.setdefault(grid[i][:2], []).append(i)
    rel, abs_tol = DENSITY_TOL
    for (gamma, n), idx in by_level.items():
        level = Level(gamma, sweep.nu, int(n))
        for i in idx:
            want = level.density(grid[i][2])
            if not _close(rho[i], want, rel, abs_tol):
                r.fail(i, f"density row {i}: {rho[i]!r} vs {want!r}")
    return r


def _perey(sweep, path, seed):
    xs = _grid(sweep.x_grid)
    r = _Rows(path, ("gamma", "x"),
              [(g, float(x)) for g in sweep.gammas for x in xs])
    gamma, x, perey = r.floats("gamma"), r.floats("x"), r.floats("perey")
    want = np.sqrt(1.0 - 0.5 * gamma * x * x)
    r.check_all(np.abs(perey - want) <= ROUND_TOL * want, "perey closed form")
    return r


def _fisher(sweep, path, seed):
    grid = _levels(sweep)
    r = _Rows(path, ("gamma", "n"), [(g, float(n)) for g, n in grid])
    numeric = r.floats("fisher_numeric")
    r.check_all(np.array([row[r.col["fisher"]] == row[r.col["fisher_numeric"]]
                          for row in r.rows]), "fisher column is not numeric")
    r.check_all(np.isfinite(numeric) & (numeric > 0), "fisher not positive")
    for i, (gamma, n) in enumerate(grid[:len(r.rows)]):
        if gamma == 0:
            exact = 2.0 * (2 * n + 1)
            closed = float(r.rows[i][r.col["fisher_closed"]])
            if not (_close(numeric[i], exact, FISHER_TOL)
                    and _close(closed, exact, ROUND_TOL)):
                r.fail(i, f"gamma=0 fisher row {i}: {numeric[i]!r}, "
                          f"{closed!r} vs {exact}")
    _quad_sample(sweep, r, grid, {"fisher": numeric}, seed)
    return r


def _cramer_rao(sweep, path, seed):
    grid = _levels(sweep)
    r = _Rows(path, ("gamma", "n"), [(g, float(n)) for g, n in grid])
    fisher, var, product = (r.floats(k) for k in ("fisher", "variance",
                                                  "product"))
    gamma, n = r.floats("gamma"), r.floats("n")
    r.check_all(np.abs(fisher * var - product) <= ROUND_TOL * product,
                "product is not fisher * variance")
    r.check_all(product >= 1.0 - 1e-10, "Cramer-Rao bound")
    # gamma = 0: Fisher 2(2n+1) times variance n+1/2 is exactly (2n+1)^2
    r.check_all((gamma != 0) | _close(product, (2 * n + 1) ** 2, FISHER_TOL),
                "gamma=0 product is not (2n+1)^2")
    # the paper's closed form of <x^2> on every row, quadrature on a sample
    second = np.array([Level(g, sweep.nu, n).second_moment
                       for g, n in grid[:len(r.rows)]])
    r.check_all(np.abs(var - second) <= 1e-12 * second, "variance closed form")
    _quad_sample(sweep, r, grid, {"fisher": fisher, "second_moment": var},
                 seed)
    return r


def _shannon(sweep, path, seed):
    grid = _levels(sweep)
    r = _Rows(path, ("gamma", "n"), [(g, float(n)) for g, n in grid])
    values = r.floats("shannon")
    r.check_all(np.isfinite(values), "shannon not finite")
    _quad_sample(sweep, r, grid, {"shannon": values}, seed)
    return r


QUAD_TOL = {"fisher": FISHER_TOL, "shannon": SHANNON_TOL,
            "second_moment": FISHER_TOL}


def quad_rows(sweep, seed, total):
    """The rows of a ``total``-row CSV that ``sweep`` checks by quadrature."""
    rng = random.Random(f"quad:{seed}:{sweep}")
    return sorted(rng.sample(range(total), min(QUAD_SAMPLES,
                                               max(1, total // 4))))


def _quad_sample(sweep, r, grid, columns, seed):
    """Compare each column of ``columns`` with quad on the sampled rows.

    A row where quad warns fails too: the oracle could not check it.
    """
    from scipy.integrate import IntegrationWarning

    for i in quad_rows(sweep, seed, len(r.rows)):
        gamma, n = grid[i]
        level = Level(gamma, sweep.nu, n)
        for kind, values in columns.items():
            try:
                want = level.quad(getattr(level, kind + "_integrand"))
            except IntegrationWarning as exc:
                r.fail(i, f"{kind} row {i}: quad did not converge: {exc}")
                continue
            if not _close(values[i], want, QUAD_TOL[kind]):
                r.fail(i, f"{kind} row {i} (gamma={gamma}, n={n}): "
                          f"{values[i]!r} vs quad {want!r}")


CHECKS = {"spectrum": _spectrum, "thermo": _thermo, "density": _density,
          "perey": _perey, "fisher": _fisher, "cramer-rao": _cramer_rao,
          "shannon": _shannon}


def check(sweep, out_dir, seed):
    """Check the CSV that ``sweep`` wrote into ``out_dir``.

    Returns (rows checked, rows failed, notes).
    """
    name = sweep.command.replace("-", "_")
    try:
        r = CHECKS[sweep.command](sweep, out_dir / f"{name}.csv", seed)
    except (OSError, LookupError, ValueError) as exc:
        # missing file, missing column or unparsable field
        return 1, 1, [f"unreadable {name}.csv: {type(exc).__name__}: {exc}"]
    return r.total, len(r.failed), r.notes
