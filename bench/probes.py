"""Known-defect probes, run untimed in a process of their own.

Each probe exercises a defect listed in the ROADMAP through the layer that
its workload uses, so a later fix shows as a probe that passes:

- entropy (wavefunction): the density at n = 1000 must integrate to 1; the
  upward Hermite recurrence underflows in the classically allowed region.
- tables (thermo): ``thermo`` at the README's gamma = -1e-5 must write rows
  without errors; the saturation search stops at its 1e6 cap.

Usage: python3 probes.py WORKLOAD WORK_DIR  (edho importable, e.g. via
PYTHONPATH=src).  Prints one JSON object: {"attempted", "failed", "probes"}.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

NORM_TOL = 1e-8


def _norm_probe(gamma):
    from edho import ModelParams, density, eigenvalue

    n = 1000
    params = ModelParams(gamma=gamma, nu=1)
    level = eigenvalue(params, n)
    half = (math.sqrt(2 * n + 1) + 12.0) / math.sqrt(level.lam)
    x = np.linspace(-half, half, 200001)
    norm = float(np.trapezoid(density(level, params, x), x))
    return abs(norm - 1.0) <= NORM_TOL, norm


def _thermo_probe(work_dir):
    from edho.cli import main

    out = Path(work_dir) / "probe-thermo"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["thermo", "--nu", "1", "--gamma=-1e-05",
                   "--beta-grid", "0.1:20:5", "--out", str(out)])
    with (out / "thermo.csv").open(newline="") as fh:
        errors = [row["error"] for row in csv.DictReader(fh) if row["error"]]
    return rc == 0 and not errors, errors[0] if errors else rc


PROBES = {
    "entropy": {"density_norm n=1000 gamma=0": lambda _: _norm_probe(0.0),
                "density_norm n=1000 gamma=-0.5": lambda _: _norm_probe(-0.5)},
    "tables": {"thermo gamma=-1e-05": _thermo_probe},
}


def run(workload, work_dir):
    probes = []
    for name, probe in PROBES.get(workload, {}).items():
        try:
            ok, value = probe(work_dir)
        except Exception as exc:  # a probe that crashes has failed
            ok, value = False, f"{type(exc).__name__}: {exc}"
        probes.append({"name": name, "ok": ok, "value": value})
    return {"attempted": len(probes),
            "failed": sum(not p["ok"] for p in probes), "probes": probes}


if __name__ == "__main__":
    print(json.dumps(run(sys.argv[1], sys.argv[2])))
