"""The benchmark's workloads: what one repetition runs and how it is checked.

Every repetition runs in a fresh interpreter (see child.py), because every
user of the CLI pays for cold caches (`build_unramified`, `honda_log`,
`honda_exp`, `w_expansion`, the `TowerDesc` tables).

- `full_grid`: `normtower verify` on the shipped `configs/full_grid.json`
  (p=3, d in {1,2,4}, n<=3, N=6, every check, 268 records). Galois-orbit
  lattices and int64 SNF dominate.
- `p5`: `normtower verify` on `perfbench/configs/p5.json`, the shipped
  `configs/p5.json` restricted to d=2 so that one repetition fits a run
  (38 records). `coinvariant_rank` dominates through `groupring.omega_family`
  and `poly_mul` on degree-3125 integer polynomials; no SNF or lattice work
  of note.
- `point_series`: the series route of `scripts/explore_point_system.py`,
  called directly: `series_bundle(ss3, d=1, n, D, target)` at
  (n=0, D=40, target=4) and (n=1, D=60, target=3), then `local_point_direct`
  and `torsion_probe(trials=4, seed=S)`. Big-integer series arithmetic; no
  SNF and no lattices.

The CLI tables do not depend on the seed while every check passes (the
`kernel_freeness` row reads "0 of <trials>"), so one reference digest serves
every seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

CLI_CONFIGS = {
    "full_grid": "configs/full_grid.json",
    "p5": "perfbench/configs/p5.json",
}
WORKLOADS = (*CLI_CONFIGS, "point_series")

# (level n, series degree D, bundle target digits, point target digits)
POINT_CASES = ((0, 40, 4, 3), (1, 60, 3, 1))
POINT_CONDITIONS = ("effective_prec", "crosscheck", "probe", "forward_integral",
                    "backward_integral", "roundtrip_identity")
PROBE_TRIALS = 4

TABLES = ("table.csv", "table.json")


def reference() -> dict:
    """Committed table digests and row counts of the CLI workloads."""
    return json.loads((BENCH_DIR / "reference.json").read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def table_summary(out_dir: Path) -> dict:
    """Digests of the emitted tables and the record counts of table.json."""
    rows = json.loads((out_dir / "table.json").read_text())["rows"]
    return {
        "digests": {name: sha256(out_dir / name) for name in TABLES},
        "records": len(rows),
        "records_failed": sum(1 for r in rows if r["pass"] != "true"),
    }


def checks_per_rep(workload: str, ref: dict) -> int:
    """Checks one repetition attempts: the exit code, plus every record and
    both table digests (CLI) or every point-series condition."""
    if workload in CLI_CONFIGS:
        return 1 + ref[workload]["records"] + len(TABLES)
    return 1 + len(POINT_CASES) * len(POINT_CONDITIONS)


def failed_checks(workload: str, ref: dict, result: dict | None) -> int:
    """Checks of one repetition that failed. A repetition that crashed, or
    left no tables or a different number of records, fails every check."""
    total = checks_per_rep(workload, ref)
    if result is None:
        return total
    bad_exit = int(result["rc"] != 0)
    if workload in CLI_CONFIGS:
        want = ref[workload]
        tables = result.get("tables")
        if tables is None or tables["records"] != want["records"]:
            return total
        bad_digests = sum(tables["digests"][k] != want["digests"][k] for k in TABLES)
        return bad_exit + tables["records_failed"] + bad_digests
    cases = result.get("conditions")
    if cases is None or len(cases) != len(POINT_CASES):
        return total
    return bad_exit + sum(not case.get(c, False) for case in cases for c in POINT_CONDITIONS)
