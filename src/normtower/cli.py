"""Configuration-driven verification campaigns with machine-readable reports.

  normtower verify --config cfg.json [--checks trace,ranks,...] [--seed S] [--out DIR]
  normtower table --report DIR/report.json --format csv|json|md

Exit codes: 0 all checks pass, 1 check failure, 2 config or report error,
3 precision exhausted. Emitted tables are byte-stable for equal config and
seed (run times are kept in the report file only, never in the tables).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass
from itertools import product
from pathlib import Path
from time import perf_counter

from . import honda
from .curve import CurveParams, curve_from_preset
from .lambda_modules import (
    closed_form_coinvariant_torsion,
    coinvariant_rank_law,
    coinvariant_torsion,
    kernel_freeness_property,
    supplementary_structure_check,
)
from .lattice import (
    check_exact_sequence,
    cyclicity_check,
    expected_norm_rank,
    expected_plusminus_rank,
    norm_subgroup_lattice,
    plusminus_lattice,
    with_precision_retry,
)
from .padic import PrecisionExhausted
from .points import verify_trace_relations
from .series import TruncSeries
from .snf import HARNESS_PRECISION, MARGIN, MODULE_PRECISION, at_rising_precision
from .tower import build_tower

SCHEMA_VERSION = 1
CSV_COLUMNS = ("p", "d", "n", "chi", "sign", "check", "expected", "measured",
               "residual_val", "pass")


class ConfigError(ValueError):
    pass


def _integer(name: str, value) -> int:
    """value, when it is a JSON integer (a bool is not one)."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


@dataclass
class CampaignConfig:
    p_list: list[int]
    d_list: list[int]
    n_max: int
    precision: int
    curves: dict[int, CurveParams]
    checks: list[str]
    seed: int = 0
    out: str = "reports"
    lambda_trials: int = 40

    @staticmethod
    def from_json(doc: dict, checks_override=None, seed_override=None,
                  out_override=None) -> "CampaignConfig":
        try:
            for name in ("p", "d"):
                if not isinstance(doc[name], list):
                    raise ConfigError(f"{name} must be a list of integers, got {doc[name]!r}")
            p_list = [_integer("p", x) for x in doc["p"]]
            d_list = [_integer("d", x) for x in doc["d"]]
            if not p_list or not d_list:
                raise ConfigError("empty p or d list")
            n_max = _integer("n_max", doc.get("n_max", 2))
            precision = _integer("precision", doc.get("precision", 6))
            lambda_trials = _integer("lambda_trials", doc.get("lambda_trials", 40))
            # at N <= MARGIN every nonzero divisor lies inside the margin
            for name, value, low in (("precision", precision, MARGIN + 1), ("d", min(d_list), 1),
                                     ("n_max", n_max, 0), ("lambda_trials", lambda_trials, 1)):
                if value < low:
                    raise ConfigError(f"{name} must be >= {low}, got {value}")
            curves = {}
            spec = doc.get("curve", "ss3")
            for p in p_list:
                if isinstance(spec, str):
                    curves[p] = curve_from_preset(spec, p)
                elif isinstance(spec, dict) and all(k.isdigit() for k in spec):
                    curves[p] = curve_from_preset(spec[str(p)], p)
                elif isinstance(spec, dict):
                    curves[p] = CurveParams(p=p, **{k: int(v) for k, v in spec.items()})
                else:
                    raise ConfigError(f"bad curve spec {spec!r}")
            checks = checks_override or doc.get("checks", ["all"])
            if not (isinstance(checks, list) and checks
                    and all(isinstance(c, str) for c in checks)):
                raise ConfigError(f"checks must be a non-empty list of check names, "
                                  f"got {checks!r}")
            checks = list(ALL_CHECKS) if "all" in checks else list(checks)
            bad = [c for c in checks if c not in ALL_CHECKS]
            if bad:
                raise ConfigError(f"unknown checks: {bad}")
            return CampaignConfig(
                p_list=p_list, d_list=d_list, n_max=n_max, precision=precision,
                curves=curves, checks=checks,
                seed=int(seed_override if seed_override is not None else doc.get("seed", 0)),
                out=str(out_override or doc.get("out", "reports")),
                lambda_trials=lambda_trials,
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(str(e)) from e


@dataclass
class Record:
    p: int
    d: int
    n: int | str
    check: str
    expected: str
    measured: str
    ok: bool
    chi: str = "-"
    sign: str = "-"
    residual_val: str = "-"
    rule: str = ""
    runtime: float = 0.0

    def row(self) -> list[str]:
        return [str(self.p), str(self.d), str(self.n), self.chi, self.sign,
                self.check, self.expected, self.measured, self.residual_val,
                "true" if self.ok else "false"]


def run_campaign(cfg: CampaignConfig) -> list[Record]:
    """The a_p gate, then each configured check in order; nothing runs behind
    a failed gate record. Checks yield untimed records: each record's runtime
    is the perf_counter time since the previous record (the first one's since
    the campaign started), so every second up to the last record is charged
    to exactly one record."""
    records: list[Record] = []
    last = perf_counter()
    for check in ("ap_gate", *cfg.checks):
        for rec in CHECKS[check](cfg):
            now = perf_counter()
            rec.runtime, last = now - last, now
            records.append(rec)
            if check == "ap_gate" and not rec.ok:
                return records
    return records


def _check_ap_gate(cfg: CampaignConfig):
    """The standing hypothesis a_p = 0, for every (p, curve) pair."""
    for p in cfg.p_list:
        curve = cfg.curves[p]
        count = curve.count_points()
        ap = curve.ap()
        yield Record(p=p, d=0, n="-", check="ap_gate", expected="0",
                     measured=str(ap), ok=ap == 0,
                     rule=f"p + 1 - #E(F_p) with #E(F_p) = {count}")


def _check_trace(cfg: CampaignConfig):
    for p in cfg.p_list:
        for d in cfg.d_list:
            tower = build_tower(p, d, cfg.n_max, cfg.precision)
            for rec in verify_trace_relations(tower):
                yield Record(p=p, d=d, n=rec.n, check="trace",
                             expected=f">= {rec.floor}",
                             measured=str(rec.residual_valuation),
                             residual_val=str(rec.residual_valuation),
                             ok=rec.ok, rule=rec.relation)


# the rank records' characters: the whole module, then indices of
# `TowerDesc.idempotents`, which each tower builds at its own precision
_RANK_CHARACTERS = (("full", None), ("triv", 0), ("nontriv", 1))


def _check_ranks(cfg: CampaignConfig):
    for p in cfg.p_list:
        for d in cfg.d_list:
            for n in range(-1, cfg.n_max + 1):
                for label, chi in _RANK_CHARACTERS:
                    exp = expected_norm_rank(p, d, n, None if chi is None else chi == 0)
                    got = with_precision_retry(
                        p, d, max(n, 0), cfg.precision,
                        lambda tw: norm_subgroup_lattice(tw, n, chi).rank())
                    yield Record(p=p, d=d, n=n, chi=label, sign="norm", check="rank",
                                 expected=str(exp), measured=str(got), ok=got == exp,
                                 rule="d(q_n+1) if n odd, trivial chi; d q_n otherwise")
                if n < 0:
                    continue
                for sign in "+-":
                    for label, chi in _RANK_CHARACTERS:
                        exp = expected_plusminus_rank(p, d, n, sign,
                                                      None if chi is None else chi == 0)
                        got = with_precision_retry(
                            p, d, n, cfg.precision,
                            lambda tw: plusminus_lattice(tw, n, sign, chi).rank())
                        yield Record(p=p, d=d, n=n, chi=label, sign=sign, check="rank",
                                     expected=str(exp), measured=str(got), ok=got == exp,
                                     rule="d q_n^+ / d q_n^- (+d for trivial chi)")
                rep = with_precision_retry(p, d, n, cfg.precision,
                                           lambda tw: check_exact_sequence(tw, n, None))
                yield Record(
                    p=p, d=d, n=n, chi="full", sign="norm", check="exact_sequence",
                    expected="split ranks", measured=json.dumps(
                        {k: rep[k] for k in ("rank_Cn", "rank_Cn_lower",
                                             "rank_intersection", "rank_sum")},
                        sort_keys=True),
                    ok=rep["ok"],
                    rule="intersection = level -1 lattice; sum = full lattice; rank additivity")


def _check_cyclicity(cfg: CampaignConfig):
    for p in cfg.p_list:
        for d in cfg.d_list:
            for n in range(0, cfg.n_max + 1):
                rep = with_precision_retry(p, d, n, cfg.precision,
                                           lambda tw: cyclicity_check(tw, n))
                yield Record(p=p, d=d, n=n, sign="norm", check="cyclicity",
                             expected=str(rep["expected_cyclic"]),
                             measured=str(rep["cyclic"]), ok=rep["ok"],
                             rule="not cyclic iff d = 0 (mod 4) and n even")


_CHARACTERS = ((True, "triv"), (False, "nontriv"))


def _check_torsion(cfg: CampaignConfig):
    N = max(cfg.precision, MODULE_PRECISION)
    for p, d, n, gap, sign, (triv, label) in product(
            cfg.p_list, cfg.d_list, range(0, min(cfg.n_max, 2) + 1), (2, 4), "+-",
            _CHARACTERS):
        m = n + gap
        got = at_rising_precision(lambda Nk: coinvariant_torsion(p, d, m, n, sign, triv, Nk), N)
        cf = sorted(closed_form_coinvariant_torsion(p, d, m, n, sign, triv))
        yield Record(p=p, d=d, n=n, chi=label, sign=sign, check="torsion",
                     expected=str(cf), measured=str(got), ok=got == cf,
                     rule=f"m={m}: cyclotomic factors above level n collapse to p")


def _check_lambda(cfg: CampaignConfig):
    N = max(cfg.precision, MODULE_PRECISION)
    for p in cfg.p_list:
        for d in cfg.d_list:
            for sign, (triv, label), n in product("+-", _CHARACTERS,
                                                  range(0, min(cfg.n_max, 2) + 1)):
                rep = at_rising_precision(
                    lambda Nk: coinvariant_rank_law(p, d, n, triv, sign, Nk), N)
                yield Record(p=p, d=d, n=n, chi=label, sign=sign,
                             check="coinvariant_rank",
                             expected=str(rep["expected"]), measured=str(rep["total"]),
                             ok=rep["ok"], rule="d p^n + delta (plus) / d p^n (minus)")
            rep = at_rising_precision(
                lambda Nk: supplementary_structure_check(d, True, p, Nk, "+"), N)
            yield Record(p=p, d=d, n="0-2", chi="triv", sign="+", check="structure_candidate",
                         expected="consistent at all tested levels", measured=str(rep["ok"]),
                         ok=rep["ok"], rule="free rank d plus delta X-killed lines")
        kf = kernel_freeness_property(cfg.lambda_trials, seed=cfg.seed, p=p,
                                      N=max(N, HARNESS_PRECISION))
        yield Record(
            p=p, d=0, n="-", check="kernel_freeness", expected="0 counterexamples",
            measured=f"{len(kf['counterexamples'])} of {kf['trials']}", ok=kf["ok"],
            rule="kernels of surjections free; cokernels of injections submodule-free")


def _check_series(cfg: CampaignConfig):
    D = 30
    for p in cfg.p_list:
        curve = cfg.curves[p]
        for d in sorted(set(cfg.d_list))[:2]:
            try:
                b = honda.series_bundle(curve, d, 0, D, cfg.precision)
            except PrecisionExhausted as e:
                yield Record(p=p, d=d, n=0, check="series", expected="integral isomorphism",
                             measured=str(e), ok=False, rule="series bundle")
                continue
            comp = b.curve_exp.compose(b.curve_log).canonical()
            ident = TruncSeries.identity(b.field, comp.deg, comp.prec)
            idok = all(not any(c) for c in (comp - ident).coeffs)
            rep = b.report
            ok = (idok and rep["forward_integral"] and rep["backward_integral"]
                  and rep["roundtrip_identity"])
            yield Record(
                p=p, d=d, n=0, check="series",
                expected="exp(log)=id; congruence; integral composites",
                measured=json.dumps({"exp_log_identity": idok, **{
                    k: rep[k] for k in ("forward_integral", "backward_integral",
                                        "roundtrip_identity")}}, sort_keys=True),
                residual_val=str(min(rep["forward_eff_prec"], rep["backward_eff_prec"])),
                ok=ok, rule="height-two isomorphism integrality")


# every check by name; the gate always runs first, and "all" runs the rest in
# this order
CHECKS = {"ap_gate": _check_ap_gate, "trace": _check_trace, "ranks": _check_ranks,
          "cyclicity": _check_cyclicity, "torsion": _check_torsion,
          "lambda": _check_lambda, "series": _check_series}
ALL_CHECKS = tuple(c for c in CHECKS if c != "ap_gate")


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def render_table(records: list[Record], fmt: str) -> str:
    """The table as csv, json or md text, exactly as written to table.<fmt>."""
    if fmt == "md":
        lines = ["| " + " | ".join(CSV_COLUMNS) + " |", "|" + "---|" * len(CSV_COLUMNS)]
        lines += ["| " + " | ".join(r.row()) + " |" for r in records]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        w.writerows(r.row() for r in records)
        return buf.getvalue()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "rows": [dict(zip(CSV_COLUMNS, r.row())) for r in records],
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def emit_tables(records: list[Record], out_dir: Path) -> dict[str, Path]:
    paths = {kind: out_dir / f"table.{kind}" for kind in ("csv", "json")}
    for kind, path in paths.items():
        path.write_text(render_table(records, kind))
    return paths


def write_report(records: list[Record], cfg: CampaignConfig, out_dir: Path) -> Path:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "p": cfg.p_list, "d": cfg.d_list, "n_max": cfg.n_max,
            "precision": cfg.precision, "checks": cfg.checks, "seed": cfg.seed,
        },
        "records": [asdict(r) for r in records],
        "all_pass": all(r.ok for r in records),
    }
    path = out_dir / "report.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return path


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    try:
        doc = json.loads(Path(args.config).read_text())
        checks = args.checks.split(",") if args.checks else None
        cfg = CampaignConfig.from_json(doc, checks_override=checks,
                                       seed_override=args.seed,
                                       out_override=args.out)
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)  # a bad path fails before the campaign
    except (OSError, json.JSONDecodeError, ConfigError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        records = run_campaign(cfg)
    except PrecisionExhausted as e:
        print(f"precision exhausted: {e}", file=sys.stderr)
        return 3
    write_report(records, cfg, out_dir)
    emit_tables(records, out_dir)
    n_fail = sum(1 for r in records if not r.ok)
    for r in records:
        status = "pass" if r.ok else "FAIL"
        print(f"[{status}] p={r.p} d={r.d} n={r.n} chi={r.chi} sign={r.sign} "
              f"{r.check}: expected {r.expected}, measured {r.measured}")
    print(f"{len(records) - n_fail}/{len(records)} checks passed; report in {out_dir}/")
    return 0 if n_fail == 0 else 1


def cmd_table(args) -> int:
    try:
        doc = json.loads(Path(args.report).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"report error: {e}", file=sys.stderr)
        return 2
    try:
        records = [Record(**rec) for rec in doc["records"]]
    except (KeyError, TypeError) as e:
        print(f"report error: {args.report} has no well-formed records list ({e!r})",
              file=sys.stderr)
        return 2
    print(render_table(records, args.format), end="")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="normtower")
    sub = ap.add_subparsers(dest="cmd", required=True)
    v = sub.add_parser("verify", help="run a verification campaign")
    v.add_argument("--config", required=True)
    v.add_argument("--checks", default=None,
                   help="comma-separated subset of " + ",".join(ALL_CHECKS))
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify)
    t = sub.add_parser("table", help="re-emit a report as csv/json/md")
    t.add_argument("--report", required=True)
    t.add_argument("--format", choices=("csv", "json", "md"), default="md")
    t.set_defaults(fn=cmd_table)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
