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
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .curve import CurveParams, curve_from_preset
from .groupring import idempotents
from .lambda_modules import (
    closed_form_coinvariant_torsion,
    coinvariant_rank_law,
    coinvariants,
    kernel_freeness_property,
    module_report,
    present_minus,
    present_plus,
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
from .snf import HARNESS_PRECISION, MODULE_PRECISION
from .tower import build_tower

SCHEMA_VERSION = 1
ALL_CHECKS = ("trace", "ranks", "cyclicity", "torsion", "lambda", "series")
CSV_COLUMNS = ("p", "d", "n", "chi", "sign", "check", "expected", "measured",
               "residual_val", "pass")


class ConfigError(ValueError):
    pass


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
            p_list = [int(x) for x in doc["p"]]
            d_list = [int(x) for x in doc["d"]]
            if not p_list or not d_list:
                raise ConfigError("empty p or d list")
            n_max = int(doc.get("n_max", 2))
            precision = int(doc.get("precision", 6))
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
            checks = list(checks_override or doc.get("checks", ["all"]))
            if "all" in checks:
                checks = list(ALL_CHECKS)
            bad = [c for c in checks if c not in ALL_CHECKS]
            if bad:
                raise ConfigError(f"unknown checks: {bad}")
            return CampaignConfig(
                p_list=p_list, d_list=d_list, n_max=n_max, precision=precision,
                curves=curves, checks=checks,
                seed=int(seed_override if seed_override is not None else doc.get("seed", 0)),
                out=str(out_override or doc.get("out", "reports")),
                lambda_trials=int(doc.get("lambda_trials", 40)),
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
    chi: str
    sign: str
    check: str
    expected: str
    measured: str
    residual_val: str
    ok: bool
    rule: str = ""
    runtime: float = 0.0

    def row(self) -> list[str]:
        return [str(self.p), str(self.d), str(self.n), self.chi, self.sign,
                self.check, self.expected, self.measured, self.residual_val,
                "true" if self.ok else "false"]


def _chi_variants(p: int, N: int):
    eps = idempotents(p, N)
    out = [("full", None)]
    out.append(("triv", eps[0]))
    if len(eps) > 1:
        out.append(("nontriv", eps[1]))
    return out


def run_campaign(cfg: CampaignConfig) -> list[Record]:
    records: list[Record] = []

    def add(rec: Record):
        records.append(rec)

    # the standing hypothesis gate runs for every (p, curve) pair up front
    for p in cfg.p_list:
        t0 = time.time()
        curve = cfg.curves[p]
        count = curve.count_points()
        ok = curve.ap() == 0
        add(Record(p=p, d=0, n="-", chi="-", sign="-", check="ap_gate",
                   expected="0", measured=str(curve.ap()),
                   residual_val="-", ok=ok,
                   rule=f"p + 1 - #E(F_p) with #E(F_p) = {count}",
                   runtime=time.time() - t0))
        if not ok:
            return records

    for check in cfg.checks:
        fn = globals()[f"_check_{check}"]
        records.extend(fn(cfg))
    return records


def _check_trace(cfg: CampaignConfig) -> list[Record]:
    out = []
    for p in cfg.p_list:
        for d in cfg.d_list:
            t0 = time.time()
            tower = build_tower(p, d, cfg.n_max, cfg.precision)
            for rec in verify_trace_relations(tower):
                out.append(Record(
                    p=p, d=d, n=rec.n, chi="-", sign="-", check="trace",
                    expected=f">= {rec.floor}",
                    measured=str(rec.residual_valuation),
                    residual_val=str(rec.residual_valuation),
                    ok=rec.ok, rule=rec.relation, runtime=time.time() - t0))
                t0 = time.time()
    return out


def _check_ranks(cfg: CampaignConfig) -> list[Record]:
    out = []
    for p in cfg.p_list:
        chis = _chi_variants(p, cfg.precision)
        for d in cfg.d_list:
            for n in range(-1, cfg.n_max + 1):
                for label, chi in chis:
                    t0 = time.time()
                    triv = None if chi is None else chi.trivial
                    exp = expected_norm_rank(p, d, n, triv)

                    def rank_norm(tw, n=n, chi=chi):
                        return norm_subgroup_lattice(tw, n, chi).rank()

                    got = with_precision_retry(p, d, max(n, 0), cfg.precision, rank_norm)
                    out.append(Record(
                        p=p, d=d, n=n, chi=label, sign="norm", check="rank",
                        expected=str(exp), measured=str(got), residual_val="-",
                        ok=got == exp,
                        rule="d(q_n+1) if n odd, trivial chi; d q_n otherwise",
                        runtime=time.time() - t0))
                if n < 0:
                    continue
                for sign in "+-":
                    for label, chi in chis:
                        t0 = time.time()
                        triv = None if chi is None else chi.trivial
                        exp = expected_plusminus_rank(p, d, n, sign, triv)

                        def rank_pm(tw, n=n, sign=sign, chi=chi):
                            return plusminus_lattice(tw, n, sign, chi).rank()

                        got = with_precision_retry(p, d, n, cfg.precision, rank_pm)
                        out.append(Record(
                            p=p, d=d, n=n, chi=label, sign=sign, check="rank",
                            expected=str(exp), measured=str(got), residual_val="-",
                            ok=got == exp,
                            rule="d q_n^+ / d q_n^- (+d for trivial chi)",
                            runtime=time.time() - t0))
                t0 = time.time()

                def exact_seq(tw, n=n):
                    return check_exact_sequence(tw, n, None)

                rep = with_precision_retry(p, d, n, cfg.precision, exact_seq)
                out.append(Record(
                    p=p, d=d, n=n, chi="full", sign="norm", check="exact_sequence",
                    expected="split ranks", measured=json.dumps(
                        {k: rep[k] for k in ("rank_Cn", "rank_Cn_lower",
                                             "rank_intersection", "rank_sum")},
                        sort_keys=True),
                    residual_val="-", ok=rep["ok"],
                    rule="intersection = level -1 lattice; sum = full lattice; rank additivity",
                    runtime=time.time() - t0))
    return out


def _check_cyclicity(cfg: CampaignConfig) -> list[Record]:
    out = []
    for p in cfg.p_list:
        for d in cfg.d_list:
            for n in range(0, cfg.n_max + 1):
                t0 = time.time()

                def cyc(tw, n=n):
                    return cyclicity_check(tw, n)

                rep = with_precision_retry(p, d, n, cfg.precision, cyc)
                out.append(Record(
                    p=p, d=d, n=n, chi="-", sign="norm", check="cyclicity",
                    expected=str(rep["expected_cyclic"]),
                    measured=str(rep["cyclic"]), residual_val="-",
                    ok=rep["ok"],
                    rule="not cyclic iff d = 0 (mod 4) and n even",
                    runtime=time.time() - t0))
    return out


def _check_torsion(cfg: CampaignConfig) -> list[Record]:
    out = []
    N = max(cfg.precision, MODULE_PRECISION)
    for p in cfg.p_list:
        for d in cfg.d_list:
            for n in range(0, min(cfg.n_max, 2) + 1):
                for gap in (2, 4):
                    m = n + gap
                    for sign in "+-":
                        for triv, label in ((True, "triv"), (False, "nontriv")):
                            t0 = time.time()
                            present = present_plus if sign == "+" else present_minus
                            rep = module_report(coinvariants(present(p, d, m, triv), n), N)
                            cf = sorted(closed_form_coinvariant_torsion(p, d, m, n, sign, triv))
                            ok = rep["torsion"] == cf
                            out.append(Record(
                                p=p, d=d, n=n, chi=label, sign=sign, check="torsion",
                                expected=str(cf), measured=str(rep["torsion"]),
                                residual_val="-", ok=ok,
                                rule=f"m={m}: cyclotomic factors above level n collapse to p",
                                runtime=time.time() - t0))
    return out


def _check_lambda(cfg: CampaignConfig) -> list[Record]:
    out = []
    N = max(cfg.precision, MODULE_PRECISION)
    for p in cfg.p_list:
        for d in cfg.d_list:
            for sign in "+-":
                for triv, label in ((True, "triv"), (False, "nontriv")):
                    for n in range(0, min(cfg.n_max, 2) + 1):
                        t0 = time.time()
                        rep = coinvariant_rank_law(p, d, n, triv, sign, N)
                        out.append(Record(
                            p=p, d=d, n=n, chi=label, sign=sign,
                            check="coinvariant_rank",
                            expected=str(rep["expected"]), measured=str(rep["total"]),
                            residual_val="-", ok=rep["ok"],
                            rule="d p^n + delta (plus) / d p^n (minus)",
                            runtime=time.time() - t0))
            t0 = time.time()
            rep = supplementary_structure_check(d, True, p, N, "+")
            out.append(Record(
                p=p, d=d, n="0-2", chi="triv", sign="+", check="structure_candidate",
                expected="consistent at all tested levels", measured=str(rep["ok"]),
                residual_val="-", ok=rep["ok"],
                rule="free rank d plus delta X-killed lines", runtime=time.time() - t0))
        t0 = time.time()
        kf = kernel_freeness_property(cfg.lambda_trials, seed=cfg.seed, p=p,
                                      N=max(N, HARNESS_PRECISION))
        out.append(Record(
            p=p, d=0, n="-", chi="-", sign="-", check="kernel_freeness",
            expected="0 counterexamples",
            measured=f"{len(kf['counterexamples'])} of {kf['trials']}",
            residual_val="-", ok=kf["ok"],
            rule="kernels of surjections free; cokernels of injections submodule-free",
            runtime=time.time() - t0))
    return out


def _check_series(cfg: CampaignConfig) -> list[Record]:
    from .honda import series_bundle
    from .series import TruncSeries

    out = []
    D = 30
    for p in cfg.p_list:
        curve = cfg.curves[p]
        for d in sorted(set(cfg.d_list))[:2]:
            t0 = time.time()
            try:
                b = series_bundle(curve, d, 0, D, cfg.precision)
            except PrecisionExhausted as e:
                out.append(Record(p=p, d=d, n=0, chi="-", sign="-", check="series",
                                  expected="integral isomorphism", measured=str(e),
                                  residual_val="-", ok=False, rule="series bundle"))
                continue
            comp = b.curve_exp.compose(b.curve_log).canonical()
            ident = TruncSeries.identity(b.field, comp.deg, comp.prec)
            idok = all(not any(c) for c in (comp - ident).coeffs)
            rep = b.report
            ok = (idok and rep["forward_integral"] and rep["backward_integral"]
                  and rep["roundtrip_identity"])
            out.append(Record(
                p=p, d=d, n=0, chi="-", sign="-", check="series",
                expected="exp(log)=id; congruence; integral composites",
                measured=json.dumps({"exp_log_identity": idok, **{
                    k: rep[k] for k in ("forward_integral", "backward_integral",
                                        "roundtrip_identity")}}, sort_keys=True),
                residual_val=str(min(rep["forward_eff_prec"], rep["backward_eff_prec"])),
                ok=ok, rule="height-two isomorphism integrality",
                runtime=time.time() - t0))
    return out


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def render_table(records: list[Record], fmt: str) -> str:
    """The table as csv, json or md text, exactly as written to table.<fmt>."""
    if fmt == "md":
        return emit_markdown(records)
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
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {kind: out_dir / f"table.{kind}" for kind in ("csv", "json")}
    for kind, path in paths.items():
        path.write_text(render_table(records, kind))
    return paths


def emit_markdown(records: list[Record]) -> str:
    lines = ["| " + " | ".join(CSV_COLUMNS) + " |",
             "|" + "---|" * len(CSV_COLUMNS)]
    for r in records:
        lines.append("| " + " | ".join(r.row()) + " |")
    return "\n".join(lines) + "\n"


def write_report(records: list[Record], cfg: CampaignConfig, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
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
    except (OSError, json.JSONDecodeError, ConfigError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        records = run_campaign(cfg)
    except PrecisionExhausted as e:
        print(f"precision exhausted: {e}", file=sys.stderr)
        return 3
    out_dir = Path(cfg.out)
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
        print(f"config error: {e}", file=sys.stderr)
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
