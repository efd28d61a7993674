import hashlib
import json
import sys
from pathlib import Path

import pytest

from normtower import cli, honda, lambda_modules
from normtower.cli import CampaignConfig, ConfigError, main
from normtower.padic import PrecisionExhausted
from normtower.snf import MODULE_PRECISION


def write_cfg(tmp_path: Path, doc: dict) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


BASE = {
    "p": [3],
    "d": [1],
    "n_max": 1,
    "precision": 4,
    "curve": "ss3",
    "checks": ["trace"],
}


def test_config_parsing_and_overrides():
    cfg = CampaignConfig.from_json(dict(BASE), checks_override=["cyclicity"],
                                   seed_override=99)
    assert cfg.checks == ["cyclicity"]
    assert cfg.seed == 99
    assert cfg.curves[3].a4 == -1


def test_config_rejects_empty_d():
    with pytest.raises(ConfigError):
        CampaignConfig.from_json({**BASE, "d": []})


@pytest.mark.parametrize("override", [
    {"precision": 0},
    {"d": [0]},
    {"d": [1, -2]},
    {"n_max": -3},
    {"n_max": -3, "checks": ["ranks"]},
    {"lambda_trials": 0},
    {"precision": 1},
    {"precision": 2},
    {"p": "35"},
    {"d": [1.5]},
])
def test_config_rejects_out_of_range_values(tmp_path, capsys, override):
    with pytest.raises(ConfigError):
        CampaignConfig.from_json({**BASE, **override})
    cfg = write_cfg(tmp_path, {**BASE, **override, "out": str(tmp_path / "rep")})
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_config_rejects_unknown_check():
    with pytest.raises(ConfigError):
        CampaignConfig.from_json({**BASE, "checks": ["bogus"]})


@pytest.mark.parametrize("checks", [[], "trace", "all", ["trace", 3], {"trace": 1}, None])
def test_config_rejects_checks_that_are_not_a_list_of_names(tmp_path, capsys, monkeypatch,
                                                             checks):
    with pytest.raises(ConfigError, match="non-empty list of check names"):
        CampaignConfig.from_json({**BASE, "checks": checks})
    monkeypatch.setattr(cli, "run_campaign", lambda cfg: pytest.fail("campaign ran"))
    cfg = write_cfg(tmp_path, {**BASE, "checks": checks, "out": str(tmp_path / "rep")})
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "config error: checks must be a non-empty list" in capsys.readouterr().err


def test_verify_rejects_an_output_path_it_cannot_create(tmp_path, capsys, monkeypatch):
    # the campaign must not run when its results could not be written
    monkeypatch.setattr(cli, "run_campaign", lambda cfg: pytest.fail("campaign ran"))
    (tmp_path / "file").write_text("")
    cfg = write_cfg(tmp_path, {**BASE, "out": str(tmp_path / "file" / "out")})
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_verify_creates_the_output_directory_first(tmp_path, monkeypatch):
    out = tmp_path / "a" / "b"
    monkeypatch.setattr(cli, "run_campaign", lambda cfg: [] if out.is_dir() else pytest.fail())
    cfg = write_cfg(tmp_path, {**BASE, "out": str(out)})
    assert main(["verify", "--config", str(cfg)]) == 0
    assert (out / "table.csv").is_file()


def test_config_curve_map_and_raw_coefficients():
    cfg = CampaignConfig.from_json({**BASE, "p": [3, 5],
                                    "curve": {"3": "ss3", "5": "ss23"}})
    assert cfg.curves[5].a6 == 1
    cfg = CampaignConfig.from_json({**BASE, "curve": {"a4": -1}})
    assert cfg.curves[3].a4 == -1


def test_verify_exit_codes(tmp_path):
    cfg = write_cfg(tmp_path, {**BASE, "out": str(tmp_path / "rep")})
    assert main(["verify", "--config", str(cfg)]) == 0
    missing = tmp_path / "nope.json"
    assert main(["verify", "--config", str(missing)]) == 2
    bad = write_cfg(tmp_path, {**BASE, "d": []})
    assert main(["verify", "--config", str(bad)]) == 2


def test_verify_outputs_are_byte_stable(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    cfg = write_cfg(tmp_path, {**BASE, "checks": ["trace", "cyclicity"]})
    assert main(["verify", "--config", str(cfg), "--out", str(out1), "--seed", "5"]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out2), "--seed", "5"]) == 0
    assert (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()
    assert (out1 / "table.json").read_bytes() == (out2 / "table.json").read_bytes()


ROOT = Path(__file__).resolve().parents[1]
SHIPPED = {"full_grid": "configs/full_grid.json", "p5": "perfbench/configs/p5.json"}
# configs/p5.json is not a benchmark workload, so its reference digests live here
P5_CONFIG_DIGESTS = {
    "table.csv": "48be93a08df1b46d329d81d7bc0c494e633933657509b719e3756a548fc87203",
    "table.json": "29a6f4b16d9a53fb0506e5c72fe1280778eeae7b105f4113fc5b3bd3c14b2a67",
}
P5_CONFIG_RECORDS = 74


def assert_tables_match(config: str, out: Path, digests: dict, records: int):
    """verify on a shipped config, at its own seed, emits tables with these
    sha256 digests and this many rows."""
    assert main(["verify", "--config", str(ROOT / config), "--out", str(out)]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    assert len(json.loads((out / "table.json").read_text())["rows"]) == records


@pytest.mark.parametrize("workload", SHIPPED)
def test_shipped_tables_match_the_reference_digests(tmp_path, workload):
    """The table contract: the committed digests of perfbench/reference.json."""
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())[workload]
    assert_tables_match(SHIPPED[workload], tmp_path / workload,
                        reference["digests"], reference["records"])


def test_shipped_p5_config_matches_its_digests(tmp_path):
    assert_tables_match("configs/p5.json", tmp_path / "p5", P5_CONFIG_DIGESTS, P5_CONFIG_RECORDS)


def test_table_formats(tmp_path, capsys):
    out = tmp_path / "rep"
    cfg = write_cfg(tmp_path, {**BASE})
    main(["verify", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert main(["table", "--report", str(out / "report.json"), "--format", "md"]) == 0
    md = capsys.readouterr().out
    assert md.startswith("| p | d | n |")
    assert main(["table", "--report", str(out / "report.json"), "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0] == "p,d,n,chi,sign,check,expected,measured,residual_val,pass"
    assert main(["table", "--report", str(out / "report.json"), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1


def test_table_reprints_the_emitted_tables_byte_for_byte(tmp_path, capsysbinary):
    out = tmp_path / "rep"
    cfg = write_cfg(tmp_path, {**BASE, "checks": ["trace", "torsion"]})
    main(["verify", "--config", str(cfg), "--out", str(out)])
    capsysbinary.readouterr()
    for fmt in ("csv", "json"):
        assert main(["table", "--report", str(out / "report.json"), "--format", fmt]) == 0
        assert capsysbinary.readouterr().out == (out / f"table.{fmt}").read_bytes()


@pytest.mark.parametrize("doc", [
    {"schema_version": 1},
    {"schema_version": 1, "records": [{"p": 3}]},
    {"schema_version": 1, "records": [7]},
    [],
    None,  # no report file
    "{not json",
])
def test_table_rejects_malformed_report(tmp_path, capsys, doc):
    report = tmp_path / "report.json"
    if doc is not None:
        report.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["table", "--report", str(report), "--format", "csv"]) == 2
    assert "report error" in capsys.readouterr().err


def test_report_json_structure(tmp_path):
    out = tmp_path / "rep"
    cfg = write_cfg(tmp_path, {**BASE})
    main(["verify", "--config", str(cfg), "--out", str(out)])
    doc = json.loads((out / "report.json").read_text())
    assert doc["all_pass"] is True
    rec = doc["records"][0]
    assert rec["check"] == "ap_gate"
    assert {"expected", "measured", "ok", "rule", "runtime"} <= rec.keys()


def test_lambda_campaign_runs_at_p7(tmp_path):
    """The lambda checks, the randomized kernel_freeness harness included,
    at a prime past 3 and 5."""
    out = tmp_path / "rep"
    cfg = write_cfg(tmp_path, {**BASE, "p": [7], "n_max": 0, "checks": ["lambda"],
                               "lambda_trials": 2})
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    records = json.loads((out / "report.json").read_text())["records"]
    assert "kernel_freeness" in {r["check"] for r in records}
    assert all(r["ok"] for r in records)


def test_character_ranks_that_climb_pass(tmp_path):
    """At precision 4 the nontrivial-character ranks of n = 2 climb the
    precision ladder; each rung projects with its own tower's idempotents."""
    out = tmp_path / "rep"
    cfg = write_cfg(tmp_path, {**BASE, "n_max": 2, "checks": ["ranks"]})
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    records = json.loads((out / "report.json").read_text())["records"]
    assert len(records) == 34 and all(r["ok"] for r in records)


def test_ap_gate_blocks_bad_curve(tmp_path):
    # an ordinary curve at p = 5 fails construction (good reduction but a_p != 0
    # passes CurveParams and must be caught by the gate)
    cfg = write_cfg(tmp_path, {**BASE, "p": [5], "curve": {"a4": -1},
                               "out": str(tmp_path / "rep")})
    rc = main(["verify", "--config", str(cfg)])
    assert rc == 1
    doc = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert doc["records"][0]["check"] == "ap_gate"
    assert doc["records"][0]["ok"] is False
    assert len(doc["records"]) == 1  # nothing runs behind a failed gate


class FakeClock:
    """A perf_counter stand-in that moves only when a test advances it."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def failing_bundle(clock: FakeClock, seconds: float):
    def bundle(curve, d, n, D, target):
        clock.now += seconds
        raise PrecisionExhausted(f"no integral bundle at d={d}")
    return bundle


def test_series_failure_record_is_charged_its_bundle_time(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(cli, "perf_counter", clock)
    monkeypatch.setattr(honda, "series_bundle", failing_bundle(clock, 7.5))
    cfg = CampaignConfig.from_json({**BASE, "d": [1, 2], "checks": ["series"]})
    records = cli.run_campaign(cfg)
    assert [r.check for r in records] == ["ap_gate", "series", "series"]
    assert [r.ok for r in records] == [True, False, False]
    assert records[1].measured == "no integral bundle at d=1"
    assert [r.runtime for r in records] == [0.0, 7.5, 7.5]


def test_record_runtimes_sum_to_the_campaign_clock(monkeypatch):
    clock = FakeClock()
    build_tower = cli.build_tower

    def slow_build_tower(*args):
        clock.now += 2.0
        return build_tower(*args)

    monkeypatch.setattr(cli, "perf_counter", clock)
    monkeypatch.setattr(cli, "build_tower", slow_build_tower)
    monkeypatch.setattr(honda, "series_bundle", failing_bundle(clock, 7.5))
    cfg = CampaignConfig.from_json({**BASE, "d": [1, 2], "checks": ["trace", "series"]})
    start = clock()
    records = cli.run_campaign(cfg)
    assert {r.check for r in records} == {"ap_gate", "trace", "series"}
    assert clock() - start == 2 * 2.0 + 2 * 7.5
    assert sum(r.runtime for r in records) == clock() - start
    # the tower is built before the first trace record of each d, and charged to it
    first_trace = [next(r for r in records if r.check == "trace" and r.d == d) for d in (1, 2)]
    assert [r.runtime for r in first_trace] == [2.0, 2.0]


def test_every_check_runs_through_the_runner():
    assert cli.ALL_CHECKS == ("trace", "ranks", "cyclicity", "torsion", "lambda", "series")
    assert set(cli.CHECKS) == {"ap_gate", *cli.ALL_CHECKS}


def test_module_records_climb_the_precision_ladder(monkeypatch):
    """A margin collision in every module_report at the module floor is rerun
    at the next rung: the torsion and lambda records equal those of the run
    without it."""
    cfg = CampaignConfig.from_json({**BASE, "n_max": 0, "lambda_trials": 4,
                                    "checks": ["torsion", "lambda"]})
    assert max(cfg.precision, MODULE_PRECISION) == MODULE_PRECISION

    def rows(records):
        return [(r.row(), r.rule) for r in records]

    want = rows(cli.run_campaign(cfg))
    report, collisions = lambda_modules.module_report, []

    def colliding(pres, N):
        if N == MODULE_PRECISION:
            collisions.append(N)
            raise PrecisionExhausted("forced margin collision")
        return report(pres, N)

    holders = [m for name, m in sys.modules.items()
               if name.startswith("normtower.") and hasattr(m, "module_report")]
    for module in holders:
        monkeypatch.setattr(module, "module_report", colliding)
    assert len(want) == 15
    assert rows(cli.run_campaign(cfg)) == want
    assert collisions
