"""Command-line contract: parsing, config merge, CSV/JSON/SVG outputs,
determinism, and exit codes."""

import json
import math

import pytest

from ucqkd.cli import (
    CSV_COLUMNS,
    SELFTEST_SUITES,
    _parse_grid,
    main,
    parse_eps,
    render_svg,
)
from ucqkd.errors import UsageError


# ---------------------------------------------------------------------------
# Literal parsing
# ---------------------------------------------------------------------------


def test_parse_eps_power_of_two_exact():
    assert parse_eps("2^-50") == 2.0**-50
    assert parse_eps("2^-1") == 0.5
    assert parse_eps("0.25") == 0.25


def test_parse_eps_rejects_bad_literals():
    for bad in ("abc", "2^-2000", "1.5", "0", "-0.1"):
        with pytest.raises(UsageError):
            parse_eps(bad)


def test_parse_grid():
    g = _parse_grid("0:0.06:0.005")
    assert len(g) == 13
    assert g[0] == 0.0 and abs(g[-1] - 0.06) < 1e-12
    assert _parse_grid("0.1,0.2") == [0.1, 0.2]
    with pytest.raises(UsageError):
        _parse_grid("0:1")
    with pytest.raises(UsageError):
        _parse_grid("1:0:0.1")


# ---------------------------------------------------------------------------
# compress-sim
# ---------------------------------------------------------------------------


def test_compress_sim_example(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main([
        "compress-sim", "--n", "2", "--alphabet", "2", "--d", "2",
        "--bins-log", "1", "--decoder", "partial", "--seed", "1",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["exactPerr"] <= doc["boundPerr"] + 1e-12
    assert doc["metadata"]["decoder"] == "partially-universal"


def test_compress_sim_injective_is_exact(tmp_path):
    out = tmp_path / "rep.json"
    assert main([
        "compress-sim", "--n", "1", "--bins-log", "1", "--out", str(out),
    ]) == 0
    assert json.loads(out.read_text())["exactPerr"] <= 1e-10


def test_compress_sim_three_symbols_strict_json(tmp_path):
    # alphabet 3 once overflowed the Sibson term at alpha = 0.001 into NaN
    out = tmp_path / "rep.json"
    assert main([
        "compress-sim", "--n", "3", "--alphabet", "3", "--d", "2",
        "--bins-log", "1.58", "--seed", "1", "--out", str(out),
    ]) == 0

    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert all(math.isfinite(v) for point in doc["exponentCurve"] for v in point)


def test_compress_sim_capacity_exit_code():
    assert main(["compress-sim", "--n", "9", "--bins-log", "1"]) == 3


def test_malformed_flag_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compress-sim", "--bogus"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["no-such-subcommand"])
    assert exc.value.code == 64


# ---------------------------------------------------------------------------
# Config file merge
# ---------------------------------------------------------------------------


def test_config_file_merge_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1, "bins_log": 1.0, "seed": 5}))
    out = tmp_path / "a.json"
    assert main(["compress-sim", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["n"] == 1 and doc["metadata"]["seed"] == 5
    # explicit flag beats the file
    out2 = tmp_path / "b.json"
    assert main(["compress-sim", "--config", str(cfg), "--seed", "7",
                 "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["metadata"]["seed"] == 7


def test_config_file_unknown_keys_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    assert main(["compress-sim", "--config", str(cfg)]) == 64


# ---------------------------------------------------------------------------
# keyrate CSV contract
# ---------------------------------------------------------------------------


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


def test_keyrate_csv_schema_and_determinism(tmp_path):
    args = [
        "keyrate", "--analysis", "both", "--depol", "0.01",
        "--ntot", "1e6", "--alpha", "0.2", "--seed", "3", "--jobs", "1",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header, rows = _read_csv(a)
    assert header == list(CSV_COLUMNS)
    assert [r["analysis"] for r in rows] == ["universal", "conventional"]
    for r in rows:
        assert float(r["eps_sec"]) <= 2.0**-50 * (1 + 1e-9)
        assert float(r["key_rate"]) >= 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")  # V = 0 at p = 0
def test_keyrate_universal_noiseless(tmp_path):
    out = tmp_path / "p0.csv"
    assert main([
        "keyrate", "--analysis", "universal", "--depol", "0",
        "--ntot", "1e9", "--jobs", "1", "--out", str(out),
    ]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 1 and float(rows[0]["key_rate"]) > 0.0


def test_keyrate_grid_row_count(tmp_path):
    out = tmp_path / "g.csv"
    assert main([
        "keyrate", "--analysis", "conventional", "--depol", "0.01,0.03",
        "--ntot", "1e6,1e7", "--seed", "1", "--out", str(out),
    ]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 4


def test_keyrate_infeasible_row_is_flagged(tmp_path):
    # heavy depolarization: no key, flagged row with key_rate = 0
    out = tmp_path / "z.csv"
    assert main([
        "keyrate", "--analysis", "conventional", "--depol", "0.4",
        "--ntot", "1e6", "--seed", "1", "--out", str(out),
    ]) == 0
    _, rows = _read_csv(out)
    assert float(rows[0]["key_rate"]) == 0.0
    assert rows[0]["flag"] != ""


def test_keyrate_rejects_bad_grid():
    assert main(["keyrate", "--depol", "1.5", "--ntot", "1e6"]) == 64
    assert main(["keyrate", "--ntot", "1e6"]) == 64  # no depol given


def test_keyrate_asymptotic_ordering(tmp_path):
    out = tmp_path / "asym.csv"
    svg = tmp_path / "asym.svg"
    assert main([
        "keyrate-asymptotic", "--depol-grid", "0:0.04:0.02",
        "--out", str(out), "--svg", str(svg),
    ]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 6
    by_p = {}
    for r in rows:
        by_p.setdefault(r["p"], {})[r["analysis"]] = float(r["key_rate"])
    for p, vals in by_p.items():
        assert vals["universal"] >= vals["conventional"] - 1e-9
    assert svg.read_text().startswith("<svg")


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def test_render_svg_markup():
    svg = render_svg({"u": [(1e6, 0.1), (1e9, 0.2)], "c": [(1e6, 0.05)]},
                     "n_tot", "rate")
    assert svg.count("<polyline") == 2
    assert "</svg>" in svg
    with pytest.raises(UsageError):
        render_svg({}, "x", "y")


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def test_selftest_quick_green(capsys):
    assert main(["selftest", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "all suites passed" in out
    assert all(name in out for name in SELFTEST_SUITES)


def test_selftest_only_one_suite(capsys):
    assert main(["selftest", "--only", "field-weyl", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "field-weyl" in out and "hashing" not in out


def test_selftest_unknown_suite():
    assert main(["selftest", "--only", "bogus"]) == 64


def test_selftest_quick_keeps_most_checks():
    from ucqkd.cli import _Check

    full, quick = 0, 0
    for fn in SELFTEST_SUITES.values():
        c = _Check()
        fn(c, False)
        full += c.count
        c = _Check()
        fn(c, True)
        quick += c.count
    assert quick >= math.ceil(0.9 * full)
