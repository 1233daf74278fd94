"""End-to-end CLI tests driving main() and the console entry point."""

import json
import subprocess
import sys

import pytest

from monowit.cli import main
from monowit.parsing import parse_matrix, parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, err
    return code, json.loads(out)


def test_compare(capsys):
    code, doc = run_json(capsys, "compare", "--matrix", "1,1;1,0",
                         "1,0", "0,1")
    assert code == 0
    assert doc["result"] == "GREATER"
    code, doc = run_json(capsys, "compare", "--matrix", "1,1;1,0",
                         "0,1", "1,0")
    assert doc["result"] == "LESS"
    code, doc = run_json(capsys, "compare", "--matrix", "1,1",
                         "1,0", "0,1")
    assert doc["result"] == "EQUAL"


def test_classify(capsys):
    code, doc = run_json(capsys, "classify", "--matrix", "1,0+1 s2")
    assert code == 0
    assert doc["valid"] and doc["total_order"] and not doc["rational"]
    code, doc = run_json(capsys, "classify", "--matrix=-1,0;0,1")
    assert code == 0
    assert doc["valid"] is False
    code, out, err = run(capsys, "classify", "--matrix", "x")
    assert code == 2 and "error" in err


def test_witness_v(capsys):
    code, doc = run_json(capsys, "witness", "--ring", "V",
                         "v^(0+1 s2)", "v")
    assert code == 0 and doc["verified"]
    poly = parse_poly(doc["witness"]["poly"], "V", 2)
    assert poly.nvars == 2
    code, doc = run_json(capsys, "witness", "--ring", "V", "--swap",
                         "v^(0+1 s2)", "v")
    assert code == 0 and doc["verified"]
    assert doc["witness"]["matrix"] == "0,1;1,0"


def test_witness_r_and_w(capsys):
    code, doc = run_json(capsys, "witness", "--ring", "R",
                         "v^(3/2)", "v")
    assert code == 0 and doc["verified"]
    code, doc = run_json(capsys, "witness", "--ring", "W",
                         "--matrix", "1,0+1 s2", "v", "u*v")
    assert code == 0 and doc["verified"]
    assert doc["witness"]["kind"] == "order"
    code, out, err = run(capsys, "witness", "--ring", "W", "v", "u*v")
    assert code == 2


def test_verify(capsys):
    code, doc = run_json(capsys, "verify", "--ring", "V",
                         "--matrix", "1,0;0,1",
                         "--poly", "X2^2 + -1*v^(2-1 s2)*X1",
                         "v^(0+1 s2)", "v")
    assert code == 0 and doc["ok"]
    code, doc = run_json(capsys, "verify", "--ring", "V",
                         "--matrix", "1,0;0,1", "--poly", "X1",
                         "v^(0+1 s2)", "v")
    assert code == 1 and not doc["ok"] and doc["reason"]


def test_transport(capsys):
    code, doc = run_json(capsys, "transport", "--ring", "V",
                         "--matrix", "1,1;1,0",
                         "--poly", "X2 + -1*v*X1")
    assert code == 0
    assert doc["witness"]["matrix"] == "1,0;0,1"
    t = parse_matrix(doc["witness"]["matrix"])
    assert t.nrows == 2


def test_vdim_and_overring(capsys):
    code, doc = run_json(capsys, "vdim", "--matrix", "1,1;1,0",
                         "v", "v^(0+1 s2)")
    assert code == 0 and doc["verified"]
    code, doc = run_json(capsys, "overring", "--matrix", "1,1;1,0",
                         "--den", "v",
                         "(1 + v) / (v)", "1 / (v^(1/2))")
    assert code == 0 and doc["verified"]
    assert doc["witness"]["matrix"] == "1,0;0,1"


def test_homogenize(capsys):
    code, doc = run_json(capsys, "homogenize",
                         "--poly", "X1 + -1*X2^3", "v^(3)", "v")
    assert code == 0 and doc["ok"]
    homog = parse_poly(doc["homogeneous"], "V", 2)
    assert len({sum(e) for e in homog.terms}) == 1
    assert doc["unit_monomial"] == [1, 0]


def test_search(capsys):
    code, doc = run_json(capsys, "search", "--ring", "R",
                         "--matrix", "1,1", "v", "u*v")
    assert code == 0 and doc["found"] is None
    assert doc["pool_size"] == 7
    code, doc = run_json(capsys, "search", "--ring", "V",
                         "--matrix", "1,0;0,1", "--max-degree", "1",
                         "--pool", "0;1;-1;v;-v", "v", "v^(2)")
    assert code == 0 and doc["found"] is not None
    assert parse_poly(doc["found"], "V", 2) == parse_poly(
        "X2 + -1*v*X1", "V", 2)
    code, doc = run_json(capsys, "search", "--ring", "R",
                         "--exact-degree", "1", "--require-unit",
                         "v", "u*v")
    assert code == 0 and doc["found"] is None
    code, out, err = run(capsys, "search", "--ring", "V", "v", "v^(2)")
    assert code == 2


def test_search_reports_how_much_it_searched(capsys):
    argv = ["search", "--ring", "R", "--matrix", "1,1", "v", "u*v"]
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["found"] is None
    searched = doc["searched"]
    assert set(searched) == {"nodes", "cut_by_support", "cut_by_reach",
                             "cut_by_valuation"}
    assert searched["nodes"] > 0
    assert searched["cut_by_support"] + searched["cut_by_reach"] > 0
    code, again = run_json(capsys, *argv)
    assert again["searched"] == searched


@pytest.mark.parametrize("argv", [
    ["compare", "--matrix=1,-1", "1,0", "0,1"],
    ["compare", "--matrix=0,0", "1,0", "0,1"],
    ["search", "--ring", "V", "--matrix", "1,1", "--max-degree", "-1",
     "v", "v^(2)"],
    ["search", "--ring", "V", "--matrix", "1,1", "--exact-degree", "-1",
     "v", "v^(2)"],
    ["witness", "--ring", "V", "--", "(" * 2000 + "v" + ")" * 2000, "v"],
    ["witness", "--ring", "V", "--", "-" * 2000 + "v", "v"],
    ["witness", "--ring", "V", "--", "+" * 2000 + "v", "v"],
    ["witness", "--ring", "V", "--", "-(" * 1000 + "v" + ")" * 1000, "v"],
], ids=["compare_negative_column", "compare_zero_column",
        "search_negative_max_degree", "search_negative_exact_degree",
        "witness_deep_parens", "witness_long_minus_chain",
        "witness_long_plus_chain", "witness_deep_mixed_nesting"])
def test_rejected_inputs_exit_2_without_output(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_suite_command(capsys):
    code1, out1, _ = run(capsys, "suite", "--name", "pW", "--seed", "3",
                         "--scale", "2", "--strip-timing")
    code2, out2, _ = run(capsys, "suite", "--name", "pW", "--seed", "3",
                         "--scale", "2", "--strip-timing")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["summary"]["failed"] == 0
    assert "timing_ms" not in doc
    code, out, _ = run(capsys, "suite", "--name", "pW", "--seed", "3",
                       "--scale", "2")
    assert "timing_ms" in json.loads(out)


def test_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MONOWIT_SEED", "9")
    code, doc = run_json(capsys, "suite", "--name", "lPrelim",
                         "--scale", "2")
    assert code == 0 and doc["seed"] == 9


def test_parse_error_exit_codes(capsys):
    code, out, err = run(capsys, "witness", "--ring", "V", "u", "v")
    assert code == 2 and "error" in err
    code, out, err = run(capsys, "vdim", "--matrix", "1,1;1,0", "v", "x")
    assert code == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "monowit.cli", "classify",
         "--matrix", "1,0;0,1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["valid"] and doc["rational"] and doc["total_order"]
