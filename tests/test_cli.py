import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quat1122
from quat1122 import OrderElement, parse, repcount
from quat1122.cli import build_parser, main
from quat1122.repcount import CountResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "12")
    assert code == 0
    assert "96" in out


def test_count_with_oracle_json(capsys):
    code, blob, _ = run_json(capsys, "count", "12", "--oracle", "--json")
    assert code == 0
    assert blob["formula"] == blob["oracle"] == 96
    assert blob["decomposition"] == {"two_exponent": 2, "odd_part": 3}


def test_count_restricted(capsys):
    code, blob, _ = run_json(capsys, "count", "4", "--restriction", "i",
                             "--oracle", "--json")
    assert code == 0
    assert blob["formula"] == blob["oracle"] == 4


def test_count_invalid_n(capsys):
    code, _, err = run(capsys, "count", "0")
    assert code == 1
    assert "error" in err


def test_count_inconsistent_restriction(capsys):
    code, _, err = run(capsys, "count", "8", "--restriction", "i")
    assert code == 1


#: Inputs past a stated bound, each refused up front: (argv, bound in stderr).
LARGE_INPUTS = {
    "count": (["count", "100000000000000000039"], "bound 1000000000000000"),
    # below the count bound but above the oracle's: refused before sigma runs
    "count-oracle": (["count", "999999999999989", "--oracle"], "oracle bound 1000000"),
    "tau": (["tau", "-m", "99999999977", "[0,1,0,0]"], "bound 10000000"),
    "primes": (["primes", "-p", "999983"], "bound 20000"),
    "verify": (["verify", "--max-n", "1000000000"], "bound 200000"),
    # a prime far above the bound: refused before any trial division
    "primes-huge": (["primes", "-p", "1000000000000000003"], "bound 20000"),
    # norm near 1e58: refused before factoring it
    "factor": (["factor", "[100000000000000000000000000001,0,0,1]"],
               "bound 1000000000000000"),
}


@pytest.mark.parametrize("argv, bound", LARGE_INPUTS.values(), ids=LARGE_INPUTS.keys())
def test_large_input_rejected_fast(capsys, argv, bound):
    start = time.monotonic()
    code, _, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert code == 1
    assert bound in err


def test_factor_json_round_trips(capsys):
    code, blob, _ = run_json(capsys, "factor", "[3,0,0,0]", "--json")
    assert code == 0
    assert blob["r"] == 0
    assert blob["sign"] == -1
    assert blob["content"] == 3
    assert blob["primes"] == []
    assert OrderElement(*blob["unit"]["v"]).is_unit()


def test_factor_half_form_input(capsys):
    code, blob, _ = run_json(capsys, "factor", "(2+2i)/2", "--json")
    assert code == 0
    assert blob["r"] == 1 and blob["content"] == 1


def test_factor_malformed_quat(capsys):
    for text, reason in [("[1,2]", "basis form needs 4 coordinates"),
                         ("(1+i)/2", "violate parity"),
                         ("(2r2j2)/2", "unsigned term"),
                         ("[1_0,0,0,0]", "non-integer coordinate")]:
        code, _, err = run(capsys, "factor", text)
        assert code == 1
        assert reason in err
        assert "_quat" not in err


def test_factor_zero(capsys):
    code, _, err = run(capsys, "factor", "[0,0,0,0]")
    assert code == 1


def test_gcd(capsys):
    code, blob, _ = run_json(capsys, "gcd", "--side", "right",
                             "[2,0,0,0]", "[1,1,0,0]", "--json")
    assert code == 0
    d = OrderElement(*blob["gcd"]["v"])
    assert d.norm() == 2
    x = OrderElement(*blob["cofactors"][0]["v"])
    y = OrderElement(*blob["cofactors"][1]["v"])
    a, b = parse("[2,0,0,0]"), parse("[1,1,0,0]")
    assert x * a + y * b == d


def test_gcd_both_zero(capsys):
    code, _, err = run(capsys, "gcd", "[0,0,0,0]", "[0,0,0,0]")
    assert code == 1


def test_tau(capsys):
    code, blob, _ = run_json(capsys, "tau", "-m", "3", "[0,1,0,0]", "--json")
    assert code == 0
    assert blob["matrix"] == [[0, 1], [2, 0]]
    assert blob["det"] == blob["norm_mod_m"] == 1
    assert len(blob["rs"]) == 2


def test_tau_even_modulus(capsys):
    code, _, err = run(capsys, "tau", "-m", "4", "[0,1,0,0]")
    assert code == 1


def test_primary(capsys):
    code, blob, _ = run_json(capsys, "primary", "[0,1,0,0]", "--json")
    assert code == 0
    assert blob["unit"]["v"] == [0, -1, 0, 0]
    assert blob["primary"]["v"] == [1, 0, 0, 0]


def test_primary_rejects_even(capsys):
    code, _, err = run(capsys, "primary", "[1,1,0,0]")
    assert code == 1


def test_primes(capsys):
    code, blob, _ = run_json(capsys, "primes", "-p", "3", "--json")
    assert code == 0
    assert blob["count"] == 4
    assert len(blob["primes"]) == 4


def test_primes_p2_is_an_error(capsys):
    for argv in (["primes", "-p", "2"], ["primes", "-p", "2", "--json"]):
        assert run(capsys, *argv) == (
            1, "", "error: no primary primes of norm 2: the norm-2 primes are the 24 "
                   "associates of 1+i, reported by enumerate_norm_solutions(2)\n")


def test_primes_near_the_bound(capsys):
    start = time.monotonic()
    code, blob, _ = run_json(capsys, "primes", "-p", "19997", "--json")
    assert time.monotonic() - start < 10.0
    assert code == 0
    assert blob["count"] == 19998
    assert len({tuple(e["v"]) for e in blob["primes"]}) == 19998
    code, _, err = run(capsys, "primes", "-p", "20011")
    assert code == 1
    assert "20000" in err


def test_verify_full_sweep_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "5000")
    assert code == 0
    assert "PASSED" in out


def test_verify_small_sweep(capsys):
    code, blob, _ = run_json(capsys, "verify", "--max-n", "120", "--json")
    assert code == 0
    assert blob["ok"] is True
    assert blob["mismatches"] == []
    assert blob["checked"]["none"] == 120
    assert blob["checked"]["i"] == 15   # odd m with 4m <= 120
    assert blob["checked"]["ii"] == 8   # odd m with 8m <= 120


# -- exit 2: the formula and the enumeration disagree -------------------------------

def formula_one_too_high(monkeypatch, ns, restriction=None):
    """Patch rep_count_formula to count one too many at each n in ns.

    With a restriction, only that restriction's count is off.
    """
    true_formula = repcount.rep_count_formula

    def patched(n, case="none"):
        result = true_formula(n, case)
        if n in ns and restriction in (None, case):
            return CountResult(result.formula_count + 1, result.decomposition)
        return result

    monkeypatch.setattr(repcount, "rep_count_formula", patched)


def test_count_oracle_mismatch_exits_2(capsys, monkeypatch):
    formula_one_too_high(monkeypatch, {12})
    assert run(capsys, "count", "12", "--oracle") == (
        2, "count(12, restriction=none) = 97\noracle(12, restriction=none) = 96\n",
        "MISMATCH: formula 97 != oracle 96\n")
    assert run(capsys, "count", "12", "--oracle", "--json") == (
        2, '{"n": 12, "restriction": "none", "formula": 97, "decomposition": '
           '{"two_exponent": 2, "odd_part": 3}, "oracle": 96}\n',
        "MISMATCH: formula 97 != oracle 96\n")
    # Without --oracle nothing is compared, so nothing can disagree.
    assert run(capsys, "count", "12") == (0, "count(12, restriction=none) = 97\n", "")


#: verify --max-n 120 with the formula one too high at 12, 60 and 100, each of
#: which is 4 times an odd m and so is checked by restrictions none, i and iii.
VERIFY_MISMATCHES = [
    {"n": 12, "restriction": "none", "formula": 97, "oracle": 96},
    {"n": 60, "restriction": "none", "formula": 577, "oracle": 576},
    {"n": 100, "restriction": "none", "formula": 745, "oracle": 744},
    {"n": 12, "restriction": "i", "formula": 17, "oracle": 16},
    {"n": 60, "restriction": "i", "formula": 97, "oracle": 96},
    {"n": 100, "restriction": "i", "formula": 125, "oracle": 124},
    {"n": 12, "restriction": "iii", "formula": 65, "oracle": 64},
    {"n": 60, "restriction": "iii", "formula": 385, "oracle": 384},
    {"n": 100, "restriction": "iii", "formula": 497, "oracle": 496},
]
VERIFY_CHECKED = '"checked": {"none": 120, "i": 15, "ii": 8, "iii": 15}'


def test_verify_mismatch_exits_2(capsys, monkeypatch):
    formula_one_too_high(monkeypatch, {12, 60, 100})
    stderr = "".join(f"MISMATCH: {m}\n" for m in VERIFY_MISMATCHES)
    assert stderr.startswith(
        "MISMATCH: {'n': 12, 'restriction': 'none', 'formula': 97, 'oracle': 96}\n")
    assert run(capsys, "verify", "--max-n", "120") == (
        2, "representation formula vs oracle for n in [1, 120]: MISMATCH\n"
           "complementary case i (15 odd m values): MISMATCH\n"
           "complementary case ii (8 odd m values): OK\n"
           "complementary case iii (15 odd m values): MISMATCH\n"
           "verification FAILED\n", stderr)
    mismatches = ", ".join(
        f'{{"n": {m["n"]}, "restriction": "{m["restriction"]}", '
        f'"formula": {m["formula"]}, "oracle": {m["oracle"]}}}' for m in VERIFY_MISMATCHES)
    assert run(capsys, "verify", "--max-n", "120", "--json") == (
        2, f'{{"max_n": 120, {VERIFY_CHECKED}, "mismatches": [{mismatches}], '
           f'"ok": false}}\n', stderr)


def test_verify_mismatch_in_one_restriction_only(capsys, monkeypatch):
    # 24 = 8 * 3 is checked by restriction ii; only that count is off.
    formula_one_too_high(monkeypatch, {24}, restriction="ii")
    stderr = "MISMATCH: {'n': 24, 'restriction': 'ii', 'formula': 65, 'oracle': 64}\n"
    assert run(capsys, "verify", "--max-n", "120") == (
        2, "representation formula vs oracle for n in [1, 120]: OK\n"
           "complementary case i (15 odd m values): OK\n"
           "complementary case ii (8 odd m values): MISMATCH\n"
           "complementary case iii (15 odd m values): OK\n"
           "verification FAILED\n", stderr)
    assert run(capsys, "verify", "--max-n", "120", "--json") == (
        2, f'{{"max_n": 120, {VERIFY_CHECKED}, "mismatches": [{{"n": 24, '
           f'"restriction": "ii", "formula": 65, "oracle": 64}}], "ok": false}}\n', stderr)


def test_unknown_verb(capsys):
    code, _, err = run(capsys, "bogus")
    assert code == 1


def test_missing_required_argument(capsys):
    code, _, err = run(capsys, "tau", "[0,1,0,0]")
    assert code == 1


def test_verify_just_past_the_table_bound(capsys):
    start = time.monotonic()
    result = run(capsys, "verify", "--max-n", "200001")
    assert time.monotonic() - start < 1.0
    assert result == (1, "", "error: limit = 200001 exceeds the table bound 200000\n")


def test_verify_at_the_table_bound(capsys):
    code, blob, err = run_json(capsys, "verify", "--max-n", "200000", "--json")
    assert (code, err) == (0, "")
    assert blob["ok"] is True
    assert blob["checked"] == {"none": 200000, "i": 25000, "ii": 12500, "iii": 25000}


# -- the parser, built once per process ------------------------------------------

#: One argv per verb form, text and JSON, and the usage and input errors.
VERB_FORMS = [
    ["count", "12"], ["count", "20", "--restriction", "i", "--oracle", "--json"],
    ["factor", "[6,3,1,-2]"], ["factor", "(2+2i)/2", "--json"],
    ["gcd", "[7,1,2,3]", "[3,0,0,0]"], ["gcd", "--side", "left", "[2,0,0,0]",
                                        "[1,1,0,0]", "--json"],
    ["tau", "-m", "15", "[0,1,0,0]"], ["tau", "-m", "3", "[0,1,0,0]", "--json"],
    ["primary", "[3,0,0,0]"], ["primary", "[0,1,0,0]", "--side", "left", "--json"],
    ["primes", "-p", "5"], ["primes", "-p", "13", "--json"],
    ["verify", "--max-n", "64"], ["verify", "--max-n", "120", "--json"],
    ["count", "0"], ["factor", "(1+i)/2"], ["tau", "[0,1,0,0]"], ["bogus"],
    ["count", "12", "--restriction", "iv"], ["verify", "--max-n", "x"],
]


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_importing_cli_builds_no_parser():
    script = ("from quat1122 import cli\n"
              "print(cli.build_parser.cache_info().currsize)")
    src = str(Path(quat1122.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert proc.stdout == "0\n"


#: The exit-2 forms, run with the formula one too high at n = 12.
MISMATCH_FORMS = [
    ["count", "12", "--oracle"], ["count", "12", "--oracle", "--json"],
    ["verify", "--max-n", "64"], ["verify", "--max-n", "120", "--json"],
]


def test_each_verb_form_twice_gives_the_same_bytes(capsys, monkeypatch):
    first = [run(capsys, *argv) for argv in VERB_FORMS]
    second = [run(capsys, *argv) for argv in VERB_FORMS]
    assert first == second
    assert [code for code, _, _ in first] == [0] * 14 + [1] * 6
    formula_one_too_high(monkeypatch, {12})
    first = [run(capsys, *argv) for argv in MISMATCH_FORMS]
    second = [run(capsys, *argv) for argv in MISMATCH_FORMS]
    assert first == second
    assert [code for code, _, _ in first] == [2] * 4


def test_usage_error_between_good_calls(capsys):
    good = ["count", "20", "--restriction", "i", "--oracle", "--json"]
    bad = ["tau", "[0,1,0,0]"]
    build_parser.cache_clear()
    fresh = run(capsys, *bad)
    assert fresh == (1, "", "error: the following arguments are required: -m\n")
    before, again, after = run(capsys, *good), run(capsys, *bad), run(capsys, *good)
    assert again == fresh
    assert before == after
    assert before[0] == 0


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 0
    return capsys.readouterr()


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["gcd", "-h"]])
def test_help_is_unchanged_by_the_cache(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    first = help_text(capsys, *argv)
    run(capsys, "count", "12")
    assert help_text(capsys, *argv) == first
    assert first.err == ""
    # A parser built afresh prints the same text.
    with pytest.raises(SystemExit):
        build_parser.__wrapped__().parse_args(argv)
    assert capsys.readouterr() == first


@pytest.mark.parametrize("form, start", [
    ([], b"19998 primary primes of norm 19997:\n  "),
    (["--json"], b'{"p": 19997, "count": 19998, "primes": ['),
], ids=["text", "json"])
def test_reader_closing_early_gets_no_traceback(tmp_path, form, start):
    # Either form of 19998 primes is far larger than a pipe holds, so the
    # writer is still writing when the reader closes after 64 bytes.
    src = str(Path(quat1122.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "quat1122.cli", "primes", "-p", "19997", *form]
    with open(tmp_path / "stderr.txt", "w+b") as err, subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err,
            env={**os.environ, "PYTHONPATH": src}) as proc:
        head = proc.stdout.read(64)
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        err.seek(0)
        assert err.read() == b""
    assert head.startswith(start)
