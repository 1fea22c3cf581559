import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dyerlashof
from dyerlashof.cli import (
    build_parser,
    element_str,
    main,
    parse_element,
    parse_word,
    word_str,
)
from dyerlashof.errors import Meter, ValidationError
from dyerlashof.freealg import AlgebraElement, _enumerate_monomials
from dyerlashof.appcalc import point_context


def run_cli(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def sign_ctx_file(tmp_path):
    cfg = {
        "version": 1,
        "p": 3,
        "grading": {"free_rank": 1, "torsion_orders": []},
        "chi": [-1],
        "generators": [{"name": "x", "g": [1], "n": 0}],
        "max_degree": 10,
        "max_charge": 9,
    }
    path = tmp_path / "sign3.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def untw_ctx_file(tmp_path):
    cfg = {
        "version": 1,
        "p": 3,
        "grading": {"free_rank": 1, "torsion_orders": []},
        "chi": [1],
        "generators": [{"name": "x", "g": [1], "n": 2}],
        "max_degree": 10,
        "max_charge": 9,
    }
    path = tmp_path / "untw3.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def untw0_ctx_file(tmp_path):
    cfg = {
        "version": 1,
        "p": 3,
        "grading": {"free_rank": 1, "torsion_orders": []},
        "chi": [1],
        "generators": [{"name": "x", "g": [1], "n": 0}],
    }
    path = tmp_path / "untw0.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# rewrite


def test_rewrite_examples(capsys):
    code, out, _ = run_cli(["rewrite", "Q^{2} Q^{0}", "--p", "3"], capsys)
    assert (code, out) == (0, "2 Q^{1} Q^{1}\n")
    code, out, _ = run_cli(["rewrite", "Q^{1}"], capsys)
    assert (code, out) == (0, "Q^{1}\n")
    code, out, _ = run_cli(["rewrite", "Q^{1} Q^{1/2}"], capsys)
    assert (code, out) == (0, "0\n")


def test_rewrite_twisted(capsys):
    code, out, _ = run_cli(["rewrite", "Q^{3/2} bQ^{1/2}", "--p", "3"], capsys)
    assert code == 0
    assert out == "2 bQ^{3/2} Q^{1/2}\n"


def test_rewrite_errors(capsys):
    code, _, err = run_cli(["rewrite", "Q^{2} +", "--p", "3"], capsys)
    assert code == 2 and "position" in err
    code, _, err = run_cli(["rewrite", "Q^{10} Q^{0}", "--budget", "0"], capsys)
    assert code == 3
    code, out, err = run_cli(["rewrite", "Q^{10} Q^{0}", "--budget", "-1"], capsys)
    assert (code, out) == (2, "") and "budget must be a nonnegative integer" in err
    code, _, err = run_cli(["rewrite", "Q^{2} Q^{0}", "--p", "4"], capsys)
    assert code == 2
    code, _, err = run_cli(["rewrite", ""], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# basis / table / act / dmodule


def test_basis_examples(sign_ctx_file, capsys):
    code, out, _ = run_cli(["basis", "--context", sign_ctx_file, "4", "1"], capsys)
    assert (code, out) == (0, "x * bQ^{1/2} x\n")
    code, out, _ = run_cli(["basis", "--context", sign_ctx_file, "0", "0"], capsys)
    assert (code, out) == (0, "1\n")
    # the unit has charge 0, above a negative cutoff
    code, out, _ = run_cli(["basis", "--context", sign_ctx_file, "--max-charge", "-5", "0", "0"],
                           capsys)
    assert (code, out) == (0, "")
    code, out, _ = run_cli(["basis", "--context", sign_ctx_file, "2", "0"], capsys)
    assert (code, out) == (0, "")


def test_act_examples(sign_ctx_file, untw_ctx_file, capsys):
    code, out, _ = run_cli(["act", "--context", sign_ctx_file, "Q^{1/2}", "x"], capsys)
    assert (code, out) == (0, "Q^{1/2} x\n")
    code, out, _ = run_cli(["act", "--context", sign_ctx_file, "Q^{3}", "1"], capsys)
    assert (code, out) == (0, "0\n")
    code, out, _ = run_cli(["act", "--context", untw_ctx_file, "Q^{1}", "x"], capsys)
    assert (code, out) == (0, "x^3\n")


def test_act_validation(sign_ctx_file, capsys):
    code, _, err = run_cli(
        ["act", "--context", sign_ctx_file, "Q^{1/2} Q^{1/2}", "x"], capsys
    )
    assert code == 2
    code, _, err = run_cli(["act", "--context", sign_ctx_file, "Q^{1/2}", "y"], capsys)
    assert code == 2 and "unknown generator" in err


@pytest.mark.parametrize("power", ["x^1000", "x^30000"])
def test_long_power_exits_3(untw0_ctx_file, capsys, power):
    # each multiply of the partial power draws on the budget
    start = time.perf_counter()
    code, out, err = run_cli(
        ["act", "--context", untw0_ctx_file, "--budget", "10", "Q^{0}", power], capsys
    )
    assert (code, out) == (3, "") and err.startswith("error: power")
    assert time.perf_counter() - start < 2.0


def test_long_power_parses_by_squaring(untw0_ctx_file, capsys):
    # x^3000 takes 11 squarings and 6 multiplies into the power, and Q^0 on
    # it acts on the blocks x^2187, x^729, x^81 and x^3
    code, out, _ = run_cli(["act", "--context", untw0_ctx_file, "Q^{0}", "x^3000"], capsys)
    assert (code, out) == (0, "x^9000\n")


@pytest.mark.parametrize("k", [4, 5])
def test_frobenius_powers(untw0_ctx_file, capsys, k):
    # Q^{p^k} on x^(p^k) is (Q^1 x)^(p^k), one block, x untwisted in degree 0
    q = 3**k
    start = time.perf_counter()
    code, out, _ = run_cli(["act", "--context", untw0_ctx_file, f"Q^{{{q}}}", f"x^{q}"], capsys)
    assert (code, out) == (0, f"Q^{{1}} x^{q}\n")
    assert time.perf_counter() - start < 5.0


def test_product_draws_on_the_budget(tmp_path, capsys):
    # multiply and the Cartan step draw on the command's budget: at the
    # default this action prints 50,784 terms after about 8 s
    cfg = dict(_SIGN_CFG, chi=[1], generators=[
        {"name": name, "g": [1], "n": n} for name, n in (("x", 2), ("y", 4), ("z", 6))])
    path = tmp_path / "xyz.json"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    code, out, err = run_cli(["act", "--context", str(path), "--budget", "50", "Q^{60}",
                              "Q^{3} x * Q^{4} y * Q^{5} z * x * y * z"], capsys)
    assert (code, out) == (3, "") and "budget of 50 units" in err
    assert time.perf_counter() - start < 1.0


def test_suffix_after_a_block_draws_on_the_budget(tmp_path, capsys):
    # Q^{5000000} on x^81 * y * z has 61,728 pieces at the top, where x^81
    # takes only indices divisible by 81, but the suffix z is read at each
    # of about 5 * 10^6 indices: that excess is charged before it is read
    cfg = dict(_SIGN_CFG, chi=[1], generators=[
        {"name": name, "g": [1], "n": n} for name, n in (("x", 2), ("y", 4), ("z", 6))])
    path = tmp_path / "xyz.json"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    code, out, err = run_cli(["act", "--context", str(path), "Q^{5000000}", "x^81 * y * z"],
                             capsys)
    assert (code, out) == (3, "") and err.startswith("error: Cartan pieces")
    assert time.perf_counter() - start < 0.5


def test_family_row_draws_on_the_budget(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["rewrite", "Q^{3000000} Q^{0}", "--budget", "10"], capsys)
    assert (code, out) == (3, "") and err.startswith("error: Adem family rows")
    assert time.perf_counter() - start < 0.5
    code, out, _ = run_cli(["rewrite", "Q^{3000000} Q^{0}"], capsys)
    assert (code, out) == (3, "")
    # a row of 2,000 binomials: 165 terms
    code, out, _ = run_cli(["rewrite", "Q^{3000} Q^{0}"], capsys)
    assert code == 0 and out.startswith("2 Q^{1} Q^{2999} + ") and out.count(" + ") == 164


@pytest.mark.parametrize("argv", [
    ["rewrite", "Q^{%s} Q^{0}" % ("9" * 52), "--budget", "5"],
    ["act", "--context", "CTX", "Q^{%s}" % ("9" * 52), "x * x"],
    ["act", "--context", "CTX", "Q^{%s}" % ("9" * 52), "x * x * x * x"],
    ["table", "--context", "CTX0", "--max-degree", "0", "--max-charge", "1" + "0" * 600],
])
def test_huge_indices_exit_3(untw_ctx_file, untw0_ctx_file, capsys, argv):
    # an Adem family row, a Cartan sum of about 10^52 terms or the 10^600
    # powers of a degree-0 x is counted, not listed, so the meter refuses it
    # at once; x^4 splits as x^3 * x, so its sum still has 3.3 * 10^51 terms
    files = {"CTX": untw_ctx_file, "CTX0": untw0_ctx_file}
    argv = [files.get(a, a) for a in argv]
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "") and err.startswith("error:")
    assert time.perf_counter() - start < 0.5


def test_huge_index_on_a_cube(untw_ctx_file, capsys):
    # x^3 is one block: Q^s(x^3) = (Q^{s/3} x)^3, with no Cartan sum
    start = time.perf_counter()
    code, out, _ = run_cli(["act", "--context", untw_ctx_file, "Q^{%s}" % ("9" * 52),
                            "x * x * x"], capsys)
    assert (code, out) == (0, "Q^{%s} x^3\n" % ("3" * 52))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("argv", [
    ["rewrite", "Q^{%s} Q^{0}" % ("1" * 5000)],
    ["act", "--context", "CTX", "Q^{1/2}", "x^" + "1" * 5000],
    ["act", "--context", "CTX", "Q^{1/2}", "1" * 5000 + " * x"],
])
def test_huge_numerals_exit_2(sign_ctx_file, capsys, argv):
    argv = [sign_ctx_file if a == "CTX" else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "") and err.startswith("error:") and "5000 digits" in err


def test_long_words_need_no_stack(untw0_ctx_file, capsys):
    # the free-module basis of a degree-0 x at charge 10^600 holds Q^{0}^k x
    # for k up to 1,257, far past the interpreter's recursion limit
    start = time.perf_counter()
    code, out, err = run_cli(["dmodule", "--context", untw0_ctx_file, "--max-degree", "0",
                              "--max-charge", "1" + "0" * 600], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1258 and lines[0] == "x"
    assert lines[-1] == "Q^{0} " * 1257 + "x"
    assert time.perf_counter() - start < 2.0


def test_power_within_budget(untw0_ctx_file, capsys):
    code, out, _ = run_cli(["act", "--context", untw0_ctx_file, "Q^{0}", "x^300"], capsys)
    assert (code, out) == (0, "x^900\n")


def test_table_tsv_and_json(tmp_path, capsys):
    cfg = {
        "version": 1,
        "p": 3,
        "grading": {"free_rank": 1, "torsion_orders": []},
        "chi": [-1],
        "generators": [{"name": "x", "g": [1], "n": 0}],
        "max_degree": 3,
        "max_charge": 4,
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["table", "--context", str(path)], capsys)
    assert code == 0
    assert out.splitlines()[0] == "charge\tg\tdegree\tdim"
    assert "3\t3\t1\t1" in out.splitlines()
    code, out2, _ = run_cli(["table", "--context", str(path), "--format", "json"], capsys)
    doc = json.loads(out2)
    assert doc["version"] == 1
    assert {"charge": 3, "g": "3", "degree": 1, "dim": 1} in doc["rows"]


def test_table_empty_generators(tmp_path, capsys):
    cfg = {
        "version": 1,
        "p": 3,
        "grading": {"free_rank": 0, "torsion_orders": []},
        "chi": [],
        "generators": [],
        "max_degree": 2,
        "max_charge": 3,
    }
    path = tmp_path / "e.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["table", "--context", str(path)], capsys)
    assert code == 0
    assert out == "charge\tg\tdegree\tdim\n0\t\t0\t1\n"


def test_table_and_basis_budget(sign_ctx_file, capsys):
    # 395,339 monomials: the budget stops the table count, and the walk, early
    start = time.perf_counter()
    code, out, err = run_cli(["table", "--context", sign_ctx_file, "--max-degree", "60",
                              "--max-charge", "81", "--budget", "1000"], capsys)
    assert (code, out) == (3, "") and "budget" in err
    assert time.perf_counter() - start < 2.0
    # the word search and the powers it charges take 2 + 2 units, the walk 4
    code, out, err = run_cli(["basis", "--context", sign_ctx_file, "--budget", "4", "4", "1"],
                             capsys)
    assert (code, out) == (3, "") and "monomial enumeration" in err
    code, out, _ = run_cli(["basis", "--context", sign_ctx_file, "--budget", "8", "4", "1"],
                           capsys)
    assert (code, out) == (0, "x * bQ^{1/2} x\n")


def test_dmodule(tmp_path, capsys):
    cfg = {
        "version": 1,
        "p": 3,
        "grading": {"free_rank": 1, "torsion_orders": []},
        "chi": [-1],
        "generators": [{"name": "x", "g": [1], "n": 0}],
        "max_degree": 3,
        "max_charge": 9,
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["dmodule", "--context", str(path)], capsys)
    assert code == 0
    assert out.splitlines() == [
        "x",
        "Q^{1/2} x",
        "bQ^{1/2} x",
        "Q^{1/2} bQ^{1/2} x",
    ]


def test_dmodule_cli_needs_charge_cutoff(tmp_path, capsys):
    cfg = dict(_SIGN_CFG)
    del cfg["max_charge"]
    path = tmp_path / "d.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(["dmodule", "--context", str(path)], capsys)
    assert (code, out) == (2, "") and "--max-charge" in err


def test_config_validation(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(["table", "--context", str(path)], capsys)
    assert code == 2
    path.write_text(json.dumps({"version": 99}))
    code, _, err = run_cli(["table", "--context", str(path)], capsys)
    assert code == 2 and "version" in err
    code, _, err = run_cli(["table"], capsys)
    assert code == 2 and "--context" in err


_SIGN_CFG = {
    "version": 1,
    "p": 3,
    "grading": {"free_rank": 1, "torsion_orders": []},
    "chi": [-1],
    "generators": [{"name": "x", "g": [1], "n": 0}],
    "max_degree": 10,
    "max_charge": 9,
}


@pytest.mark.parametrize("key,value", [
    ("p", "3"), ("p", 3.0),
    ("max_degree", "10"), ("max_charge", 9.5), ("budget", "x"),
    ("free_rank", "1"), ("free_rank", 1.0),
    ("torsion_orders", ["2"]), ("torsion_orders", 2),
    ("chi", -1), ("generators", 5), ("g", 1),
    # JSON booleans are not integers
    ("max_degree", True), ("max_charge", True), ("budget", True), ("free_rank", True),
    ("chi", [True]), ("n", False), ("g", [True]),
    ("budget", -1),
])
def test_malformed_config_exits_2(tmp_path, capsys, key, value):
    cfg = json.loads(json.dumps(_SIGN_CFG))
    if key in ("free_rank", "torsion_orders"):
        cfg["grading"][key] = value
    elif key in ("g", "n"):
        cfg["generators"][0][key] = value
    else:
        cfg[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(["table", "--context", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("key,value,message", [
    ("name", "", "generator name must be a nonempty string"),
    ("name", 5, "generator name must be a nonempty string"),
    ("n", True, "generator degree must be an integer, got True"),
    ("n", 1.5, "generator degree must be an integer, got 1.5"),
    ("g", 1, "generator grading must be a list, got 1"),
])
def test_bad_generator_exits_2(tmp_path, capsys, key, value, message):
    cfg = json.loads(json.dumps(_SIGN_CFG))
    cfg["generators"][0][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(["table", "--context", str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("cfg,argv,message", [
    ([1], ["table"], "context config must be a JSON object"),
    ({**_SIGN_CFG, "colour": 1}, ["table"], "unknown config keys: ['colour']"),
    ({k: v for k, v in _SIGN_CFG.items() if k != "p"}, ["table"], "config is missing 'p'"),
    ({**_SIGN_CFG, "grading": 5}, ["table"], "grading must be an object"),
    ({**_SIGN_CFG, "generators": [{"name": "x"}]}, ["table"],
     "generator entries need name/g/n, got {'name': 'x'}"),
    (None, ["table"], "cannot read context file: [Errno 2] No such file or directory: 'PATH'"),
    (_SIGN_CFG, ["basis", "1,x", "0"],
     "grading vector must be comma-separated integers, got '1,x'"),
    ({**_SIGN_CFG, "generators": [{"name": "x", "g": [1], "n": 0},
                                  {"name": "y", "g": [1], "n": 1}]}, ["dmodule"],
     "--gen NAME is required with several generators"),
], ids=["not-object", "unknown-key", "missing-p", "grading", "generator-keys",
        "unreadable", "grading-vector", "several-generators"])
def test_config_errors_exit_2(tmp_path, capsys, cfg, argv, message):
    # the context is read before the command runs: each fault exits 2 with
    # its message alone.  A cfg of None leaves the file unwritten
    path = tmp_path / "ctx.json"
    if cfg is not None:
        path.write_text(json.dumps(cfg))
    code, out, err = run_cli([argv[0], "--context", str(path), *argv[1:]], capsys)
    assert (code, out, err) == (2, "", f"error: {message.replace('PATH', str(path))}\n")


def test_basis_rejects_wrong_rank(sign_ctx_file, capsys):
    code, out, err = run_cli(["basis", "--context", sign_ctx_file, "1,2", "4"], capsys)
    assert (code, out) == (2, "") and err.startswith("error:")


def test_huge_p_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["rewrite", "Q^{2} Q^{0}", "--p", "1000000000000000003"], capsys)
    assert (code, out) == (2, "") and "2^31" in err
    assert time.perf_counter() - start < 2.0


def test_example_tables(capsys):
    code, out, _ = run_cli(
        ["example", "alternating", "--max-degree", "1", "--max-charge", "4"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert "A_3\t3\t1\t1\tbQ^{1/2} x" in lines
    assert "A_4\t4\t1\t1\tx * bQ^{1/2} x" in lines
    code, out, _ = run_cli(
        ["example", "sym-sign", "--max-degree", "10", "--max-charge", "3",
         "--format", "json"], capsys
    )
    doc = json.loads(out)
    col = {r["degree"]: r["dim"] for r in doc["rows"] if r["charge"] == 3}
    assert col == {q: 1 for q in range(11) if q % 4 in (1, 2)}


def test_example_spends_one_budget(capsys):
    # each column fits 1,600 units (the trivial one takes 1,511, the sign one
    # 755), the two columns together (2,266) do not
    argv = ["example", "alternating", "--max-degree", "20", "--max-charge", "27"]
    code, out, err = run_cli(argv + ["--budget", "1600"], capsys)
    assert (code, out) == (3, "") and "monomial enumeration" in err
    code, out, _ = run_cli(argv + ["--budget", "3000"], capsys)
    assert code == 0 and out == run_cli(argv, capsys)[1]


def test_selfcheck(capsys):
    code, out, _ = run_cli(["selfcheck"], capsys)
    assert code == 0
    assert out.splitlines()[-1].endswith("suites passed")
    assert not any(line.startswith("FAIL") for line in out.splitlines())


def test_selfcheck_checks_under_optimize():
    # python -O strips assert statements; the suites must fail all the same
    code = ("import sys, dyerlashof.cli as cli\n"
            "cli.sym_sign_table = lambda *args: {}\n"
            "sys.exit(cli.main(['selfcheck']))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(dyerlashof.__file__).parents[1])}
    sub = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, env=env)
    assert sub.returncode == 1
    lines = sub.stdout.splitlines()
    assert "FAIL homology-oracles: sym-sign degrees at charge 3 are [], not " \
        "[1, 2, 5, 6, 9, 10]" in lines
    assert lines[-1] == "selfcheck: 6/7 suites passed"


def test_selfcheck_checks_the_swan_count():
    # one dimension of the trivial column at charge 6 lowered: the first
    # oracle checks (charge 3) pass, and Swan's count must catch it, under -O
    code = ("import sys, dyerlashof.appcalc as appcalc, dyerlashof.cli as cli\n"
            "def table(*args):\n"
            "    rows = appcalc.sym_trivial_table(*args)\n"
            "    rows[6, 7] = rows[6, 7]._replace(dim=1)\n"
            "    return rows\n"
            "cli.sym_trivial_table = table\n"
            "sys.exit(cli.main(['selfcheck']))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(dyerlashof.__file__).parents[1])}
    sub = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, env=env)
    assert sub.returncode == 1
    lines = sub.stdout.splitlines()
    assert any(line.startswith("FAIL homology-oracles: sym-trivial dimensions at charge 6 "
                               "are [(0, 1), (3, 1), (4, 1), (7, 1), (8, 2),") for line in lines)
    assert lines[-1] == "selfcheck: 6/7 suites passed"


def test_import_loads_no_dataclasses():
    # the records are named tuples, so the CLI's import skips dataclasses and
    # the inspect machinery it pulls in
    code = ("import sys, dyerlashof.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(dyerlashof.__file__).parents[1])}
    sub = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (sub.returncode, sub.stdout) == (0, "[]\n")


# ---------------------------------------------------------------------------
# the flag surface: each command takes only the settings it reads

_COMMAND_FLAGS = {
    "rewrite": {"--p", "--budget"},
    "basis": {"--context", "--p", "--max-charge", "--budget"},
    "table": {"--context", "--p", "--max-degree", "--max-charge", "--budget", "--format"},
    "act": {"--context", "--p", "--budget"},
    "dmodule": {"--gen", "--context", "--p", "--max-degree", "--max-charge", "--budget"},
    "example": {"--p", "--max-degree", "--max-charge", "--budget", "--format"},
    "selfcheck": set(),
}


def test_each_command_takes_only_its_flags():
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {f for a in sub._actions for f in a.option_strings} - {"-h", "--help"}
        for name, sub in subs.choices.items()
    }
    assert got == _COMMAND_FLAGS


@pytest.mark.parametrize("argv", [
    ["rewrite", "Q^{2} Q^{0}", "--max-degree", "3"],
    ["rewrite", "Q^{2} Q^{0}", "--max-charge", "3"],
    ["basis", "--context", "CTX", "4", "1", "--max-degree", "3"],
    ["act", "--context", "CTX", "Q^{1/2}", "x", "--max-degree", "3"],
    ["act", "--context", "CTX", "Q^{1/2}", "x", "--max-charge", "3"],
    ["selfcheck", "--p", "5"],
    ["selfcheck", "--max-degree", "1"],
    ["selfcheck", "--max-charge", "1"],
    ["selfcheck", "--budget", "1"],
])
def test_unread_flags_exit_2(sign_ctx_file, capsys, argv):
    argv = [sign_ctx_file if a == "CTX" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# determinism and round-trip


def test_byte_determinism(sign_ctx_file, capsys):
    argv = ["table", "--context", sign_ctx_file, "--max-degree", "6", "--max-charge", "9"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2
    cmd = [sys.executable, "-m", "dyerlashof.cli"] + argv
    # the child imports the package this process imported
    env = {**os.environ, "PYTHONPATH": str(Path(dyerlashof.__file__).parents[1])}
    sub = subprocess.run(cmd, capture_output=True, text=True, check=True, env=env)
    assert sub.stdout == out1


def test_closed_pipe_exits_1_without_traceback(untw0_ctx_file):
    # `table ... | head -1`: the reader leaves after one line of 20,001 rows
    cmd = [sys.executable, "-m", "dyerlashof.cli", "table", "--context", untw0_ctx_file,
           "--max-degree", "0", "--max-charge", "20000"]
    env = {**os.environ, "PYTHONPATH": str(Path(dyerlashof.__file__).parents[1])}
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as sub:
        assert sub.stdout.readline() == b"charge\tg\tdegree\tdim\n"
        sub.stdout.close()
        err = sub.stderr.read()
        assert sub.wait(timeout=60) == 1
    assert b"Traceback" not in err


def test_word_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        k = rng.randint(1, 4)
        par = rng.randint(0, 1)
        w = tuple((rng.randint(0, 1), 2 * rng.randint(-6, 6) + par) for _ in range(k))
        assert parse_word(word_str(w)) == w


@pytest.mark.parametrize("twist,gen_n", [(-1, 0), (1, 0), (1, 2)])
def test_element_roundtrip(twist, gen_n):
    ctx = point_context(3, twist, 8, 9)
    if gen_n:
        from dyerlashof.freealg import Context, Generator

        ctx = Context(3, ctx.group, ctx.chi, [Generator("x", (1,), gen_n)],
                      max_degree=8, max_charge=9)
    monos = [m for m, _, n, _ in _enumerate_monomials(ctx, 8, 9) if n >= 0]
    rng = random.Random(23)
    for _ in range(80):
        picks = rng.sample(monos, k=min(len(monos), rng.randint(1, 3)))
        elt = AlgebraElement(ctx, {m: rng.randint(1, 2) for m in picks})
        assert parse_element(element_str(elt), ctx) == elt
    assert parse_element("0 * x + x + 2 * x", ctx).is_zero
    assert parse_element("1", ctx) == AlgebraElement.unit(ctx)
    assert parse_element("2", ctx) == AlgebraElement.unit(ctx).scale(2)


# The accepted language, one row per expression: the element it denotes in
# the sign context (x twisted, in degree 0, so x^2 = 0 but its bQ^{1/2} x
# squares), or the ValidationError message it raises.  A numeral opens its
# term as the coefficient, except a 1 not followed by '*', the unit factor.
_GRAMMAR = [
    ("1", "1"),
    ("2", "2 * 1"),
    ("-1", "2 * 1"),
    ("01", "1"),
    ("0", "0"),
    ("01 * x", "x"),
    ("-1 * x", "2 * x"),
    ("1 * x", "x"),
    ("1 * 1", "1"),
    ("2 * 1", "2 * 1"),
    ("2 * 1^2", "2 * 1"),
    ("x * 1", "x"),
    ("1^2", "1"),
    ("1 + x", "1 + x"),
    ("x + 2 * x", "0"),
    ("x^2", "0"),
    ("bQ^{1/2} x^2", "bQ^{1/2} x^2"),
    ("bQ^{1/2} x * bQ^{1/2} x", "bQ^{1/2} x^2"),
    ("2 x", "parse error at position 2: expected '*' or '+' after a coefficient, got 'x'"),
    ("2^2", "parse error at position 1: expected '*' or '+' after a coefficient, got '^'"),
    ("x * 2", "parse error at position 4: expected a generator name or '1', got '2'"),
    ("1 * 2", "parse error at position 4: expected a generator name or '1', got '2'"),
    ("x x", "parse error at position 2: expected '+' between terms, got 'x'"),
    ("1 x", "parse error at position 2: expected '+' between terms, got 'x'"),
    ("x +", "parse error at position 3: expected a generator name or '1', got end of input"),
    ("1 *", "parse error at position 3: expected a generator name or '1', got end of input"),
    ("", "parse error at position 0: expected a generator name or '1', got end of input"),
    ("Q^{1/2}", "parse error at position 7: expected a generator name or '1', got end of input"),
    ("Q^{1/2} 1", "parse error at position 8: expected a generator name or '1', got '1'"),
    ("x^0", "parse error at position 2: expected a positive exponent, got '0'"),
    ("y", "parse error at position 0: unknown generator 'y'"),
    ("x $", "parse error at position 2: '$'"),
]


@pytest.mark.parametrize("text,want", _GRAMMAR)
def test_grammar_table(text, want):
    ctx = point_context(3, -1, 10, 9)
    if want.startswith("parse error"):
        with pytest.raises(ValidationError) as exc:
            parse_element(text, ctx)
        assert str(exc.value) == want
    else:
        assert element_str(parse_element(text, ctx)) == want


def test_a_one_before_star_is_a_coefficient():
    # read as the unit factor, the 1 would cost a multiply by x
    with Meter(100) as meter:
        assert element_str(parse_element("1 * x", point_context(3, -1, 10, 9))) == "x"
    assert meter.counts == {}


def test_long_element_roundtrip_is_linear():
    # 2,000 terms of 88 kB: parsing sums the terms once, not once per term
    ctx = point_context(3, 1, 40, 81)
    monos = [m for m, _, _, _ in _enumerate_monomials(ctx, 40, 81)][:2000]
    elt = AlgebraElement(ctx, {m: 1 + i % 2 for i, m in enumerate(monos)})
    text = element_str(elt)
    start = time.perf_counter()
    assert parse_element(text, ctx) == elt
    assert time.perf_counter() - start < 2.0
