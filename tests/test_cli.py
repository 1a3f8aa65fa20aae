import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import f2lab
from f2lab import bench, cli, core, energy, inverse, wht
from f2lab.cli import (
    canonical_results,
    execute,
    main,
    parse_fraction,
    replay,
    run_config,
)
from f2lab.bench import FAMILIES, _finish, _precondition_failed
from f2lab.core import F2Set, bits_to_string, parse_set, serialize_set
from f2lab.dissociation import random_dissociated
from f2lab.permanent import CombMatrix, parse_matrix, reduced_permanent_check

from oracles import naive_wht

SET_BASIS3 = "4\n1000\n0100\n0010\n"
SET_BAD = "3\n102\n"
MATRIX_ALL_ONES = "2 3\n1 1 1\n1 1 1\n"
MATRIX_ZERO_ROW = "2 2\n0 0\n1 1\n"
SET_R = "4\n0000\n0110\n"
SET_PAIRS3 = "4\n1100\n1010\n0110\n"  # the 2-fold distinct sumset of SET_BASIS3


def run_cli(args, tmp_path):
    """Invoke main() in-process, capturing the report JSON."""
    import io
    from contextlib import redirect_stdout

    out = io.StringIO()
    with redirect_stdout(out):
        code = main(args)
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else None


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_fraction():
    from fractions import Fraction

    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("5") == Fraction(5)
    with pytest.raises(ValueError):
        parse_fraction("0.5")


def test_energy_cli_basis3(tmp_path):
    path = write(tmp_path, "basis3.set", SET_BASIS3)
    code, report = run_cli(["energy", "--set", path, "--k", "2", "--method", "all"], tmp_path)
    assert code == 0
    assert report["results"]["value"] == 21
    assert report["results"]["agree"] is True
    assert set(report["results"]["methods"]) == {"brute", "spectral", "conv"}


def test_energy_malformed_set_exit2(tmp_path):
    path = write(tmp_path, "bad.set", SET_BAD)
    code, _ = run_cli(["energy", "--set", path, "--k", "2"], tmp_path)
    assert code == 2


def test_energy_cap_is_on_rank_not_dimension(tmp_path, capsys, monkeypatch):
    # spectral and conv routes run in the coordinates of the span: a set in
    # F_2^12 of rank 3 is answered under a cap of 2^4, a rank-5 set refused
    monkeypatch.setattr(wht, "WHT_DIM_CAP", 4)
    deficient = write(tmp_path, "rank3.set", "12\n100000000001\n000001000000\n100001000001\n000000010000\n")
    for method in ("spectral", "conv", "all"):
        code, report = run_cli(["energy", "--set", deficient, "--k", "2", "--method", method], tmp_path)
        assert code == 0 and report["results"]["value"] == 40  # the tuple-count oracle's T_2
    full = write(tmp_path, "rank5.set", "5\n10000\n01000\n00100\n00010\n00001\n")
    for method in ("spectral", "conv"):
        code, report = run_cli(["energy", "--set", full, "--k", "2", "--method", method], tmp_path)
        assert code == 2 and report is None
        assert "exceeds cap" in json.loads(capsys.readouterr().err)["error"]


def test_spectrum_cli_with_alpha_and_csv(tmp_path):
    path = write(tmp_path, "basis3.set", SET_BASIS3)
    out_csv = str(tmp_path / "spec.csv")
    code, report = run_cli(
        ["spectrum", "--set", path, "--alpha", "3/16", "--out", out_csv], tmp_path
    )
    assert code == 0
    assert report["results"]["parseval_ok"] is True
    # |A_hat(r)| = 3 exactly when r hits e1, e2, e3 with equal parity;
    # the fourth coordinate is free: r in {0000, 1110, 0001, 1111}
    assert report["results"]["large_spectrum"] == ["0000", "1110", "0001", "1111"]
    lines = open(out_csv).read().splitlines()
    assert lines[0] == "r,coefficient"
    assert len(lines) == 17


def test_dissociate_cli(tmp_path):
    path = write(tmp_path, "l.set", "3\n100\n010\n110\n")
    code, report = run_cli(["dissociate", "--check", path, "--k", "3"], tmp_path)
    assert code == 1  # dependence found
    assert report["results"]["status"] == "false"
    assert report["results"]["witness"] == ["100", "010", "110"]
    code, report = run_cli(["dissociate", "--check", path, "--k", "2"], tmp_path)
    assert code == 0
    assert report["results"]["status"] == "true"


def test_permanent_and_fk_cli(tmp_path):
    path = write(tmp_path, "m.mat", MATRIX_ALL_ONES)
    code, report = run_cli(["permanent", "--matrix", path], tmp_path)
    assert code == 0 and report["results"]["permanent"] == 6
    path2 = write(tmp_path, "z.mat", MATRIX_ZERO_ROW)
    code, report = run_cli(["fk-test", "--matrix", path2], tmp_path)
    assert code == 0 and report["results"]["verdict"] == "zero"


def test_lemma_per0_cli(tmp_path):
    code, report = run_cli(["lemma-per0", "--exhaustive", "2", "3"], tmp_path)
    assert code == 0
    assert report["results"]["all_reduced_permanents_positive"] is True
    assert report["results"]["hypotheses_satisfied"] > 0


@pytest.mark.parametrize("p, r", [(1, 3), (2, 5)])
def test_lemma_per0_without_hypotheses_exit2(tmp_path, p, r):
    # R > 2P: no row sums of 2 cover every column, so "all positive" would certify nothing
    code, report = run_cli(["lemma-per0", "--exhaustive", str(p), str(r)], tmp_path)
    assert code == 2
    assert report["results"]["matrices_scanned"] == 3 ** (p * r)
    assert report["results"]["hypotheses_satisfied"] == 0


@pytest.mark.parametrize("p, r", [("3", "0"), ("0", "3"), ("-1", "3")])
def test_lemma_per0_size_below_one_exit2(tmp_path, capsys, p, r):
    code, report = run_cli(["lemma-per0", "--exhaustive", p, r], tmp_path)
    assert code == 2 and report is None
    assert "--exhaustive" in json.loads(capsys.readouterr().err)["error"]


def test_lemma_per0_over_cap_exit2(tmp_path, capsys):
    code, report = run_cli(["lemma-per0", "--exhaustive", "4", "5"], tmp_path)
    err = capsys.readouterr().err
    assert (code, report) == (2, None)
    assert "Traceback" not in err
    assert json.loads(err) == {"error": "exhaustive family limited to p*r <= 16, got 20"}


@pytest.mark.parametrize("p, r", [(p, r) for p in range(1, 11) for r in range(1, 11) if p * r <= 10])
def test_lemma_per0_matches_full_family_scan(p, r):
    # the command builds only rows summing to 2; the oracle scans all 3^(p*r)
    satisfied = 0
    all_positive = True
    for flat in itertools.product((0, 1, 2), repeat=p * r):
        if sum(flat) != 2 * p:
            continue
        rows = tuple(tuple(flat[i * r : (i + 1) * r]) for i in range(p))
        failures, _, positive = reduced_permanent_check(CombMatrix(rows))
        if not failures:
            satisfied += 1
            all_positive = all_positive and positive
    out = run_config({"command": "lemma-per0", "p": p, "r": r})
    assert out.results == {
        "matrices_scanned": 3 ** (p * r),
        "hypotheses_satisfied": satisfied,
        "all_reduced_permanents_positive": all_positive,
    }
    assert out.exit_code == ((0 if all_positive else 1) if satisfied else 2)


def test_bench_cli_majority_single_n(tmp_path):
    # spec-style invocation: one instance at n = 20, delta = 1/64
    code, report = run_cli(
        ["bench", "--theorem", "majority", "--n", "20", "--delta", "1/64"], tmp_path
    )
    assert code == 0
    assert report["results"]["violated"] == 0
    assert any("n=20 " in row["instance"] for row in report["results"]["rows"])


@pytest.mark.parametrize(
    "family", ("rudin", "holder", "subadd", "pi", "soph", "inverse2", "bombieri", "greedy")
)
def test_bench_checker_family_exit_and_replay(tmp_path, family):
    report_path = str(tmp_path / "run.json")
    code, report = run_cli(
        ["bench", "--theorem", family, "--count", "3", "--seed", "1", "--report", report_path],
        tmp_path,
    )
    statuses = [row["status"] for row in report["results"]["rows"]]
    other = set(statuses) - {"holds", "violated"}
    assert statuses and code == (1 if "violated" in statuses else 2 if other else 0)
    code, replayed = run_cli(["replay", report_path], tmp_path)
    assert code == 0 and replayed["results"]["match"] is True


@pytest.mark.parametrize(
    "status, code", [("violated", 1), ("undecided", 2), ("precondition-failed", 2), ("holds", 0)]
)
def test_bench_exit_code_follows_row_statuses(tmp_path, monkeypatch, status, code):
    row = {
        "violated": lambda: _finish("t", "i", 3, 2, "le"),
        "undecided": lambda: _finish("t", "i", 1, 2, "le", status="undecided"),
        "precondition-failed": lambda: _precondition_failed("t", "i", "why"),
        "holds": lambda: _finish("t", "i", 2, 2, "le"),
    }[status]()
    rows = [_finish("t", "i", 1, 2, "le"), row]
    monkeypatch.setattr(bench, "run_family", lambda name, count, seed: rows)
    out_csv = tmp_path / "rows.csv"
    _, got = execute({"command": "bench", "theorem": "diss", "count": 2}, str(out_csv))
    assert got == code
    lines = out_csv.read_text().splitlines()
    assert [line.split(",")[4] for line in lines] == ["status", "holds", status]


def test_bench_csv_keeps_its_bytes(tmp_path):
    # the CSV is built only when --out reads it; these are the bytes it had
    # when every run built it
    out_csv = tmp_path / "rows.csv"
    execute({"command": "bench", "theorem": "diss", "count": 3, "seed": 1}, str(out_csv))
    digest = "6afffc911b0ee5365affdf8be8bdda577ab500465a33d0db7e2c2257f51f1dd7"
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest


def test_bench_families_cover_every_checker():
    emitted = set()
    for family in (*bench.FAMILIES, "majority"):
        report, _ = execute({"command": "bench", "theorem": family, "count": 2, "seed": 0})
        emitted.update(row["theorem"] for row in report["results"]["rows"])
    checkers = {
        name[len("check_"):].replace("_", "-") for name in dir(bench) if name.startswith("check_")
    }
    assert checkers <= emitted


@pytest.mark.parametrize("flags", [["--delta", "0"], ["--n", "0"]])
def test_bench_majority_bad_delta_or_n_exit2(tmp_path, capsys, flags):
    code, report = run_cli(["bench", "--theorem", "majority", *flags], tmp_path)
    assert code == 2 and report is None
    assert "error" in json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_bench_nonpositive_count_exit2(tmp_path, capsys, count):
    # zero rows would read as exit 0, "everything holds", with nothing checked
    for theorem in FAMILIES:
        code, report = run_cli(["bench", "--theorem", theorem, "--count", count], tmp_path)
        assert code == 2 and report is None
        assert "--count" in json.loads(capsys.readouterr().err)["error"]


def test_bench_unknown_family_exit2(tmp_path, capsys):
    # the handler, not the parser, checks the name, as it does for a replayed config
    code, report = run_cli(["bench", "--theorem", "nosuch"], tmp_path)
    assert code == 2 and report is None
    assert "'nosuch'" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("d", ["0", "-2"])
def test_bench_majority_nonpositive_d_exit2_before_building(tmp_path, capsys, monkeypatch, d):
    def no_build(n, delta, d):
        raise AssertionError("--d must be refused before any instance is built")

    monkeypatch.setattr(bench, "verify_majority", no_build)
    code, report = run_cli(["bench", "--theorem", "majority", "--d", d], tmp_path)
    assert code == 2 and report is None
    assert "--d" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_spectrum_csv_bytes_match_reference(tmp_path, dim):
    rng = random.Random(dim)
    elems = set(rng.sample(range(1 << dim), 1 + (1 << dim) // 3))
    text = f"{dim}\n" + "".join(bits_to_string(e, dim) + "\n" for e in elems)
    path = write(tmp_path, "a.set", text)
    out_csv = tmp_path / "a.csv"
    code, report = run_cli(["spectrum", "--set", path, "--out", str(out_csv)], tmp_path)
    assert code == 0
    table = naive_wht([int(x in elems) for x in range(1 << dim)])
    rows = "".join(f"{bits_to_string(r, dim)},{v}\n" for r, v in enumerate(table))
    expect = ("r,coefficient\n" + rows).encode()
    assert out_csv.read_bytes() == expect
    assert report["results"]["csv_sha256"] == hashlib.sha256(expect).hexdigest()


@pytest.mark.parametrize("dim", range(1, 8))
def test_spectrum_csv_template_matches_per_line_rendering(dim):
    # one %-template per high half-word against one f-string per row, on
    # signed tables with zeros and values beyond 64 bits; n = 1 has low = 0
    rng = random.Random(100 + dim)
    values = tuple(rng.choice((0, -1, 7, rng.randint(-(2**70), 2**70))) for _ in range(1 << dim))
    rows = "".join(f"{bits_to_string(r, dim)},{v}\n" for r, v in enumerate(values))
    got = "".join(cli._spectrum_csv(wht.IntFunction(dim, values)))
    assert got.encode() == ("r,coefficient\n" + rows).encode()


def test_dissociate_empty_forbidden_file_exit2(tmp_path, capsys):
    lpath = write(tmp_path, "l.set", "4\n1000\n0110\n")
    rpath = write(tmp_path, "empty.set", "")
    code, report = run_cli(["dissociate", "--check", lpath, "--k", "1", "--R", rpath], tmp_path)
    assert code == 2 and report is None
    assert "empty set file" in json.loads(capsys.readouterr().err)["error"]


def test_spectrum_empty_alpha_exit2(tmp_path, capsys):
    path = write(tmp_path, "basis3.set", SET_BASIS3)
    code, report = run_cli(["spectrum", "--set", path, "--alpha", ""], tmp_path)
    assert code == 2 and report is None
    assert "error" in json.loads(capsys.readouterr().err)


def test_dissociate_cli_with_forbidden_set(tmp_path):
    lpath = write(tmp_path, "l.set", "4\n1000\n0110\n")
    rpath = write(tmp_path, "r.set", "4\n0000\n0110\n")
    code, report = run_cli(
        ["dissociate", "--check", lpath, "--k", "1", "--R", rpath], tmp_path
    )
    assert code == 1  # the single element 0110 lands in R
    assert report["results"]["witness"] == ["0110"]


def test_bench_cli_majority(tmp_path):
    out_csv = str(tmp_path / "rep.csv")
    code, report = run_cli(
        ["bench", "--theorem", "majority", "--delta", "1/64", "--out", out_csv], tmp_path
    )
    assert code == 0
    assert report["results"]["violated"] == 0
    lines = open(out_csv).read().splitlines()
    assert lines[0] == "theorem,instance,lhs,rhs,status,slack"
    assert len(lines) == len(report["results"]["rows"]) + 1


def test_plant_extract_cli_roundtrip(tmp_path):
    code, planted = run_cli(
        [
            "plant", "--h", "1", "--lsize", "4", "--lpsize", "4",
            "--noise", "1/10", "--seed", "5",
            "--out-prefix", str(tmp_path / "inst"),
        ],
        tmp_path,
    )
    assert code == 0
    qfile = str(tmp_path / "inst_q.set")
    lfile = str(tmp_path / "inst_lambda.set")
    assert os.path.exists(qfile) and os.path.exists(lfile)
    code, report = run_cli(
        ["extract", "--q", qfile, "--lambda", lfile, "--d", "2", "--p", "2", "--seed", "7"],
        tmp_path,
    )
    assert code == 0
    res = report["results"]
    assert res["covered"] >= planted["results"]["planted_mass"] * 9 // 10
    assert res["rectangles"]


@pytest.mark.parametrize(
    "noise",
    [
        ["--noise", "20"],  # 180 points asked, C(16, 2) - 9 = 111 pair sums free
        ["--noise=-1/2"],
    ],
    ids=["beyond-free-pair-sums", "negative"],
)
def test_plant_bad_noise_exit2(tmp_path, capsys, noise):
    args = ["plant", "--h", "1", "--lsize", "3", "--lpsize", "3", "--seed", "1", *noise]
    code, report = run_cli(args, tmp_path)
    assert code == 2 and report is None
    assert "noise" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (AssertionError, 3, "internal invariant failed: "),
        (core.ExactnessError, 3, "internal invariant failed: "),
        (RuntimeError, 3, "internal invariant failed: "),
        (core.BudgetError, 2, ""),  # a RuntimeError, but a refusal, not a bug
    ],
)
def test_internal_invariant_failure_exit3(tmp_path, capsys, monkeypatch, exc, code, prefix):
    def broken_split(*args):
        raise exc("best split below the averaging guarantee (bug)")

    monkeypatch.setattr(inverse, "_best_split", broken_split)
    q = write(tmp_path, "q.set", SET_PAIRS3)
    lam = write(tmp_path, "lam.set", SET_BASIS3)
    got, report = run_cli(["extract", "--q", q, "--lambda", lam, "--seed", "1"], tmp_path)
    err = capsys.readouterr().err
    assert (got, report) == (code, None)
    assert "Traceback" not in err
    assert json.loads(err) == {"error": prefix + "best split below the averaging guarantee (bug)"}


def test_replay_identical(tmp_path):
    config = {"command": "bench", "theorem": "diss", "count": 5, "seed": 9}
    report, code = execute(config)
    assert code == 0
    results, rcode = replay(report)
    assert rcode == 0 and results["match"] is True


def test_replay_detects_tampering(tmp_path):
    config = {"command": "bench", "theorem": "diss", "count": 3, "seed": 4}
    report, _ = execute(config)
    report["results"]["rows"][0]["lhs"] = "999999"
    results, rcode = replay(report)
    assert rcode == 1 and results["match"] is False


def test_replay_missing_seed_rejected():
    report = {"command": "bench", "config": {"command": "bench", "theorem": "diss"}, "results": {}}
    with pytest.raises(ValueError):
        replay(report)


ENERGY_CONFIG = {"command": "energy", "set_text": SET_BASIS3, "k": 2}


@pytest.mark.parametrize(
    "recorded",
    [
        {"command": "energy", "config": {"command": "energy", "k": 2}, "results": {}},
        {"command": "energy", "config": {"command": "energy", "set_text": SET_BASIS3, "k": 2}},
        [{"command": "energy"}],
        *(
            {"command": "energy", "config": {**ENERGY_CONFIG, **bad}, "results": {}}
            for bad in ({"set_text": 5}, {"command": ["x"]}, {"k": "2"}, {"k": 2.0})
        ),
    ],
    ids=["config-without-set", "report-without-results", "report-is-list",
         "set-text-number", "command-list", "k-string", "k-float"],
)
def test_replay_malformed_report_exit2(tmp_path, capsys, recorded):
    path = write(tmp_path, "bad.json", json.dumps(recorded))
    code, report = run_cli(["replay", path], tmp_path)
    assert code == 2 and report is None
    assert "error" in json.loads(capsys.readouterr().err)


# Any text, texts over the characters of the three formats, and short
# line lists that often form a valid header and rows.
PARSER_TEXT = (
    st.text()
    | st.text(alphabet="0123456789/-+ .e\n\tx", max_size=40)
    | st.lists(st.text(alphabet="01 -2", max_size=6), max_size=6).map("\n".join)
)


@settings(max_examples=300)
@given(PARSER_TEXT)
def test_parsers_give_a_value_or_value_error(text):
    for parse in (parse_set, parse_matrix, parse_fraction):
        try:
            parse(text)
        except ValueError:
            pass


def test_library_key_error_is_not_an_input_error(monkeypatch):
    def lookup_bug(a, k, method):
        raise KeyError("internal")

    monkeypatch.setattr(energy, "additive_energy", lookup_bug)
    with pytest.raises(KeyError):
        run_config({"command": "energy", "set_text": SET_BASIS3, "k": 2})


def test_replay_cli_file_flow(tmp_path):
    path = write(tmp_path, "basis3.set", SET_BASIS3)
    report_path = str(tmp_path / "run.json")
    code, _ = run_cli(
        ["energy", "--set", path, "--k", "2", "--report", report_path], tmp_path
    )
    assert code == 0
    code, report = run_cli(["replay", report_path], tmp_path)
    assert code == 0
    assert report["results"]["match"] is True


def test_replay_of_a_replay_report(tmp_path):
    path = write(tmp_path, "basis3.set", SET_BASIS3)
    first, second = str(tmp_path / "run.json"), str(tmp_path / "replay.json")
    run_cli(["energy", "--set", path, "--k", "2", "--report", first], tmp_path)
    code, report = run_cli(["replay", first, "--report", second], tmp_path)
    assert code == 0 and "runtime_s" in report["meta"]
    code, again = run_cli(["replay", second], tmp_path)
    assert code == 0 and again["results"]["match"] is True


def test_hash_seed_does_not_change_results(tmp_path):
    path = write(tmp_path, "basis3.set", SET_BASIS3)
    src = os.path.dirname(os.path.dirname(f2lab.__file__))
    blobs = []
    for hashseed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "f2lab.cli", "spectrum", "--set", path, "--alpha", "1/4"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(canonical_results(json.loads(proc.stdout)["results"]))
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("alpha", ["0", "-1/2", "1/0"])
def test_spectrum_bad_alpha_exit2(tmp_path, capsys, monkeypatch, alpha):
    def no_transform(a):
        raise AssertionError("alpha must be refused before the transform")

    monkeypatch.setattr(wht, "spectrum_of_set", no_transform)
    path = write(tmp_path, "basis3.set", SET_BASIS3)
    code, report = run_cli(["spectrum", "--set", path, f"--alpha={alpha}"], tmp_path)
    assert code == 2 and report is None
    assert "error" in json.loads(capsys.readouterr().err)


def test_console_entrypoint_subprocess(tmp_path):
    path = write(tmp_path, "basis3.set", SET_BASIS3)
    proc = subprocess.run(
        [sys.executable, "-m", "f2lab.cli", "energy", "--set", path, "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["value"] == 21


BASE_LAYER = {"cli", "core"}
PERMANENT_LAYER = BASE_LAYER | {"permanent"}
ENERGY_LAYER = BASE_LAYER | {"wht", "dissociation", "energy"}
INVERSE_LAYER = ENERGY_LAYER | {"inverse"}
EVERY_MODULE = INVERSE_LAYER | PERMANENT_LAYER | {"bench", "exact"}
MAIN_THEN_MODULES = (
    "import json, sys\n"
    "from f2lab import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(sys.modules)]))\n"
)
# The standard modules a command may pay for: no command loads argparse,
# gettext or locale, and fractions (with its decimal) only loads where a
# rational is read
RATIONAL = {"fractions", "decimal"}
HEAVY = {"dataclasses", "inspect", "hashlib", "csv", "argparse", "gettext", "locale", *RATIONAL}
LAYER_CASES = {
    "energy": (["energy", "--set", "{set}", "--k", "2"], ENERGY_LAYER, set()),
    "spectrum": (
        ["spectrum", "--set", "{set}", "--alpha", "1/4"], BASE_LAYER | {"wht"}, {"hashlib", *RATIONAL}
    ),
    "spectrum-no-alpha": (["spectrum", "--set", "{set}"], BASE_LAYER | {"wht"}, {"hashlib"}),
    "dissociate": (
        ["dissociate", "--check", "{set}", "--k", "2"], BASE_LAYER | {"dissociation"}, set()
    ),
    "permanent": (["permanent", "--matrix", "{matrix}"], PERMANENT_LAYER, set()),
    "fk-test": (["fk-test", "--matrix", "{matrix}"], PERMANENT_LAYER, set()),
    "lemma-per0": (["lemma-per0", "--exhaustive", "2", "2"], PERMANENT_LAYER, set()),
    "bench": (["bench", "--theorem", "diss", "--count", "1"], EVERY_MODULE, RATIONAL),
    "bench-out": (
        ["bench", "--theorem", "diss", "--count", "1", "--out", "{out}"], EVERY_MODULE, {"csv", *RATIONAL}
    ),
    "extract": (["extract", "--q", "{q}", "--lambda", "{set}"], INVERSE_LAYER, RATIONAL),
    "plant": (["plant", "--h", "1", "--lsize", "3", "--lpsize", "3"], INVERSE_LAYER, RATIONAL),
    "replay": (["replay", "{report}"], PERMANENT_LAYER, set()),  # a permanent report
}


@pytest.mark.parametrize("args, layer, heavy", LAYER_CASES.values(), ids=list(LAYER_CASES))
def test_each_command_loads_only_its_own_layer(tmp_path, args, layer, heavy):
    # every command pays its imports at start-up; -S keeps the environment's
    # site-packages, which may import anything, out of the check
    report, _ = execute({"command": "permanent", "matrix_text": MATRIX_ALL_ONES})
    paths = {
        "set": write(tmp_path, "basis3.set", SET_BASIS3),
        "q": write(tmp_path, "q.set", SET_PAIRS3),
        "matrix": write(tmp_path, "m.mat", MATRIX_ALL_ONES),
        "report": write(tmp_path, "run.json", json.dumps(report)),
        "out": str(tmp_path / "rows.csv"),
    }
    src = os.path.dirname(os.path.dirname(f2lab.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", MAIN_THEN_MODULES, *(a.format(**paths) for a in args)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert {m[len("f2lab."):] for m in modules if m.startswith("f2lab.")} == layer
    assert HEAVY & set(modules) == heavy


@pytest.mark.parametrize(
    "params",
    [
        '{"bogus": 1}',
        "[1]",
        '{"epsilon": 3}',
        '{"width": "x"}',
        '{"width": 0}',
        '{"big_k": "0"}',
        '{"big_k": "-1"}',
        '{"epsilon": "-1"}',
        '{"epsilon": "0"}',
        '{"zeta": "-1"}',
        '{"min_rows": 0}',
        '{"min_cols": 0}',
        '{"coverage_target": "-1"}',
        '{"coverage_target": "0"}',
        '{"coverage_target": "3/2"}',
    ],
)
def test_extract_bad_params_exit2(tmp_path, capsys, params):
    lam = write(tmp_path, "basis3.set", SET_BASIS3)
    q = write(tmp_path, "pairs.set", SET_PAIRS3)
    code, report = run_cli(["extract", "--q", q, "--lambda", lam, "--params", params], tmp_path)
    assert code == 2 and report is None
    assert "error" in json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("command", ["replay", "extract"])
def test_deeply_nested_json_exit2(tmp_path, capsys, command):
    # the decoder gives up with RecursionError, which is an input error here
    deep = "[" * 100_000
    if command == "replay":
        args = ["replay", write(tmp_path, "deep.json", deep)]
    else:
        lam = write(tmp_path, "basis3.set", SET_BASIS3)
        q = write(tmp_path, "pairs.set", SET_PAIRS3)
        args = ["extract", "--q", q, "--lambda", lam, "--params", deep]
    code, report = run_cli(args, tmp_path)
    assert (code, report) == (2, None)
    assert json.loads(capsys.readouterr().err) == {"error": "JSON nested too deeply to decode"}


@pytest.mark.parametrize(
    "key, value",
    # the retired fields at their last defaults: three that no stage read and
    # four search sizes that are module constants of `inverse` now
    [("eta", "1/2"), ("refine", True), ("refine_budget", 96), ("rounds", 24),
     ("split_trials", 32), ("split_exhaustive_limit", 12870), ("stall_limit", 3)],
)
@pytest.mark.parametrize("via", ["params", "replay"])
def test_extract_retired_params_exit2(tmp_path, capsys, key, value, via):
    if via == "params":
        lam = write(tmp_path, "basis3.set", SET_BASIS3)
        q = write(tmp_path, "pairs.set", SET_PAIRS3)
        args = ["extract", "--q", q, "--lambda", lam, "--params", json.dumps({key: value})]
    else:
        config = {"command": "extract", "q_text": SET_PAIRS3, "lambda_text": SET_BASIS3, "seed": 0,
                  "params": {key: value}}
        args = ["replay", write(tmp_path, "old.json", json.dumps({"config": config, "results": {}}))]
    code, report = run_cli(args, tmp_path)
    assert (code, report) == (2, None)
    assert json.loads(capsys.readouterr().err) == {"error": f"unknown parameter {key!r}"}


def test_extract_d3_cli_rectangle_inside_q_and_replays(tmp_path):
    # a 3 x 3 rectangle behind the prefix e_0, plus a few other 3-sums, all
    # inside the 3-fold distinct sumset of the basis of F_2^9; e_0's fiber
    # holds the whole rectangle, which comes back in one piece
    dim = 9
    basis = [1 << i for i in range(dim)]
    q_elems = {1 ^ r ^ c for r in basis[1:4] for c in basis[4:7]}
    q_elems |= {basis[6] ^ basis[7] ^ basis[8], basis[2] ^ basis[5] ^ basis[8]}
    q = write(tmp_path, "q.set", serialize_set(F2Set.from_bits(dim, q_elems)))
    lam = write(tmp_path, "lam.set", serialize_set(F2Set.from_bits(dim, basis)))
    out = str(tmp_path / "report.json")
    args = ["extract", "--q", q, "--lambda", lam, "--d", "3", "--seed", "1", "--report", out]
    code, report = run_cli(args, tmp_path)
    assert code == 0
    res = report["results"]
    assert res["rectangles"]
    union = set()
    for rect in res["rectangles"]:
        assert len(rect["prefix"]) == 1
        shift = parse_set(f"{dim}\n" + "\n".join(rect["prefix"]) + "\n").elems[0]
        rows = parse_set(f"{dim}\n" + "\n".join(rect["rows"]) + "\n").elems
        cols = parse_set(f"{dim}\n" + "\n".join(rect["cols"]) + "\n").elems
        assert rows and cols
        pts = {shift ^ r ^ c for r in rows for c in cols}
        assert pts <= q_elems and not pts & union
        union |= pts
    assert (res["covered"], res["q_size"]) == (len(union), len(q_elems))
    assert res["coverage"] == str(Fraction(len(union), len(q_elems))) == "1"
    e = [bits_to_string(b, dim) for b in basis]
    assert [(r["rows"], r["cols"]) for r in res["rectangles"] if r["prefix"] == [e[0]]] == [(e[1:4], e[4:7])]
    code, replayed = run_cli(["replay", out], tmp_path)
    assert code == 0 and replayed["results"]["match"] is True


@pytest.mark.parametrize(
    "d, q_text, lam_text",
    [
        # 10000001 + 00000001 = 10000000, which reads as 100 in F_2^3
        ("2", "3\n100\n", "8\n00000001\n10000001\n01000000\n"),
        ("3", "3\n110\n", "8\n00000001\n10000001\n01000000\n00100000\n00010000\n"),
    ],
    ids=["d2", "d3"],
)
def test_extract_mixed_dimensions_exit2(tmp_path, capsys, d, q_text, lam_text):
    q = write(tmp_path, "q.set", q_text)
    lam = write(tmp_path, "lam.set", lam_text)
    code, report = run_cli(["extract", "--q", q, "--lambda", lam, "--d", d], tmp_path)
    assert code == 2 and report is None
    assert "Lambda in F_2^8" in json.loads(capsys.readouterr().err)["error"]


def test_fk_cli_long_augmenting_path(tmp_path):
    # ones at (i, i) and (i, i - 1): augmenting from row i walks back
    # through every earlier row, a path longer than the recursion limit
    n = 1100
    lines = [f"{n} {n}"]
    for i in range(n):
        row = ["0"] * n
        row[i] = "1"
        if i:
            row[i - 1] = "1"
        lines.append(" ".join(row))
    path = write(tmp_path, "band.mat", "\n".join(lines) + "\n")
    code, report = run_cli(["fk-test", "--matrix", path], tmp_path)
    assert code == 0
    assert report["results"]["verdict"] == "positive"
    assert report["results"]["sdr"] == list(range(n))


def test_extract_params_overrides_resolved(tmp_path):
    lam = write(tmp_path, "basis3.set", SET_BASIS3)
    q = write(tmp_path, "pairs.set", SET_PAIRS3)
    params = '{"epsilon": "1/3", "min_rows": 2}'
    code, report = run_cli(["extract", "--q", q, "--lambda", lam, "--params", params], tmp_path)
    assert code == 0
    resolved = report["results"]["params_resolved"]
    assert (resolved["epsilon"], resolved["min_rows"]) == ("1/3", 2)


def test_extract_p4_on_every_pair_sum_of_a_basis_of_f2_30(tmp_path):
    # T_4 of these 435 points needs a 2^29-entry table, over the transform cap;
    # no stage of the extraction computes it
    basis = F2Set(30, tuple(1 << i for i in range(30)))
    pairs = {a ^ b for a, b in itertools.combinations(basis.elems, 2)}
    q = write(tmp_path, "q.set", serialize_set(F2Set.from_bits(30, pairs)))
    lam = write(tmp_path, "lam.set", serialize_set(basis))
    code, report = run_cli(["extract", "--q", q, "--lambda", lam, "--p", "4"], tmp_path)
    assert code == 0
    res = report["results"]
    assert res["rectangles"] and res["family_status"] == "true"
    union = set()
    for rect in res["rectangles"]:
        rows = parse_set("30\n" + "\n".join(rect["rows"]) + "\n").elems
        cols = parse_set("30\n" + "\n".join(rect["cols"]) + "\n").elems
        pts = {r ^ c for r in rows for c in cols}
        assert pts <= pairs and not pts & union
        union |= pts
    assert res["covered"] == len(union)


def test_extract_random_splits_keep_their_bytes():
    # at |Lambda| = 20 the splits are random, SPLIT_TRIALS seeded draws each;
    # re-pinned when the unread draw before each split went (its rectangles
    # are those of the old `"refine": false`) and params_resolved lost seven keys
    planted = run_config(
        {"command": "plant", "h": 3, "lsize": 4, "lpsize": 4, "noise": "1/2", "seed": 3,
         "n": 24, "lambda_size": 20}
    ).results
    config = {"command": "extract", "q_text": planted["q"], "lambda_text": planted["lambda"],
              "seed": 5}
    results = run_config(config).results
    digest = "24af849777ed67dd6cf0805eb4b4b5ff4cec57182fde9763f456fd6180a187d9"
    assert hashlib.sha256(canonical_results(results).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "h, digest",
    [
        (1, "4c91ab6239a07ec1cc1523622286cf984ea61c00d4e813c4b1323aad365985b4"),
        (2, "326e9b5b44c1968102025570b460016d4f6ae3fb5955c26f887f7de4b2aa609e"),
        (3, "816ccbee1b8266dd181eabfc7295b4ceaaa6c60ee5c4414d146f389736c2a00d"),
    ],
    ids=["h1", "h2", "h3"],  # not the digests, so that a re-pin keeps the test names
)
def test_extract_exhaustive_splits_keep_their_bytes(h, digest):
    # the extract benchmark's shape: h rectangles of 4 x 4 in the pair sums
    # of |Lambda| = 16, whose C(16, 8) splits are all searched, noise 1/10;
    # re-pinned when params_resolved lost seven keys (rectangles unchanged)
    planted = run_config(
        {"command": "plant", "h": h, "lsize": 4, "lpsize": 4, "noise": "1/10", "seed": h,
         "n": 18, "lambda_size": 16}
    ).results
    config = {"command": "extract", "q_text": planted["q"], "lambda_text": planted["lambda"],
              "seed": 7}
    results = run_config(config).results
    assert hashlib.sha256(canonical_results(results).encode()).hexdigest() == digest


def test_extract_d3_keeps_its_bytes():
    # 120 of the 560 3-fold sums of a 16-element Lambda, each point in the
    # fiber of every element of its decomposition; re-pinned when the fibers
    # replaced the partition search (coverage 68/120 -> 120/120), and when
    # params_resolved lost seven keys (rectangles unchanged)
    lam = random_dissociated(18, 16, seed=3)
    sums = sorted(a ^ b ^ c for a, b, c in itertools.combinations(lam.elems, 3))
    q = F2Set.from_bits(18, random.Random(3).sample(sums, 120))
    config = {"command": "extract", "q_text": serialize_set(q), "lambda_text": serialize_set(lam),
              "d": 3, "seed": 7}
    results = run_config(config).results
    digest = "37fe6c56ad69a15cd13c7767f7c7dda7584cd514ad9563bb6783ea3261e6972a"
    assert hashlib.sha256(canonical_results(results).encode()).hexdigest() == digest


def test_extract_d3_energy_branch_keeps_its_bytes():
    # the same instance at big_k = 1/1000000, where m_cor <= p^2 and every
    # prefix fiber's T_p is computed from its point set; re-pinned with the
    # test above, both times
    lam = random_dissociated(18, 16, seed=3)
    sums = sorted(a ^ b ^ c for a, b, c in itertools.combinations(lam.elems, 3))
    q = F2Set.from_bits(18, random.Random(3).sample(sums, 120))
    config = {"command": "extract", "q_text": serialize_set(q), "lambda_text": serialize_set(lam),
              "d": 3, "seed": 7, "params": {"big_k": "1/1000000"}}
    results = run_config(config).results
    digest = "8d4e315786badfc9df00ff386f57d8cb3761f5e50710c9f900a282f56b282793"
    assert hashlib.sha256(canonical_results(results).encode()).hexdigest() == digest


def test_extract_d4_keeps_its_bytes():
    # 200 of the 715 4-fold sums of a 13-element Lambda, each point in the
    # fibers of the 6 pairs of its decomposition; re-pinned when the fibers
    # replaced the partition search (coverage 56/200 -> 200/200), and when
    # params_resolved lost seven keys (rectangles unchanged)
    lam = random_dissociated(18, 13, seed=4)
    sums = sorted(a ^ b ^ c ^ d for a, b, c, d in itertools.combinations(lam.elems, 4))
    q = F2Set.from_bits(18, random.Random(4).sample(sums, 200))
    config = {"command": "extract", "q_text": serialize_set(q), "lambda_text": serialize_set(lam),
              "d": 4, "seed": 7}
    results = run_config(config).results
    digest = "bae153e67efbe2b71f1ddf12f67efc93b32f682bafa9516bb3a2e174319a03b9"
    assert hashlib.sha256(canonical_results(results).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "seed, digest",
    [
        (1, "c85a3bcfe251c4fd314293fe022887ad20db20147ef15ce1e896b43d1ff890ee"),
        (2, "35cbe69ab5647d5a726883a30cf0e0efd44dfb4abe7c2755d338fc0fb183196e"),
        (3, "ba1f3335ce1291deb26b5d2261c88d1db2d634c040a076cbd4673f5ff1b70774"),
    ],
)
def test_inverse2_rows_keep_their_bytes(seed, digest):
    # every row of these seeds holds, so each reads the fiber masks and the
    # r-subset sums through the exact ladder
    config = {"command": "bench", "theorem": "inverse2", "count": 10, "seed": seed}
    results = run_config(config).results
    assert hashlib.sha256(canonical_results(results).encode()).hexdigest() == digest


# One argument list per command with every optional flag; recorded reports
# replay only while these config keys hold.
CONFIG_CASES = {
    "energy": (
        ["energy", "--set", "SET", "--k", "2", "--method", "brute", "--report", "OUT"],
        {"command": "energy", "set_text": SET_BASIS3, "k": 2, "method": "brute"},
    ),
    "spectrum": (
        ["spectrum", "--set", "SET", "--alpha", "3/16", "--out", "OUT", "--report", "OUT"],
        {"command": "spectrum", "set_text": SET_BASIS3, "alpha": "3/16"},
    ),
    "dissociate": (
        ["dissociate", "--check", "SET", "--k", "2", "--R", "RSET", "--report", "OUT"],
        {"command": "dissociate", "set_text": SET_BASIS3, "k": 2, "r_text": SET_R},
    ),
    "permanent": (
        ["permanent", "--matrix", "MAT", "--report", "OUT"],
        {"command": "permanent", "matrix_text": MATRIX_ALL_ONES},
    ),
    "fk-test": (
        ["fk-test", "--matrix", "MAT", "--report", "OUT"],
        {"command": "fk-test", "matrix_text": MATRIX_ALL_ONES},
    ),
    "lemma-per0": (
        ["lemma-per0", "--exhaustive", "2", "3", "--report", "OUT"],
        {"command": "lemma-per0", "p": 2, "r": 3},
    ),
    "bench": (
        ["bench", "--theorem", "majority", "--count", "3", "--seed", "4", "--delta", "1/32",
         "--d", "2", "--n", "12", "--out", "OUT", "--report", "OUT"],
        {"command": "bench", "theorem": "majority", "count": 3, "seed": 4, "delta": "1/32",
         "d": 2, "n": 12},
    ),
    "extract": (
        ["extract", "--q", "SET", "--lambda", "RSET", "--d", "3", "--p", "3", "--seed", "5",
         "--params", '{"epsilon": "1/3", "width": 4}', "--report", "OUT"],
        {"command": "extract", "q_text": SET_BASIS3, "lambda_text": SET_R, "d": 3, "p": 3,
         "seed": 5, "params": {"epsilon": "1/3", "width": 4}},
    ),
    "plant": (
        ["plant", "--h", "2", "--lsize", "3", "--lpsize", "4", "--noise", "1/10", "--seed", "5",
         "--n", "16", "--lambda-size", "12", "--out-prefix", "OUT", "--report", "OUT"],
        {"command": "plant", "h": 2, "lsize": 3, "lpsize": 4, "noise": "1/10", "seed": 5,
         "n": 16, "lambda_size": 12},
    ),
    "replay": (
        ["replay", "SET", "--report", "OUT"],
        {"command": "replay", "report_text": SET_BASIS3},
    ),
}


@pytest.mark.parametrize("command", sorted(CONFIG_CASES))
def test_config_from_args_pins_keys(tmp_path, command):
    argv, expected = CONFIG_CASES[command]
    paths = {
        "SET": write(tmp_path, "s.set", SET_BASIS3),
        "RSET": write(tmp_path, "r.set", SET_R),
        "MAT": write(tmp_path, "m.mat", MATRIX_ALL_ONES),
        "OUT": str(tmp_path / "out"),
    }
    config, out, report_out = cli.parse_argv([paths.get(a, a) for a in argv])
    assert config == expected
    assert report_out == paths["OUT"]
    assert out == (paths["OUT"] if command in ("spectrum", "bench", "plant") else None)


def test_config_types_cover_every_parser_key():
    for _, expected in CONFIG_CASES.values():
        assert set(expected) <= set(cli._CONFIG_TYPES)
        cli._check_config_types(expected)


# argument lists that give only required flags, so that `parse_argv` fills
# in every default that the handler reads
COMPLETION_CASES = {
    "energy": ["energy", "--set", "SET", "--k", "2"],
    "bench-family": ["bench", "--theorem", "diss"],
    "bench-majority": ["bench", "--theorem", "majority", "--n", "8"],
    "extract": ["extract", "--q", "PAIRS", "--lambda", "SET"],
    "plant": ["plant", "--h", "1", "--lsize", "3", "--lpsize", "3"],
}


def completion_config(tmp_path, case):
    paths = {"SET": write(tmp_path, "s.set", SET_BASIS3), "PAIRS": write(tmp_path, "q.set", SET_PAIRS3)}
    config, _, _ = cli.parse_argv([paths.get(a, a) for a in COMPLETION_CASES[case]])
    return config, cli._COMMANDS[config["command"]][1]


@pytest.mark.parametrize("case", sorted(COMPLETION_CASES))
def test_a_config_without_its_defaults_runs_as_the_argv_config(tmp_path, case):
    config, flags = completion_config(tmp_path, case)
    defaulted = {key for _, keys, _, default in flags if default not in (..., None) for key in keys.split()}
    stripped = {key: val for key, val in config.items() if key not in defaulted}
    assert stripped != config
    given = dict(stripped)
    full, bare = run_config(config), run_config(stripped)
    assert stripped == given  # completed on a copy
    assert canonical_results(bare.results) == canonical_results(full.results)
    assert bare.exit_code == full.exit_code
    report, _ = execute(stripped)
    assert report["config"] == given  # the report records the config as given


@pytest.mark.parametrize("case", sorted(COMPLETION_CASES))
def test_replaying_a_config_without_a_required_key_exits_2(tmp_path, capsys, case):
    config, flags = completion_config(tmp_path, case)
    for _, keys, _, default in flags:
        for key in keys.split() if default is ... else ():
            cut = {k: v for k, v in config.items() if k != key}
            report = {"command": cut["command"], "config": cut, "results": {}}
            code, out = run_cli(["replay", write(tmp_path, "r.json", json.dumps(report))], tmp_path)
            assert (code, out) == (2, None)
            assert json.loads(capsys.readouterr().err) == {"error": f"config lacks required key {key!r}"}
