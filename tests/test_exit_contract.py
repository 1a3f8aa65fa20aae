"""Fuzz of the CLI's exit-code contract over the text a user hands it.

`cli.main` answers every input with exit 0, 1 or 2.  Exits 0 and 1 print a
report on stdout and nothing on stderr; exit 2 prints either a report (an
undecided or refused row) or exactly one JSON object, {"error": ...}, on
stderr and nothing on stdout.  Exit 3 is a failed internal invariant and an
escaped exception is a crash: both are faults on any input.  The inputs are
set files, matrix files, `extract --params` JSON and replayed reports; the
caps are patched small so that their refusals are reached at desk scale.
Those properties pass each value as `--flag=value`, so that a value
starting with "-" is not read as a flag; the argument lists themselves are
fuzzed apart, with values as separate arguments and flags dropped or
repeated, since a malformed list is an input error like any other.  The
grammar of a list is pinned too: `--flag=value` is `--flag value`, the last
of a repeated flag wins, a negative number is a value, and `-h` lists every
flag of a command's table entry.
"""

import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from f2lab import cli, dissociation, inverse, permanent, wht
from f2lab.cli import execute, main, parse_argv
from f2lab.inverse import InverseParams

FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.fixture(scope="module", autouse=True)
def small_caps():
    with mock.patch.object(wht, "WHT_DIM_CAP", 6), mock.patch.object(
        permanent, "PERMANENT_BUDGET", 1 << 8
    ), mock.patch.object(inverse, "SUBSET_TABLE_BUDGET", 300), mock.patch.object(
        dissociation, "DEFAULT_WORK_BUDGET", 2000
    ):
        yield


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """write(name, text) -> path, in one directory for the module."""
    root = tmp_path_factory.mktemp("inputs")

    def write(name: str, text: str) -> str:
        path = root / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run_main(argv: list[str]) -> None:
    """Run main and check the contract on its exit code and its output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if err.getvalue():
        assert code == 2 and not out.getvalue()
        error = json.loads(err.getvalue())
        assert isinstance(error, dict) and list(error) == ["error"]
        assert isinstance(error["error"], str)
    else:
        report = json.loads(out.getvalue())
        assert {"command", "config", "results", "meta"} <= set(report)


# ---------------------------------------------------------------------------
# input text

JUNK_TEXT = st.text(alphabet="01 \n\t2x-+/#é", max_size=40)


@st.composite
def set_texts(draw) -> str:
    """A set file: mostly well-formed over small dimensions, with one fault
    (a header, a line length, a character, a repeat) now and then."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK_TEXT)
    dim = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 40, 70, -1]))
    width = max(dim, 0)
    rows = draw(
        st.lists(st.integers(0, (1 << width) - 1), max_size=min(10, 1 << width), unique=True)
    )
    lines = [format(r, f"0{width}b") if width else "" for r in rows]
    fault = draw(st.integers(0, 6))
    if fault == 1 and lines:
        lines.append(lines[0])
    elif fault == 2:
        lines.append("0" * (width + 1))
    elif fault == 3 and lines:
        lines[-1] = lines[-1][:-1] + "2"
    header = draw(st.sampled_from([str(dim), f" {dim} ", "x", ""])) if fault == 4 else str(dim)
    return "\n".join([header, *lines]) + draw(st.sampled_from(["\n", "", "\n\n  \n"]))


@st.composite
def matrix_texts(draw) -> str:
    """A matrix file "x y" plus x rows of y integers, with one fault (a row
    too many or too long, a bad header, a negative entry) now and then."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK_TEXT)
    x, y = draw(st.integers(0, 7)), draw(st.integers(0, 9))
    entries = st.sampled_from([0, 0, 1, 1, 1, 2, 3, 4, 2**70])
    rows = [draw(st.lists(entries, min_size=y, max_size=y)) for _ in range(x)]
    lines = [f"{x} {y}", *(" ".join(map(str, row)) for row in rows)]
    fault = draw(st.integers(0, 6))
    if fault == 1:
        lines.append("1" * y)
    elif fault == 2 and x:
        lines[1] += " 0"
    elif fault == 3:
        lines[0] = draw(st.sampled_from(["", "3", "a b", "2 2 2", "-1 2", "2 -1"]))
    elif fault == 4 and x and y:
        lines[1] = "-1" + lines[1][1:]
    return "\n".join(lines) + "\n"


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 40) | st.sampled_from([2**64, 0.5, 1e300])
    | st.sampled_from(["1/2", "1/4", "0", "-1/3", "3/1000000", "1/0", "0.5", "x", "", "2"])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
PARAM_KEYS = st.sampled_from(sorted(InverseParams.DEFAULTS) + ["bogus", ""])
PARAMS_JSON = st.one_of(
    st.dictionaries(PARAM_KEYS, JSON_SCALARS, max_size=4).map(json.dumps),
    JSON_VALUES.map(json.dumps),
    JUNK_TEXT,
)

SMALL_INT = st.integers(-1, 5).map(str)
BASIS4 = "4\n1000\n0100\n0010\n0001\n"


# ---------------------------------------------------------------------------
# properties


@FUZZ
@given(
    st.sampled_from(["energy", "spectrum", "dissociate"]),
    set_texts(),
    set_texts(),
    SMALL_INT,
    st.sampled_from([None, "1/4", "0", "3/2", "-1/2", "x", "1/0"]),
    st.sampled_from(["brute", "spectral", "conv", "all"]),
)
def test_set_file_commands_keep_the_exit_contract(files, command, text, r_text, k, alpha, method):
    path = files("a.set", text)
    if command == "energy":
        argv = ["energy", "--set", path, f"--k={k}", "--method", method]
    elif command == "spectrum":
        argv = ["spectrum", "--set", path] + ([] if alpha is None else [f"--alpha={alpha}"])
    else:
        argv = ["dissociate", "--check", path, f"--k={k}"]
        if alpha is not None:  # a forbidden set file half the time
            argv += ["--R", files("r.set", r_text)]
    run_main(argv)


@FUZZ
@given(st.sampled_from(["permanent", "fk-test"]), matrix_texts())
def test_matrix_file_commands_keep_the_exit_contract(files, command, text):
    run_main([command, "--matrix", files("m.txt", text)])


@st.composite
def extract_inputs(draw) -> tuple[str, str, str]:
    """(Q, Lambda, d): two drawn set files and a drawn d, or Lambda the first
    m unit vectors of F_2^n and Q a nonempty share of its d-fold sums."""
    if draw(st.integers(0, 3)) == 0:
        return draw(set_texts()), draw(set_texts()), str(draw(st.integers(0, 5)))
    n = draw(st.integers(4, 10))
    m = draw(st.integers(4, n))
    d = draw(st.integers(2, 4))
    sums = sorted(sum(1 << i for i in c) for c in itertools.combinations(range(m), d))
    q = draw(st.lists(st.sampled_from(sums), min_size=1, max_size=len(sums), unique=True))

    def text(elems) -> str:
        return "\n".join([str(n), *(format(e, f"0{n}b")[::-1] for e in elems)]) + "\n"

    return text(q), text(1 << i for i in range(m)), str(d)


@FUZZ
@given(
    extract_inputs(),
    st.sampled_from(["1", "2", "2", "3", "-1", "0"]),
    st.one_of(st.none(), PARAMS_JSON),
)
def test_extract_keeps_the_exit_contract(files, inputs, p, params):
    q_text, lam_text, d = inputs
    argv = ["extract", "--q", files("q.set", q_text), "--lambda", files("l.set", lam_text)]
    argv += [f"--d={d}", f"--p={p}"] + ([] if params is None else [f"--params={params}"])
    run_main(argv)


BASE_CONFIGS = [
    {"command": "energy", "set_text": BASIS4, "k": 2, "method": "all"},
    {"command": "permanent", "matrix_text": "2 3\n1 1 1\n1 1 1\n"},
    {"command": "extract", "q_text": "4\n1100\n1010\n0110\n", "lambda_text": BASIS4, "seed": 3},
    {"command": "plant", "h": 1, "lsize": 2, "lpsize": 2, "noise": "0", "seed": 1, "n": 8,
     "lambda_size": 6},
    {"command": "dissociate", "set_text": BASIS4, "k": 2},
]


@st.composite
def report_texts(draw) -> str:
    """A recorded report, replayed as recorded or with one part replaced:
    a config key's value, a whole config, its results, or the whole text."""
    base = draw(st.sampled_from(BASE_CONFIGS))
    report, _ = execute(dict(base))
    how = draw(st.sampled_from(["as recorded", "value", "key", "config", "results", "text"]))
    if how == "value":
        report["config"][draw(st.sampled_from(sorted(base) + ["report_text"]))] = draw(JSON_VALUES)
    elif how == "key":
        del report["config"][draw(st.sampled_from(sorted(base)))]
    elif how == "config":
        report["config"] = draw(JSON_VALUES)
    elif how == "results":
        report["results"] = draw(JSON_VALUES)
    elif how == "text":
        return draw(st.one_of(JUNK_TEXT, JSON_VALUES.map(json.dumps)))
    return json.dumps(report)


@FUZZ
@given(report_texts())
def test_replay_keeps_the_exit_contract(files, text):
    run_main(["replay", files("report.json", text)])


# ---------------------------------------------------------------------------
# argument lists

ARG_VALUES = st.sampled_from(["2", "0", "-1", "1/4", "-1/2", "x", "", "--k", "-", "3 4", "all"])
COMMAND_FLAGS = {
    "energy": ("--set", "--k", "--method"),
    "spectrum": ("--set", "--alpha"),
    "dissociate": ("--check", "--k", "--R"),
    "permanent": ("--matrix",),
    "plant": ("--h", "--lsize", "--lpsize", "--noise", "--n", "--lambda-size"),
    "extract": ("--q", "--lambda", "--d", "--p", "--params"),
    "nosuch": ("--k",),
}
FILE_FLAGS = {"--set": BASIS4, "--check": BASIS4, "--R": "4\n0000\n", "--q": "4\n1100\n",
              "--lambda": BASIS4, "--matrix": "2 2\n1 1\n1 1\n"}


@FUZZ
@given(st.sampled_from(sorted(COMMAND_FLAGS)), st.data())
def test_argument_lists_keep_the_exit_contract(files, command, data):
    # each flag is dropped, given once or given twice, its value a separate
    # argument that may look like a flag, a negative number or nothing at
    # all; a file flag mostly names a real file.  The flags come in any order
    argv = [command]
    for flag in data.draw(st.permutations(COMMAND_FLAGS[command])):
        for _ in range(data.draw(st.sampled_from([0, 1, 1, 1, 2]))):
            if flag in FILE_FLAGS and data.draw(st.integers(0, 3)):
                value = files(flag.strip("-") + ".txt", FILE_FLAGS[flag])
            else:
                value = data.draw(ARG_VALUES)
            argv += [flag, value] if data.draw(st.integers(0, 5)) else [flag]
    run_main(argv)


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--set", "SET", "--alpha", "-1/2"], ["energy", "--set", "SET"], ["nosuch"], []],
    ids=["value-like-a-flag", "missing-required-flag", "unknown-command", "empty"],
)
def test_malformed_argument_list_is_one_json_error(files, argv):
    path = files("basis.set", BASIS4)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([path if a == "SET" else a for a in argv])
    assert code == 2 and out.getvalue() == ""
    error = json.loads(err.getvalue())
    assert list(error) == ["error"] and error["error"].startswith("f2lab")


def run_help(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", [["-h"], ["spectrum", "-h"]])
def test_help_still_prints_usage_and_exits_0(argv):
    assert run_help(argv).startswith("usage: f2lab")


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_command_help_lists_every_flag_of_its_table_entry(command):
    text = run_help([command, "-h"])
    usage, _, help = text.splitlines()
    assert usage.startswith(f"usage: f2lab {command} [-h] ") and help == cli._COMMANDS[command][0]
    words = {word.strip("[]") for word in usage.split()}
    for name, *_ in (*cli._COMMANDS[command][1], cli._REPORT):
        assert name in words, name
    assert run_help([command, "--help"]) == text
    assert command in run_help(["--help"])


def test_flag_equals_value_gives_the_same_config(files):
    q, lam = files("q.set", "4\n1100\n1010\n0110\n"), files("l.set", BASIS4)
    spaced = ["extract", "--q", q, "--lambda", lam, "--d", "3", "--p", "-1", "--params",
              '{"depth": 1}', "--report", "r.json"]
    joined = ["extract", f"--q={q}", f"--lambda={lam}", "--d=3", "--p=-1", '--params={"depth": 1}',
              "--report=r.json"]
    assert parse_argv(spaced) == parse_argv(joined)
    assert parse_argv(spaced)[0] == {"command": "extract", "q_text": "4\n1100\n1010\n0110\n",
                                     "lambda_text": BASIS4, "d": 3, "p": -1, "seed": 0,
                                     "params": {"depth": 1}}


def test_a_repeated_flag_keeps_its_last_value(files):
    path = files("basis.set", BASIS4)
    argv = ["energy", "--set", "nosuch.set", "--k", "5", "--method", "brute", "--set", path,
            "--k=2", "--method=conv", "--report", "a.json", "--report=b.json"]
    config, out, report_out = parse_argv(argv)
    assert config == {"command": "energy", "set_text": BASIS4, "k": 2, "method": "conv"}
    assert (out, report_out) == (None, "b.json")


def test_a_negative_int_reaches_the_handler(files):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["dissociate", "--check", files("basis.set", BASIS4), "--k", "-3"])
    assert code == 2 and out.getvalue() == ""
    assert json.loads(err.getvalue()) == {"error": "weight cap k must be >= 1"}
