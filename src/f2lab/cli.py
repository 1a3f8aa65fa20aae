"""Unified command-line front end with seeded, replayable reports.

Every run serializes its full configuration (input file contents inlined,
seed included) next to its results; `replay` re-executes the configuration
and compares the canonical JSON of the numerical results byte for byte.
Rationals are accepted only as exact "p/q" strings; no float parsing.

Exit codes: 0 all bounds hold / decided true, 1 any violation / false,
2 precondition failures, undecided statuses, or input errors, 3 a failed
internal invariant (a bug).

Each handler imports the modules it runs, so a command loads only its own
layer of f2lab at start-up, and `fractions` only where a rational is read.
One command table, `_COMMANDS`, describes every command: its help, its flags
with their defaults, and its handler.  The argument list is read from it,
`-h` is rendered from it, each config key takes its JSON type from it, and
`run_config` completes a copy of a config, a replayed one too, with its
defaults before the handler reads it.
"""

from __future__ import annotations

import json
import re
import sys
import time
from itertools import islice
from typing import TYPE_CHECKING

from .core import BudgetError, ExactnessError, F2Set, SetFileError, bits_to_string, parse_set, serialize_set

if TYPE_CHECKING:
    from fractions import Fraction

LEMMA_PER0_CELL_CAP = 16  # p*r cells of the exhaustive family: 3^16 matrices


def parse_fraction(text: str) -> Fraction:
    """Exact "p/q" (or integer "p") rational parsing; floats rejected."""
    from fractions import Fraction

    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ValueError(f"rational required (p/q), got {text!r}")
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def canonical_results(results: dict) -> str:
    return json.dumps(results, sort_keys=True, separators=(",", ":"))


def _report_rows(reports) -> list[dict]:
    rows = []
    for r in reports:
        rows.append(
            {
                "theorem": r.theorem,
                "instance": r.instance,
                "lhs": str(r.lhs),
                "rhs": str(r.rhs),
                "status": r.status,
                "slack": None if r.slack is None else f"{r.slack:.6g}",
            }
        )
    return rows


# ---------------------------------------------------------------------------
# command execution on inlined configurations


class Outcome:
    """What every command handler returns.

    `results` is the block that replay compares byte for byte.  When the
    command is given an output path, the chunks of `side_files[suffix]` are
    written to that path followed by the suffix; with none they are never
    read, so a generator there costs nothing.
    """

    __slots__ = ("results", "exit_code", "side_files")

    def __init__(self, results: dict, exit_code: int, side_files: dict | None = None) -> None:
        self.results = results
        self.exit_code = exit_code
        self.side_files = side_files or {}


def _cmd_energy(config: dict) -> Outcome:
    from .energy import additive_energy

    a = parse_set(config["set_text"])
    k = config["k"]
    method = config["method"]
    methods = ("brute", "spectral", "conv") if method == "all" else (method,)
    values = {m: additive_energy(a, k, method=m) for m in methods}
    agree = len(set(values.values())) == 1
    results = {
        "value": values[methods[0]],
        "methods": values,
        "agree": agree,
        "k": k,
        "set_size": len(a),
    }
    return Outcome(results, 0 if agree else 1)


def _spectrum_csv(table):
    """The CSV dump, one chunk per high half-word t: r = t 2^low + l is named
    lo[l] + hi[t], and the chunk is one %-template over its 2^low values."""
    low = table.dim // 2
    lo = [bits_to_string(x, low) for x in range(1 << low)]
    yield "r,coefficient\n"
    for t in range(1 << (table.dim - low)):
        sep = bits_to_string(t, table.dim - low) + ",%d\n"
        yield (sep.join(lo) + sep) % table.values[t << low : (t + 1) << low]


def _cmd_spectrum(config: dict) -> Outcome:
    import hashlib
    from operator import mul

    from .wht import check_alpha, large_spectrum_from_table, spectrum_of_set

    alpha = None
    if "alpha" in config:
        alpha = parse_fraction(config["alpha"])
        check_alpha(alpha)
    a = parse_set(config["set_text"])
    table = spectrum_of_set(a)
    csv_chunks = tuple(_spectrum_csv(table))
    digest = hashlib.sha256()
    for chunk in csv_chunks:
        digest.update(chunk.encode())
    n = 1 << a.dim
    results = {
        "dim": a.dim,
        "set_size": len(a),
        "parseval_ok": sum(map(mul, table.values, table.values)) == n * len(a),
        "csv_sha256": digest.hexdigest(),
        "nonzero": n - table.values.count(0),
    }
    if alpha is not None:
        spec = large_spectrum_from_table(table, alpha)
        results["alpha"] = str(alpha)
        results["large_spectrum"] = [bits_to_string(e, a.dim) for e in spec.elems]
    return Outcome(results, 0 if results["parseval_ok"] else 1, {"": csv_chunks})


def _cmd_dissociate(config: dict) -> Outcome:
    from .dissociation import FamilySpec, in_family

    l = parse_set(config["set_text"])
    k = config["k"]
    r = parse_set(config["r_text"]) if "r_text" in config else F2Set(l.dim, (0,))
    check = in_family(l, FamilySpec(k, r))
    results = {
        "status": check.status,
        "work": check.work,
        "witness": None
        if check.witness is None
        else [bits_to_string(e, l.dim) for e in check.witness],
    }
    return Outcome(results, {"true": 0, "false": 1, "undecided": 2}[check.status])


def _cmd_permanent(config: dict) -> Outcome:
    from .permanent import parse_matrix, permanent

    mat = parse_matrix(config["matrix_text"])
    return Outcome({"permanent": permanent(mat), "x": mat.x, "y": mat.y}, 0)


def _cmd_fk_test(config: dict) -> Outcome:
    from .permanent import fk_zero_test, parse_matrix

    mat = parse_matrix(config["matrix_text"])
    sdr, zero_rows, zero_cols = fk_zero_test(mat)
    results = {
        "verdict": "zero" if sdr is None else "positive",
        "sdr": None if sdr is None else list(sdr),
        "zero_rows": list(zero_rows),
        "zero_cols": list(zero_cols),
    }
    return Outcome(results, 0)


def _cmd_lemma_per0(config: dict) -> Outcome:
    import itertools

    from .permanent import CombMatrix, reduced_permanent_check

    p, r = config["p"], config["r"]
    if min(p, r) < 1:
        raise ValueError(f"--exhaustive needs P and R of at least 1, got {p} {r}")
    if p * r > LEMMA_PER0_CELL_CAP:
        raise BudgetError(f"exhaustive family limited to p*r <= {LEMMA_PER0_CELL_CAP}, got {p * r}")
    # entries are at most 2, and p row sums of at least 2 total 2p only when
    # every row sums to exactly 2; no other matrix of {0,1,2}^(p x r) can qualify
    two_rows = [tuple((k == i) + (k == j) for k in range(r)) for i in range(r) for j in range(i, r)]
    satisfied = 0
    all_positive = True
    for rows in itertools.product(two_rows, repeat=p):
        failures, _, positive = reduced_permanent_check(CombMatrix(rows))
        if not failures:
            satisfied += 1
            all_positive = all_positive and positive
    results = {
        "matrices_scanned": 3 ** (p * r),
        "hypotheses_satisfied": satisfied,
        "all_reduced_permanents_positive": all_positive,
    }
    # with no matrix meeting the hypotheses (R > 2P) nothing is certified
    return Outcome(results, (0 if all_positive else 1) if satisfied else 2)


def _bench_csv(rows):
    """The CSV of the report rows, built only when an output path reads it."""
    import csv
    import io

    buf = io.StringIO()
    columns = ("theorem", "instance", "lhs", "rhs", "status", "slack")  # the row keys
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    yield buf.getvalue()


def _cmd_bench(config: dict) -> Outcome:
    from .bench import FAMILIES, run_family, sweep_majority

    theorem = config["theorem"]
    if theorem == "majority":
        delta = parse_fraction(config["delta"])
        reports = sweep_majority(delta, config["d"], config.get("n"))
    elif theorem in FAMILIES:
        count = config["count"]
        if count < 1:
            raise ValueError(f"--count must be at least 1, got {count}")
        reports = run_family(theorem, count, config["seed"])
    else:
        raise ValueError(f"unknown theorem family {theorem!r}")
    rows = _report_rows(reports)
    statuses = [r.status for r in reports]
    holds, violated = statuses.count("holds"), statuses.count("violated")
    other = len(statuses) - holds - violated  # undecided or precondition-failed
    results = {"rows": rows, "holds": holds, "violated": violated, "other": other}
    return Outcome(results, 1 if violated else 2 if other else 0, {"": _bench_csv(rows)})


def _extract_params(config: dict):
    """The InverseParams of a config.  Overrides name its fields; each value
    has its default's JSON type, except that rationals are "p/q" strings."""
    from fractions import Fraction

    from .inverse import InverseParams

    kwargs = {"p": config["p"], "seed": config["seed"]}
    defaults = InverseParams.DEFAULTS
    for key, val in (config.get("params") or {}).items():
        if key not in defaults:
            raise ValueError(f"unknown parameter {key!r}")
        kind = type(defaults[key])
        if type(val) is not (str if kind is Fraction else kind):
            want = 'a "p/q" string' if kind is Fraction else f"of type {kind.__name__}"
            raise ValueError(f"parameter {key!r} must be {want}")
        kwargs[key] = parse_fraction(val) if kind is Fraction else val
    return InverseParams(**kwargs)


def _params_resolved(params) -> dict:
    """Every pipeline parameter, defaults included, for the report; the
    rationals (every value not an int) as "p/q" strings."""
    out = {}
    for name in params.DEFAULTS:
        val = getattr(params, name)
        out[name] = val if isinstance(val, int) else str(val)
    return out


def _rectangle_json(rect, dim: int) -> dict:
    return {
        "prefix": [bits_to_string(e, dim) for e in rect.prefix],
        "rows": [bits_to_string(e, dim) for e in rect.rows],
        "cols": [bits_to_string(e, dim) for e in rect.cols],
    }


def _cmd_extract(config: dict) -> Outcome:
    from fractions import Fraction

    from .inverse import extract_rectangles_d

    q = parse_set(config["q_text"])
    lam = parse_set(config["lambda_text"])
    params = _extract_params(config)
    rects, covered, family_status, trace, warnings = extract_rectangles_d(q, lam, config["d"], params)
    results = {
        "rectangles": [_rectangle_json(r, q.dim) for r in rects],
        "covered": covered,
        "q_size": len(q),
        "coverage": str(Fraction(covered, len(q)) if q else Fraction(1)),
        "family_status": family_status,
        "trace": list(trace),
        "warnings": list(warnings),
        "params_resolved": _params_resolved(params),
        "reference_epsilon": str(params.reference_epsilon()),
    }
    return Outcome(results, 0)


def _cmd_plant(config: dict) -> Outcome:
    from .inverse import plant_instance

    lam, rows, cols, planted, noise = plant_instance(
        config["h"],
        config["lsize"],
        config["lpsize"],
        parse_fraction(config["noise"]),
        config["seed"],
        n=config["n"],
        lambda_size=config["lambda_size"],
    )
    q = planted.union(noise)
    q_text, lam_text = serialize_set(q), serialize_set(lam)
    results = {
        "q": q_text,
        "lambda": lam_text,
        "planted_mass": len(planted),
        "noise_size": len(noise),
        "rectangles": [
            {
                "rows": [bits_to_string(e, q.dim) for e in r],
                "cols": [bits_to_string(e, q.dim) for e in c],
            }
            for r, c in zip(rows, cols)
        ],
    }
    return Outcome(results, 0, {"_q.set": (q_text,), "_lambda.set": (lam_text,)})


def replay(report: dict) -> tuple[dict, int]:
    """Re-execute a recorded configuration and compare results bytes."""
    config = report.get("config") if isinstance(report, dict) else None
    if not isinstance(config, dict) or "command" not in config or "results" not in report:
        raise ValueError("report lacks a replayable config or its results")
    if "seed" not in config and _SEED in _entry(config["command"])[1]:
        raise ValueError("report config lacks the seed needed for replay")
    old = canonical_results(report["results"])
    new = canonical_results(run_config(config).results)
    match = old == new
    results = {"match": match, "bytes": len(new)}
    return results, 0 if match else 1


def _load_json(text: str):
    """Decode JSON from the user; nesting too deep to decode is an input error."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


def _cmd_replay(config: dict) -> Outcome:
    return Outcome(*replay(_load_json(config["report_text"])))


# command -> (help, flags, handler).  A flag is (name, config key, kind,
# default): the kind is str, int or a tuple of choices, and the default ...
# marks a required flag and None one left out of the config when not given.
# A name without dashes is the positional argument; a key of two words takes
# two values.  File flags' keys end in `_text`; `out` is an output path.
_MATRIX = ("--matrix", "matrix_text", str, ...)
_SEED = ("--seed", "seed", int, 0)  # replay asks a seeded command's config for it
_COMMANDS = {
    "energy": ("additive energy of a set", (
        ("--set", "set_text", str, ...), ("--k", "k", int, ...),
        ("--method", "method", ("brute", "spectral", "conv", "all"), "all")), _cmd_energy),
    "spectrum": ("Fourier table dump (--out, CSV) and large spectrum above --alpha p/q", (
        ("--set", "set_text", str, ...), ("--alpha", "alpha", str, None), ("--out", "out", str, None)),
        _cmd_spectrum),
    "dissociate": ("family membership test", (
        ("--check", "set_text", str, ...), ("--k", "k", int, ...), ("--R", "r_text", str, None)),
        _cmd_dissociate),
    "permanent": ("exact permanent of a matrix file", (_MATRIX,), _cmd_permanent),
    "fk-test": ("zero-permanent certificate", (_MATRIX,), _cmd_fk_test),
    "lemma-per0": ("exhaustive reduced-permanent family", (("--exhaustive", "p r", int, ...),),
                   _cmd_lemma_per0),
    "bench": ("theorem sweep of a seeded family, or majority (one instance at --n)", (
        ("--theorem", "theorem", str, ...), ("--count", "count", int, 20), _SEED,
        ("--delta", "delta", str, "1/64"), ("--d", "d", int, 1), ("--n", "n", int, None),
        ("--out", "out", str, None)), _cmd_bench),
    "extract": ("rectangle extraction pipeline; --params is a JSON object of overrides", (
        ("--q", "q_text", str, ...), ("--lambda", "lambda_text", str, ...), ("--d", "d", int, 2),
        ("--p", "p", int, 2), _SEED, ("--params", "params", str, None)), _cmd_extract),
    "plant": ("planted-instance generator", (
        ("--h", "h", int, ...), ("--lsize", "lsize", int, ...), ("--lpsize", "lpsize", int, ...),
        ("--noise", "noise", str, "0"), _SEED, ("--n", "n", int, 18),
        ("--lambda-size", "lambda_size", int, 16), ("--out-prefix", "out", str, None)), _cmd_plant),
    "replay": ("re-run a recorded report", (("REPORT", "report_text", str, ...),), _cmd_replay),
}
_REPORT = ("--report", "report_out", str, None)  # every command writes its JSON report here
# The JSON type of each config key as `parse_argv` records it: inlined files,
# rationals and choices are strings, integer flags are ints (never bools),
# and `params` is the decoded JSON object.
_CONFIG_TYPES = {
    key: int if kind is int else str
    for _, flags, _ in _COMMANDS.values()
    for _, keys, kind, _ in flags
    for key in keys.split()
    if key != "out"
} | {"command": str, "params": dict}
_TYPE_NAMES = {str: "a string", int: "an integer", dict: "an object"}


def _check_config_types(config: dict) -> None:
    for key, val in config.items():
        kind = _CONFIG_TYPES.get(key)
        if kind is None:
            continue
        if type(val) is not kind:
            raise ValueError(f"config key {key!r} must be {_TYPE_NAMES[kind]}")


def _entry(command) -> tuple:
    """The table entry of a config's command; an unknown one is an input error."""
    entry = _COMMANDS.get(command) if isinstance(command, str) else None
    if entry is None:
        raise ValueError(f"unknown command {command!r}")
    return entry


def _complete(given: dict, flags, missing: str) -> dict:
    """A copy of the config `given` holding every key of `flags`, in their
    order: a key it lacks takes the flag's default, one whose default is None
    stays absent, and a required one raises ValueError(missing), formatted
    with the flag's name and key.  Keys outside `flags` follow unchanged."""
    config = {"command": given["command"]}
    for name, keys, _, default in flags:
        for key in keys.split():
            value = given.get(key, default)
            if value is ...:
                raise ValueError(missing.format(name=name, key=key))
            if value is not None:
                config[key] = value
    return config | given


def run_config(config: dict) -> Outcome:
    """Run a config on a copy completed from its command's table entry."""
    _check_config_types(config)
    _, flags, handler = _entry(config.get("command"))
    return handler(_complete(config, flags, "config lacks required key {key!r}"))


def execute(config: dict, out_path: str | None = None) -> tuple[dict, int]:
    """Run a configuration and assemble the replayable report."""
    start = time.perf_counter()
    outcome = run_config(config)
    report = {
        "command": config["command"],
        "config": config,
        "results": outcome.results,
        "meta": {"runtime_s": round(time.perf_counter() - start, 6)},
    }
    if out_path:
        for suffix, chunks in outcome.side_files.items():
            with open(out_path + suffix, "w", encoding="ascii") as fh:
                fh.writelines(chunks)
    return report, outcome.exit_code


# ---------------------------------------------------------------------------
# argument parsing


_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's: such a token is a value


def _usage(command: str | None) -> str:
    """The help text, rendered from the command table: an optional flag
    shows its default, if it has one, in place of its value."""
    if command is None:
        lines = [f"  {name:<12}{help}" for name, (help, *_) in _COMMANDS.items()]
        return "\n".join(["usage: f2lab [-h] COMMAND ...", "", "commands:", *lines])
    help, flags, _ = _COMMANDS[command]
    usage = [f"usage: f2lab {command} [-h]"]
    for name, key, kind, default in (*flags, _REPORT):
        value = name[2:].upper() if default in (None, ...) else default
        if isinstance(kind, tuple):
            value = "{%s}" % ",".join(kind)
        elif " " in key:
            value = key.upper()
        flag = f"{name} {value}" if name[0] == "-" else name
        usage.append(flag if default is ... else f"[{flag}]")
    return f"{' '.join(usage)}\n\n{help}"


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def parse_argv(argv: list[str]) -> tuple[dict, str | None, str | None]:
    """(config, output path, report path) of an argument list.  The config
    holds every given or defaulted flag under its key, output paths excepted,
    with each `*_text` path replaced by the file's contents.

    `--flag value` and `--flag=value` are one; the last of a repeated flag
    wins.  A token is a flag if it names one (before any "="), or else if it
    starts with "-" and is not "-", a negative number or a word with a space,
    which argparse reads as values.  A malformed list is a ValueError; -h
    prints the usage and raises SystemExit(0)."""
    if argv[:1] and argv[0] in _HELP:
        print(_usage(None))
        raise SystemExit(0)
    if not argv or argv[0] not in _COMMANDS:
        got = f", got {argv[0]!r}" if argv else ""
        raise ValueError(f"f2lab: expected a command ({', '.join(_COMMANDS)}){got}")
    command, tokens = argv[0], iter(argv[1:])
    prog = f"f2lab {command}"
    specs = (*_COMMANDS[command][1], _REPORT)
    flags = {spec[0]: spec for spec in specs if spec[0][0] == "-"}
    positional = [spec for spec in specs if spec[0][0] != "-"]

    def is_flag(token: str) -> bool:
        dashed = token[:1] == "-" and token != "-" and " " not in token
        return token.partition("=")[0] in flags or dashed and not _NEGATIVE_NUMBER.match(token)

    given = {}
    for token in tokens:
        if token in _HELP:
            print(_usage(command))
            raise SystemExit(0)
        if not is_flag(token):
            if not positional:
                raise ValueError(f"{prog}: unrecognized argument {token!r}")
            spec, values = positional.pop(0), [token]
        else:
            name, eq, value = token.partition("=")
            if name not in flags:
                raise ValueError(f"{prog}: unrecognized argument {token!r}")
            spec = flags[name]
            count = len(spec[1].split())
            values = [value] if eq else list(islice(tokens, count))
            if len(values) != count or not eq and any(map(is_flag, values)):
                raise ValueError(f"{prog}: argument {name}: expected {count} value(s)")
        name, keys, kind, _ = spec
        for key, value in zip(keys.split(), values):
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise ValueError(f"{prog}: argument {name}: invalid int value {value!r}") from None
            elif kind is not str and value not in kind:
                raise ValueError(f"{prog}: argument {name}: {value!r} is not one of {kind}")
            given[key] = value
    config = _complete({"command": command, **given}, specs, f"{prog}: the argument {{name}} is required")
    out, report_out = config.pop("out", None), config.pop("report_out", None)
    for key in config:
        if key.endswith("_text"):
            config[key] = _read(config[key])
    if "params" in config:
        config["params"] = _load_json(config["params"])
    return config, out, report_out


def main(argv: list[str] | None = None) -> int:
    try:
        config, out_path, report_path = parse_argv(sys.argv[1:] if argv is None else argv)
        report, exit_code = execute(config, out_path)
    except (SetFileError, BudgetError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except (AssertionError, ExactnessError, RuntimeError) as exc:  # BudgetError is caught above
        print(json.dumps({"error": f"internal invariant failed: {exc}"}), file=sys.stderr)
        return 3
    text = json.dumps(report, indent=2, sort_keys=True)
    if report_path:
        with open(report_path, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    print(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
