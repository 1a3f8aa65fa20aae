"""Unified command-line front end with seeded, replayable reports.

Every run serializes its full configuration (input file contents inlined,
seed included) next to its results; `replay` re-executes the configuration
and compares the canonical JSON of the numerical results byte for byte.
Rationals are accepted only as exact "p/q" strings; no float parsing.

Exit codes: 0 all bounds hold / decided true, 1 any violation / false,
2 precondition failures, undecided statuses, or input errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import bench as bench_mod
from .core import (
    BudgetError,
    F2Set,
    SetFileError,
    bits_to_string,
    parse_set,
    serialize_set,
)
from .dissociation import FamilySpec, in_family
from .energy import energy_report
from .inverse import InverseParams, extract_rectangles_d, extract_rectangles_pair, plant_instance
from .permanent import fk_zero_test, parse_matrix, permanent, reduced_permanent_check
from .wht import check_alpha, large_spectrum_from_table, spectrum_of_set, spectrum_rows


def parse_fraction(text: str) -> Fraction:
    """Exact "p/q" (or integer "p") rational parsing; floats rejected."""
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ValueError(f"rational required (p/q), got {text!r}")
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


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


def _status_exit(statuses) -> int:
    if any(s in ("violated", "false", "mismatch") for s in statuses):
        return 1
    if any(s in ("undecided", "precondition-failed", "hypothesis-not-met") for s in statuses):
        return 2
    return 0


# ---------------------------------------------------------------------------
# command execution on inlined configurations


@dataclass(frozen=True)
class Outcome:
    """What every command handler returns.

    `results` is the block that replay compares byte for byte; `side_text`
    is written to the command's --out file when one is given.
    """

    results: dict
    exit_code: int
    side_text: Optional[str] = None


def run_config(config: dict) -> Outcome:
    command = config["command"]
    handler = _HANDLERS.get(command)
    if handler is None:
        raise ValueError(f"unknown command {command!r}")
    return handler(config)


def _cmd_energy(config: dict) -> Outcome:
    a = parse_set(config["set_text"])
    k = config["k"]
    method = config.get("method", "all")
    methods = ("brute", "spectral", "conv") if method == "all" else (method,)
    rep = energy_report(a, k, methods)
    results = {
        "value": next(iter(rep.values.values())),
        "methods": dict(rep.values),
        "agree": rep.agree,
        "k": k,
        "set_size": rep.set_size,
    }
    return Outcome(results, 0 if rep.agree else 1)


def _cmd_spectrum(config: dict) -> Outcome:
    alpha = None
    if config.get("alpha"):
        alpha = parse_fraction(config["alpha"])
        check_alpha(alpha)
    a = parse_set(config["set_text"])
    table = spectrum_of_set(a)
    csv_lines = ["r,coefficient"]
    csv_lines.extend(f"{r},{v}" for r, v in spectrum_rows(table))
    csv_text = "\n".join(csv_lines) + "\n"
    n = 1 << a.dim
    results = {
        "dim": a.dim,
        "set_size": len(a),
        "parseval_ok": sum(v * v for v in table.values) == n * len(a),
        "csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
        "nonzero": sum(1 for v in table.values if v),
    }
    if alpha is not None:
        spec = large_spectrum_from_table(table, alpha)
        results["alpha"] = fraction_str(alpha)
        results["large_spectrum"] = [bits_to_string(e, a.dim) for e in spec.elems]
    return Outcome(results, 0 if results["parseval_ok"] else 1, csv_text)


def _cmd_dissociate(config: dict) -> Outcome:
    l = parse_set(config["set_text"])
    k = config["k"]
    if config.get("r_text"):
        r = parse_set(config["r_text"])
    else:
        r = F2Set(l.dim, (0,))
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
    mat = parse_matrix(config["matrix_text"])
    return Outcome({"permanent": permanent(mat), "x": mat.x, "y": mat.y}, 0)


def _cmd_fk_test(config: dict) -> Outcome:
    mat = parse_matrix(config["matrix_text"])
    res = fk_zero_test(mat)
    results = {
        "verdict": res.kind,
        "sdr": list(res.sdr) if res.sdr is not None else None,
        "zero_rows": list(res.zero_rows),
        "zero_cols": list(res.zero_cols),
    }
    return Outcome(results, 0)


def _cmd_lemma_per0(config: dict) -> Outcome:
    import itertools

    from .permanent import CombMatrix

    p, r = config["p"], config["r"]
    if p * r > 16:
        raise BudgetError("exhaustive family limited to p*r <= 16")
    total = 0
    satisfied = 0
    all_positive = True
    for flat in itertools.product((0, 1, 2), repeat=p * r):
        total += 1
        if sum(flat) != 2 * p:
            continue
        rows = tuple(tuple(flat[i * r : (i + 1) * r]) for i in range(p))
        rep = reduced_permanent_check(CombMatrix(rows))
        if not rep.hypotheses_hold:
            continue
        satisfied += 1
        if not rep.per_reduced_positive:
            all_positive = False
    results = {
        "matrices_scanned": total,
        "hypotheses_satisfied": satisfied,
        "all_reduced_permanents_positive": all_positive,
    }
    return Outcome(results, 0 if all_positive else 1)


def _seeded_sweep(sweep):
    return lambda config: sweep(config.get("count", 20), config.get("seed", 0))


def _majority_sweep(config: dict):
    from .exact import floor_log2

    delta = parse_fraction(config.get("delta", "1/64"))
    if config.get("n"):
        k = floor_log2(1 / (4 * delta))
        nprimes = [config["n"] - k]
    else:
        nprimes = config.get("nprimes") or list(range(3, 11))
    return bench_mod.sweep_majority(nprimes, delta, config.get("d", 1))


_BENCH_SWEEPS = {
    "chang": _seeded_sweep(bench_mod.sweep_chang),
    "diss": _seeded_sweep(bench_mod.sweep_diss_energy),
    "dissd": _seeded_sweep(bench_mod.sweep_sumset_energy),
    "exact": _seeded_sweep(bench_mod.sweep_full_sumset_lower),
    "maing": _seeded_sweep(bench_mod.sweep_spectrum_energy_lower),
    "bourgain": _seeded_sweep(bench_mod.sweep_bourgain),
    "majority": _majority_sweep,
}


def _cmd_bench(config: dict) -> Outcome:
    theorem = config["theorem"]
    sweep = _BENCH_SWEEPS.get(theorem)
    if sweep is None:
        raise ValueError(f"unknown theorem family {theorem!r}")
    reports = sweep(config)
    rows = _report_rows(reports)
    statuses = [r.status for r in reports]
    results = {
        "rows": rows,
        "holds": statuses.count("holds"),
        "violated": statuses.count("violated"),
        "other": len(statuses) - statuses.count("holds") - statuses.count("violated"),
    }
    csv_buf = io.StringIO()
    columns = ("theorem", "instance", "lhs", "rhs", "status", "slack")  # the row keys
    writer = csv.DictWriter(csv_buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return Outcome(results, _status_exit(statuses), csv_buf.getvalue())


def _extract_params(config: dict) -> InverseParams:
    kwargs = {"p": config.get("p", 2), "seed": config.get("seed", 0)}
    overrides = config.get("params") or {}
    frac_fields = {"big_k", "eta", "epsilon", "zeta", "coverage_target"}
    for key, val in overrides.items():
        kwargs[key] = parse_fraction(val) if key in frac_fields else val
    return InverseParams(**kwargs)


def _params_resolved(params: InverseParams) -> dict:
    """Every pipeline parameter, defaults included, for the report."""
    import dataclasses

    out = {}
    for f in dataclasses.fields(params):
        val = getattr(params, f.name)
        if isinstance(val, Fraction):
            out[f.name] = fraction_str(val)
        else:
            out[f.name] = val
    return out


def _rectangle_json(rect, dim: int) -> dict:
    return {
        "prefix": [bits_to_string(e, dim) for e in rect.prefix],
        "rows": [bits_to_string(e, dim) for e in rect.rows],
        "cols": [bits_to_string(e, dim) for e in rect.cols],
    }


def _cmd_extract(config: dict) -> Outcome:
    q = parse_set(config["q_text"])
    lam = parse_set(config["lambda_text"])
    d = config.get("d", 2)
    params = _extract_params(config)
    if d == 2:
        rep = extract_rectangles_pair(q, lam, params)
        results = {
            "rectangles": [_rectangle_json(r, q.dim) for r in rep.rectangles],
            "covered": rep.covered,
            "q_size": rep.q_size,
            "coverage": fraction_str(rep.coverage),
            "family_status": rep.family_status,
            "trace": list(rep.trace),
        }
    else:
        rep = extract_rectangles_d(q, lam, d, params)
        rect = rep.rectangle
        results = {
            "rectangle": None if rect is None else _rectangle_json(rect, q.dim),
            "excess_found": rep.excess_found,
        }
    results["warnings"] = list(rep.warnings)
    results["params_resolved"] = _params_resolved(params)
    results["reference_epsilon"] = fraction_str(params.reference_epsilon())
    return Outcome(results, 0)


def _cmd_plant(config: dict) -> Outcome:
    inst = plant_instance(
        config["h"],
        config["lsize"],
        config["lpsize"],
        parse_fraction(config.get("noise", "0")),
        config.get("seed", 0),
        n=config.get("n", 18),
        lambda_size=config.get("lambda_size", 16),
    )
    results = {
        "q": serialize_set(inst.q),
        "lambda": serialize_set(inst.lam),
        "planted_mass": inst.planted_mass(),
        "noise_size": len(inst.noise),
        "rectangles": [
            {
                "rows": [bits_to_string(e, inst.q.dim) for e in r],
                "cols": [bits_to_string(e, inst.q.dim) for e in c],
            }
            for r, c in zip(inst.rows, inst.cols)
        ],
    }
    return Outcome(results, 0)


_HANDLERS = {
    "energy": _cmd_energy,
    "spectrum": _cmd_spectrum,
    "dissociate": _cmd_dissociate,
    "permanent": _cmd_permanent,
    "fk-test": _cmd_fk_test,
    "lemma-per0": _cmd_lemma_per0,
    "bench": _cmd_bench,
    "extract": _cmd_extract,
    "plant": _cmd_plant,
}


def execute(config: dict, out_path: Optional[str] = None) -> tuple[dict, int]:
    """Run a configuration and assemble the replayable report."""
    start = time.perf_counter()
    outcome = run_config(config)
    report = {
        "command": config["command"],
        "config": config,
        "results": outcome.results,
        "meta": {"runtime_s": round(time.perf_counter() - start, 6)},
    }
    if out_path and outcome.side_text is not None:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(outcome.side_text)
    return report, outcome.exit_code


def replay(report: dict) -> tuple[dict, int]:
    """Re-execute a recorded configuration and compare results bytes."""
    config = report.get("config")
    if not config or "command" not in config:
        raise ValueError("report lacks a replayable config")
    if config["command"] != "replay" and "seed" not in config and _needs_seed(config["command"]):
        raise ValueError("report config lacks the seed needed for replay")
    old = canonical_results(report["results"])
    new = canonical_results(run_config(config).results)
    match = old == new
    results = {"match": match, "bytes": len(new)}
    return results, 0 if match else 1


def _needs_seed(command: str) -> bool:
    return command in ("bench", "extract", "plant")


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f2lab", description="Exact additive-combinatorics toolkit for F_2^n"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_energy = sub.add_parser("energy", help="additive energy of a set")
    p_energy.add_argument("--set", required=True)
    p_energy.add_argument("--k", type=int, required=True)
    p_energy.add_argument("--method", choices=("brute", "spectral", "conv", "all"), default="all")

    p_spec = sub.add_parser("spectrum", help="Fourier table dump and large spectrum")
    p_spec.add_argument("--set", required=True)
    p_spec.add_argument("--alpha", help="threshold as exact rational p/q")
    p_spec.add_argument("--out", help="CSV output path")

    p_diss = sub.add_parser("dissociate", help="family membership test")
    p_diss.add_argument("--check", required=True)
    p_diss.add_argument("--k", type=int, required=True)
    p_diss.add_argument("--R", dest="rfile")

    p_perm = sub.add_parser("permanent", help="exact permanent of a matrix file")
    p_perm.add_argument("--matrix", required=True)

    p_fk = sub.add_parser("fk-test", help="zero-permanent certificate")
    p_fk.add_argument("--matrix", required=True)

    p_l0 = sub.add_parser("lemma-per0", help="exhaustive reduced-permanent family")
    p_l0.add_argument("--exhaustive", nargs=2, type=int, metavar=("P", "R"), required=True)

    p_bench = sub.add_parser("bench", help="theorem sweep")
    p_bench.add_argument(
        "--theorem",
        required=True,
        choices=tuple(_BENCH_SWEEPS),
    )
    p_bench.add_argument("--count", type=int, default=20)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--delta", default="1/64")
    p_bench.add_argument("--d", type=int, default=1)
    p_bench.add_argument("--n", type=int, help="single majority instance at this n")
    p_bench.add_argument("--out", help="CSV output path")

    p_ext = sub.add_parser("extract", help="rectangle extraction pipeline")
    p_ext.add_argument("--q", required=True)
    p_ext.add_argument("--lambda", dest="lam", required=True)
    p_ext.add_argument("--d", type=int, default=2)
    p_ext.add_argument("--p", type=int, default=2)
    p_ext.add_argument("--seed", type=int, default=0)
    p_ext.add_argument("--params", help="JSON object of parameter overrides")

    p_plant = sub.add_parser("plant", help="planted-instance generator")
    p_plant.add_argument("--h", type=int, required=True)
    p_plant.add_argument("--lsize", type=int, required=True)
    p_plant.add_argument("--lpsize", type=int, required=True)
    p_plant.add_argument("--noise", default="0")
    p_plant.add_argument("--seed", type=int, default=0)
    p_plant.add_argument("--n", type=int, default=18)
    p_plant.add_argument("--lambda-size", type=int, default=16)
    p_plant.add_argument("--out-prefix")

    p_replay = sub.add_parser("replay", help="re-run a recorded report")
    p_replay.add_argument("report")

    for name, p in (
        ("energy", p_energy),
        ("spectrum", p_spec),
        ("dissociate", p_diss),
        ("permanent", p_perm),
        ("fk-test", p_fk),
        ("lemma-per0", p_l0),
        ("bench", p_bench),
        ("extract", p_ext),
        ("plant", p_plant),
        ("replay", p_replay),
    ):
        p.add_argument("--report", dest="report_out", help="write the JSON report here")
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def config_from_args(args: argparse.Namespace) -> dict:
    cmd = args.command
    if cmd == "energy":
        return {"command": cmd, "set_text": _read(args.set), "k": args.k, "method": args.method}
    if cmd == "spectrum":
        cfg = {"command": cmd, "set_text": _read(args.set)}
        if args.alpha:
            parse_fraction(args.alpha)
            cfg["alpha"] = args.alpha
        return cfg
    if cmd == "dissociate":
        cfg = {"command": cmd, "set_text": _read(args.check), "k": args.k}
        if args.rfile:
            cfg["r_text"] = _read(args.rfile)
        return cfg
    if cmd in ("permanent", "fk-test"):
        return {"command": cmd, "matrix_text": _read(args.matrix)}
    if cmd == "lemma-per0":
        return {"command": cmd, "p": args.exhaustive[0], "r": args.exhaustive[1]}
    if cmd == "bench":
        cfg = {
            "command": cmd,
            "theorem": args.theorem,
            "count": args.count,
            "seed": args.seed,
            "delta": args.delta,
            "d": args.d,
        }
        if args.n:
            cfg["n"] = args.n
        return cfg
    if cmd == "extract":
        cfg = {
            "command": cmd,
            "q_text": _read(args.q),
            "lambda_text": _read(args.lam),
            "d": args.d,
            "p": args.p,
            "seed": args.seed,
        }
        if args.params:
            cfg["params"] = json.loads(args.params)
        return cfg
    if cmd == "plant":
        return {
            "command": cmd,
            "h": args.h,
            "lsize": args.lsize,
            "lpsize": args.lpsize,
            "noise": args.noise,
            "seed": args.seed,
            "n": args.n,
            "lambda_size": args.lambda_size,
        }
    raise ValueError(f"unhandled command {cmd}")


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            with open(args.report, "r", encoding="ascii") as fh:
                recorded = json.load(fh)
            results, exit_code = replay(recorded)
            report = {"command": "replay", "config": {"command": "replay"}, "results": results}
        else:
            config = config_from_args(args)
            out_path = getattr(args, "out", None)
            report, exit_code = execute(config, out_path)
            if args.command == "plant" and getattr(args, "out_prefix", None):
                prefix = args.out_prefix
                with open(prefix + "_q.set", "w", encoding="ascii") as fh:
                    fh.write(report["results"]["q"])
                with open(prefix + "_lambda.set", "w", encoding="ascii") as fh:
                    fh.write(report["results"]["lambda"])
    except (SetFileError, BudgetError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "report_out", None):
        with open(args.report_out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    print(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
