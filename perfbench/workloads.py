"""Seeded workloads for the f2lab benchmark: inputs, command lists, checks.

A workload is a pool of POOL passes. Each pass is a list of f2lab CLI
commands over input files written from the benchmark seed; different passes
of one pool use different inputs drawn from the same seed, so the median over
passes averages over inputs as well as over noise.

Every command comes with a check that reads the JSON report and exit code
and returns the problems found. The checks recompute what they can from the
inputs with plain XOR arithmetic, independently of f2lab; on the default seed
the named result fields are also compared with pinned digests.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

POOL = 4
DEFAULT_SEED = 1  # digests.json pins the full-size outputs of this seed
WORKLOADS = ("transform", "extract", "sweep", "permanent")
SIZES = ("full", "tiny")
# per workload: the work item of items_per_s, and what quality_frac counts
ITEMS = {"transform": "table_entries", "extract": "instances", "sweep": "rows", "permanent": "ryser_subsets"}
QUALITY_NAMES = {"transform": "checked_frac", "extract": "recovered_frac", "sweep": "decided_frac",
                 "permanent": "checked_frac"}


@dataclass
class Outcome:
    """What the checks of one command found."""

    errors: list[str] = field(default_factory=list)
    useful: int = 0  # outcomes reaching the workload's quality bar
    considered: int = 0  # outcomes the quality bar was applied to
    items: int = 0  # work units known only from the report


# check(results, exit_code, pass_state) -> Outcome; pass_state is shared by
# the commands of one pass, for checks that relate two commands.
Check = Callable[[dict, int, dict], Outcome]


@dataclass
class Command:
    argv: list[str]
    items: int  # work units for items_per_s fixed by the input size
    check: Check
    digest_fields: tuple[str, ...]
    key: str = ""  # "<pass>:<index>", names the command in digests.json


def digest(results: dict, fields: tuple[str, ...]) -> str:
    picked = {f: results.get(f) for f in fields}
    if "rows" in picked:  # bench rows: only the statuses are pinned
        picked["rows"] = [r.get("status") for r in picked["rows"] or []]
    blob = json.dumps(picked, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# input files


def _bits_text(e: int, n: int) -> str:
    # set-file convention: leftmost character is coordinate 1, the lowest bit
    return format(e, f"0{n}b")[::-1]


def _text_bits(s: str) -> int:
    return int(s[::-1], 2)


def _write_set(path: Path, n: int, elems) -> None:
    lines = [str(n)]
    lines.extend(_bits_text(e, n) for e in sorted(elems))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_matrix(path: Path, rows) -> None:
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines.extend(" ".join(map(str, r)) for r in rows)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _gf2_rank(vectors) -> int:
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def _independent(rng: random.Random, n: int, m: int) -> list[int]:
    """m linearly independent vectors of F_2^n: every subset sum is distinct,
    so the set lies in every dissociated family f2lab tests for."""
    while True:
        vs = rng.sample(range(1, 1 << n), m)
        if _gf2_rank(vs) == m:
            return vs


def _fail(message: str) -> Outcome:
    return Outcome(errors=[message])


# ---------------------------------------------------------------------------
# transform: few commands over big Walsh-Hadamard tables

TRANSFORM_SIZES = {
    # (n, |A|) of the two spectrum sets, (n, |B|) of the energy set
    "full": ((18, 1 << 15), (16, 1 << 11)),
    "tiny": ((10, 1 << 7), (8, 1 << 5)),
}
ALPHA = (1, 64)


def _check_spectrum(n: int, elems: list[int]) -> Check:
    def check(res: dict, code: int, _state: dict) -> Outcome:
        if code != 0:
            return _fail(f"exit {code}")
        if res.get("parseval_ok") is not True:
            return _fail("parseval_ok is not true")
        if res.get("dim") != n or res.get("set_size") != len(elems):
            return _fail("dim or set_size does not match the input")
        spec = res.get("large_spectrum") or []
        if _bits_text(0, n) not in spec:
            return _fail("the zero frequency is missing from the large spectrum")
        num, den = ALPHA
        for s in spec:  # |A_hat(r)| >= alpha N, recomputed by direct summation
            r = _text_bits(s)
            odd = sum((r & a).bit_count() & 1 for a in elems)
            if abs(len(elems) - 2 * odd) * den < num << n:
                return _fail(f"{s} is below the threshold but was listed")
        return Outcome(useful=1, considered=1)

    return check


def _check_energy(n: int, size: int, k: int, method: str) -> Check:
    # trivial k-tuple solutions give |A|^k; Cauchy-Schwarz gives |A|^2k / N
    lower = max(size**k, -(-(size ** (2 * k)) >> n))
    upper = size ** (2 * k - 1)

    def check(res: dict, code: int, _state: dict) -> Outcome:
        if code != 0:
            return _fail(f"exit {code}")
        value = res.get("value")
        if res.get("k") != k or res.get("set_size") != size or list(res.get("methods", {})) != [method]:
            return _fail("k, set_size or methods do not match the command")
        if not isinstance(value, int) or not lower <= value <= upper:
            return _fail(f"T_{k} = {value!r} outside [{lower}, {upper}]")
        return Outcome(useful=1, considered=1)

    return check


def build_transform(rng: random.Random, pdir: Path, size: str) -> list[Command]:
    (n1, s1), (n2, s2) = TRANSFORM_SIZES[size]
    alpha = f"{ALPHA[0]}/{ALPHA[1]}"
    cmds = []
    for name, n, s in (("a0", n1, s1), ("a1", n1, s1), ("b", n2, s2)):
        elems = rng.sample(range(1 << n), s)
        path = pdir / f"{name}.set"
        _write_set(path, n, elems)
        cmds.append(
            Command(["spectrum", "--set", str(path), "--alpha", alpha], 1 << n,
                    _check_spectrum(n, elems), ("csv_sha256", "large_spectrum"))
        )
    # the third spectrum (on the energy set) keeps the command median inside
    # the cluster of small-table commands instead of between two clusters
    for method, k in (("spectral", 2), ("conv", 3)):
        cmds.append(
            Command(["energy", "--set", str(pdir / "b.set"), "--method", method, "--k", str(k)],
                    1 << n2, _check_energy(n2, s2, k, method), ("value",))
        )
    return cmds


# ---------------------------------------------------------------------------
# extract: one rectangle extraction per planted pair instance

EXTRACT_SIZES = {
    # instances per pass, n, |Lambda|, rectangle side
    "full": (12, 18, 16, 4),
    "tiny": (3, 12, 8, 2),
}
NOISE = (1, 10)


def _plant(rng: random.Random, h: int, n: int, m: int, side: int):
    """h disjoint side x side rectangles in the pair sums of a random
    independent Lambda, plus noise pairs; rows get private blocks of Lambda
    and columns share one block when Lambda is too small for private ones."""
    lam = _independent(rng, n, m)
    if h * 2 * side <= m:
        blocks = [(lam[2 * i * side:(2 * i + 1) * side], lam[(2 * i + 1) * side:(2 * i + 2) * side])
                  for i in range(h)]
    else:
        shared = lam[h * side:(h + 1) * side]
        blocks = [(lam[i * side:(i + 1) * side], shared) for i in range(h)]
    planted = {r ^ c for rows, cols in blocks for r in rows for c in cols}
    pair_sums = sorted({a ^ b for i, a in enumerate(lam) for b in lam[i + 1:]} - planted)
    noise = rng.sample(pair_sums, len(planted) * NOISE[0] // NOISE[1])
    return lam, planted | set(noise), planted


def _check_extract(q: set[int], planted: set[int]) -> Check:
    def check(res: dict, code: int, _state: dict) -> Outcome:
        if code != 0:
            return _fail(f"exit {code}")
        taken: set[int] = set()
        for rect in res.get("rectangles", []):
            pts = {_text_bits(r) ^ _text_bits(c) for r in rect["rows"] for c in rect["cols"]}
            if rect.get("prefix") or len(pts) != len(rect["rows"]) * len(rect["cols"]):
                return _fail("a rectangle has a prefix or repeated sums")
            if not pts <= q:
                return _fail("a rectangle leaves Q")
            if pts & taken:
                return _fail("two rectangles overlap")
            taken |= pts
        if res.get("covered") != len(taken) or res.get("q_size") != len(q):
            return _fail("covered or q_size does not match the rectangles")
        recovered = len(taken & planted) * 10 >= 9 * len(planted)
        return Outcome(useful=int(recovered), considered=1)

    return check


def build_extract(rng: random.Random, pdir: Path, size: str) -> list[Command]:
    count, n, m, side = EXTRACT_SIZES[size]
    cmds = []
    for i in range(count):
        lam, q, planted = _plant(rng, i % 3 + 1, n, m, side)
        qpath, lpath = pdir / f"q{i}.set", pdir / f"l{i}.set"
        _write_set(qpath, n, q)
        _write_set(lpath, n, lam)
        argv = ["extract", "--q", str(qpath), "--lambda", str(lpath), "--d", "2", "--p", "2",
                "--seed", str(rng.randrange(1 << 30))]
        cmds.append(Command(argv, 1, _check_extract(q, planted), ("rectangles",)))
    return cmds


# ---------------------------------------------------------------------------
# sweep: theorem-checker sweeps over many small tables

SWEEP_COUNTS = {
    "full": {"chang": 200, "diss": 200, "dissd": 100, "exact": 200, "maing": 200, "bourgain": 100},
    "tiny": {"chang": 4, "diss": 4, "dissd": 4, "exact": 4, "maing": 4, "bourgain": 4},
}
DECIDED = ("holds", "violated")


def _check_bench(res: dict, code: int, _state: dict) -> Outcome:
    rows = res.get("rows")
    if not rows:
        return _fail("no report rows")
    statuses = [r.get("status") for r in rows]
    if "violated" in statuses:
        return _fail(f"{statuses.count('violated')} rows violated")
    holds = statuses.count("holds")
    if (res.get("holds"), res.get("violated"), res.get("other")) != (holds, 0, len(rows) - holds):
        return _fail("holds/violated/other counts do not match the rows")
    undecided = any(s in ("undecided", "precondition-failed", "hypothesis-not-met") for s in statuses)
    if code != (2 if undecided else 0):
        return _fail(f"exit {code} does not match the row statuses")
    decided = sum(s in DECIDED for s in statuses)
    return Outcome(useful=decided, considered=len(rows), items=len(rows))


def build_sweep(rng: random.Random, _pdir: Path, size: str) -> list[Command]:
    cmds = []
    for theorem, count in SWEEP_COUNTS[size].items():
        argv = ["bench", "--theorem", theorem, "--count", str(count),
                "--seed", str(rng.randrange(1 << 30))]
        cmds.append(Command(argv, 0, _check_bench, ("rows",)))
    cmds.append(Command(["bench", "--theorem", "majority", "--delta", "1/64"], 0, _check_bench, ("rows",)))
    return cmds


# ---------------------------------------------------------------------------
# permanent: Ryser permanents and Frobenius-Koenig tests, square and wide

PERMANENT_SIZES = {
    "full": ((16, 16), (18, 18), (8, 21), (3, 4)),
    "tiny": ((5, 5), (6, 6), (3, 7), (2, 3)),
}


def _det_gf2(rows) -> int:
    """det mod 2, which equals the permanent mod 2."""
    vecs = [sum((v & 1) << j for j, v in enumerate(r)) for r in rows]
    return int(_gf2_rank(vecs) == len(rows))


def _ryser_subsets(x: int, y: int) -> int:
    x, y = min(x, y), max(x, y)
    return sum(comb(y, s) for s in range(x + 1))


def _check_permanent(name: str, rows) -> Check:
    square = len(rows) == len(rows[0])

    def check(res: dict, code: int, state: dict) -> Outcome:
        if code != 0:
            return _fail(f"exit {code}")
        value = res.get("permanent")
        if (res.get("x"), res.get("y")) != (len(rows), len(rows[0])) or not isinstance(value, int):
            return _fail("shape or permanent type does not match the input")
        if value < 0 or (square and value % 2 != _det_gf2(rows)):
            return _fail(f"permanent {value} is negative or has the wrong parity")
        state[name] = value
        return Outcome(useful=1, considered=1)

    return check


def _check_fk(name: str, rows) -> Check:
    x, y = len(rows), len(rows[0])

    def check(res: dict, code: int, state: dict) -> Outcome:
        if code != 0:
            return _fail(f"exit {code}")
        verdict = res.get("verdict")
        if name not in state or (state[name] == 0) != (verdict == "zero"):
            return _fail(f"fk-test says {verdict!r} but the permanent is {state.get(name)!r}")
        if verdict == "positive":
            sdr = res.get("sdr") or []
            pairs = list(enumerate(sdr)) if x <= y else [(j, i) for i, j in enumerate(sdr)]
            if len(sdr) != min(x, y) or len(set(sdr)) != len(sdr) or any(rows[i][j] == 0 for i, j in pairs):
                return _fail("the SDR is not a system of distinct representatives")
        else:
            zr, zc = res.get("zero_rows", []), res.get("zero_cols", [])
            if len(zr) + len(zc) != max(x, y) + 1 or any(rows[i][j] for i in zr for j in zc):
                return _fail("the zero block is not a Frobenius-Koenig certificate")
        return Outcome(useful=1, considered=1)

    return check


def _check_lemma(p: int, r: int) -> Check:
    def check(res: dict, code: int, _state: dict) -> Outcome:
        if code != 0 or res.get("all_reduced_permanents_positive") is not True:
            return _fail(f"exit {code}, reduced permanents not all positive")
        if res.get("matrices_scanned") != 3 ** (p * r):
            return _fail("matrices_scanned is not 3^(p r)")
        return Outcome(useful=1, considered=1)

    return check


def build_permanent(rng: random.Random, pdir: Path, size: str) -> list[Command]:
    *shapes, (p, r) = PERMANENT_SIZES[size]
    cmds = []
    for x, y in shapes:
        name = f"m{x}x{y}"
        rows = [[rng.randint(0, 3) for _ in range(y)] for _ in range(x)]
        path = pdir / f"{name}.mat"
        _write_matrix(path, rows)
        cmds.append(Command(["permanent", "--matrix", str(path)], _ryser_subsets(x, y),
                            _check_permanent(name, rows), ("permanent",)))
        cmds.append(Command(["fk-test", "--matrix", str(path)], 0, _check_fk(name, rows),
                            ("verdict",)))
    cmds.append(Command(["lemma-per0", "--exhaustive", str(p), str(r)], 0, _check_lemma(p, r),
                        ("hypotheses_satisfied", "all_reduced_permanents_positive")))
    return cmds


BUILDERS = {
    "transform": build_transform,
    "extract": build_extract,
    "sweep": build_sweep,
    "permanent": build_permanent,
}


def build_pass(workload: str, seed: int, p: int, workdir: Path, size: str = "full") -> list[Command]:
    """Write the inputs of pass p of the pool and return its commands.

    The same (workload, seed, p, size) always gives the same inputs: each
    pass draws from its own string-seeded generator, which does not depend
    on PYTHONHASHSEED.
    """
    pdir = workdir / f"p{p}"
    pdir.mkdir(parents=True, exist_ok=True)
    cmds = BUILDERS[workload](random.Random(f"{workload}/{seed}/{p}"), pdir, size)
    for i, c in enumerate(cmds):
        c.key = f"{p}:{i}"
    return cmds


def load_digests(path: Path, workload: str, seed: int, size: str) -> dict[str, str] | None:
    """Pinned digests, or None when this run is not the pinned one."""
    if seed != DEFAULT_SEED or size != "full" or not path.is_file():
        return None
    return json.loads(path.read_text())["workloads"].get(workload)
