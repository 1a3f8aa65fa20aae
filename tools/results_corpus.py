"""Hash the canonical `results` and exit code of a fixed corpus of configs.

usage: python tools/results_corpus.py SRC_DIR [--list | --check FILE]

SRC_DIR is the `src` directory of the tree under test, so that two checkouts
(say a parent commit and a change) can be compared by running this script
once against each.  It prints the number of configs and one SHA-256 over
every config's canonical `results` plus exit code; `--list` first prints the
interpreter and then one line per config (index, command, exit code, digest
prefix), which locates the first config where two trees differ.  A change
that claims to keep every `results` block byte for byte should print the
same hash on both sides.

`tools/results_corpus.txt` is the `--list` output of the tree it is
committed with, so a change's diff of it shows which configs moved:
`--check FILE` names every config whose line differs from FILE, as changed,
added or gone, and exits 1 if there is one.  A change that moves bytes on
purpose regenerates the file with `--list > tools/results_corpus.txt`; one
that extends the corpus appends to it.

Another interpreter: error texts, and `random`'s draws, may differ between
minor versions of CPython, so the file's digests hold only for the
implementation and minor version on its first line.  On any other,
`--check` compares nothing and exits 2, and the tier-1 test that checks
every 8th config is skipped; the hash of two trees, each run on one
interpreter, is still a valid comparison there.

The corpus covers `plant`, `extract` at d = 2 to 5 (planted and random Q,
both split branches, parameter overrides of every field but p and the
seed, which their flags set, and Lambdas that are not dissociated), and the
`bench` families that read the inverse layer (`bombieri`, `inverse2`,
`greedy`) or the permanent (`soph`), and `spectrum` and `energy --method
conv` (k = 2..4) on sets at the 1- to 2-byte lane step, in F_2^1 and of the
full group, and on sets of 63 and 2^10 points and the full group in F_2^13
and F_2^14, whose transforms run in pieces; the `diss`, `exact` and `dissd`
families, the `full-sumset-lower` and `diss-energy` rows on dependent
Lambdas (configs with command "row" call the checker directly, since no
command takes a Lambda; the row's fields are hashed as strings with exit
code 0), and `dissociate` with R = {0} and with larger R on independent,
dependent and over-budget Lambdas.  Every config is generated from fixed
seeds; errors are hashed as their type and message.

Last come argument lists, run through `cli.main` over files written to a
temporary directory: every flag of every command, in the `--flag value`
and the `--flag=value` form, repeated flags, negative ints, a CRLF set
file, the benchmark's command shapes and malformed lists.  For each the
report's command, config and results are hashed (never its `meta`, which
holds the run time), with the exit code and whether stdout is the report
at `indent=2, sort_keys`; a list that prints no report, an input error,
hashes its exit code and its empty stdout, not the message on stderr.

Configs added later come after the argument lists, so that every earlier
index keeps its line: full d-fold sumsets and a planted rectangle behind a
prefix, which cover the d-fold grouping of `extract` (each point in the
fiber of every (d-2)-subset of its decomposition), then the `chang`, `maing`
and `bourgain` families, which read R_alpha of a set.
"""

import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from operator import xor

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
from f2lab import bench, cli  # noqa: E402
from f2lab.cli import canonical_results, run_config  # noqa: E402
from f2lab.core import F2Set, parse_set, serialize_set  # noqa: E402
from f2lab.dissociation import random_dissociated  # noqa: E402

PARAMS_CYCLE = [
    {}, {"depth": 1}, {"depth": 6}, {"min_rows": 2, "min_cols": 2},
    {"width": 2, "zeta": "1/2"}, {"coverage_target": "3/4"}, {"min_rows": 3},
    {"zeta": "1/8", "width": 3, "depth": 2}, {"epsilon": "1/2"}, {"min_cols": 3},
]


def run(config):
    try:
        if config["command"] == "row":  # a checker on a given Lambda; no command takes one
            rep = getattr(bench, config["check"])(parse_set(config["lambda_text"]), *config["args"])
            return canonical_results({key: str(getattr(rep, key)) for key in rep.__slots__}), 0
        out = run_config(config)
        return canonical_results(out.results), out.exit_code
    except AssertionError as exc:
        return "ASSERT " + str(exc), 3
    except Exception as exc:  # noqa: BLE001
        return type(exc).__name__ + " " + str(exc), 2


def _extract(q, lam, **extra):
    return {"command": "extract", "q_text": serialize_set(q), "lambda_text": serialize_set(lam),
            **extra}


def _sample_sums(rng, lam, d, dens):
    """A random share dens of the d-fold distinct sums of lam."""
    sums = sorted({reduce(xor, c) for c in itertools.combinations(lam.elems, d)})
    return F2Set.from_bits(lam.dim, rng.sample(sums, max(1, int(dens * len(sums)))))


def configs():
    rng = random.Random(2026)
    k = 0
    # A. planted pair instances, |Lambda| 10..30, both split branches
    for lsize in (10, 12, 14, 16, 17, 18, 20, 24, 30):
        n = 18 if lsize <= 18 else 30
        for h in (1, 2, 3):
            for side, noise in ((3, "1/10"), (4, "1/10"), (3, "1/2")):
                seed = rng.randrange(100)
                plant = {"command": "plant", "h": h, "lsize": side, "lpsize": side, "noise": noise,
                         "seed": seed, "n": n, "lambda_size": lsize}
                yield plant
                try:
                    res = run_config(plant).results
                except Exception:  # noqa: BLE001
                    continue
                for p in (2, 3):
                    k += 1
                    yield {"command": "extract", "q_text": res["q"], "lambda_text": res["lambda"],
                           "p": p, "seed": rng.randrange(1000), "params": PARAMS_CYCLE[k % 10]}
    # B. random Q in Lambda + Lambda at several densities
    for lsize in (10, 13, 16, 17, 20, 25, 30):
        n = 20 if lsize <= 17 else 30
        for dens in (0.15, 0.3, 0.5, 0.8):
            lam = random_dissociated(n, lsize, seed=rng.randrange(1 << 30))
            q = _sample_sums(rng, lam, 2, dens)
            for p in (2, 3):
                k += 1
                yield _extract(q, lam, p=p, seed=rng.randrange(1000), params=PARAMS_CYCLE[k % 10])
    # C. d = 3: random subsets of 3-fold sums and prefixed plants
    for lsize in (9, 10, 12, 14, 16):
        for dens in (0.1, 0.3, 0.6):
            lam = random_dissociated(24, lsize, seed=rng.randrange(1 << 30))
            q = _sample_sums(rng, lam, 3, dens)
            for p, extra in ((2, {}), (3, {}), (2, {"coverage_target": "1/2"}),
                             (2, PARAMS_CYCLE[(k + 3) % 10])):
                k += 1
                yield _extract(q, lam, d=3, p=p, seed=rng.randrange(1000), params=extra)
    for seed in range(12):
        lam = random_dissociated(24, 14, seed=seed)
        perm = random.Random(seed).sample(lam.elems, 14)
        pts = set()
        for i in range(2):
            block = perm[i * 7:(i + 1) * 7]
            for r in block[1:4]:
                for c in block[4:7]:
                    pts.add(block[0] ^ r ^ c)
        q = F2Set.from_bits(24, pts)
        for p in (2, 3):
            yield _extract(q, lam, d=3, p=p, seed=seed, params=PARAMS_CYCLE[seed % 10])
    # D. bench rows that read the intersection walk or the fibers
    for theorem in ("bombieri", "inverse2", "greedy"):
        for seed in range(1, 11):
            yield {"command": "bench", "theorem": theorem, "count": 10, "seed": seed}
    # E. d = 4 and 5: random subsets of d-fold sums, with overrides
    extras = ({}, {"width": 2, "zeta": "1/2"}, {"coverage_target": "1/2"}, {"depth": 1},
              {"min_rows": 2, "min_cols": 2}, {"min_cols": 3})
    for d, sizes in ((4, (8, 10, 12, 13)), (5, (10, 14, 15))):
        for lsize in sizes:
            lam = random_dissociated(24, lsize, seed=rng.randrange(1 << 30))
            for dens in (0.2, 0.5):
                q = _sample_sums(rng, lam, d, dens)
                for p in (2, 3):
                    k += 1
                    yield _extract(q, lam, d=d, p=p, seed=rng.randrange(1000),
                                   params=extras[k % len(extras)])
    # F. Lambdas with a dependency of weight <= 2d (refused), and too small
    for d in (2, 3, 4):
        lam = F2Set.from_bits(8, rng.sample(range(1, 256), 12))
        q = _sample_sums(rng, lam, d, 0.3)
        yield _extract(q, lam, d=d, seed=1)
    lam = random_dissociated(12, 5, seed=4)
    yield _extract(_sample_sums(rng, lam, 4, 1.0), lam, d=4, seed=1)
    # G. more inverse2 rows, and the permanent-backed soph rows
    for theorem, seeds in (("inverse2", range(11, 21)), ("soph", range(1, 11))):
        for seed in seeds:
            yield {"command": "bench", "theorem": theorem, "count": 10, "seed": seed}
    # H. spectra of sets on both sides of the lane-width step (4|A| < 2^8 at
    # |A| = 63, not at 64), in F_2^1 and of the full group, with the
    # convolution energies, whose inverse transform divides inside the lanes
    sets = [F2Set.from_bits(8, rng.sample(range(256), size)) for size in (63, 64)]
    sets += [F2Set(1, elems) for elems in ((), (0,), (1,), (0, 1))]
    sets += [F2Set(n, tuple(range(1 << n))) for n in (3, 8, 12)]
    sets += [F2Set.from_bits(10, rng.sample(range(1024), size)) for size in (5, 300)]
    for a in sets:
        text = serialize_set(a)
        yield {"command": "spectrum", "set_text": text}
        yield {"command": "spectrum", "set_text": text, "alpha": "1/4"}
        for k in (2, 3, 4):
            yield {"command": "energy", "set_text": text, "k": k, "method": "conv"}
    # and at n = 13 and 14, where the transform runs in pieces of 2^12 lanes
    for n in (13, 14):
        for a in [F2Set.from_bits(n, rng.sample(range(1 << n), size)) for size in (63, 1 << 10)] + [
            F2Set(n, tuple(range(1 << n)))
        ]:
            text = serialize_set(a)
            yield {"command": "spectrum", "set_text": text}
            for k in (2, 3, 4):
                yield {"command": "energy", "set_text": text, "k": k, "method": "conv"}
    # I. the families whose lhs is T_p of a full sumset or of a subset of one
    for theorem in ("diss", "exact", "dissd"):
        for seed in range(1, 11):
            yield {"command": "bench", "theorem": theorem, "count": 20, "seed": seed}
    # J. both rows on dependent Lambdas, which take `additive_energy`: a basis
    # with the sum of its words (one relation, of weight 6 and 8), then
    # m - r independent words and r sums of random subsets of them
    lams = [F2Set(m - 1, tuple(1 << i for i in range(m - 1)) + ((1 << m - 1) - 1,)) for m in (6, 8)]
    for n, base, sums in ((8, 7, 1), (9, 8, 1), (10, 8, 2), (12, 9, 2), (12, 10, 3), (13, 10, 1)):
        indep = random_dissociated(n, base, seed=rng.randrange(1 << 30)).elems
        extra = [reduce(xor, rng.sample(indep, rng.randint(2, base))) for _ in range(sums)]
        lams.append(F2Set.from_bits(n, set(indep) | set(extra)))
    for lam in lams:
        text = serialize_set(lam)
        for d, p in ((1, 2), (1, 3), (2, 2), (2, 3)):
            yield {"command": "row", "check": "check_full_sumset_lower", "lambda_text": text, "args": (d, p)}
        for p in (2, 3):
            yield {"command": "row", "check": "check_diss_energy", "lambda_text": text, "args": (p,)}
    # K. the family test with R = {0} and with a larger R, on independent,
    # dependent and over-budget Lambdas (the budget is 5 000 000 subsets)
    lams = [random_dissociated(n, m, seed=rng.randrange(1 << 30)) for n, m in ((8, 5), (16, 12), (30, 30))]
    lams += [F2Set.from_bits(n, rng.sample(range(1, 1 << n), m)) for n, m in ((6, 7), (12, 14), (20, 100))]
    for lam in lams:
        rs = [F2Set(lam.dim, (0,)), F2Set.from_bits(lam.dim, [0] + rng.sample(range(1, 1 << lam.dim), 3))]
        rs.append(F2Set.from_bits(lam.dim, [0] + rng.sample(range(1, 1 << lam.dim), min(200, (1 << lam.dim) - 1))))
        for r in rs:
            for k in (2, 4, len(lam)):
                yield {"command": "dissociate", "set_text": serialize_set(lam), "k": k,
                       "r_text": serialize_set(r)}


def appended_configs():
    """M. extract at d >= 3 on the full 3-fold sumset of 20 elements, the
    full 4-fold sumset of 16, and a 3 x 3 rectangle behind e_0 in the basis
    of F_2^9 with two other 3-sums.  N. the families that read R_alpha of a
    set, from a table they hold (`chang`, `maing`) or from the lanes
    (`bourgain`)."""
    for n, d, seed in ((20, 3, 1), (16, 4, 2)):
        lam = random_dissociated(n, n, seed=seed)
        q = F2Set.from_bits(n, (reduce(xor, c) for c in itertools.combinations(lam.elems, d)))
        yield _extract(q, lam, d=d, seed=1)
    basis = [1 << i for i in range(9)]
    pts = {1 ^ r ^ c for r in basis[1:4] for c in basis[4:7]}
    pts |= {basis[6] ^ basis[7] ^ basis[8], basis[2] ^ basis[5] ^ basis[8]}
    yield _extract(F2Set.from_bits(9, pts), F2Set(9, tuple(basis)), d=3, seed=1)
    for theorem in ("chang", "maing", "bourgain"):
        for seed in (1, 2):
            yield {"command": "bench", "theorem": theorem, "count": 20, "seed": seed}


def run_argv(argv):
    """A report's command, config and results (never its meta) and the exit
    code of `cli.main`; a list that prints no report hashes its empty stdout."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # noqa: BLE001  (an escaped exception is a crash)
        return "CRASH " + type(exc).__name__, 3
    text = out.getvalue()
    if not text:
        return "", code
    report = json.loads(text)
    layout = "" if text == json.dumps(report, indent=2, sort_keys=True) + "\n" else "UNSORTED "
    del report["meta"]
    return layout + canonical_results(report), code


def argv_lists(root):
    """L. argument lists over files written to `root`: every flag of every
    command, in the `--flag value` and the `--flag=value` form, repeated
    flags, negative ints, the benchmark's command shapes and malformed lists.
    A plant writes the Q and Lambda that the extractions after it read."""

    def write(name, text):
        path = os.path.join(root, name)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        return path

    def both(command, *pairs):
        """The list with each (flag, value) as two tokens, then as one."""
        yield [command, *itertools.chain(*pairs)]
        yield [command, *(f"{flag}={value}" for flag, value in pairs)]

    rng = random.Random(34)
    a = write("a.set", serialize_set(F2Set.from_bits(6, rng.sample(range(64), 20))))
    basis = write("basis.set", serialize_set(F2Set(6, tuple(1 << i for i in range(6)))))
    crlf = write("crlf.set", serialize_set(F2Set(6, (3, 5, 6, 9))).replace("\n", "\r\n"))
    r = write("r.set", serialize_set(F2Set.from_bits(6, [0, *rng.sample(range(1, 64), 3)])))
    mats = [write(f"m{i}.mat", text) for i, text in enumerate(
        ("3 4\n1 2 0 1\n0 1 3 1\n2 0 1 1\n", "2 5\n1 0 1 1 2\n0 3 1 0 1\n", "2 2\n0 0\n1 1\n"))]
    report = {"config": {"command": "permanent", "matrix_text": "2 3\n1 1 1\n1 1 1\n"},
              "results": {"permanent": 6, "x": 2, "y": 3}}
    rep = write("rep.json", json.dumps(report))
    report["results"]["permanent"] = 7
    wrong = write("wrong.json", json.dumps(report))
    out = os.path.join(root, "out")
    for method in ("brute", "spectral", "conv", "all"):
        yield from both("energy", ("--set", a), ("--k", "2"), ("--method", method))
    yield from both("energy", ("--set", basis), ("--k", "3"), ("--report", out))
    yield from both("energy", ("--set", a), ("--k", "-3"))
    yield ["energy", "--set", crlf, "--k", "2"]  # the config inlines the text with "\n" line ends
    yield ["energy", "--k", "5", "--set", "nosuch.set", "--method", "brute", "--k", "2",
           "--set", a, "--method=conv"]
    yield from both("spectrum", ("--set", a))
    yield ["spectrum", "--set", a, "--alpha", "1/8"]  # the benchmark's shapes, as `transform` runs them
    for method, k in (("spectral", "2"), ("conv", "3")):
        yield ["energy", "--set", a, "--method", method, "--k", k]
    for alpha in ("1/4", "3/16", "1", "0", "-1/2"):
        yield from both("spectrum", ("--set", a), ("--alpha", alpha), ("--out", out))
    yield ["spectrum", "--set", basis, "--set", a, "--alpha", "1/2", "--alpha=1/8"]
    for k in ("2", "6", "-3"):
        yield from both("dissociate", ("--check", basis), ("--k", k))
        yield from both("dissociate", ("--check", a), ("--k", k), ("--R", r), ("--report", out))
    for mat in mats:
        yield from both("permanent", ("--matrix", mat))
        yield from both("fk-test", ("--matrix", mat), ("--report", out))
    for p, q in (("2", "2"), ("2", "3"), ("3", "4"), ("1", "3"), ("-1", "2")):
        yield ["lemma-per0", "--exhaustive", p, q]
    yield ["lemma-per0", "--exhaustive", "2", "2", "--report", out, "--exhaustive", "1", "2"]
    for theorem in ("chang", "diss", "dissd", "exact", "maing", "bourgain"):
        yield ["bench", "--theorem", theorem, "--count", "2", "--seed", str(rng.randrange(1 << 30))]
    yield ["bench", "--theorem", "majority", "--delta", "1/64"]
    yield from both("bench", ("--theorem", "majority"), ("--delta", "1/32"), ("--d", "2"),
                    ("--n", "8"), ("--out", out), ("--report", out))
    for count, seed in (("3", "-5"), ("-2", "1"), ("1", "7")):
        yield from both("bench", ("--theorem", "soph"), ("--count", count), ("--seed", seed))
    yield ["bench", "--theorem", "diss", "--seed", "1", "--count", "1", "--seed=2"]
    yield from both("bench", ("--theorem", "majority"), ("--n", "-4"))
    prefix = os.path.join(root, "inst")
    yield from both("plant", ("--h", "2"), ("--lsize", "3"), ("--lpsize", "3"), ("--noise", "1/10"),
                    ("--seed", "5"), ("--n", "14"), ("--lambda-size", "12"), ("--out-prefix", prefix))
    yield from both("plant", ("--h", "1"), ("--lsize", "2"), ("--lpsize", "3"), ("--seed", "-7"))
    yield ["plant", "--h", "1", "--lsize", "3", "--lpsize", "3", "--noise=-1/2"]
    q, lam = prefix + "_q.set", prefix + "_lambda.set"
    yield ["extract", "--q", q, "--lambda", lam, "--d", "2", "--p", "2", "--seed", "11"]
    yield from both("extract", ("--q", q), ("--lambda", lam), ("--d", "2"), ("--p", "3"),
                    ("--seed", "-1"), ("--params", '{"depth": 1, "zeta": "1/2"}'), ("--report", out))
    for d, p in (("3", "2"), ("-1", "2"), ("2", "-1")):
        yield from both("extract", ("--q", q), ("--lambda", lam), ("--d", d), ("--p", p))
    yield ["extract", "--q", q, "--lambda", lam, "--params", '{"depth": 1}', "--params", "{}"]
    for path in (rep, wrong):
        yield ["replay", path]
        yield ["replay", "--report", out, path]
    # malformed lists: each is an input error, exit 2 with nothing on stdout
    yield []
    yield ["nosuch"]
    yield ["energy"]
    yield ["energy", "--set", a]
    yield ["energy", "--set", a, "--k"]
    yield ["energy", "--set", a, "--k", "x"]
    yield ["energy", "--set", a, "--k", "2", "--method", "fast"]
    yield ["energy", "--set", a, "--k", "2", "--bogus", "1"]
    yield ["energy", "--set", a, "--k", "2", "--report"]
    yield ["energy", "--set", a, "--k", "2", "stray"]
    yield ["spectrum", "--set", a, "--alpha", "-1/2"]
    yield ["lemma-per0", "--exhaustive", "2"]
    yield ["lemma-per0", "--exhaustive=2"]
    yield ["replay"]
    yield ["replay", rep, wrong]
    yield ["permanent", "--matrix", mats[0], "--matrix"]


INTERPRETER = f"{sys.implementation.name} {sys.version_info.major}.{sys.version_info.minor}"


def digests(every=1):
    """(index, name, exit code, digest) of every `every`-th config, the
    digest a SHA-256 of its canonical text and exit code.  The argument lists
    all run, since a plant among them writes the files that later lists
    read, but only every `every`-th is kept."""

    def digest(text, code):
        return hashlib.sha256(f"{text}\n{code}".encode()).hexdigest()

    index = itertools.count()

    def hashed(source):
        for config in source:
            i = next(index)
            if i % every == 0:
                text, code = run(config)
                yield i, config["command"], code, digest(text, code)

    yield from hashed(configs())
    with tempfile.TemporaryDirectory() as root:
        for argv in argv_lists(root):
            i = next(index)
            text, code = run_argv(argv)
            if i % every == 0:
                yield i, "argv:" + (argv[0] if argv else ""), code, digest(text, code)
    yield from hashed(appended_configs())


def listing_line(row):
    i, name, code, digest = row
    return f"{i} {name} {code} {digest[:16]}"


def read_listing(path):
    """The interpreter of a `--list` file ("cpython 3.11") and its config
    lines by index."""
    with open(path, encoding="ascii") as fh:
        head, *lines = fh.read().splitlines()
    interpreter = head.removeprefix("# ").rpartition(".")[0]
    return interpreter, {int(line.split()[0]): line for line in lines if len(line.split()) == 4}


def differences(pinned, rows):
    """One line per config whose listing line is in only one of `pinned`
    ({index: line}) and `rows`, or differs between them."""
    got = {row[0]: listing_line(row) for row in rows}
    out = []
    for i in sorted(pinned.keys() | got.keys()):
        if i not in got:
            out.append(f"gone: {pinned[i]}")
        elif i not in pinned:
            out.append(f"added: {got[i]}")
        elif pinned[i] != got[i]:
            out.append(f"changed: {pinned[i]} -> {got[i]}")
    return out


def main():
    if "--check" in sys.argv:
        interpreter, pinned = read_listing(sys.argv[sys.argv.index("--check") + 1])
        if interpreter != INTERPRETER:
            print(f"the listing was taken on {interpreter}, not {INTERPRETER}: nothing compared")
            sys.exit(2)
    rows = list(digests())
    total = hashlib.sha256("".join(f"{row[3]}\n" for row in rows).encode()).hexdigest()
    if "--list" in sys.argv:
        print(f"# {INTERPRETER}.{sys.version_info.micro}")
        print("\n".join(map(listing_line, rows)))
    print(len(rows), total)
    if "--check" in sys.argv:
        found = differences(pinned, rows)
        print("\n".join(found or ["no config moved"]))
        sys.exit(1 if found else 0)


if __name__ == "__main__":
    main()
