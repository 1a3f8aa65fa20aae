"""Per-layer trace of f2lab, recorded from outside the program.

The commands of a workload run in this process through `f2lab.cli.main`.
Passes with the trace off alternate with passes with it on. For the traced
passes every function named in TRACED (and every public function of the
GROUPS) is replaced by a timing wrapper, in every f2lab module namespace
that holds it, so calls made through `from .x import y` bindings are seen
too. A span's self time is its duration minus that of the spans it
encloses. Functions missing from the tree under test are reported as
absent, not as an error.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import statistics
import sys
import time
from collections import Counter
from math import comb

TRACED = {
    "cli": ("main",),
    "core": ("parse_set",),
    "wht": ("wht", "inverse_wht", "large_spectrum_from_table"),
    "energy": ("additive_energy", "energy_bruteforce", "energy_spectral", "energy_convolution"),
    "dissociation": ("in_family", "random_dissociated"),
    "permanent": ("permanent", "fk_zero_test", "reduced_permanent_check"),
    "inverse": ("extract_rectangles_pair", "refine_connected"),
    "exact": ("log2_bounds", "pow2_bounds", "certify_le"),
}
# layer name -> (module, which of its public functions belong to the layer)
GROUPS = {
    "bench.checks": ("bench", lambda name: name.startswith("check_") or name == "verify_majority"),
    "exact": ("exact", lambda name: True),
}


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _count_parse_set(counts, args, kwargs, result, self_s):
    counts["core.parse_set.elems"] += len(result)


def _count_wht(counts, args, kwargs, result, self_s):
    n = _first_arg(args, kwargs).dim
    counts["wht.wht.entries"] += 1 << n
    counts["wht.wht.butterflies"] += (1 << n) // 2 * n


def _count_in_family(counts, args, kwargs, result, self_s):
    counts["dissociation.in_family.work"] += result.work
    counts["dissociation.in_family.undecided"] += result.status == "undecided"


def _count_permanent(counts, args, kwargs, result, self_s):
    rows = _first_arg(args, kwargs).rows
    x, y = sorted((len(rows), len(rows[0])))
    counts["permanent.permanent.subsets"] += sum(comb(y, s) for s in range(x + 1))
    counts["permanent.permanent.square.self_s" if x == y else "permanent.permanent.rect.self_s"] += self_s


def _count_certify(counts, args, kwargs, result, self_s):
    counts["exact.certify_le.unknown"] += result == "unknown"


HOOKS = {
    "core.parse_set": _count_parse_set,
    "wht.wht": _count_wht,
    "dissociation.in_family": _count_in_family,
    "permanent.permanent": _count_permanent,
    "exact.certify_le": _count_certify,
}


class Tracer:
    """Timing wrappers for the traced functions, installed on demand."""

    def __init__(self):
        self.modules = {}
        for name in {*TRACED, *(m for m, _ in GROUPS.values())}:
            try:
                self.modules[name] = importlib.import_module(f"f2lab.{name}")
            except ModuleNotFoundError:
                pass  # its functions are reported absent
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.members: dict[str, set[str]] = {layer: set() for layer in GROUPS}
        self._stack: list[float] = []
        self._wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        self._restore: list[tuple[object, str, object]] = []
        for mod_name, names in TRACED.items():
            for name in names:
                self._add(mod_name, name)
        for layer, (mod_name, member) in GROUPS.items():
            mod = self.modules.get(mod_name)
            for name, fn in vars(mod).items() if mod else ():
                if member(name) and _public_function(mod, name, fn):
                    self._add(mod_name, name)
                    self.members[layer].add(f"{mod_name}.{name}")

    def _add(self, mod_name: str, name: str) -> None:
        mod = self.modules.get(mod_name)
        fn = getattr(mod, name, None)
        if mod is None or not _public_function(mod, name, fn):
            self.absent.append(f"{mod_name}.{name}")
            return
        if id(fn) not in self._wrappers:
            self._wrappers[id(fn)] = (fn, self._wrap(f"{mod_name}.{name}", fn))

    def _wrap(self, key: str, fn):
        stack, calls, self_s, counts = self._stack, self.calls, self.self_s, self.counts
        hook = HOOKS.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                own = dt - stack.pop()
                if stack:
                    stack[-1] += dt
                calls[key] += 1
                self_s[key] += own
            if hook is not None:
                hook(counts, args, kwargs, result, own)
            return result

        return wrapper

    def install(self) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "f2lab" or mod_name.startswith("f2lab.")):
                continue
            for attr, value in list(vars(mod).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, pair[1])

    def uninstall(self) -> None:
        while self._restore:
            mod, attr, value = self._restore.pop()
            setattr(mod, attr, value)

    def present(self, key: str) -> bool:
        return key not in self.absent


def _public_function(mod, name: str, fn) -> bool:
    return (not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == mod.__name__)


def _call_main(argv: list[str]) -> tuple[float, int, str]:
    cli = sys.modules["f2lab.cli"]
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an escaped exception is a failed command; the check counts it
            code = 1
    return time.perf_counter() - t0, code, out.getvalue()


def _run_pass(cmds, tally) -> float:
    state: dict = {}
    wall = 0.0
    for cmd in cmds:
        dt, code, stdout = _call_main(cmd.argv)
        wall += dt
        tally.add(cmd, stdout, code, state)
    return wall


def per_layer(inputs, seconds: float, tally) -> tuple[dict, dict]:
    """Alternate untraced and traced in-process passes; return the metrics."""
    import f2lab.cli  # noqa: F401  (the tree under test, via PYTHONPATH)

    tracer = Tracer()
    _run_pass(inputs(0), tally)  # untimed warm-up
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        cmds = inputs(len(traced) + 1)
        plain.append(_run_pass(cmds, tally))
        tracer.install()
        try:
            traced.append(_run_pass(cmds, tally))
        finally:
            tracer.uninstall()
    metrics = layer_metrics(tracer, len(traced))
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    info = {"passes": len(traced), "absent": tracer.absent,
            "plain_pass_s": statistics.median(plain), "traced_pass_s": statistics.median(traced)}
    return metrics, info


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass means of the traced counters, by metric name."""
    calls = {k: v / passes for k, v in tracer.calls.items()}
    self_s = {k: v / passes for k, v in tracer.self_s.items()}
    counts = {k: v / passes for k, v in tracer.counts.items()}
    out: dict = {}

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    for mod_name, names in TRACED.items():
        for name in names:
            key = f"{mod_name}.{name}"
            if tracer.present(key):
                out[f"{key}.calls"] = (calls.get(key, 0.0), "count")
                out[f"{key}.self_s"] = (self_s.get(key, 0.0), "s")
    for key in ("core.parse_set.elems", "wht.wht.entries", "wht.wht.butterflies",
                "dissociation.in_family.work", "permanent.permanent.subsets"):
        if tracer.present(key.rsplit(".", 1)[0]):
            out[key] = (counts.get(key, 0.0), "count")
    if tracer.present("wht.wht"):
        out["wht.wht.ns_per_butterfly"] = (
            ratio(self_s.get("wht.wht", 0.0), counts.get("wht.wht.butterflies", 0), 1e9), "ns")
    if tracer.present("dissociation.in_family"):
        out["dissociation.in_family.undecided_frac"] = (
            ratio(counts.get("dissociation.in_family.undecided", 0), calls.get("dissociation.in_family", 0)),
            "ratio")
    if tracer.present("permanent.permanent"):
        out["permanent.permanent.ns_per_subset"] = (
            ratio(self_s.get("permanent.permanent", 0.0), counts.get("permanent.permanent.subsets", 0), 1e9),
            "ns")
        for shape in ("square", "rect"):
            key = f"permanent.permanent.{shape}.self_s"
            out[key] = (counts.get(key, 0.0), "s")
    for layer, keys in tracer.members.items():
        out[f"{layer}.calls"] = (sum(calls.get(k, 0.0) for k in keys), "count")
        out[f"{layer}.self_s"] = (sum(self_s.get(k, 0.0) for k in keys), "s")
    if tracer.present("exact.certify_le"):
        out["exact.certify_le.unknown_frac"] = (
            ratio(counts.get("exact.certify_le.unknown", 0), calls.get("exact.certify_le", 0)), "ratio")
    return out

