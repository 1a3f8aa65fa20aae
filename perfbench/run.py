"""End-to-end benchmark of the f2lab CLI.

Run from the root of an f2lab source tree:

    python3 perfbench/run.py --workload transform --seed 1 --seconds 20 --trace 0

With --trace 0 every command of the workload runs as a `python -m f2lab.cli`
subprocess of the tree under test, one at a time (a closed loop with one
client), and the last line of output is a JSON object with the end-to-end
metrics. With --trace 1 the same commands run in this process through
`f2lab.cli.main`, with the public functions of each module timed, and the
metrics are per layer (see layers.py). Every output is checked either way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from workloads import Command, Outcome

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
WORKDIR = Path(".perfbench_work")  # relative to the tree under test
SETUP_SECONDS = 0.05
STARTUP_REPEATS = 7
IMPORT_CLI = ["-c", "import f2lab.cli"]
REFERENCE = [str(HERE / "reference.py")]


def pinned_env(root: Path) -> dict[str, str]:
    """The whole environment of every f2lab process the benchmark starts."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": "0",
    }


def machine(seed: int) -> dict:
    """What a number from this run depends on besides the tree."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "seed": seed,
    }


class Tally:
    """Check outcomes of every command a run attempted."""

    def __init__(self, digests: dict[str, str] | None, record: dict[str, str] | None = None):
        self.digests = digests
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.useful = 0
        self.considered = 0
        self.seen: set[str] = set()
        self.errors: list[str] = []

    def add(self, cmd: Command, stdout: str, code: int, state: dict) -> Outcome:
        self.attempted += 1
        try:
            results = json.loads(stdout)["results"]
        except (ValueError, KeyError, TypeError):
            out = Outcome(errors=[f"exit {code}, no JSON report"])
            results = None
        else:
            try:
                out = cmd.check(results, code, state)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                out = Outcome(errors=[f"malformed report: {exc!r}"])
        if results is not None and not out.errors:
            got = workloads.digest(results, cmd.digest_fields)
            if self.record is not None:
                self.record[cmd.key] = got
            elif self.digests is not None and self.digests.get(cmd.key) != got:
                out.errors.append(f"digest {got} differs from the pinned {self.digests.get(cmd.key)}")
        if out.errors:
            self.failed += 1
            self.errors.append(f"{cmd.key} {' '.join(cmd.argv)}: {'; '.join(out.errors)}")
        if cmd.key not in self.seen:  # quality counts each pool command once
            self.seen.add(cmd.key)
            self.useful += out.useful
            self.considered += out.considered
        return out

    def quality(self) -> float:
        return self.useful / self.considered if self.considered else 0.0


def spawn(args: list[str], env: dict[str, str], stdout_path: str | Path = os.devnull):
    """Run the interpreter with args; return (wall_s, cpu_s, maxrss_mb, exit_code)."""
    fd = os.open(stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, *args],
            env,
            file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)],
        )
    finally:
        os.close(fd)
    # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be the
    # high-water mark over every child so far
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def spawn_checked(args: list[str], env: dict[str, str]) -> tuple[float, float]:
    """(wall_s, cpu_s) of a helper process that must succeed."""
    wall, cpu, _, code = spawn(args, env)
    if code != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {code}")
    return wall, cpu


class Inputs:
    """Writes the inputs of each pass just before it runs, timing the build.

    Each build is repeated for SETUP_SECONDS, and again() rebuilds one pass
    after every command, so the median build time of each pass is taken over
    the whole run and sees the same machine as the timed commands.
    """

    def __init__(self, workload: str, seed: int, size: str):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.times: dict[int, list[float]] = {}
        self.rebuilt = 0

    def _build(self, p: int) -> tuple[list[Command], float]:
        t0 = time.perf_counter()
        cmds = workloads.build_pass(self.workload, self.seed, p, WORKDIR, self.size)
        t1 = time.perf_counter()
        self.times.setdefault(p, []).append(t1 - t0)
        return cmds, t1

    def __call__(self, i: int) -> list[Command]:
        """The commands of the i-th pass of the run."""
        p = i % workloads.POOL
        start = time.perf_counter()
        while True:
            cmds, t1 = self._build(p)
            if t1 - start >= SETUP_SECONDS:
                return cmds

    def again(self) -> None:
        """Time one more build, of the passes in turn; the files it writes
        are the same as before."""
        self._build(self.rebuilt % workloads.POOL)
        self.rebuilt += 1

    def setup_s(self) -> float:
        """Time to write the inputs of the whole pool."""
        return sum(statistics.median(t) for t in self.times.values())


def pin_cpu() -> None:
    """Keep this process and its children on one CPU.

    The speed a process gets on a shared machine changes by up to 2x within
    seconds; on one CPU the reference and the command next to it see the
    same speed. f2lab runs one thread unless F2LAB_THREADS says otherwise,
    and the benchmark unsets it.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def end_to_end(inputs: Inputs, env, seconds: float, tally: Tally) -> tuple[dict, dict]:
    # untimed warm-up: compiles the tree's .pyc files (each pass writes its
    # inputs just before it runs, so they are in the file cache)
    spawn_checked(IMPORT_CLI, env)
    out_path = WORKDIR / "stdout.json"
    # per pool command: (wall, cpu, wall_ref, cpu_ref, rss, items) of each run
    runs: dict[str, list[tuple]] = {}
    refs = [spawn_checked(REFERENCE, env)]
    start = time.perf_counter()
    p, done = 0, False
    while not done:
        state: dict = {}
        cmds = inputs(p)
        for i, cmd in enumerate(cmds):
            wall, cpu, rss, code = spawn(["-m", "f2lab.cli", *cmd.argv], env, out_path)
            refs.append(spawn_checked(REFERENCE, env))
            inputs.again()
            # each command is timed against the references run just before
            # and just after it: the machine's speed swings by up to 2x
            # within seconds, and the reference swings with it
            ref_wall = (refs[-2][0] + refs[-1][0]) / 2
            ref_cpu = (refs[-2][1] + refs[-1][1]) / 2
            stdout = out_path.read_text(encoding="ascii", errors="replace")
            items = cmd.items + tally.add(cmd, stdout, code, state).items
            runs.setdefault(cmd.key, []).append((wall, cpu, wall / ref_wall, cpu / ref_cpu, rss, items))
            # every command of the pool runs at least once, so the metrics
            # cover the same inputs however fast the tree is
            pool_done = p >= workloads.POOL or (p == workloads.POOL - 1 and i == len(cmds) - 1)
            done = pool_done and time.perf_counter() - start >= seconds
            if done:
                break
        p += 1
    med = statistics.median

    def per_pass(col: int) -> float:
        """A pass's time: each command's median over its runs, summed over
        the pool and divided by the number of passes in the pool."""
        return sum(med(r[col] for r in rs) for rs in runs.values()) / workloads.POOL

    metrics = {
        "wall_ref": (per_pass(2), "ref"),
        "cpu_ref": (per_pass(3), "ref"),
        "peak_rss_mb": (max(med(r[4] for r in rs) for rs in runs.values()), "MB"),
    }
    every = [r for rs in runs.values() for r in rs]
    item = workloads.ITEMS[inputs.workload]
    # printed with their units but not bounded; raw times follow the
    # machine's speed, and the median command falls between clusters of
    # command times and moves with the seed
    reported = {
        "wall_s": (per_pass(0), "s"),
        "cpu_s": (per_pass(1), "s"),
        "reference_s": (med(r[0] for r in refs), "s"),
        "items_per_s": (sum(r[5] for r in every) / sum(r[0] for r in every), f"{item}/s"),
        "cmd_p50_s": (med(r[0] for r in every), "s"),
        "cmd_samples": (len(every), "count"),
    }
    info = {"passes_started": p, "commands": len(every), "references": len(refs), "reported": reported}
    return metrics, info


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny inputs for a smoke run")
    ap.add_argument("--write-digests", action="store_true",
                    help=f"pin this run's outputs in digests.json (seed {workloads.DEFAULT_SEED}, full size)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "f2lab" / "cli.py").is_file():
        print("perfbench: run from the root of an f2lab tree (src/f2lab/cli.py not found)", file=sys.stderr)
        return 2
    env = pinned_env(root)
    if any(os.environ.get(k) != v for k, v in env.items()) or "F2LAB_THREADS" in os.environ:
        # the traced run imports f2lab in this process, so pin this process too
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    record = None
    if args.write_digests:
        if args.seed != workloads.DEFAULT_SEED or args.size != "full":
            print("perfbench: digests are pinned for the default seed at full size", file=sys.stderr)
            return 2
        record = {}
    host = machine(args.seed)  # before pin_cpu, which changes what nproc sees
    tally = Tally(workloads.load_digests(DIGESTS, args.workload, args.seed, args.size), record)
    try:
        inputs = Inputs(args.workload, args.seed, args.size)
        if args.trace:
            import layers

            metrics, info = layers.per_layer(inputs, args.seconds, tally)
            startup = statistics.median(spawn_checked(IMPORT_CLI, env)[0] for _ in range(STARTUP_REPEATS))
            metrics["cli.startup_s"] = (startup, "s")
        else:
            pin_cpu()
            metrics, info = end_to_end(inputs, env, args.seconds, tally)
            metrics["setup_s"] = (inputs.setup_s(), "s")
            metrics["quality_frac"] = (tally.quality(), "ratio")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    if record is not None and tally.failed:
        print("perfbench: digests not written, some commands failed", file=sys.stderr)
    elif record is not None:
        pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {"seed": args.seed, "workloads": {}}
        pinned["workloads"][args.workload] = record
        DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")

    for err in tally.errors[:20]:
        print("FAILED", err)
    print("machine", json.dumps(host, sort_keys=True))
    reported = info.pop("reported", {})
    reported[workloads.QUALITY_NAMES[args.workload]] = (tally.quality(), "ratio")
    reported["failed_frac"] = (tally.failed / max(1, tally.attempted), "ratio")
    print("run", json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<10} {name:<42} {value:>14.6g} {unit}")
    for name, (value, unit) in reported.items():
        print(f"{args.workload:<10} {name:<42} {value:>14.6g} {unit}  (reported, not bounded)")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
