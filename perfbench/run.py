"""Benchmark of the cycliso command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload green --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30     # every workload, untraced and traced

One client runs a workload's commands in a closed loop: each command runs
in a fresh ``python -m cycliso`` process and the next starts when it has
exited, so only one child runs at a time.  Every output is checked (see
workloads.py).

--trace 0 repeats passes over the workload for --seconds (at least two)
and reports the medians over passes of the end-to-end metrics.  Before
each command it times an interpreter start-up that imports
``cycliso.cli``; setup_s is the median of these probes.

--trace 1 runs untraced passes for half of --seconds, then executes the
same commands in this process through ``cycliso.cli.main(argv)`` with
tracer.py's wrappers installed, starting each command with cold caches,
and reports the per-layer metrics.  The traced outputs must equal the
untraced ones.

The metric names and units are those declared in BENCHMARK.json.  The last
line of output is one JSON object with the keys correct, attempted, failed
and metrics.  Each run also writes a record with the machine context (and,
when traced, the spans) to .perfbench/.
"""

import argparse
import gc
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS, Tracer, cache_clear_all, layer_name
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 90  # about ten times the slowest command; a hung child counts as failed


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env():
    env = dict(os.environ)
    # A user's element cache would turn builds into file reads.
    env.pop("CYCLISO_CACHE_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args, env):
    """Run `python <args>` to completion; its own rusage and its stdout.

    wait4 gives this child's figures alone; RUSAGE_CHILDREN would keep the
    largest max-RSS of every earlier child.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.stderr.write(f"child {' '.join(args)} exited {code}:\n")
        sys.stderr.write(err[0][-2000:].decode(errors="replace"))
    return Child(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024), out


SETUP_ARGS = ("-c", "import cycliso.cli")

# The machine's speed drifts by up to half within minutes, as other tenants
# load the host, and CPU time drifts with it.  So times are reported in
# seconds of a reference machine, one on which reference_loop() takes REF_S:
# each command's times are scaled by REF_S over the loop's mean time just
# before and just after it.  Raw times stay in the run record.
REF_S = 0.08
REF_ITERATIONS = 200_000


def reference_loop():
    """Fixed pure-Python work of cycliso's kind (tuples, dict updates, a
    sort); returns how long it took."""
    start = time.perf_counter()
    counts = {}
    for i in range(REF_ITERATIONS):
        key = (i % 97, i % 13, i & 7)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    return time.perf_counter() - start


@dataclass
class Outcome:
    """What one pass did, command by command (times raw)."""

    children: dict  # argv -> Child
    setup_s: dict  # argv -> start-up probe spawned just before the command
    scale: dict  # argv -> REF_S / reference_loop() time around the command
    problems: dict  # argv -> description, for commands that failed
    digests: dict  # argv -> sha256 of the output, for commands that passed

    @property
    def wall_s(self):
        """Time the commands ran, from the first spawn to the last exit,
        less the probes and reference loops between them."""
        return sum(c.wall_s for c in self.children.values())

    def scaled(self, field):
        return sum(getattr(c, field) * self.scale[a] for a, c in self.children.items())


def probe(env):
    """Start an interpreter and import cycliso.cli: the set-up every command pays."""
    child, _ = spawn(SETUP_ARGS, env)
    if child.code != 0:
        sys.exit("cannot import cycliso.cli")
    return child.wall_s


def run_pass(commands, env):
    # A probe before each command spreads them through the run, so that
    # their median sees the same machine as the commands do.
    outcome = Outcome({}, {}, {}, {}, {})
    ref = reference_loop()
    for c in commands:
        outcome.setup_s[c.argv] = probe(env)
        child, out = spawn(("-m", "cycliso", *c.argv), env)
        outcome.children[c.argv] = child
        after = reference_loop()
        outcome.scale[c.argv] = REF_S / ((ref + after) / 2)
        ref = after
        problem = c.verify(child.code, out)
        if problem:
            outcome.problems[c.argv] = problem
        else:
            outcome.digests[c.argv] = c.digest(out)
    return outcome


def measure(workload, rng, seconds, env, min_passes):
    """At least `min_passes` passes, each in a fresh shuffled order, then
    more until the next would overrun `seconds`."""
    probe(env)  # writes the bytecode cache, which users pay once, not per run
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        order = list(workload.commands)
        rng.shuffle(order)
        passes.append(run_pass(order, env))
        now = time.perf_counter()
        if len(passes) >= min_passes and now - start + (now - began) > seconds:
            return passes


def import_cli():
    sys.path.insert(0, str(SRC))
    import cycliso.cli

    if Path(cycliso.cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"imported cycliso from {cycliso.cli.__file__}, not from {SRC}")
    return cycliso.cli


def traced_run(order):
    """Execute the commands in-process with the layer wrappers installed."""
    cli = import_cli()
    tracer = Tracer()
    tracer.install()
    wall = 0.0
    outputs = {}
    counters = {}  # argv -> what the command added to each counter
    try:
        for c in order:
            cache_clear_all()
            gc.collect()
            before = dict(tracer.counts)
            buf = io.StringIO()
            start = time.perf_counter()
            with redirect_stdout(buf):
                try:
                    code = cli.main(list(c.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    traceback.print_exc()
                    code = "exception"
            wall += time.perf_counter() - start
            outputs[c.argv] = (code, buf.getvalue().encode())
            counters[" ".join(c.argv)] = {
                k: v - before.get(k, 0) for k, v in tracer.counts.items() if v != before.get(k, 0)
            }
    finally:
        tracer.restore()
        cache_clear_all()
    return tracer, wall, outputs, counters


def pass_metrics(passes):
    """End-to-end metrics, times at reference speed."""
    return {
        "wall_s": statistics.median(p.scaled("wall_s") for p in passes),
        "cpu_s": statistics.median(p.scaled("cpu_s") for p in passes),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in p.children.values()) for p in passes),
        "setup_s": statistics.median(t * p.scale[a] for p in passes for a, t in p.setup_s.items()),
    }


def raw_metrics(passes):
    """The end-to-end times as measured, before scaling."""
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(sum(c.cpu_s for c in p.children.values()) for p in passes),
        "setup_s": statistics.median(t for p in passes for t in p.setup_s.values()),
        "speed": statistics.median(1 / f for p in passes for f in p.scale.values()),
    }


def layer_metrics(tracer, traced_wall, untraced_wall, output_bytes, failed_frac):
    counts = tracer.counts
    values = {
        f"{layer_name(m, p)}.s": tracer.busy_s(layer_name(m, p))
        for m, p, kind in LAYERS
        if kind != "count" and m != "cli"
    }
    q = "congruence.enumerate_quotient"
    for name in (
        "monoid.build_by_restrictions.calls",
        "monoid.size",
        "monoid.rank_search.closures",
        "green.green_oracle.calls",
        "cycle.is_partial_isometry.calls",
        f"{q}.calls",
        f"{q}.slots_used",
        f"{q}.merges",
        f"{q}.inconclusive",
    ):
        values[name] = counts[name]
    values.update(
        {
            f"{q}.yield": counts[f"{q}.classes"] / counts[f"{q}.slots_used"]
            if counts[f"{q}.slots_used"]
            else 0.0,
            "cli.self_s": tracer.self_s("cli.main"),
            "cli.output_bytes": output_bytes,
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "ops_failed_frac": failed_frac,
        }
    )
    return values


def declared(section):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def with_units(values, section):
    units = declared(section)
    if set(units) != set(values):
        raise RuntimeError(
            f"BENCHMARK.json {section} names {sorted(set(units) ^ set(values))} "
            "that the benchmark does not report, or the reverse"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def context(workload, seed, seconds, trace):
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def per_command(outcomes):
    """Median wall, CPU and max-RSS of each command over the passes."""
    rows = {}
    for argv in outcomes[0].children:
        runs = [o.children[argv] for o in outcomes]
        rows[" ".join(argv)] = {
            "wall_s": statistics.median(c.wall_s for c in runs),
            "cpu_s": statistics.median(c.cpu_s for c in runs),
            "rss_mb": statistics.median(c.rss_mb for c in runs),
        }
    return rows


def run(workload, seed, seconds, trace):
    """One benchmark run; returns the result object and a record to save."""
    rng = random.Random(seed)
    env = child_env()
    record = context(workload, seed, seconds, trace)
    if not trace:
        passes = measure(workload, rng, seconds, env, min_passes=2)
        metrics = with_units(pass_metrics(passes), "end_to_end")
        record["raw"] = raw_metrics(passes)
        problems = [p for o in passes for p in o.problems.items()]
        attempted = sum(len(o.children) for o in passes)
    else:
        passes = measure(workload, rng, seconds / 2, env, min_passes=1)
        untraced = passes[-1].digests
        order = list(workload.commands)
        rng.shuffle(order)
        tracer, traced_wall, outputs, counters = traced_run(order)
        problems = [p for o in passes for p in o.problems.items()]
        for c in order:
            code, out = outputs[c.argv]
            problem = c.verify(code, out)
            if not problem and c.digest(out) != untraced.get(c.argv):
                problem = "traced output differs from the untraced output"
            if problem:
                problems.append((c.argv, f"traced: {problem}"))
        attempted = sum(len(o.children) for o in passes) + len(order)
        values = layer_metrics(
            tracer,
            traced_wall,
            statistics.median(o.wall_s for o in passes),
            sum(len(out) for _, out in outputs.values()),
            len(problems) / attempted,
        )
        metrics = with_units(values, "per_layer")
        record["absent_layers"] = tracer.absent
        record["traced_counters"] = counters
        record["spans"] = tracer.spans
    record.update(
        passes=len(passes),
        commands=per_command(passes),
        problems=[[" ".join(a), p] for a, p in problems],
        metrics=metrics,
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }
    return result, record


def report(result, record):
    name = record["workload"]
    print(f"{name}: {record['why']}")
    print(f"  seed {record['seed']}, {record['passes']} untraced passes, "
          f"python {record['python']}, {record['nproc']} cpus, {record['cpu_model']}, "
          f"commit {record['commit']}")
    for cmd, row in record["commands"].items():
        print(f"  {cmd:45} {row['wall_s']:8.3f} s wall {row['cpu_s']:8.3f} s cpu "
              f"{row['rss_mb']:8.1f} MB")
    for metric, m in result["metrics"].items():
        print(f"  {metric:40} {m['value']:>16.6f} {m['unit']}")
    if "raw" in record:
        raw = record["raw"]
        print(f"  as measured: wall_s {raw['wall_s']:.6f} s, cpu_s {raw['cpu_s']:.6f} s, "
              f"setup_s {raw['setup_s']:.6f} s, at {raw['speed']:.3f} x reference time")
    for cmd, added in record.get("traced_counters", {}).items():
        print(f"  traced {cmd}: {json.dumps(added)}")
    if record.get("absent_layers"):
        print(f"  absent layers: {', '.join(record['absent_layers'])}")
    print(f"  checks: {result['attempted'] - result['failed']} of {result['attempted']} "
          "commands passed")
    for cmd, problem in record["problems"]:
        print(f"  FAILED {cmd}: {problem}")


def save(record):
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cycliso" / "__init__.py").is_file():
        sys.exit(f"no cycliso sources under {SRC}")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    if len(names) == 1 and len(traces) == 1:
        result, record = run(WORKLOADS[names[0]], args.seed, args.seconds, traces[0])
        report(result, record)
        save(record)
        print(json.dumps(result))
        return
    # Each run gets its own process: a child's max-RSS counts the memory of
    # the process it was spawned from, which a traced run inflates.
    results = {}
    for name in names:
        for trace in traces:
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE,
                text=True,
            )
            *lines, last = done.stdout.splitlines() or [""]
            print("\n".join(lines), flush=True)
            if done.returncode != 0:
                sys.exit(f"{name} --trace {trace} exited {done.returncode}")
            results[name, trace] = json.loads(last)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": m
            for (name, _), r in results.items()
            for metric, m in r["metrics"].items()
        },
    }))


if __name__ == "__main__":
    main()
