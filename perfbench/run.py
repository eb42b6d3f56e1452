"""mtkit benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds `src/mtkit`.  The parent process
builds the workload's inputs from the seed, then runs repetitions one at a
time, each in a fresh single-threaded worker process (a closed loop with one
client), until `--seconds` have passed.  While a worker runs, the parent only
waits for it, so the worker has a core to itself.  Every op of every
repetition is checked against the independent references in `reference.py`
and the recorded digests in `digests.json`.  The worker samples its vCPU's
speed while it runs (`speed.py`), and the reported times are rescaled to
full speed, because the shared host slows a vCPU for seconds at a time.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics; with `--trace 1` repetitions alternate between untraced
and traced, and the object holds the per-layer metrics plus the tracing
overhead.  The metric names, units and directions are those of
BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from array import array

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
HARD_LIMIT_S = 170          # the whole run, set-up included, ends before this
# The speed sampler's loop (speed.py) takes this long when the vCPU runs at
# full speed (2.1 GHz Xeon host, Python 3.11.7).  wall_ref_s and setup_s are
# times rescaled to that speed by the samples taken while they ran.
SPEED_REF_NS = 21_000
SETUP_PROBES = 3            # spawn-and-import probes at the start; one more before each repetition


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(args: list[str], payload: bytes, timeout: float) -> tuple[int, bytes, int]:
    """Run one worker to completion; (exit code, stdout, spawn time in ns)."""
    t_spawn = time.monotonic_ns()
    proc = subprocess.Popen([sys.executable, WORKER, *args], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, cwd=ROOT, env=_worker_env())
    timer = threading.Timer(max(timeout, 0.1), proc.kill)
    timer.start()
    try:
        try:
            proc.stdin.write(payload)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        out = proc.stdout.read()
        proc.stdout.close()
    finally:
        timer.cancel()
        timer.join()
        _, status, _ = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, t_spawn


def _frame_bytes(header: dict, arrays: dict) -> bytes:
    buf = io.BytesIO()
    workloads.write_frame(buf, header, arrays)
    return buf.getvalue()


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "mtkit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def _speed_factor(samples) -> float:
    """Mean speed over the samples, as a share of full speed."""
    return statistics.fmean(SPEED_REF_NS / x for x in samples)


def _digest(outs, arrays) -> str:
    h = hashlib.sha256(json.dumps(outs, sort_keys=True).encode())
    for name in sorted(arrays):
        h.update(arrays[name].tobytes())
    return h.hexdigest()


class Workload:
    """Inputs, expected outputs and the checker of one workload at one seed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.header, self.arrays = workloads.make_inputs(name, seed)
        self.payload = _frame_bytes(self.header, self.arrays)
        self.op_count = self.header["op_count"]
        with open(os.path.join(HERE, "digests.json")) as f:
            recorded = json.load(f)[name]
        # table and classify are fixed enumerations: one digest per op.  The
        # seeded workloads have one digest of the whole output per recorded seed.
        self.op_digests = recorded if isinstance(recorded, list) else None
        self.run_digest = recorded.get(str(seed)) if isinstance(recorded, dict) else None
        self.expected = None
        if name == "decide":
            ref = reference.DecisionReference(workloads.DECIDE_G_MAX)
            a = self.arrays
            self.expected = ref.expect_all(a["g"], a["s"], a["endo"])

    def check(self, result: dict, arrays: dict) -> list[str | None]:
        """One failure reason (or None) per op of one repetition."""
        ops, outs = self.header["ops"], result["outputs"]
        if self.name in ("table", "classify"):
            reasons = reference.check_cli(ops, outs)
            for i, out in enumerate(outs):
                digest = hashlib.sha256(out.get("stdout", "").encode()).hexdigest()
                if reasons[i] is None and digest != self.op_digests[i]:
                    reasons[i] = f"output digest {digest[:12]} differs from the recorded one"
            return reasons
        if self.name == "oracle":
            return reference.check_oracle(ops["trials"], ops["roots"], outs)
        a = self.arrays
        return reference.check_decide(a["g"], a["s"], a["endo"], self.expected,
                                      arrays["status"].tobytes(), arrays["witness"],
                                      ops["exceptional"], outs)


def percentiles(lat) -> tuple[float, float]:
    """p50 and p99 of op latencies (a single op is its own percentiles)."""
    if len(lat) == 1:
        return lat[0], lat[0]
    q = statistics.quantiles(lat, n=100, method="inclusive")
    return q[49], q[98]


def run_workload(name: str, seed: int, seconds: int, trace: bool, bench: dict, start: float) -> dict:
    work = Workload(name, seed)
    deadline = start + HARD_LIMIT_S
    setups = []

    def probe():
        """(set-up time, set-up time rescaled to full speed) of one spawn."""
        code, out, t_spawn = spawn(["probe"], b"", deadline - time.monotonic())
        if code != 0:
            raise SystemExit(f"set-up probe failed with exit code {code}")
        header, arrays = workloads.read_frame(io.BytesIO(out))
        setup = (header["ready_ns"] - t_spawn) / 1e9
        return setup, setup * _speed_factor(arrays["speed_ns"])

    probe()                                   # writes the bytecode caches; not a sample
    setups += [probe() for _ in range(SETUP_PROBES)]

    reps = []          # (traced, result)
    best_lat = None    # each op's fastest latency over the untraced repetitions
    failures: list[str] = []
    attempted = failed = 0
    digests = set()
    measure_start = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(reps) % 2 == 1
        now = time.monotonic()
        done = now - measure_start >= seconds and (not trace or len(reps) >= 2)
        if done or (reps and now + 1.5 * longest > deadline):
            break
        setups.append(probe())
        code, out, t_spawn = spawn(["run", "1" if traced else "0"], work.payload,
                                   deadline - time.monotonic())
        longest = max(longest, time.monotonic() - now)
        attempted += work.op_count
        try:
            if code != 0:
                raise ValueError(f"worker exit code {code}")
            result, arrays = workloads.read_frame(io.BytesIO(out))
            latency = arrays.pop("latency_ns")
            speed = arrays.pop("speed_ns")
            reasons = work.check(result, arrays)
            if len(reasons) != work.op_count or len(latency) != work.op_count:
                raise ValueError(f"{len(reasons)} results for {work.op_count} ops")
        except (ValueError, KeyError, EOFError) as exc:
            failed += work.op_count
            failures.append(f"repetition {len(reps)}: {exc}")
            reps.append((traced, None))
            continue
        digest = _digest(result["outputs"], arrays)
        digests.add(digest)
        bad = [r for r in reasons if r]
        if work.run_digest is not None and digest != work.run_digest:
            bad = bad or [f"output digest {digest[:12]} differs from the one recorded for seed {seed}"]
            failed += work.op_count
        else:
            failed += len(bad)
        failures += bad[:3]
        reps.append((traced, result))
        result["speed"] = _speed_factor(speed) if speed else 1.0
        result["wall_ref_ns"] = result["wall_ns"] * result["speed"]
        if not traced:
            best_lat = latency if best_lat is None else array("q", map(min, best_lat, latency))
    if len(digests) > 1:
        failures.append(f"{len(digests)} different output digests across repetitions")

    plain = [r for t, r in reps if not t and r is not None]
    traced_reps = [r for t, r in reps if t and r is not None]
    med = statistics.median
    metrics = {"setup_s": med(ref for _, ref in setups)}
    if plain:
        # The host's speed drifts by tens of percent for seconds at a time;
        # the worker's speed samples rescale each repetition to full speed.
        metrics["wall_ref_s"] = _median_wall_ref(plain)
        metrics["peak_rss_mb"] = med(r["rss_kb"] for r in plain) / 1024
    if trace and traced_reps and plain:
        per_rep = [layer_metrics(r, bench) for r in traced_reps]
        metrics = {name: med(m[name] for m in per_rep) for name in per_rep[0]}
        metrics["trace.wall_s"] = _median_wall_ref(traced_reps)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median_wall_ref(plain)
    wanted = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        failures.append(f"no measurement for {', '.join(missing)}")

    meta = {
        "workload": name, "seed": seed,
        "inputs": ("fixed enumeration; the seed is recorded but unused"
                   if name in ("table", "classify") else "generated from the seed"),
        "ops_per_repetition": work.op_count,
        "repetitions": {"untraced": len(plain), "traced": len(traced_reps)},
        "setup": {"samples": len(setups), "median_s": med(raw for raw, _ in setups)},
        "wall_s": ({"fastest": min(r["wall_ns"] for r in plain) / 1e9,
                    "median": med(r["wall_ns"] for r in plain) / 1e9} if plain else None),
        "rss_after_inputs_mb": (med(r["rss_inputs_kb"] for r in plain) / 1024) if plain else None,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "output_digest": sorted(digests),
        "commit": _commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "failures": failures[:10],
    }
    if plain:
        p50, p99 = percentiles(best_lat)
        meta["op_latency_ms"] = {"p50": p50 / 1e6, "p99": p99 / 1e6, "ops": len(best_lat),
                                 "samples_per_op": len(plain)}
    if trace and traced_reps:
        meta["dominant_layer"] = dominant_layer(name, traced_reps)
    return {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
        "meta": meta,
    }


def _median_wall_ref(reps: list[dict]) -> float:
    return statistics.median(r["wall_ref_ns"] for r in reps) / 1e9


def layer_metrics(result: dict, bench: dict) -> dict:
    """Per-layer metrics of one traced repetition, by BENCHMARK.json name.

    Self times are rescaled to full speed, like wall_ref_s.
    """
    spans, counters = result["trace"]["spans"], result["trace"]["counters"]
    out = {}
    for m in bench["per_layer"]:
        name = m["name"]
        if name.startswith("trace."):
            continue
        if name.endswith(".self_s"):
            out[name] = spans.get(name[:-len(".self_s")], [0.0, 0])[0] * result["speed"]
        elif name.endswith(".calls"):
            out[name] = spans.get(name[:-len(".calls")], [0.0, 0])[1]
        elif name == "oracle.matmul_per_degree":
            degrees = counters.get("oracle.degrees_certified", 0)
            out[name] = spans.get("oracle.matmul", [0.0, 0])[1] / degrees if degrees else 0.0
        else:
            out[name] = counters.get(name, 0)
    return out


# The layer whose self time should dominate each workload's traced wall time.
DOMINANT = {"table": ("roots.weyl_orbit",), "classify": ("roots.build_root_datum",),
            "oracle": ("oracle.matmul",),
            "decide": ("decision.mt_check", "decision.pink_gate", "decision.enumerate_exceptional")}


def dominant_layer(name: str, traced_reps: list[dict]) -> dict:
    """Self time of the workload's dominant layer, and its share of the traced wall time."""
    spans = DOMINANT[name]
    self_s = [sum(r["trace"]["spans"].get(s, [0.0])[0] for s in spans) for r in traced_reps]
    shares = [t / (r["wall_ns"] / 1e9) for t, r in zip(self_s, traced_reps)]
    return {"spans": list(spans), "share_of_traced_wall": statistics.median(shares)}


def report(result: dict) -> None:
    meta = result["meta"]
    print(f"workload {meta['workload']}  seed {meta['seed']}  "
          f"{meta['repetitions']['untraced']}+{meta['repetitions']['traced']} repetitions "
          f"of {meta['ops_per_repetition']} ops")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6f} {m['unit']}")
    print(f"  {'fail_ratio':<44} {meta['fail_ratio']:>16.6f} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    print("meta " + json.dumps(meta, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "mtkit", "__init__.py")):
        print(f"error: no mtkit sources under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        start = time.monotonic()
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), bench, start)
        report(result)
        meta = result.pop("meta")
        print(json.dumps(result, sort_keys=True))
        if meta["failures"]:
            print("\n".join(meta["failures"]), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
