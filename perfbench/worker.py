"""One repetition of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py run <trace 0|1>  < input frame

The worker imports mtkit from the checkout's `src/` first thing and records
when that import returned, so the parent can measure set-up time from the
spawn; `probe` stops there.  `run` reads the input frame on stdin, runs
every op of the workload once in a closed loop (one op at a time, timing
each), and writes one result frame to stdout.  The import and the timed
loop run under a SpeedSampler (speed.py), whose samples go out with the
result.  With tracing on, layer spans are recorded around the timed loop
only, and written to `.perfbench_out/`.
"""

import os
import sys
import time

from speed import SpeedSampler

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

with SpeedSampler() as IMPORT_SPEED:
    import mtkit
    import mtkit.cli  # what every `mtkit` command imports
READY_NS = time.monotonic_ns() - IMPORT_SPEED.spent_ns

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from array import array  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

clock = time.perf_counter_ns


def _elapsed(t0: int, p0: int, sampler) -> int:
    """Time since t0 less the sampler's time since p0.

    t0 is read before p0 and the sampler before the clock here, so a tick
    that lands between two reads can only lengthen the op, never shorten it.
    """
    p1 = sampler.spent_ns
    return clock() - t0 - (p1 - p0)


def _error(exc: BaseException) -> str:
    return f"unexpected {type(exc).__name__}: {exc}"


def run_cli(ops, sampler):
    """Each op is one `cli.run(argv)` with stdout captured."""
    run = mtkit.cli.run
    outs, lat = [], []
    for argv in ops:
        buf = io.StringIO()
        t0 = clock()
        p0 = sampler.spent_ns
        try:
            with contextlib.redirect_stdout(buf):
                code = run(argv)
            out = {"code": code}
        except Exception as exc:
            out = {"error": _error(exc)}
        lat.append(_elapsed(t0, p0, sampler))
        out["stdout"] = buf.getvalue()
        outs.append(out)
    return outs, lat, {}


def prepare_oracle(ops):
    """Build the minuscule reps the root-element ops act on (untimed input set-up)."""
    reps = {}
    for family, n, j, _ in ops["roots"]:
        if (family, n, j) not in reps:
            reps[family, n, j] = mtkit.minuscule_rep(mtkit.CartanType(family, n), j)
    return reps


def run_oracle(ops, reps, sampler):
    """Tensor-lemma trials, then one root element per positive root."""
    verify = mtkit.oracle.verify_tensor_lemma
    build = mtkit.oracle.build_root_element
    unipotence = mtkit.oracle.unipotence
    reports, lat = [], []
    for k1, k2, seed, prime in ops["trials"]:
        t0 = clock()
        p0 = sampler.spent_ns
        try:
            report = verify(k1, k2, (6, 6), trials=1, seed=seed, prime=prime)
        except Exception as exc:
            report = exc
        lat.append(_elapsed(t0, p0, sampler))
        reports.append(report)
    for family, n, j, i in ops["roots"]:
        rep = reps[family, n, j]
        t0 = clock()
        p0 = sampler.spent_ns
        try:
            report = unipotence(build(rep, [i]))
        except Exception as exc:
            report = exc
        lat.append(_elapsed(t0, p0, sampler))
        reports.append(report)
    return reports, lat


def oracle_outputs(ops, reps, reports):
    """Serialize the reports, with the weight-counting drop beside each root element."""
    outs = []
    for report in reports[:len(ops["trials"])]:
        outs.append({"error": _error(report)} if isinstance(report, BaseException)
                    else {"report": report.to_dict()})
    for (family, n, j, i), report in zip(ops["roots"], reports[len(ops["trials"]):]):
        if isinstance(report, BaseException):
            outs.append({"error": _error(report)})
            continue
        rep = reps[family, n, j]
        cls = rep.datum.length_class[i]
        outs.append({"report": report.to_dict(), "length_class": cls,
                     "weight_count_drop": mtkit.root_element_drop(rep, cls)})
    return outs


def run_decide(ops, arrays, sampler):
    """Each op is one `mt_check(MtQuery(...))`; then enumerate_exceptional per type."""
    check = mtkit.decision.mt_check
    enumerate_exceptional = mtkit.decision.enumerate_exceptional
    query = mtkit.MtQuery
    invalid = mtkit.QueryInvalid
    endo_types = [mtkit.EndoType(e) for e in reference.ENDO_TYPES]
    codes = {mtkit.Status(name): i for i, name in enumerate(reference.STATUSES)}
    g, s, e = arrays["g"], arrays["s"], arrays["endo"]
    n = len(g)
    status = bytearray(n)
    witness = array("i", bytes(4 * n))
    lat = array("q", bytes(8 * (n + len(ops["exceptional"]))))
    for i in range(n):
        t0 = clock()
        p0 = sampler.spent_ns
        try:
            verdict = check(query(g[i], s[i], endo_types[e[i]]))
        except invalid:
            lat[i] = _elapsed(t0, p0, sampler)
            status[i] = reference.REJECTED
            continue
        except Exception:
            lat[i] = _elapsed(t0, p0, sampler)
            status[i] = reference.ERRORED
            continue
        lat[i] = _elapsed(t0, p0, sampler)
        status[i] = codes[verdict.status]
        w = verdict.witness
        if w is not None:
            witness[i] = w.family * 100 + w.parameter
    outs = []
    for k, (endo, g_max) in enumerate(ops["exceptional"]):
        t0 = clock()
        p0 = sampler.spent_ns
        try:
            found = enumerate_exceptional(g_max, mtkit.EndoType(endo))
            out = {"instances": [[x.g, x.s, x.family, x.parameter, len(x.notes)] for x in found]}
        except Exception as exc:
            out = {"error": _error(exc)}
        lat[n + k] = _elapsed(t0, p0, sampler)
        outs.append(out)
    return outs, lat, {"status": array("b", status), "witness": witness}


def peak_rss_kb() -> int:
    """High-water RSS of this process image.

    The ru_maxrss that wait4 reports also covers the parent's RSS at the
    moment of exec (Linux carries the old image's high-water mark over), so
    the worker reads its own VmHWM instead.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    if not os.path.abspath(mtkit.__file__).startswith(SRC + os.sep):
        print(f"worker: imported mtkit from {mtkit.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    if argv[1:] == ["probe"]:
        workloads.write_frame(sys.stdout.buffer, {"ready_ns": READY_NS},
                              {"speed_ns": IMPORT_SPEED.samples})
        return 0
    traced = argv[2] == "1"
    header, arrays = workloads.read_frame(sys.stdin.buffer)
    workload, ops = header["workload"], header["ops"]
    reps = prepare_oracle(ops) if workload == "oracle" else None
    rss_inputs_kb = peak_rss_kb()

    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    with SpeedSampler(tracer.charge if tracer else None) as sampler:
        start = clock()
        if workload == "decide":
            outs, lat, out_arrays = run_decide(ops, arrays, sampler)
        elif workload == "oracle":
            reports, lat = run_oracle(ops, reps, sampler)
            out_arrays = {}
        else:
            outs, lat, out_arrays = run_cli(ops, sampler)
        wall_ns = clock() - start - sampler.spent_ns
    if workload == "oracle":
        outs = oracle_outputs(ops, reps, reports)

    result = {
        "wall_ns": wall_ns, "rss_inputs_kb": rss_inputs_kb,
        "rss_kb": peak_rss_kb(), "outputs": outs,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["trace"]["counters"]["cli.output_bytes"] = sum(
            len(out.get("stdout", "").encode()) for out in outs)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{workload}.bin"))
    workloads.write_frame(sys.stdout.buffer, result,
                          {**out_arrays, "latency_ns": array("q", lat), "speed_ns": sampler.samples})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
