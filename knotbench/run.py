"""End-to-end benchmark of knotdeform.

Run from the root of a checkout:

    python3 knotbench/run.py --workload riley_ladder --seed 1 --seconds 25 --trace 0

The benchmark imports knotdeform from ./src, sets the workload up, then
runs it as a closed loop -- one operation at a time, back to back -- for
at most --seconds seconds of operation time, in whole cycles (see
workloads.py).  Every result is checked outside its timed interval and
``gc.collect()`` runs between operations, never during one.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
runs every operation twice, untraced and then traced (tracer.py), and
reports the per-layer metrics, each per operation.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  A record of the run -- environment, per-op times and digests of
each op's inputs and outputs -- is written to .knotbench/ in the checkout;
compare.py compares records.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, cache_probes, knotdeform_patches
from workloads import WORKLOADS, Exhausted

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".knotbench"
SETUP_BLOCKS = 10  # blocks of set-ups spread over the ops, after the one set-up they use
SETUP_BLOCK_S = 0.25  # a block repeats set-up for at least this long
RSS_CYCLES = 4  # peak RSS is read after this many cycles: a fixed amount of work
WALL_LIMIT_S = 150  # start no cycle that would end later than this after start
P90 = 0.90
REF_PROBE_S = 0.0024  # speed_probe() at the reference speed: 2.4 ms, its median on a 2-vCPU x86-64 VM
PROBE_WINDOW = 6  # an op's speed is the median of this many probes around it


def speed_probe():
    """Seconds taken by a fixed pure-Python loop that does not touch knotdeform.

    The host's speed drifts by a quarter within seconds and between
    minutes; the loop's time drifts with it (dict updates, big-integer
    arithmetic and small allocations, as in the package).  Timings are
    reported at the reference speed: wall time x REF_PROBE_S / the
    median probe time nearby.
    """
    t0 = time.perf_counter()
    d, x, big = {}, 1, 10**30 + 7
    for i in range(4000):
        k = (i * 7919) % 257
        d[k] = d.get(k, 0) + (x * big) // (i + 1)
        x = (x * 3 + i) % 1000003
        _ = [(k, x, i), str(k)]
    return time.perf_counter() - t0


def probe_median():
    """Median of three probes, robust to one cut by the scheduler."""
    return statistics.median(speed_probe() for _ in range(3))


def ref_scales(probes_s):
    """REF_PROBE_S / the local probe time, for each op between two probes.

    Op i runs between probes i and i + 1; its probe time is the median of
    the PROBE_WINDOW probes centred on it (fewer at the ends).
    """
    h = PROBE_WINDOW // 2
    return [REF_PROBE_S / statistics.median(probes_s[max(0, i + 1 - h): i + 1 + h])
            for i in range(len(probes_s) - 1)]


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def package_modules():
    return {name: m for name, m in sys.modules.items() if name.split(".")[0] == "knotdeform"}


def import_package():
    """A fresh import of knotdeform from ./src of this checkout, and nothing else."""
    src = ROOT / "src"
    if not (src / "knotdeform" / "__init__.py").is_file():
        sys.exit(f"knotbench: no package source at {src / 'knotdeform'}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in package_modules():
        del sys.modules[name]
    import knotdeform

    if Path(knotdeform.__file__).resolve().parent != (src / "knotdeform").resolve():
        sys.exit(f"knotbench: imported knotdeform from {knotdeform.__file__}")
    return knotdeform


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def git_sha():
    """HEAD of the checkout, or None; git is not asked outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def set_up(workload, seed):
    """(workload, seconds at reference speed) of a fresh import, input
    generation and warm-up."""
    before, t0 = probe_median(), time.perf_counter()
    kd = import_package()
    wl = WORKLOADS[workload](kd, seed)
    wl.setup()
    seconds = time.perf_counter() - t0
    return wl, seconds * 2 * REF_PROBE_S / (before + probe_median())


def set_up_block(workload, seed):
    """Seconds at reference speed of each of the set-ups run back to back
    for at least SETUP_BLOCK_S; the package modules in use are given back."""
    in_use = package_modules()
    times, t0 = [], time.perf_counter()
    try:
        while time.perf_counter() - t0 < SETUP_BLOCK_S:
            times.append(set_up(workload, seed)[1])
        return times
    finally:
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(in_use)


def environment(kd):
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "knotdeform").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    uname = platform.uname()
    return {
        "machine": f"{uname.system} {uname.release} {uname.machine}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "kernel_backend": kd.kernel_backend,
    }


def timed(fn, arg):
    """(wall seconds, CPU seconds, result, exception) of fn(arg)."""
    c0, t0 = time.thread_time(), time.perf_counter()
    try:
        out, err = fn(arg), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, err = None, exc
    return time.perf_counter() - t0, time.thread_time() - c0, out, err


def checked(wl, op, out, err):
    """(failures, digest) of one op's result; never raises."""
    if err is not None:
        return [f"raised {err!r}"], None
    try:
        return wl.check(op, out)
    except Exception as exc:
        return [f"check raised {exc!r}"], None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl, seconds, on_cycle, tracer=None, patches=(), probes=()):
    """Run whole cycles of ops until the next cycle would pass ``seconds``
    of op time at reference speed.

    ``on_cycle(spent)`` runs at each cycle boundary after the RSS reading,
    outside op time.  With a tracer each op runs untraced, with only the
    count patches ``probes`` installed, and then traced; both count
    towards ``seconds``.  Returns the ops of whole cycles and the peak RSS
    after RSS_CYCLES cycles, so that a faster program, which runs more ops
    and caches more, does not read as a bigger one.

    ``speed_probe()`` runs just before each op, after its ``gc.collect()``,
    and once after the last; an op's ``ref_ms`` is its wall time scaled
    by ``ref_scales``.  The probe times are returned too.
    """
    ops, probes_s, spent, cycle, rss = [], [], 0.0, len(wl.cells), None
    cycle_start, cycle_wall = time.perf_counter(), 0.0
    while True:
        i = len(ops)
        if i % cycle == 0:
            now = time.perf_counter()
            if i:
                cycle_wall, cycle_start = now - cycle_start, now
            if i == RSS_CYCLES * cycle:
                rss = peak_rss_mb()
            if i and spent * (i + cycle) / i > seconds:
                break
            if now + cycle_wall - T_START > WALL_LIMIT_S:
                break
            if rss is not None:
                on_cycle(spent)
        try:
            op = wl.make_op(i)
        except Exhausted:
            break
        gc.collect()
        probes_s.append(speed_probe())
        scale = REF_PROBE_S / statistics.median(probes_s[-PROBE_WINDOW:])
        if tracer is None:
            dt, cpu, out, err = timed(wl.run, op)
        else:
            with tracer.probing(probes):
                dt, cpu, out, err = timed(wl.run, op)
        spent += dt * scale
        fails, dig = checked(wl, op, out, err)
        rec = {"ms": dt * 1e3, "cpu_ms": cpu * 1e3, "input": op["label"], "fails": fails,
               "digest": dig}
        if tracer is not None:
            out = None
            gc.collect()
            with wl.fresh_caches(), tracer.traced_op(i, patches):
                dt_traced, _, out, err = timed(wl.run, op)
            spent += dt_traced * scale
            fails_traced, dig_traced = checked(wl, op, out, err)
            if dig_traced != dig:
                fails_traced.append("traced result differs from untraced")
            rec.update(traced_ms=dt_traced * 1e3, fails=fails + fails_traced)
        ops.append(rec)
    probes_s.append(speed_probe())
    for rec, scale in zip(ops, ref_scales(probes_s)):
        rec["ref_ms"] = rec["ms"] * scale
    del ops[len(ops) // cycle * cycle:]  # the partial cycle left by Exhausted
    return ops, rss or peak_rss_mb(), probes_s


def percentile(ops, q):
    """Harrell-Davis estimate of the q-quantile of op times at reference
    speed: the mean of the ranked times weighted by the Beta((n+1)q,
    (n+1)(1-q)) mass on each rank's share of [0, 1].  It is steadier than
    the single op at the nearest rank.  A failed op ranks above every
    passed one, as if it had missed any latency limit."""
    ranked = [r["ref_ms"] for r in sorted(ops, key=lambda r: (bool(r["fails"]), r["ref_ms"]))]
    n, steps = len(ranked), 16  # midpoint rule, steps per rank
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
                           for x in xs))
    return sum(w * t for w, t in zip(weights, ranked)) / sum(weights)


def end_to_end(ops, setup_s, rss):
    passed = sum(not r["fails"] for r in ops)
    return {
        "ops_per_s": passed / (sum(r["ref_ms"] for r in ops) / 1e3),
        "op_ms_p50": percentile(ops, 0.5),
        "op_ms_p90": percentile(ops, P90),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "fail_frac": (len(ops) - passed) / len(ops),
    }


def per_layer(ops, tracer, names):
    n = len(ops)
    untraced = sum(r["ms"] for r in ops)
    traced = sum(r["traced_ms"] for r in ops)
    sizes = tracer.sizes
    out = {
        "trace.op_ms": traced / n,
        "trace.overhead": traced / untraced,
        "trace.coverage": sizes["trace.covered_us"] / sizes["trace.op_us"],
    }
    for name in names:
        if name in out:
            continue
        if name.endswith(".self_ms"):
            total = tracer.self_s[name[: -len(".self_ms")]] * 1e3
        elif name.endswith(".calls"):
            total = tracer.calls[name[: -len(".calls")]]
        else:
            total = sizes[name]
        out[name] = total / n
    return out


def main():
    args = parse_args()
    declared = declared_metrics(args.trace)
    # Set-up is a fresh import of the package, input generation and warm-up.
    # The first one is used; SETUP_BLOCKS blocks of more set-ups are timed
    # at op-time checkpoints spread over the run, one per cycle boundary
    # at most, so that the median of all set-ups samples the machine over
    # the whole run.
    wl, first = set_up(args.workload, args.seed)
    kd = wl.kd
    setup_runs, blocks = [first], 0

    def sample_set_up(spent):
        nonlocal blocks
        if blocks < SETUP_BLOCKS and spent >= args.seconds * (blocks + 1) / (SETUP_BLOCKS + 1):
            setup_runs.extend(set_up_block(args.workload, args.seed))
            blocks += 1

    env = environment(kd)
    if args.trace:
        tracer = Tracer()
        ops, _, probes_s = measure(wl, args.seconds, sample_set_up, tracer,
                                   knotdeform_patches(kd), cache_probes(kd))
        tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl.gz")
    else:
        ops, rss, probes_s = measure(wl, args.seconds, sample_set_up)
    if not ops:
        sys.exit("knotbench: no whole cycle of operations ran")
    for _ in range(blocks, SETUP_BLOCKS):
        setup_runs.extend(set_up_block(args.workload, args.seed))
    setup_s = statistics.median(setup_runs)
    if args.trace:
        metrics = per_layer(ops, tracer, [m["name"] for m in declared])
    else:
        metrics = end_to_end(ops, setup_s, rss)
    failed = sum(bool(r["fails"]) for r in ops)

    n = len(ops)
    tail_rank = max(1, math.ceil(P90 * n))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_runs_s": setup_runs,
        "probes_ms": [t * 1e3 for t in probes_s],
        "metrics": metrics,
        "samples": n,
        "p90_samples_beyond": n - tail_rank,
        "cycles": n / len(wl.cells),
        "digest": hashlib.sha256("".join(str(r["digest"]) for r in ops).encode()).hexdigest()[:16],
        "failures": [f for r in ops for f in r["fails"]][:20],
        "ops": [{k: r[k] for k in ("input", "ms", "ref_ms", "cpu_ms", "traced_ms", "digest") if k in r}
                for r in ops],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(
        f"knotbench {args.workload} seed={args.seed} trace={args.trace} "
        f"backend={env['kernel_backend']} python={env['python']} nproc={env['nproc']}"
    )
    print(
        f"  ops={n} failed={failed} cycles={record['cycles']:g} "
        f"p90 over {n} samples, {record['p90_samples_beyond']} beyond; digest={record['digest']}"
    )
    for f in record["failures"][:5]:
        print(f"  FAILED {f}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in declared}
    if not args.trace:
        units["fail_frac"] = "ratio"  # printed only: the result carries 'failed'
    for name, unit in units.items():
        print(f"  {name:<42} {metrics[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
