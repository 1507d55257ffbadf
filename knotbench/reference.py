"""Traced reference measurement of single pipeline calls.

    python3 knotbench/reference.py

Times each row several times untraced (median, min, max and the sample
count) and once traced, and prints the traced call's largest self times
by layer.  The rows are riley_data for b(151, 41), built from scratch
each time, and deformation_data for b(25, 7), beta = 3 over Z/13^8 at
N = 16, 32 and 64, with riley_data already cached.
"""

import gc
import statistics
import sys
import time

from run import import_package
from tracer import Tracer, knotdeform_patches

TOP_LAYERS = 4


def rows(kd):
    def riley():
        kd.riley._riley_data.cache_clear()
        knot = kd.TwoBridgeKnot(151, 41)
        return lambda: kd.riley_data(knot)

    def deform(N):
        def prepare():
            knot, ring = kd.TwoBridgeKnot(25, 7), kd.make_ring("padic:13:8")
            beta = kd.residue_field(ring).from_int(3)
            kd.riley_data(knot)
            return lambda: kd.deformation_data(knot, beta, ring, N)

        return prepare

    yield "riley_data b(151,41)", riley, 5
    for N, samples in ((16, 15), (32, 9), (64, 5)):
        yield f"deformation_data b(25,7) Z/13^8 N={N}", deform(N), samples


def main():
    kd = import_package()
    patches = knotdeform_patches(kd)
    print(f"kernel_backend={kd.kernel_backend} python={sys.version.split()[0]}")
    print("| call | samples | median s | min s | max s | traced s | largest self times (traced) |")
    print("|---|---|---|---|---|---|---|")
    for label, prepare, samples in rows(kd):
        times = []
        for _ in range(samples):
            call = prepare()
            gc.collect()
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        tracer = Tracer()
        call = prepare()
        gc.collect()
        with tracer.traced_op(0, patches):
            t0 = time.perf_counter()
            call()
            traced = time.perf_counter() - t0
        top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:TOP_LAYERS]
        layers = ", ".join(f"{name} {100 * s / traced:.0f}%" for name, s in top)
        print(
            f"| {label} | {samples} | {statistics.median(times):.3f} | {min(times):.3f} "
            f"| {max(times):.3f} | {traced:.3f} | {layers} |"
        )


if __name__ == "__main__":
    main()
