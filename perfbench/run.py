"""Run one hemoseg benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is train-cascade or infer-cascade-dense (see
perfbench/README.md).  The package is imported from ``src/`` next to this
directory and work files go to ``.perfbench_work/`` there.  The run builds
its inputs from the seed, repeats the workload's unit of work in a closed
loop for S seconds, checks the outputs and prints two lines: a detail
record (machine, checks, sample counts) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
the run is traced layer by layer and the metrics are its per-layer
metrics.  The exit code is 0 only when every check passed, 2 when the
package source is missing.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUPS = 3  # setup_s is the median of this many set-ups in one run
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples above it
HARD_STOP_S = 120.0  # a loop never runs past this, whatever --seconds says
LAYERS = ("autodiff", "model", "training", "augment", "losses", "optim", "inference", "volumes", "volumetry")
EXIT_NO_PACKAGE = 2
MODULES = ("enc.0", "enc.1", "enc.2", "dec.0", "dec.1", "top_block", "heads")


def import_package() -> None:
    """Put the checkout's ``src/`` first on the path and make sure hemoseg comes from there."""
    src = ROOT / "src"
    if not (src / "hemoseg" / "__init__.py").is_file():
        print(f"error: no hemoseg package source under {src}", file=sys.stderr)
        sys.exit(EXIT_NO_PACKAGE)
    sys.path.insert(0, str(src))
    import hemoseg

    if Path(hemoseg.__file__).resolve().parent != (src / "hemoseg").resolve():
        print(f"error: imported hemoseg from {hemoseg.__file__}, not from {src}", file=sys.stderr)
        sys.exit(EXIT_NO_PACKAGE)


def machine_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads},
        "platform": platform.platform(),
    }


def tail(values):
    """(value, percentile, samples) at the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return None
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def measure(wl, seconds: float, before=None, after=None):
    """Closed loop: units back to back until the time is up and the samples suffice."""
    units = []
    start = time.perf_counter()
    while True:
        if before is not None:
            before(len(units))
        unit = wl.unit(len(units))
        if after is not None:
            after(unit)
        units.append(unit)
        elapsed = time.perf_counter() - start
        enough = len(units) >= wl.min_units
        samples = sum(len(u.latencies) for u in units)
        if enough and (any(u.failed for u in units) or elapsed >= HARD_STOP_S):
            return units
        if enough and elapsed >= seconds and samples > TAIL_BEYOND:
            return units


def end_to_end(wl, units, setup_times) -> tuple[dict, dict]:
    rates = [u.items / u.seconds for u in units if u.items]
    latencies = [x for u in units for x in u.latencies]
    t = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": statistics.median(rates) if rates else 0.0,
        "op_tail_s": t[0] if t else 0.0,
    }
    detail = {
        "item": wl.item,
        "op": wl.op,
        "units": len(units),
        "items": sum(u.items for u in units),
        "op_latency_samples": len(latencies),
        "op_latency_p50_s": statistics.median(latencies) if latencies else None,
        "op_tail_percentile": t[1] if t else None,
        "op_latencies_s": latencies,
        "unit_seconds": [u.seconds for u in units],
        "setup_runs_s": setup_times,
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# traced run


def traced_run(wl, seconds: float):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_unit("setup")
    try:
        wl.setup()
    finally:
        tracer.uninstall()

    # the same first unit untraced: its outputs and its wall time are the reference
    ref_unit = wl.unit(0)
    failures = [f"untraced reference: {ref_unit.error}"] if ref_unit.error else []
    reference = None if ref_unit.error else wl.reference(ref_unit)

    traced_first = {}

    def after(unit):
        if unit.index == 0 and not unit.error:
            traced_first["outputs"] = wl.comparable(unit, tracer)

    tracer.install()
    if hasattr(wl, "log"):
        wl.log.on_stamp = tracer.end_step
    try:
        units = measure(wl, seconds, before=tracer.begin_unit, after=after)
        tracer.begin_unit("repeat")
        repeat = wl.unit(0)
        repeat_outputs = None if repeat.error else wl.comparable(repeat, tracer)
    finally:
        tracer.uninstall()
        if hasattr(wl, "log"):
            wl.log.on_stamp = None

    if reference is not None and traced_first.get("outputs") != reference:
        failures.append("traced outputs differ from the untraced run of the same unit")
    if repeat_outputs != traced_first.get("outputs"):
        failures.append("a second traced run of the first unit produced different outputs")
    first, again = _unit_counts(tracer, 0), _unit_counts(tracer, "repeat")
    if first != again:
        failures.append("counts of two traced runs of the first unit differ")
    # tracing overhead on one input: the traced runs of the first unit against its untraced run
    traced_s = [u.seconds for u in (units[0], repeat) if not u.error]
    overhead_s = statistics.mean(traced_s) - ref_unit.seconds if traced_s and not ref_unit.error else 0.0
    extra = {"unit0_counts": {str(k): dict(v) for k, v in first.items()}, "unit0_traced_s": traced_s}
    return tracer, units, ref_unit, overhead_s, failures, extra


def _unit_counts(tracer, unit) -> dict:
    return {req[1:]: counts for req, counts in tracer.counters.items() if req is not None and req[0] == unit}


def layer_metrics(wl, tracer, units, ref_unit, overhead_s: float) -> tuple[dict, dict]:
    loop = {u.index for u in units}
    ops = sum(len(u.latencies) for u in units)  # train steps or volumes
    ref_ops = len(ref_unit.latencies)

    def per_op(x):
        return x / ops if ops else 0.0

    self_times = tracer.self_times()
    incl = defaultdict(float)
    layer_self = defaultdict(float)
    setup_phantoms = 0.0
    steps = {"1": [], "2": []}
    for i, (name, start, end, parent, req) in enumerate(tracer.spans):
        if req[0] == "setup" and name.startswith("phantoms."):
            setup_phantoms += self_times[i]
        if req[0] not in loop:
            continue
        incl[name] += end - start
        layer_self[name.split(".")[0]] += self_times[i]
        if name == "training.step":
            steps[req[2]].append(end - start)
    counts = Counter()
    for req, c in tracer.counters.items():
        if req is not None and req[0] in loop:
            counts.update(c)

    def ms(*names):
        return per_op(sum(incl[n] for n in names)) * 1000.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    conv_s = incl["autodiff.conv3d.fwd"] + incl["autodiff.conv3d.bwd"]
    m["autodiff.conv3d.fwd_ms"] = ms("autodiff.conv3d.fwd")
    m["autodiff.conv3d.bwd_ms"] = ms("autodiff.conv3d.bwd")
    m["autodiff.conv3d.calls"] = per_op(counts["conv3d.calls"])
    m["autodiff.conv3d.gflop"] = per_op(counts["conv3d.flop"]) / 1e9
    m["autodiff.conv3d.col_mb"] = per_op(counts["conv3d.col_bytes"]) / 1e6
    m["autodiff.conv3d.gflop_per_s"] = ratio(counts["conv3d.flop"] / 1e9, conv_s)
    for op in ("batch_norm3d", "upsample_trilinear", "relu", "add", "concat_channels", "softmax_channels", "other"):
        m[f"autodiff.{op}.fwd_ms"] = ms(f"autodiff.{op}.fwd")
        m[f"autodiff.{op}.bwd_ms"] = ms(f"autodiff.{op}.bwd")
    m["autodiff.backward_ms"] = ms("autodiff.backward")
    m["autodiff.records"] = ratio(counts["autodiff.records"], counts["model.forwards"])
    for mod in MODULES:
        names = [n for n in incl if n == f"model.{mod}" or (mod == "heads" and n.startswith("model.heads."))]
        m[f"model.{mod}.fwd_ms"] = ms(*names)
    m["model.heads_used_ratio"] = ratio(counts["model.heads_read"], counts["model.heads_computed"])
    for stage in ("1", "2"):
        t = tail(steps[stage])
        m[f"training.step_ms.stage{stage}.p50"] = statistics.median(steps[stage]) * 1000.0 if steps[stage] else 0.0
        m[f"training.step_ms.stage{stage}.tail"] = t[0] * 1000.0 if t else 0.0
        m[f"training.batch_ms.stage{stage}"] = ratio(incl[f"training.batch.stage{stage}"], len(steps[stage])) * 1000.0
    m["training.checkpoint_ms"] = ratio(incl["training.save_checkpoint"], counts["training.checkpoints"]) * 1000.0
    m["training.checkpoint_mb"] = ratio(counts["training.checkpoint_bytes"], counts["training.checkpoints"]) / 1e6
    m["augment.ms_per_sample"] = ratio(incl["augment.augment"], counts["augment.samples"]) * 1000.0
    m["augment.kept_voxel_ratio"] = ratio(counts["augment.kept_voxels"], counts["augment.voxels"])
    m["losses.deep_supervision_ms"] = ms("losses.deep_supervision_loss")
    m["optim.step_ms"] = ms("optim.step")
    m["losses.confusion_ms"] = ms("losses.confusion")
    window = incl["inference.sliding_window_predict"]
    m["inference.stage1_s"] = per_op(window)
    m["inference.stage2_s"] = per_op(incl["inference.cascade_infer"] - window)
    m["inference.recompose_ms"] = ms("inference.recompose_average")
    m["inference.patches_per_volume"] = ratio(counts["inference.window_patches"], counts["inference.window_calls"])
    m["inference.patch_overlap"] = ratio(counts["inference.window_voxels"], counts["inference.volume_voxels"])
    m["inference.roi_fraction"] = ratio(counts["inference.roi_voxels"], counts["inference.cascade_voxels"])
    m["volumes.read_ms"] = ms("volumes.read_rvol")
    m["volumes.read_mb"] = per_op(counts["volumes.read_bytes"]) / 1e6
    m["volumes.write_ms"] = ms("volumes.write_rvol")
    m["volumes.resize_ms"] = ms("volumes.resize_trilinear", "volumes.resize_nearest")
    m["volumetry.tada_ms"] = ms("volumetry.tada_measure")
    m["volumetry.slice_extremes_ms"] = ms("volumetry.slice_extremes")
    m["volumetry.slice_points"] = per_op(counts["volumetry.slice_points"])
    m["phantoms.generate_ms"] = setup_phantoms * 1000.0

    wall = per_op(sum(u.seconds for u in units)) * 1000.0
    untraced = ref_unit.seconds / ref_ops * 1000.0 if ref_ops else 0.0
    m["trace.wall_ms"] = wall
    m["trace.untraced_ms"] = untraced
    m["trace.overhead_ms"] = overhead_s / ref_ops * 1000.0 if ref_ops else 0.0
    for layer in LAYERS:
        m[f"trace.self_ms.{layer}"] = per_op(layer_self[layer]) * 1000.0
    m["trace.self_ms.remainder"] = wall - sum(m[f"trace.self_ms.{layer}"] for layer in LAYERS)
    detail = {"ops": ops, "op": wl.op, "spans": len(tracer.spans), "units": len(units)}
    return m, detail


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import_package()
    from workloads import WORKLOADS

    machine = machine_record()
    failures = []
    if any(n > machine["nproc"] for n in machine["blas"]["threads"].values()):
        failures.append(f"BLAS threads {machine['blas']['threads']} exceed nproc {machine['nproc']}")
    WORK.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, WORK)

    if args.trace:
        declared = spec["per_layer"]
        tracer, units, ref_unit, overhead_s, trace_failures, extra = traced_run(wl, args.seconds)
        failures += trace_failures
        values, detail = layer_metrics(wl, tracer, units, ref_unit, overhead_s)
        detail.update(extra)
        tracer.write_spans(WORK / f"{args.workload}_seed{args.seed}_spans.jsonl")
    else:
        declared = spec["end_to_end"]
        setup_times = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        units = measure(wl, args.seconds)
        values, detail = end_to_end(wl, units, setup_times)

    check_failures, check_detail = wl.check(units)
    failures += check_failures
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    missing = sorted({d["name"] for d in declared} ^ set(values))
    if missing:
        failures.append(f"metrics not matching BENCHMARK.json: {missing}")
    metrics = {d["name"]: {"value": values.get(d["name"], 0.0), "unit": d["unit"]} for d in declared}
    correct = not failures and failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "checks": {"passed": not failures, "failures": failures, **check_detail},
        "detail": detail,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (WORK / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1, default=str) + "\n"
    )
    print(json.dumps(record, default=str))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
