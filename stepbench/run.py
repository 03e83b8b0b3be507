"""Benchmark of one convex-integration step of cilab, end to end and per layer.

    python3 stepbench/run.py --workload step-n32 --seed 1 --seconds 25 --trace 0

runs one workload in this process: it runs one discarded warm-up unit, then
timed units until about ``--seconds`` have passed (at least ``MIN_UNITS``;
``step_s`` is the median), and checks the outputs.  Before the warm-up and
before every unit it builds the inputs from the seed again and again for
about ``SETUP_SECONDS``; ``setup_s`` is the median build.  ``--trace 1`` makes a
separate traced run that reports the per-layer metrics instead.  Without
``--workload`` every workload runs, each in its own process.  The last line
of standard output is one JSON object; a copy with the grids, seed, commit
and machine goes to ``stepbench/out/``.
"""

import os

# one BLAS/OpenMP thread: the benchmark runs on small shared machines, where
# thread pools that oversubscribe the cores make timings wander
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# no huge-page hint for numpy arrays: whether the kernel grants huge pages
# depends on the whole machine, and peak RSS moved by 11 MB between runs of
# the same seed with it
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_SECONDS = 0.4
MIN_SETUPS = 2
MIN_UNITS = 3

END_TO_END = (("setup_s", "s"), ("step_s", "s"), ("peak_rss_mb", "MB"),
              ("interp_err", "1"), ("flowmap_vol_defect", "1"),
              ("euler_err", "1"))
ACCURACY = ("interp_err", "flowmap_vol_defect", "euler_err")
# per-layer metric -> (unit, span or count name, field)
PER_LAYER = {
    "euler.solve.self_s": ("s", "euler.solve", "self_s"),
    "euler.solve.rk4_steps": ("count", "euler.solve.rk4_steps", "count"),
    "euler.solve.s_per_rk4_step": ("s", None, None),
    "euler.solve.z_eval.calls": ("count", "euler.solve.z_eval", "calls"),
    "euler.solve.z_eval.s": ("s", "euler.solve.z_eval", "s"),
    "euler.flow_map.self_s": ("s", "euler.flow_map", "self_s"),
    "euler.flow_map.u_eval.calls": ("count", "euler.flow_map.u_eval", "calls"),
    "euler.flow_map.substeps": ("count", None, None),
    "euler.interpolant.build_s": ("s", "euler.interpolant.build", "self_s"),
    "euler.interpolant.call_s": ("s", "euler.interpolant.call", "self_s"),
    "euler.local_time_limit.self_s": ("s", "euler.local_time_limit", "self_s"),
    "holder.holder_norm.self_s": ("s", "holder.holder_norm", "self_s"),
    "fields.mollify_space.self_s": ("s", "fields.mollify_space", "self_s"),
    "fields.inverse_divergence.self_s":
        ("s", "fields.inverse_divergence", "self_s"),
    "fields.transforms.self_s": ("s", "fields.transforms", "self_s"),
    "mikado.gamma.self_s": ("s", "mikado.gamma", "self_s"),
    "mikado.eval_W.self_s": ("s", "mikado.eval_W", "self_s"),
    "mikado.build_family_flows.self_s":
        ("s", "mikado.build_family_flows", "self_s"),
    "mikado.modes": ("count", "mikado.modes", "count"),
    "noise.stopping_time.self_s": ("s", "noise.stopping_time", "self_s"),
    "noise.ito_integral.self_s": ("s", "noise.ito_integral", "self_s"),
    "noise.mollified_path.self_s": ("s", "noise.mollified_path", "self_s"),
    "noise.field_at.calls": ("count", "noise.field_at", "calls"),
    "noise.field_at.self_s": ("s", "noise.field_at", "self_s"),
    "cutoffs.chi.self_s": ("s", "cutoffs.chi", "self_s"),
    "cutoffs.eta.self_s": ("s", "cutoffs.eta", "self_s"),
    "noise.sample_path.self_s": ("s", "noise.sample_path", "self_s"),
    "ladder.build.self_s": ("s", "ladder.build", "self_s"),
    "step.unattributed_s": ("s", None, None),
    "step.unit_s": ("s", None, None),
}
# accuracy readings of the traced run -> checks they come from (0 where the
# workload has no such check)
READINGS = {
    "euler.solve.truncation_per_time": (),
    "fields.divergence_defect": ("divergence_at_rounding",
                                 "noise_divergence_free"),
    "cutoffs.chi.partition_defect": ("chi_partition_of_unity",),
    "cutoffs.eta.overlap_defect": (),
    "mikado.second_moment_defect": ("mikado_second_moment",),
    "noise.ito_identity_defect": ("ito_identity",),
}


def load_program():
    """Import cilab from this checkout's ``src``; exit if it is not there."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import cilab
    except ImportError as exc:
        sys.exit(f"stepbench: cannot import cilab from {src}: {exc}")
    if Path(cilab.__file__).resolve().parent != (src / "cilab").resolve():
        sys.exit(f"stepbench: cilab was imported from {cilab.__file__}, "
                 f"not from {src}")


def run_workload(name, seed, seconds, trace, sizes=None):
    """One run of one workload: the result line, the record written to the
    result file, and the spans of a traced run (None when untraced)."""
    import workloads
    from tracer import NullTracer, Tracer, layer_times

    wl = workloads.WORKLOADS[name](seed, sizes or workloads.FULL)
    tr = Tracer() if trace else NullTracer()
    setups, units, cpu = [], [], []
    with workloads.instrument(tr):
        inp = _setups(wl, tr, setups)
        with tr.span("warmup"):
            wl.warmup(inp, tr)
        start = time.perf_counter()
        while True:
            if not trace:
                inp = _setups(wl, tr, setups)
            t, c = time.perf_counter(), time.process_time()
            with tr.span("unit"):
                out = wl.unit(inp, tr)
            units.append(time.perf_counter() - t)
            cpu.append(time.process_time() - c)
            if len(units) == 1:
                # later units reuse a heap that grows with their number
                peak_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - start
            if (len(units) >= MIN_UNITS
                    and elapsed + statistics.median(units) > seconds):
                break
    res, values = wl.checks(inp, out)
    failed = sum(not c.passed for c in res)
    if trace:
        metrics = _per_layer(layer_times(tr), res, values)
    else:
        missing = [m for m in ACCURACY if m not in values]
        if missing:
            ref = workloads.reference_probe(seed, wl.sizes)
            values.update({m: ref[m] for m in missing})
        values.update({"setup_s": statistics.median(setups),
                       "step_s": statistics.median(units),
                       "peak_rss_mb": peak_mb})
        metrics = {m: {"value": float(values[m]), "unit": u}
                   for m, u in END_TO_END}
    line = {"correct": failed == 0, "attempted": len(res), "failed": failed,
            "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "grids": wl.grids(), "commit": _commit(),
              "source_sha256": _source_digest(), "machine": _machine(),
              "setup_s": setups, "units_s": units, "units_cpu_s": cpu,
              "checks": [c.record() for c in res], "result": line}
    return line, record, (tr.records() if trace else None)


def _setups(wl, tr, times):
    """Build the inputs again and again for about ``SETUP_SECONDS`` (once
    when traced) and return the last build.  An untraced run makes such a
    round before the warm-up and before every unit, so that the set-up
    times sample the machine over the whole run, as the unit times do."""
    start = len(times)
    while True:
        t = time.perf_counter()
        with tr.span("setup"):
            inp = wl.setup(tr)
        times.append(time.perf_counter() - t)
        if tr.enabled or (len(times) - start >= MIN_SETUPS
                          and sum(times[start:]) >= SETUP_SECONDS):
            return inp


def _per_layer(lt, res, readings):
    layers, counts = lt["layers"], lt["counts"]
    values = {}
    for metric, (_, key, field) in PER_LAYER.items():
        if field == "count":
            values[metric] = counts.get(key, 0.0)
        elif key is not None:
            values[metric] = layers.get(key, {}).get(field, 0.0)
    steps = values["euler.solve.rk4_steps"]
    values["euler.solve.s_per_rk4_step"] = (
        values["euler.solve.self_s"] / steps if steps else 0.0)
    values["euler.flow_map.substeps"] = (
        counts.get("euler.flow_map.velocity_calls", 0.0) / 4)
    values["step.unattributed_s"] = lt["unattributed_s"]
    values["step.unit_s"] = lt["unit_s"]
    out = {m: {"value": float(values[m]), "unit": PER_LAYER[m][0]}
           for m in PER_LAYER}
    by_name = {c.name: c.value for c in res}
    for metric, names in READINGS.items():
        found = [by_name[n] for n in names if n in by_name]
        value = readings.get(metric, found[0] if found else 0.0)
        out[metric] = {"value": float(value), "unit": "1"}
    return out


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for row in (git / "packed-refs").read_text().splitlines():
            if row.endswith(" " + ref):
                return row.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _machine():
    import numpy
    import scipy
    model = None
    try:
        for row in Path("/proc/cpuinfo").read_text().splitlines():
            if row.startswith("model name"):
                model = row.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"node": platform.node(), "cpu": model,
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": 1}


def _print_table(name, line):
    print(f"{name}: attempted {line['attempted']}, failed {line['failed']}, "
          f"correct {line['correct']}")
    for metric, m in line["metrics"].items():
        print(f"  {metric:36s} {m['value']:.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("step-n32", "euler-n64",
                                           "noise-modes"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_program()
    if args.workload is None:
        return _run_all(args)
    line, record, spans = run_workload(args.workload, args.seed, args.seconds,
                                       args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans))
    _print_table(args.workload, line)
    print(json.dumps(line))
    return 0


def _run_all(args):
    """Each workload in its own process, one after the other."""
    from workloads import WORKLOADS
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"stepbench: workload {name} exited with "
                     f"{proc.returncode}")
        rows = proc.stdout.splitlines()
        print("\n".join(rows[:-1]))
        line = json.loads(rows[-1])
        total["correct"] &= line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
        total["metrics"].update({f"{name}/{m}": v
                                 for m, v in line["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
