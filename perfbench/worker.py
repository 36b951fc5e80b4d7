"""One workload run inside the guarded child process; see run.py.

Untraced (``--trace 0``): warm up, then repeat passes of the workload body
until their timed total reaches ``--seconds``, checking every output.
``run_s`` is the median pass, each pass the sum of its operations' times at
reference speed (``workloads.OpClock``); ``run_wall_s`` on the report line is
the median pass in plain wall time.
Traced (``--trace 1``): every layer must be reported, so each in-process
workload body runs once untraced and once with spans, and the cli layer is
probed with fresh interpreters and warm in-process calls.  ``--seconds`` does
not apply to a traced run.

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from statistics import median

import numpy

import kinklab
import setup_probe
import tracing
import workloads
from workloads import HERE, ROOT, WORKLOADS, Ledger, tail

OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9


def provenance(seed: int) -> dict:
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass  # no git, or not a repository: the source digest still identifies the code
    return {
        "kinklab": kinklab.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": workloads.sha256("".join(
            p.name + p.read_text() for p in sorted((ROOT / "src" / "kinklab").glob("*.py")))),
        "seed": seed,
        "default_seed": workloads.DEFAULT_SEED,
        "KINKLAB_THREADS": os.environ.get("KINKLAB_THREADS"),
    }


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def setup_s(name: str, ledger: Ledger) -> float | None:
    """Seconds of one fresh process importing and warming up; None if it failed."""
    proc = workloads.call(
        subprocess.run, [sys.executable, str(HERE / "setup_probe.py"), name],
        capture_output=True, text=True, cwd=ROOT, timeout=60)
    ok = isinstance(proc, subprocess.CompletedProcess) and proc.returncode == 0
    ledger.op(ok, f"setup probe for {name}")
    return float(proc.stdout) if ok else None


def check(wl, inputs, out, ledger: Ledger, k: int) -> None:
    try:
        wl.check(inputs, out, ledger, k)
    except Exception:  # a check that cannot finish fails the pass, not the run
        traceback.print_exc()
        ledger.op(False, f"{wl.name} pass {k}: check raised")


def untraced(name: str, seed: int, seconds: float) -> dict:
    wl = WORKLOADS[name](seed, OUT)
    ledger = Ledger()
    setup_probe.set_up(name)
    pass_s: list[float] = []  # wall
    pass_ref_s: list[float] = []  # at reference speed
    setup: list[float | None] = []
    k = 0
    while sum(pass_s) < seconds:
        inputs = wl.inputs(k)
        clock = workloads.OpClock(wl.RESCALE)
        out = wl.run(inputs, clock=clock)
        pass_s.append(sum(clock.wall_s.values()))
        pass_ref_s.append(sum(clock.ref_s.values()))
        check(wl, inputs, out, ledger, k)
        del inputs, out  # so the next pass does not run beside this one's results
        # Spread the set-up probes over the run, so that their median sees
        # the same machine as the passes do.
        if k == 0:
            probe_every = max(1, round(seconds / pass_s[0] / SETUP_PROBES))
        if k % probe_every == 0 and len(setup) < SETUP_PROBES:
            setup.append(setup_s(name, ledger))
        k += 1
    while len(setup) < SETUP_PROBES:
        setup.append(setup_s(name, ledger))
    setup = [s for s in setup if s is not None]
    # the cli workload's memory is that of the kinklab processes it starts,
    # the set-up probes included
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF)
    return {
        "ledger": ledger,
        "metrics": {
            "setup_s": {"value": median(setup), "unit": "s"},
            "run_s": {"value": median(pass_ref_s), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
        "report": {
            "passes": len(pass_s),
            "rescaled": wl.RESCALE,
            "run_wall_s": {"value": median(pass_s), "unit": "s"},
            "pass_s": pass_s,
            "pass_ref_s": pass_ref_s,
            "setup_s_samples": setup,
            "workload_metrics": wl.extra(),
        },
    }


def per_layer(summary: dict, tracer: tracing.Tracer) -> dict:
    metrics = {}
    for layer, functions in tracing.TRACED.items():
        for fn in functions:
            row = summary.get(f"{layer}.{fn}", {"calls": 0, "s": 0.0, "self_s": 0.0})
            name = f"{layer}.{fn.removeprefix('verify_')}"
            if layer in ("dynamics", "kinks", "preimage"):
                metrics[f"{name}.calls"] = {"value": row["calls"], "unit": "count"}
            metrics[f"{name}.s"] = {"value": row["s"], "unit": "s"}
            metrics[f"{name}.self_s"] = {"value": row["self_s"], "unit": "s"}
    metrics["preimage.preimages.members"] = {"value": tracer.members, "unit": "count"}
    return metrics


def traced(name: str, seed: int) -> dict:
    ledger = Ledger()
    tracer = tracing.Tracer()
    metrics, overhead = {}, {}
    in_process = ["density", "oracles", "preimage"]
    order = sorted(in_process, key=lambda w: w != name)
    for run_id, w in enumerate(order):
        wl = WORKLOADS[w](seed, OUT)
        setup_probe.set_up(w)
        inputs = wl.inputs(1)
        t0 = time.perf_counter()
        out = wl.run(inputs)
        plain_s = time.perf_counter() - t0
        plain_latency_us = {p: list(v) for p, v in getattr(wl, "latency_us", {}).items()}
        check(wl, inputs, out, ledger, 1)
        tracer.run_id = run_id
        with tracer.installed():
            t0 = time.perf_counter()
            with tracer.span(f"bench.{w}"):
                out = wl.run(inputs, span=tracer.span)
            traced_s = time.perf_counter() - t0
        check(wl, inputs, out, ledger, 1)
        overhead[w] = {"traced_s": traced_s, "untraced_s": plain_s}
        metrics[f"trace.overhead_s.{w}"] = {"value": traced_s - plain_s, "unit": "s"}
        for phase, lat in plain_latency_us.items():
            metrics[f"preimage.{phase}.us_p50"] = {"value": median(lat), "unit": "us"}
            value, pct, n = tail(lat)
            metrics[f"preimage.{phase}.us_tail"] = {
                "value": value, "unit": "us", "percentile": pct, "n": n}

    cli = WORKLOADS["cli"](seed, OUT)
    argvs = cli.inputs(1)
    main_ms, stdout = cli.warm_main_ms(argvs)
    check(cli, argvs, stdout, ledger, 1)
    metrics["cli.python_ms"] = {
        "value": median(workloads.bare_python_ms(8)), "unit": "ms"}
    metrics["cli.import_ms"] = {"value": median(workloads.cold_import_ms(8)), "unit": "ms"}
    for command, ms in main_ms.items():
        metrics[f"cli.main_ms.{command}"] = {"value": ms, "unit": "ms"}

    metrics.update(per_layer(tracer.summary(), tracer))
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{name}.npz"
    tracer.write(str(spans_path))
    return {
        "ledger": ledger,
        "metrics": metrics,
        "report": {
            "overhead": overhead,
            "spans": {"path": os.path.relpath(spans_path, ROOT), "count": len(tracer.table()),
                      "run_ids": dict(enumerate(order))},
            "exact_counts": "every *.calls metric and preimage.preimages.members repeat "
                            "exactly for a given seed; the oracle counts for any seed",
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        res = traced(args.workload, args.seed)
    else:
        res = untraced(args.workload, args.seed, args.seconds)
    ledger = res.pop("ledger")
    res["report"].update(
        provenance=provenance(args.seed),
        fingerprints=ledger.fingerprints,
        failures=ledger.messages,
    )
    res.update(attempted=ledger.attempted, failed=ledger.failed)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
