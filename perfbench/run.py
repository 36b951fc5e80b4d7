"""kinklab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {density,oracles,preimage,cli} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  kinklab is pure Python, so it is used straight
from ``src/``; there is nothing to build.  The work happens in a child process
(worker.py) under an address-space and CPU-time limit, so a blow-up fails
operations instead of exhausting the machine.

Standard output ends with two lines: a report with provenance, fingerprints
and the workload's own metrics, then the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("density", "oracles", "preimage", "cli")
MEMORY_LIMIT = 2 << 30  # bytes of address space per child process
CPU_LIMIT_S = 170
RUN_LIMIT_S = 170  # wall seconds; a run must end within 180


def limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S))


def run_guarded(argv: list[str], env: dict, timeout: float) -> str | None:
    """Standard output of a limited child, or None if it failed or timed out.
    The child leads its own process group, which is killed once it ends, so
    nothing it started outlives it."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
                            preexec_fn=limit_child, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None or proc.returncode != 0:
        print(f"perfbench: {argv[1:3]} failed (exit {proc.returncode})", file=sys.stderr)
        return None
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "kinklab" / "__init__.py").is_file():
        print(f"perfbench: no kinklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("KINKLAB_THREADS", None)  # users run the default thread count

    out = run_guarded(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env, RUN_LIMIT_S)
    if out is None:
        worker = {"attempted": 1, "failed": 1, "metrics": {}, "report": {}}
    else:
        worker = json.loads(out.splitlines()[-1])
    attempted, failed = worker["attempted"], worker["failed"]
    report = {"workload": args.workload, "trace": args.trace, **worker["report"],
              "fail_ratio": {"value": failed / attempted, "unit": "ratio"}}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in worker["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
