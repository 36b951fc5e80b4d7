"""Command-line surface: simulate, classify, preimage, verify, density.

Exit codes: 0 success, 1 check failure (verify), 2 usage or input error.
The commands are thin adapters over the library; all machine-readable output
is JSON or CSV.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import dynamics
from .dynamics import CyclicConfig, FiniteSupportConfig
from .errors import KinklabError, WordTooShort

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# simulate --render writes at most this many cells, a row at a time, so the cap
# bounds the output, not memory: 8,000 steps of --support 1 (128,024,001 cells)
# write 128 MB of ascii or 256 MB of pbm (2 bytes a cell).
MAX_DIAGRAM_CELLS = 1 << 27

# simulate steps at most this many cells, steps x (width + 64), where a step's
# own overhead counts as 64 cells and --support's width is its last row's.  Near
# the cap, on 2 vCPUs: --word "10" * 23000 + "1" for 23,000 steps takes 4.9 s
# (the word is stepped as a string, about 4 ns a cell), --cyclic 100 for
# 16,000,000 steps 3.9 s and --cyclic "1" + "0" * 100 for 6,400,000 steps 3.2 s.
# --support 1 stops at 23,154 steps (0.07 s); uncapped, its cost is quadratic in
# the steps: 160,000 steps took 2.8 s and 320,000 steps 12.7 s.
MAX_SIMULATE_CELLS = 1 << 30

# preimage --depth 1 writes at most this many cells, count x (|w| + 2), about
# 1.3 MB of JSON: 0^20 (46,369 x 22 cells) is written in 0.3 s, "10001" * 3 +
# "10" * 65520 (8 x 131,057 cells, near the argv limit) in 3.5 s.  0^40
# (701,408,734 preimages) and "10001" * 12 + "10" * 20000 (4,096 x 40,062 cells,
# 205 s uncapped) are refused at once; deeper probes write none.
MAX_PREIMAGE_CELLS = 1 << 20

# density --width is at most this: with --steps 0 --trials 1 a run peaks at
# 38 MB RSS at 2^20 cells, 86 MB at 2^24, 242 MB at 2^26 and 802 MB at 2^28
# (2^27 still runs under a 1 GiB address space, in 1.0 s).
MAX_WIDTH = 1 << 26


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinklab",
        description="Rule-18 kink dynamics laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="iterate a word, cycle or finite support")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--word", help="finite word (shrinks by 2 per step)")
    src.add_argument("--cyclic", help="periodic configuration of fixed width")
    src.add_argument("--support", help="finite-support configuration")
    sim.add_argument("--offset", type=int, default=0, help="support offset")
    sim.add_argument("--steps", type=int, default=1)
    sim.add_argument("--rule", choices=[dynamics.R18, dynamics.R90], default=dynamics.R18)
    sim.add_argument("--render", choices=["ascii", "pbm"], help="emit the spacetime diagram")

    cls = sub.add_parser("classify", help="kink structure and class membership")
    cls.add_argument("word")

    pre = sub.add_parser("preimage", help="enumerate preimages or probe chain depth")
    pre.add_argument("word")
    pre.add_argument("--depth", type=int, default=1)

    ver = sub.add_parser("verify", help="run the oracle suite")
    # run_all names the valid profiles; listing them here would import oracles
    ver.add_argument("--profile", default="quick")

    den = sub.add_parser("density", help="Monte Carlo kink-density decay")
    den.add_argument("--width", type=int, required=True)
    den.add_argument("--steps", type=int, default=256)
    den.add_argument("--trials", type=int, default=32)
    den.add_argument("--seed", type=int, default=0)
    den.add_argument("--out", default="density", help="output path prefix")
    den.add_argument("--window", type=int, nargs=2, metavar=("LO", "HI"),
                     help="power-law fit window (default: auto)")
    return parser


def _cmd_simulate(args) -> int:
    steps, rule = args.steps, args.rule
    if steps < 0:
        raise KinklabError("steps must be non-negative")
    # each geometry gives a start state y, a step and row(t, y), the cells of row t
    if args.word is not None:
        y = dynamics.check_word(args.word)
        if steps and len(y) < 2 * steps + 1:
            raise WordTooShort(f"length {len(y)} word cannot survive {steps} steps")
        width, step, row = len(y), dynamics.step_word, lambda t, y: y
    elif args.cyclic is not None:
        x = CyclicConfig(args.cyclic)
        width, y = x.width, int(x.bits, 2)
        step = lambda y, rule: dynamics.step_cyclic_packed(y, width, rule)  # noqa: E731
        row = lambda t, y: format(y, f"0{width}b")  # noqa: E731
    else:
        # the light cone: both rules map 001 and 100 to 1, so a nonempty support
        # gains one cell on each side per step, and row t is the support after
        # t steps in |s| + 2 steps cells from offset - steps
        x = FiniteSupportConfig(args.support, args.offset)
        width = len(x.support) + 2 * steps if x.support else 1
        y, step = int(x.support or "0", 2), dynamics.step_packed
        row = lambda t, y: format(y << steps - t, f"0{width}b")  # noqa: E731
    if (cells := steps * (width + 64)) > MAX_SIMULATE_CELLS:
        raise KinklabError(f"{steps} steps of {width} cells count as {cells} cells, "
                           f"more than the {MAX_SIMULATE_CELLS} the simulate command steps")
    line = None
    if args.render:
        if (steps + 1) * width > MAX_DIAGRAM_CELLS:
            raise KinklabError(f"a {steps + 1} x {width} diagram exceeds {MAX_DIAGRAM_CELLS} cells")
        out = sys.stdout.buffer
        if args.render == "ascii":
            table = str.maketrans("01", ".#")
            line = lambda r: (r.translate(table) + "\n").encode()  # noqa: E731
        else:  # a word's row t, 2t cells short, is centred on t background cells a side
            out.write(f"P1\n{width} {steps + 1}\n".encode())
            buf = bytearray(b" " * (2 * width - 1) + b"\n")  # cells at the even bytes

            def line(r):
                buf[: 2 * width : 2] = r.center(width, "0").encode()
                return buf
    for t in range(steps):
        if line:
            out.write(line(row(t, y)))
        y = step(y, rule)
    last = row(steps, y)
    if line:
        out.write(line(last))
    if args.support is None:
        print(last)
    else:
        print(f"{last} @ {x.offset - steps}" if x.support else "(empty) @ 0")
    return EXIT_OK


def _cmd_classify(args) -> int:
    import json

    from . import kinks, wordclasses

    w = dynamics.check_word(args.word)
    occ = kinks.find_kinks(w)
    payload = {
        "word": w,
        "kinks": len(occ),
        "occurrences": [[p, g] for p, g in occ],
        "stability": wordclasses.classify_stability(w).value,
        "leftKinkWord": wordclasses.is_left_kink_word(w),
        "inB": wordclasses.in_B(w),
    }
    if len(occ) == 2:
        d = kinks.two_kink_decompose(w)
        payload["inP"] = wordclasses.in_P(w)
        payload["b"] = d.b
        payload["delta"] = d.delta
    print(json.dumps(payload))
    return EXIT_OK


def _cmd_preimage(args) -> int:
    import json

    from . import preimage

    w = dynamics.check_word(args.word)
    if not 1 <= args.depth <= preimage.MAX_DEPTH:
        raise KinklabError(f"depth must be between 1 and {preimage.MAX_DEPTH}, got {args.depth}")
    if args.depth == 1:
        count = preimage.count_preimages(w)
        if (cells := count * (len(w) + 2)) > MAX_PREIMAGE_CELLS:
            raise KinklabError(f"{count} preimages of {len(w) + 2} cells make {cells} cells, "
                               f"more than the {MAX_PREIMAGE_CELLS} the preimage command writes")
        print(json.dumps(list(preimage.preimages(w).members)))
    else:
        print(json.dumps(preimage.preimage_depth(w, args.depth)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import oracles

    reports = oracles.run_all(args.profile)
    failed = False
    for report in reports:
        print(report.to_json())
        if report.status is oracles.OracleStatus.FAIL:
            failed = True
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_density(args) -> int:
    if args.width > MAX_WIDTH:
        raise KinklabError(f"width {args.width} exceeds {MAX_WIDTH} cells")
    out_dir = os.path.dirname(args.out) or "."
    if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
        raise KinklabError(f"cannot write {args.out}: {out_dir} is not a writable directory")
    # the engine runs on one thread, so OpenBLAS starts no pool unless the user
    # sized one; numpy reads the variable once, when it loads
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import density  # imports numpy, which no other command needs

    series = density.density_trajectory(args.width, args.steps, args.trials, args.seed)
    window = tuple(args.window) if args.window else density.default_window(args.steps)
    try:
        fit = density.fit_power_law(series, window)
    except KinklabError:
        fit = None
    csv_path = args.out + ".csv"
    json_path = args.out + ".json"
    density.write_density_csv(series, csv_path)
    density.write_density_metadata(series, json_path, fit)
    print(f"wrote {csv_path} and {json_path}")
    print(f"d_0 = {series.values[0]:.6f} (expected 1/3 under Bernoulli(1/2))")
    if fit is not None:
        print(
            f"fit over n in [{fit.window[0]}, {fit.window[1]}]: "
            f"exponent {fit.exponent:.4f}, amplitude {fit.amplitude:.4f}, "
            f"D {fit.diffusion_coefficient:.4f}"
        )
    else:
        print(f"fit window {window} degenerate; no power-law fit")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "classify": _cmd_classify,
    "preimage": _cmd_preimage,
    "verify": _cmd_verify,
    "density": _cmd_density,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (KinklabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
