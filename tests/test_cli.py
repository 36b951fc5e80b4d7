import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import kinklab
from kinklab import cli, dynamics
from kinklab.cli import MAX_DIAGRAM_CELLS, main
from kinklab.preimage import MAX_DEPTH, count_preimages, preimages

SRC = str(Path(kinklab.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_word(capsys):
    code, out, _ = run(capsys, "simulate", "--word", "0010101100101", "--steps", "3")
    assert code == 0
    assert out == "1001011\n"


def test_simulate_rule90(capsys):
    code, out, _ = run(capsys, "simulate", "--word", "1001", "--rule", "r90")
    assert code == 0
    assert out.strip() == "11"


def test_simulate_cyclic(capsys):
    code, out, _ = run(capsys, "simulate", "--cyclic", "1001", "--steps", "2")
    assert code == 0
    assert out.strip() == "1001"


def test_simulate_support(capsys):
    code, out, _ = run(
        capsys, "simulate", "--support", "1", "--offset", "0", "--steps", "1"
    )
    assert code == 0
    assert out.strip() == "101 @ -1"


@pytest.mark.parametrize("render", [[], ["--render", "ascii"]])
def test_simulate_support_steps_once(capsys, monkeypatch, render):
    # the final configuration comes from the diagram's run, not a second one
    real = dynamics.step_packed
    calls = []

    def counting(x, rule=dynamics.R18):
        calls.append(x)
        return real(x, rule)

    monkeypatch.setattr(dynamics, "step_packed", counting)
    code, out, _ = run(capsys, "simulate", "--support", "1", "--steps", "5", *render)
    assert code == 0
    assert len(calls) == 5
    diagram = (
        ".....#.....\n....#.#....\n...#...#...\n"
        "..#.#.#.#..\n.#.......#.\n#.#.....#.#\n"
    )
    assert out == (diagram if render else "") + "10100000101 @ -5\n"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--word", "0010101100101", "--steps", "3"], "1001011\n"),
        (["--cyclic", "1001", "--steps", "3"], "0110\n"),
        (["--support", "1101", "--steps", "4", "--offset", "7"], "101010010101 @ 3\n"),
    ],
)
def test_simulate_without_render_builds_no_diagram(capsys, argv, expected):
    # a diagram costs a row per step; only --render writes one, so without it
    # stdout is the final state alone
    code, out, _ = run(capsys, "simulate", *argv)
    assert (code, out) == (0, expected)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["0", "--steps", "3"], "(empty) @ 0\n"),
        (["1", "--steps", "0"], "1 @ 0\n"),
        (["111", "--steps", "2", "--rule", "r90"], "1110111 @ -2\n"),
        (
            ["1101", "--steps", "4", "--offset", "7", "--render", "pbm"],
            "P1\n12 5\n"
            "0 0 0 0 1 1 0 1 0 0 0 0\n0 0 0 1 0 0 0 0 1 0 0 0\n"
            "0 0 1 0 1 0 0 1 0 1 0 0\n0 1 0 0 0 1 1 0 0 0 1 0\n"
            "1 0 1 0 1 0 0 1 0 1 0 1\n101010010101 @ 3\n",
        ),
    ],
)
def test_simulate_support_final_state(capsys, argv, expected):
    code, out, _ = run(capsys, "simulate", "--support", *argv)
    assert code == 0
    assert out == expected


def test_simulate_render_ascii(capsys):
    code, out, _ = run(
        capsys, "simulate", "--cyclic", "1001", "--steps", "1", "--render", "ascii"
    )
    assert code == 0
    assert out.startswith("#..#\n.##.\n")


# sha256 of stdout, pinned when the three geometries built their whole diagram
# before writing it: rows are written as they are stepped, byte for byte the same
RENDER_DIGESTS = {
    ("--word", "r18", "ascii"): "212842065f742f924b1aee939c0a55383d94d1cca0a4e8c0f5f7d4dd19e5ccaa",
    ("--word", "r18", "pbm"): "d11f0a433abe9aa88ce75aa1ed51ee6173cfb2d7e0c0c2bb7423d9ae811ea62e",
    ("--word", "r90", "ascii"): "e3a206d7eb4b3907f537d02ce15ed2d1b8c431029dea9afcaa805ab431ea007d",
    ("--word", "r90", "pbm"): "a3a0acf6da81e301ddb6df0ed6b8e567ed985a9ae175a1eae961ed43e682f8d1",
    ("--cyclic", "r18", "ascii"): "47d97cc4213c3cf05533b3a32efa9804f4bdae3fd4b96513a871ab8ec017e3a4",
    ("--cyclic", "r18", "pbm"): "3d0eed7d62834ca99718aef389e62fa1ae2e5ace20b1d3fb5b3f18f7cc3ffee1",
    ("--cyclic", "r90", "ascii"): "76285ada75736817d617f285d8a29e1971e42252dbbea50ce47131e5b0004cca",
    ("--cyclic", "r90", "pbm"): "7f041d446470d65c2be75170d46ae8bcfcd968c2928e46dee626a23aff48f4f5",
    ("--support", "r18", "ascii"): "692be288cf5f185f5a4f74b1c9d02bba104e12cf1a5e1313a2fff794e015cda5",
    ("--support", "r18", "pbm"): "c1b8fa7f75fc65fad5c5edae26e6683e5b3d3cdd23ba433ba8d48840447e417d",
    ("--support", "r90", "ascii"): "97d45bcf494f388c82109954569a7ff69a709476dcb51aa5a48db405d094950b",
    ("--support", "r90", "pbm"): "789b4162d4a0c344cbcf84f3fa4ff9d09bae81ce29e872f29d7c3c7c72794239",
}
RENDER_STARTS = {
    "--word": ["0010101100101101001110100101100010110100111010010110001011010011"],
    "--cyclic": ["100101100010110100111010010110001011"],
    "--support": ["1101001", "--offset", "-5"],
}


@pytest.mark.parametrize("geometry, rule, render", sorted(RENDER_DIGESTS))
def test_simulate_render_digest(capsys, geometry, rule, render):
    code, out, _ = run(capsys, "simulate", geometry, *RENDER_STARTS[geometry],
                       "--steps", "24", "--rule", rule, "--render", render)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == RENDER_DIGESTS[geometry, rule, render]


def test_classify_two_kink(capsys):
    code, out, _ = run(capsys, "classify", "1101001")
    assert code == 0
    payload = json.loads(out)
    assert payload["kinks"] == 2
    assert payload["occurrences"] == [[0, 0], [3, 2]]
    assert payload["inP"] is True
    assert payload["b"] == "1101001"


def test_classify_stable(capsys):
    code, out, _ = run(capsys, "classify", "001101100")
    assert code == 0
    payload = json.loads(out)
    assert payload["stability"] == "Stable"
    assert payload["inP"] is True


def test_classify_kinkless(capsys):
    code, out, _ = run(capsys, "classify", "10101")
    assert code == 0
    payload = json.loads(out)
    assert payload["kinks"] == 0
    assert "inP" not in payload


def test_preimage_enumeration(capsys):
    code, out, _ = run(capsys, "preimage", "11")
    assert code == 0
    assert json.loads(out) == ["1001"]


def test_preimage_depth(capsys):
    code, out, _ = run(capsys, "preimage", "111", "--depth", "1")
    assert code == 0
    assert json.loads(out) == []
    code, out, _ = run(capsys, "preimage", "11", "--depth", "2")
    assert code == 0
    assert json.loads(out) is True


# accepted preimage inputs at depths 1 to 8, with every target's stdout hashed
# in order: enumerations (0^20 just under the cell cap) and depth probes
PREIMAGE_GRID = [
    ("11", 1), ("111", 1), ("0000", 1), ("10011", 1), ("1101001", 1), ("001101100", 1),
    ("0" * 20, 1), ("1001", 2), ("0" * 40, 2), ("10011011001", 2), ("1101001", 3), ("111", 3),
    ("10" * 8, 4), ("0" * 10, 8),
]


def test_preimage_stdout_digest(capsys):
    digest = hashlib.sha256()
    for w, depth in PREIMAGE_GRID:
        code, out, _ = run(capsys, "preimage", w, "--depth", str(depth))
        assert code == 0, (w, depth)
        digest.update(out.encode())
    assert digest.hexdigest() == "52f70e4f5b68578de00e135ea36e72f031b3f5bee9d7450335d8d8f4a24bdb92"


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--profile", "quick")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    for line in lines:
        assert json.loads(line)["status"] == "Pass"


@pytest.mark.parametrize(
    "profile, digest",
    [
        ("quick", "131f2b0747d7f75906a5cae6bc6c4cae6cb861e441d5e3052386a125aeb16b9e"),
        ("full", "d4f22a7e2ad76fd363a5ee828d265acc585285fe56fa9ac5350fe595bfd81d26"),
    ],
)
def test_verify_stdout_digest(capsys, profile, digest):
    # the full digest is test_full_profile_json_digest's: stdout is the report lines
    code, out, _ = run(capsys, "verify", "--profile", profile)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_unknown_profile_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--profile", "nope")
    assert code == 2
    assert out == ""
    assert "'full'" in err and "'quick'" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    from kinklab import oracles

    def broken():
        return oracles.OracleReport(
            "figure_iterates", oracles.OracleStatus.FAIL, {}, "w", "forced"
        )

    monkeypatch.setitem(oracles._ORACLES, "figure_iterates", broken)
    code, out, _ = run(capsys, "verify", "--profile", "quick")
    assert code == 1


def test_density_outputs(capsys, tmp_path):
    prefix = str(tmp_path / "run")
    code, out, _ = run(
        capsys,
        "density",
        "--width", "131",
        "--steps", "64",
        "--trials", "4",
        "--seed", "7",
        "--out", prefix,
        "--window", "8", "57",
    )
    assert code == 0
    assert (tmp_path / "run.csv").exists()
    meta = json.loads((tmp_path / "run.json").read_text())
    assert meta["fit"]["window"] == [8, 57]
    assert "d_0 = " in out


def test_density_on_an_odd_cycle_with_a_lone_1(capsys, tmp_path):
    # trial 2 of seed 0 is 01000, one kink at width 5, and steps to 10100, one kink
    code, out, err = run(capsys, "density", "--width", "5", "--steps", "1", "--trials", "3",
                         "--seed", "0", "--out", str(tmp_path / "odd"))
    assert code == 0, err
    assert (tmp_path / "odd.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--word", "01"),       # too short to step
        ("simulate", "--word", "012"),      # non-binary
        ("classify", "0a1"),                # non-binary
        ("preimage", "11", "--depth", "0"),  # bad depth
        ("preimage", "11", "--depth", str(MAX_DEPTH + 1)),  # depth above the bound
        ("density", "--width", "4", "--steps", "64"),  # width below floor
        ("simulate", "--word", "00000", "--steps", "3", "--render", "pbm"),  # dies at step 3
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    # every refusal comes before the first byte of stdout
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")


@pytest.mark.parametrize(
    "flags",
    [
        ("--steps", "-1"),
        ("--trials", "0"),
        ("--seed", "-1"),
        ("--seed", str(2**64)),
        ("--seed", "1.5"),
    ],
    ids=["negative-steps", "zero-trials", "negative-seed", "seed-too-large", "float-seed"],
)
def test_density_bad_run_parameters_exit_2(capsys, tmp_path, flags):
    prefix = str(tmp_path / "run")
    code, out, err = run(
        capsys, "density", "--width", "131", "--steps", "8", "--out", prefix, *flags
    )
    assert code == 2
    assert out == ""
    assert "required for" not in err  # not the width floor
    assert not (tmp_path / "run.csv").exists()


def run_python(script, env=None, **kwargs):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ if env is None else env, PYTHONPATH=path), timeout=60, **kwargs,
    )


REPORT_IMPORTS = (
    "sys.stdout.flush()\n"
    "print(json.dumps(['dataclasses' in sys.modules,"
    " os.environ.get('OPENBLAS_NUM_THREADS')]), file=sys.stderr)\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('kinklab.'))),"
    " file=sys.stderr)\n"
    "print('numpy' in sys.modules, file=sys.stderr)\n"
)


def run_fresh(*argv, **kwargs):
    """Run main(argv) in a new interpreter; its last stderr line tells whether
    numpy was imported, the line before lists the kinklab submodules loaded, and
    the one before that whether dataclasses was imported and OPENBLAS_NUM_THREADS."""
    script = (
        f"import json, os, sys\nfrom kinklab.cli import main\nrc = main({list(argv)!r})\n"
        f"{REPORT_IMPORTS}sys.exit(rc)\n"
    )
    return run_python(script, **kwargs)


def loaded_submodules(proc):
    return {m.removeprefix("kinklab.") for m in json.loads(proc.stderr.splitlines()[-2])}


def test_import_kinklab_loads_no_submodule():
    proc = run_python(f"import json, os, sys\nimport kinklab\n{REPORT_IMPORTS}")
    assert proc.returncode == 0, proc.stderr
    assert loaded_submodules(proc) == set()
    assert proc.stderr.splitlines()[-1] == "False"


# what `from kinklab import *` bound before the package loaded its submodules
# lazily: every public name and submodule but the CLI and the density lab
STAR_NAMES = [
    "CyclicConfig", "ExtensionFamily", "FiniteSupportConfig", "KinkOccurrence",
    "OracleReport", "OracleStatus", "PreimageSet", "R18", "R90",
    "StabilityClass", "TwoKinkDecomposition",
    "check_stable_extension", "classify_stability", "count_kinks",
    "count_kinks_cyclic", "count_kinks_packed", "dynamics", "enumerate_extensions",
    "errors", "find_kinks", "in_B", "in_P", "is_left_kink_word", "is_stable",
    "iterate_word", "kinks", "oracles", "preimage", "preimage_depth", "preimages",
    "rule18_local", "run_all", "step_cyclic", "step_cyclic_packed",
    "step_packed", "step_support", "step_word", "step_word_scalar",
    "two_kink_decompose", "wordclasses",
]


def test_star_import_binds_the_public_names_without_numpy():
    proc = run_python(
        "import json, sys\nns = {}\nexec('from kinklab import *', ns)\n"
        "print(json.dumps(sorted(set(ns) - {'__builtins__'})))\n"
        "print('numpy' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    names, numpy_loaded = proc.stdout.splitlines()
    assert json.loads(names) == STAR_NAMES
    assert numpy_loaded == "False"


# each command, and the kinklab submodules it must not load
COLD_COMMANDS = {
    "simulate": (("simulate", "--support", "1", "--steps", "3", "--render", "ascii"),
                 {"kinks", "wordclasses", "preimage", "oracles", "density"}),
    "classify": (("classify", "1101001"), {"preimage", "oracles"}),
    "preimage": (("preimage", "11", "--depth", "2"), {"oracles"}),
    "verify": (("verify", "--profile", "quick"), {"density"}),
    "density": (("density", "--width", "131", "--steps", "8", "--trials", "1"),
                {"oracles", "preimage"}),
}


@pytest.mark.parametrize("argv, not_loaded", COLD_COMMANDS.values(), ids=COLD_COMMANDS)
def test_commands_import_only_what_they_run(tmp_path, argv, not_loaded):
    proc = run_fresh(*argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = loaded_submodules(proc)
    assert "cli" in loaded
    assert not loaded & not_loaded, loaded & not_loaded


@pytest.mark.parametrize(
    "argv, preset",
    [*((argv, None) for argv, _ in COLD_COMMANDS.values()), (COLD_COMMANDS["density"][0], "3")],
    ids=[*COLD_COMMANDS, "density-blas-preset"],
)
def test_cold_start_without_dataclasses_and_with_one_blas_thread(tmp_path, argv, preset):
    # records are NamedTuples, and only density loads numpy, with one OpenBLAS
    # thread unless the user set OPENBLAS_NUM_THREADS
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = run_fresh(*argv, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    *_, report, _, numpy_loaded = proc.stderr.splitlines()
    density = argv[0] == "density"
    assert json.loads(report) == [False, preset or ("1" if density else None)]
    assert numpy_loaded == str(density)


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "1101001"),
        ("simulate", "--word", "0010101100101", "--steps", "3"),
        ("preimage", "11"),
        ("verify", "--profile", "quick"),
    ],
    ids=lambda argv: argv[0],
)
def test_commands_do_not_import_numpy(argv):
    proc = run_fresh(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False"


def test_density_command_imports_numpy(tmp_path):
    proc = run_fresh("density", "--width", "131", "--steps", "8", "--trials", "1",
                     "--out", str(tmp_path / "run"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "True"


def _limit_address_space(limit=1 << 30):
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_simulate_refuses_a_diagram_over_the_cell_cap():
    # 20,001 rows of 40,001 cells would exhaust a 1 GiB address space; the
    # cap refuses before any step, so the refusal is quick and prints nothing
    start = time.perf_counter()
    proc = run_fresh("simulate", "--support", "1", "--steps", "20000", "--render", "ascii",
                     preexec_fn=_limit_address_space)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert f"exceeds {MAX_DIAGRAM_CELLS} cells" in proc.stderr


def test_simulate_render_streams_its_rows():
    # the largest diagram the cap allows is 128 MB of ascii; written a row at a
    # time it fits in a 128 MiB address space, and fast
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "kinklab.cli", "simulate", "--support", "1",
         "--steps", "8000", "--render", "ascii"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
        preexec_fn=lambda: _limit_address_space(128 << 20),
    )
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "argv, cells",
    [
        (["--word", "0" * 12, "--steps", "5"], 6 * 12),
        (["--cyclic", "0" * 12, "--steps", "99"], 100 * 12),
        (["--support", "101", "--steps", "99"], 100 * (3 + 2 * 99)),
        (["--support", "000", "--steps", "99"], 100 * 1),
    ],
)
def test_simulate_cell_cap_counts_the_diagram(capsys, monkeypatch, argv, cells):
    # (steps + 1) rows of |w| cells, of the cycle's width, or of the light
    # cone's |s| + 2 steps (1 for the empty support)
    for cap, expected in ((cells, 0), (cells - 1, 2)):
        monkeypatch.setattr(cli, "MAX_DIAGRAM_CELLS", cap)
        code, out, _ = run(capsys, "simulate", *argv, "--render", "ascii")
        assert (code, out == "") == (expected, expected == 2)


def test_simulate_refuses_work_over_the_step_cap():
    # uncapped, 10,000,000 steps of --support 1 would run for hours; the cap
    # refuses before any step, so the refusal is quick and prints nothing
    start = time.perf_counter()
    proc = run_fresh("simulate", "--support", "1", "--steps", "10000000")
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert f"more than the {cli.MAX_SIMULATE_CELLS}" in proc.stderr


@pytest.mark.parametrize(
    "argv, cells",
    [
        (["--word", "0" * 12, "--steps", "5"], 5 * (12 + 64)),
        (["--cyclic", "0" * 12, "--steps", "99"], 99 * (12 + 64)),
        (["--support", "101", "--steps", "99"], 99 * (3 + 2 * 99 + 64)),
        (["--support", "000", "--steps", "99"], 99 * (1 + 64)),
    ],
)
def test_simulate_step_cap_counts_steps_by_width(capsys, monkeypatch, argv, cells):
    # steps x (width + 64): the width as the diagram cap counts it, and 64
    # cells more for each step's own cost
    for cap, expected in ((cells, 0), (cells - 1, 2)):
        monkeypatch.setattr(cli, "MAX_SIMULATE_CELLS", cap)
        code, out, _ = run(capsys, "simulate", *argv)
        assert (code, out == "") == (expected, expected == 2)


def test_simulate_step_cap_stops_support_1_at_23154_steps(capsys):
    # the boundary the README names, above the 20,000-step smoke run
    code, out, _ = run(capsys, "simulate", "--support", "1", "--steps", "23154")
    assert code == 0 and out.endswith(" @ -23154\n")
    code, out, _ = run(capsys, "simulate", "--support", "1", "--steps", "23155")
    assert (code, out) == (2, "")


def test_density_refuses_a_width_over_the_cap(tmp_path):
    # 2e9 cells would exhaust a 1 GiB address space in the density engine; the
    # cap refuses before numpy is imported
    start = time.perf_counter()
    proc = run_fresh("density", "--width", "2000000000", "--steps", "0", "--trials", "1",
                     cwd=tmp_path, preexec_fn=_limit_address_space)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert f"exceeds {cli.MAX_WIDTH} cells" in proc.stderr
    assert proc.stderr.splitlines()[-1] == "False"


def test_density_out_in_a_missing_directory_exit_2(capsys, tmp_path):
    missing = tmp_path / "missing" / "run"
    code, out, err = run(capsys, "density", "--width", "131", "--steps", "8",
                         "--trials", "1", "--out", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(missing) in err


def test_density_out_in_a_missing_directory_is_refused_before_the_run(tmp_path):
    # a run of minutes would fail only at its first write; the directory is
    # checked before the density engine is imported
    start = time.perf_counter()
    proc = run_fresh("density", "--width", "1048576", "--steps", "100000", "--trials", "4",
                     "--out", str(tmp_path / "missing" / "run"))
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "density" not in loaded_submodules(proc)


@pytest.mark.parametrize("depth", ["1"])
def test_preimage_refuses_exponential_output(depth):
    # 0^40 has 701,408,734 preimages: enumerating them would exhaust memory,
    # so the child runs under a 1 GiB address-space limit
    proc = run_fresh("preimage", "0" * 40, "--depth", depth,
                     preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "701408734 preimages" in proc.stderr


def test_preimage_refuses_output_over_the_cell_cap():
    # 4,096 preimages of 40,062 cells: few members, but 164 MB of output that
    # takes minutes to write; the cap counts cells, so the refusal is quick
    proc = run_fresh("preimage", "10001" * 12 + "10" * 20000,
                     preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert f"4096 preimages of 40062 cells make {4096 * 40062} cells" in proc.stderr


def test_preimage_writes_output_under_the_cell_cap(capsys):
    # 0^20 has 46,369 preimages of 22 cells, just under the cap
    assert count_preimages("0" * 20) * 22 <= cli.MAX_PREIMAGE_CELLS
    code, out, _ = run(capsys, "preimage", "0" * 20)
    assert code == 0
    assert out == json.dumps(list(preimages("0" * 20).members)) + "\n"


def test_preimage_depth_probe_ignores_preimage_count():
    # a deeper probe enumerates nothing, so 0^40 is answered, not refused,
    # under the same 1 GiB address-space limit
    proc = run_fresh("preimage", "0" * 40, "--depth", "2",
                     preexec_fn=_limit_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "true\n"


def test_preimage_refuses_depth_before_counting(capsys):
    # 0^40 is also refused for its preimage count: the depth bound is checked
    # first, so its message names the depth
    code, out, err = run(capsys, "preimage", "0" * 40, "--depth", str(MAX_DEPTH + 1))
    assert code == 2
    assert out == ""
    assert f"between 1 and {MAX_DEPTH}" in err and "preimages" not in err


def test_unknown_command_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
