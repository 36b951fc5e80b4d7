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
from kinklab.preimage import MAX_DEPTH

SRC = str(Path(kinklab.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_word(capsys):
    code, out, _ = run(capsys, "simulate", "--word", "0010101100101", "--steps", "3")
    assert code == 0
    assert out.strip() == "1001011"


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
def test_simulate_without_render_builds_no_diagram(capsys, monkeypatch, argv, expected):
    # a diagram costs a row per step; only --render prints one
    for name in ("spacetime_word", "spacetime_cyclic", "spacetime_support"):
        monkeypatch.setattr(dynamics, name, lambda *a: pytest.fail(f"built a diagram: {a}"))
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


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--word", "01"),       # too short to step
        ("simulate", "--word", "012"),      # non-binary
        ("classify", "0a1"),                # non-binary
        ("preimage", "11", "--depth", "0"),  # bad depth
        ("preimage", "11", "--depth", str(MAX_DEPTH + 1)),  # depth above the bound
        ("density", "--width", "4", "--steps", "64"),  # width below floor
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2


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


def run_python(script, **kwargs):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60, **kwargs,
    )


REPORT_IMPORTS = (
    "sys.stdout.flush()\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('kinklab.'))),"
    " file=sys.stderr)\n"
    "print('numpy' in sys.modules, file=sys.stderr)\n"
)


def run_fresh(*argv, **kwargs):
    """Run main(argv) in a new interpreter; its last stderr line tells whether
    numpy was imported, the line before lists the kinklab submodules loaded."""
    script = (
        f"import json, sys\nfrom kinklab.cli import main\nrc = main({list(argv)!r})\n"
        f"{REPORT_IMPORTS}sys.exit(rc)\n"
    )
    return run_python(script, **kwargs)


def loaded_submodules(proc):
    return {m.removeprefix("kinklab.") for m in json.loads(proc.stderr.splitlines()[-2])}


def test_import_kinklab_loads_no_submodule():
    proc = run_python(f"import json, sys\nimport kinklab\n{REPORT_IMPORTS}")
    assert proc.returncode == 0, proc.stderr
    assert loaded_submodules(proc) == set()
    assert proc.stderr.splitlines()[-1] == "False"


# what `from kinklab import *` bound before the package loaded its submodules
# lazily: every public name and submodule but the CLI and the density lab
STAR_NAMES = [
    "CyclicConfig", "ExtensionFamily", "FiniteSupportConfig", "KinkOccurrence",
    "OracleReport", "OracleStatus", "PreimageSet", "R18", "R90", "SpacetimeDiagram",
    "StabilityClass", "TwoKinkDecomposition",
    "check_stable_extension", "classify_stability", "count_kinks",
    "count_kinks_cyclic", "count_kinks_packed", "dynamics", "enumerate_extensions",
    "errors", "find_kinks", "in_B", "in_P", "is_left_kink_word", "is_stable",
    "iterate_word", "kinks", "oracles", "preimage", "preimage_depth", "preimages",
    "render_spacetime", "reverse", "rule18_local", "run_all", "step_cyclic",
    "step_cyclic_packed", "step_packed", "step_support", "step_word",
    "step_word_scalar", "two_kink_decompose", "two_kink_preimage", "unique_lift",
    "wordclasses",
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


@pytest.mark.parametrize(
    "argv, not_loaded",
    [
        (("simulate", "--support", "1", "--steps", "3", "--render", "ascii"),
         {"kinks", "wordclasses", "preimage", "oracles", "density"}),
        (("classify", "1101001"), {"preimage", "oracles"}),
        (("preimage", "11", "--depth", "2"), {"oracles"}),
        (("verify", "--profile", "quick"), {"density"}),
        (("density", "--width", "131", "--steps", "8", "--trials", "1"),
         {"oracles", "preimage"}),
    ],
    ids=["simulate", "classify", "preimage", "verify", "density"],
)
def test_commands_import_only_what_they_run(tmp_path, argv, not_loaded):
    proc = run_fresh(*argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = loaded_submodules(proc)
    assert "cli" in loaded
    assert not loaded & not_loaded, loaded & not_loaded


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


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


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


@pytest.mark.parametrize("depth", ["1"])
def test_preimage_refuses_exponential_output(depth):
    # 0^40 has 701,408,734 preimages: enumerating them would exhaust memory,
    # so the child runs under a 1 GiB address-space limit
    proc = run_fresh("preimage", "0" * 40, "--depth", depth,
                     preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "701408734 preimages" in proc.stderr


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
