import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import boolrg
from boolrg.cli import main
from boolrg.detector import anf_truncation
from boolrg.flow import flow_trace_from_csv
from boolrg.truth_table import Anf, anf_to_table, read_table, write_table
from boolrg.families import parity, planted_near_polynomial, random_table


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_flow_parity_densities(runner):
    res = invoke(runner, ["flow", "--family", "parity", "--n", "12", "--steps", "3", "--seed", "0"])
    assert res.exit_code == 0
    trace = flow_trace_from_csv(res.output)
    assert [float(d) for d in trace.densities()][:3] == [0.5, 1.0, 0.0]


def test_flow_random_has_analytic_column(runner):
    res = invoke(
        runner,
        ["flow", "--family", "random", "--p0", "0.25", "--n", "18", "--steps", "6", "--seed", "7"],
    )
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0].endswith(",analytic_density")
    import math

    from boolrg.flow import analytic_density

    for ell, line in enumerate(lines[1:]):
        cells = line.split(",")
        empirical = int(cells[3]) / int(cells[4])
        analytic = float(cells[5])
        assert analytic == analytic_density(0.25, ell)
        band = 4 * math.sqrt(analytic * (1 - analytic) / 2 ** (18 - ell)) + 1e-12
        assert abs(empirical - analytic) <= band


def test_flow_from_file_with_explicit_order(runner, tmp_path):
    path = tmp_path / "f.bfrg"
    write_table(parity(6), path)
    res = invoke(runner, ["flow", "--file", str(path), "--steps", "2", "--order", "3,1", "--seed", "0"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 4  # header + step 0 + two decimations
    assert lines[2].split(",")[2] == "3"
    assert lines[3].split(",")[2] == "1"


def test_flow_order_steps_mismatch(runner):
    res = runner.invoke(
        main, ["flow", "--family", "parity", "--n", "6", "--steps", "3", "--order", "1,2"]
    )
    assert res.exit_code != 0


def test_flow_bad_family_and_bad_file(runner, tmp_path):
    res = runner.invoke(main, ["flow", "--family", "nope", "--n", "4", "--steps", "1"])
    assert res.exit_code != 0
    bad = tmp_path / "bad.bfrg"
    bad.write_bytes(b"JUNK\n")
    res = runner.invoke(main, ["flow", "--file", str(bad), "--steps", "1", "--seed", "0"])
    assert res.exit_code != 0
    assert "bad table file" in res.output


def test_flow_arity_cap(runner):
    res = runner.invoke(main, ["flow", "--family", "parity", "--n", "30", "--steps", "2", "--seed", "0"])
    assert res.exit_code != 0


def test_classify_commands(runner):
    res = invoke(runner, ["classify", "--family", "mod_p", "--p", "3", "--n", "1000", "--seed", "0"])
    assert res.exit_code == 0
    assert json.loads(res.output)["label"] == "COMPOSITE_SUSPECT"

    res = invoke(runner, ["classify", "--family", "poly", "--xi", "3", "--n", "12", "--seed", "1"])
    rep = json.loads(res.output)
    assert res.exit_code == 0
    assert rep["label"] == "ANNIHILATED"
    assert rep["xi"] == 3

    res = invoke(runner, ["classify", "--family", "random", "--p0", "0.5", "--n", "16", "--seed", "2"])
    assert res.exit_code == 0
    assert json.loads(res.output)["label"] == "GENERIC"


def test_classify_exit_zero_even_when_unclassified(runner):
    res = invoke(runner, ["classify", "--family", "random", "--n", "6", "--p0", "0.3", "--seed", "5", "--burn-in", "4"])
    assert res.exit_code == 0


def test_detect_exit_codes(runner, tmp_path):
    plant = planted_near_polynomial(4, 1, 0.0, seed=3)
    flipped = plant.table ^ type(plant.table)(4, 1)  # flip output at index 0
    path = tmp_path / "plant.bfrg"
    write_table(flipped, path)
    res = invoke(runner, ["detect", "--file", str(path), "--method", "exhaustive", "--detect-xi", "1", "--seed", "0"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["meets_bound"] is True
    assert rep["remainder_num"] == 1 and rep["remainder_den"] == 16
    assert rep["witness_monomials"] == [list(t) for t in plant.polynomial.sorted_terms()]

    res = runner.invoke(
        main,
        ["detect", "--family", "random", "--n", "12", "--p0", "0.5", "--seed", "4", "--method", "sieve", "--detect-xi", "3"],
    )
    assert res.exit_code == 3

    res = runner.invoke(
        main,
        ["detect", "--family", "random", "--n", "20", "--seed", "4", "--method", "exhaustive", "--detect-xi", "3"],
    )
    assert res.exit_code == 4


def test_detect_exhaustive_n20_reports_fast(runner):
    # 2**21 candidates over 2**20 outputs: one Walsh-Hadamard transform
    start = time.perf_counter()
    res = invoke(
        runner,
        ["detect", "--family", "random", "--n", "20", "--detect-xi", "1", "--seed", "4", "--method", "exhaustive"],
    )
    assert time.perf_counter() - start < 1.0
    assert res.exit_code in (0, 3)
    rep = json.loads(res.output)
    t = random_table(20, 0.5, 4)
    witness = Anf(20, frozenset(frozenset(m) for m in rep["witness_monomials"]))
    dist = Fraction(rep["remainder_num"], rep["remainder_den"])
    assert dist == (t ^ anf_to_table(witness)).density()
    assert dist <= anf_truncation(t, 1).remainder_density


def test_detect_exhaustive_over_candidate_cap_exits_fast(runner):
    # n = 24, xi = 1: 2**25 candidates, one doubling past the cap
    start = time.perf_counter()
    res = invoke(
        runner,
        ["detect", "--family", "random", "--n", "24", "--detect-xi", "1", "--seed", "4", "--method", "exhaustive"],
    )
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 4
    # stdout and stderr interleaved (as click < 8.2 also gives them): the
    # capacity message alone, no JSON report on stdout
    assert res.output.splitlines() == [res.output.strip()]
    assert "candidate cap" in res.output and "{" not in res.output


def test_detect_below_arity_two_is_a_usage_error(runner):
    for n, method in itertools.product(("0", "1"), ("exhaustive", "truncate", "sieve")):
        res = runner.invoke(
            main,
            ["detect", "--family", "random", "--n", n, "--detect-xi", "0", "--seed", "4", "--method", method],
        )
        assert res.exit_code == 2
        # the CLI samples the sieve's orders first, and n = 0 has none
        assert "arity >= 2" in res.output or (method, n) == ("sieve", "0")


def test_count_csv(runner):
    res = invoke(runner, ["count", "--n", "64,256,1024", "--xi", "sqrt"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "n,xi,C,alpha,log2F,log2M,margin"
    assert len(lines) == 4
    margins = [float(line.split(",")[6]) for line in lines[1:]]
    assert margins[0] < 0 and margins[1] < margins[0] and margins[2] < margins[1]


def test_gen_round_trip(runner, tmp_path):
    path = tmp_path / "maj.bfrg"
    res = invoke(runner, ["gen", "--family", "majority", "--n", "9", "--seed", "0", "--out", str(path)])
    assert res.exit_code == 0
    from boolrg.families import majority

    assert read_table(path) == majority(9)


def test_sym_flow_csv_and_cycle_note(runner):
    res = invoke(runner, ["sym-flow", "--family", "mod_p", "--n", "999", "--p", "3", "--steps", "10"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert "residue cycle: start=1 period=3" in lines[0]
    header_idx = next(i for i, l in enumerate(lines) if l.startswith("step,"))
    assert lines[header_idx] == "step,remaining_arity,decimated_var,density_real"
    first = lines[header_idx + 2].split(",")
    assert first[2] == "SYMMETRIC"
    assert abs(float(first[3]) - 2 / 3) < 0.01


def test_parity_above_exact_arity(runner):
    # one step leaves the all-ones function, whose float density must not pass 1
    res = invoke(runner, ["sym-flow", "--family", "parity", "--n", "4132", "--steps", "2"])
    assert res.exit_code == 0
    assert [line.split(",")[3] for line in res.output.strip().splitlines()[-2:]] == ["1.0", "0.0"]

    res = invoke(runner, ["classify", "--family", "parity", "--n", "4132", "--engine", "symmetric", "--seed", "0"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert (rep["label"], rep["xi"]) == ("ANNIHILATED", 1)


def test_seed_echoed_when_omitted(runner):
    res = invoke(runner, ["flow", "--family", "random", "--n", "8", "--steps", "2"])
    assert res.exit_code == 0
    assert "seed=" in res.output


def test_deterministic_given_seed(runner):
    args = ["flow", "--family", "random", "--n", "10", "--p0", "0.4", "--steps", "4", "--seed", "11"]
    assert invoke(runner, args).output == invoke(runner, args).output

    args = ["classify", "--family", "random", "--n", "12", "--seed", "11"]
    assert invoke(runner, args).output == invoke(runner, args).output


def test_flow_json_output(runner):
    res = invoke(runner, ["flow", "--family", "parity", "--n", "8", "--steps", "2", "--seed", "0", "--json"])
    obj = json.loads(res.output)
    assert obj["start_arity"] == 8
    assert len(obj["steps"]) == 2


def test_out_file_option(runner, tmp_path):
    out = tmp_path / "trace.csv"
    res = invoke(runner, ["flow", "--family", "parity", "--n", "8", "--steps", "2", "--seed", "0", "--out", str(out)])
    assert res.exit_code == 0
    trace = flow_trace_from_csv(out.read_text())
    assert trace.start_arity == 8


def test_cli_import_leaves_mpmath_out():
    # counting imports mpmath on first use, so start-up does not pay for it
    code = (
        "import sys, boolrg.cli\n"
        "before = 'mpmath' in sys.modules\n"
        "boolrg.counting.log2_comb(10**6, 3)\n"
        "print(before, 'mpmath' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(boolrg.__file__).resolve().parents[1])}
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert res.stdout.split() == ["False", "True"]
