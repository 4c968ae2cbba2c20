import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochsubmax
from stochsubmax import cli, constraints, greedy, lp
from stochsubmax.cli import main
from stochsubmax.generators import (
    partition_demo_instance,
    random_instance,
    symmetric_pair_instance,
)
from stochsubmax.lattice import WeightedModular
from stochsubmax.model import Instance, ItemModel, instance_to_json, save_instance


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    save_instance(symmetric_pair_instance(), path)
    return path


def test_validate_ok(pair_file, capsys):
    assert main(["validate", "--instance", str(pair_file)]) == 0
    assert "instance is valid" in capsys.readouterr().out


def test_validate_flags_decreasing_costs(tmp_path, capsys):
    inst = Instance(
        n=1, B=2, budget=4,
        items=(ItemModel(probs=(0.5, 0.5), costs=(2, 1)),),
        outer=constraints.cardinality(1, 1),
        utility=WeightedModular(weights=(1.0,)),
    )
    path = tmp_path / "bad.json"
    save_instance(inst, path)
    assert main(["validate", "--instance", str(path)]) == 1
    assert "nondecreasing" in capsys.readouterr().out


def test_validate_runs_utility_checkers_quietly(tmp_path, capsys):
    # built-in families always pass the desk-scale checkers; validate must run
    # them without emitting the skip note on a small instance
    path = tmp_path / "ok.json"
    save_instance(symmetric_pair_instance(), path)
    assert main(["validate", "--instance", str(path)]) == 0
    assert "skipped" not in capsys.readouterr().out


def test_validate_truncated_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2, "B": 2', encoding="utf-8")
    assert main(["validate", "--instance", str(path)]) == 2


def test_validate_missing_file(tmp_path):
    assert main(["validate", "--instance", str(tmp_path / "nope.json")]) == 2


def test_solve_writes_solution_and_certification(pair_file, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "solve", "--instance", str(pair_file), "--steps", "10",
        "--grad-samples", "300", "--out", str(out), "--dump-lp",
    ])
    assert rc == 0
    cert = json.loads((out / "certification.json").read_text())
    assert cert["passed"] is True
    sol = json.loads((out / "solution.json").read_text())
    assert sol["meta"]["l"] == 0.25
    assert (out / "lp.txt").exists()


EXPLICIT_KIND = "outer.kind must be cardinality or partition, got 'explicit'"


def _explicit_file(tmp_path):
    """The pair instance with an outer family of the deleted explicit kind."""
    doc = json.loads(instance_to_json(symmetric_pair_instance()))
    doc["outer"] = {"kind": "explicit", "maximal": [[1], [2]]}
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_solve_refuses_explicit_outer(tmp_path, capsys):
    # an outer kind without a hull has no slot program, so the load rejects it by name
    path = _explicit_file(tmp_path)
    assert main(["validate", "--instance", str(path)]) == 1
    assert EXPLICIT_KIND in capsys.readouterr().err
    out = tmp_path / "o"
    assert main(["solve", "--instance", str(path), "--out", str(out)]) == 1
    assert EXPLICIT_KIND in capsys.readouterr().err
    assert not (out / "solution.json").exists()


def test_ratio_refuses_explicit_outer(tmp_path, capsys):
    path = _explicit_file(tmp_path)
    assert main(["ratio", "--instance", str(path), "--runs", "200"]) == 1
    assert EXPLICIT_KIND in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "ratio"])
@pytest.mark.parametrize("family", ["modular", "coverage", "concave"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_no_grad_samples_exit_1_for_exact_gain_families(tmp_path, capsys, command, family,
                                                         samples):
    # these families' gains are exact and never sampled at this size (the
    # concave family enumerates the joint levels of at most 4 items), yet a
    # request for no samples is still bad input
    inst = random_instance(3, n_max=4, kinds=("cardinality",), families=(family,))
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    out = tmp_path / "o"
    argv = [command, "--instance", str(path), "--grad-samples", samples]
    if command == "solve":
        argv += ["--out", str(out)]
    assert main(argv) == 1
    assert "grad_samples must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "ratio"])
@pytest.mark.parametrize("runs", ["1", "0"])
def test_fewer_than_two_runs_exit_1_before_any_solve(pair_file, tmp_path, capsys, monkeypatch,
                                                     command, runs):
    # a mean of one run has no standard error; the flag is refused up front,
    # before the oracle, the greedy or a simulation runs
    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran")

    for module, name in ((cli.oracle, "optimal_policy_value"),
                         (greedy, "run_continuous_greedy"), (cli.policy, "simulate_batch")):
        monkeypatch.setattr(module, name, refuse)
    out = tmp_path / "o"
    argv = [command, "--instance", str(pair_file), "--runs", runs]
    if command == "simulate":
        argv += ["--solution", str(tmp_path / "solution.json"), "--out", str(out)]
    assert main(argv) == 1
    assert f"runs must be at least 2, got {runs}" in capsys.readouterr().err
    assert not out.exists()


def test_solve_reports_lp_certificate_failure(pair_file, tmp_path, monkeypatch, capsys):
    # a simplex that stops at the origin: feasible, but the duality gap names a column
    def origin(obj, A, b):
        nv, m = len(obj), len(b)
        return lp.LpSolution(np.zeros(nv), 0.0, 0, np.arange(nv, nv + m))

    monkeypatch.setattr(lp, "simplex_max", origin)
    rc = main(["solve", "--instance", str(pair_file), "--steps", "2",
               "--grad-samples", "100", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "fails its duality gap check at (" in capsys.readouterr().err


def test_simulate_outputs_csvs(pair_file, tmp_path):
    out = tmp_path / "out"
    main([
        "solve", "--instance", str(pair_file), "--steps", "10",
        "--grad-samples", "300", "--out", str(out),
    ])
    sim = tmp_path / "sim"
    rc = main([
        "simulate", "--instance", str(pair_file),
        "--solution", str(out / "solution.json"),
        "--runs", "2000", "--out", str(sim),
    ])
    assert rc == 0
    summary = (sim / "summary.csv").read_text().splitlines()
    assert summary[0] == (
        "runs,mean_utility,se,inner_violations,outer_violations,adaptivity_violations"
    )
    fields = summary[1].split(",")
    assert fields[0] == "2000"
    assert fields[3] == "0" and fields[4] == "0"
    assert (sim / "gamma.csv").read_text().splitlines()[0] == "item,gamma,se,trials,status"
    assert (sim / "alpha.csv").read_text().splitlines()[0] == (
        "item,state,mapping,alpha,se,trials,status"
    )


def test_simulate_is_deterministic(pair_file, tmp_path):
    out = tmp_path / "out"
    main([
        "solve", "--instance", str(pair_file), "--steps", "8",
        "--grad-samples", "200", "--out", str(out),
    ])
    blobs = []
    for name in ("a", "b"):
        sim = tmp_path / name
        main([
            "simulate", "--instance", str(pair_file),
            "--solution", str(out / "solution.json"),
            "--runs", "1500", "--seed", "7", "--out", str(sim),
        ])
        blobs.append(tuple((sim / f).read_text() for f in
                           ("summary.csv", "gamma.csv", "alpha.csv")))
    assert blobs[0] == blobs[1]


def test_ratio_passes_on_demo(pair_file, capsys):
    rc = main([
        "ratio", "--instance", str(pair_file), "--steps", "10",
        "--grad-samples", "400", "--runs", "3000",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("PASS")
    assert "bound=" in out and "opt=3.0" in out


# argv[1] is a scratch directory. Importing the package loads no scipy module;
# with every scipy import then made to fail, the four commands run on the pair
# demo, and the exit codes and any scipy module loaded are printed.
WITHOUT_SCIPY = """
import sys
from pathlib import Path

import stochsubmax
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "import loads scipy"
sys.modules["scipy"] = None  # from here on, importing scipy or a submodule raises
from stochsubmax import cli
from stochsubmax.generators import symmetric_pair_instance
from stochsubmax.model import save_instance

tmp = Path(sys.argv[1])
pair, out = str(tmp / "pair.json"), tmp / "solved"
save_instance(symmetric_pair_instance(), pair)
solver = ["--steps", "10", "--grad-samples", "400", "--seed", "1"]
codes = [
    cli.main(["validate", "--instance", pair]),
    cli.main(["solve", "--instance", pair, *solver, "--out", str(out)]),
    cli.main(["simulate", "--instance", pair, "--solution", str(out / "solution.json"),
              "--runs", "2000", "--seed", "1", "--out", str(tmp / "sim")]),
    cli.main(["ratio", "--instance", pair, *solver, "--runs", "3000"]),
]
print(codes, [m for m in sys.modules if m.startswith("scipy.")])
"""


def test_cli_runs_without_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(stochsubmax.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[0, 0, 0, 0] []", run.stdout + run.stderr


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False


# Page faults of 9 rounds, after a first one, that each allocate four 2 MiB
# arrays together and free them; argv[1] == "1" imports the package first.
FAULT_PROBE = """
import resource, sys
import numpy as np
if sys.argv[1] == "1":
    import stochsubmax
faults = []
for _ in range(10):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 18) for _ in range(4)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(sum(faults[1:]))
"""


@pytest.mark.skipif(not _glibc(), reason="glibc malloc only")
def test_import_leaves_the_allocator_alone():
    # by glibc's default the freed 8 MiB exceed the trim threshold and go back to
    # the system, so every round faults its 2048 pages in afresh, whether or not
    # the package was imported
    env = dict(os.environ, PYTHONPATH=str(Path(stochsubmax.__file__).parents[1]))
    for flag in ("0", "1"):
        out = subprocess.run([sys.executable, "-c", FAULT_PROBE, flag],
                             capture_output=True, text=True, check=True, env=env)
        assert int(out.stdout) > 9 * 1024, (flag, out.stdout)


def test_ratio_trivial_single_item(tmp_path, capsys):
    from stochsubmax.generators import single_item_instance

    path = tmp_path / "single.json"
    save_instance(single_item_instance(), path)
    rc = main([
        "ratio", "--instance", str(path), "--steps", "10",
        "--grad-samples", "200", "--runs", "1000",
    ])
    assert rc == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_ratio_refuses_oversized(tmp_path, capsys):
    """n = 9 at B = 3 is over the exact oracle's state guard: ``ratio`` exits 1
    naming (B+1)^n and the guard; n = 6 and 7 at B = 3 are in reach and solve."""
    seed = 1
    inst = random_instance(seed, n_max=9, B_max=3, budget_max=10, kinds=("cardinality",))
    while (inst.n, inst.B) != (9, 3):
        seed += 1
        inst = random_instance(seed, n_max=9, B_max=3, budget_max=10, kinds=("cardinality",))
    path = tmp_path / "big.json"
    save_instance(inst, path)
    assert main(["ratio", "--instance", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"(B+1)^n = {4**9}" in err and str(4**8) in err, err
    for n in (6, 7):
        while (inst.n, inst.B) != (n, 3):
            seed += 1
            inst = random_instance(seed, n_max=9, B_max=3, budget_max=10,
                                   kinds=("cardinality",))
        save_instance(inst, path)
        assert main(["ratio", "--instance", str(path), "--steps", "10",
                     "--grad-samples", "200", "--runs", "1000"]) == 0
        assert capsys.readouterr().out.startswith("PASS")


def test_bad_config_values_fail_cleanly(pair_file):
    assert main(["solve", "--instance", str(pair_file), "--beta", "1.5"]) == 1
    assert main(["solve", "--instance", str(pair_file), "--steps", "0"]) == 1
    assert main([
        "ratio", "--instance", str(pair_file), "--runs", "0",
    ]) == 1


@pytest.mark.parametrize("command", [
    ["validate"], ["solve"], ["simulate", "--solution", "solution.json"], ["ratio"],
])
def test_workers_flag_is_a_usage_error(pair_file, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--instance", str(pair_file), "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_partition_instance_pipeline(tmp_path):
    path = tmp_path / "partition.json"
    save_instance(partition_demo_instance(), path)
    out = tmp_path / "out"
    assert main([
        "solve", "--instance", str(path), "--steps", "10",
        "--grad-samples", "300", "--out", str(out),
    ]) == 0
    assert main([
        "simulate", "--instance", str(path),
        "--solution", str(out / "solution.json"),
        "--runs", "1000", "--out", str(tmp_path / "sim"),
    ]) == 0


@pytest.mark.parametrize("field,value", [("cost", 1.7), ("budget", 5.9)])
def test_non_integral_input_exits_1(pair_file, tmp_path, capsys, field, value):
    doc = json.loads(pair_file.read_text())
    if field == "cost":
        doc["items"][0]["costs"][0] = value
    else:
        doc["budget"] = value
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--instance", str(path)]) == 1
    assert "must be an integer" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["solve", "--instance", str(path), "--out", str(out)]) == 1
    assert not (out / "solution.json").exists()


def test_nan_probability_exits_1(pair_file, tmp_path, capsys):
    doc = json.loads(pair_file.read_text())
    doc["items"][1]["probs"][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--instance", str(path)]) == 1
    assert "non-finite state probability" in capsys.readouterr().out
    assert main(["solve", "--instance", str(path), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("blocks,named", [
    ([[1, 2], [2, 3]], "item 2 is in blocks[0] and blocks[1]"),
    ([[1, 1, 2], [3]], "item 1 is in blocks[0] twice"),
    ([[1, 2], [4]], "outer.blocks[1][0] must lie in 1..3, got 4"),
    ([[0, 1, 2], [3]], "outer.blocks[0][0] must lie in 1..3, got 0"),
])
def test_partition_with_a_bad_item_id_exits_1_naming_it(tmp_path, capsys, blocks, named):
    # a repeated id loads and fails validation; an id outside 1..n fails the load
    doc = json.loads(instance_to_json(partition_demo_instance()))
    doc["outer"]["blocks"] = blocks
    path = tmp_path / "bad-partition.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert named in captured.out + captured.err
    out = tmp_path / "out"
    assert main(["solve", "--instance", str(path), "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not (out / "solution.json").exists()


@pytest.mark.parametrize("outer,named", [
    ({"kind": "matroid", "k": 1}, "outer.kind must be cardinality or partition, got 'matroid'"),
])
def test_bad_outer_kind_or_explicit_id_exits_1_naming_it(tmp_path, capsys, outer, named):
    # both fail the load, before any validation, in validate and in solve alike
    doc = json.loads(instance_to_json(partition_demo_instance()))
    doc["outer"] = outer
    path = tmp_path / "bad-outer.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert named in captured.out + captured.err
    out = tmp_path / "out"
    assert main(["solve", "--instance", str(path), "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not (out / "solution.json").exists()


@pytest.fixture
def solved_pair(pair_file, tmp_path):
    """The pair instance file and the path of a solution solved on it."""
    assert main(["solve", "--instance", str(pair_file), "--steps", "4",
                 "--grad-samples", "100", "--out", str(tmp_path / "o")]) == 0
    return pair_file, tmp_path / "o" / "solution.json"


# an item outside 1..n is the solution's own check, which names the item
@pytest.mark.parametrize("key,value,named", [
    ("t", 2.5, "x[0].t"), ("i", 1.5, "x[0].i"), ("t", "3", "x[0].t"),
    ("i", 9, "solution item 9 is outside 1..2"),
], ids=["t-2.5", "i-1.5", "t-3", "i-9"])
def test_simulate_rejects_invalid_solution_entry_with_exit_1(solved_pair, tmp_path, capsys,
                                                             key, value, named):
    pair_file, solution = solved_pair
    doc = json.loads(solution.read_text())
    doc["x"][0][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["simulate", "--instance", str(pair_file), "--solution", str(bad),
                 "--runs", "100", "--out", str(tmp_path / "sim")]) == 1
    err = capsys.readouterr().err
    assert "invalid solution file" in err and named in err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("mutate,message", [
    # a second entry for item 1 at another slot: two slots for one item
    (lambda doc: doc["x"].append(dict(doc["x"][0], t=doc["x"][0]["t"] - 1)),
     "item 1 has more than one slot entry"),
    # slot 5 lies past item 1's slot count on the pair instance
    (lambda doc: doc["x"][0].update(t=5), "item 1 has slot 5, out of slot range"),
])
def test_simulate_rejects_solution_breaking_the_slot_rules_with_exit_1(
    solved_pair, tmp_path, capsys, mutate, message
):
    pair_file, solution = solved_pair
    doc = json.loads(solution.read_text())
    assert doc["x"][0]["i"] == 1 and doc["x"][0]["t"] > 1
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["simulate", "--instance", str(pair_file), "--solution", str(bad),
                 "--runs", "100", "--out", str(tmp_path / "sim")]) == 1
    err = capsys.readouterr().err
    assert "invalid solution file" in err and message in err
    assert not (tmp_path / "sim").exists()


def test_simulate_rejects_non_integral_meta_with_exit_1(solved_pair, tmp_path, capsys):
    pair_file, solution = solved_pair
    doc = json.loads(solution.read_text())
    doc["meta"]["n"] = 2.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "--instance", str(pair_file), "--solution", str(bad),
                 "--runs", "100", "--out", str(tmp_path / "sim")]) == 1
    assert "meta.n must be an integer" in capsys.readouterr().err


def test_simulate_malformed_or_missing_solution_exits_2(solved_pair, tmp_path):
    pair_file, solution = solved_pair
    truncated = tmp_path / "truncated.json"
    truncated.write_text(solution.read_text()[:40], encoding="utf-8")
    no_meta = tmp_path / "no_meta.json"
    no_meta.write_text(json.dumps({"x": []}), encoding="utf-8")
    for path in (truncated, no_meta, tmp_path / "nope.json"):
        assert main(["simulate", "--instance", str(pair_file), "--solution", str(path),
                     "--runs", "100", "--out", str(tmp_path / "sim")]) == 2


def test_main_builds_its_parser_once(pair_file, monkeypatch):
    cli._parser.cache_clear()
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    try:
        assert main(["solve", "--instance", str(pair_file), "--beta", "1.5"]) == 1
        assert main(["validate", "--instance", str(pair_file)]) == 0
        assert main(["validate", "--instance", str(pair_file)]) == 0
        assert len(built) == 1
        # a reused parser leaves no option of one call in the next
        first = cli._parser().parse_args(["solve", "--instance", "a", "--dump-lp", "--seed", "3"])
        second = cli._parser().parse_args(["solve", "--instance", "b"])
        assert (first.dump_lp, first.seed) == (True, 3)
        assert (second.dump_lp, second.seed, second.instance) == (False, 0, "b")
    finally:
        cli._parser.cache_clear()


EDGE_CASES = ("B = 1", "k = 0", "no item has a slot", "a top cost equals the budget")


@st.composite
def edge_instances(draw, case):
    """Small modular instances with the edge feature ``case``; item 0 has a slot unless none does."""
    n = draw(st.integers(2, 4))
    B = 1 if case == "B = 1" else draw(st.integers(1, 3))
    budget = draw(st.integers(2, 6))
    if case == "no item has a slot":
        tops = [draw(st.integers(budget, budget + 2)) for _ in range(n)]
    else:
        tops = [draw(st.integers(1, budget - 1)) for _ in range(n)]
    if case == "a top cost equals the budget":
        for i in draw(st.sets(st.integers(1, n - 1), min_size=1)):
            tops[i] = budget
    items = []
    for top in tops:
        costs = sorted(draw(st.lists(st.integers(1, top), min_size=B, max_size=B)))
        weights = draw(st.lists(st.integers(1, 4), min_size=B, max_size=B))
        items.append(ItemModel(probs=tuple(w / sum(weights) for w in weights),
                               costs=(*costs[:-1], top)))
    k = 0 if case == "k = 0" else draw(st.integers(1, n))
    utility = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return Instance(n=n, B=B, budget=budget, items=tuple(items),
                    outer=constraints.cardinality(n, k),
                    utility=WeightedModular(weights=tuple(float(w) for w in utility)))


@pytest.mark.parametrize("case", EDGE_CASES)
@settings(max_examples=25)
@given(data=st.data())
def test_edge_cases_certify_and_simulate_without_violations(case, data):
    inst = data.draw(edge_instances(case))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(greedy, "solve_lp", wraps=greedy.solve_lp) as lp_calls:
        tmp = Path(tmp)
        save_instance(inst, tmp / "inst.json")
        assert main(["solve", "--instance", str(tmp / "inst.json"), "--steps", "4",
                     "--grad-samples", "100", "--out", str(tmp / "o")]) == 0
        assert json.loads((tmp / "o" / "certification.json").read_text())["passed"]
        # with no variables at all the greedy solves no LP; modular gains do not
        # depend on x, so the first step's answer serves all four steps
        assert lp_calls.call_count == (0 if case == "no item has a slot" else 1)
        assert main(["simulate", "--instance", str(tmp / "inst.json"),
                     "--solution", str(tmp / "o" / "solution.json"),
                     "--runs", "300", "--out", str(tmp / "sim")]) == 0
        fields = (tmp / "sim" / "summary.csv").read_text().splitlines()[1].split(",")
    assert fields[0] == "300" and fields[3:] == ["0", "0", "0"]
