import json
from math import comb

import pytest

from bergeham import cli, harness
from bergeham.cli import main
from bergeham.fixtures import case1_fixture
from bergeham.hypercore import Coloring


def run(*argv):
    return main(list(argv))


def test_gen_and_search_found(tmp_path, capsys):
    path = tmp_path / "uniform.txt"
    assert run("gen", "--scheme", "uniform", "--n", "5", "--r", "4", "--k", "1",
               "--out", str(path)) == 0
    coloring = Coloring.from_text(path.read_text())
    assert coloring.params.n == 5
    capsys.readouterr()
    assert run("search", str(path)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "found"
    assert out["color"] == 1


def test_search_not_found_exit_code(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("4 4 2\n1\n")
    assert run("search", str(path)) == 1


def test_verify_roundtrip(tmp_path, capsys):
    coloring_path = tmp_path / "c.txt"
    coloring_path.write_text("4 3 1\n1 1 1 1\n")
    cycle_path = tmp_path / "cycle.txt"
    cycle_path.write_text("0 1 2 3\n0 3 2 1\n1\n")
    assert run("verify", str(coloring_path), str(cycle_path)) == 0
    assert "valid" in capsys.readouterr().out
    bad_path = tmp_path / "bad.txt"
    bad_path.write_text("0 1 2 3\n0 3 2 3\n1\n")
    assert run("verify", str(coloring_path), str(bad_path)) == 1
    assert "duplicate edge" in capsys.readouterr().out


def test_verify_wrong_length_is_invalid(tmp_path, capsys):
    coloring_path = tmp_path / "c.txt"
    coloring_path.write_text("4 3 1\n1 1 1 1\n")
    cycle_path = tmp_path / "short.txt"
    cycle_path.write_text("0 1 2\n0 3 2\n1\n")
    assert run("verify", str(coloring_path), str(cycle_path)) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("invalid: ")


def test_exhaust_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = run("exhaust", "--n", "5", "--r", "4", "--k", "3",
               "--shards", "4", "--out", str(out_path))
    assert code == 1  # failures exist
    report = json.loads(out_path.read_text())
    assert report["total"] == 243
    assert report["success"] == 3
    assert "total 243  success 3  failure 240" in capsys.readouterr().out
    assert run("exhaust", "--n", "4", "--r", "3", "--k", "1") == 0


def test_exhaust_infeasible_exit_code(capsys, monkeypatch):
    # (5,3,3)'s walk spends 4 004 units, one past this budget
    monkeypatch.setattr(harness, "SWEEP_BUDGET", 4003)
    assert run("exhaust", "--n", "5", "--r", "3", "--k", "3") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("infeasible: a (5,3,3) sweep shard passed the 4003-unit")


def test_exhaust_cap_refused_before_the_power(capsys):
    # past n = 7 a sweep keeps the coloring cap, decided without building
    # 3^4498500 or any table
    assert run("exhaust", "--n", "3000", "--r", "2", "--k", "3") == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["infeasible: 3^4498500 colorings exceed the 5000000-coloring cap "
                   "on sweeps with n > 7; narrow the parameters"]


@pytest.mark.parametrize("shape", [(9, 3, 2), (12, 3, 2), (46, 2, 2)])
def test_exhaust_large_n_refused_at_once(capsys, monkeypatch, shape):
    # a decider call may try (n-1)!/2 cores, so past n = 7 the cap refuses
    # these before any mask table is built or any walk starts
    def no_table(n, r):
        raise AssertionError("a mask table was built")

    monkeypatch.setattr(harness, "_vertex_masks", no_table)
    n, r, k = map(str, shape)
    assert run("exhaust", "--n", n, "--r", r, "--k", k) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"infeasible: 2^{comb(*shape[:2])} colorings exceed")


@pytest.mark.parametrize("flag, value", [("--shards", "1000000000"), ("--workers", "0")])
def test_exhaust_bad_shards_or_workers_exit_code(capsys, flag, value):
    assert run("exhaust", "--n", "4", "--r", "3", "--k", "1", flag, value) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("infeasible: ")


def test_construct_with_bundle_dump(tmp_path, capsys):
    path = tmp_path / "case1.txt"
    path.write_text(case1_fixture().to_text())
    bundle_path = tmp_path / "bundle.json"
    assert run("construct", str(path), "--dump-bundle", str(bundle_path)) == 0
    out = capsys.readouterr().out
    assert "found color 4" in out
    blob = json.loads(bundle_path.read_text())
    assert blob["case"] == 1
    assert blob["reserved"]


def test_construct_gamma_failure_is_one_line(tmp_path, capsys):
    # r = 3 leaves case 2 no middle part for the U vertices past floor(n/2)+1
    path = tmp_path / "seed45.txt"
    assert run("gen", "--scheme", "random", "--n", "8", "--r", "3", "--k", "2",
               "--seed", "45", "--out", str(path)) == 0
    capsys.readouterr()
    assert run("construct", str(path), "--d-bound", "0", "--good-threshold", "2") == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("not found (stage: gamma)")


def test_construct_bad_degree_bound_is_one_error_line(tmp_path, capsys):
    # a negative bound once ran the pipeline and failed at the gamma stage
    path = tmp_path / "seed45.txt"
    assert run("gen", "--scheme", "random", "--n", "8", "--r", "3", "--k", "2",
               "--seed", "45", "--out", str(path)) == 0
    capsys.readouterr()
    assert run("construct", str(path), "--d-bound", "-5") == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: d_bound")


def test_closure_output(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    graph_path.write_text("4\n0 1\n1 2\n2 3\n3 0\n1 3\n")  # K4 minus {0,2}
    assert run("closure", str(graph_path)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "4"
    assert len(lines) == 7  # closed to K4: 6 edges


def test_error_paths_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("5 3\n1 1\n")
    too_big = tmp_path / "too_big.txt"
    too_big.write_text("4 3 2\n1 300 1 1\n")
    square = tmp_path / "square.txt"
    square.write_text("4 3 1\n1 1 1 1\n")
    out = tmp_path / "gen.txt"
    gen = ("gen", "--n", "5", "--r", "3", "--k", "2", "--out", str(out))
    for argv in [
        ("search", str(missing)),
        ("search", str(garbled)),
        ("search", str(too_big)),
        ("search", str(square), "--budget", "-5"),
        gen + ("--scheme", "uniform", "--color", "9"),
        gen + ("--scheme", "digits", "--digits", "39"),
    ]:
        assert run(*argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), argv
    assert not out.exists()


@pytest.mark.parametrize("err", [MemoryError(), MemoryError("Unable to allocate 1.00 TiB")])
def test_gen_out_of_memory_is_one_line(tmp_path, capsys, monkeypatch, err):
    # C(40, 20) colors do not fit in memory: list and numpy allocations both
    # raise a MemoryError
    def gen_coloring(*args, **kwargs):
        raise err

    monkeypatch.setattr(cli, "gen_coloring", gen_coloring)
    out = tmp_path / "x.txt"
    assert run("gen", "--scheme", "uniform", "--n", "40", "--r", "20", "--k", "1",
               "--out", str(out)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory")
    assert not out.exists()


def test_exhaust_past_the_recursion_limit_is_one_line(capsys):
    # the exact decider's distinct-representative search recurses once per
    # vertex, so a k = 1 sweep at n = 1000 passes Python's recursion limit
    try:
        assert run("exhaust", "--n", "1000", "--r", "2", "--k", "1") == 2
    finally:
        harness._vertex_masks.cache_clear()  # about 60 MB of (1000, 2) masks
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: recursion too deep")


def test_content_past_the_documented_lines_is_one_error_line(tmp_path, capsys):
    coloring_path = tmp_path / "c.txt"
    coloring_path.write_text("4 3 1\n1 1 1 1\n2 2 2\n")
    cycle_path = tmp_path / "cycle.txt"
    cycle_path.write_text("0 1 2 3\n0 3 2 1\n1\nzzz\n")
    good = tmp_path / "good.txt"
    good.write_text("4 3 1\n1 1 1 1\n")
    for argv in [("search", str(coloring_path)), ("verify", str(good), str(cycle_path))]:
        assert run(*argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), argv
        assert "past its color line" in err[0], argv


def test_trailing_blank_lines_still_load(tmp_path, capsys):
    coloring = case1_fixture()
    assert Coloring.from_text(coloring.to_text()) == coloring
    assert Coloring.from_text(coloring.to_text() + "\n \t\n") == coloring
    coloring_path = tmp_path / "c.txt"
    coloring_path.write_text("4 3 1\n1 1 1 1\n\n")
    cycle_path = tmp_path / "cycle.txt"
    cycle_path.write_text("\n0 1 2 3\n\n0 3 2 1\n1\n\n")
    assert run("verify", str(coloring_path), str(cycle_path)) == 0
    assert capsys.readouterr().out == "valid\n"
