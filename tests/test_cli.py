import io
import json
import os
import subprocess
import sys

import pytest

import dichroma
from dichroma import claims, solver
from dichroma.cli import main
from dichroma.reductions import CnfFormula, single_face_embedding

TRIANGLE_D6 = "&BP_"

FULL_CLAIMS = [
    "st11-dichromatic-4",
    "st11-4-dicritical",
    "tournaments-6-2-dicolourable",
    "census-6-3-empty",
    "census-7-3-min-20-unique",
    "stearns-tournaments",
    "stearns-tournaments-8",
    "circulant-13-no-tt5",
    "surface-bounds-table",
    "cactus-suite",
    "cactus-suite-500",
    "census-dicritical-gallai",
    "reduction-digon-equivalence",
    "reduction-digon-equivalence-50",
    "reduction-oriented-equivalence",
    "reduction-oriented-equivalence-20",
    "solver-oracle",
    "solver-oracle-200",
]
FULL_ONLY = {
    "stearns-tournaments-8",
    "cactus-suite-500",
    "reduction-digon-equivalence-50",
    "reduction-oriented-equivalence-20",
    "solver-oracle-200",
}
QUICK_CLAIMS = [s for s in FULL_CLAIMS if s not in FULL_ONLY]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dichi_from_file(tmp_path, capsys):
    path = tmp_path / "tri.d6"
    path.write_text(TRIANGLE_D6 + "\n")
    code, out, _ = run_cli(capsys, "dichi", str(path))
    assert code == 0
    assert out.splitlines()[0] == "k=2"


def test_dichi_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(TRIANGLE_D6 + "\n"))
    code, out, _ = run_cli(capsys, "dichi")
    assert code == 0
    assert "k=2" in out


def test_dichi_json_report(tmp_path, capsys):
    path = tmp_path / "tri.d6"
    path.write_text(TRIANGLE_D6 + "\n")
    code, out, _ = run_cli(capsys, "dichi", str(path), "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["command"] == "dichi"
    assert blob["results"]["k"] == 2
    assert blob["results"]["n"] == 3
    assert "solve" in blob["timings"]


def test_dichi_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("not a digraph\n")
    code, _, err = run_cli(capsys, "dichi", str(path))
    assert code == 2
    assert "error:" in err


def test_census_empty(capsys):
    code, out, _ = run_cli(capsys, "census", "6", "3")
    assert code == 0
    assert out.splitlines()[0] == "count=0 min_arcs=None unique=False"


def test_census_directed_triangle(capsys):
    code, out, _ = run_cli(capsys, "census", "3", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count=1 min_arcs=3 unique=True"
    assert lines[1].startswith("witness ")


def test_census_jobs_env(capsys, monkeypatch):
    monkeypatch.setenv("DICHROMA_JOBS", "2")
    code, out, _ = run_cli(capsys, "census", "3", "2")
    assert code == 0
    assert "count=1" in out


def test_jobs_must_be_positive(capsys, monkeypatch):
    for argv in (["census", "5", "2"], ["verify-paper"]):
        for jobs in ("-3", "0", "two"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--jobs", jobs])
            assert exc.value.code == 2
            assert "positive integer" in capsys.readouterr().err
    for jobs in ("-3", "0"):
        monkeypatch.setenv("DICHROMA_JOBS", jobs)
        code, out, err = run_cli(capsys, "census", "5", "2")
        assert code == 2 and out == ""
        assert "positive integer" in err


def test_bounds_single_surface(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--surface", "N10")
    assert code == 0
    assert out.strip() == "[4,4]"
    code, out2, _ = run_cli(capsys, "bounds", "--surface", "n10")
    assert out2.strip() == "[4,4]"


def test_bounds_table_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "bounds")
    assert code == 0
    assert len(out1.splitlines()) == 12
    assert "sphere" in out1 and "S5, N10" in out1
    _, out2, _ = run_cli(capsys, "bounds")
    assert out1 == out2


def test_bounds_range(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--range", "-2", "2")
    assert code == 0
    assert "sphere" in out and "klein-bottle" in out
    code, _, err = run_cli(capsys, "bounds", "--range", "2", "-2")
    assert code == 2
    assert "error:" in err


def test_bounds_unknown_surface(capsys):
    code, _, err = run_cli(capsys, "bounds", "--surface", "plane")
    assert code == 2
    assert "error:" in err


def test_reduce_verify_roundtrip(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 -2 3 0\n")
    code, out, _ = run_cli(capsys, "reduce", str(cnf), "--verify")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("mode=digon-hub ")
    assert any(ln.startswith("roles ") for ln in lines)
    assert lines[-1] == "equivalence=True"


def test_reduce_oriented_arclist_output(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    code, out, _ = run_cli(
        capsys, "reduce", str(cnf), "--gadget", "oriented",
        "--format", "arclist",
    )
    assert code == 0
    assert "mode=oriented-hub" in out
    header = out.splitlines()[1].split()
    assert len(header) == 2 and all(tok.isdigit() for tok in header)


def test_reduce_format_is_an_output_format(tmp_path, capsys):
    # the input is always DIMACS; --format names the output digraph format
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    code, default, _ = run_cli(capsys, "reduce", str(cnf))
    assert code == 0
    code, d6, _ = run_cli(capsys, "reduce", str(cnf), "--format", "d6")
    assert code == 0 and d6 == default
    with pytest.raises(SystemExit) as exc:
        main(["reduce", str(cnf), "--format", "dimacs"])
    assert exc.value.code == 2


def test_reduce_rejects_malformed_embedding(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    emb = tmp_path / "emb.json"
    for bad in ('{"faces": [["v1", "c0", "v2"]], "clause_faces": [[0, 0, 0]]}',
                '{"faces": [[["v1"], "c0"]], "clause_faces": [[0, 0, 0]]}',
                '{"faces": []}', "not json"):
        emb.write_text(bad)
        code, out, err = run_cli(capsys, "reduce", str(cnf), "--embedding", str(emb))
        assert code == 2 and out == ""
        assert "error:" in err


def test_reduce_planar_with_embedding(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    emb = tmp_path / "emb.json"
    phi = CnfFormula(3, ((1, 2, 3),))
    emb.write_text(json.dumps(single_face_embedding(phi).to_json()))
    code, out, _ = run_cli(
        capsys, "reduce", str(cnf), "--embedding", str(emb), "--verify",
    )
    assert code == 0
    assert "mode=digon-planar" in out
    assert "equivalence=True" in out


def test_structure_directed_triangle(tmp_path, capsys):
    path = tmp_path / "tri.d6"
    path.write_text(TRIANGLE_D6 + "\n")
    code, out, _ = run_cli(capsys, "structure", str(path))
    assert code == 0
    assert "kinds directed-cycle" in out
    assert "cactus=True directed_cactus=True gallai_forest=True" in out
    assert "induced forest size 2" in out


def test_critical_check_exit_codes(tmp_path, capsys):
    path = tmp_path / "tri.d6"
    path.write_text(TRIANGLE_D6 + "\n")
    code, out, _ = run_cli(capsys, "critical-check", str(path), "2")
    assert code == 0
    assert "dicritical=True" in out
    code, out, _ = run_cli(capsys, "critical-check", str(path), "3")
    assert code == 1
    assert "dicritical=False" in out
    assert "reason:" in out


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def broken(d, k):
        raise RuntimeError("self-check failed")

    monkeypatch.setattr(solver, "is_k_dicolourable", broken)
    path = tmp_path / "tri.d6"
    path.write_text(TRIANGLE_D6 + "\n")
    code, out, err = run_cli(capsys, "dichi", str(path))
    assert code == 3 and out == ""
    assert err == "internal error: self-check failed\n"


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point_subprocess():
    # the subprocess imports the same source tree as this test process
    src = os.path.dirname(os.path.dirname(dichroma.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "dichroma.cli", "dichi", "-"],
        input=TRIANGLE_D6 + "\n",
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0
    assert "k=2" in proc.stdout


def test_verify_paper_quick_all_pass(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["command"] == "verify-paper"
    assert blob["seed"] == 20260825
    assert sorted(blob["results"]) == sorted(QUICK_CLAIMS)
    assert all(r["pass"] for r in blob["results"].values())


def test_verify_paper_full_censuses_once_per_run(capsys, monkeypatch, tmp_path):
    census = claims.dicritical_census
    calls = []

    def counted(n, k, **kwargs):
        calls.append((n, k))
        return census(n, k, **kwargs)

    monkeypatch.setattr(claims, "dicritical_census", counted)
    monkeypatch.chdir(tmp_path)  # failure artifacts land here
    results = []
    # every census row is a quick row, so each level censuses (7, 3) once
    for level in ("full", "quick"):
        calls.clear()
        code, out, _ = run_cli(capsys, "verify-paper", "--level", level, "--json")
        assert code == 0
        assert calls.count((7, 3)) == 1
        results.append(json.loads(out)["results"])
    full, quick = results
    assert sorted(full) == sorted(FULL_CLAIMS)
    # claims are reseeded per row, so the quick rows repeat exactly
    assert quick == {slug: full[slug] for slug in QUICK_CLAIMS}
    assert [slug for slug, *_ in claims.CLAIMS] == FULL_CLAIMS
    assert [slug for slug, _, lvl, _ in claims.CLAIMS if lvl == "quick"] == QUICK_CLAIMS
