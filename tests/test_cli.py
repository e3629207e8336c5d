import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dichroma
from dichroma import claims, cli, solver
from dichroma.cli import main
from dichroma.digraphs import Digraph
from dichroma.formats import load_digraph
from dichroma.reductions import CnfFormula, reduce_digon
from dichroma.surfaces import parse_surface

TRIANGLE_D6 = "&BP_"
# README's embedding JSON: the one face of the claw p cnf 3 1 / 1 2 3 0
CLAW_EMBEDDING = {"faces": [["v1", "c0", "v2", "c0", "v3", "c0"]]}

FULL_ONLY = {
    "stearns-tournaments-8",
    "cactus-suite-500",
    "reduction-digon-equivalence-50",
    "reduction-oriented-equivalence-20",
    "solver-oracle-200",
}


def _full_claims():
    """The claim slugs the benchmark's verify-full workload checks.  Read
    by each test that needs them, so a copy of the repository without
    bench/ fails those tests and still collects the others."""
    return json.loads(
        (Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text()
    )["verify-full"]["claims"]


def _quick_claims():
    return [s for s in _full_claims() if s not in FULL_ONLY]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_json_report_comes_from_one_writer(tmp_path, capsys, quick_run):
    tri = tmp_path / "tri.d6"
    tri.write_text(TRIANGLE_D6 + "\n")
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 -2 3 0\n")
    reports = [("verify-paper", quick_run[1], set(_quick_claims()))]
    for argv, spans in ((["dichi", str(tri)], {"solve"}),
                        (["census", "6", "3"], {"census"}),
                        (["bounds"], set()),
                        (["reduce", str(cnf), "--verify"], {"reduce", "verify"}),
                        (["structure", str(tri)], set()),
                        (["critical-check", str(tri), "2"], {"check"})):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        reports.append((argv[0], json.loads(out), spans))
    dichi = reports[1][1]["results"]
    assert (dichi["k"], dichi["n"]) == (2, 3)
    for command, blob, spans in reports:
        assert set(blob) == {"command", "inputs", "results", "timings", "seed"}
        assert blob["command"] == command
        assert set(blob["timings"]) == spans
        for t in blob["timings"].values():
            assert type(t) is float and t == round(t, 3)
        assert blob["seed"] == (20260825 if command == "verify-paper" else None)


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
    # the wall time lives in timings only, so results are reproducible
    runs = [run_cli(capsys, "census", "6", "3", "--json") for _ in range(2)]
    assert [code for code, _, _ in runs] == [0, 0]
    first, second = (json.loads(out) for _, out, _ in runs)
    assert first["results"] == second["results"]
    assert set(first["timings"]) == {"census"}


def test_census_malformed_checkpoint_is_usage_error(tmp_path, capsys):
    ck = tmp_path / "census.ckpt"
    assert run_cli(capsys, "census", "5", "2", "--checkpoint", str(ck))[0] == 0
    # every malformed record is refused in test_enumeration's _MALFORMED;
    # here one refusal reaches the command line as a usage error
    header = ck.read_text().splitlines()[0]
    ck.write_text(f'{header}\n{{"graph": "&DKMME?"}}\n')
    code, out, err = run_cli(capsys, "census", "5", "2", "--checkpoint", str(ck))
    assert code == 2 and out == ""
    assert err.startswith(f"error: checkpoint {ck}: line 2 lacks field 'dicritical'")


def test_census_directed_triangle(capsys):
    code, out, _ = run_cli(capsys, "census", "3", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count=1 min_arcs=3 unique=True"
    assert lines[1].startswith("witness ")
    assert run_cli(capsys, "census", "3", "2", "--jobs", "2") == (0, out, "")


def test_census_problems_fail_the_run(capsys, monkeypatch):
    monkeypatch.setattr(cli, "validate_census", lambda rep: ["a planted problem"])
    code, out, _ = run_cli(capsys, "census", "3", "2")
    assert code == 1
    assert out.splitlines()[-1] == "PROBLEM a planted problem"


def test_census_jobs_env(capsys, monkeypatch):
    monkeypatch.setenv("DICHROMA_JOBS", "2")
    code, out, _ = run_cli(capsys, "census", "3", "2")
    assert code == 0
    assert "count=1" in out


def test_jobs_must_be_positive(capsys, monkeypatch):
    for argv in (["census", "5", "2"], ["verify-paper"]):
        # "²".isdigit() is true, but int() rejects it; int() reads "２"
        for jobs in ("-3", "0", "two", "²", "２"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--jobs", jobs])
            assert exc.value.code == 2
            assert "positive integer" in capsys.readouterr().err
    # an empty DICHROMA_JOBS is a bad count, not an unset one
    for jobs in ("-3", "0", "²", "２", ""):
        monkeypatch.setenv("DICHROMA_JOBS", jobs)
        code, out, err = run_cli(capsys, "census", "5", "2")
        assert code == 2 and out == ""
        assert "positive integer" in err


def test_bounds_range(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--range", "-2", "2")
    assert code == 0
    assert "sphere" in out and "klein-bottle" in out
    # no surface has characteristic above 2, so a range there ends at once
    for argv in (["--range", "2", "-2"], ["--range", "3", "10000000000"]):
        code, _, err = run_cli(capsys, "bounds", *argv)
        assert code == 2
        assert "error:" in err
    # the tournament bound has no cap: c = -10**700 gets its rows, and the
    # row of N<10**700 + 2> is the one --surface prints
    huge = "-1" + "0" * 700
    code, out, _ = run_cli(capsys, "bounds", "--range", huge, huge)
    rows = [line.split() for line in out.splitlines()]
    assert code == 0 and [r[0][:2] for r in rows] == ["S5", "N1"]
    assert rows[0][1:] == rows[1][1:] == [f"c={huge}", rows[1][2]]
    code, out, _ = run_cli(capsys, "bounds", "--surface", "N1" + "0" * 699 + "2")
    assert code == 0 and out.strip() == rows[1][2]
    # a range holds at most cli.RANGE_LIMIT characteristics once clipped at
    # 2, and a wider one is refused before any row is built
    code, out, _ = run_cli(capsys, "bounds", "--range", "-9997", "2")
    assert code == 0 and out.splitlines()[-1].split() == ["N9999", "c=-9997", "[16,124]"]
    for lo in ("-9998", "-10000000000"):
        code, out, err = run_cli(capsys, "bounds", "--range", lo, "2")
        assert code == 2 and out == ""
        assert "at most 10000 Euler characteristics" in err
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--surface", "N1", "--range", "-2", "2"])
    assert exc.value.code == 2


def test_bounds_reach_every_genus_read_int_admits(capsys):
    # read_int admits 4,300 digits: the deepest N<genus> and S<genus> get
    # their rows (S9 then 4,299 zeros, whose characteristic has 4,301
    # digits, is refused in test_errors_quote_the_first_20_characters)
    for name in ("N" + "9" * 4300, "S4" + "9" * 4299, "S5" + "0" * 4299):
        code, out, _ = run_cli(capsys, "bounds", "--json", "--surface", name)
        row = json.loads(out)["results"][name]
        assert code == 0 and row["euler_characteristic"] == parse_surface(name)[1]
        assert 2 < row["lower"] < row["upper"]


def test_errors_quote_the_first_20_characters(capsys, monkeypatch):
    # a refused input is quoted by its first 20 characters, so a huge one
    # prints one short line: S9 then 4,299 zeros exits 2 naming its start,
    # not with Python's advice on its int-to-text limit, and so do a
    # 5,000-character census order and worker count
    name = "S9" + "0" * 4299
    code, out, err = run_cli(capsys, "bounds", "--json", "--surface", name)
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse surface {name[:20]!r}...\n"
    xs = "x" * 5000
    for argv in (["census", xs, "3"], ["census", "5", "2", "--jobs", xs]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert exc.value.code == 2 and len(errors) == 1
        assert errors[0].endswith(f" {xs[:20]!r}...") and len(errors[0]) < 200
    monkeypatch.setenv("DICHROMA_JOBS", xs)
    code, out, err = run_cli(capsys, "census", "5", "2")
    assert (code, out) == (2, "") and err.endswith(f" {xs[:20]!r}...\n")
    assert err.count("\n") == 1 and len(err) < 200


def test_bounds_json_rows_share_one_shape(capsys):
    rows = {}
    for argv in ([], ["--surface", "N10"], ["--range", "-8", "2"]):
        code, out, _ = run_cli(capsys, "bounds", "--json", *argv)
        assert code == 0
        rows[tuple(argv)] = json.loads(out)["results"]
        for label, row in rows[tuple(argv)].items():
            assert set(row) == {"surface", "euler_characteristic", "lower",
                                "upper", "provenance"}
            assert row["surface"] == label
    table = rows[()]
    # every surface of a table row, by its own name, to that row
    by_surface = {
        parse_surface(name)[0]: row
        for row in table.values()
        for name in row["surface"].split(", ")
    }
    ranged = rows[("--range", "-8", "2")]
    assert sorted(ranged) == sorted(by_surface)
    keys = ("euler_characteristic", "lower", "upper", "provenance")
    for name, row in ranged.items():
        assert [row[k] for k in keys] == [by_surface[name][k] for k in keys]
    assert rows[("--surface", "N10")]["N10"] == ranged["N10"]


def test_bounds_unknown_surface(capsys):
    # a genus is ASCII digits: int() reads the Arabic-Indic "١" and the
    # full-width "２"
    for name in ("plane", "S١", "N２"):
        code, out, err = run_cli(capsys, "bounds", "--surface", name)
        assert code == 2 and out == ""
        assert err == f"error: cannot parse surface {name!r}\n"


def test_empty_option_values_are_usage_errors(tmp_path, capsys):
    # "" is a value given, not the option left out: no whole table, no hub
    # mode and no run without a checkpoint
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    for argv in (["bounds", "--surface", ""], ["reduce", str(cnf), "--embedding", ""],
                 ["census", "5", "2", "--checkpoint", ""]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:")
    # an empty path names itself, not the working directory Path("") reads
    for argv, what in ((["reduce", ""], "input"),
                       (["reduce", str(cnf), "--embedding", ""], "--embedding")):
        assert run_cli(capsys, *argv) == (2, "", f"error: empty {what} path ''\n")


def test_integer_arguments_are_ascii_digits(capsys, monkeypatch):
    # int() reads all of these; the usage error names the text
    for argv, bad in ((["census", "６", "3"], "６"), (["census", "+6", "3"], "+6"),
                      (["bounds", "--range", "-10", "0_2"], "0_2"),
                      (["verify-paper", "--seed", "1_0"], "1_0"),
                      (["critical-check", "-", "３"], "３"),
                      (["census", "1" + "0" * 4400, "3"], "1" + "0" * 19)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert repr(bad) in capsys.readouterr().err
    monkeypatch.setattr(sys, "stdin", io.StringIO("p cnf 3 1\n1 2 -0 3 0\n"))
    code, out, err = run_cli(capsys, "reduce")
    assert code == 2 and out == ""
    assert err == "error: bad DIMACS literal '-0' in line '1 2 -0 3 0'\n"


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


def test_reduce_json_reports_the_printed_digraph(tmp_path, capsys):
    # --format renders the digraph once, for the printed line and the report
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    expected = reduce_digon(CnfFormula.from_dimacs(cnf.read_text())).digraph
    for fmt, head in (("arclist", f"{expected.n} {expected.m}\n"), ("d6", "&")):
        code, out, _ = run_cli(capsys, "reduce", str(cnf), "--format", fmt)
        assert code == 0
        code, report, _ = run_cli(capsys, "reduce", str(cnf), "--format", fmt,
                                  "--json")
        assert code == 0
        digraph = json.loads(report)["results"]["digraph"]
        assert digraph.startswith(head)
        assert out.split("\n", 1)[1].startswith(digraph + "\n")
        assert load_digraph(digraph) == expected


def test_reduce_rejects_malformed_embedding(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    emb = tmp_path / "emb.json"
    for bad in ('{"faces": [["v1", "c0", "v2"]]}', '{"faces": [[["v1"], "c0"]]}',
                '{"faces": []}', '{"clause_faces": [[0, 0, 0]]}', "not json",
                "[" * 100_000):
        emb.write_text(bad)
        code, out, err = run_cli(capsys, "reduce", str(cnf), "--embedding", str(emb))
        assert code == 2 and out == ""
        assert err.startswith("error:")
    # a walk, or the face list, given as a string is not read as a list of
    # its characters: the error names the type
    for bad, message in (('{"faces": ["v1c0v2c0v3c0"]}', "a face walk must be a JSON list, got str"),
                         ('{"faces": "v1c0"}', "faces must be a JSON list, got str")):
        emb.write_text(bad)
        code, out, err = run_cli(capsys, "reduce", str(cnf), "--embedding", str(emb))
        assert code == 2 and out == ""
        assert err.startswith("error: malformed embedding JSON") and message in err


def test_reduce_planar_with_embedding(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    emb = tmp_path / "emb.json"
    emb.write_text(json.dumps(CLAW_EMBEDDING))
    code, out, _ = run_cli(
        capsys, "reduce", str(cnf), "--embedding", str(emb), "--verify",
    )
    assert code == 0
    assert "mode=digon-planar" in out
    assert "equivalence=True" in out
    # a clause's faces are read off its corners: an older file's
    # clause_faces is ignored, even where it contradicts the faces
    for old in ([[0, 0, 0]], [[1, 2, 3]], [[0.9, "0", False]]):
        emb.write_text(json.dumps(dict(CLAW_EMBEDDING, clause_faces=old)))
        assert run_cli(capsys, "reduce", str(cnf), "--embedding", str(emb),
                       "--verify") == (0, out, "")


def test_reduce_rejects_a_non_sphere_embedding(tmp_path, capsys):
    # K_{3,3}'s faces on the projective plane with a claw's face joined at
    # v1 pass Euler's formula; the corners at v1 show it is no sphere
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 5 4\n1 2 3 0\n1 2 3 0\n1 2 3 0\n1 4 5 0\n")
    emb = tmp_path / "emb.json"
    emb.write_text(json.dumps({
        "faces": [["v1", "c0", "v3", "c1"], ["c0", "v2", "c2", "v3"],
                  ["v2", "c1", "v1", "c2"], ["v1", "c0", "v2", "c1", "v3", "c2"],
                  ["v1", "c3", "v4", "c3", "v5", "c3"]],
    }))
    code, out, err = run_cli(capsys, "reduce", str(cnf), "--embedding", str(emb))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "corners at v1" in err


def test_digraph_format_is_read_from_the_text(tmp_path, capsys, monkeypatch):
    # the leading '&' tells digraph6 from an arc list, so one digraph gives
    # the same output from either format, from a file or from stdin, and no
    # subcommand that reads a digraph takes --format
    texts = (TRIANGLE_D6 + "\n", "3 3\n2 0\n0 1\n1 2\n")
    for command, rest, first in (("dichi", [], "k=2"),
                                 ("structure", [], "blocks=1 cut_vertices=[]"),
                                 ("critical-check", ["2"], "dicritical=True k=2")):
        runs = []
        for i, text in enumerate(texts):
            path = tmp_path / f"input{i}"
            path.write_text(text)
            runs.append(run_cli(capsys, command, str(path), *rest))
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            runs.append(run_cli(capsys, command, "-", *rest))
        assert len(runs) == 4 and len(set(runs)) == 1
        assert runs[0][0] == 0 and runs[0][2] == ""
        assert runs[0][1].splitlines()[0] == first
        with pytest.raises(SystemExit) as exc:
            main([command, str(path), *rest, "--format", "arclist"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_structure_directed_triangle(tmp_path, capsys):
    path = tmp_path / "tri.d6"
    path.write_text(TRIANGLE_D6 + "\n")
    code, out, _ = run_cli(capsys, "structure", str(path))
    assert code == 0
    assert "kinds directed-cycle" in out
    assert "cactus=True directed_cactus=True gallai_forest=True" in out
    assert "induced forest size 2" in out


def test_structure_of_the_empty_digraph(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("0 0\n"))
    code, out, _ = run_cli(capsys, "structure")
    assert code == 0
    assert "edges 0 <= 0 (tight=True)" in out.splitlines()


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
    # a digon and an isolated vertex: not 2-dicritical, exit 1 with reason
    path = tmp_path / "isolated.arcs"
    path.write_text("3 2\n0 1\n1 0\n")
    code, out, _ = run_cli(capsys, "critical-check", str(path), "2")
    assert code == 1
    assert "dicritical=False" in out
    assert "reason:" in out
    # two disjoint bidirected K4 are 4-dichromatic, and deleting an arc of
    # one leaves the other: the report names the first arc that fails
    path = tmp_path / "two-k4.arcs"
    arcs = [f"{u} {v}\n" for block in (range(4), range(4, 8))
            for u in block for v in block if u != v]
    path.write_text(f"8 {len(arcs)}\n" + "".join(arcs))
    code, out, _ = run_cli(capsys, "critical-check", str(path), "4")
    assert code == 1
    assert out.splitlines()[-1] == "failing arc: (0, 1)"


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


def test_closed_stdout_exits_141_quietly():
    # the reader takes one row and closes the pipe, as head -1 does; the
    # rows left overfill a pipe buffer, so a write meets the closed end
    argv = [sys.executable, "-m", "dichroma.cli", "bounds"]
    src = os.path.dirname(os.path.dirname(dichroma.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)  # a pipe is block-buffered, as for users
    with subprocess.Popen(argv + ["--range", "-9997", "2"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
    assert first.split()[0] == b"sphere"
    # a pipe closed before the run: the 12-row table fits the output buffer,
    # so the write fails when the report is flushed, not at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_verify_paper_quick_all_pass(quick_run):
    code, blob, _ = quick_run
    assert code == 0
    assert blob["command"] == "verify-paper"
    assert blob["seed"] == 20260825
    assert sorted(blob["results"]) == sorted(_quick_claims())
    assert all(r["pass"] for r in blob["results"].values())


def test_verify_paper_full_censuses_once_per_run(quick_run, full_run):
    code, blob, calls = full_run
    assert code == 0
    full = blob["results"]
    # every census row is a quick row, so each level censuses (7, 3) once
    _, quick, quick_calls = quick_run
    assert calls[7, 3] == quick_calls[7, 3] == 1
    full_claims, quick_claims = _full_claims(), _quick_claims()
    assert sorted(full) == sorted(full_claims)
    assert all(r["pass"] for r in full.values())
    # claims are reseeded per row, so the quick rows repeat exactly
    assert quick["results"] == {slug: full[slug] for slug in quick_claims}
    assert [slug for slug, *_ in claims.CLAIMS] == full_claims
    assert [slug for slug, _, lvl, _ in claims.CLAIMS if lvl == "quick"] == quick_claims


def test_verify_paper_rows_decide_what_they_ask(quick_run, full_run):
    # the Stearns rows stop at each tournament's first acyclic set of
    # floor(log2 n) + 1 vertices, and the circulant row asks for a set of 4
    # and none of 5: 2,200 (orders 4-7) + 41,825 (order 8) + 338 cycle
    # searches, where proving each maximum took 5,213 + 124,776 + 867
    quick, full = quick_run[2], full_run[2]
    assert (quick["_shortest_cycle"], full["_shortest_cycle"]) == (2_538, 44_363)
    # one block decomposition per cactus (100 quick, 500 full), where the
    # edge bound, the triangle test and the induced forest took one each,
    # and one per low-vertex digraph of census 7's 3 outputs, checked once
    # by validate_census, and of the order-8 witness, by
    # census-dicritical-gallai
    assert (quick["_lowpoint_blocks"], full["_lowpoint_blocks"]) == (104, 604)
    # the canonical searches, every one through canon's _canon: one per
    # arc of ST11 for its arc-transitivity (55), 5 for reading census 7's
    # records (the 2 graphs with outputs and the underlying graphs of the
    # 3 outputs), 6,969 for the states of census 6's and 7's orientation
    # streams, the rest canonical_labelling's.  The generators' orbit step
    # took them from 8,170 and 16,701
    assert (quick["_canon"], full["_canon"]) == (7_935, 15_790)


def test_verify_paper_failing_row(tmp_path, capsys, monkeypatch):
    # a row that fails and a row that raises are both failed claims: exit 1,
    # not an internal error, and one artifact each in the working directory
    def crash(ctx):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_CLAIMS", [
        ("always-false", "a claim that fails", "quick",
         lambda ctx: (False, {"witness": 7})),
        ("always-raises", "a claim that raises", "quick", crash),
    ])
    monkeypatch.chdir(tmp_path)
    details = {
        "always-false": {"witness": 7},
        "always-raises": {"error": "RuntimeError('boom')"},
    }
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 1
    fails = [ln.split()[1] for ln in out.splitlines() if ln.startswith("FAIL  ")]
    assert fails == ["always-false", "always-raises"]
    assert out.splitlines()[-1].startswith("2 claims, 0 passed, 2 failed")
    for slug, desc in (("always-false", "a claim that fails"),
                       ("always-raises", "a claim that raises")):
        artifact = json.loads((tmp_path / f"dichroma-failure-{slug}.json").read_text())
        assert artifact == {"claim": slug, "description": desc,
                            "details": details[slug]}
    code, out, _ = run_cli(capsys, "verify-paper", "--json")
    assert code == 1
    assert json.loads(out)["results"] == {
        slug: {"pass": False, "details": d} for slug, d in details.items()
    }


# (row, name in claims, what stands in for it, details the failed row
# gives): each reaches one of the rows' failure returns, which no passing
# run executes
_FAILING_ROWS = [
    ("st11-4-dicritical", "is_dicritical", lambda d, k: solver.is_dicritical(d, k - 1),
     {"arcs": 55, "reason": "not even 3-dicolourable"}),
    ("st11-4-dicritical", "is_k_dicolourable", lambda d, k: [1] * d.n,
     {"deleted": [0, 1], "two_dicolourable": True}),
    ("stearns-tournaments", "induced_acyclic_set", lambda d, size: None,
     {"4": 4, "failed": ["acyclic_set"]}),
    ("circulant-13-no-tt5", "is_k_diregular", lambda d, k: False,
     {"set": [1, 2, 3, 5, 6, 9], "failed": ["diregular"]}),
    ("circulant-13-no-tt5", "delete_vertex", lambda d, v: Digraph(12, [0] * 12),
     {"set": [1, 2, 3, 5, 6, 9], "deleted": 0, "failed": ["arcs", "degrees"]}),
    ("cactus-suite", "cactus_edge_bound", lambda g: (1, 0, False), {"trial": 0}),
    ("reduction-digon-equivalence", "verify_equivalence", lambda out: False, {"trial": 0}),
    ("reduction-digon-equivalence", "verify_equivalence",
     lambda out: out.mode == "digon-hub", {"clauses": [[1, -2, 3]], "planar": True}),
    ("reduction-oriented-equivalence", "is_oriented", lambda d: False, {"trial": 0}),
    ("reduction-oriented-equivalence", "verify_equivalence", lambda out: False,
     {"trial": 0}),
    ("solver-oracle", "is_k_dicolourable", lambda d, k: None, {"trial": 0}),
]


@pytest.mark.parametrize("slug, name, stand_in, expected", _FAILING_ROWS,
                         ids=[f"{slug}-{name}" for slug, name, *_ in _FAILING_ROWS])
def test_every_claim_row_can_fail(tmp_path, capsys, monkeypatch, slug, name, stand_in,
                                  expected):
    # a row is only a check if a wrong answer from what it calls fails it:
    # verify-paper runs the one row with one name of claims replaced
    monkeypatch.setattr(cli, "_CLAIMS", [row for row in claims.CLAIMS if row[0] == slug])
    monkeypatch.setattr(claims, name, stand_in)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "verify-paper", "--json")
    result = json.loads(out)["results"][slug]
    assert code == 1 and result["pass"] is False
    assert {key: result["details"].get(key) for key in expected} == expected


def test_verify_paper_unwritable_artifact(tmp_path, capsys, monkeypatch):
    # an artifact that cannot be written (its path is a directory) is named
    # on stderr, and the run goes on: every row is reported, and the failed
    # claim exits 1, not 2
    forced = "st11-dichromatic-4"
    monkeypatch.setattr(cli, "_CLAIMS", [
        (slug, desc, level,
         (lambda ctx: (False, {"forced": True})) if slug == forced else check)
        for slug, desc, level, check in claims.CLAIMS
    ])
    monkeypatch.chdir(tmp_path)
    artifact = tmp_path / f"dichroma-failure-{forced}.json"
    artifact.mkdir()
    quick_claims = _quick_claims()
    code, out, err = run_cli(capsys, "verify-paper")
    assert code == 1
    rows = [ln.split()[:2] for ln in out.splitlines() if ln[:6] in ("PASS  ", "FAIL  ")]
    assert [slug for _, slug in rows] == quick_claims
    assert [slug for status, slug in rows if status == "FAIL"] == [forced]
    assert "counterexample artifact" not in out
    assert out.splitlines()[-1].startswith(
        f"{len(quick_claims)} claims, {len(quick_claims) - 1} passed, 1 failed")
    assert err == (f"cannot write counterexample artifact {artifact}: "
                   f"[Errno 21] Is a directory: '{artifact}'\n")
    code, out, err = run_cli(capsys, "verify-paper", "--json")
    assert code == 1 and str(artifact) in err
    results = json.loads(out)["results"]
    assert sorted(results) == sorted(quick_claims)
    assert [slug for slug, r in results.items() if not r["pass"]] == [forced]
