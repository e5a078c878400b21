"""Command line surface: exit codes, reports, dumps, selftest wiring."""

import copy
import csv
import json
from fractions import Fraction as Q

import pytest

from liecheck.cases import get_case
from liecheck.data import golden
from liecheck.report_cli import main, run_selftest
from liecheck.spin import spin_norm_sq
from liecheck.usmall import enumerate_usmall


def strip_timing(doc):
    doc = copy.deepcopy(doc)
    doc.pop("elapsed_ms", None)
    if isinstance(doc.get("results"), dict):
        doc["results"].pop("elapsed_ms", None)
    return doc


def test_usmall_count_g(capsys):
    assert main(["usmall", "count", "G"]) == 0
    assert capsys.readouterr().out.strip() == "29"


def test_w1_eviii(capsys):
    assert main(["w1", "EVIII"]) == 0
    assert capsys.readouterr().out.strip() == "135"


def test_w1_words_listed(capsys):
    assert main(["w1", "G", "--words"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "3"
    assert out[1].endswith("e")
    assert len(out) == 4


def test_unknown_case_exits_3(capsys):
    assert main(["verify", "BADCASE"]) == 3
    assert main(["usmall", "count", "NOPE"]) == 3


def test_usage_errors_exit_2():
    assert main(["usmall", "count", "SL2nR"]) == 2  # missing --n
    assert main(["usmall", "count", "G", "--n", "3"]) == 2  # n rejected
    assert main(["spin-norm", "G", "--mu", "3,x"]) == 2
    assert main(["spin-norm", "G", "--mu", "1,2,3"]) == 2
    assert main(["verify", "G", "--box", "a:9..3,b:1..2"]) == 2


def test_verify_box_beyond_int64_exits_2(capsys):
    box = "a:3000000000..3000000001,b:3000000000..3000000001"
    assert main(["verify", "G", "--box", box]) == 2
    assert "too large for the exact int64 scan" in capsys.readouterr().err


def test_malformed_flags_exit_2(capsys):
    assert main(["usmall", "count"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["verify", "G", "--jobs", "x"]) == 2


def test_classical_case_accepted(capsys):
    assert main(["w1", "SLnH", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_spin_norm_output(capsys):
    assert main(["spin-norm", "G", "--mu", "3,1", "--variants"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2"
    assert len(lines) == 4


def test_spin_norm_sp4r_fraction(capsys):
    assert main(["spin-norm", "SP4R", "--mu", "0,0"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "5"  # norm of rho=(2,1)


def test_case_show_runs(capsys):
    assert main(["case", "show", "FI"]) == 0
    out = capsys.readouterr().out
    assert "case FI" in out and "|W^1|             : 12" in out


def test_bounds_report(tmp_path, capsys):
    path = tmp_path / "bounds.json"
    assert main(["bounds", "EIX", "--report", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["results"]["parabolic"] == [
        "6/1", "14/1", "16/1", "20/1", "22/1", "24/1", "26/1", "-26/1",
    ]


def test_verify_default_box_g(tmp_path, capsys):
    path = tmp_path / "verify.json"
    assert main(["verify", "G", "--report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "violations: 0" in out
    doc = json.loads(path.read_text())
    assert doc["results"]["scanned"] == 12
    assert doc["results"]["min_margin_sq"] == "12/1"


def test_verify_explicit_box_exit_1(tmp_path):
    path = tmp_path / "viol.json"
    code = main(
        ["verify", "SP4R", "--box", "p:-3..4,q:-4..3", "--report", str(path)]
    )
    assert code == 1
    doc = json.loads(path.read_text())
    assert doc["results"]["violations"]
    margins = [Q(v["margin_sq"]) for v in doc["results"]["violations"]]
    assert all(m <= 0 for m in margins)


def test_commands_without_checkpoints_do_not_load_hashlib():
    # hashlib loads OpenSSL, several MB of resident memory that only a
    # checkpointed scan needs; a fresh process shows what is imported
    import os
    import subprocess
    import sys
    from pathlib import Path

    import liecheck

    code = (
        "import sys\n"
        "from liecheck.report_cli import main\n"
        "assert main(['usmall', 'count', 'G']) == 0\n"
        "assert main(['verify', 'G']) == 0\n"
        "assert 'hashlib' not in sys.modules\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "LIECHECK_CHECKPOINT_DIR"}
    env["PYTHONPATH"] = str(Path(liecheck.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_verify_long_gate():
    assert main(["verify", "EVIII"]) == 2
    assert main(["verify", "EIX"]) == 2
    # an explicit small box is allowed without --long
    assert main(["verify", "EIX", "--box", ",".join(
        f"{name}:0..1" for name in "abcdefg") + ",h:1..2"]) in (0, 1)


def test_report_determinism(tmp_path):
    docs = []
    for name in ("one.json", "two.json"):
        path = tmp_path / name
        assert main(["verify", "EIV", "--report", str(path)]) == 0
        docs.append(strip_timing(json.loads(path.read_text())))
    assert docs[0] == docs[1]


def test_report_jobs_invariant(tmp_path):
    docs = []
    for jobs in ("1", "4"):
        path = tmp_path / f"jobs{jobs}.json"
        assert main(["verify", "EI", "--jobs", jobs, "--report", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["results"].pop("elapsed_ms")
        docs.append(doc["results"])
    assert docs[0] == docs[1]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_dump_reingests_to_same_count(tmp_path, fmt, capsys):
    path = tmp_path / f"usmall.{fmt}"
    assert main(
        ["usmall", "dump", "FII", "--format", fmt, "--out", str(path)]
    ) == 0
    assert "wrote 27 rows" in capsys.readouterr().out
    if fmt == "csv":
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        norms = [Q(r["spin_norm_sq"]) for r in rows]
        coords = [tuple(int(r[k]) for k in ("a", "b", "c", "d")) for r in rows]
    else:
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        norms = [Q(r["spin_norm_sq"]) for r in rows]
        coords = [tuple(r["coords"]) for r in rows]
    assert len(coords) == len(set(coords)) == 27
    case_floor = Q(1)
    assert all(n >= case_floor for n in norms)


def test_dump_to_stdout(capsys):
    assert main(["usmall", "dump", "G", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "a,b,spin_norm_sq"
    assert len(lines) == 30


@pytest.mark.parametrize("family", ["G", "FII", "SP4R", "EIV", "EI", "FI"])
def test_dump_norms_are_exact_spin_norms(family, capsys):
    case = get_case(family)
    assert main(["usmall", "dump", family]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert len(rows) - 1 == enumerate_usmall(case)
    for row in rows[1:]:
        mu = tuple(int(x) for x in row[:-1])
        assert Q(row[-1]) == spin_norm_sq(case, mu), mu


def test_sp4r_pencils_table(capsys):
    assert main(["sp4r", "pencils", "--m-max", "6"]) == 0
    out = capsys.readouterr().out
    assert "descending family" in out and "ascending family" in out
    assert "(-3, -5)" in out  # descending m=5 member


def test_list_cases_report(tmp_path):
    path = tmp_path / "cases.json"
    assert main(["list-cases", "--report", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert len(doc["results"]["cases"]) == 14


# -- selftest ---------------------------------------------------------------


@pytest.fixture(scope="module")
def baseline_items():
    return run_selftest(jobs=2)


ERRATA_ITEMS = {
    "erratum-usmall_rows-EII",
    "erratum-usmall_counts-EII",
    "erratum-sp4r_pencils-ascending-mid",
}


def test_selftest_baseline_passes_with_errata_reported(baseline_items):
    # the published EII tally and the published ascending middle closed
    # form are compared with their errata applied, and every erratum is an
    # item of its own that holds on a clean tree
    assert [item.name for item in baseline_items if not item.ok] == []
    by_name = {item.name: item for item in baseline_items}
    assert {n for n in by_name if n.startswith("erratum-")} == ERRATA_ITEMS
    tally = by_name["erratum-usmall_counts-EII"]
    assert (tally.expected, tally.computed) == ("printed 22122, corrected 20995", "20995")
    mid = by_name["erratum-sp4r_pencils-ascending-mid"]
    assert (mid.expected, mid.computed) == ("printed [2, 0, 2], corrected [2, -2, 5]", "[2, -2, 5]")
    assert by_name["usmall-count-EII"].expected == "20995"
    assert by_name["sp4r-ascending-mid"].expected.startswith("2m^2-2m+5 ")


def test_selftest_item_names_cover_contract(baseline_items):
    names = {item.name for item in baseline_items}
    assert "usmall-count-EI" in names
    assert "w1-size-SLnH" in names
    assert "bounds-EVIII" in names
    assert "rho-n-FI" in names
    assert "verify-box-G" in names
    assert "sp4r-orderings" in names
    assert ERRATA_ITEMS <= names
    # the long-run counts stay out of the default set
    assert "usmall-count-EVIII" not in names
    assert "verify-box-EV" not in names


def test_selftest_detects_perturbed_constant(baseline_items):
    # flipping one golden constant must surface exactly that item
    data = copy.deepcopy(golden())
    data["usmall_counts"]["EI"] = 923
    perturbed = {
        item.name for item in run_selftest(jobs=2, golden_data=data) if not item.ok
    }
    baseline = {item.name for item in baseline_items if not item.ok}
    assert perturbed - baseline == {"usmall-count-EI"}
    assert baseline - perturbed == set()


def test_selftest_detects_broken_erratum(monkeypatch, tmp_path):
    # a wrong correction fails both the figure and its erratum item; a
    # printed figure that no longer matches its erratum's quote fails the
    # erratum item; and the command exits 1
    data = copy.deepcopy(golden())
    for entry in data["errata"]:
        if entry["path"] == ["sp4r_pencils", "ascending", "mid"]:
            entry["corrected"] = [2, -2, 6]
    data["usmall_counts"]["EII"] = 22123
    monkeypatch.setattr("liecheck.report_cli.golden", lambda: data)
    path = tmp_path / "selftest.json"
    assert main(["selftest", "--jobs", "2", "--report", str(path)]) == 1
    items = json.loads(path.read_text())["results"]["items"]
    failed = {item["name"] for item in items if not item["ok"]}
    assert failed == {
        "sp4r-ascending-mid",
        "erratum-sp4r_pencils-ascending-mid",
        "erratum-usmall_counts-EII",
    }


def test_selftest_cli_exit_and_report(tmp_path):
    path = tmp_path / "selftest.json"
    assert main(["selftest", "--jobs", "2", "--report", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["results"]["failures"] == 0
    assert ERRATA_ITEMS <= {item["name"] for item in doc["results"]["items"]}
    names = [item["name"] for item in doc["results"]["items"]]
    assert names == sorted(set(names), key=names.index)  # stable, no dups
