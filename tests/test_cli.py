"""Command line surface: exit codes, reports, dumps, selftest wiring."""

import copy
import csv
import json
from fractions import Fraction as Q

import pytest

from liecheck import pencil
from liecheck.cases import get_case
from liecheck.data import golden
from liecheck.errors import UsageError
from liecheck.pencil import parse_box
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


def test_verify_oversized_sp4r_box_exits_2_before_scanning(monkeypatch, capsys):
    # k with center is scanned on its whole grid; a box past 2^24 points is
    # refused before anything is allocated, not with a MemoryError (exit 1)
    def no_scan(*args, **kwargs):
        raise AssertionError("the box was scanned")

    monkeypatch.setattr(pencil, "scan_box", no_scan)
    box = "p:-1000000..1000000,q:-1000000..1000000"
    assert main(["verify", "SP4R", "--box", box]) == 2
    err = capsys.readouterr().err
    assert "4000004000001 points, more than the limit of 2^24" in err
    case = get_case("SP4R")
    assert parse_box("p:0..4095,q:1..4096", case).dim == 2  # 2^24 points
    with pytest.raises(UsageError, match="16781312 points"):
        parse_box("p:0..4095,q:1..4097", case)


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


@pytest.mark.parametrize("mu", [["--mu", "-1,-3"], ["--mu=-1,-3"]])
def test_spin_norm_sp4r_negative_first_coordinate(mu, capsys):
    assert main(["spin-norm", "SP4R", *mu]) == 0
    assert capsys.readouterr().out.strip() == "5"


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


def test_commands_without_checkpoints_do_not_load_hashlib(tmp_path):
    # hashlib loads OpenSSL, several MB of resident memory that nothing
    # needs; a checkpointed scan, run last, does not load it either. A fresh
    # process shows what is imported
    import os
    import subprocess
    import sys
    from pathlib import Path

    import liecheck

    code = (
        "import os, sys\n"
        "from liecheck.report_cli import main\n"
        "assert main(['usmall', 'count', 'G']) == 0\n"
        "assert main(['verify', 'G']) == 0\n"
        "os.environ['LIECHECK_CHECKPOINT_DIR'] = sys.argv[1]\n"
        "assert main(['verify', 'G']) == 0\n"
        "assert os.listdir(sys.argv[1])\n"
        "assert 'hashlib' not in sys.modules\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "LIECHECK_CHECKPOINT_DIR"}
    env["PYTHONPATH"] = str(Path(liecheck.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "ck")], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["usmall", "dump", "G", "--out", "{bad}/x.csv"],
        ["w1", "G", "--report", "{bad}/r.json"],
    ],
)
def test_unwritable_output_path_exits_2(argv, tmp_path, capsys):
    # an output path that cannot be opened is bad usage, not a failed check
    bad = tmp_path / "missing"
    assert main([a.format(bad=bad) for a in argv]) == 2
    assert "error:" in capsys.readouterr().err


def test_uncreatable_checkpoint_directory_exits_2(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("LIECHECK_CHECKPOINT_DIR", str(blocker / "ck"))
    assert main(["verify", "G"]) == 2
    assert "error:" in capsys.readouterr().err


def test_python_m_liecheck_runs_the_command_line():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import liecheck

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(liecheck.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "liecheck", "list-cases"], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "EVIII" in proc.stdout


def test_verify_explicit_box_exit_0(capsys):
    # an explicit box scans that box alone: here the last slice of the
    # EIX default box
    box = "a:0..11,b:0..11,c:0..9,d:0..9,e:0..9,f:0..11,g:1..12,h:55..55"
    assert main(["verify", "EIX", "--box", box]) == 0
    out = capsys.readouterr().out
    assert f"box       : {box}\n" in out
    assert "min margin: 56\n" in out
    assert "violations: 0\n" in out


def test_verify_names_coordinates_past_h(tmp_path, capsys):
    # SLnH at n = 12 has twelve k-type coordinates, named a..l; a tiny box
    # of u-large points scans, and evaluating every point agrees
    box = "a:0..1,b:1..2," + ",".join(f"{c}:0..1" for c in "cdefghijk") + ",l:24..25"
    reports = []
    for extra in ([], ["--no-shortcut"]):
        path = tmp_path / f"verify{len(extra)}.json"
        argv = ["verify", "SLnH", "--n", "12", "--box", box, "--report", str(path)]
        assert main(argv + extra) == 0
        assert f"box       : {box}\n" in capsys.readouterr().out
        reports.append(json.loads(path.read_text())["results"])
    assert reports[0]["scanned"] == reports[0]["filtered"] == 2**12
    assert reports[0]["min_margin_sq"] == "62/1"
    assert strip_timing(reports[0]) == strip_timing(reports[1])


@pytest.mark.parametrize("argv,message", [
    # eight ranges for twelve coordinates
    (["verify", "SLnH", "--n", "12", "--box", ",".join(f"{c}:0..1" for c in "abcdefgh")],
     "needs ranges for a,b,c,d,e,f,g,h,i,j,k,l"),
    # more coordinates than letters
    (["verify", "SLnH", "--n", "27"], "named a..z, so at most 26"),
])
def test_boxes_the_coordinates_do_not_fit_exit_2(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["usmall", "count", "G"], ["verify", "G"], ["selftest"],
])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exit_2(command, jobs, capsys):
    assert main(command + ["--jobs", jobs]) == 2
    assert "--jobs: expected a whole number >= 1" in capsys.readouterr().err


@pytest.fixture
def no_process(monkeypatch):
    """Makes starting a multiprocessing pool or process raise."""
    import multiprocessing
    import multiprocessing.process

    def refuse(*args, **kwargs):
        raise AssertionError("a scan started a process")

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


def test_pools_capped_at_work_items(no_process, capsys):
    # u-small counts and scans run in this process whatever --jobs asks for
    assert main(["usmall", "count", "G", "--jobs", "64"]) == 0
    assert capsys.readouterr().out.strip() == "29"
    assert main(["verify", "G", "--box", "a:0..1,b:0..1", "--jobs", "8"]) == 0
    assert main(["verify", "G", "--box", "a:0..0,b:0..0", "--jobs", "8"]) == 0


SEEDED_EII = "a:0..14,b:0..3,c:1..4,d:0..3,e:0..6,f:17..19"


def test_scans_start_no_process(no_process):
    # --jobs is accepted, and every scan runs in this process:
    # a default box, a box of 15 slices, and the selftest's eight boxes
    for argv in (["verify", "EI", "--jobs", "4"],
                 ["verify", "EII", "--box", SEEDED_EII, "--jobs", "2"]):
        assert main(argv) == 0
    assert [item.name for item in run_selftest() if not item.ok] == []


@pytest.mark.parametrize("family, box, slices", [
    ("EII", SEEDED_EII, 15),
    ("EVIII", "a:42..42,b:0..15,c:0..15,d:0..15,e:0..15,f:0..15,g:1..16,h:0..15", 16),
], ids=["EII-seeded", "EVIII-last-slice"])
def test_scan_writes_one_record_per_slice_once(family, box, slices, tmp_path, monkeypatch):
    # the records are written once, after the scan: one record per value
    # of the first walked coordinate, which add up to the report, the same
    # for any --jobs (EII's seeded sub-box has its minimum in pass 2 only;
    # the last EVIII slice has no point in pass 1, and its first point of
    # pass 2 is the only one to reach the kernel)
    import liecheck.fastscan as fastscan

    saves = []
    save = fastscan._save_checkpoint

    def recorded(path, records):
        saves.append(path)
        save(path, records)

    monkeypatch.setattr(fastscan, "_save_checkpoint", recorded)
    results = []
    for jobs in ("2", "1"):
        monkeypatch.setenv("LIECHECK_CHECKPOINT_DIR", str(tmp_path / f"ck{jobs}"))
        path = tmp_path / f"jobs{jobs}.json"
        assert main(["verify", family, "--box", box, "--jobs", jobs,
                     "--report", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["parameters"]["jobs"] == int(jobs)
        doc["results"].pop("elapsed_ms")
        results.append(doc["results"])
        records = json.loads(open(saves[-1], encoding="utf-8").read())["slices"]
        assert len(records) == slices
        assert sum(r["scanned"] for r in records.values()) == doc["results"]["scanned"]
        assert sum(r["filtered"] for r in records.values()) == doc["results"]["filtered"]
    assert len(saves) == 2 and saves[0] != saves[1]
    assert results[0] == results[1]


def test_verify_progress_prints_one_line_after_the_scan(tmp_path, capsys):
    # --progress adds one line, printed when the scan ends and before the
    # summary, that counts no slices; the report does not change
    outputs, docs = [], []
    for extra in ([], ["--progress"]):
        path = tmp_path / f"progress{len(extra)}.json"
        argv = ["verify", "EII", "--box", SEEDED_EII, "--report", str(path)]
        assert main(argv + extra) == 0
        outputs.append(capsys.readouterr().out.splitlines())
        docs.append(strip_timing(json.loads(path.read_text())))
    plain, progress = outputs
    assert progress[1:] == plain
    assert progress[0].startswith("scan done, ") and "slice" not in progress[0]
    assert docs[0] == docs[1]


# Rows that reach the margin kernel and the row screen, and vertices of the
# simplex screen, in a scan of the EII box, of the last EIX slice, of the
# first EVI slice and of the last EVIII slice, whose first point, alone in
# the kernel, is its minimum
SCAN_WORK = {
    ("EII", "default"): (1_147, 17_076, 28_503),
    ("EIX", "a:0..11,b:0..11,c:0..9,d:0..9,e:0..9,f:0..11,g:1..12,h:55..55"):
        (277, 1_261, 22_447),
    ("EVI", "a:0..22,b:0..7,c:0..7,d:0..7,e:0..7,f:1..8,g:1..1"): (1_206, 7_762, 30_738),
    ("EVIII", "a:42..42,b:0..15,c:0..15,d:0..15,e:0..15,f:0..15,g:1..16,h:0..15"):
        (1, 1_511, 15_171),
}


@pytest.mark.parametrize("family, box", sorted(SCAN_WORK),
                         ids=["EII", "EIX-last-slice", "EVI-first-slice", "EVIII-last-slice"])
def test_scan_work_does_not_depend_on_jobs(family, box, tmp_path, monkeypatch):
    # the rows each screen and the kernel see are the same for any --jobs
    import liecheck.fastscan as fastscan

    work = {}

    def counted(name, size):
        fn = getattr(fastscan, name)

        def wrapper(*args):
            work[name] = work.get(name, 0) + size(*args)
            return fn(*args)

        monkeypatch.setattr(fastscan, name, wrapper)

    counted("bulk_margins_scaled", lambda tables, coords: len(coords))
    counted("margin_lower_bounds", lambda tables, coords: len(coords))
    counted("simplex_lower_bounds",
            lambda tables, corner, axes, reach: len(corner) * (1 + len(axes)))
    names = ("bulk_margins_scaled", "margin_lower_bounds", "simplex_lower_bounds")
    for jobs in ("1", "2"):
        work.clear()
        path = tmp_path / f"jobs{jobs}.json"
        assert main(["verify", family, "--box", box, "--jobs", jobs,
                     "--report", str(path)]) == 0
        assert tuple(work.get(name, 0) for name in names) == SCAN_WORK[family, box]
    if family == "EIX":
        assert Q(json.loads(path.read_text())["results"]["min_margin_sq"]) == 56


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
    return run_selftest()


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
    # every count and all eight default verify boxes are in the one set
    assert "usmall-count-EVIII" in names
    assert "usmall-count-EIX" in names
    assert "verify-box-EV" in names
    # the golden keys that only the acceptance suite read before
    assert {"beta-ktype-EVIII", "min-coset-words-FI", "sp4r-beta-pair",
            "box-threshold-EIX"} <= names
    # the last keys that only tests read: every family and both directions
    data = golden()
    for key, families in (("step-linear-exact", data["step_linear_exact"]),
                          ("step-linear-lower", data["step_linear_lower"]),
                          ("sp4r-min-m", data["sp4r_pencils"])):
        assert {f"{key}-{family}" for family in families} <= names


def test_selftest_detects_perturbed_constant(baseline_items):
    # flipping one golden constant must surface exactly that item
    data = copy.deepcopy(golden())
    data["usmall_counts"]["EI"] = 923
    perturbed = {
        item.name for item in run_selftest(golden_data=data) if not item.ok
    }
    baseline = {item.name for item in baseline_items if not item.ok}
    assert perturbed - baseline == {"usmall-count-EI"}
    assert baseline - perturbed == set()


# One golden figure of each key that selftest reads beside the acceptance
# suite, with a wrong value: the key's path, that value, and its item
PERTURBED_KEYS = [
    (("beta_ktype", "EVIII", 7), 1, "beta-ktype-EVIII"),
    (("min_coset_words", "FI", 3), [3, 2, 0], "min-coset-words-FI"),
    (("sp4r_beta_pair", 1, 1), 2, "sp4r-beta-pair"),
    (("margin_thresholds", "EIX", 7), 57, "box-threshold-EIX"),
    (("step_linear_exact", "FI", "by_variant", "7"), -11, "step-linear-exact-FI"),
    (("step_linear_lower", "EVIII", "offset"), -31, "step-linear-lower-EVIII"),
    (("sp4r_pencils", "ascending", "min_m"), 3, "sp4r-min-m-ascending"),
]


@pytest.mark.parametrize("path, value, name", PERTURBED_KEYS,
                         ids=[name for _, _, name in PERTURBED_KEYS])
def test_selftest_detects_perturbed_golden_key(path, value, name, baseline_items):
    # flipping one figure of a golden key must surface exactly its item
    data = copy.deepcopy(golden())
    *parent, last = path
    figure = data
    for key in parent:
        figure = figure[key]
    figure[last] = value
    perturbed = {
        item.name for item in run_selftest(golden_data=data) if not item.ok
    }
    baseline = {item.name for item in baseline_items if not item.ok}
    assert perturbed - baseline == {name}
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
