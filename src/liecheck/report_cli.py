"""Command line driver: structured reports, golden regressions, selftest.

Every subcommand prints a human-readable summary to stdout and, with
``--report PATH``, writes a JSON document whose payload is deterministic:
rationals are serialized as "p/q" strings, keys are sorted, and the only
run-dependent fields are elapsed_ms and, for verify, results.elapsed_ms.

Exit codes: 0 success, 1 verification or selftest failure, 2 bad usage
(an SP4R box of more than 2^24 points included) or an output path
(--out, --report, checkpoint directory) that cannot be written, 3 unknown
case label.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction as Q

from . import __version__
from .cases import (
    ALL_FAMILIES,
    CLASSICAL_FAMILIES,
    CaseData,
    ambient_to_ktype,
    get_case,
    list_cases,
    validate_case,
)
from .data import golden
from .errors import ConstructionError, UnknownCaseError, UsageError
from .fastscan import build_tables, bulk_spin_sq_scaled
from .pencil import (
    coordinate_names,
    default_box,
    naive_bound,
    parabolic_bound,
    parse_box,
    sp4r_family,
    sp4r_min_m,
    verify_box,
)
from .rootdata import inner, norm_sq
from .spin import spin_norm_sq, variant_norms_sq
# perfbench/spans.py wraps report_cli.iter_usmall, so the name stays imported
from .usmall import enumerate_usmall, iter_usmall, usmall_chunks, usmall_system


def _encode(value):
    """JSON-safe payload: Fractions become 'p/q' strings, tuples lists."""
    if isinstance(value, Q):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _write_report(path, case_label, command, parameters, results, elapsed_ms):
    doc = {
        "tool_version": __version__,
        "case": case_label,
        "command": command,
        "parameters": _encode(parameters),
        "results": _encode(results),
        "elapsed_ms": int(elapsed_ms),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _case_from_args(args) -> CaseData:
    return get_case(args.case, getattr(args, "n", None))


def _parse_coords(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(
            f"coordinates must be comma-separated integers, got {text!r}"
        ) from None


def _word_text(word) -> str:
    if not word:
        return "e"
    return " ".join(f"s{i + 1}" for i in word)


# ----------------------------------------------------------------- commands
#
# Each cmd_* prints its human-readable summary and returns
# (exit code, (case label, command, parameters, results)); main times the
# call and writes the --report document from that tuple.


def cmd_list_cases(args):
    rows = list_cases()
    print(
        f"{'family':<8} {'param':>5} {'rank(g)':>7} {'rank(k)':>7}"
        f" {'center':>6} {'variants':>8}"
    )
    for d in rows:
        print(
            f"{d.family:<8} {'n' if d.parametrized else '-':>5}"
            f" {d.rank_g:>7} {d.rank_k:>7}"
            f" {'yes' if d.k_has_center else 'no':>6}"
            f" {'-' if d.num_variants is None else d.num_variants:>8}"
        )
    return 0, ("-", "list-cases", {}, {"cases": [asdict(d) for d in rows]})


def cmd_case_show(args):
    case = _case_from_args(args)
    names = coordinate_names(case)

    def vec(v):
        return "(" + ", ".join(map(str, v)) + ")"

    print(f"case {case.id.label}")
    print(f"  ambient dimension : {len(case.rho)}")
    print(f"  restricted rank   : {case.g_restricted.rank}")
    print(f"  positive roots    : {len(case.g_restricted.positive_roots)}")
    print(f"  k rank            : {case.rank_k}"
          f"  (center: {'yes' if case.k_has_center else 'no'})")
    print(f"  k-type coordinates: {', '.join(names)}")
    print(f"  rho               : {vec(case.rho)}")
    print(f"  rho_c             : {vec(case.rho_c)}")
    print(f"  step direction    : {case.beta_ktype}  (ambient {vec(case.beta)})")
    if case.beta_second is not None:
        second = ambient_to_ktype(case, case.beta_second)
        print(f"  second direction  : {second}  (ambient {vec(case.beta_second)})")
    print(f"  |W^1|             : {case.num_variants}")
    print("  spin shifts (k-type coordinates):")
    shifts = [
        v if case.k_has_center else ambient_to_ktype(case, v)
        for v in case.rho_n_variants
    ]
    for j, shift in enumerate(shifts):
        shown = tuple(map(str, shift)) if case.k_has_center else shift
        print(f"    [{j:>3}] {shown}")
    results = {
        "label": case.id.label,
        "ambient_dimension": len(case.rho),
        "positive_roots": len(case.g_restricted.positive_roots),
        "rank_k": case.rank_k,
        "k_has_center": case.k_has_center,
        "coordinate_names": names,
        "rho": case.rho,
        "rho_c": case.rho_c,
        "step_direction": case.beta_ktype,
        "num_variants": case.num_variants,
        "spin_shifts": shifts,
    }
    return 0, (case.id.label, "case show", {}, results)


def cmd_usmall_count(args):
    case = _case_from_args(args)
    count = enumerate_usmall(case)
    print(count)
    return 0, (case.id.label, "usmall count", {"jobs": args.jobs}, {"count": count})


def _usmall_norms(case: CaseData):
    """Every u-small k-type with its exact squared spin norm.

    The norms come from the scaled integer engine, one chunk of the walk
    at a time; the u-small rows bound every coordinate, so the int64 sums
    cannot overflow.
    """
    tables = build_tables(case)
    for chunk in usmall_chunks(case):
        norms = bulk_spin_sq_scaled(tables, chunk)
        for coords, scaled in zip(chunk.tolist(), norms.tolist()):
            yield coords, Q(scaled, tables.scale)


def cmd_usmall_dump(args):
    case = _case_from_args(args)
    names = coordinate_names(case)
    out = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8", newline="")
    count = 0
    try:
        writer = csv.writer(out) if args.format == "csv" else None
        if writer is not None:
            writer.writerow(list(names) + ["spin_norm_sq"])
        for coords, s in _usmall_norms(case):
            text = f"{s.numerator}/{s.denominator}"
            if writer is not None:
                writer.writerow(coords + [text])
            else:
                row = {"coords": coords, "spin_norm_sq": text}
                out.write(json.dumps(row, sort_keys=True) + "\n")
            count += 1
    finally:
        if out is not sys.stdout:
            out.close()
    if args.out != "-":
        print(f"wrote {count} rows to {args.out}")
    parameters = {"format": args.format, "out": args.out}
    return 0, (case.id.label, "usmall dump", parameters, {"count": count})


def cmd_spin_norm(args):
    case = _case_from_args(args)
    coords = _parse_coords(args.mu)
    value = spin_norm_sq(case, coords)
    print(value)
    results = {"mu": coords, "spin_norm_sq": value}
    if args.variants:
        results["variants"] = variant_norms_sq(case, coords)
        for j, v in enumerate(results["variants"]):
            print(f"  [{j:>3}] {v}")
    return 0, (case.id.label, "spin-norm", {"mu": coords}, results)


def cmd_w1(args):
    case = _case_from_args(args)
    print(case.num_variants)
    results = {"size": case.num_variants}
    if args.words:
        for j, word in enumerate(case.w1):
            print(f"  [{j:>3}] {_word_text(word)}")
        results["words"] = [[i + 1 for i in word] for word in case.w1]
    return 0, (case.id.label, "w1", {}, results)


def cmd_bounds(args):
    case = _case_from_args(args)
    naive = naive_bound(case)
    table = [parabolic_bound(case, k) for k in range(1, case.rank_k + 1)]
    print(f"case {case.id.label}")
    print(f"  naive step bound: {naive}")
    print("  parabolic bounds by omitted k-simple root:")
    for k, value in enumerate(table, start=1):
        print(f"    k={k}: {value}")
    return 0, (case.id.label, "bounds", {}, {"naive": naive, "parabolic": table})


def _verify_payload(case: CaseData, rep) -> dict:
    names = coordinate_names(case)
    return {
        "case": rep.case,
        "box": rep.box.render(names),
        "scanned": rep.scanned,
        "filtered": rep.filtered,
        "violations": [
            {"coords": coords, "margin_sq": margin}
            for coords, margin in rep.violations
        ],
        "min_margin_sq": rep.min_margin_sq,
        "elapsed_ms": rep.elapsed_ms,
    }


def cmd_verify(args):
    case = _case_from_args(args)
    box = default_box(case) if args.box == "default" else parse_box(args.box, case)
    rep = verify_box(
        case,
        box,
        shortcut=not args.no_shortcut,
        log=print if args.progress else None,
    )
    names = coordinate_names(case)
    print(f"case      : {case.id.label}")
    print(f"box       : {box.render(names)}")
    print(f"scanned   : {rep.scanned}")
    print(f"filtered  : {rep.filtered}")
    if rep.min_margin_sq is not None:
        print(f"min margin: {rep.min_margin_sq}")
    print(f"violations: {len(rep.violations)}")
    shown = rep.violations[:20]
    for coords, margin in shown:
        print(f"  {coords}: margin {margin}")
    if len(rep.violations) > len(shown):
        print(f"  ... and {len(rep.violations) - len(shown)} more")
    if rep.ok:
        print("OK: every filtered k-type in the box has a strictly positive step margin")
    else:
        print("VIOLATION: some step margins are not strictly positive")
    parameters = {
        "box": box.render(names),
        "jobs": args.jobs,
        "shortcut": not args.no_shortcut,
    }
    return (0 if rep.ok else 1), (
        case.id.label, "verify", parameters, _verify_payload(case, rep)
    )


def cmd_sp4r_pencils(args):
    table = golden()["sp4r_pencils"]
    results = {}
    for direction in ("descending", "ascending"):
        entry = table[direction]
        rows = []
        print(f"{direction} family: member = "
              f"{tuple(entry['start'])} + m*{tuple(entry['direction'])}")
        print(f"  {'m':>4} {'member':>12} {'step-aligned':>14}"
              f" {'member norm':>12} {'step-other':>12}")
        for m in range(sp4r_min_m(direction), args.m_max + 1):
            pt = sp4r_family(m, direction)
            print(
                f"  {m:>4} {str(pt.member):>12} {str(pt.good_sq):>14}"
                f" {str(pt.mid_sq):>12} {str(pt.bad_sq):>12}"
            )
            rows.append({"m": m, **asdict(pt)})
        results[direction] = rows
    return 0, ("SP4R", "sp4r pencils", {"m_max": args.m_max}, results)


# ----------------------------------------------------------------- selftest


@dataclass
class SelftestItem:
    name: str
    expected: str
    computed: str
    ok: bool


def _quad(coeffs, m: int) -> int:
    a, b, c = coeffs
    return a * m * m + b * m + c


def _sorted_tuples(vectors) -> list[tuple]:
    return sorted(tuple(v) for v in vectors)


def _at_path(data, path):
    for key in path:
        data = data[key]
    return data


def _row_list(rows) -> list:
    """Inequality rows (coeffs, bound) as a sorted list in golden form."""
    return sorted([list(coeffs), bound] for coeffs, bound in rows)


def _fit_quad(f, ms):
    """Integer coefficients [a, b, c] with f(m) = a m^2 + b m + c for every
    m in ms, or None when no such quadratic exists."""
    m0 = ms[0]
    f0, f1, f2 = f(m0), f(m0 + 1), f(m0 + 2)
    a = Q(f2 - 2 * f1 + f0, 2)
    b = f1 - f0 - a * (2 * m0 + 1)
    c = f0 - a * m0 * m0 - b * m0
    coeffs = [a, b, c]
    if any(Q(x).denominator != 1 for x in coeffs):
        return None
    coeffs = [int(x) for x in coeffs]
    return coeffs if all(_quad(coeffs, m) == f(m) for m in ms) else None


def _text(values) -> str:
    """Rationals in the list form golden.json prints: [3, -1/2]."""
    return "[" + ", ".join(map(str, values)) + "]"


def _step_linear(case: CaseData) -> tuple[list[Q], list[Q]]:
    """The linear term of a step at variant j, sum_i coeffs_i m_i +
    consts_j: coeffs_i = 2<omega_i, beta> over the fundamental weights of
    k, and consts_j = -2<rho_n^j, beta> - |beta|^2."""
    beta = case.beta
    coeffs = [2 * inner(w, beta) for w in case.k_fund_weights]
    consts = [-2 * inner(v, beta) - norm_sq(beta) for v in case.rho_n_variants]
    return coeffs, consts


def _bound_matches(computed: Q, expected) -> bool:
    if expected == "pos":
        return computed > 0
    if expected == "nonneg":
        return computed >= 0
    return computed == Q(expected)


def run_selftest(golden_data=None, log=None):
    """Recompute every tabulated constant and compare against the golden data.

    Every golden u-small count is recounted, and the published boxes of G,
    FII, EIV, EI, FI, EII, EVI and EV are scanned; the EVIII and EIX boxes
    are left to ``verify``, which takes 2 to 4 seconds on each.

    Figures with a recorded erratum are compared in their corrected form,
    and each erratum is an item of its own: printed and corrected value,
    ok when the recomputation gives the corrected value.

    golden_data overrides the packaged table (used by the negative tests);
    log, when given, receives one formatted line per finished item.
    """
    data = golden_data if golden_data is not None else golden()
    errata = {tuple(entry["path"]): entry for entry in data["errata"]}
    items: list[SelftestItem] = []

    def published(*path):
        """The golden figure at path, with its recorded erratum applied."""
        if path in errata:
            return errata[path]["corrected"]
        return _at_path(data, path)

    def add(name, expected, computed, ok):
        item = SelftestItem(name, str(expected), str(computed), bool(ok))
        items.append(item)
        if log is not None:
            status = "ok " if item.ok else "FAIL"
            log(f"  {status} {item.name:<28} expected {item.expected}"
                f" | computed {item.computed}")
        return item

    def sample_case(family):
        return get_case(family, 2 if family in CLASSICAL_FAMILIES else None)

    for family in ALL_FAMILIES:
        case = sample_case(family)
        checks = validate_case(case)
        bad = [c.name for c in checks if not c.ok]
        add(
            f"validate-{family}",
            "all internal checks pass",
            f"{len(checks)} checks pass" if not bad else "failed: " + ", ".join(bad),
            not bad,
        )

    counts = {}
    for family in data["usmall_counts"]:
        expected = published("usmall_counts", family)
        counts[family] = count = enumerate_usmall(get_case(family))
        add(f"usmall-count-{family}", expected, count, count == expected)

    for family, expected in data["min_coset_counts"].items():
        case = sample_case(family)
        add(f"w1-size-{family}", expected, case.num_variants,
            case.num_variants == expected)

    for family, printed in data["rho_n_ktype"].items():
        case = get_case(family)
        computed = _sorted_tuples(
            ambient_to_ktype(case, v) for v in case.rho_n_variants
        )
        expected = _sorted_tuples(tuple(row) for row in printed)
        add(f"rho-n-{family}", expected, computed, computed == expected)

    sp4r = get_case("SP4R")
    expected_amb = _sorted_tuples(
        tuple(Q(c) for c in row) for row in data["sp4r_rho_n_ambient"]
    )
    computed_amb = _sorted_tuples(sp4r.rho_n_variants)
    add(
        "rho-n-SP4R",
        [tuple(str(c) for c in row) for row in expected_amb],
        [tuple(str(c) for c in row) for row in computed_amb],
        computed_amb == expected_amb,
    )
    printed = [[str(Q(c)) for c in v] for v in data["sp4r_beta_pair"]]
    computed = [[str(c) for c in v] for v in (sp4r.beta, sp4r.beta_second)]
    add("sp4r-beta-pair", printed, computed, computed == printed)

    for key, of in (("beta_ktype", lambda case: list(case.beta_ktype)),
                    ("min_coset_words", lambda case: [list(w) for w in case.w1])):
        for family, printed in data[key].items():
            computed = of(get_case(family))
            add(f"{key.replace('_', '-')}-{family}", printed, computed, computed == printed)

    for family, thresholds in data["margin_thresholds"].items():
        edges = [hi for _, hi in data["boxes"][family]]
        expected = [t - 1 for t in thresholds]
        add(f"box-threshold-{family}", expected, edges, edges == expected)

    for family, printed in data["parabolic_bounds"].items():
        case = get_case(family)
        computed = [parabolic_bound(case, k) for k in range(1, case.rank_k + 1)]
        ok = len(computed) == len(printed) and all(
            _bound_matches(c, e) for c, e in zip(computed, printed)
        )
        add(
            f"bounds-{family}",
            printed,
            [str(c) for c in computed],
            ok,
        )

    for family, expected in data["naive_bounds"].items():
        case = get_case(family)
        computed = naive_bound(case)
        add(f"naive-bound-{family}", expected, computed, computed == Q(expected))

    for family, entry in data["step_linear_exact"].items():
        coeffs, consts = _step_linear(get_case(family))
        offsets = [entry["by_variant"].get(str(j), entry["default"])
                   for j in range(len(consts))]
        add(
            f"step-linear-exact-{family}",
            f"coeffs {entry['coeffs']}, offsets {offsets}",
            f"coeffs {_text(coeffs)}, offsets {_text(consts)}",
            coeffs == entry["coeffs"] and consts == offsets,
        )

    for family, entry in data["step_linear_lower"].items():
        coeffs, consts = _step_linear(get_case(family))
        add(
            f"step-linear-lower-{family}",
            f"coeffs {entry['coeffs']}, offset {entry['offset']}",
            f"coeffs {_text(coeffs)}, offset {min(consts)}",
            coeffs == entry["coeffs"] and min(consts) == entry["offset"],
        )

    for direction, entry in data["sp4r_pencils"].items():
        min_m = sp4r_min_m(direction)
        add(f"sp4r-min-m-{direction}", entry["min_m"], min_m, min_m == entry["min_m"])

    m_lo, m_hi = 5, 100
    # every SP4R family point the items below read, computed once
    sp4r_points = {
        (m, direction): sp4r_family(m, direction)
        for direction in ("descending", "ascending")
        for m in range(m_lo, m_hi + 1)
    }

    def family_mismatches(direction, keys):
        bad = []
        for m in range(m_lo, m_hi + 1):
            pt = sp4r_points[m, direction]
            for key in keys:
                got = getattr(pt, f"{key}_sq")
                want = _quad(published("sp4r_pencils", direction, key), m)
                if got != want:
                    bad.append(f"m={m} {key}: {got} != {want}")
        return bad

    bad = family_mismatches("descending", ("good", "mid", "bad"))
    add(
        "sp4r-descending",
        f"three closed forms match for m={m_lo}..{m_hi}",
        "all match" if not bad else "; ".join(bad[:3]),
        not bad,
    )
    for key in ("good", "mid", "bad"):
        bad = family_mismatches("ascending", (key,))
        coeffs = published("sp4r_pencils", "ascending", key)
        add(
            f"sp4r-ascending-{key}",
            f"{coeffs[0]}m^2{coeffs[1]:+d}m{coeffs[2]:+d} for m={m_lo}..{m_hi}",
            "all match" if not bad else "; ".join(bad[:3]),
            not bad,
        )

    bad = []
    for direction in ("descending", "ascending"):
        for m in range(m_lo, m_hi + 1):
            pt = sp4r_points[m, direction]
            if not pt.good_sq < pt.mid_sq < pt.bad_sq:
                bad.append(f"{direction} m={m}")
    add(
        "sp4r-orderings",
        f"good < member < bad for m={m_lo}..{m_hi}",
        "all strict" if not bad else "; ".join(bad[:3]),
        not bad,
    )

    for family in ("G", "FII", "EIV", "EI", "FI", "EII", "EVI", "EV"):
        case = get_case(family)
        rep = verify_box(case)
        add(
            f"verify-box-{family}",
            "0 violations",
            f"{len(rep.violations)} violations,"
            f" min margin {rep.min_margin_sq}"
            f" over {rep.filtered} filtered of {rep.scanned} scanned",
            rep.ok,
        )

    def recompute(path):
        """The recomputed value of the figure at path, in its golden form."""
        if path[0] == "usmall_counts":
            return counts[path[1]]
        if path[0] == "usmall_rows":
            return _row_list(usmall_system(get_case(path[1])).rows)
        if path[0] == "sp4r_pencils":
            return _fit_quad(
                lambda m: getattr(sp4r_points[m, path[1]], f"{path[2]}_sq"),
                range(m_lo, m_hi + 1),
            )
        return None

    for path, entry in errata.items():
        printed, corrected = entry["printed"], entry["corrected"]
        computed = recompute(path)
        if path[0] == "usmall_rows":
            printed, corrected = _row_list(printed), _row_list(corrected)
        add(
            "erratum-" + "-".join(path),
            f"printed {printed}, corrected {corrected}",
            "no recomputation for this figure" if computed is None else computed,
            computed == corrected != printed
            and entry["printed"] == _at_path(data, path),
        )

    return items


def cmd_selftest(args):
    items = run_selftest(log=print)
    failures = [item.name for item in items if not item.ok]
    print(f"{len(items)} items, {len(failures)} failed")
    for name in failures:
        print(f"  FAIL {name}")
    results = {"items": [asdict(item) for item in items], "failures": len(failures)}
    return (1 if failures else 0), (
        "-", "selftest", {"jobs": args.jobs}, results
    )


# ----------------------------------------------------------------- parser


def _add_case_argument(sp, with_n=True):
    sp.add_argument("case", help="case label (see list-cases)")
    if with_n:
        sp.add_argument(
            "--n",
            type=int,
            default=None,
            help="size parameter, required for the classical families",
        )


def _add_report_argument(sp):
    sp.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write a JSON report to PATH ('-' for standard output)",
    )


def _job_count(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 1, got {text!r}")
    return jobs


def _add_jobs_argument(sp):
    sp.add_argument(
        "--jobs",
        type=_job_count,
        default=1,
        help="accepted and ignored: every scan and count runs in one process "
        "(default 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecheck",
        description="exact-arithmetic checks for restricted root system data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("list-cases", help="summarize the case registry")
    _add_report_argument(sp)
    sp.set_defaults(func=cmd_list_cases)

    case_parser = sub.add_parser("case", help="inspect one case")
    case_sub = case_parser.add_subparsers(dest="case_command", required=True)
    sp = case_sub.add_parser("show", help="print the case data sheet")
    _add_case_argument(sp)
    _add_report_argument(sp)
    sp.set_defaults(func=cmd_case_show)

    usmall_parser = sub.add_parser("usmall", help="unitarily small k-types")
    usmall_sub = usmall_parser.add_subparsers(dest="usmall_command", required=True)
    sp = usmall_sub.add_parser("count", help="count the u-small k-types")
    _add_case_argument(sp)
    _add_jobs_argument(sp)
    _add_report_argument(sp)
    sp.set_defaults(func=cmd_usmall_count)
    sp = usmall_sub.add_parser(
        "dump", help="write every u-small k-type with its squared spin norm"
    )
    _add_case_argument(sp)
    sp.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    sp.add_argument("--out", default="-", help="output path ('-' for stdout)")
    _add_report_argument(sp)
    sp.set_defaults(func=cmd_usmall_dump)

    sp = sub.add_parser("spin-norm", help="squared spin norm of one k-type")
    _add_case_argument(sp)
    sp.add_argument("--mu", required=True, help="k-type coordinates, e.g. 3,1")
    sp.add_argument(
        "--variants",
        action="store_true",
        help="also print the squared distance for every spin shift",
    )
    _add_report_argument(sp)
    sp.set_defaults(func=cmd_spin_norm)

    sp = sub.add_parser("w1", help="minimal coset representatives")
    _add_case_argument(sp)
    sp.add_argument("--words", action="store_true", help="print the reduced words")
    _add_report_argument(sp)
    sp.set_defaults(func=cmd_w1)

    sp = sub.add_parser("bounds", help="step-margin lower bound tables")
    _add_case_argument(sp)
    _add_report_argument(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("verify", help="scan a box for step-margin violations")
    _add_case_argument(sp)
    sp.add_argument(
        "--box",
        default="default",
        help="'default' (the published box, EVIII and EIX included; for "
        "SL2nR, SL2n1R and SLnH every coordinate in 0..2n+2, whose scan grows "
        "steeply with n) or explicit ranges like a:0..12,b:0..7",
    )
    _add_jobs_argument(sp)
    sp.add_argument(
        "--no-shortcut",
        action="store_true",
        help="evaluate every filtered k-type instead of skipping "
        "provably safe ones",
    )
    sp.add_argument(
        "--progress",
        action="store_true",
        help="print one progress line when the scan ends",
    )
    _add_report_argument(sp)
    sp.set_defaults(func=cmd_verify)

    sp4r_parser = sub.add_parser("sp4r", help="rank-two symplectic extras")
    sp4r_sub = sp4r_parser.add_subparsers(dest="sp4r_command", required=True)
    sp = sp4r_sub.add_parser(
        "pencils", help="closed-form families with their squared spin norms"
    )
    sp.add_argument("--m-max", type=int, default=12, help="largest member index")
    _add_report_argument(sp)
    sp.set_defaults(func=cmd_sp4r_pencils)

    sp = sub.add_parser(
        "selftest",
        help="recompute every tabulated constant and scan eight published boxes",
    )
    _add_jobs_argument(sp)
    _add_report_argument(sp)
    sp.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        t0 = time.monotonic()
        code, (case_label, command, parameters, results) = args.func(args)
        if args.report:
            elapsed_ms = 1000 * (time.monotonic() - t0)
            _write_report(
                args.report, case_label, command, parameters, results, elapsed_ms
            )
        return code
    except UnknownCaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ConstructionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
