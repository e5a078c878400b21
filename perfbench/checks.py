"""Independent answers for the benchmark's operations, and the checks.

Nothing here reads a stored copy of a report. The reference answers come
from the published constants in golden.json (with its errata block applied
by this module), from brute-force lattice counts over the printed
inequality lists, from u-small rows rebuilt from their definition with
``weyl.apply_word``, and from exact Fraction margins (``pencil.step_margin_sq``).

Every check returns a list of problems; an empty list means the output is
correct. ``planted_faults`` feeds each check wrong answers of the kinds a
regression would produce and expects every one to be flagged.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
import json
from fractions import Fraction as Q
from math import gcd, lcm, prod
from pathlib import Path

import numpy as np


def load_golden(root: Path) -> dict:
    """golden.json as printed, with every erratum's correction applied."""
    with open(root / "src" / "liecheck" / "data" / "golden.json", encoding="utf-8") as fh:
        data = json.load(fh)
    fixed = copy.deepcopy(data)
    for erratum in data["errata"]:
        *parents, leaf = erratum["path"]
        node = fixed
        for key in parents:
            node = node[key]
        if node[leaf] != erratum["printed"]:
            raise ValueError(f"erratum {erratum['path']} no longer matches the printed value")
        node[leaf] = erratum["corrected"]
    return fixed


# ---------------------------------------------------------------- lattices


def box_points(ranges):
    return itertools.product(*(range(lo, hi + 1) for lo, hi in ranges))


def _primitive(coeffs, bound):
    scale = lcm(*(Q(c).denominator for c in coeffs), Q(bound).denominator)
    ints = [int(Q(c) * scale) for c in coeffs] + [int(Q(bound) * scale)]
    g = gcd(*ints) or 1
    return tuple(v // g for v in ints[:-1]), ints[-1] // g


def definition_rows(case):
    """u-small rows <mu + 2 rho_c, w xi> <= 2 <rho, xi>, one per (w, xi),
    rebuilt with apply_word; no redundant row is removed."""
    from liecheck.rootdata import inner
    from liecheck.weyl import apply_word

    rows = set()
    for word in case.w1:
        for xi in case.g_fund_weights:
            image = apply_word(word, xi, case.g_restricted)
            coeffs = [inner(fw, image) for fw in case.k_fund_weights]
            bound = 2 * (inner(case.rho, xi) - inner(case.rho_c, image))
            rows.add(_primitive(coeffs, bound))
    return sorted(rows)


class Rows:
    """A system sum(c_i mu_i) <= b with nonnegative coefficients."""

    def __init__(self, rows):
        self.coeffs = np.array([c for c, _ in rows], dtype=np.int64)
        self.bounds = np.array([b for _, b in rows], dtype=np.int64)
        if (self.coeffs < 0).any():
            raise ValueError("lattice counting needs nonnegative coefficients")

    def caps(self):
        out = []
        for k in range(self.coeffs.shape[1]):
            col = self.coeffs[:, k]
            out.append(int((self.bounds[col > 0] // col[col > 0]).min()))
        return out

    def count_in_box(self, ranges, collect=None) -> int:
        """Points of the box meeting every row, by depth-first search with
        the remaining coordinates at their lower ends."""
        lo = np.array([r[0] for r in ranges], dtype=np.int64)
        hi = [r[1] for r in ranges]
        dim = len(ranges)
        rest = [self.coeffs[:, k:] @ lo[k:] for k in range(dim + 1)]
        point = [0] * dim

        def rec(k, slack):
            avail = slack - rest[k + 1]
            col = self.coeffs[:, k]
            if (avail < col * lo[k]).any():
                return 0
            pos = col > 0
            top = hi[k] if not pos.any() else min(hi[k], int((avail[pos] // col[pos]).min()))
            if k == dim - 1:
                if collect is not None:
                    for v in range(int(lo[k]), top + 1):
                        point[k] = v
                        collect.append(tuple(point))
                return max(0, top - int(lo[k]) + 1)
            total = 0
            for v in range(int(lo[k]), top + 1):
                point[k] = v
                total += rec(k + 1, slack - col * v)
            return total

        return rec(0, self.bounds.copy())


def dominant_step_box(ranges, beta):
    """The sub-box of mu with mu - beta dominant (semisimple k)."""
    out = [(max(lo, b), hi) for (lo, hi), b in zip(ranges, beta)]
    return None if any(lo > hi for lo, hi in out) else out


def filtered_by_rows(rows: Rows, ranges, beta) -> int:
    """Box points that are u-large with mu - beta dominant: the dominant
    sub-box minus its u-small points."""
    sub = dominant_step_box(ranges, beta)
    if sub is None:
        return 0
    return prod(hi - lo + 1 for lo, hi in sub) - rows.count_in_box(sub)


def filtered_numpy(rows, ranges, beta, center: bool) -> int:
    """The same count as a numpy sweep over the whole box, slice by slice of
    the first coordinate; rows may have negative coefficients (SP4R)."""
    coeffs = np.array([c for c, _ in rows], dtype=np.int64)
    bounds = np.array([b for _, b in rows], dtype=np.int64)
    beta = np.array(beta, dtype=np.int64)
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in ranges[1:]]
    grid = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    total = 0
    for first in range(ranges[0][0], ranges[0][1] + 1):
        pts = np.column_stack([np.full(len(grid), first, dtype=np.int64), grid])
        large = ~(pts @ coeffs.T <= bounds).all(axis=1)
        step = pts - beta
        if center:  # (p, q) with p >= q; the k root pairs to p - q
            dom = (pts[:, 0] >= pts[:, 1]) & (step[:, 0] >= step[:, 1])
        else:
            dom = (step >= 0).all(axis=1)
        total += int((large & dom).sum())
    return total


def is_filtered(rows, mu, beta, center: bool) -> bool:
    small = all(sum(c * m for c, m in zip(cs, mu)) <= b for cs, b in rows)
    step = [m - b for m, b in zip(mu, beta)]
    if center:
        return not small and mu[0] >= mu[1] and step[0] >= step[1]
    return not small and all(s >= 0 for s in step)


# ------------------------------------------------------------ verify checks


def verify_reference(ctx, op):
    """Everything a verify payload is checked against, computed once."""
    from liecheck.pencil import step_margin_sq

    fam, ranges = op.family, op.box
    case = ctx.case(fam)
    center = case.k_has_center
    beta = list(ctx.golden["sp4r_beta_pair"][0]) if center else ctx.golden["beta_ktype"][fam]
    ref = {"scanned": prod(hi - lo + 1 for lo, hi in ranges)}
    printed = ctx.golden["usmall_rows"].get(fam)
    if printed is not None:
        rows = [(tuple(c), b) for c, b in printed]
        ref["filtered"] = filtered_numpy(rows, ranges, beta, center)
    else:
        rows = definition_rows(case)
        ref["filtered"] = filtered_by_rows(Rows(rows), ranges, beta)
    if fam in ctx.BRUTE_FORCE:
        margins = {
            mu: step_margin_sq(case, mu)
            for mu in box_points(ranges)
            if is_filtered(rows, mu, beta, center)
        }
        ref["brute"] = {
            "filtered": len(margins),
            "min": min(margins.values()) if margins else None,
            "violations": sorted((list(mu), m) for mu, m in margins.items() if m <= 0),
        }
    else:
        rng = ctx.rng(f"sample-{op.name}")
        sample, tries = [], 0
        while len(sample) < ctx.SAMPLE and tries < 20000:
            tries += 1
            mu = tuple(rng.randint(lo, hi) for lo, hi in ranges)
            if mu not in sample and is_filtered(rows, mu, beta, center):
                sample.append(mu)
        ref["sample"] = [(list(mu), step_margin_sq(case, mu)) for mu in sample]
    return ref


def check_verify(op, out, ref):
    problems = []
    res = out["results"]
    want_rc = 0 if op.clean else 1
    if out["rc"] != want_rc:
        problems.append(f"exit code {out['rc']}, want {want_rc}")
    if res["scanned"] != ref["scanned"]:
        problems.append(f"scanned {res['scanned']}, box has {ref['scanned']} points")
    if res["filtered"] != ref["filtered"]:
        problems.append(f"filtered {res['filtered']}, independent count {ref['filtered']}")
    low = None if res["min_margin_sq"] is None else Q(res["min_margin_sq"])
    violations = [(v["coords"], Q(v["margin_sq"])) for v in res["violations"]]
    if op.clean:
        if violations:
            problems.append(f"{len(violations)} violations in a published box")
        if low is None or low <= 0:
            problems.append(f"min_margin_sq {low} is not positive")
    if any(m > 0 for _, m in violations):
        problems.append("a reported violation has a positive margin")
    if "brute" in ref:
        brute = ref["brute"]
        if res["filtered"] != brute["filtered"]:
            problems.append(f"filtered {res['filtered']}, brute force {brute['filtered']}")
        if low != brute["min"]:
            problems.append(f"min_margin_sq {low}, brute force {brute['min']}")
        if violations != brute["violations"]:
            problems.append(f"violations {violations}, brute force {brute['violations']}")
    else:
        for mu, margin in ref["sample"]:
            if low is None or margin < low:
                problems.append(f"exact margin {margin} at {mu} is below min {low}")
        if not ref["sample"]:
            problems.append("no filtered point found to sample")
    return problems


def check_checkpoint(op, out, ref):
    """The checkpoint of a fresh directory holds one record per slice, and
    the records add up to the report."""
    ck = out.get("checkpoint")
    if ck is None:
        return []
    res = out["results"]
    slices = ck["slices"]
    problems = []
    longest = max(hi - lo + 1 for lo, hi in op.box)
    if len(slices) != longest:
        problems.append(f"checkpoint has {len(slices)} slices, want {longest}")
    for key in ("scanned", "filtered"):
        total = sum(rec[key] for rec in slices.values())
        if total != res[key]:
            problems.append(f"checkpoint {key} sums to {total}, report says {res[key]}")
    if any(rec["violations"] for rec in slices.values()) != bool(res["violations"]):
        problems.append("checkpoint and report disagree on violations")
    return problems


# ------------------------------------------------------------- exact checks


def _shifts(golden, fam):
    if fam == "SP4R":
        return sorted(tuple(Q(c) for c in row) for row in golden["sp4r_rho_n_ambient"])
    rows = golden["rho_n_ktype"].get(fam)
    return None if rows is None else sorted(tuple(Q(c) for c in row) for row in rows)


def check_case_show(op, out, ref):
    res, g, fam = out["results"], ref["golden"], op.family
    problems = []
    if out["rc"] != 0:
        problems.append(f"exit code {out['rc']}")
    if res["num_variants"] != g["min_coset_counts"][fam]:
        problems.append(f"|W1| {res['num_variants']}, printed {g['min_coset_counts'][fam]}")
    if len(res["spin_shifts"]) != res["num_variants"]:
        problems.append("one spin shift per coset representative is missing")
    want = _shifts(g, fam)
    got = sorted(tuple(Q(c) for c in row) for row in res["spin_shifts"])
    if want is not None and got != want:
        problems.append(f"spin shifts {got}, printed {want}")
    beta = g["beta_ktype"].get(fam)
    if beta is not None and res["step_direction"] != beta:
        problems.append(f"step direction {res['step_direction']}, printed {beta}")
    return problems


def check_w1(op, out, ref):
    res, g, fam = out["results"], ref["golden"], op.family
    problems = []
    if out["rc"] != 0:
        problems.append(f"exit code {out['rc']}")
    if res["size"] != g["min_coset_counts"][fam] or len(res["words"]) != res["size"]:
        problems.append(f"|W1| {res['size']}, printed {g['min_coset_counts'][fam]}")
    printed = g["min_coset_words"].get(fam)
    if printed is not None and res["words"] != [[i + 1 for i in w] for w in printed]:
        problems.append("coset words differ from the printed list")
    return problems


def check_validate(op, out, ref):
    bad = [name for name, ok in out["checks"] if not ok]
    problems = [f"validate_case fails {bad}"] if bad else []
    if not out["checks"]:
        problems.append("validate_case ran no checks")
    return problems


def count_reference(ctx, fam):
    """u-small count from the printed rows where the paper prints them, else
    from the definition rows; SP4R (rows with a sign) by a grid sweep."""
    case = ctx.case(fam)
    printed = ctx.golden["usmall_rows"].get(fam)
    if case.k_has_center:
        rows = [(tuple(c), b) for c, b in printed]
        pts = [(p, s) for p in range(-20, 21) for s in range(-20, p + 1)]
        return sum(all(c[0] * p + c[1] * s <= b for c, b in rows) for p, s in pts)
    rows = Rows(printed if printed is not None else definition_rows(case))
    return rows.count_in_box([(0, cap) for cap in rows.caps()])


def check_count(op, out, ref):
    got = out["results"]["count"]
    problems = [] if out["rc"] == 0 else [f"exit code {out['rc']}"]
    if got != ref["golden"]["usmall_counts"][op.family]:
        problems.append(f"count {got}, published {ref['golden']['usmall_counts'][op.family]}")
    if got != ref["count"]:
        problems.append(f"count {got}, independent lattice count {ref['count']}")
    return problems


def check_bounds(op, out, ref):
    res, g, fam = out["results"], ref["golden"], op.family
    problems = [] if out["rc"] == 0 else [f"exit code {out['rc']}"]
    got = [Q(v) for v in res["parabolic"]]
    # w0 of k sends the dominant beta lowest, so no parabolic bound lies
    # below the naive one; EIV has no printed table and gets only this test
    if any(v < Q(res["naive"]) for v in got):
        problems.append(f"a parabolic bound in {got} is below the naive bound {res['naive']}")
    printed = g["parabolic_bounds"].get(fam, got)
    if len(got) != len(printed):
        problems.append(f"{len(got)} parabolic bounds, printed {len(printed)}")
    for k, (value, want) in enumerate(zip(got, printed), start=1):
        ok = value > 0 if want == "pos" else value >= 0 if want == "nonneg" else value == Q(want)
        if not ok:
            problems.append(f"parabolic bound k={k} is {value}, printed {want}")
    naive = g["naive_bounds"].get(fam)
    if naive is not None and Q(res["naive"]) != Q(naive):
        problems.append(f"naive bound {res['naive']}, printed {naive}")
    return problems


def check_sp4r(op, out, ref):
    res, pencils = out["results"], ref["golden"]["sp4r_pencils"]
    problems = [] if out["rc"] == 0 else [f"exit code {out['rc']}"]
    for direction in ("descending", "ascending"):
        by_m = {row["m"]: row for row in res[direction]}
        if sorted(by_m) != list(range(pencils[direction]["min_m"], op.m_max + 1)):
            problems.append(f"{direction}: members {sorted(by_m)[:3]}... do not run to {op.m_max}")
        for m in range(5, op.m_max + 1):
            row = by_m.get(m)
            if row is None:
                continue
            values = [Q(row[f"{key}_sq"]) for key in ("good", "mid", "bad")]
            for key, value in zip(("good", "mid", "bad"), values):
                a, b, c = pencils[direction][key]
                if value != a * m * m + b * m + c:
                    problems.append(f"{direction} m={m} {key}: {value} != {a}m^2{b:+d}m{c:+d}")
            if not values[0] < values[1] < values[2]:
                problems.append(f"{direction} m={m}: not good < mid < bad")
    return problems


def scaled_norms(case, coords):
    """Squared spin norms from the scaled-integer engine, as Fractions."""
    from liecheck.fastscan import build_tables, bulk_spin_sq_scaled

    tables = build_tables(case)
    vals = bulk_spin_sq_scaled(tables, np.array(coords, dtype=np.int64))
    return [Q(int(v), tables.scale) for v in vals]


def norm_range(case):
    from liecheck.rootdata import norm_sq

    return norm_sq(case.rho_c), norm_sq(case.rho)


def dump_reference(ctx, fam):
    case = ctx.case(fam)
    rows = Rows(ctx.golden["usmall_rows"][fam])
    points = []
    rows.count_in_box([(0, cap) for cap in rows.caps()], collect=points)
    points.sort()
    return {"points": points, "range": norm_range(case), "scaled": scaled_norms(case, points)}


def check_dump(op, out, ref):
    problems = [] if out["rc"] == 0 else [f"exit code {out['rc']}"]
    reader = csv.reader(io.StringIO(out["dump"]))
    header = next(reader, [])
    body = list(reader)
    coords = [tuple(int(x) for x in row[:-1]) for row in body]
    norms = [Q(row[-1]) for row in body]
    if header[-1:] != ["spin_norm_sq"]:
        problems.append(f"dump header {header}")
    if out["results"]["count"] != len(body):
        problems.append(f"report count {out['results']['count']}, dump has {len(body)} rows")
    if sorted(coords) != ref["points"]:
        problems.append(f"dumped {len(coords)} k-types, the printed rows admit {len(ref['points'])}")
        return problems
    lo, hi = ref["range"]
    exact = dict(zip(ref["points"], ref["scaled"]))
    for mu, value in zip(coords, norms):
        if not lo <= value <= hi:
            problems.append(f"norm {value} at {mu} outside [{lo}, {hi}]")
        if value != exact[mu]:
            problems.append(f"norm {value} at {mu}, scaled engine gives {exact[mu]}")
        if len(problems) > 5:
            break
    return problems


def spin_reference(ctx, op):
    case = ctx.case(op.family)
    return {"range": norm_range(case), "scaled": scaled_norms(case, [op.mu])[0]}


def check_spin(op, out, ref):
    problems = [] if out["rc"] == 0 else [f"exit code {out['rc']}"]
    value = Q(out["results"]["spin_norm_sq"])
    lo, hi = ref["range"]
    if out["results"]["mu"] != list(op.mu):
        problems.append(f"report is for {out['results']['mu']}, asked {op.mu}")
    if not lo <= value <= hi:
        problems.append(f"norm {value} outside [{lo}, {hi}]")
    if value != ref["scaled"]:
        problems.append(f"norm {value}, scaled engine gives {ref['scaled']}")
    return problems


# ----------------------------------------------------------- planted faults


def _bump(text, delta):
    return f"{Q(text) + delta}"


def planted_faults(op, out):
    """Wrong answers of the kinds a regression produces, for this op."""
    faults = []

    def plant(label, change):
        bad = copy.deepcopy(out)
        change(bad)
        faults.append((label, bad))

    kind = op.kind
    if kind == "verify":
        res = "results"
        plant("filtered off by one", lambda o: o[res].__setitem__("filtered", o[res]["filtered"] + 1))
        plant("scanned off by one", lambda o: o[res].__setitem__("scanned", o[res]["scanned"] + 1))
        plant("minimum of 0", lambda o: o[res].__setitem__("min_margin_sq", "0/1"))
        if out[res]["violations"]:
            plant("dropped violation", lambda o: o[res]["violations"].pop())
        else:
            plant("invented violation", lambda o: o[res]["violations"].append(
                {"coords": [0] * len(op.box), "margin_sq": "0/1"}))
        if "checkpoint" in out:
            plant("checkpoint slice lost", lambda o: o["checkpoint"]["slices"].popitem())
    elif kind in ("count",):
        plant("count off by one", lambda o: o["results"].__setitem__("count", o["results"]["count"] + 1))
    elif kind == "case_show":
        plant("|W1| off by one", lambda o: o["results"].__setitem__("num_variants", o["results"]["num_variants"] + 1))
        plant("spin shift dropped", lambda o: o["results"]["spin_shifts"].pop())
    elif kind == "w1":
        plant("|W1| off by one", lambda o: o["results"].__setitem__("size", o["results"]["size"] + 1))
    elif kind == "validate":
        plant("check failing", lambda o: o["checks"].__setitem__(0, (o["checks"][0][0], False)))
    elif kind == "bounds":
        plant("bound below the naive bound", lambda o: o["results"]["parabolic"].__setitem__(
            0, _bump(o["results"]["naive"], -1)))
    elif kind == "sp4r":
        plant("closed form off by one", lambda o: o["results"]["ascending"][-1].__setitem__(
            "mid_sq", _bump(o["results"]["ascending"][-1]["mid_sq"], 1)))
    elif kind == "dump":
        def last_norm(o):
            lines = o["dump"].rstrip("\n").split("\n")
            *head, last = lines[-1].rsplit(",", 1)
            lines[-1] = ",".join(head + [_bump(last, Q(1, 7))])
            o["dump"] = "\n".join(lines) + "\n"

        plant("norm changed", last_norm)
        plant("row dropped", lambda o: o.__setitem__("dump", o["dump"].rstrip("\n").rsplit("\n", 1)[0] + "\n"))
    elif kind == "spin":
        plant("norm changed", lambda o: o["results"].__setitem__(
            "spin_norm_sq", _bump(o["results"]["spin_norm_sq"], 1)))
    return faults
