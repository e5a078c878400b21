"""The three workloads: what each sets up, and the operations of one round.

An operation is a CLI command run through ``report_cli.main`` with
``--report``, or, where no command exists, the public library function.
Each operation names the check that judges its output (see checks.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from checks import Rows, load_golden

LETTERS = "abcdefgh"

# Left out of exact-tables to keep every run of the benchmark short: see
# README.md ("What is not a workload").
EXACT_FAMILIES = (
    "SL2nR", "SL2n1R", "SLnH", "EI", "EII", "EIV", "EV", "EVI", "FI", "FII", "G", "SP4R",
)
CLASSICAL = ("SL2nR", "SL2n1R", "SLnH")
CLASSICAL_N = 2
BOX_FAMILIES = ("G", "FII", "EIV", "EI", "FI", "EII")
EVI_SLICE = (1, 1)  # the first slice of the EVI box, g = 1
SP4R_BOX = ((-3, 4), (-4, 3))
SLICE_FAMILIES = ("EVIII", "EIX")
SPIN_SAMPLE = 16


@dataclass
class Op:
    name: str
    kind: str
    family: str | None = None
    argv: tuple = ()
    call: object = None
    box: tuple | None = None
    clean: bool = True  # a verify box expected to hold no violation
    mu: tuple | None = None
    m_max: int = 0
    checkpoint: bool = False


def render(family, box):
    names = "pq" if family == "SP4R" else LETTERS
    return ",".join(f"{n}:{lo}..{hi}" for n, (lo, hi) in zip(names, box))


def last_slice(box):
    """The box with its longest coordinate (first on ties) fixed at its top
    value: the last slice a --jobs run of that box hands out."""
    k = max(range(len(box)), key=lambda i: (box[i][1] - box[i][0], -i))
    return tuple((box[i][1], box[i][1]) if i == k else tuple(box[i]) for i in range(len(box)))


class Context:
    """Seeded inputs, the golden data with errata, and case lookups."""

    BRUTE_FORCE = ("G", "FII", "EIV", "SP4R")
    SAMPLE = 6

    def __init__(self, root: Path, seed: int, modules):
        self.seed = seed
        self.modules = modules
        self.golden = load_golden(root)

    def rng(self, label):
        return random.Random(f"{self.seed}:{label}")

    def case(self, family):
        n = CLASSICAL_N if family in CLASSICAL else None
        return self.modules["cases"].get_case(family, n)


class Workload:
    name = ""
    families: tuple = ()
    usmall: tuple = ()
    tables: tuple = ()

    def setup(self, ctx):
        """Build what the operations use: cases, u-small systems, tables."""
        m = ctx.modules
        for fam in self.families:
            ctx.case(fam)
        for fam in self.usmall:
            m["usmall"].usmall_system(ctx.case(fam))
        for fam in self.tables:
            m["fastscan"].build_tables(ctx.case(fam))

    def ops(self, ctx, jobs=None):
        raise NotImplementedError


class PaperBoxes(Workload):
    name = "paper-boxes"
    families = BOX_FAMILIES + ("EVI", "SP4R")
    usmall = families
    tables = families

    def ops(self, ctx, jobs=None):
        boxes = ctx.golden["boxes"]
        out = [
            Op(f"verify {f}", "verify", f, ("verify", f, "--jobs", "1"), box=tuple(map(tuple, boxes[f])))
            for f in BOX_FAMILIES
        ]
        evi = tuple(map(tuple, boxes["EVI"][:-1])) + (EVI_SLICE,)
        out.append(Op("verify EVI g:1..1", "verify", "EVI",
                      ("verify", "EVI", "--box", render("EVI", evi), "--jobs", "1"), box=evi))
        out.append(Op("verify SP4R", "verify", "SP4R",
                      ("verify", "SP4R", "--box", render("SP4R", SP4R_BOX), "--jobs", "1"),
                      box=SP4R_BOX, clean=False))
        return out


class LongSlices(Workload):
    name = "long-slices"
    families = SLICE_FAMILIES
    usmall = families
    tables = families
    jobs = 2

    def ops(self, ctx, jobs=None):
        jobs = jobs or self.jobs
        out = []
        for f in SLICE_FAMILIES:
            box = last_slice(ctx.golden["boxes"][f])
            out.append(Op(f"verify {f} last slice", "verify", f,
                          ("verify", f, "--box", render(f, box), "--jobs", str(jobs)),
                          box=box, checkpoint=True))
        return out


class ExactTables(Workload):
    name = "exact-tables"
    families = EXACT_FAMILIES
    usmall = tuple(f for f in EXACT_FAMILIES if f not in CLASSICAL)

    def ops(self, ctx, jobs=None):
        m = ctx.modules
        fixed = self.usmall
        exceptional = tuple(f for f in fixed if f != "SP4R")

        def sized(f):
            return ("--n", str(CLASSICAL_N)) if f in CLASSICAL else ()

        def validate(f):
            def run():
                case = m["cases"].get_case(f, CLASSICAL_N if f in CLASSICAL else None)
                return {"checks": [(c.name, c.ok) for c in m["cases"].validate_case(case)]}
            return run

        out = [Op(f"case show {f}", "case_show", f, ("case", "show", f) + sized(f)) for f in EXACT_FAMILIES]
        out += [Op(f"w1 {f}", "w1", f, ("w1", f, "--words") + sized(f)) for f in EXACT_FAMILIES]
        out += [Op(f"validate_case {f}", "validate", f, call=validate(f)) for f in EXACT_FAMILIES]
        out += [Op(f"usmall count {f}", "count", f, ("usmall", "count", f)) for f in fixed]
        out += [Op(f"bounds {f}", "bounds", f, ("bounds", f)) for f in exceptional]
        out.append(Op("sp4r pencils", "sp4r", "SP4R", ("sp4r", "pencils", "--m-max", "100"), m_max=100))
        out += [Op(f"usmall dump {f}", "dump", f, ("usmall", "dump", f)) for f in BOX_FAMILIES[:5]]
        rows = Rows(ctx.golden["usmall_rows"]["EII"])
        points = []
        rows.count_in_box([(0, cap) for cap in rows.caps()], collect=points)
        for mu in ctx.rng("EII spin sample").sample(points, SPIN_SAMPLE):
            out.append(Op(f"spin-norm EII {mu}", "spin", "EII",
                          ("spin-norm", "EII", "--mu", ",".join(map(str, mu))), mu=mu))
        return out


WORKLOADS = {w.name: w for w in (PaperBoxes(), LongSlices(), ExactTables())}
