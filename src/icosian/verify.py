"""Verification suites: every structural claim checked against frozen values.

Each suite returns a certificate listing named checks with the expected and
observed values, all computed in exact arithmetic.  A handful of checks
record a note where the computation contradicts a commonly printed value;
those notes document the discrepancy without failing the suite, since the
exact result is the one certified here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import dual, polytope, roots
from .coxeter import (a4xc2, orbit, s3_of, s4_of, stabilizer, wd4c3,
                      wd4c3_conjugate, wd4c3_conjugate_pattern, wh3xc2, wh4)
from .errors import InvalidSelector
from .field import HALF, SIGMA, SQRT2, TAU
from .field import ONE as F_ONE
from .groups import (binary_icosahedral, binary_octahedral,
                     binary_tetrahedral, conjugacy_classes, d4_weight_orbits,
                     icosa_class_plus, icosian_seed, t_prime)
from .quaternion import E1, Q_ONE, canonical_sorted


@dataclass
class Check:
    name: str
    passed: bool
    expected: str
    actual: str
    note: str = ""

    def format_line(self) -> str:
        mark = "ok  " if self.passed else "FAIL"
        line = f"{mark} {self.name}: {self.actual}"
        if not self.passed:
            line += f" (expected {self.expected})"
        if self.note:
            line += f"  [{self.note}]"
        return line


@dataclass
class Certificate:
    suite: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format_lines(self) -> list[str]:
        lines = [c.format_line() for c in self.checks]
        verdict = "passed" if self.passed else "FAILED"
        failed = sum(not c.passed for c in self.checks)
        tail = f"suite {self.suite}: {verdict} ({len(self.checks)} checks"
        tail += f", {failed} failing)" if failed else ")"
        return lines + [tail]

    def to_json(self) -> dict:
        return {"suite": self.suite, "passed": self.passed,
                "checks": [asdict(c) for c in self.checks]}


def _show(value) -> str:
    s = str(value)
    if len(s) <= 96:
        return s
    return s[:80] + f"... ({len(s)} chars)"


def _eq(checks, name, expected, actual, note=""):
    checks.append(Check(name, expected == actual, _show(expected), _show(actual), note))


ICOSA_PROFILE = ((1, 1), (2, 1), (3, 20), (4, 30), (5, 12), (5, 12),
                 (6, 20), (10, 12), (10, 12))

EUCLID_PROFILE = (
    (Fraction(-1), 1),
    (Fraction(-1, 2), 56),
    (Fraction(0), 126),
    (Fraction(1, 2), 56),
    (Fraction(1), 1),
)


def suite_table1() -> Certificate:
    cert = Certificate("table1")
    c = cert.checks
    tet, octa, icosa = binary_tetrahedral(), binary_octahedral(), binary_icosahedral()
    _eq(c, "table1.order.2T", 24, len(tet))
    _eq(c, "table1.order.2O", 48, len(octa))
    _eq(c, "table1.order.2I", 120, len(icosa))
    _eq(c, "table1.order.T'", 24, len(t_prime()))
    _eq(c, "table1.closed.2T", True, tet.is_closed())
    _eq(c, "table1.closed.2O", True, octa.is_closed())
    _eq(c, "table1.closed.2I", True, icosa.is_closed())
    tp = set(t_prime().elements)
    _eq(c, "table1.closed.T'", False,
        all(a * b in tp for a in tp for b in tp))
    _eq(c, "table1.2T-in-2O", True, set(tet.elements) <= set(octa.elements))
    _eq(c, "table1.2T-in-2I", True, set(tet.elements) <= set(icosa.elements))
    v1, v2, v3 = d4_weight_orbits()
    _eq(c, "table1.weight-orbit-sizes", (8, 8, 8), (len(v1), len(v2), len(v3)))
    scaled = canonical_sorted(q.scale(SQRT2) for orbitset in (v1, v2, v3)
                              for q in orbitset)
    _eq(c, "table1.T'-from-weight-orbits", tuple(t_prime().elements), tuple(scaled))
    _eq(c, "table1.classes.2I", ICOSA_PROFILE, conjugacy_classes(icosa).profile())
    plus = icosa_class_plus()
    _eq(c, "table1.class-12plus.size", 12, plus.size)
    _eq(c, "table1.class-12plus.scalar", {TAU * HALF},
        {q.component(0) for q in plus.members})
    _eq(c, "table1.class-12plus.order", 10, plus.order)
    return cert


def suite_e8() -> Certificate:
    cert = Certificate("e8")
    c = cert.checks
    system = roots.e8_roots()
    pts = system.roots
    _eq(c, "e8.count", 240, len(pts))
    icosa = set(binary_icosahedral().elements)
    sigma_i = {q.scale(SIGMA) for q in icosa}
    _eq(c, "e8.unit-and-sigma-shell", True, set(pts) == icosa | sigma_i)
    norm_census = Counter(q.norm() for q in pts)
    _eq(c, "e8.norm-census", {F_ONE: 120, SIGMA * SIGMA: 120}, dict(norm_census))
    profiles = roots.euclid_profile_full(system)
    _eq(c, "e8.projection-profile.homogeneous", 1, len(profiles))
    _eq(c, "e8.projection-profile", {EUCLID_PROFILE}, profiles)
    inner, outer = roots.e8_minus_24cells()
    snub = polytope.snub24_vertices()
    _eq(c, "e8.minus-24cells.unit-part", tuple(snub), inner)
    _eq(c, "e8.minus-24cells.sigma-part",
        tuple(canonical_sorted(q.scale(SIGMA) for q in snub)), outer)
    _eq(c, "e8.f4-count", 48, len(roots.f4_roots().roots))
    _eq(c, "e8.d4-count", 24, len(roots.RootSystemData("D4", binary_tetrahedral()).roots))
    return cert


def suite_groups() -> Certificate:
    cert = Certificate("groups")
    c = cert.checks
    big, small = wh4(), wd4c3()
    _eq(c, "groups.order.WH4", 14400, len(big))
    _eq(c, "groups.order.WD4C3", 576, len(small))
    seed = icosian_seed()
    icosa_orbit = orbit(big, seed)
    _eq(c, "groups.WH4-orbit-of-seed", 120, len(icosa_orbit))
    _eq(c, "groups.WH4-orbit-is-2I", True,
        set(icosa_orbit) == set(binary_icosahedral().elements))
    _eq(c, "groups.WH4-stabilizer", 120, len(stabilizer(big, seed)))
    snub_orbit = orbit(small, seed)
    _eq(c, "groups.WD4C3-orbit-of-seed", 96, len(snub_orbit))
    _eq(c, "groups.WD4C3-orbit-is-snub", True,
        set(snub_orbit) == set(polytope.snub24_vertices()))
    _eq(c, "groups.WD4C3-stabilizer", 6, len(stabilizer(small, seed)))
    _eq(c, "groups.order.WH3xC2", 240, len(wh3xc2(seed)))
    _eq(c, "groups.order.A4xC2", 24, len(a4xc2(E1)))
    _eq(c, "groups.order.S4", 24, len(s4_of(t_prime().elements[0])))
    _eq(c, "groups.order.S3", 6, len(s3_of(seed)))
    conj = wd4c3_conjugate(1, 1)
    pattern = wd4c3_conjugate_pattern(1, 1)
    _eq(c, "groups.conjugate-matches-pattern", True, conj == pattern)
    _eq(c, "groups.conjugate-order", 576, len(conj))
    return cert


def suite_snub() -> Certificate:
    cert = Certificate("snub")
    c = cert.checks
    census = polytope.snub_census()
    _eq(c, "snub.counts", (96, 432, 480, 144), census.counts())
    kinds = Counter(cell.kind for cell in census.cells)
    _eq(c, "snub.cell-kinds", {"tetrahedron": 120, "icosahedron": 24}, dict(kinds))
    _eq(c, "snub.euler", 0, census.euler())
    _eq(c, "snub.edge-cell-valences", {3: 288, 4: 144},
        dict(census.edge_cell_valences()))
    _eq(c, "snub.face-cell-incidence", {2}, set(census.face_cell_incidence().values()))
    tp = set(t_prime().elements)
    centers = [cell.normal for cell in census.cells if cell.kind == "tetrahedron"]
    on_tp = sum(1 for q in centers if q in tp)
    _eq(c, "snub.tet-centers-on-T'", 24, on_tp)
    partition = polytope.build_120cell()
    off_tp = canonical_sorted(q for q in centers if q not in tp)
    _eq(c, "snub.tet-centers-off-T'-are-S'", tuple(partition.s_prime), tuple(off_tp))
    _eq(c, "snub.120cell-partition", (600, 24, 96, 192, 288),
        (len(partition.vertices), len(partition.t_prime), len(partition.s_prime),
         len(partition.m), len(partition.n)))
    sums = set(roots.snub_sum_form())
    snub = set(polytope.snub24_vertices())
    scaled_sp = {q.scale(SQRT2) for q in partition.s_prime}
    _eq(c, "snub.sum-form-is-S-plus-sqrt2-S'", True, sums == snub | scaled_sp)
    seed = icosian_seed()
    tets, tcenters = polytope.tetra_cells_at(seed)
    _eq(c, "snub.tets-at-vertex", 5, len(tets))
    _eq(c, "snub.tet-centers-at-vertex-on-T'", 1,
        sum(1 for q in tcenters if q in tp))
    cell = polytope.icosa_cell(Q_ONE)
    cell_pts = {census.vertices[i] for i in cell.vertex_indices}
    _eq(c, "snub.icosa-cell-at-1-is-class-12plus", set(icosa_class_plus().members),
        cell_pts)
    figure = polytope.vertex_figure(seed)
    _eq(c, "snub.vertex-figure-faces", {5: 3, 3: 5}, figure.face_census())
    embeddings = polytope.snub_embeddings_in_600cell()
    _eq(c, "snub.embeddings.count", 5, len(set(embeddings)))
    ok = all(census.counts() == (96, 432, 480, 144)
             for census in polytope.embedding_censuses())
    _eq(c, "snub.embeddings.censuses", True, ok)
    big = polytope.cell_census(binary_icosahedral().elements)
    _eq(c, "snub.600cell-counts", (120, 720, 1200, 600), big.counts())
    small = polytope.cell_census(binary_tetrahedral().elements)
    _eq(c, "snub.24cell-counts", (24, 96, 96, 24), small.counts())
    return cert


def _edge_norms(vertices, face) -> tuple:
    """The squared edge lengths of a face cycle, in increasing order."""
    return tuple(sorted((vertices[a] - vertices[b]).norm()
                        for a, b in zip(face, face[1:] + face[:1])))


def suite_dual() -> Certificate:
    cert = Certificate("dual")
    c = cert.checks
    vertices = dual.dual_vertices()
    _eq(c, "dual.vertex-count", 144, len(vertices))
    tp = set(t_prime().elements)
    sp = set(polytope.build_120cell().s_prime)
    classes = Counter("T'" if v in tp else ("S'" if v in sp else "tau-24cell")
                      for v in vertices)
    _eq(c, "dual.vertex-classes", {"T'": 24, "S'": 96, "tau-24cell": 24},
        dict(classes))
    complex_ = dual.dual_complex()
    _eq(c, "dual.counts", (144, 480, 432, 96), complex_.counts())
    _eq(c, "dual.euler", 0, complex_.euler())
    _eq(c, "dual.face-census", {4: 144, 3: 288}, complex_.face_census())
    _eq(c, "dual.face-cell-incidence", {2}, set(complex_.face_incidence.values()))
    by_class = Counter()
    for q, n in complex_.vertex_cell_counts().items():
        label = "T'" if q in tp else ("S'" if q in sp else "tau-24cell")
        by_class[(label, n)] += 1
    _eq(c, "dual.vertex-cell-counts",
        {("T'", 4): 24, ("S'", 4): 96, ("tau-24cell", 12): 24}, dict(by_class),
        note="each S' vertex sits in 4 cells; a published account says one")
    seed = icosian_seed()
    cell = dual.dual_cell(seed)
    _eq(c, "dual.cell-faces", (3, 6), (len(cell.kites), len(cell.triangles)))
    short = SIGMA ** 4 * HALF
    long_ = HALF
    base = TAU * TAU * HALF
    _eq(c, "dual.kite-metrics", {(short, short, long_, long_)},
        {_edge_norms(cell.vertices, f) for f in cell.kites})
    _eq(c, "dual.triangle-metrics", {(long_, long_, base)},
        {_edge_norms(cell.vertices, f) for f in cell.triangles},
        note="two legs 1/2 and base tau^2/2: the legs are the short sides")
    level = {seed.dot(v) for v in cell.vertices}
    _eq(c, "dual.cell-hyperplane", {dual.LEVEL}, level)
    star = dual.vertex_surroundings(cell.vertices[3])
    _eq(c, "dual.star-layer-sizes", (4, 6, 4), tuple(len(layer) for _, layer in star))
    middle = {q.scale(dual.TAU_OVER_SQRT2.invert()) for q in star[1][1]}
    octa = {Q_ONE, E1} | {q for q in binary_tetrahedral()
                          if q.component(0) == HALF and q.component(1) == HALF}
    _eq(c, "dual.star-middle-octahedron", octa, middle)
    image, _pairs = dual.rotate_cell(seed)
    _eq(c, "dual.rotation-closes", True,
        image.vertex == dual.CELL_ROTATION.apply(seed))
    _eq(c, "dual.rotation-fixes-center", cell.vertices[3],
        dual.CELL_ROTATION.apply(cell.vertices[3]))
    return cert


ORBIT_SIZES = {
    (1, 0, 0, 0): 120, (0, 1, 0, 0): 720, (0, 0, 1, 0): 1200,
    (0, 0, 0, 1): 600, (1, 1, 0, 0): 1440, (1, 0, 1, 0): 3600,
    (1, 0, 0, 1): 2400, (0, 1, 1, 0): 3600, (0, 1, 0, 1): 3600,
    (0, 0, 1, 1): 2400, (1, 1, 1, 0): 7200, (1, 1, 0, 1): 7200,
    (1, 0, 1, 1): 7200, (0, 1, 1, 1): 7200, (1, 1, 1, 1): 14400,
}

ALLOWED_PARTS = {24, 96, 144, 192, 288, 576}


def suite_appendix() -> Certificate:
    cert = Certificate("appendix")
    c = cert.checks
    reports = roots.appendix_decompositions()
    _eq(c, "appendix.orbit-count", 15, len(reports))
    sizes = {r.mask: r.orbit_size for r in reports}
    _eq(c, "appendix.orbit-sizes", ORBIT_SIZES, sizes)
    for r in reports:
        _eq(c, f"appendix.sum.{''.join(map(str, r.mask))}",
            r.orbit_size, sum(r.decomposition))
    parts = {p for r in reports for p in r.decomposition}
    _eq(c, "appendix.part-sizes", True, parts <= ALLOWED_PARTS)
    unmatched = [r.mask for r in reports if not r.matched_lines and not r.flagged_lines]
    _eq(c, "appendix.all-lines-identified", [], unmatched)
    flagged = sorted({line for r in reports for line in r.flagged_lines})
    _eq(c, "appendix.flagged-lines", [5], flagged,
        note="one published line's summands add to 4176, not its stated 3600")
    flagged_reports = [r for r in reports if r.flagged_lines]
    decomposition = {r.decomposition for r in flagged_reports}
    _eq(c, "appendix.flagged-computed",
        {tuple(sorted((144,) + (288,) * 4 + (576,) * 4))}, decomposition)
    return cert


SUITES = {
    "table1": suite_table1,
    "e8": suite_e8,
    "groups": suite_groups,
    "snub": suite_snub,
    "dual": suite_dual,
    "appendix": suite_appendix,
}


def run_suite(name: str) -> list[Certificate]:
    if name == "all":
        return [fn() for fn in SUITES.values()]
    if name not in SUITES:
        raise InvalidSelector(
            f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    return [SUITES[name]()]


def format_certificates(certs) -> str:
    lines = []
    for cert in certs:
        lines.extend(cert.format_lines())
    total = sum(len(c.checks) for c in certs)
    bad = sum(1 for c in certs for ch in c.checks if not ch.passed)
    verdict = "PASS" if bad == 0 else "FAIL"
    lines.append(f"{verdict}: {total - bad}/{total} checks passed")
    return "\n".join(lines)
