"""Acceptance run: the ten headline guarantees, one reported line each.

Every test prints a single PASS/FAIL line even under captured output, so a
plain ``pytest tests/test_acceptance.py`` shows the full scorecard.
"""

import random
from collections import Counter
from fractions import Fraction

from icosian import (Q_ONE, appendix_decompositions, binary_icosahedral,
                     build_120cell, conjugacy_classes, dual_cell, dual_complex,
                     e8_roots, icosian_seed, orbit, orbit_decompose, s3_of,
                     s4_of, snub24_vertices, snub_census, stabilizer, t_prime,
                     tetra_cells_at, vertex_figure, wd4c3, wh4)
from icosian.field import HALF, SIGMA, TAU, FieldElement


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"{label}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{label}: {detail}"


def test_01_binary_icosahedral_group(capsys):
    icosa = binary_icosahedral()
    profile = conjugacy_classes(icosa).profile()
    expected = ((1, 1), (2, 1), (3, 20), (4, 30), (5, 12), (5, 12),
                (6, 20), (10, 12), (10, 12))
    ok = len(icosa.elements) == 120 and profile == expected
    _report(capsys, "01 binary icosahedral group", ok,
            f"|2I| = {len(icosa.elements)}, {len(profile)} conjugacy classes")


def test_02_e8_roots_as_icosians(capsys):
    roots = e8_roots().roots
    icosa = set(binary_icosahedral().elements)
    shells = set(roots) == icosa | {q.scale(SIGMA) for q in icosa}
    unit = all(r.euclid_dot(r) == 1 for r in roots)
    expected_row = ((Fraction(-1), 1), (Fraction(-1, 2), 56), (Fraction(0), 126),
                    (Fraction(1, 2), 56), (Fraction(1), 1))
    rows = {tuple(sorted(Counter(r.euclid_dot(s) for s in roots).items()))
            for r in roots}
    ok = len(roots) == 240 and shells and unit and rows == {expected_row}
    _report(capsys, "02 E8 roots as icosians", ok,
            "240 roots, two shells, homogeneous scalar-product profile")


def test_03_symmetry_group_orders(capsys):
    big = wh4()
    small = wd4c3()
    point_stab = stabilizer(big, Q_ONE)
    h4_ok = (len(big.elements) == 14400 and len(point_stab) == 120
             and len(orbit(big, Q_ONE)) * len(point_stab) == 14400)
    center = t_prime().elements[0]
    vertex = snub24_vertices()[0]
    s4_ok = (len(s4_of(center).elements) == 24
             and len(orbit(small, center)) * 24 == 576)
    s3_ok = (len(s3_of(vertex).elements) == 6
             and len(orbit(small, vertex)) * 6 == 576)
    ok = h4_ok and len(small.elements) == 576 and s4_ok and s3_ok
    _report(capsys, "03 symmetry group orders", ok,
            "14400 / 576 / 120 / 24 / 6 with orbit-stabilizer identities")


def test_04_point_decompositions(capsys):
    small = wd4c3()
    split_120 = orbit_decompose(small, binary_icosahedral().elements).sizes
    split_600 = orbit_decompose(small, build_120cell().vertices).sizes
    ok = split_120 == (24, 96) and split_600 == (24, 96, 192, 288)
    _report(capsys, "04 point decompositions", ok,
            f"120 = {'+'.join(map(str, split_120))}, "
            f"600 = {'+'.join(map(str, split_600))}")


def test_05_snub_census(capsys):
    complex_ = snub_census()
    kinds = Counter(c.kind for c in complex_.cells)
    degrees = Counter()
    for a, b in complex_.edges:
        degrees[a] += 1
        degrees[b] += 1
    nine_regular = set(degrees.values()) == {9}
    per_vertex_faces = 3 * len(complex_.faces) // len(complex_.vertices)
    ok = (complex_.counts() == (96, 432, 480, 144)
          and kinds == {"tetrahedron": 120, "icosahedron": 24}
          and nine_regular and per_vertex_faces == 15
          and complex_.euler() == 0)
    _report(capsys, "05 snub 24-cell census", ok,
            f"counts {complex_.counts()}, cells {dict(kinds)}, 9-regular")


def test_06_cells_at_a_vertex(capsys):
    p = snub24_vertices()[0]
    cells = snub_census().cells_at(p)
    kinds = Counter(c.kind for c in cells)
    tets, centers = tetra_cells_at(p)
    tp = set(t_prime().elements)
    sp = set(build_120cell().s_prime)
    on_tp = [c for c in centers if c in tp]
    ok = (kinds == {"tetrahedron": 5, "icosahedron": 3}
          and len(on_tp) == 1
          and all(c in sp for c in centers if c not in tp))
    _report(capsys, "06 cells at a vertex", ok,
            "5 tetrahedra + 3 icosahedra; one center on T', four on S'")


def test_07_vertex_figure(capsys):
    figure = vertex_figure(snub24_vertices()[0])
    census = figure.face_census()
    ok = len(figure.neighbors) == 9 and census == {5: 3, 3: 5}
    _report(capsys, "07 vertex figure", ok, f"9 neighbors, faces {census}")


def test_08_dual_snub(capsys):
    complex_ = dual_complex()
    census = complex_.face_census()
    cell = dual_cell(snub24_vertices()[0])
    kite_edges = set()
    diagonals = set()
    for kite in cell.kites:
        for i in range(4):
            kite_edges.add(
                (cell.vertices[kite[i]] - cell.vertices[kite[(i + 1) % 4]]).norm())
        k = next(i for i in kite if i < 3)
        side = [i for i in kite if i != k and i != kite[(kite.index(k) + 2) % 4]]
        diagonals.add((cell.vertices[side[0]] - cell.vertices[side[1]]).norm())
    tri_edges = set()
    for tri in cell.triangles:
        for i in range(3):
            tri_edges.add(
                (cell.vertices[tri[i]] - cell.vertices[tri[(i + 1) % 3]]).norm())
    counts = complex_.vertex_cell_counts()
    four_at_tp = all(counts[q] == 4 for q in t_prime().elements)
    ok = (complex_.counts() == (144, 480, 432, 96)
          and census == {4: 144, 3: 288}
          and kite_edges == {HALF, SIGMA ** 4 * HALF}
          and diagonals == {SIGMA ** 2 * HALF}
          and tri_edges == {HALF, TAU ** 2 * HALF}
          and four_at_tp and complex_.euler() == 0)
    _report(capsys, "08 dual snub 24-cell", ok,
            f"counts {complex_.counts()}, faces {census}, kite metrics exact")


def test_09_weight_orbit_table(capsys):
    reports = appendix_decompositions()
    sizes = sorted(r.orbit_size for r in reports)
    sizes_ok = sizes == [120, 600, 720, 1200, 1440, 2400, 2400,
                         3600, 3600, 3600, 7200, 7200, 7200, 7200, 14400]
    sums_ok = all(sum(r.decomposition) == r.orbit_size for r in reports)
    flagged = [r for r in reports if r.flagged_lines]
    flag_ok = (len(flagged) == 3
               and all(r.flagged_lines == (5,) for r in flagged)
               and all(sorted(Counter(r.decomposition).items())
                       == [(144, 1), (288, 4), (576, 4)] for r in flagged)
               and all(r.matched_lines for r in reports))
    ok = len(reports) == 15 and sizes_ok and sums_ok and flag_ok
    _report(capsys, "09 weight orbit table", ok,
            "15 orbits decomposed; inconsistent published line flagged")


def test_10_property_suites(capsys, tmp_path, run_cli):
    rng = random.Random(20260823)

    def rand_field():
        return FieldElement(*(Fraction(rng.randint(-99, 99), rng.randint(1, 30))
                              for _ in range(4)))

    algebra_ok = True
    for _ in range(1000):
        a, b, c = rand_field(), rand_field(), rand_field()
        g = a * b
        algebra_ok = (algebra_ok
                      and (a + b) + c == a + (b + c)
                      and a * (b + c) == g + a * c
                      and g.galois("sqrt5") == a.galois("sqrt5") * b.galois("sqrt5")
                      and g.galois("sqrt2") == a.galois("sqrt2") * b.galois("sqrt2"))

    shells = list(e8_roots().roots)
    norm_ok = all(
        (x * y).norm() == x.norm() * y.norm()
        for x, y in (rng.sample(shells, 2) for _ in range(200)))

    p = icosian_seed()
    seed_ok = p ** 5 == -Q_ONE and p.conjugate() == -(p ** 4)

    sample = wh4().elements[::2881]
    points = snub24_vertices()[:4]
    isometry_ok = all(
        (g.apply(x) - g.apply(y)).norm() == (x - y).norm()
        for g in sample for x in points for y in points)

    texts = []
    for seed in ("1", "2"):
        out = tmp_path / f"cell24-{seed}.off"
        result = run_cli("export", "24cell", "--format", "off", "--out", str(out),
                         hashseed=seed)
        assert result.returncode == 0, result.stderr
        texts.append(out.read_bytes())
    deterministic = texts[0] == texts[1]

    ok = algebra_ok and norm_ok and seed_ok and isometry_ok and deterministic
    _report(capsys, "10 property suites", ok,
            "field axioms x1000, norm multiplicativity, seed powers, isometry, "
            "run-to-run determinism")
