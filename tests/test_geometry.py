"""Tetrahedron geometry: embeddings, dihedrals, the Schlafli defect,
glued-triangle constructions, and the sign-configuration classification."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from wigner_asym.errors import (
    DegenerateTriangle,
    DegenerateVertex,
    NotClassicallyAllowed,
)
from wigner_asym.geometry import (
    EDGE_NAMES,
    FACES,
    MIN_EDGE,
    SignConfig,
    Tetrahedron,
    dihedral_external,
    dihedral_internal,
    edge_length_from_spin,
    euler_from_glued_triangles,
    f_phase,
    law_of_cosines,
    omega_classify,
    regge_action,
    triangle_angle,
    volume,
)
from wigner_asym.halfint import HalfInt
from wigner_asym.harness import build_symbol, reference_sweep_configs, slot_names

from conftest import embedded_tet, random_realizable_tet
from oracles import (
    dihedral_mp,
    embed_vertices,
    regge_action_mp,
    schlafli_residual,
    su2_euler_product,
    su2_extract_euler,
)


def test_triangle_angle_frozen_cases():
    assert abs(triangle_angle(1, 1, 1) - math.pi / 3) < 1e-14
    assert abs(triangle_angle(3, 4, 5) - math.pi / 2) < 1e-14
    assert abs(triangle_angle(1, 1, 2) - math.pi) < 1e-9
    with pytest.raises(DegenerateTriangle):
        triangle_angle(1, 1, 2.1)
    with pytest.raises(DegenerateTriangle):
        triangle_angle(1, -1, 1)


def test_volume_frozen_cases():
    regular = Tetrahedron((1,) * 6)
    assert abs(volume(regular) - 1 / (6 * math.sqrt(2))) < 1e-14
    corner = Tetrahedron((1, math.sqrt(2), 1, math.sqrt(2), 1, math.sqrt(2)))
    assert abs(volume(corner) - 1 / 6) < 1e-13
    # equilateral base side 2, apex edges 2/sqrt(3): coplanar
    flat = Tetrahedron((2, 2, 2) + (2 / math.sqrt(3),) * 3)
    assert flat.status() == "near_caustic"
    assert volume(flat) < 1e-6


def _sympy_cayley_menger(lengths) -> float:
    """The 5x5 Cayley-Menger determinant in exact rationals, rounded once."""
    sq = [sympy.Rational(*float(x).as_integer_ratio()) ** 2 for x in lengths]
    a, b, c, d, e, f = sq
    det = sympy.Matrix([
        [0, 1, 1, 1, 1],
        [1, 0, a, c, e],
        [1, a, 0, b, f],
        [1, c, b, 0, d],
        [1, e, f, d, 0],
    ]).det()
    return float(Fraction(int(det.p), int(det.q)))


def test_cayley_menger_matches_exact_determinant(np_rng):
    """Equal to the correctly rounded exact determinant, for spin-built
    tetrahedra (half-integer spins up to 2000, forbidden ones included) and
    for float-edged ones."""
    rng = random.Random(288)
    tets = []
    while len(tets) < 60:
        try:
            tets.append(Tetrahedron.from_spins(
                [HalfInt.from_twice(rng.randint(1, 4000)) for _ in range(6)]))
        except DegenerateTriangle:
            continue
    assert {t.status() for t in tets} >= {"allowed", "forbidden"}
    tets += [random_realizable_tet(np_rng) for _ in range(30)]
    tets += [Tetrahedron(tuple(rng.uniform(0.9, 1.1) for _ in range(6))) for _ in range(30)]
    for tet in tets:
        assert tet.cayley_menger() == _sympy_cayley_menger(tet.lengths), tet.lengths
    for tet in tets[60:90]:
        a, b, c, d, e, f = (x * x for x in tet.lengths)
        lapack = np.linalg.det(np.array([
            [0.0, 1.0, 1.0, 1.0, 1.0],
            [1.0, 0.0, a, c, e],
            [1.0, a, 0.0, b, f],
            [1.0, c, b, 0.0, d],
            [1.0, e, f, d, 0.0],
        ]))
        assert abs(tet.cayley_menger() - lapack) <= 1e-12 * abs(lapack)


def test_flat_tetrahedron_determinant_is_exactly_zero():
    flat = Tetrahedron((3, 4, 5, 3, 4, 5))
    assert flat.cayley_menger() == 0.0
    assert flat.status() == "near_caustic"
    assert volume(flat) == 0.0


def test_spin_builder_matches_float_constructor():
    """``from_spins`` squares the twice spins directly, over den = 2; the
    float constructor finds den = 1 when every length is an integer.
    Either way lengths, determinant, angle table and status are bit-equal,
    and so are the error class and message."""
    def outcome(build):
        try:
            tet = build()
        except (ValueError, DegenerateTriangle) as exc:
            return type(exc).__name__, str(exc)
        return tet.lengths, tet._cm, tet._thetas, tet.status()

    rng = random.Random(25)
    cases = [
        (5, 7, 9, 5, 7, 9),             # all odd and flat: CM = 0, integer lengths
        (2, 4, 7, 4, 12, 9),            # collinear vertices: every face has zero area
        (5, 8, 14, 16, 7, 9),           # flat, and only face (a, b, c) has zero area
        (16, 16, 24, 16, 16, 24),       # forbidden
        (2, 2, 20, 4, 4, 4),            # a face that does not close
        (8, 8, 8, -2, 8, 8),            # a negative spin
        (8, 8, 8, -1, 8, 8),            # length 0
        (8, 8, 8, 8, 8),                # five edges
    ]
    cases += [tuple(rng.randrange(1, 400, 2) for _ in range(6)) for _ in range(150)]
    cases += [tuple(rng.randrange(0, 400) for _ in range(6)) for _ in range(150)]
    kinds = set()
    for twice in cases:
        spins = [HalfInt.from_twice(t) for t in twice]
        got = outcome(lambda: Tetrahedron.from_spins(spins))
        want = outcome(lambda: Tetrahedron(tuple(t / 2 + 0.5 for t in twice)))
        assert repr(got) == repr(want), twice
        kinds.add(got[0] if isinstance(got[0], str) else got[3])
    assert kinds == {"allowed", "near_caustic", "forbidden", "ValueError", "DegenerateTriangle"}


def test_stored_volume_and_action_match_their_reading_expressions():
    """The volume and Regge action a tetrahedron stores when it is built
    are bit-equal to sqrt(CM / 288) and to the sum of l (pi - theta) over
    the edges a..f, read from its angle table, whether built from spins
    or from float lengths.  A forbidden tetrahedron raises
    NotClassicallyAllowed from ``volume``, ``regge_action`` and
    ``dihedral_internal``, each with its own context; a zero-area face
    raises DegenerateVertex at its first edge."""
    rng = random.Random(27)
    spins = [(5, 8, 14, 16, 7, 9), (10, 5, 5, 7, 9, 9), (5, 7, 9, 5, 7, 9),
             (16, 16, 24, 16, 16, 24), (17, 25, 41, 14, 38, 20)]
    spins += [tuple(rng.randrange(1, 400, 2) for _ in range(6)) for _ in range(150)]
    # needles: three spins <= 3/2 and three near 99 sit inside the caustic guard
    spins += [tuple(rng.randrange(1, 4) for _ in range(3)) + tuple(rng.randrange(196, 201)
              for _ in range(3)) for _ in range(60)]
    tets = []
    for twice in spins:
        for build in (lambda: Tetrahedron.from_spins([HalfInt.from_twice(t) for t in twice]),
                      lambda: Tetrahedron(tuple(rng.uniform(0.5, 1.5) * (t / 2 + 0.5)
                                                for t in twice))):
            try:
                tets.append(build())
            except DegenerateTriangle:
                pass
    kinds = set()
    for tet in tets:
        cm = tet.cayley_menger()
        if cm < 0.0:
            kinds.add("forbidden")
            for read, context in ((volume, "not classically allowed"),
                                  (regge_action, "Regge action undefined"),
                                  (lambda t: dihedral_internal(t, "a"), "dihedral angles undefined")):
                with pytest.raises(NotClassicallyAllowed) as err:
                    read(tet)
                assert str(err.value) == f"{context}: Cayley-Menger determinant {cm:.6g} < 0"
            continue
        kinds.add("flat" if cm == 0.0 else tet.status())
        assert repr(volume(tet)) == repr(math.sqrt(cm / 288.0))
        thetas = tet._thetas
        if None in thetas:
            kinds.add("zero-area face")
            edge = EDGE_NAMES[thetas.index(None)]
            for read in (regge_action, lambda t: dihedral_internal(t, edge)):
                with pytest.raises(DegenerateVertex, match=f"^a face at edge {edge} has zero area$"):
                    read(tet)
            continue
        want = sum(l * (math.pi - dihedral_internal(tet, e)) for l, e in zip(tet.lengths, EDGE_NAMES))
        assert repr(regge_action(tet)) == repr(want), tet.lengths
    assert kinds == {"allowed", "near_caustic", "flat", "forbidden", "zero-area face"}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-40, 1e60])
def test_tetrahedron_rejects_non_finite_or_non_positive_edges(bad):
    with pytest.raises(ValueError):
        Tetrahedron((bad, 1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        Tetrahedron((1, 1, 1, 1, 1, bad))


def test_forbidden_raises_with_determinant():
    bad = Tetrahedron((1, 1, 1, 1, 1, 1.95))
    assert bad.status() == "forbidden"
    with pytest.raises(NotClassicallyAllowed) as err:
        volume(bad)
    assert err.value.determinant < 0
    with pytest.raises(NotClassicallyAllowed):
        dihedral_internal(bad, "a")


def test_dihedrals_frozen_cases():
    regular = Tetrahedron((1,) * 6)
    for e in EDGE_NAMES:
        assert abs(dihedral_internal(regular, e) - math.acos(1 / 3)) < 1e-12
        assert abs(dihedral_external(regular, e) - (math.pi - math.acos(1 / 3))) < 1e-12
    corner = Tetrahedron((1, math.sqrt(2), 1, math.sqrt(2), 1, math.sqrt(2)))
    for leg in ("a", "c", "e"):
        assert abs(dihedral_internal(corner, leg) - math.pi / 2) < 1e-12


def _dihedral_from_embedding(verts, edge):
    """Internal dihedral at an edge from face normals of the embedding."""
    p, q, r, s = verts
    ends = {"a": (p, q, r, s), "b": (q, r, p, s), "c": (p, r, q, s),
            "d": (r, s, p, q), "e": (p, s, q, r), "f": (q, s, p, r)}
    a0, a1, w0, w1 = ends[edge]
    n1 = np.cross(a1 - a0, w0 - a0)
    n2 = np.cross(a1 - a0, w1 - a0)
    cos_d = np.dot(n1, n2) / (np.linalg.norm(n1) * np.linalg.norm(n2))
    return math.acos(max(-1.0, min(1.0, cos_d)))


def test_embedding_oracle_volume_and_dihedrals(np_rng):
    for _ in range(60):
        tet, pts = embedded_tet(np_rng)
        v_embed = abs(np.linalg.det(np.vstack(
            [pts[1] - pts[0], pts[2] - pts[0], pts[3] - pts[0]]))) / 6.0
        assert abs(volume(tet) - v_embed) < 1e-10 * max(1.0, v_embed)
        own = embed_vertices(tet)
        p, q, r, s = own
        got = (np.linalg.norm(p - q), np.linalg.norm(q - r), np.linalg.norm(p - r),
               np.linalg.norm(r - s), np.linalg.norm(p - s), np.linalg.norm(q - s))
        assert np.allclose(got, tet.lengths, atol=1e-9)
        for edge in EDGE_NAMES:
            oracle = _dihedral_from_embedding(own, edge)
            assert abs(dihedral_internal(tet, edge) - oracle) < 1e-12, edge


def test_dihedrals_at_the_limits():
    """A flat tetrahedron has angles 0 and pi; a zero-area face makes the
    angles at its three edges, and so the Regge action, undefined; the
    smallest edges accepted still give the regular angle."""
    tiny = Tetrahedron((MIN_EDGE,) * 6)
    assert tiny.status() == "allowed"
    assert abs(dihedral_internal(tiny, "a") - math.acos(1 / 3)) < 1e-15
    flat = Tetrahedron((3, 4, 5, 3, 4, 5))
    pi = math.pi
    assert [dihedral_internal(flat, e) for e in EDGE_NAMES] == [0.0, 0.0, pi, 0.0, 0.0, pi]
    # R is the midpoint of PQ: the face (a, b, c) has zero area
    midpoint = Tetrahedron((6, 3, 3, 4, 5, 5))
    assert midpoint.cayley_menger() == 0.0
    for edge in "abc":
        with pytest.raises(DegenerateVertex):
            dihedral_internal(midpoint, edge)
    with pytest.raises(DegenerateVertex):
        regge_action(midpoint)
    assert [dihedral_internal(midpoint, e) for e in "def"] == [pi, 0.0, 0.0]


def _flat_with_zero_area_face(rng) -> Tetrahedron:
    """P, Q, R on a line and S at height 12 above the origin, with every
    distance a whole number (Pythagorean triples of 12), scaled by k/2."""
    xs = rng.sample((-35, -16, -9, -5, 5, 9, 16, 35), 3)
    hyp = {5: 13, 9: 15, 16: 20, 35: 37}
    p, q, r = xs
    lengths = (abs(p - q), abs(q - r), abs(p - r), hyp[abs(r)], hyp[abs(p)], hyp[abs(q)])
    k = rng.randint(1, 8000)
    return Tetrahedron(tuple(k * x / 2 for x in lengths))


def test_error_classes_match_face_angle_route():
    """Edge by edge, the closed form raises what the face-angle route (60
    digits, face-angle sines below 1e-12 rejected) raises, and otherwise
    returns its angle, on half-integer edges up to 3e5: random tetrahedra,
    allowed and forbidden, and flat ones with a zero-area face."""
    rng = random.Random(1968)
    tets = [_flat_with_zero_area_face(rng) for _ in range(20)]
    while len(tets) < 80:
        scale = 10 ** rng.uniform(0.5, 5.5)
        try:
            tets.append(Tetrahedron(tuple(
                max(0.5, round(2 * scale * rng.uniform(0.3, 1.0)) / 2) for _ in range(6))))
        except DegenerateTriangle:
            continue
    seen = set()
    for tet in tets:
        for edge in EDGE_NAMES:
            try:
                expected = float(dihedral_mp(tet, edge))
            except (DegenerateVertex, NotClassicallyAllowed) as exc:
                with pytest.raises(type(exc)):
                    dihedral_internal(tet, edge)
                seen.add(type(exc))
            else:
                assert abs(dihedral_internal(tet, edge) - expected) < 1e-12, (tet, edge)
                seen.add(float)
    assert seen == {DegenerateVertex, NotClassicallyAllowed, float}


def _float_face_classes(lengths):
    """Test-only oracle, the face rules of a tetrahedron that tested its
    faces in floats: the message of the DegenerateTriangle the first face
    with x > y + z raises, else the edges of the faces whose exact
    16 area^2 = 2 (xy + yz + zx) - x^2 - y^2 - z^2 in the squared lengths
    is <= 0, which have no dihedral angle."""
    for face in FACES:
        x, y, z = (lengths[i] for i in face)
        if x > y + z or y > x + z or z > x + y:
            return f"face {tuple(EDGE_NAMES[i] for i in face)} violates the triangle inequality"
    flat = set()
    for face in FACES:
        x, y, z = (Fraction(lengths[i]) ** 2 for i in face)
        if 2 * (x * y + y * z + z * x) - x * x - y * y - z * z <= 0:
            flat.update(EDGE_NAMES[i] for i in face)
    return flat


def test_exact_face_classes_match_float_triangle_inequality():
    """On half-integer edges, the exact face classification at
    construction raises DegenerateTriangle for the same face as the float
    triangle inequality, and leaves exactly the edges of zero-area faces
    without an angle: random edge sets with violated, flat and proper
    faces, forced violated and flat faces, and flat tetrahedra with a
    zero-area face."""
    rng = random.Random(19)
    edge_sets = [_flat_with_zero_area_face(rng).lengths for _ in range(40)]
    for _ in range(600):
        scale = rng.choice((6, 40, 1e5))
        lengths = [max(1, round(2 * scale * rng.uniform(0.3, 1.0))) / 2 for _ in range(6)]
        face = rng.choice(FACES)
        kind = rng.randrange(3)
        if kind:   # face (x, y, z) with z = x + y (flat) or x + y + 1/2
            x, y, z = face
            lengths[z] = lengths[x] + lengths[y] + (kind - 1) / 2
        edge_sets.append(tuple(lengths))
    seen = set()
    for lengths in edge_sets:
        expected = _float_face_classes(lengths)
        if isinstance(expected, str):
            with pytest.raises(DegenerateTriangle) as err:
                Tetrahedron(lengths)
            assert str(err.value) == expected
            seen.add(DegenerateTriangle)
            continue
        tet = Tetrahedron(lengths)
        for edge in EDGE_NAMES:
            if tet.cayley_menger() < 0.0:
                with pytest.raises(NotClassicallyAllowed):
                    dihedral_internal(tet, edge)
                seen.add(NotClassicallyAllowed)
            elif edge in expected:
                with pytest.raises(DegenerateVertex):
                    dihedral_internal(tet, edge)
                seen.add(DegenerateVertex)
            else:
                assert 0.0 <= dihedral_internal(tet, edge) <= math.pi
                seen.add(float)
        if expected and tet.cayley_menger() >= 0.0:
            with pytest.raises(DegenerateVertex) as err:
                regge_action(tet)
            first = next(e for e in EDGE_NAMES if e in expected)
            assert str(err.value) == f"a face at edge {first} has zero area"
    assert seen == {DegenerateTriangle, NotClassicallyAllowed, DegenerateVertex, float}


def _near_caustic_tetrahedra(rng, count):
    """Allowed tetrahedra with 0 < CM < 1e-4 (mean edge)^6: four coplanar
    points at a scale of 4 to 400, their distances rounded to half-integer
    edges l = j + 1/2, and the edge d moved by up to one unit until the
    determinant lands in the band."""
    tets = []
    while len(tets) < count:
        scale = 4 * 100 ** rng.random()
        pts = [(rng.uniform(-scale, scale), rng.uniform(-scale, scale), 0.0) for _ in range(4)]
        lengths = [max(0.5, round(2 * math.dist(pts[i], pts[j])) / 2)
                   for i, j in ((0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (1, 3))]
        for step in (-1.0, -0.5, 0.0, 0.5, 1.0):
            try:
                tet = Tetrahedron((*lengths[:3], lengths[3] + step, *lengths[4:]))
            except (DegenerateTriangle, ValueError):
                continue
            if 0.0 < tet.cayley_menger() < 1e-4 * (sum(tet.lengths) / 6.0) ** 6:
                tets.append(tet)
                break
    return tets


def _fig4_panel_a_tetrahedra():
    """The allowed reference tetrahedra of the fig4 panel a sweep."""
    cfg = reference_sweep_configs()["a"]
    tets = []
    for t_sweep in range(cfg.start_twice, cfg.stop_twice + 1, cfg.step_twice):
        spins = {**cfg.spins_twice, cfg.sweep_slot: t_sweep}
        sym = build_symbol("9j", [spins[s] for s in slot_names("9j")])
        try:
            tet = Tetrahedron.from_spins([sym.j1, sym.j2, sym.j12, sym.j34, sym.j5, sym.j24])
        except DegenerateTriangle:
            continue
        if tet.cayley_menger() > 0.0:
            tets.append(tet)
    return tets


def test_regge_action_against_60_digit_oracle():
    """Relative error of the Regge action at most 1e-14 against the
    face-angle route at 60 digits, near caustics and on fig4 panel a."""
    near = _near_caustic_tetrahedra(random.Random(2011), 100)
    fig_a = _fig4_panel_a_tetrahedra()
    assert len(fig_a) == 60
    for tet in near + fig_a:
        reference = float(regge_action_mp(tet))
        assert abs(regge_action(tet) - reference) <= 1e-14 * reference, tet.lengths


def test_regge_action_frozen_and_scaling():
    tet = Tetrahedron.from_spins([1] * 6)
    action = regge_action(tet)
    assert abs(action - 9 * (math.pi - math.acos(1 / 3))) < 1e-12
    # dilation: angles are scale-invariant, lengths scale linearly
    spins = [10, 11, 12, 10, 11, 12]
    t1 = Tetrahedron.from_spins(spins)
    angles1 = [dihedral_external(t1, e) for e in EDGE_NAMES]
    spins2 = [3 * s for s in spins]
    t2 = Tetrahedron.from_spins(spins2)
    angles2 = [dihedral_external(t2, e) for e in EDGE_NAMES]
    # identical shapes would need l -> 3l; with l = j + 1/2 the offsets
    # differ, so allow the o(1) geometric drift
    assert np.allclose(angles1, angles2, atol=0.02)


def test_schlafli_residual(np_rng):
    for _ in range(30):
        tet = random_realizable_tet(np_rng)
        assert schlafli_residual(tet) < 1e-6


def test_euler_from_glued_triangles_degenerate_inputs():
    theta_a, mid, theta_b = euler_from_glued_triangles(0.7, 0.0, 0.4)
    assert abs(mid - 0.3) < 1e-12
    theta_a, mid, theta_b = euler_from_glued_triangles(0.7, math.pi, 0.4)
    assert abs(mid - 1.1) < 1e-12
    assert abs(theta_a) < 1e-6 and abs(theta_b) < 1e-6
    with pytest.raises(DegenerateVertex):
        euler_from_glued_triangles(0.0, 1.0, 0.5)
    with pytest.raises(DegenerateVertex):
        euler_from_glued_triangles(math.pi / 3, math.pi, 2 * math.pi / 3)
    with pytest.raises(ValueError):
        euler_from_glued_triangles(-0.5, 1.0, 0.5)


def test_euler_glued_matches_su2_oracle():
    rng = random.Random(4)
    checked = 0
    while checked < 400:
        phi1 = rng.uniform(0.05, math.pi - 0.05)
        phin = rng.uniform(0.05, math.pi - 0.05)
        theta = rng.uniform(0.01, math.pi - 0.01)
        theta_a, mid, theta_b = euler_from_glued_triangles(phi1, theta, phin)
        if math.sin(mid) < 1e-6:
            continue
        tr = su2_extract_euler(su2_euler_product(phi1, math.pi - theta, phin))
        assert abs(tr.alpha - theta_a) < 1e-10
        assert abs(tr.beta - mid) < 1e-10
        assert abs(tr.gamma - theta_b) < 1e-10
        # sine rule consistency
        assert abs(math.sin(theta_a) / math.sin(phin)
                   - math.sin(theta_b) / math.sin(phi1)) < 1e-9
        checked += 1


def test_euler_glued_round_trip():
    rng = random.Random(9)
    for _ in range(200):
        phi1 = rng.uniform(0.1, math.pi - 0.1)
        phin = rng.uniform(0.1, math.pi - 0.1)
        theta = rng.uniform(0.05, math.pi - 0.05)
        theta_a, mid, theta_b = euler_from_glued_triangles(phi1, theta, phin)
        if math.sin(theta_a) < 1e-6 or math.sin(mid) < 1e-6:
            continue
        # feeding two sides (mid, phi1) with their included angle theta_a
        # back through the solver recovers the remaining side and angles
        theta_b_back, phin_back, theta_back = euler_from_glued_triangles(mid, theta_a, phi1)
        assert abs(phin_back - phin) < 1e-9
        assert abs(theta_back - theta) < 1e-9
        assert abs(theta_b_back - theta_b) < 1e-9


def _glued_sixth_edge(tri_a, tri_b, theta):
    """Sixth edge of two triangles (shared, apex, base) glued along the
    shared edge at internal dihedral theta: the law of cosines on the two
    apex edges and the glued mid-angle."""
    phi_a, phi_b = triangle_angle(*tri_a), triangle_angle(*tri_b)
    _, phi_mid, _ = euler_from_glued_triangles(phi_a, theta, phi_b)
    return law_of_cosines(tri_a[1], tri_b[1], phi_mid)


def test_build_sigma_tet_round_trip(np_rng):
    for _ in range(40):
        tet = random_realizable_tet(np_rng)
        a, b, c, d, e, f = tet.lengths
        theta = dihedral_internal(tet, "a")
        rebuilt = Tetrahedron((a, b, c, _glued_sixth_edge((a, b, c), (a, f, e), theta), e, f))
        assert abs(rebuilt.lengths[3] - d) < 1e-9
        assert abs(dihedral_internal(rebuilt, "a") - theta) < 1e-9
        # face angles reproduce the inputs
        assert abs(triangle_angle(a, b, c) - triangle_angle(*rebuilt.lengths[:3])) < 1e-12


def test_build_sigma_tet_flat_and_vector_oracle(np_rng):
    flat = Tetrahedron((2.0, 1.0, 1.8, _glued_sixth_edge((2.0, 1.0, 1.8), (2.0, 1.0, 1.8), math.pi),
                        1.8, 1.0))
    assert flat.status() in ("near_caustic", "forbidden") or volume(flat) < 1e-9
    # companion construction: gluing two faces of a spin tetrahedron along
    # the f edge with the external dihedral reproduces |J_a + J_d|
    for _ in range(20):
        spins = sorted(np_rng.randint(8, 20) for _ in range(6))
        candidates = [(spins[5], spins[1], spins[0], spins[3], spins[2], spins[4])]
        for sp in candidates:
            try:
                tet = Tetrahedron.from_spins(sp)
                if tet.status() != "allowed":
                    continue
                theta_ext = dihedral_external(tet, "f")
            except Exception:
                continue
            la, lb, lc, ld, le, lf = tet.lengths
            glued = _glued_sixth_edge((lf, la, le), (lf, ld, lb), theta_ext)
            verts = embed_vertices(tet)
            p, q, r, s = verts
            j_a = q - p      # edge a
            j_d = s - r      # edge d
            assert abs(glued - np.linalg.norm(j_a + j_d)) < 1e-8


def test_omega_classification_cases():
    cfg = omega_classify(1, 0, [math.pi / 2], [1])
    assert cfg.case_id == "I" and abs(cfg.theta_k1 - math.pi / 2) < 1e-12
    cfg = omega_classify(3, 0, [math.pi / 2], [1])   # omega = -3pi/2
    assert cfg.case_id == "II" and abs(cfg.theta_k1 - math.pi / 2) < 1e-12
    cfg = omega_classify(1, 0, [3 * math.pi / 2], [1])   # omega = -pi/2
    assert cfg.case_id == "III" and abs(cfg.theta_k1 - math.pi / 2) < 1e-12
    cfg = omega_classify(0, 0, [-math.pi / 2], [1])      # omega = +pi/2 + 0
    assert cfg.case_id == "I"
    with pytest.raises(ValueError):
        omega_classify(1, 0, [0.5, 0.5], [1])
    with pytest.raises(ValueError):
        omega_classify(1, 0, [0.5], [2])


def test_omega_theta_always_in_range():
    for k in range(-1600, 1600):
        cfg = omega_classify(0, 0, [k * 0.003926], [1])
        assert 0.0 <= cfg.theta_k1 <= math.pi
        assert -2 * math.pi <= cfg.omega < 2 * math.pi


def test_f_phase_table():
    j1 = HalfInt(1)
    cfg_i = SignConfig((1,), math.pi / 2, "I", math.pi / 2, False)
    assert f_phase(cfg_i, 0, 0, 1.0, 2.0, j1) == 0.0
    cfg_ii = SignConfig((1,), -3 * math.pi / 2, "II", math.pi / 2, False)
    got = f_phase(cfg_ii, 1, 0, math.pi / 3, 0.9, j1)
    assert abs(got - (-math.pi / 3 + 2 * math.pi)) < 1e-12
    cfg_iii = SignConfig((1,), -math.pi / 2, "III", math.pi / 2, False)
    assert abs(f_phase(cfg_iii, 1, 1, 0.3, 0.4, j1) - 0.7) < 1e-12
    cfg_iv = SignConfig((1,), 3 * math.pi / 2, "IV", math.pi / 2, False)
    assert abs(f_phase(cfg_iv, 1, 1, 0.3, 0.4, j1) - (0.7 + 2 * math.pi)) < 1e-12
    # half-integer j1: the wrapped branches carry (-1)^(2 j1) = -1, i.e. +pi
    half = HalfInt("1/2")
    got = f_phase(cfg_ii, "1/2", 0, math.pi / 3, 0.9, half)
    assert abs(got - (-math.pi / 6 + math.pi)) < 1e-12
    got = f_phase(cfg_iv, "1/2", "1/2", 0.3, 0.4, half)
    assert abs(got - (0.35 + math.pi)) < 1e-12


def test_edge_length_convention():
    assert edge_length_from_spin(HalfInt(1)) == 1.5
    assert edge_length_from_spin("1/2") == 1.0
