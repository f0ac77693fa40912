import math
from itertools import permutations

import numpy as np
import pytest

from declab import dualmesh, geometry
from declab.complex import build_complex
from declab.dualmesh import build_dual
from declab.errors import InvertedCellError, WellCenteredError
from declab.generators import FamilySpec, generate, jitter_interior
from strategies import jittered_wheels


def shoelace(poly):
    """Oracle: polygon area from the shoelace formula."""
    x, y = np.asarray(poly).T
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def fragment_volumes(dual, k):
    """Oracle: the volume of each fragment of ``dual.flags(k)``.  Its chain
    edges are mutually orthogonal, so the orthoscheme's volume is the product
    of their lengths, read off ``dual.circumcenters``, over (n-k)!."""
    chain, _ = dual.flags(k)
    vol = np.ones(len(chain))
    for j in range(chain.shape[1] - 1):
        step = (dual.circumcenters[k + j + 1][chain[:, j + 1]]
                - dual.circumcenters[k + j][chain[:, j]])
        vol *= np.linalg.norm(step, axis=1)
    return vol / math.factorial(dual.complex.dim - k)


def fragments_of(dual, k, index):
    """(chain, sign, volume) of the fragments of the dual of k-simplex ``index``."""
    chain, sign = dual.flags(k)
    vol = fragment_volumes(dual, k)
    mine = chain[:, 0] == index
    return chain[mine], sign[mine], vol[mine]


def test_worked_example_fragment_signs(worked_triangle):
    """Dual of the first vertex of a positively oriented triangle: the flag
    through edge (v0,v1) enters with +1 and through (v0,v2) with -1."""
    cx, dual = worked_triangle
    e01 = int(cx.index_of(1, [(0, 1)])[0])
    e02 = int(cx.index_of(1, [(0, 2)])[0])
    chain, sign, vol = fragments_of(dual, 0, 0)
    assert dict(zip(chain[:, 1].tolist(), sign.tolist())) == {e01: 1, e02: -1}
    assert np.all(vol > 0)


def test_dual_boundary_signs_vs_legacy_convention(worked_triangle):
    """The oriented boundary of the vertex dual is +dual(e01) + +dual(e02);
    the legacy convention (without the parity flip) is exactly its negative."""
    cx, dual = worked_triangle
    e01 = int(cx.index_of(1, [(0, 1)])[0])
    e02 = int(cx.index_of(1, [(0, 2)])[0])
    m = dual.dual_boundary_matrix(0).toarray()
    legacy = -m  # (-1)^k instead of (-1)^(k+1) at k = 0
    col = m[:, 0]
    assert col[e01] == 1 and col[e02] == 1
    assert legacy[e01, 0] == -1 and legacy[e02, 0] == -1
    assert np.array_equal(m.astype(np.int64), m)  # integer entries


from hypothesis import assume, example, given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=6, max_size=6))
def test_vertex_dual_fragment_signs_on_random_acute_triangles(vals):
    """For any positively oriented acute triangle the first vertex's dual
    enters through the (v0,v1)-flag with +1 and the (v0,v2)-flag with -1."""
    pts = np.array(vals).reshape(3, 2)
    e = pts[1:] - pts[0]
    det = np.linalg.det(e)
    if abs(det) < 0.2:
        return
    if det < 0:
        pts = pts[[0, 2, 1]]  # relabel so the sorted order is positive
    # acuteness filter
    for i in range(3):
        u = pts[(i + 1) % 3] - pts[i]
        v = pts[(i + 2) % 3] - pts[i]
        if u @ v <= 0.05 * np.linalg.norm(u) * np.linalg.norm(v):
            return
    cx = build_complex(2, pts, [(0, 1, 2)])
    dual = build_dual(cx)
    e01 = int(cx.index_of(1, [(0, 1)])[0])
    e02 = int(cx.index_of(1, [(0, 2)])[0])
    chain, sign, _ = fragments_of(dual, 0, 0)
    assert dict(zip(chain[:, 1].tolist(), sign.tolist())) == {e01: 1, e02: -1}


def test_dual_boundary_matches_signed_transpose():
    cx = generate(FamilySpec("pentagon_wheel", level=2))
    dual = build_dual(cx)
    for k in range(cx.dim):
        got = dual.dual_boundary_matrix(k)
        want = ((-1) ** (k + 1)) * cx.boundary_matrix(k + 1).T
        assert (got - want).nnz == 0


def test_dual_boundary_composes_to_zero():
    cx = generate(FamilySpec("cube_kuhn", level=0))
    dual = build_dual(cx)
    for k in range(cx.dim - 1):
        prod = dual.dual_boundary_matrix(k + 1) @ dual.dual_boundary_matrix(k)
        assert prod.nnz == 0 or not prod.toarray().any()


def test_line_mesh_duals(line_mesh):
    cx, dual = line_mesh
    assert np.allclose(dual.volumes[0], [0.5, 1.0, 0.5])
    assert np.allclose(dual.volumes[1], [1.0, 1.0])
    assert dual.volumes[0][1] == pytest.approx(1.0)
    assert not cx.boundary_mask(0)[1]
    # hand enumeration: the vertex dual [0.5, 1.5] is oriented rightward, so
    # its boundary is (dual point of [1,2]) - (dual point of [0,1]), i.e.
    # (-1) times the difference of incident dual points in edge order
    col = dual.dual_boundary_matrix(0).toarray()[:, 1]
    assert col.tolist() == [-1, 1]


def test_top_cell_dual_is_circumcenter_with_unit_volume(worked_triangle):
    cx, dual = worked_triangle
    assert np.allclose(dual.circumcenters[2][0], [2.0, 1.0])
    assert dual.volumes[2][0] == pytest.approx(1.0)
    _, sign, _ = fragments_of(dual, 2, 0)
    assert sign.tolist() == [1]


def test_vertex_dual_volumes_partition_area():
    for fam, kw in (("pentagon_wheel", {}), ("corner", {}), ("square", {"pattern": 2})):
        cx = generate(FamilySpec(fam, level=2, **kw))
        dual = build_dual(cx)
        area = geometry.unsigned_volume(cx.coords_of(2)).sum()
        assert dual.volumes[0].sum() == pytest.approx(area, rel=1e-10)
    cube = generate(FamilySpec("cube_kuhn", level=1))
    dual = build_dual(cube)
    assert dual.volumes[0].sum() == pytest.approx(1.0, rel=1e-10)


def test_hub_dual_cell_is_circumcenter_polygon():
    cx = generate(FamilySpec("pentagon_wheel", level=0))
    dual = build_dual(cx)
    # independent oracle: the hub dual is the polygon of triangle circumcenters
    centers = dual.circumcenters[2]
    ang = np.arctan2(centers[:, 1], centers[:, 0])
    poly = centers[np.argsort(ang)]
    assert dual.volumes[0][0] == pytest.approx(shoelace(poly), rel=1e-12)


def test_fragment_edges_orthogonal_to_base_plane():
    for fam, lev in (("pentagon_wheel", 2), ("cube_kuhn", 0)):
        cx = generate(FamilySpec(fam, level=lev))
        dual = build_dual(cx)
        n = cx.dim
        for k in range(1, n):
            chain, _ = dual.flags(k)
            base = cx.coords_of(k, chain[:, 0])
            t = base[:, 1:, :] - base[:, :1, :]
            u = dual.circumcenters[k + 1][chain[:, 1]] - dual.circumcenters[k][chain[:, 0]]
            dots = np.abs(np.einsum("mkd,md->mk", t, u))
            scale = np.linalg.norm(u, axis=1)[:, None] * np.linalg.norm(t, axis=2)
            mask = scale > 0
            assert np.all(dots[mask] <= 1e-10 * scale[mask])


def test_weak_mesh_zero_volume_fragments_kept():
    cx = generate(FamilySpec("square", pattern=1, level=1))
    dual = build_dual(cx)
    assert np.any(dual.volumes[1] == 0.0)       # hypotenuse duals collapse
    assert np.all(dual.volumes[0] > 0)          # vertex duals stay positive
    assert np.any(fragment_volumes(dual, 1) == 0.0)  # zero fragments present, volume 0


def test_violated_well_centeredness_refused():
    cx = build_complex(2, [(0, 0), (4, 0), (2, 0.5)], [(0, 1, 2)])
    with pytest.raises(WellCenteredError, match="not well-centered"):
        build_dual(cx)


def test_violated_well_centeredness_refused_in_3d():
    # the corner tetrahedron: its faces are right or equilateral triangles,
    # but its circumcenter (1/2, 1/2, 1/2) lies outside it
    cx = build_complex(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2, 3)])
    with pytest.raises(WellCenteredError, match=r"not well-centered: circumcenter of "
                                                r"3-simplex \(0, 1, 2, 3\) lies outside it"):
        build_dual(cx)


def test_boundary_flags():
    cx = generate(FamilySpec("pentagon_wheel", level=1))
    dual = build_dual(cx)
    assert dual.complex.boundary_mask(0).sum() == 10
    assert not cx.boundary_mask(0)[0]  # hub


def test_flags_built_once_and_only_for_the_asked_degree(monkeypatch):
    built = []
    real = dualmesh._fragments

    def spy(cx, k):
        built.append(k)
        return real(cx, k)

    monkeypatch.setattr(dualmesh, "_fragments", spy)
    cx = generate(FamilySpec("pentagon_wheel", level=1))
    dual = build_dual(cx)
    assert built == []                      # volumes need no fragments
    first = dual.flags(1)
    again = dual.flags(1)
    assert all(a is b for a, b in zip(first, again))
    assert built == [1]
    assert not first[0].flags.writeable


cubes = st.integers(0, 2).map(lambda level: generate(FamilySpec("cube_kuhn", level)))
corners = st.integers(1, 3).map(lambda level: generate(FamilySpec("corner", level)))
structured = st.one_of(cubes, corners)
squares = st.builds(lambda level, pattern: generate(FamilySpec("square", level, pattern=pattern)),
                    st.integers(0, 2), st.integers(1, 3))


@settings(deadline=None, max_examples=40)
@given(cx=st.one_of(jittered_wheels, structured))
def test_pyramid_volumes_equal_flag_sums(cx):
    """The face-coface recursion against its unrolled form, the flag sum."""
    dual = build_dual(cx)
    for k in range(cx.dim + 1):
        chain, _ = dual.flags(k)
        oracle = np.bincount(chain[:, 0], weights=fragment_volumes(dual, k),
                             minlength=cx.num(k))
        got = dual.volumes[k]
        assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()
        assert np.array_equal(got == 0.0, oracle == 0.0)


def determinant_signs(cx, centers, chain, k):
    """Oracle: sign of det[base frame | circumcenter chain edges] times the
    base orientation, with det >= 0 counting as +1."""
    n = cx.dim
    mat = np.empty((len(chain), n, n))
    if k > 0:
        base = cx.coords_of(k, chain[:, 0])
        mat[:, :k, :] = base[:, 1:, :] - base[:, :1, :]
    for j in range(1, n - k + 1):
        mat[:, k + j - 1, :] = centers[k + j][chain[:, j]] - centers[k + j - 1][chain[:, j - 1]]
    det = np.linalg.det(mat) * cx.orientation[k][chain[:, 0]]
    return np.where(det >= 0, 1, -1)


@settings(deadline=None, max_examples=40)
@given(strict=st.one_of(jittered_wheels, corners), weak=st.one_of(cubes, squares))
def test_parity_signs_equal_determinant_signs(strict, weak):
    """The combinatorial chain signs equal the determinant signs on every flag
    of a strictly well-centered mesh.  On the right-angled cube and square
    meshes the determinant of a zero-volume flag vanishes and only broke a
    tie, so there they must agree wherever the fragment has volume."""
    for cx, everywhere in ((strict, True), (weak, False)):
        dual = build_dual(cx)
        for k in range(cx.dim + 1):
            chain, sign = dual.flags(k)
            want = determinant_signs(cx, dual.circumcenters, chain, k)
            hit = np.ones(len(chain), dtype=bool) if everywhere else fragment_volumes(dual, k) != 0
            assert np.array_equal(sign[hit], want[hit])


def jittered_or_none(spec, amplitude, seed):
    try:
        return jitter_interior(generate(spec), amplitude=amplitude, seed=seed)
    except InvertedCellError:
        return None


seeds = st.integers(0, 2 ** 32 - 1)
# amplitudes up to 0.4 move wheel circumcenters out of their triangles; any
# jitter of the right-angled Kuhn cube breaks its weak well-centeredness
off_centered = st.one_of(
    st.builds(lambda n_gon, level, amplitude, seed: jittered_or_none(
        FamilySpec("pentagon_wheel", level, n_gon=n_gon), amplitude, seed),
        st.integers(6, 8), st.integers(1, 3), st.floats(0.0, 0.4), seeds),
    st.builds(lambda level, amplitude, seed: jittered_or_none(
        FamilySpec("cube_kuhn", level), amplitude, seed),
        st.integers(0, 2), st.floats(0.0, 0.4), seeds))


def _det(m):
    """Determinant of a small matrix of integer arrays, by cofactors along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def exact_coordinates(cx, k):
    """Oracle: the barycentric coordinates of each k-simplex's circumcenter in
    exact arithmetic over the float vertex coordinates, as the integer
    numerators [lam_0, ..., lam_k] over one positive integer denominator.

    Every float is an integer over a power of two, so the coordinates scale to
    Python integers: the exact rationals ``fractions.Fraction`` would hold, over
    one denominator so that numpy can vectorize them.  The circumcenter is v_0 + sum_i a_i (v_i - v_0) with
    2 G a = diag(G) for the edge Gram matrix G, so its barycentric coordinates
    are 1 - sum a and a_1..a_k: by Cramer's rule, integers over 2 det G > 0.
    """
    ratios = [x.as_integer_ratio() for x in cx.vertices.ravel().tolist()]
    scale = max(d for _, d in ratios)
    ints = np.array([n * (scale // d) for n, d in ratios], dtype=object)
    v = ints.reshape(cx.vertices.shape)[cx.simplices[k]]
    e = [[v[:, a + 1, d] - v[:, 0, d] for d in range(cx.dim)] for a in range(k)]
    g = [[sum(x * y for x, y in zip(e[a], e[b])) for b in range(k)] for a in range(k)]
    den = 2 * _det(g)
    nums = [_det([[g[a][a] if b == i else g[a][b] for b in range(k)] for a in range(k)])
            for i in range(k)]
    return [den - sum(nums)] + nums, den


def exact_classes(nums, den):
    """Oracle: per simplex, 0 when its circumcenter lies strictly inside, 1 on
    its boundary and 2 outside, up to ``WELL_CENTERED_TOL``, in exact arithmetic."""
    p, q = geometry.WELL_CENTERED_TOL.as_integer_ratio()
    outside = np.zeros(len(den), dtype=bool)
    on_boundary = np.zeros(len(den), dtype=bool)
    for num in nums:   # num / den < -tol, <= tol
        outside |= (num * q < -p * den).astype(bool)
        on_boundary |= (num * q <= p * den).astype(bool)
    return np.where(outside, 2, np.where(on_boundary, 1, 0))


def permanent(a):
    """The permanent of each k x k matrix of a stack (m, k, k): the sum of the
    products a[0, p(0)] ... a[k-1, p(k-1)] over all permutations p."""
    k = a.shape[-1]
    return sum(np.prod([a[:, i, p[i]] for i in range(k)], axis=0)
               for p in permutations(range(k)))


def rounding_bound(coords, lam):
    """A first-order bound, per simplex and coordinate, on the rounding error of
    both float computations of the circumcenter's barycentric coordinates:
    ``geometry.circumcenter``'s lam, and ``barycentric_coordinates`` of its
    center.

    With unit roundoff u, gamma_c = c u / (1 - c u), edge matrix E (k x n),
    P = |E||E|^T, G = 2 E E^T and b = diag(E E^T): rounding E, and forming G
    and b in sums of n terms, give (G + F) a~ = b + f with
    |F| <= (4 + 2n) u P and |f| <= (2 + n) u b, so
    |a~ - a| <= |G^-1| (|F| |a^| + |f|).  Cramer's rule then takes
    a^_i = fl(N_i / D) with D = det G and N_i = det G_i, G with its column i
    replaced by b.  Each closed-form expansion of ``geometry.det`` puts every
    product of k entries through at most c = k(k+1)/2 - 1 roundings, so each
    determinant is off by at most gamma_c per(|.|), per the permanent (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Lemma 3.1 and
    sections 1.10 and 14.6), and the quotient adds u |a^_i|:
    |a^_i - a~_i| <= gamma_c (per|G_i| + |a^_i| per|G|) / |D| + u |a^_i|.
    The two give d, the bound on |a^ - a|.  barycentric_coordinates solves
    (G/2) l = E (c^ - v_0) by the same rule.  G/2 is G's float halved, and the
    expansions are homogeneous, so its own rounding is again at most d to
    first order; its right side differs from E E^T a^ by the rounding of
    c^ = v_0 + E^T a^ and of c^ - v_0, at most u ((k + 4) |E|^T |a^| + |v_0|)
    per coordinate, and by its own n-term sums, (1 + n) u |E| |E|^T |a^|.  So
    |l - a| <= 2 d + 2 u |G^-1| ((k + 5 + n) P |a^| + |E| |v_0|), the bound
    taken for both.  The coordinate 1 - sum a adds up the others' bounds, and
    k u (1 + sum |a^|) for its own sum.
    """
    u = np.finfo(float).eps / 2
    _, kp1, n = coords.shape
    k = kp1 - 1
    c = k * (k + 1) // 2 - 1
    gamma = c * u / (1 - c * u)
    e = geometry.edge_matrix(coords)
    a = np.abs(lam[:, 1:, None])
    g = 2.0 * (e @ np.transpose(e, (0, 2, 1)))
    b = np.einsum("mkd,mkd->mk", e, e)
    prod = np.abs(e) @ np.abs(np.transpose(e, (0, 2, 1)))
    ginv = np.abs(np.linalg.inv(g))
    per_num = np.empty_like(b)
    for i in range(k):
        gi = np.abs(g)
        gi[:, :, i] = b
        per_num[:, i] = permanent(gi)
    cramer = gamma * (per_num + a[..., 0] * permanent(np.abs(g))[:, None]) \
        / np.abs(np.linalg.det(g))[:, None]
    d = u * ginv @ ((4 + 2 * n) * prod @ a + (2 + n) * b[..., None]) + cramer[..., None] + u * a
    side = 2 * d + 2 * u * ginv @ ((k + 5 + n) * prod @ a
                                   + np.abs(e) @ np.abs(coords[:, 0, :, None]))
    side = side[..., 0]
    first = side.sum(axis=1) + k * u * (1 + a.sum(axis=(1, 2)))
    return np.concatenate([first[:, None], side], axis=1)


def classes(lam, tol):
    """0 strict, 1 weak, 2 violated, from each simplex's smallest coordinate."""
    return np.where(lam < -tol, 2, np.where(lam <= tol, 1, 0))


@settings(deadline=None, max_examples=60)
@given(cx=st.one_of(jittered_wheels, off_centered, squares, cubes))
# a nearly flat tetrahedron: its smallest coordinate, about -4e4, comes out of
# the two float computations 3.6e-11 apart in relative terms
@example(cx=jittered_or_none(FamilySpec("cube_kuhn", 2), 0.3984375, 30051))
# circumcenters on facets, up to rounding: weakly well-centered
@example(cx=jittered_or_none(FamilySpec("cube_kuhn", 2), 1e-15, 19))
# violated, with one tetrahedron's coordinate -9.9964e-13 about 4e-16 inside
# the weak class
@example(cx=jittered_or_none(FamilySpec("cube_kuhn", 2), 1e-12, 0))
def test_well_centeredness_equals_the_barycentric_reference(cx):
    """The one well-centeredness test, the circumcenter solve's barycentric
    coordinates, and barycentric_coordinates of the circumcenter must both lie
    within ``rounding_bound`` of the exact coordinates, and put every simplex
    whose exact smallest coordinate is farther than that from +-tol in its
    exact class.  shape_report's class, and build_dual's gate, must be the
    exact mesh class whenever no cell straddles a threshold within its bound,
    and one of the classes the straddling cells allow otherwise."""
    assume(cx is not None)
    tol = geometry.WELL_CENTERED_TOL
    status, status_lo, status_hi = 0, 0, 0
    for k in range(2, cx.dim + 1):
        nums, den = exact_coordinates(cx, k)
        exact = exact_classes(nums, den)
        lam_exact = np.stack([(num / den).astype(float) for num in nums], axis=1)
        coords = cx.coords_of(k)
        centers, lam = geometry.circumcenter(coords, check=False)
        bary = geometry.barycentric_coordinates(centers, coords)
        bound = rounding_bound(coords, lam)
        low, cell_bound = lam_exact.min(axis=1), bound.max(axis=1)
        lo, hi = classes(low + cell_bound, tol), classes(low - cell_bound, tol)
        clear = lo == hi
        for got in (lam, bary):
            assert np.all(np.abs(got - lam_exact) <= bound)
            assert np.array_equal(classes(got.min(axis=1), tol)[clear], exact[clear])
        status = max(status, int(exact.max()))
        status_lo, status_hi = max(status_lo, int(lo.max())), max(status_hi, int(hi.max()))
    reported = ("strict", "weak", "violated").index(cx.shape_report().well_centered)
    if status_lo == status_hi:
        assert reported == status
    assert status_lo <= reported <= status_hi
    if reported == 2:
        with pytest.raises(WellCenteredError):
            build_dual(cx)
    else:
        build_dual(cx)
