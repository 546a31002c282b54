import math
import tracemalloc

import numpy as np
import pytest

from configeo import pointgen
from configeo.errors import CapacityError
from configeo.pointgen import (
    GeneratorSpec,
    PointSet,
    cantor_endpoints,
    format_pointset,
    gen_cantor,
    gen_coplanar,
    gen_homogeneous,
    gen_lattice,
    gen_random,
    generate,
    load_pointset,
    parse_pointset,
    save_pointset,
)


def test_lattice_corners():
    ps = gen_lattice(2, 2)
    got = {tuple(p) for p in ps.points}
    assert got == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}


def test_lattice_equispaced_1d():
    ps = gen_lattice(1, 3)
    assert ps.points.ravel().tolist() == [0.0, 0.5, 1.0]


def test_lattice_m10_count_and_separation():
    ps = gen_lattice(2, 10)
    assert ps.n == 100
    assert ps.meta.separation == pytest.approx(1.0 / 9.0, rel=0, abs=0)
    assert ps.meta.nominal_dimension == 2.0
    # separation really is the minimal pairwise distance
    diff = ps.points[:, None, :] - ps.points[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    np.fill_diagonal(dist, np.inf)
    assert dist.min() == pytest.approx(1.0 / 9.0, rel=1e-15)


def test_lattice_m1_single_origin():
    ps = gen_lattice(3, 1)
    assert ps.n == 1
    assert ps.points.tolist() == [[0.0, 0.0, 0.0]]
    assert ps.meta.separation is None


def test_lattice_budget():
    with pytest.raises(CapacityError):
        gen_lattice(2, 1001)  # 1001^2 > 1e6
    gen_lattice(2, 1000)  # exactly at the budget


@pytest.mark.parametrize("spec", [
    GeneratorSpec.make("lattice", d=2, m=4),
    GeneratorSpec.make("cantor_product", d=2, r=0.3, L=2),
    GeneratorSpec.make("homogeneous", d=2, m=4, seed=0),
    GeneratorSpec.make("uniform_random", d=2, n=16, seed=0),
    GeneratorSpec.make("coplanar", d=2, n=16, seed=0),
])
def test_every_generator_checks_the_point_budget(monkeypatch, spec):
    monkeypatch.setattr(pointgen, "DEFAULT_POINT_BUDGET", 16)
    assert generate(spec).n == 16
    monkeypatch.setattr(pointgen, "DEFAULT_POINT_BUDGET", 15)
    with pytest.raises(CapacityError):
        generate(spec)


def test_lattice_distance_multiset_cube_symmetries():
    # m = 5: dyadic coordinates, so reflections x -> 1-x are float-exact
    ps = gen_lattice(2, 5)
    base = _sorted_distances(ps.points)
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(5):
        perm = rng.permutation(2)
        flips = rng.integers(0, 2, size=2).astype(bool)
        pts = ps.points[:, perm].copy()
        pts[:, flips] = 1.0 - pts[:, flips]
        np.testing.assert_array_equal(_sorted_distances(pts), base)


def _sorted_distances(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    iu = np.triu_indices(len(pts), k=1)
    return np.sort(dist[iu])


def test_cantor_first_subdivision():
    ps = gen_cantor(1, 1.0 / 3.0, 1)
    np.testing.assert_allclose(ps.points.ravel(), [0.0, 2.0 / 3.0], rtol=0, atol=1e-15)


def test_cantor_level8_count_and_dimension():
    ps = gen_cantor(1, 1.0 / 3.0, 8)
    assert ps.n == 256
    assert ps.meta.nominal_dimension == pytest.approx(math.log(2) / math.log(3), rel=1e-12)


def test_cantor_product_unit_dimension():
    # n = 2^(d*L); the r = 1/4 square product has nominal dimension exactly 1
    ps = gen_cantor(2, 0.25, 3)
    assert ps.n == 2 ** (2 * 3)
    assert ps.meta.nominal_dimension == pytest.approx(1.0, rel=1e-12)
    assert gen_cantor(2, 0.25, 6).n == 4096


def test_cantor_nesting():
    # each level-(L+1) endpoint sits within r^L of a level-L endpoint
    r = 0.3
    for level in (1, 2, 4):
        coarse = cantor_endpoints(r, level)
        fine = cantor_endpoints(r, level + 1)
        gap = np.abs(fine[:, None] - coarse[None, :]).min(axis=1)
        assert gap.max() <= r**level + 1e-15


def test_cantor_separation_is_min_distance():
    ps = gen_cantor(2, 1.0 / 3.0, 3)
    assert ps.meta.separation == pytest.approx((2.0 / 3.0) * (1.0 / 3.0) ** 2, rel=1e-12)


def test_cantor_validation():
    with pytest.raises(ValueError):
        gen_cantor(1, 0.5, 2)
    with pytest.raises(ValueError):
        gen_cantor(1, 0.0, 2)
    with pytest.raises(ValueError):
        gen_cantor(1, 0.3, -1)


def test_random_determinism_and_range():
    a = gen_random(2, 5, seed=7)
    b = gen_random(2, 5, seed=7)
    np.testing.assert_array_equal(a.points, b.points)
    c = gen_random(3, 1000, seed=1)
    assert c.points.min() >= 0.0 and c.points.max() <= 1.0
    assert not np.array_equal(a.points, gen_random(2, 5, seed=8).points)


def test_coplanar_slice_and_collinearity():
    ps = gen_coplanar(3, 50, seed=2)
    assert np.all(ps.points[:, 2] == 0.5)
    flat = gen_coplanar(2, 3, seed=1)
    x1, x2, x3 = flat.points
    area = (x2[0] - x1[0]) * (x3[1] - x1[1]) - (x2[1] - x1[1]) * (x3[0] - x1[0])
    assert area == 0.0  # all on the line y = 1/2
    with pytest.raises(ValueError):
        gen_coplanar(1, 3, seed=0)


def test_homogeneous_one_point_per_cell():
    ps = gen_homogeneous(2, 8, seed=5)
    assert ps.n == 64
    cells = np.floor(ps.points * 8).astype(int)
    assert len({tuple(c) for c in cells}) == 64
    diff = ps.points[:, None, :] - ps.points[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    np.fill_diagonal(dist, np.inf)
    assert dist.min() >= (1.0 - 2 * 0.25) / 8 - 1e-12


def test_generate_dispatch_matches_direct():
    spec = GeneratorSpec.make("uniform_random", d=2, n=9, seed=3)
    np.testing.assert_array_equal(generate(spec).points, gen_random(2, 9, 3).points)
    spec = GeneratorSpec.make("lattice", d=2, m=4)
    np.testing.assert_array_equal(generate(spec).points, gen_lattice(2, 4).points)
    with pytest.raises(ValueError):
        generate(GeneratorSpec.make("nope", d=2))
    with pytest.raises(ValueError):
        generate(GeneratorSpec.make("lattice", d=2))  # missing m


def test_generation_is_pure():
    spec = GeneratorSpec.make("homogeneous", d=2, m=5, seed=11)
    assert format_pointset(generate(spec)) == format_pointset(generate(spec))


def test_serialization_roundtrip_bit_exact(tmp_path):
    ps = gen_random(3, 40, seed=9)
    path = tmp_path / "points.txt"
    save_pointset(ps, path)
    back = load_pointset(path)
    assert back.dim == ps.dim
    np.testing.assert_array_equal(back.points, ps.points)
    assert back.meta == ps.meta
    # serializing again reproduces the bytes
    assert format_pointset(back) == format_pointset(ps)


def test_serialization_header_and_meta():
    ps = gen_lattice(2, 3)
    text = format_pointset(ps)
    lines = text.splitlines()
    assert lines[0] == "pointset v1 d=2 n=9"
    assert "# generator=lattice" in lines
    assert text.endswith("\n") and "\r" not in text


def test_serialization_meta_lines_pinned():
    # between them the two sets carry all four meta fields, in field order
    heads = {"cantor": "pointset v1 d=2 n=64\n# generator=cantor_product\n"
                       "# nominal_dimension=1.1514332849868898\n# separation=0.062999999999999945\n",
             "random": "pointset v1 d=3 n=50\n# generator=uniform_random\n# seed=4\n"
                       "# nominal_dimension=3\n"}
    for name, ps in {"cantor": gen_cantor(2, 0.3, 3), "random": gen_random(3, 50, 4)}.items():
        text = format_pointset(ps)
        assert text.startswith(heads[name]) and not text[len(heads[name]):].startswith("#")
        assert parse_pointset(text).meta == ps.meta


def test_parser_refuses_a_count_over_the_budget_before_any_row():
    with pytest.raises(CapacityError, match="1000001 points exceeds the budget"):
        parse_pointset(f"pointset v1 d=2 n={pointgen.DEFAULT_POINT_BUDGET + 1}\n0 0\n")


def test_parser_rejects_mismatches():
    good = format_pointset(gen_lattice(2, 2))
    with pytest.raises(ValueError):
        parse_pointset(good.replace("d=2", "d=3"))  # wrong coordinate count
    with pytest.raises(ValueError):
        parse_pointset(good.replace("n=4", "n=5"))  # wrong point count
    with pytest.raises(ValueError):
        parse_pointset("nonsense\n0 0\n")
    with pytest.raises(ValueError):
        parse_pointset("")
    with pytest.raises(ValueError):
        parse_pointset(good + "0 0 0\n")  # a ragged row
    with pytest.raises(ValueError):
        parse_pointset(good.replace("\n1 1\n", "\n1 x\n"))  # an unparseable coordinate


def test_parser_reads_rows_into_the_array_directly(tmp_path):
    # the rows go from their lines to np.loadtxt, with no Python list of floats
    ps = gen_random(2, 50_000, seed=0)
    path = tmp_path / "points.txt"
    save_pointset(ps, path)
    text = path.read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        back = parse_pointset(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back.points, ps.points)
    assert back.meta == ps.meta and format_pointset(back) == text
    assert peak < 200 * ps.n  # about 140 B per point; a list of float rows took about 290


def test_pointset_validates():
    with pytest.raises(ValueError):
        PointSet(dim=2, points=[[0.0, 1.5]])
    with pytest.raises(ValueError):
        PointSet(dim=2, points=[[-0.1, 0.5]])
    with pytest.raises(ValueError):
        PointSet(dim=2, points=np.empty((0, 2)))
    ps = PointSet(dim=1, points=[[0.5]])
    with pytest.raises(ValueError):
        ps.points[0, 0] = 0.1  # read-only

