import math
from fractions import Fraction

import numpy as np
import pytest

from configeo import expfit
from configeo.configcount import ConfigQuery, PhiFunction, run_query
from configeo.errors import InfeasibleError
from configeo.expfit import (
    ScanSpec,
    count_exponent,
    fit_slope,
    run_scan,
    threshold,
)
from configeo.pointgen import GENERATORS, GeneratorSpec, gen_lattice, gen_random, generate


# ---------------------------------------------------------------------------
# threshold registry


def test_simplex_thresholds_exact():
    assert threshold("simplex", 2, 2) == Fraction(7, 4)
    assert threshold("simplex", 1, 2) == Fraction(3, 2)
    assert threshold("simplex", 2, 3) == Fraction(5, 2)
    assert threshold("simplex", 3, 3) == Fraction(3) - Fraction(2, 6)


def test_volume_thresholds_exact():
    assert threshold("volume", 2, 2) == Fraction(5, 4)
    assert threshold("volume", 3, 3) == Fraction(9, 4)
    assert threshold("volume", 4, 4) == Fraction(3) + Fraction(1, 8)
    assert threshold("volume", 5, 5) == Fraction(4) + Fraction(1, 8)


def test_area2_and_angle_thresholds_exact():
    for d in range(2, 9):
        assert threshold("area2", 2, d) == Fraction(d, 2) + Fraction(1, 4)
        assert threshold("angle", 2, d) == Fraction(d + 1, 2)


def test_pair_threshold_coincides_with_angle():
    for d in range(2, 9):
        assert threshold("simplex", 1, d) == threshold("angle", 2, d) == Fraction(d + 1, 2)


def test_thresholds_nontrivial():
    for d in range(2, 8):
        for k in range(1, d + 1):
            assert threshold("simplex", k, d) < d


def test_threshold_validation():
    with pytest.raises(ValueError):
        threshold("simplex", 3, 2)  # k > d
    with pytest.raises(ValueError):
        threshold("volume", 2, 3)  # k != d
    with pytest.raises(ValueError):
        threshold("simplex", 1, 1)
    with pytest.raises(ValueError):
        threshold("custom", 1, 2)


# ---------------------------------------------------------------------------
# count exponents


def test_count_exponent_known_values():
    assert count_exponent("simplex", 2, 3, Fraction(5, 2)) == Fraction(9, 5)
    # the formula value at s = 5/4 in the plane is 11/5
    assert count_exponent("volume", 2, 2, Fraction(5, 4)) == Fraction(11, 5)
    assert count_exponent("angle", 2, 3, Fraction(2)) == Fraction(5, 2)
    assert count_exponent("area2", 2, 4, Fraction(1, 2)) == Fraction(1)


def test_count_exponent_float_path():
    val = count_exponent("volume", 2, 2, 1.25)
    assert isinstance(val, float) and val == pytest.approx(2.2, rel=1e-15)


def test_count_exponent_limit_is_tuple_size():
    for k in (1, 2, 3):
        assert float(count_exponent("simplex", k, 3, 10.0**12)) == pytest.approx(
            k + 1, abs=1e-9
        )
    assert float(count_exponent("volume", 3, 3, 10.0**12)) == pytest.approx(4, abs=1e-9)


def test_count_exponent_monotone_in_s():
    grid = [0.5, 1.0, 1.7, 2.5, 4.0]
    for family, k, d in (("simplex", 2, 3), ("volume", 3, 3), ("area2", 2, 3), ("angle", 2, 3)):
        vals = [float(count_exponent(family, k, d, s)) for s in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_count_exponent_validation():
    with pytest.raises(ValueError):
        count_exponent("simplex", 2, 3, 0.0)
    with pytest.raises(ValueError):
        count_exponent("custom", 2, 3, 1.0)


@pytest.mark.parametrize("s", [float("nan"), float("inf")])
def test_non_finite_s_is_refused(s, monkeypatch):
    with pytest.raises(ValueError, match=f"s must be positive and finite, got s={s:g}$"):
        count_exponent("simplex", 2, 3, s)
    # a scan refuses it before any point set is generated
    monkeypatch.setattr(expfit, "generate", lambda spec: pytest.fail("generated a point set"))
    with pytest.raises(ValueError, match=f"s must be positive and finite, got s={s:g}$"):
        run_scan(ScanSpec(generator=GeneratorSpec.make("uniform_random", d=2), family="simplex",
                          k=1, schedule=(20, 40, 80), s=s, t=(0.5,), predicted=1.5))


def test_simplex_k2_threshold_and_exponent_in_plane():
    assert threshold("simplex", 2, 2) == Fraction(7, 4)
    assert float(count_exponent("simplex", 2, 2, 2.0)) == pytest.approx(3 - 3 / 2.0)


# ---------------------------------------------------------------------------
# slope fitting


def test_fit_slope_exact_power_law():
    slope, stderr = fit_slope([(10, 100.0), (100, 10.0**4), (1000, 10.0**6)])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-9)


def test_fit_slope_constant():
    slope, _ = fit_slope([(10, 7.0), (100, 7.0), (1000, 7.0)])
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_three_point_case():
    samples = [(16, 50.0), (64, 380.0), (256, 3100.0)]
    slope, stderr = fit_slope(samples)
    # independent oracle: numpy polyfit on the log-log data
    want = np.polyfit(np.log([16, 64, 256]), np.log([50, 380, 3100]), 1)[0]
    assert slope == pytest.approx(want, rel=1e-12)
    assert slope == pytest.approx(1.49, abs=0.01)
    assert 0 < stderr < 0.05


def test_fit_slope_recovers_exponent():
    ns = [12, 40, 133, 447, 1500]
    for amp in (0.3, 2.0, 10.0):
        for beta in (-5.0, -1.2, 0.0, 2.7, 5.0):
            slope, _ = fit_slope([(n, amp * float(n) ** beta) for n in ns])
            assert slope == pytest.approx(beta, abs=1e-9)


def test_fit_slope_drops_zeros():
    slope, _ = fit_slope([(10, 0.0), (20, 8.0), (40, 64.0), (80, 512.0)])
    assert slope == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(InfeasibleError):
        fit_slope([(10, 0.0), (20, 0.0), (40, 64.0), (80, 512.0)])


# ---------------------------------------------------------------------------
# scans


def test_lattice_scan_consistent():
    spec = ScanSpec(
        generator=GeneratorSpec.make("lattice", d=2),
        family="simplex",
        k=1,
        schedule=(100, 400, 1600),
        s=2.0,
        t=(0.5,),
        seed=0,
    )
    report = run_scan(spec)
    assert report.verdict == "consistent"
    assert report.predicted == pytest.approx(1.5)
    assert report.fitted_slope <= 1.5 + 0.3
    assert [r.n for r in report.rows] == [100, 400, 1600]
    # delta rule: n^(-1/2) on the actual sizes
    assert [r.delta for r in report.rows] == [pytest.approx(n**-0.5) for n in (100, 400, 1600)]
    assert len(report.energy) == 3


def test_scan_deterministic():
    spec = ScanSpec(
        generator=GeneratorSpec.make("uniform_random", d=2),
        family="simplex",
        k=1,
        schedule=(50, 100, 200),
        s=2.0,
        seed=42,
    )
    a, b = run_scan(spec), run_scan(spec)
    assert a == b
    assert a.t == b.t  # sampled target is part of the determinism contract


def test_coplanar_volume_scan_inconclusive():
    spec = ScanSpec(
        generator=GeneratorSpec.make("coplanar", d=3),
        family="volume",
        k=3,
        schedule=(20, 40, 80),
        s=2.0,
        t=(0.2,),
        delta=0.05,
        seed=1,
    )
    report = run_scan(spec)
    assert report.verdict == "inconclusive"
    assert all(r.count == 0 for r in report.rows)
    assert report.fitted_slope is None


def test_scan_with_one_zero_count_is_inconclusive():
    # the lattices {0, 1/(m-1), ..., 1} for m = 3, 5, 9 have the distance 0.25 at m = 5 and 9
    # only; one zero of three is under the half-zero rule, but two counts cannot be fitted
    spec = ScanSpec(generator=GeneratorSpec.make("lattice", d=1), family="simplex", k=1,
                    schedule=(3, 5, 9), s=1.0, t=(0.25,), delta=0.01)
    report = run_scan(spec)
    assert [r.count for r in report.rows] == [0, 8, 14]
    assert report.verdict == "inconclusive"
    assert report.fitted_slope is None and report.stderr is None


DISTANCE_PHI = PhiFunction(arity=2, output_dim=1, evaluator=lambda tuples: np.sqrt(
    ((tuples[:, 1] - tuples[:, 0]) ** 2).sum(axis=-1))[:, None])


def test_custom_scan_samples_its_target_through_the_map():
    # the same seeded tuple, valued by the map, is the simplex scan's target
    common = dict(generator=GeneratorSpec.make("uniform_random", d=2), k=1,
                  schedule=(30, 60, 120), s=2.0, seed=3)
    custom = run_scan(ScanSpec(family="custom", phi=DISTANCE_PHI, predicted=1.5, **common))
    simplex = run_scan(ScanSpec(family="simplex", **common))
    assert custom.t == simplex.t
    assert [r.count for r in custom.rows] == [r.count for r in simplex.rows]
    batch = PhiFunction(arity=2, output_dim=1, evaluator=lambda tuples: np.zeros(2))
    with pytest.raises(ValueError, match="evaluator returned shape"):
        run_scan(ScanSpec(family="custom", phi=batch, predicted=1.5, **common))


def test_custom_scan_k_is_the_map_arity_minus_one():
    gen = GeneratorSpec.make("uniform_random", d=2)
    # the map's arity fixes k, whatever the template's d
    with pytest.raises(ValueError, match=r"^custom family needs k = 1 for a map of arity 2, got k=5$"):
        ScanSpec(generator=gen, family="custom", k=5, schedule=(20, 40, 80), t=(0.0,), delta=0.01,
                 phi=DISTANCE_PHI, predicted=1.5)
    with pytest.raises(ValueError, match="explicit predicted exponent"):
        ScanSpec(generator=gen, family="custom", k=1, schedule=(20, 40, 80), phi=DISTANCE_PHI)
    with pytest.raises(ValueError, match="custom query"):
        ScanSpec(generator=gen, family="simplex", k=1, schedule=(20, 40, 80), phi=DISTANCE_PHI)


def test_constant_phi_scan_exceeds():
    phi = PhiFunction(arity=2, output_dim=1, evaluator=lambda tuples: np.zeros((len(tuples), 1)))
    spec = ScanSpec(
        generator=GeneratorSpec.make("uniform_random", d=2),
        family="custom",
        k=1,
        schedule=(20, 40, 80),
        seed=2,
        s=2.0,
        t=(0.0,),
        delta=0.01,
        phi=phi,
        predicted=1.5,
    )
    report = run_scan(spec)
    assert report.verdict == "exceeds"
    assert report.fitted_slope == pytest.approx(2.0, abs=0.1)


def test_scan_sampled_target_realized():
    spec = ScanSpec(
        generator=GeneratorSpec.make("uniform_random", d=2),
        family="simplex",
        k=2,
        schedule=(30, 60, 120),
        s=2.0,
        seed=3,
    )
    report = run_scan(spec)
    assert len(report.t) == 3
    # a realized target is countable at the largest n with a generous delta
    assert report.rows[-1].count >= 1 or report.verdict == "inconclusive"


@pytest.mark.parametrize("family,ps,seeds", [
    ("volume", gen_lattice(2, 6), range(4)), ("volume", gen_random(2, 40, seed=5), range(4)),
    ("volume", gen_lattice(3, 4), range(4)), ("volume", gen_lattice(3, 5), [1]),
    ("volume", gen_random(3, 30, seed=5), range(4)),
    ("area2", gen_lattice(3, 5), range(4)), ("area2", gen_random(3, 40, seed=5), range(4)),
])
def test_sampled_target_counts_its_own_tuple(family, ps, seeds):
    # the target is the oracle's value of the drawn tuple, so a delta = 0 count includes it;
    # on gen_lattice(3, 5) at seed 1 that is 0.015625, which 11,418,240 tuples take, while
    # np.linalg.det of the same tuple gives 0.015625000000000007, which none take
    k = ps.dim if family == "volume" else 2
    for seed in seeds:
        spec = ScanSpec(generator=GeneratorSpec.make("lattice", d=ps.dim), family=family, k=k,
                        schedule=(8, 27, 64), seed=seed)  # m = 3, 5, 8 at d = 2 and 2, 3, 4 at d = 3
        t = expfit._sample_target(ps, spec)
        assert run_query(ps, ConfigQuery(family, k, t, 0.0)).count >= 1, (seed, t)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("n,d", [(100, 2), (500, 3)])
def test_scan_template_sized_for_n_generates_its_rule_size(kind, n, d):
    row = GENERATORS[kind]
    # a required extra gets a value its builder accepts; the others keep their defaults
    extras = {name: 0.3 for name, default in row.extras.items() if default is None}
    spec = expfit._sized_generator(GeneratorSpec.make(kind, d=d, **extras), n, seed=7)
    assert spec.as_dict()[row.size] == row.scan_size(n, d)
    ps = generate(spec)
    assert ps.dim == d and n / 2 <= ps.n <= 2 * n
    assert ps.meta.seed == (7 if row.seeded else None)


def test_scan_spec_validation():
    gen = GeneratorSpec.make("lattice", d=2)
    with pytest.raises(ValueError):
        ScanSpec(generator=gen, family="simplex", k=1, schedule=(10, 20))
    with pytest.raises(ValueError):
        ScanSpec(generator=gen, family="simplex", k=1, schedule=(10, 20, 15))
    # steps whose sizes tie make one point set, which the fit would count twice
    with pytest.raises(ValueError, match="steps n=250 and n=260 make the same lattice set, m=16"):
        ScanSpec(generator=gen, family="simplex", k=1, schedule=(250, 260, 1000, 1100))
    with pytest.raises(ValueError, match="steps n=64 and n=100 make the same cantor_product set, L=3"):
        ScanSpec(generator=GeneratorSpec.make("cantor_product", d=2, r=0.25), family="simplex", k=1,
                 schedule=(20, 64, 100))
    with pytest.raises(ValueError):
        ScanSpec(generator=gen, family="custom", k=1, schedule=(10, 20, 40))
    with pytest.raises(ValueError):
        ScanSpec(generator=gen, family="nope", k=1, schedule=(10, 20, 40))


def test_scan_checks_k_before_generating(monkeypatch):
    monkeypatch.setattr(expfit, "generate", lambda spec: pytest.fail("generated a point set"))
    template = GeneratorSpec.make("uniform_random", d=2)
    with pytest.raises(ValueError, match="k <= d"):
        run_scan(ScanSpec(generator=template, family="simplex", k=3, schedule=(20, 40, 80)))


@pytest.mark.parametrize("t,delta,match", [
    ((0.5, 0.5), None, "simplex target needs 1 entries, got 2"),
    ((-0.5,), None, "simplex targets must be finite and positive"),
    ((math.nan,), None, "simplex targets must be finite and positive"),
    ((0.5,), -0.1, "delta must be finite and positive"),
    (None, math.nan, "delta must be finite and positive"),
], ids=["length", "domain", "nan_t", "negative_delta", "nan_delta"])
def test_scan_checks_t_and_delta_before_generating(monkeypatch, t, delta, match):
    # each step's ConfigQuery would refuse them, after every set is generated
    monkeypatch.setattr(expfit, "generate", lambda spec: pytest.fail("generated a point set"))
    with pytest.raises(ValueError, match=match):
        run_scan(ScanSpec(generator=GeneratorSpec.make("uniform_random", d=2), family="simplex", k=1,
                          schedule=(20, 40, 80), t=t, delta=delta))


def test_scan_verdict_margin_rule():
    # verdict is `exceeds` only when slope - 2*stderr > predicted
    phi = PhiFunction(arity=2, output_dim=1, evaluator=lambda tuples: np.zeros((len(tuples), 1)))
    spec = ScanSpec(
        generator=GeneratorSpec.make("uniform_random", d=2),
        family="custom",
        k=1,
        schedule=(20, 40, 80),
        seed=2,
        s=2.0,
        t=(0.0,),
        delta=0.01,
        phi=phi,
        predicted=10.0,  # far above anything measurable
    )
    assert run_scan(spec).verdict == "consistent"
