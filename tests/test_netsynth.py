import json
import math
import re
from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margingate import netsynth
from margingate.errors import GenerationFailed, ResonanceSingular, SingularAtFrequency
from margingate.freqresp import FrequencyGrid, log_grid
from margingate.netsynth import (
    Capacitor,
    CaseFixture,
    Inductor,
    NetworkElement,
    Parallel,
    Rational,
    Resistor,
    Series,
    Thevenin,
    eval_network,
    network_from_json,
    network_to_json,
    network_to_obj,
    par,
    random_case,
    scale_network,
)

finite_complex = st.builds(
    complex,
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
).filter(lambda z: abs(z) > 1e-6)


class TestAlgebra:
    def test_par_equal_halves(self):
        assert par(1 + 0j, 1 + 0j) == 0.5 + 0j

    def test_par_open_circuit_limit(self):
        z = par(1 + 0j, 1e12 + 0j)
        assert abs(z - 1.0) < 1e-11

    def test_par_antiresonance(self):
        with pytest.raises(ResonanceSingular):
            par(1j, -1j)

    def test_par_antiresonance_names_the_frequency(self):
        z1 = np.array([1.0 + 0j, 2j, 3j])
        z2 = np.array([1.0 + 0j, -2j, -3j])
        with pytest.raises(ResonanceSingular, match="near 20.0 Hz"):
            par(z1, z2, f=np.array([10.0, 20.0, 30.0]))
        with pytest.raises(ResonanceSingular, match="near 50.0 Hz"):
            par(1 + 0j, -1 + 0j, 50.0)  # scalar operands and frequency

    @pytest.mark.parametrize(
        "z1, z2",
        [
            (np.array([1.0 + 2j, 3j, 0.5 - 1j]), np.array([1.0 + 2j, 1.0 + 0j, 0.5 - 1j])),
            (np.array(2.0 - 1j), np.array(0.5 + 4j)),
            (np.array(2.0 - 1j), np.array(2.0 - 1j)),
        ],
        ids=["1-d", "0-d", "0-d-equal"],
    )
    def test_par_never_writes_its_operands(self, z1, z2):
        before = z1.copy(), z2.copy()
        for z in (z1, z2):
            z.setflags(write=False)  # an in-place write would raise
        par(z1, z2)
        par(z2, z1, f=np.full(z1.shape, 50.0))
        assert z1.tobytes() == before[0].tobytes()
        assert z2.tobytes() == before[1].tobytes()

    @given(finite_complex, finite_complex)
    @settings(max_examples=200, deadline=None)
    def test_par_commutative(self, a, b):
        if abs(a + b) <= 1e-9 * max(abs(a), abs(b)):
            return
        # the admittance sums and the minimum of |Z|^2 commute in floats
        left, right = par(a, b), par(b, a)
        assert np.array([left]).tobytes() == np.array([right]).tobytes()

    @given(finite_complex, finite_complex, finite_complex)
    @settings(max_examples=200, deadline=None)
    def test_par_associative(self, a, b, c):
        # non-singular triples: every intermediate sum clear of cancellation
        scale = max(abs(a), abs(b), abs(c))
        if abs(a + b) < 1e-2 * scale or abs(b + c) < 1e-2 * scale:
            return
        inner_l, inner_r = par(a, b), par(b, c)
        if (
            abs(inner_l + c) < 1e-2 * max(abs(inner_l), abs(c))
            or abs(a + inner_r) < 1e-2 * max(abs(a), abs(inner_r))
        ):
            return
        left, right = par(inner_l, c), par(a, inner_r)
        assert abs(left - right) <= 1e-12 * max(abs(left), abs(right))


class TestEval:
    def test_resistor_constant(self):
        g = log_grid(1, 1000, 10)
        r = eval_network(Resistor(1.0), g)
        assert np.all(r.samples == 1.0 + 0j)
        assert r.unit == "ohm"

    def test_inductor_capacitor(self):
        g = FrequencyGrid([100.0, 200.0])
        zl = eval_network(Inductor(1e-3), g).samples[0]
        assert zl == pytest.approx(1j * 2 * math.pi * 100 * 1e-3)
        zc = eval_network(Capacitor(1e-6), g).samples[0]
        assert zc == pytest.approx(1.0 / (1j * 2 * math.pi * 100 * 1e-6))

    def test_thevenin_split(self):
        # arithmetic oracle: |Z| = V^2/S, R = |Z|/sqrt(1+XR^2), X(50) = R*XR
        th = Thevenin(66e3, 1000e6, 10.0)
        zmag = 66e3**2 / 1000e6
        assert zmag == pytest.approx(4.3560, abs=5e-5)
        r_expect = zmag / math.sqrt(1 + 100.0)
        assert th.r_ohm == pytest.approx(r_expect, rel=1e-12)
        assert th.r_ohm == pytest.approx(0.43344, abs=5e-6)
        g = FrequencyGrid([50.0, 100.0])
        z50 = eval_network(th, g).samples[0]
        assert z50.real == pytest.approx(r_expect, rel=1e-12)
        assert z50.imag == pytest.approx(r_expect * 10.0, rel=1e-12)
        assert z50.imag == pytest.approx(4.3344, abs=5e-5)

    def test_lc_parallel_resonance_singular(self):
        f0 = 100.0
        l_h = 1e-3
        c_f = 1.0 / ((2 * math.pi * f0) ** 2 * l_h)
        net = Parallel((Inductor(l_h), Capacitor(c_f)))
        with pytest.raises(SingularAtFrequency):
            eval_network(net, FrequencyGrid([50.0, f0, 200.0]))

    def test_partial_pair_cancelling_is_not_singular(self):
        # 1 - 1 + 1 siemens: only the whole admittance sum is guarded, so
        # the first two branches may cancel each other
        net = Parallel((Resistor(1.0), Rational(-1.0), Resistor(1.0)))
        assert np.all(eval_network(net, FrequencyGrid([50.0, 100.0])).samples == 1.0)
        with pytest.raises(SingularAtFrequency, match="cancel: .* near 50.0 Hz"):
            eval_network(Parallel((Resistor(1.0), Rational(-1.0))), FrequencyGrid([50.0, 100.0]))

    @pytest.mark.parametrize("policy", ["ignore", "warn", "raise"])
    def test_zero_impedance_branch_names_its_frequency(self, policy):
        # a Rational zero on the axis is exactly 0 ohm at f0, a short
        # circuit across the node; no float fault and no NaN sample
        f0 = 100.0
        w0 = 2.0 * math.pi * f0
        short = Rational(1.0, (complex(0, w0), complex(0, -w0)))
        grid = FrequencyGrid([50.0, f0, 200.0])
        assert eval_network(short, grid).samples[1] == 0
        with np.errstate(all=policy):
            with pytest.raises(SingularAtFrequency, match=re.escape(f"|Z| ~ 0 near {f0} Hz")):
                eval_network(Parallel((Resistor(1.0), short)), grid)
            with pytest.raises(ResonanceSingular, match=re.escape(f"|Z| ~ 0 near {f0} Hz")):
                par(np.array([1.0, 0.0]), np.array([1.0, 2.0]), f=np.array([50.0, f0]))

    def test_rational_pole_on_axis(self):
        net = Rational(1.0, poles_rad_s=(1j * 2 * math.pi * 100.0, -1j * 2 * math.pi * 100.0))
        with pytest.raises(SingularAtFrequency):
            eval_network(net, FrequencyGrid([50.0, 100.0]))

    def test_rational_conjugate_pairs_required(self):
        with pytest.raises(ValueError):
            Rational(1.0, zeros_rad_s=(1 + 1j,))

    @pytest.mark.parametrize("name", ["zeros", "poles"])
    def test_rational_conjugate_pair_rule(self, name):
        p = complex(-100.0, 300.0)
        key = f"{name}_rad_s"
        # a repeated pair is two pairs, in any order; real roots need no partner
        for roots in ((p, p.conjugate(), p, p.conjugate()), (p, p, p.conjugate(), p.conjugate()),
                      (-5.0, 0.0, -5.0, complex(-1.0, -0.0)), (p, 7.0, p.conjugate())):
            assert getattr(Rational(1.0, **{key: roots}), key) == roots
        for roots in ((p, p.conjugate(), p), (p,), (p, p), (p.conjugate(), -5.0)):
            with pytest.raises(ValueError) as exc:
                Rational(1.0, **{key: roots})
            prefix = f"rational {name} must come in conjugate pairs: "
            assert str(exc.value).startswith(prefix)
            unpaired = str(exc.value)[len(prefix):]
            assert unpaired in {str(r) for r in roots if complex(r).imag != 0.0}

    def test_rational_roots_are_coerced_to_complex(self):
        net = Rational(2.0, zeros_rad_s=[1, 2.5, 3 + 0j], poles_rad_s=(-4, complex(-1, 2), -1 - 2j))
        assert net.zeros_rad_s == (1 + 0j, 2.5 + 0j, 3 + 0j)
        assert net.poles_rad_s == (-4 + 0j, complex(-1, 2), complex(-1, -2))
        for roots in (net.zeros_rad_s, net.poles_rad_s):
            assert type(roots) is tuple
            assert all(type(r) is complex for r in roots)

    def test_rational_evaluation(self):
        # gain * (s - z) / (s - p) with real roots
        net = Rational(2.0, zeros_rad_s=(-100.0,), poles_rad_s=(-200.0,))
        g = FrequencyGrid([10.0, 100.0])
        s = 1j * 2 * math.pi * 10.0
        expected = 2.0 * (s + 100.0) / (s + 200.0)
        assert eval_network(net, g).samples[0] == pytest.approx(expected, rel=1e-14)

    def test_series_parallel_match_ser_par(self):
        g = log_grid(5, 2000, 64)
        a = Series((Resistor(2.0), Inductor(3e-3)))
        b = Series((Resistor(1.0), Capacitor(20e-6)))
        za = eval_network(a, g).samples
        zb = eval_network(b, g).samples
        zs = eval_network(Series((a, b)), g).samples
        zp = eval_network(Parallel((a, b)), g).samples
        assert np.allclose(zs, za + zb, rtol=1e-14)
        assert np.allclose(zp, par(za, zb), rtol=1e-14)

    def test_evaluations_return_fresh_arrays(self):
        # Series sums into its first child's array, so no evaluation may
        # hand out an array that another one still holds
        g = log_grid(5, 2000, 64)
        leaf = Series((Resistor(2.0), Inductor(3e-3)))
        tree = Series((leaf, Parallel((leaf, Capacitor(20e-6))), Thevenin(66e3, 1e9, 8.0)))
        first, second = eval_network(tree, g), eval_network(tree, g)
        assert first.samples.tobytes() == second.samples.tobytes()
        assert not np.shares_memory(first.samples, second.samples)
        assert eval_network(leaf, g).samples.tobytes() == eval_network(leaf, g).samples.tobytes()

    def test_passivity(self):
        g = log_grid(1, 5000, 500)
        for seed in range(10):
            case = random_case(seed, 2, (1.0, 5000.0))
            for desc in (case.z_net_old,):  # passive by construction
                z = eval_network(desc, case.grid).samples
                assert np.all(z.real >= -1e-12 * np.abs(z))


# -- exact oracle ----------------------------------------------------------------

_U = 2.0**-53  # unit roundoff of float64


def exact_impedance(desc, w: Fraction):
    """The impedance of an R/L/C/Thevenin tree at the float ω ``w``, in
    exact rational arithmetic from the same float element values, as a
    (real, imag) pair of Fractions; with a first-order bound on the
    evaluator's absolute error.

    The bound takes w*L (one rounding) as 2u, 1/(w*C) (two) as 3u, a sum
    of n terms as 2u per addition over the sum of magnitudes, each
    admittance r/d, x/d with d = r^2 + x^2 as 5u and the final inversion
    as 5u (u = 2**-53), and carries each child's error through 1/Z to
    first order.
    """
    if isinstance(desc, Resistor):
        return (Fraction(desc.r_ohm), Fraction(0)), 0.0
    if isinstance(desc, Capacitor):
        x = -1 / (w * Fraction(desc.c_farad))
        return (Fraction(0), x), 3 * _U * abs(float(x))
    if isinstance(desc, (Inductor, Thevenin)):
        x = w * Fraction(desc.l_henry)
        return (Fraction(getattr(desc, "r_ohm", 0.0)), x), 2 * _U * float(x)
    kids = [exact_impedance(c, w) for c in desc.children]
    mags = [math.hypot(float(r), float(x)) for (r, x), _ in kids]
    adds = 2 * (len(kids) - 1) * _U
    if isinstance(desc, Series):
        z = (sum(r for (r, _), _ in kids), sum(x for (_, x), _ in kids))
        return z, sum(e for _, e in kids) + adds * sum(mags)
    g = sum(r / (r * r + x * x) for (r, x), _ in kids)
    s = sum(x / (r * r + x * x) for (r, x), _ in kids)
    e_y = sum((e / m + 5 * _U) / m for (_, e), m in zip(kids, mags))
    e_y += adds * sum(1 / m for m in mags)
    d = g * g + s * s
    y_mag = math.sqrt(float(d))
    return (g / d, s / d), (e_y / y_mag + 5 * _U) / y_mag


def random_lumped_tree(rng, depth: int) -> NetworkElement:
    """Series and Parallel nodes of 2-4 children over R, L, C and Thevenin
    leaves, at most ``depth`` levels deep."""
    if depth == 0 or rng.random() < 0.35:
        kind = rng.integers(4)
        if kind == 0:
            return Resistor(10 ** rng.uniform(-2, 2))
        if kind == 1:
            return Inductor(10 ** rng.uniform(-5, -1))
        if kind == 2:
            return Capacitor(10 ** rng.uniform(-7, -3))
        return Thevenin(66e3, rng.uniform(4e8, 2e9), rng.uniform(3.0, 12.0))
    node = Series if rng.random() < 0.5 else Parallel
    return node(tuple(random_lumped_tree(rng, depth - 1) for _ in range(rng.integers(2, 5))))


class TestExactOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_nested_trees_within_their_rounding_bound(self, seed):
        # 100 trees at 9 frequencies per seed: over seeds 0-2 the error
        # reached 0.45 of the bound, and 14.5 eps relative to |Z| where a
        # Series or Parallel node cancels; with the leaf terms at the bare
        # u and 2u, 300 trees per seed reached 0.96 of it over seeds 0-8
        rng = np.random.default_rng(seed)
        grid = log_grid(1.0, 1e4, 9)
        w = 2.0 * math.pi * grid.points  # the float ω that eval_network uses
        for _ in range(100):
            desc = random_lumped_tree(rng, 3)
            z = eval_network(desc, grid).samples
            for zi, wi in zip(z, w):
                (re_, im_), bound = exact_impedance(desc, Fraction(float(wi)))
                err2 = (Fraction(zi.real) - re_) ** 2 + (Fraction(zi.imag) - im_) ** 2
                assert math.sqrt(err2) <= bound, (desc, wi)


class TestValidation:
    LEAF_FIELDS = (
        (Resistor, "r_ohm"),
        (Inductor, "l_henry"),
        (Capacitor, "c_farad"),
        (Thevenin, "v_ll_volt"),
        (Thevenin, "s_sc_va"),
        (Thevenin, "xr"),
    )
    GOOD = {"r_ohm": 1.0, "l_henry": 1e-3, "c_farad": 1e-6,
            "v_ll_volt": 66e3, "s_sc_va": 1e9, "xr": 5.0}

    @pytest.mark.parametrize("cls,name", LEAF_FIELDS)
    @pytest.mark.parametrize("bad", [0, -1, 0.0, -1.0, math.nan, math.inf, -math.inf, "1", True])
    def test_leaf_field_must_be_positive_finite(self, cls, name, bad):
        kwargs = {f: self.GOOD[f] for f in cls.__dataclass_fields__}
        kwargs[name] = bad
        with pytest.raises(ValueError) as exc:
            cls(**kwargs)
        assert str(exc.value) == f"{name} must be a positive finite number, got {bad!r}"

    def test_thevenin_names_its_first_bad_field(self):
        cases = (
            ((0.0, -1.0, math.nan), "v_ll_volt", 0.0),
            ((66e3, -1.0, math.nan), "s_sc_va", -1.0),
            ((66e3, 1e9, math.inf), "xr", math.inf),
            (("66e3", 0, 0), "v_ll_volt", "66e3"),
        )
        for args, name, bad in cases:
            with pytest.raises(ValueError) as exc:
                Thevenin(*args)
            assert str(exc.value) == f"{name} must be a positive finite number, got {bad!r}"

    def test_bools_are_not_numbers(self):
        # float(True) is 1.0, and the JSON of Resistor(True) would not round-trip
        for gain in (True, False):
            with pytest.raises(ValueError) as exc:
                Rational(gain)
            assert str(exc.value) == "rational gain must be finite and nonzero"
        for obj, name in (
            ({"type": "resistor", "r_ohm": True}, "r_ohm"),
            ({"type": "thevenin", "v_ll_volt": 66e3, "s_sc_va": 1e9, "xr": True}, "xr"),
            ({"type": "rational", "gain": False}, "gain"),
            ({"type": "rational", "gain": 2.0, "zeros_rad_s": [[True, 0]]}, "zeros_rad_s"),
            ({"type": "rational", "gain": 2.0, "zeros_rad_s": [[1.0, False]]}, "zeros_rad_s"),
        ):
            with pytest.raises(ValueError) as exc:
                network_from_json(json.dumps(obj).encode("utf-8"))
            bad = obj[name]
            assert str(exc.value) == f"{obj['type']} element: bad or missing {name!r}: {bad!r}"

    @pytest.mark.parametrize("cls", [Series, Parallel])
    def test_branches_need_two_children(self, cls):
        for kids in ((), (Resistor(1.0),), [], [Inductor(1e-3)]):
            with pytest.raises(ValueError) as exc:
                cls(kids)
            assert str(exc.value) == "series/parallel need at least two children"

    @pytest.mark.parametrize("cls", [Series, Parallel])
    def test_children_must_be_elements(self, cls):
        for bad in (1.0, "r", None, Resistor):
            with pytest.raises(ValueError) as exc:
                cls((Resistor(1.0), bad, Inductor(1e-3)))
            assert str(exc.value) == f"child is not a NetworkElement: {bad!r}"

    @pytest.mark.parametrize("cls", [Series, Parallel])
    def test_children_are_stored_as_a_tuple(self, cls):
        kids = [Resistor(1.0), Capacitor(1e-6), Series((Resistor(2.0), Inductor(1e-3)))]
        node = cls(kids)
        assert type(node.children) is tuple
        assert node.children == tuple(kids)
        assert node == cls(iter(kids)) == cls(tuple(kids))
        assert node != (Parallel if cls is Series else Series)(kids)

    @pytest.mark.parametrize("cls", [Series, Parallel])
    def test_branches_keep_the_generated_methods_of_one_definition(self, cls):
        kids = (Resistor(1.0), Inductor(1e-3))
        node = cls(kids)
        assert [fld.name for fld in fields(cls)] == ["children"]
        assert repr(node) == f"{cls.__name__}(children={kids!r})"
        assert hash(node) == hash(cls(list(kids)))
        with pytest.raises(FrozenInstanceError):
            node.children = kids

    def test_unknown_elements_are_named(self):
        @dataclass(frozen=True)
        class Stub(NetworkElement):
            r_ohm: float

        for unknown in (NetworkElement(), Stub(1.0)):
            name = type(unknown).__name__
            for desc in (unknown, Series((Resistor(1.0), unknown))):
                for call in (
                    lambda: eval_network(desc, log_grid(1, 100, 8)),
                    lambda: scale_network(desc, 2.0),
                    lambda: network_to_obj(desc),
                ):
                    with pytest.raises(ValueError) as exc:
                        call()
                    assert str(exc.value) == f"unknown network element {name}"


class TestScale:
    def test_scaling_scales_impedance(self):
        g = log_grid(1, 1000, 40)
        net = Series(
            (Resistor(2.0), Inductor(1e-3), Capacitor(5e-6), Thevenin(66e3, 1e9, 5.0))
        )
        z1 = eval_network(net, g).samples
        z2 = eval_network(scale_network(net, 3.0), g).samples
        assert np.allclose(z2, 3.0 * z1, rtol=1e-12)


class TestRandomCase:
    def test_deterministic(self):
        a = random_case(42, 3, (1.0, 10000.0))
        b = random_case(42, 3, (1.0, 10000.0))
        assert a.z_ppm_existing == b.z_ppm_existing
        assert a.z_net_old == b.z_net_old
        assert a.z_ppm_new == b.z_ppm_new
        assert a.grid == b.grid

    def test_seed_sensitivity(self):
        a = random_case(42, 3, (1.0, 10000.0))
        b = random_case(43, 3, (1.0, 10000.0))
        assert a.z_ppm_existing != b.z_ppm_existing or a.z_net_old != b.z_net_old

    def test_bad_args(self):
        with pytest.raises(ValueError):
            random_case(1, 0, (1.0, 100.0))
        with pytest.raises(ValueError):
            random_case(1, 1, (100.0, 1.0))

    def test_every_draw_refused_raises_generation_failed(self, monkeypatch):
        # each of the 16 sub-seeds gets its own generator, and both refusals are retried
        draws = []

        def refuse(rng, n_strings, grid):
            draws.append(rng.random())
            raise (ResonanceSingular if len(draws) % 2 else SingularAtFrequency)("refused")

        monkeypatch.setattr(netsynth, "_build_case", refuse)
        with pytest.raises(GenerationFailed) as exc:
            random_case(7, 2, (1.0, 10000.0))
        assert str(exc.value) == f"no usable fixture for seed 7 after sub-seeds {list(range(16))}"
        assert draws == [np.random.default_rng([7, sub]).random() for sub in range(16)]

    def test_each_final_tree_is_evaluated_once(self, monkeypatch):
        # _build_case evaluates all three final trees for its guards, and
        # the fixture does not evaluate them again
        real, depth, top = netsynth._parts, [0], [0]

        def counting(desc, f, w):
            top[0] += depth[0] == 0
            depth[0] += 1
            try:
                return real(desc, f, w)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(netsynth, "_parts", counting)
        for s in range(1, 21):
            random_case(s, 1 + s % 4, (1.0, 10000.0))
        assert top[0] == 118

    def test_singular_fixture_raises_from_responses(self):
        f0 = 100.0
        l_h = 1e-3
        tank = Parallel((Inductor(l_h), Capacitor(1.0 / ((2 * math.pi * f0) ** 2 * l_h))))
        case = CaseFixture(Resistor(1.0), tank, Resistor(1.0), FrequencyGrid([50.0, f0, 200.0]))
        with pytest.raises(SingularAtFrequency):
            case.responses()

    def test_grid_is_2000_log_points(self):
        case = random_case(5, 2, (2.0, 8000.0))
        assert len(case.grid) == 2000
        assert case.grid.points[0] == 2.0
        assert case.grid.points[-1] == 8000.0


class TestJson:
    def test_round_trip(self):
        net = Parallel(
            (
                Series((Resistor(1.5), Inductor(2e-3))),
                Capacitor(4e-6),
                Rational(
                    2.0,
                    zeros_rad_s=(complex(-10, 500), complex(-10, -500)),
                    poles_rad_s=(complex(-20, 900), complex(-20, -900)),
                ),
                Thevenin(66e3, 8e8, 4.0),
            )
        )
        assert network_from_json(network_to_json(net)) == net

    def test_rational_root_lists_default_to_empty(self):
        desc = network_from_json(b'{"type": "rational", "gain": 2.0, "poles_rad_s": [[-5.0, 0.0]]}')
        assert desc == Rational(2.0, poles_rad_s=(complex(-5.0, 0.0),))
        assert network_from_json(b'{"type": "rational", "gain": 2.0}') == Rational(2.0)

    def test_documented_key_names(self):
        import json

        obj = json.loads(network_to_json(Parallel((Resistor(1.0), Inductor(2e-3)))))
        assert obj == {
            "type": "parallel",
            "children": [
                {"type": "resistor", "r_ohm": 1.0},
                {"type": "inductor", "l_henry": 0.002},
            ],
        }
        th = json.loads(network_to_json(Thevenin(66e3, 1e9, 10.0)))
        assert set(th) == {"type", "v_ll_volt", "s_sc_va", "xr"}
        ra = json.loads(
            network_to_json(Rational(1.0, zeros_rad_s=(complex(-1, 2), complex(-1, -2))))
        )
        assert ra["zeros_rad_s"] == [[-1.0, 2.0], [-1.0, -2.0]]
