"""Acceptance checks.

Every guarantee the package advertises, verified end to end at its stated
tolerance.  Each test prints exactly one PASS/FAIL line with the measured
numbers, so the captured output doubles as a scorecard.
"""

from __future__ import annotations

import time

import numpy as np

from oracles import lp_w2, monotone_coupling_w2
from scdt.classify import run_experiment
from scdt.genmodel import (
    GenConfig,
    IncreasingReparam,
    apply_reparam,
    predict_transform_under_reparam,
)
from scdt.measures import (
    DiscreteMeasure,
    GridDensity,
    ReferenceMeasure,
    SignedMeasure,
    measure_from_density,
    rebin,
)
from scdt.metrics import d_s, transform_l2, w2
from scdt.steps import NEG_INF, POS_INF, StepFunction, compose
from scdt.transform import TransformConfig, scdt_forward, scdt_inverse


def check(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def random_signed_atoms(rng, max_atoms=8, min_gap=0.1) -> SignedMeasure:
    n_plus = int(rng.integers(1, max_atoms // 2 + 1))
    n_minus = int(rng.integers(1, max_atoms // 2 + 1))
    n = n_plus + n_minus
    locs = -4.0 + np.cumsum(rng.uniform(min_gap, 1.0, n))
    which = rng.permutation(n) < n_plus
    return SignedMeasure(
        DiscreteMeasure(locs[which], rng.uniform(0.1, 2.0, n_plus)),
        DiscreteMeasure(locs[~which], rng.uniform(0.1, 2.0, n_minus)),
    )


class TestClassificationBenchmark:
    def test_transform_features_linearly_separate_warped_templates(self):
        seeds = range(5)
        start = time.monotonic()
        scdt_accs, raw_accs = [], []
        for seed in seeds:
            report = run_experiment(GenConfig(), TransformConfig(), seed=seed)
            scdt_accs.append(report.accuracy_scdt_space)
            raw_accs.append(report.accuracy_signal_space)
        elapsed = time.monotonic() - start
        mean_scdt = float(np.mean(scdt_accs))
        mean_raw = float(np.mean(raw_accs))
        check(
            "classification benchmark",
            mean_scdt >= 0.95 and mean_raw <= 0.60 and elapsed < 60.0,
            f"mean transform-space accuracy {mean_scdt:.3f} (need >= 0.95), "
            f"mean signal-space accuracy {mean_raw:.3f} (need <= 0.60), "
            f"{elapsed:.1f}s over {len(scdt_accs)} seeds (need < 60s)",
        )


class TestDeltaTransform:
    def test_point_mass_transforms_to_its_location_exactly(self):
        cfg = TransformConfig()
        worst = 0.0
        ok = True
        for x0 in (0.0, 1.5, -2.25, 3.7):
            s = SignedMeasure(
                DiscreteMeasure(np.array([x0]), np.array([1.0])),
                DiscreteMeasure.zero(),
            )
            t = scdt_forward(s, cfg)
            exact = (
                np.all(t.plus.samples == x0)
                and t.plus.mass == 1.0
                and t.minus.is_zero
            )
            ok = ok and bool(exact)
            worst = max(worst, float(np.max(np.abs(t.plus.samples - x0))))
        check(
            "point-mass transform",
            ok,
            f"samples equal the location bit for bit (worst deviation {worst})",
        )


class TestDensityRoundTrip:
    def test_gridded_round_trip_error_under_five_percent(self):
        rng = np.random.default_rng(2024)
        n_bins, n_quant = 256, 1024
        cfg = TransformConfig(n_quantiles=n_quant)
        worst = 0.0
        for _ in range(200):
            values = rng.normal(0.0, 1.0, n_bins)
            values[rng.random(n_bins) >= 0.75] = 0.0
            density = GridDensity(0.0, 1.0, values)
            s = measure_from_density(density)
            if s.positive_part.is_zero and s.negative_part.is_zero:
                continue
            back = rebin(scdt_inverse(scdt_forward(s, cfg), cfg), 0.0, 1.0, n_bins)
            l1 = float(np.sum(np.abs(back.samples - density.samples))) * density.bin_width
            tv = s.positive_part.total_mass + s.negative_part.total_mass
            worst = max(worst, l1 / tv)
        check(
            "density round trip",
            worst <= 0.05,
            f"worst relative L1 error {worst:.4f} over 200 random signed "
            f"densities (need <= 0.05)",
        )

    def test_atomic_round_trip_is_exact_for_aligned_weights(self):
        # Weights that are whole multiples of (total mass / n_quantiles),
        # with a small-mantissa total, survive the quantile round trip bit
        # for bit.
        rng = np.random.default_rng(7)
        n_quant = 1024
        cfg = TransformConfig(n_quantiles=n_quant)
        exact = True
        for _ in range(50):
            n_plus = int(rng.integers(1, 5))
            n_minus = int(rng.integers(1, 5))
            n = n_plus + n_minus
            locs = -3.0 + np.cumsum(rng.uniform(0.1, 1.0, n))
            totals = [
                int(rng.integers(1, 17)) / 4.0,
                int(rng.integers(1, 17)) / 4.0,
            ]
            weights = []
            for count, total in zip((n_plus, n_minus), totals):
                shares = rng.multinomial(n_quant - count, np.full(count, 1.0 / count))
                weights.append((shares + 1) * (total / n_quant))
            s = SignedMeasure(
                DiscreteMeasure(locs[:n_plus], weights[0]),
                DiscreteMeasure(locs[n_plus:], weights[1]),
            )
            back = scdt_inverse(scdt_forward(s, cfg), cfg)
            exact = exact and bool(
                np.array_equal(back.positive_part.locations, s.positive_part.locations)
                and np.array_equal(back.positive_part.weights, s.positive_part.weights)
                and np.array_equal(back.negative_part.locations, s.negative_part.locations)
                and np.array_equal(back.negative_part.weights, s.negative_part.weights)
            )
        check(
            "atomic round trip",
            exact,
            "50 random aligned-weight atomic signals recovered bit for bit",
        )


class TestReparameterizationLaws:
    def run_pairs(self, make_reparam, n_pairs=100):
        rng = np.random.default_rng(11)
        n_bins = 256
        spacing = 1.0 / n_bins
        cfg = TransformConfig(n_quantiles=1024)
        worst = 0.0
        for _ in range(n_pairs):
            values = rng.normal(0.0, 1.0, n_bins)
            s = measure_from_density(GridDensity(0.0, 1.0, values))
            g = make_reparam(rng)
            t = scdt_forward(s, cfg)
            predicted = predict_transform_under_reparam(t, g)
            recomputed = scdt_forward(apply_reparam(s, g), cfg)
            for p, r in (
                (predicted.plus, recomputed.plus),
                (predicted.minus, recomputed.minus),
            ):
                worst = max(worst, float(np.max(np.abs(p.samples - r.samples))))
                worst = max(worst, abs(p.mass - r.mass))
        return worst, 2.0 * spacing

    def test_translation_law(self):
        worst, tol = self.run_pairs(
            lambda rng: IncreasingReparam.translation(rng.uniform(-2.0, 2.0))
        )
        check(
            "translation law",
            worst <= tol,
            f"sup deviation {worst} over 100 pairs (need <= {tol})",
        )

    def test_dilation_law(self):
        worst, tol = self.run_pairs(
            lambda rng: IncreasingReparam.dilation(rng.uniform(0.5, 2.0))
        )
        check(
            "dilation law",
            worst <= tol,
            f"sup deviation {worst} over 100 pairs (need <= {tol})",
        )


class TestCompositionLaw:
    def test_piecewise_linear_action_matches_in_transform_space(self):
        rng = np.random.default_rng(13)
        cfg = TransformConfig(n_quantiles=512)
        worst = 0.0
        masses_equal = True
        for _ in range(100):
            s = random_signed_atoms(rng)
            all_locs = np.sort(
                np.concatenate(
                    [s.positive_part.locations, s.negative_part.locations]
                )
            )
            spacing = float(np.min(np.diff(all_locs))) if all_locs.size > 1 else np.inf
            xs = -5.0 + np.cumsum(rng.uniform(0.5, 3.0, 3))
            ys = -5.0 + np.cumsum(rng.uniform(0.5, 3.0, 3))
            g = IncreasingReparam.piecewise_linear(xs, ys)
            predicted = predict_transform_under_reparam(scdt_forward(s, cfg), g)
            recomputed = scdt_forward(apply_reparam(s, g), cfg)
            for p, r in (
                (predicted.plus, recomputed.plus),
                (predicted.minus, recomputed.minus),
            ):
                worst = max(
                    worst, float(np.max(np.abs(p.samples - r.samples))) / spacing
                )
                masses_equal = masses_equal and p.mass == r.mass
        check(
            "composition law",
            worst <= 1.0 and masses_equal,
            f"sup sample deviation {worst} atom spacings over 100 signals "
            f"(need <= 1), masses bit-equal: {masses_equal}",
        )


def random_step_cdf(rng) -> StepFunction:
    n = int(rng.integers(1, 7))
    breakpoints = -5.0 + np.cumsum(rng.uniform(0.05, 2.0, n))
    jumps = rng.uniform(0.05, 2.0, n)
    if n > 1 and rng.random() < 0.3:
        jumps[int(rng.integers(1, n))] = 0.0  # a plateau
    values = np.concatenate([[0.0], np.cumsum(jumps)])
    if rng.random() < 0.5:
        vapi = None
    else:
        vapi = float(values[-1] + rng.uniform(0.05, 1.0))
    return StepFunction(breakpoints, values, value_at_pos_inf=vapi)


def step_x_probes(f: StepFunction) -> np.ndarray:
    bp = f.breakpoints
    mids = (bp[:-1] + bp[1:]) / 2.0
    finite = np.concatenate(
        [bp, bp - 0.01, bp + 0.01, mids, [bp[0] - 1.0, bp[-1] + 1.0]]
    )
    return np.concatenate([finite, [NEG_INF, POS_INF]])


def step_y_probes(f: StepFunction) -> np.ndarray:
    v = f.values
    vapi = f.value_at_pos_inf
    mids = (v[:-1] + v[1:]) / 2.0
    return np.concatenate([v, v - 0.01, v + 0.01, mids, [v[0] - 0.5, vapi, vapi + 0.5]])


class TestGeneralizedInverseBulk:
    N_CDFS = 10_000

    def test_inverse_identities_on_random_step_cdfs(self):
        rng = np.random.default_rng(99)
        implication_violations = 0
        involution_violations = 0
        composition_violations = 0
        for _ in range(self.N_CDFS):
            f = random_step_cdf(rng)
            X = step_x_probes(f)
            Y = step_y_probes(f)
            fx = f.eval(X)
            gy = f.geninv_eval(Y)
            above = fx[:, None] > Y[None, :]
            below = fx[:, None] < Y[None, :]
            at_least = X[:, None] >= gy[None, :]
            strictly_under = X[:, None] < gy[None, :]
            ok = (
                bool(np.all(at_least | ~above))  # f(x) > y implies x >= geninv(y)
                and bool(np.all((fx[:, None] <= Y[None, :]) | ~strictly_under))
                and bool(np.all((X[:, None] <= gy[None, :]) | ~below))
                # x >= geninv(y) implies f(x) >= y, for x < +inf:
                and bool(
                    np.all((fx[:-1, None] >= Y[None, :]) | ~at_least[:-1, :])
                )
            )
            if not ok:
                implication_violations += 1

            # The double inverse reproduces f on R and at -inf; at +inf it is
            # always +inf (the infimum of an empty set), which matches f only
            # under the f(+inf) = +inf convention checked below.
            double = f.geninv().geninv()
            if not (
                np.array_equal(double.eval(X[:-1]), fx[:-1])
                and double.eval(POS_INF) == POS_INF
            ):
                involution_violations += 1
            if np.all(np.diff(f.values) > 0):
                topped = StepFunction(
                    f.breakpoints, f.values, value_at_pos_inf=POS_INF
                )
                back = topped.geninv().geninv()
                if not (
                    np.array_equal(back.breakpoints, topped.breakpoints)
                    and np.array_equal(back.values, topped.values)
                    and back.value_at_pos_inf == POS_INF
                ):
                    involution_violations += 1

            xs = -6.0 + np.cumsum(rng.uniform(0.5, 4.0, 3))
            ys = -6.0 + np.cumsum(rng.uniform(0.5, 4.0, 3))
            g = IncreasingReparam.piecewise_linear(xs, ys).pwl
            composed = compose(f, g)
            if not np.array_equal(
                composed.geninv_eval(Y), g.preimage(f.geninv_eval(Y))
            ):
                composition_violations += 1
        check(
            "generalized-inverse identities",
            implication_violations == 0
            and involution_violations == 0
            and composition_violations == 0,
            f"{self.N_CDFS} random step CDFs: {implication_violations} "
            f"implication, {involution_violations} double-inverse, "
            f"{composition_violations} composition violations (need 0)",
        )


class TestNormMatchesDistance:
    def test_transform_norm_equals_signed_distance_and_ignores_reference(self):
        rng = np.random.default_rng(17)
        n_quant = 4096
        cfg_uniform = TransformConfig(n_quantiles=n_quant)
        cfg_pwl = TransformConfig(
            reference=ReferenceMeasure(
                np.array([0.0, 0.5, 2.0]), np.array([0.0, 0.7, 1.0])
            ),
            n_quantiles=n_quant,
        )
        worst_match = 0.0
        worst_ref = 0.0
        for _ in range(50):
            a = random_signed_atoms(rng)
            b = random_signed_atoms(rng)
            dist = d_s(a, b, n_quantiles=n_quant).value
            norm_u = transform_l2(
                scdt_forward(a, cfg_uniform), scdt_forward(b, cfg_uniform), cfg_uniform
            )
            norm_p = transform_l2(
                scdt_forward(a, cfg_pwl), scdt_forward(b, cfg_pwl), cfg_pwl
            )
            worst_match = max(worst_match, abs(norm_u - dist))
            worst_ref = max(worst_ref, abs(norm_u - norm_p) / max(norm_u, 1e-30))
        check(
            "transform norm vs signed distance",
            worst_match == 0 and worst_ref <= 1e-3,
            f"worst |norm - distance| {worst_match:.2e} (need 0), worst "
            f"relative reference dependence {worst_ref:.2e} (need <= 1e-3)",
        )


class TestW2AgainstLinearProgram:
    def test_quantile_rule_matches_optimal_coupling(self):
        rng = np.random.default_rng(23)
        n_quant = 1024
        worst = 0.0
        oracle_gap = 0.0
        for _ in range(50):
            pair = []
            for _side in range(2):
                n = int(rng.integers(1, 9))
                locs = -3.0 + np.cumsum(rng.uniform(0.1, 1.5, n))
                shares = rng.multinomial(n_quant - n, np.full(n, 1.0 / n))
                weights = (shares + 1) / float(n_quant)
                pair.append(DiscreteMeasure(locs, weights))
            a, b = pair
            via_quantiles = w2(a, b, n_quantiles=n_quant)
            via_lp = lp_w2(a.locations, a.weights, b.locations, b.weights)
            via_nw = monotone_coupling_w2(a.locations, a.weights, b.locations, b.weights)
            worst = max(worst, abs(via_quantiles - via_lp))
            oracle_gap = max(oracle_gap, abs(via_lp - via_nw))
        check(
            "w2 vs optimal transport",
            worst <= 1e-6 and oracle_gap <= 1e-9,
            f"worst |quantile rule - LP optimum| {worst:.2e} over 50 pairs "
            f"(need <= 1e-6); LP vs monotone-coupling oracle gap {oracle_gap:.2e}",
        )


class TestReferenceQuantileConsistency:
    def test_reference_cdf_at_own_quantiles_hits_the_grid(self):
        refs = [
            ReferenceMeasure.uniform(0.0, 1.0),
            ReferenceMeasure.uniform(-2.0, 5.0),
            ReferenceMeasure.uniform(0.0, 3.0, mass=2.5),
            ReferenceMeasure(np.array([0.0, 0.5, 2.0]), np.array([0.0, 0.7, 1.0])),
            ReferenceMeasure(np.array([0.0, 1.0, 4.0]), np.array([0.0, 1.5, 2.0])),
        ]
        q = (np.arange(1024) + 0.5) / 1024
        worst = 0.0
        for ref in refs:
            recovered = ref.cdf_eval(ref.quantile(q)) / ref.total_mass
            worst = max(worst, float(np.max(np.abs(recovered - q))))
        check(
            "reference quantile consistency",
            worst <= 1e-9,
            f"worst |CDF(quantile(q)) - q| {worst:.2e} over {len(refs)} "
            f"references (need <= 1e-9)",
        )
