import pytest

from gds import property_names, run_property, suite, verify_theorem_suite
from gds.box import BoxResult
from gds.errors import GdsError
from gds.metrics import CellSet
from gds.numerics import Q


class TestSuite:
    def test_full_run_passes(self):
        report = verify_theorem_suite(seed=0, trials=5)
        assert report.ok
        assert len(report.outcomes) == len(property_names())

    def test_deterministic(self):
        a = verify_theorem_suite(seed=3, trials=3)
        b = verify_theorem_suite(seed=3, trials=3)
        assert a.outcomes == b.outcomes

    def test_zero_trials_still_reports_every_property(self):
        report = verify_theorem_suite(seed=0, trials=0)
        assert report.ok
        assert len(report.outcomes) == len(property_names())
        assert all(o.trials == 0 for o in report.outcomes if o.asserted)

    @pytest.mark.parametrize("trials", [-1, -5])
    def test_negative_trials_are_refused(self, trials):
        # A negative count used to report PASS for every property.
        with pytest.raises(GdsError):
            verify_theorem_suite(seed=0, trials=trials)
        with pytest.raises(GdsError):
            run_property(property_names()[0], seed=0, trials=trials)

    def test_single_property(self):
        name = property_names()[0]
        outcome = run_property(name, seed=1, trials=4)
        assert outcome.name == name
        assert outcome.ok

    def test_unknown_property(self):
        with pytest.raises(KeyError):
            run_property("nonexistent_theorem", seed=0, trials=1)

    def test_report_lines(self):
        report = verify_theorem_suite(seed=2, trials=2)
        lines = report.lines()
        assert lines[0].startswith("theorem suite: seed=2 trials=2")
        assert lines[-1].startswith("result: ok")
        assert sum(1 for l in lines if l.startswith("PASS ")) >= 40

    def test_every_name_runs(self):
        for name in property_names():
            assert run_property(name, seed=5, trials=1).ok, name

    def test_property_order(self):
        # The asserted checks in their order of definition, then the one
        # observation; the golden verify output and the benchmark's suite
        # cycle both read the suite in this order.
        assert property_names() == (
            "induced_metric_definition", "metric_generators_recover_distance",
            "sampled_rows_are_lipschitz", "pushforward_conserves_mass",
            "ky_fan_is_a_metric", "ky_fan_matches_direct_scan",
            "prohorov_routes_agree", "ky_fan_dominates_value_prohorov",
            "partial_diameter_monotone", "observable_diameter_steps",
            "hausdorff_axioms", "enumerated_couplings_have_marginals",
            "vertices_support_and_optimality", "glue_composes_marginals",
            "coupling_prohorov_identity", "dconc_identity_symmetry",
            "dconc_triangle", "dconc_coupling_upper_bound", "dconc_heuristic_upper",
            "dconc_lower_witness_bounds", "feature_transfer_minimizes",
            "dconc_permutation_invariant", "quotient_shrinks_observable_distance",
            "observable_diameter_comparison", "box_identity_symmetry",
            "box_triangle", "dconc_below_box", "distortion_below_fixed_box",
            "dis_coupling_matches_mask_enumeration", "lip1_witness_postconditions",
            "lip1_two_point_tight", "box_permutation_invariant",
            "box_heuristic_upper", "coupling_continuity_bounds",
            "box_mm_two_point_value", "box_mm_matches_mask_enumeration",
            "box_matches_mask_enumeration", "product_metric_and_marginals",
            "product_projections_dominate", "quotient_map_properties",
            "quotient_universal_property", "discrete_space_diameters",
            "domination_reflexive_and_quotient", "domination_transitive",
            "isomorphism_on_relabeled", "constant_features_separate",
            "lip1_transport_orientation",
        )


OFF = Q(1, 97)


class TestOraclesCatchAWrongSolver:
    """Each brute-force oracle fails every trial when the solver it checks
    is off by 1/97, and reports the values that disagree, not an
    exception raised on the way."""

    @pytest.mark.parametrize(
        "prop, solver, shifted",
        [
            (
                "box_matches_mask_enumeration",
                "box_exact",
                lambda res: BoxResult(res.value + OFF, res.coupling, res.cells),
            ),
            ("box_mm_matches_mask_enumeration", "box_mm_exact", lambda v: v + OFF),
            (
                "dis_coupling_matches_mask_enumeration",
                "dis_coupling",
                lambda res: (res[0] + OFF, res[1]),
            ),
        ],
    )
    def test_shifted_value(self, prop, solver, shifted, monkeypatch):
        assert run_property(prop, seed=4, trials=6).ok
        exact = getattr(suite, solver)
        monkeypatch.setattr(suite, solver, lambda *a: shifted(exact(*a)))
        outcome = run_property(prop, seed=4, trials=6)
        assert outcome.failures == outcome.trials == 6
        assert outcome.example.startswith(f"trial 0: {solver} gives "), outcome.example

    def test_consistent_but_worse_distortion_answer(self, monkeypatch):
        # The empty set scores 1, and its value and cell set agree, so only
        # the enumeration tells it from the optimum: one cell of positive
        # mass always scores below 1.
        def empty(pi, dX, dY):
            return Q(1), CellSet.empty(pi.n, pi.m)

        monkeypatch.setattr(suite, "dis_coupling", empty)
        outcome = run_property("dis_coupling_matches_mask_enumeration", seed=4, trials=6)
        assert outcome.failures == outcome.trials == 6
        assert outcome.example == "trial 0: dis_coupling gives 1, the enumeration 53/195"
