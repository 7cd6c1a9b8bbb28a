"""Tests for the reduced NLP assembly (variable packing, constraints, repair)."""

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.core.errors import SchedulingError
from repro.offline.nlp import ReducedNLP, SolverOptions


class TestVariablePacking:
    def test_single_sub_instance_budgets_are_fixed(self, two_task_set, processor):
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor)
        # Jobs A[0] and A[1] have one sub-instance each → fixed budgets; B[0] has two → 2 variables.
        assert nlp.n_variables == len(expansion) + 2

    def test_pack_unpack_round_trip(self, two_task_set, processor):
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor)
        end_times = [float(i + 1) for i in range(len(expansion))]
        budgets = [100.0 * (i + 1) for i in range(len(expansion))]
        x = nlp.pack(end_times, budgets)
        unpacked_ends, unpacked_budgets = nlp.unpack(x)
        assert list(unpacked_ends) == pytest.approx(end_times)
        # Fixed budgets come back as the instance WCEC, free ones round-trip.
        for index, sub in enumerate(expansion.sub_instances):
            siblings = expansion.sub_instances_of(sub.instance)
            if len(siblings) == 1:
                assert unpacked_budgets[index] == pytest.approx(sub.instance.wcec)
            else:
                assert unpacked_budgets[index] == pytest.approx(budgets[index])

    def test_invalid_mode_rejected(self, two_task_set, processor):
        expansion = expand_fully_preemptive(two_task_set)
        with pytest.raises(SchedulingError):
            ReducedNLP(expansion, processor, workload_mode="typical")


class TestConstraints:
    def test_bounds_match_slots(self, two_task_set, processor):
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor)
        bounds = nlp.bounds()
        for index, sub in enumerate(expansion.sub_instances):
            assert bounds[index] == (sub.slot_start, sub.slot_end)

    def test_feasible_point_satisfies_constraints(self, two_task_set, processor):
        from repro.offline.initialization import worst_case_simulation_vectors
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor, options=SolverOptions(chain_margin_fraction=0.0))
        end_times, budgets = worst_case_simulation_vectors(expansion, processor)
        x = nlp.pack(end_times, budgets)
        for constraint in nlp.linear_constraints():
            values = np.asarray(constraint["fun"](x))
            if constraint["type"] == "ineq":
                assert (values >= -1e-6).all()
            else:
                assert np.abs(values).max() < 1e-6

    def test_constraint_jacobians_match_functions(self, two_task_set, processor):
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor)
        rng = np.random.default_rng(0)
        x = rng.uniform(1.0, 10.0, size=nlp.n_variables)
        for constraint in nlp.linear_constraints():
            jacobian = np.asarray(constraint["jac"](x))
            base = np.asarray(constraint["fun"](x))
            step = 1e-6
            for column in range(nlp.n_variables):
                perturbed = x.copy()
                perturbed[column] += step
                numeric = (np.asarray(constraint["fun"](perturbed)) - base) / step
                assert numeric == pytest.approx(jacobian[:, column], abs=1e-4)


class TestObjectiveAndSolve:
    def test_objective_matches_evaluator(self, two_task_set, processor):
        from repro.offline.evaluation import evaluate_vectors
        from repro.offline.initialization import worst_case_simulation_vectors
        expansion = expand_fully_preemptive(two_task_set)
        end_times, budgets = worst_case_simulation_vectors(expansion, processor)
        acec = {i.key: i.acec for i in expansion.instances}
        nlp = ReducedNLP(expansion, processor, workload_mode="acec")
        assert nlp.objective(nlp.pack(end_times, budgets)) == pytest.approx(
            evaluate_vectors(expansion, end_times, budgets, processor, acec).energy)

    def test_wcec_mode_objective(self, two_task_set, processor):
        from repro.offline.evaluation import evaluate_vectors
        from repro.offline.initialization import worst_case_simulation_vectors
        expansion = expand_fully_preemptive(two_task_set)
        end_times, budgets = worst_case_simulation_vectors(expansion, processor)
        wcec = {i.key: i.wcec for i in expansion.instances}
        nlp = ReducedNLP(expansion, processor, workload_mode="wcec")
        assert nlp.objective(nlp.pack(end_times, budgets)) == pytest.approx(
            evaluate_vectors(expansion, end_times, budgets, processor, wcec).energy)

    def test_solve_improves_on_feasible_reference(self, two_task_set, processor):
        """The solved schedule must beat the guaranteed-feasible fmax-packed schedule.

        (The heuristic *initial guess* may be infeasible and therefore evaluate
        to an unattainably low energy, so it is not a valid reference point.)
        """
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor, workload_mode="acec")
        reference_objective = nlp.objective(nlp.pack(*nlp.fallback_vectors()))
        schedule = nlp.solve()
        assert schedule.objective_value <= reference_objective + 1e-6

    def test_solve_with_tiny_iteration_budget_still_feasible(self, three_task_set, processor):
        expansion = expand_fully_preemptive(three_task_set)
        nlp = ReducedNLP(expansion, processor, options=SolverOptions(maxiter=1))
        schedule = nlp.solve()
        schedule.validate(processor)


class TestRepair:
    def test_repair_normalises_budgets(self, two_task_set, processor):
        from repro.offline.initialization import worst_case_simulation_vectors
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor)
        end_times, _ = worst_case_simulation_vectors(expansion, processor)
        # Budgets for B[0] sum to 12000 instead of its WCEC of 8000.
        budgets = []
        for sub in expansion.sub_instances:
            if sub.instance.key == "B[0]":
                budgets.append(10500.0 if sub.sub_index == 0 else 1500.0)
            else:
                budgets.append(sub.instance.wcec)
        repaired = nlp._repair(np.array(end_times), np.array(budgets))
        assert repaired is not None
        repaired_ends, repaired_budgets = repaired
        b_budgets = [b for sub, b in zip(expansion.sub_instances, repaired_budgets)
                     if sub.instance.key == "B[0]"]
        assert sum(b_budgets) == pytest.approx(8000.0)
        assert b_budgets[0] == pytest.approx(7000.0)
        assert all(b >= 0 for b in repaired_budgets)
        # The repaired schedule is feasible.
        from repro.offline.schedule import StaticSchedule
        StaticSchedule.from_vectors(expansion, repaired_ends, repaired_budgets).validate(processor)

    def test_repair_pulls_late_end_times_back(self, two_task_set, processor):
        """A solver output whose earlier end-time leaves a later sub-instance
        too little room is repaired by capping it, not rejected."""
        from repro.offline.schedule import StaticSchedule
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor)
        # Order: A[0], B[0].0, A[1], B[0].1.  A[1] ends at 15.35, so B[0].1
        # (4653 cycles at fmax = 4.653 ms) would need until 20.003 > 20.
        end_times = np.array([6.19, 10.0, 15.35, 20.0])
        budgets = np.array([3000.0, 3347.0, 3000.0, 4653.0])
        repaired = nlp._repair(end_times, budgets)
        assert repaired is not None
        repaired_ends, repaired_budgets = repaired
        assert repaired_ends[2] == pytest.approx(20.0 - 4.653)
        assert repaired_ends[3] == pytest.approx(20.0)
        StaticSchedule.from_vectors(expansion, repaired_ends, repaired_budgets).validate(processor)

    def test_repair_rejects_unfixable_end_times(self, two_task_set, processor):
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor)
        # Force all worst-case work of B into its first (short) slot end: impossible.
        end_times = []
        budgets = []
        for sub in expansion.sub_instances:
            end_times.append(sub.slot_end)
            if sub.instance.key == "B[0]":
                budgets.append(10000.0 if sub.sub_index == 0 else -2000.0)
            else:
                budgets.append(sub.instance.wcec)
        # After normalisation B[0].0 carries 8000+ cycles but only 10 ms of slot minus
        # the higher-priority 3 ms remain → infeasible at fmax=1000? (7 ms × 1000 = 7000 < 8000)
        repaired = nlp._repair(np.array(end_times), np.array(budgets))
        assert repaired is None


def _bounds_arrays(nlp):
    bounds = nlp.bounds()
    return (np.array([low for low, _ in bounds]),
            np.array([high for _, high in bounds]))


class TestVectorizedJacobian:
    """The solver's objective/gradient dispatch: compiled vs reference paths."""

    def test_objective_dispatch_bitwise(self, three_task_set, processor):
        expansion = expand_fully_preemptive(three_task_set)
        nlp = ReducedNLP(expansion, processor)
        lower, upper = _bounds_arrays(nlp)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = lower + rng.uniform(0.0, 1.0, len(lower)) * (upper - lower)
            assert nlp.objective(x) == nlp.objective_reference(x)

    def test_cmos_processor_falls_back_to_scipy(self, three_task_set, cmos):
        expansion = expand_fully_preemptive(three_task_set)
        nlp = ReducedNLP(expansion, cmos, options=SolverOptions(maxiter=25))
        assert nlp._compiled is None
        with pytest.raises(SchedulingError):
            nlp.jacobian(nlp.initial_guess())
        schedule = nlp.solve()
        schedule.validate(cmos)


def _scenario_nlp(expansion, processor):
    """Stochastic-ACS style NLP: three weighted workload scenarios."""
    scenarios = []
    for weight, share in ((0.2, 0.3), (0.5, 0.6), (0.3, 1.0)):
        actual = {inst.key: inst.bcec + share * (inst.wcec - inst.bcec)
                  for inst in expansion.instances}
        scenarios.append((weight, actual))
    return ReducedNLP(expansion, processor, scenarios=scenarios)


class TestExactGradient:
    """The reverse-mode gradient of the greedy energy propagation."""

    #: Relative tolerance of the gradient against a central difference with
    #: step 1e-6·max(1, |x|): the difference's truncation and round-off
    #: error, far below any real gradient error at an interior point.
    GRADIENT_RTOL = 1e-4
    #: An exact-gradient solve may end at most this fraction above scipy's
    #: own finite-difference solve of the same problem.
    OBJECTIVE_RTOL = 1e-3

    @staticmethod
    def _interior_points(nlp, rng, count):
        """Random points strictly inside the bounds (away from the clips)."""
        lower, upper = _bounds_arrays(nlp)
        return [lower + rng.uniform(0.05, 0.95, len(lower)) * (upper - lower)
                for _ in range(count)]

    def test_energy_bitwise_equals_scalar_evaluation(self, three_task_set, processor):
        from repro.offline.evaluation import CompiledEvaluation

        expansion = expand_fully_preemptive(three_task_set)
        subs = expansion.sub_instances
        rng = np.random.default_rng(11)
        for actual in (None, {inst.key: inst.wcec for inst in expansion.instances}):
            compiled = CompiledEvaluation(expansion, processor, actual)
            cases = []
            for _ in range(25):
                ends = [sub.slot_start + rng.uniform(0.0, sub.slot_length) for sub in subs]
                budgets = [rng.uniform(-10.0, 0.7 * sub.instance.wcec) for sub in subs]
                cases.append((ends, budgets))
            # Degenerate points: no available time, all-zero budgets.
            cases.append(([sub.slot_start for sub in subs], cases[0][1]))
            cases.append((cases[0][0], [0.0] * len(subs)))
            for ends, budgets in cases:
                energy, grad_ends, grad_budgets = compiled.energy_and_gradient(ends, budgets)
                assert energy == compiled.energy_from_lists(ends, budgets)
                assert len(grad_ends) == len(grad_budgets) == len(subs)

    @pytest.mark.parametrize("mode", ["acec", "wcec", "scenarios"])
    def test_gradient_matches_central_difference(self, three_task_set, processor, mode):
        expansion = expand_fully_preemptive(three_task_set)
        if mode == "scenarios":
            nlp = _scenario_nlp(expansion, processor)
        else:
            nlp = ReducedNLP(expansion, processor, workload_mode=mode)
        rng = np.random.default_rng(12)
        for x in self._interior_points(nlp, rng, 15):
            gradient = nlp.jacobian(x)
            numeric = np.empty_like(x)
            for column in range(len(x)):
                step = 1e-6 * max(1.0, abs(x[column]))
                forward, backward = x.copy(), x.copy()
                forward[column] += step
                backward[column] -= step
                numeric[column] = (nlp.objective_reference(forward)
                                   - nlp.objective_reference(backward)) / (2.0 * step)
            scale = np.maximum(1.0, np.abs(numeric))
            assert np.all(np.abs(gradient - numeric) <= self.GRADIENT_RTOL * scale)

    @pytest.mark.parametrize("taskset_name", ["two_task_set", "three_task_set"])
    @pytest.mark.parametrize("mode", ["acec", "wcec"])
    def test_solve_no_worse_than_scipy_finite_differences(self, request, processor,
                                                           taskset_name, mode):
        expansion = expand_fully_preemptive(request.getfixturevalue(taskset_name))
        exact = ReducedNLP(expansion, processor, workload_mode=mode).solve()
        # Without the compiled evaluation the solver differences the
        # reference objective itself (jac=None), as for non-linear laws.
        differenced = ReducedNLP(expansion, processor, workload_mode=mode)
        differenced._compiled = None
        reference = differenced.solve()
        assert not exact.metadata["fallback"]
        assert exact.objective_value <= reference.objective_value * (1.0 + self.OBJECTIVE_RTOL)
