"""Tests for the calibration and cost-model formulas."""

import math

import pytest

from repro import kernels
from repro.core.calibration import (
    DEFAULT_ELEMENTS_PER_PAGE,
    CostConstants,
    calibrate,
    simulated_constants,
)
from repro.core.cost_model import CostBreakdown, CostModel
from repro.errors import CalibrationError


class TestConstants:
    def test_simulated_constants_are_valid(self):
        constants = simulated_constants()
        constants.validate()
        assert constants.source == "simulated"
        assert constants.gamma == DEFAULT_ELEMENTS_PER_PAGE

    def test_aliases_match_fields(self):
        constants = simulated_constants()
        assert constants.omega == constants.sequential_read_page
        assert constants.kappa == constants.sequential_write_page
        assert constants.phi == constants.random_access
        assert constants.sigma == constants.swap
        assert constants.tau == constants.allocation

    def test_validate_rejects_non_positive(self):
        broken = CostConstants(
            sequential_read_page=0.0,
            sequential_write_page=1e-6,
            random_access=1e-7,
            swap=1e-7,
            allocation=1e-6,
        )
        with pytest.raises(CalibrationError):
            broken.validate()

    def test_calibrate_produces_positive_constants(self):
        constants = calibrate(n_elements=1 << 16)
        constants.validate()
        assert constants.source == f"measured:{kernels.backend()}"

    def test_calibrate_rejects_tiny_arrays(self):
        with pytest.raises(CalibrationError):
            calibrate(n_elements=100)


class TestCostModel:
    @pytest.fixture
    def model(self):
        return CostModel(simulated_constants())

    def test_scan_time_scales_linearly(self, model):
        assert model.scan_time(2_000_000) == pytest.approx(2 * model.scan_time(1_000_000))

    def test_pivot_time_exceeds_scan_time(self, model):
        n = 1_000_000
        assert model.pivot_time(n) > model.scan_time(n)

    def test_pivot_time_formula(self, model):
        n = 512 * 100
        constants = model.constants
        expected = (constants.kappa + constants.omega) * n / constants.gamma
        assert model.pivot_time(n) == pytest.approx(expected)

    def test_swap_time_formula(self, model):
        # Refinement work is priced per element with the measured sorter
        # primitive sigma, not as bulk page writes.
        n = 512 * 10
        expected = model.constants.sigma * n
        assert model.swap_time(n) == pytest.approx(expected)

    def test_tree_lookup_time(self, model):
        assert model.tree_lookup_time(3) == pytest.approx(3 * model.constants.phi)
        assert model.tree_lookup_time(-1) == 0.0

    def test_binary_search_time(self, model):
        n = 1 << 20
        assert model.binary_search_time(n) == pytest.approx(20 * model.constants.phi)
        assert model.binary_search_time(1) == pytest.approx(model.constants.phi)

    def test_bucket_scan_slower_than_scan(self, model):
        n = 1_000_000
        assert model.bucket_scan_time(n) > model.scan_time(n)

    def test_bucket_write_formula(self, model):
        n = model.block_size * 4
        constants = model.constants
        expected = (constants.kappa + constants.omega) * n / constants.gamma + constants.tau * (
            n / model.block_size
        )
        assert model.bucket_write_time(n) == pytest.approx(expected)

    def test_equiheight_write_adds_one_routing_pass(self, model):
        # kernels.route_cuts' verified grid makes equi-height routing O(1) per element:
        # the model prices it as one extra scatter-scale pass, not the
        # paper's log2(b) binary-search factor.
        n = 100_000
        assert model.equiheight_bucket_write_time(n, 64) == pytest.approx(
            model.bucket_write_time(n) + model.constants.scatter * n
        )

    def test_creation_phase_cost_composition(self, model):
        n = 512 * 100
        breakdown = model.creation_phase_cost(
            n, rho=0.5, alpha=0.25, delta=0.1, index_write_time_full=model.pivot_time(n)
        )
        assert isinstance(breakdown, CostBreakdown)
        expected_scan = (1 - 0.5 - 0.1) * model.scan_time(n) + 0.25 * model.scan_time(n)
        assert breakdown.scan == pytest.approx(expected_scan)
        assert breakdown.indexing == pytest.approx(0.1 * model.pivot_time(n))
        assert breakdown.total == pytest.approx(breakdown.scan + breakdown.lookup + breakdown.indexing)

    def test_refinement_phase_cost_composition(self, model):
        breakdown = model.refinement_phase_cost(
            alpha=0.2,
            delta=0.1,
            lookup_time=1e-6,
            indexed_scan_time_full=1e-3,
            refine_time_full=2e-3,
        )
        assert breakdown.scan == pytest.approx(0.2e-3)
        assert breakdown.lookup == pytest.approx(1e-6)
        assert breakdown.indexing == pytest.approx(0.2e-3)

    def test_rejects_invalid_block_size(self):
        with pytest.raises(ValueError):
            CostModel(simulated_constants(), block_size=0)
