"""Task-based analog-to-digital conversion: design, validation, and search."""

__version__ = "0.1.0"

from .design import (
    AdcConfig,
    DesignError,
    FilterDesign,
    analog_recovery_is_optimal,
    design_analog_filter,
    design_digital_filter,
    design_filters,
    equalize_diagonal,
    max_rank_bound,
    nyquist_analog_filter,
    solve_waterfill_level,
    theoretical_mse,
    theoretical_mse_waterfilled,
)
from .mmse import TaskModel, analog_mmse_filter, task_covariance, task_energy, whitened_task_stack
from .quantizer import (
    QuantizerSpec,
    calibrate_dynamic_range,
    effective_loading,
    eta_schedule,
    overload_probability_bound,
    quantize_midrise,
    sample_dither,
)
from .scenarios import ScenarioSpec, build_scenario, isotropic_scenario, spatial_correlation
from .search import (
    SearchResult,
    SearchSpec,
    baseline_design,
    rate_search,
    shifted_task_design,
    time_averaged_nmse,
)
from .simulate import SimulationReport, SimulationRun, estimate_mse
from .spectra import (
    FrequencyGrid,
    SpectralMatrixFunction,
    StackedSpectrum,
    integrate_matrix,
    psd_sqrt,
    stack_aliases,
)

__all__ = [name for name in dir() if not name.startswith("_")]
