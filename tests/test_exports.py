import types

import contraction_lab
from contraction_lab import (
    certificates,
    constant_metric,
    contraction,
    counterexample,
    dynamics,
    entrainment,
    errors,
    flowspace,
    linalg,
)

MODULES = (certificates, constant_metric, contraction, counterexample, dynamics, entrainment, errors, flowspace, linalg)

# The package's public names, frozen: the star imports must neither drop nor add one.
PACKAGE_NAMES = {
    "ApproximationNotConvergingError", "Certificate", "ConcatenatedInput", "ConstantInput",
    "ConstantMetricReport", "ContractionLabError", "DimensionMismatchError", "DivergenceReport",
    "EntrainmentVerdict", "FlowMap", "InputSequenceFamily", "InputSignal", "IntegratorConfig",
    "MetricAppearsConstantError", "NoRootFoundError", "NonFiniteError", "NonSymmetricError",
    "PeriodicInput", "PiecewiseConstantInput", "PiecewiseSchedule", "RStarCertificate",
    "RiemannianMetric", "StepSizeUnderflowError", "Trajectory", "VectorField", "ViolatingInput",
    "ZeroFieldError", "bounded_example_metric", "bounded_metric_m_parameter", "build_counterexample",
    "check_constant_metric_conditions", "check_contraction_region", "check_limit_contraction",
    "check_piecewise_contraction", "check_uniform_contraction", "circle_field", "circle_orbit_residual",
    "concat", "contraction_matrix", "counterexample_divergence", "detect_entrainment", "dumps_fixed",
    "example_3d_system", "example_additive_3d", "find_r_star", "find_violating_input", "flow_from_field",
    "hull_contains_ball", "integrate", "is_negative_definite", "jacobian_field_ratio",
    "linear_additive_field", "log_norm_2", "max_eigenvalue", "poincare_map", "polar_equivalence_check",
    "polytope_inradius", "radial_f", "radial_f_slope", "radial_rate", "random_initial_conditions",
    "scalar_example_system", "scalar_metric", "scalar_metric_derivative", "schedule_contraction_factor",
    "second_order_value", "shift_signal", "simplex_directions", "spectral_norm", "symmetric_eigenvalues",
    "symmetric_part", "verify_ges", "write_json",
}


def exported(module):
    """What ``from module import *`` binds: its ``__all__``, else its names without a leading underscore."""
    return getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]


def package_names():
    return {n for n, v in vars(contraction_lab).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}


class TestExportSurface:
    def test_each_module_export_is_the_package_object(self):
        for module in MODULES:
            for name in exported(module):
                assert getattr(contraction_lab, name) is getattr(module, name), (module.__name__, name)

    def test_package_exports_exactly_the_module_exports(self):
        union = {name for module in MODULES for name in exported(module)}
        assert package_names() == union == PACKAGE_NAMES
        assert contraction_lab.__version__ == "0.1.0"

    def test_no_helper_leaks(self):
        for name in ("np", "JsonRecord", "vector_norms", "SYMMETRY_TOL", "format_float"):
            assert not hasattr(contraction_lab, name)

    def test_errors_module_holds_only_the_exception_classes(self):
        names = exported(errors)
        assert len(names) == 9
        assert all(issubclass(getattr(errors, n), errors.ContractionLabError) for n in names)
