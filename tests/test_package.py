"""The package's public surface: exactly the names in its five modules' ``__all__``."""

import importlib

import equator_forge

MODULES = ("analysis", "correspondence", "sphere_geom", "tensor_core", "verification")

SURFACE = [
    "BumpMetric", "CheckResult", "CurvatureMetric", "CurvatureTensor", "DegenerateInputError",
    "DimensionError", "Equator", "EquatorMesh", "GnomonicChart", "GroupElement", "JacobiGalerkin",
    "KillingField", "MetricField", "PositivityCertificate", "PositivityError", "QuadratureRule",
    "SkewMatrix", "SpectrumProbe", "TensorSymmetryError", "VerificationReport", "act",
    "basis_coefficients", "build_jacobi_galerkin", "chart_at", "christoffels", "constant_curvature",
    "curv_basis", "curv_dim", "curv_from_killing", "curvature_of_metric", "curvature_projection",
    "dphi_T", "equator_area", "equator_image", "equator_mesh", "equator_quadrature", "fubini_study",
    "fundamental_tensor", "funk_radon", "great_circle", "is_positive", "jacobi_spectrum_probe",
    "jacobian_density", "killing_constancy_residual", "killing_from_curv", "killing_from_metric",
    "killing_matrices", "left_invariant_killing", "left_invariant_metric", "load_matrix",
    "load_tensor", "mean_curvature_equator", "mean_curvature_sweep", "metric_equation_residual",
    "metric_from_curv", "phi_T", "random_equator", "random_positive", "random_unit", "round_metric",
    "save_matrix", "save_tensor", "second_fundamental_form", "sectional", "sphere_quadrature",
    "sphere_volume", "sym_product", "symmetry_residuals", "tangent_frame", "tensor_from_basis",
    "verify_metric", "verify_tensor", "wedge",
]


def test_the_package_exports_exactly_its_modules_public_names():
    assert sorted(equator_forge.__all__) == SURFACE
    assert set(SURFACE) <= set(dir(equator_forge))


def test_no_name_is_public_in_two_modules():
    # under star imports a name in two lists would silently shadow one of them
    names = [name for module in MODULES for name in importlib.import_module(f"equator_forge.{module}").__all__]
    assert len(names) == len(set(names)) == len(SURFACE)


def test_names_off_the_surface_still_import_from_their_modules():
    from equator_forge.jets import MatrixJet
    from equator_forge.parallel import tmap
    from equator_forge.tensor_core import basis_matrix, sec_min_estimate

    assert "sec_min_estimate" not in dir(equator_forge)
    assert all(callable(f) for f in (MatrixJet, tmap, basis_matrix, sec_min_estimate))
