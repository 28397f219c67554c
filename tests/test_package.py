"""The package namespace republishes each module's ``__all__``."""

import importlib

import pytest

import nlrpb

MODULES = ["cli", "cryptoherm", "errors", "linalg", "models", "pseudoboson", "report", "serialize"]

REPUBLISHED = ["cryptoherm", "errors", "linalg", "models", "pseudoboson", "report"]

# The package's public names before it republished the module lists; none may go.
LEGACY_NAMES = [
    "BiorthogonalSystem",
    "Check",
    "ChebyshevSpec",
    "ConvergenceError",
    "CryptoPair",
    "HermitizedSystem",
    "LadderPair",
    "MIN_EPS_GAP",
    "MetricPair",
    "SchemaError",
    "SPD_GATE",
    "SymEig",
    "TwoParamSpec",
    "ValidationError",
    "VerificationReport",
    "build_ladders",
    "build_metrics",
    "build_system",
    "chebyshev_model",
    "chebyshev_paper_normalization",
    "commutator_defect",
    "default_tolerance",
    "from_crypto",
    "from_nlrpb",
    "hermitize",
    "jacobi_eigh",
    "rescale",
    "residual_norm",
    "spd_deficit",
    "spd_inv_sqrt",
    "spd_sqrt",
    "two_param_model",
    "verify_axioms",
    "verify_chwrt",
    "__version__",
]


def test_no_public_name_is_lost():
    assert len(LEGACY_NAMES) == 35
    assert set(LEGACY_NAMES) <= set(nlrpb.__all__)


def test_no_duplicate_names():
    assert len(nlrpb.__all__) == len(set(nlrpb.__all__))


@pytest.mark.parametrize("module", MODULES)
def test_module_all_entries_exist(module):
    mod = importlib.import_module(f"nlrpb.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", REPUBLISHED)
def test_package_names_are_the_module_objects(module):
    mod = importlib.import_module(f"nlrpb.{module}")
    for name in mod.__all__:
        assert name in nlrpb.__all__
        assert getattr(nlrpb, name) is getattr(mod, name)

