"""Categorical principal bundles from local cocycle data over finite bases.

The pipeline: finite groups wired into two chained crossed modules, a covered
base graph, gerbal (h, j) data on overlaps with the tower it derives,
the coset quotient that turns it into an honest transition cocycle, and the
glued total category with its fiberwise group action, local trivializations,
and a decidable morphism equality cross-checked by exact linear algebra.

Importing the package loads none of its modules: each public name resolves
on first access, from the module named in `_HOME`, and is then cached here.
So a CLI verb imports only the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names of each module; every name is listed once.
_NAMES = {
    "battery": ("LocalTrivialization", "check_bundle_axioms"),
    "bundle": ("BundleMorphism", "BundleObject", "BundleSpace", "QuiverEdge"),
    "complexes": ("CoverComplex", "PathMor", "enumerate_paths"),
    "crossed": ("Arrow", "ChainedCrossedModules", "CrossedModule", "validate_peiffer"),
    "errors": ("CompositionError", "DomainError", "InternalInvariantError",
               "PreconditionError", "SchemaError"),
    "functorial": ("check_naturality", "check_theta_functorial"),
    "generation": ("generate_gerbal", "instance_to_json"),
    "gerbal": ("GerbalCocycle", "check_second_gerbe", "derive_tower", "validate_gerbal"),
    "groups": ("FiniteGroup", "GroupAction", "GroupHom"),
    "presets": ("build_instance", "preset_names"),
    "quotient": ("QuotientCatGroup", "build_quotient", "check_JH_normal"),
    "report": ("Report",),
    "schema": ("Instance", "instance_from_json"),
    "suites": ("run_suite",),
    "wordalg": ("WordOracle", "check_oracle_agreement"),
}
# each public name and the module that defines it
_HOME = {name: module for module, names in _NAMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
