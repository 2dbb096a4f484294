"""Categorical principal bundles from local cocycle data over finite bases.

The pipeline: finite groups wired into two chained crossed modules, a covered
base graph, gerbal (h, j) data on overlaps, the derived functorial cocycle,
the coset quotient that turns it into an honest transition cocycle, and the
glued total category with its fiberwise group action, local trivializations,
and a decidable morphism equality cross-checked by exact linear algebra.

Importing the package loads none of its modules: each public name resolves
on first access, from the module named in `_HOME`, and is then cached here.
So a CLI verb imports only the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "BundleMorphism",
    "BundleObject",
    "BundleSpace",
    "ChainedCrossedModules",
    "CompositionError",
    "CoverComplex",
    "CrossedModule",
    "DomainError",
    "FiniteGroup",
    "FunctorialCocycle",
    "GerbalCocycle",
    "GroupAction",
    "GroupHom",
    "Instance",
    "InternalInvariantError",
    "LocalTrivialization",
    "PathMor",
    "PreconditionError",
    "QuiverEdge",
    "QuotientCatGroup",
    "Report",
    "SchemaError",
    "SemidirectProduct",
    "WordOracle",
    "build_instance",
    "build_quotient",
    "check_JH_normal",
    "check_bundle_axioms",
    "check_naturality",
    "check_oracle_agreement",
    "check_second_gerbe",
    "check_tau_image_normal",
    "check_theta_functorial",
    "derive_tower",
    "enumerate_paths",
    "generate_gerbal",
    "instance_from_json",
    "instance_to_json",
    "preset_names",
    "run_suite",
    "validate_gerbal",
    "validate_peiffer",
]

# Each public name and the module that defines it; the keys are `__all__`.
_HOME = {
    "Arrow": "crossed",
    "BundleMorphism": "bundle",
    "BundleObject": "bundle",
    "BundleSpace": "bundle",
    "ChainedCrossedModules": "crossed",
    "CompositionError": "errors",
    "CoverComplex": "complexes",
    "CrossedModule": "crossed",
    "DomainError": "errors",
    "FiniteGroup": "groups",
    "FunctorialCocycle": "functorial",
    "GerbalCocycle": "gerbal",
    "GroupAction": "groups",
    "GroupHom": "groups",
    "Instance": "schema",
    "InternalInvariantError": "errors",
    "LocalTrivialization": "bundle",
    "PathMor": "complexes",
    "PreconditionError": "errors",
    "QuiverEdge": "bundle",
    "QuotientCatGroup": "quotient",
    "Report": "report",
    "SchemaError": "errors",
    "SemidirectProduct": "crossed",
    "WordOracle": "wordalg",
    "build_instance": "presets",
    "build_quotient": "quotient",
    "check_JH_normal": "quotient",
    "check_bundle_axioms": "bundle",
    "check_naturality": "functorial",
    "check_oracle_agreement": "wordalg",
    "check_second_gerbe": "gerbal",
    "check_tau_image_normal": "crossed",
    "check_theta_functorial": "functorial",
    "derive_tower": "gerbal",
    "enumerate_paths": "complexes",
    "generate_gerbal": "gerbal",
    "instance_from_json": "schema",
    "instance_to_json": "schema",
    "preset_names": "presets",
    "run_suite": "suites",
    "validate_gerbal": "gerbal",
    "validate_peiffer": "crossed",
}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
