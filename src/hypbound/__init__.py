"""Hyperbolic-plane metric computations and empirical verification of
distortion bounds for holomorphic self-maps of the disc and punctured disc.

The public names are resolved on first use (PEP 562), each from its home
module below, so that ``import hypbound`` compiles and runs only the modules
a caller touches: one ``CampaignConfig`` loads ``config``, ``models`` and
``errors`` alone.
"""

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "bounds": "check_fixed_point check_punctured check_two_point constant_keu "
              "constant_two_point qlo_bound",
    "config": "CampaignConfig",
    "covering": "DegreeResult LiftedMap cover_pi degree_contour lift_map lift_map_eval "
                "normalized_lift principal_lift punctured_dist",
    "errors": "DomainError HypboundError IntegrityError NumericalError PreconditionError "
              "UnsupportedError UsageError ValidationError",
    "harness": "CampaignReport convergence_demo counterexample_demo halfplane_growth "
               "run_campaign run_sample",
    "holomaps": "BlaschkeProduct Composition HalfPlaneTranslate PuncturedExp PuncturedPower "
                "RealPartMap declared_degree evaluate map_from_dict sample_map",
    "mobius": "HoloMap Mobius apply build_disc_automorphism dist_to_axis hyperbolic_pull",
    "models": "BOUNDARY_MARGIN HalfDistancePair Model ModelPoint convert density_punctured "
              "dist dist_oracle half_sinh_cosh",
    "report": "BoundReport",
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = name if name in _EXPORTS else _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's machinery, which -X importtime logs and
    # importlib.import_module does not, binds the home module here
    __import__(f"{__name__}.{home}")
    if home == name:  # a home module, as the eager imports bound it
        return globals()[name]
    value = globals()[name] = getattr(globals()[home], name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
