import minmarch as mm
import minmarch.problems

# the names that README's "Library use", a command, a tool, perfbench/ or
# the acceptance tests use from the package, and the exceptions callers
# catch; every other name is imported from its module, the advdiff problem
# from minmarch.problems.advdiff, which alone loads scipy
PACKAGE_NAMES = [
    "BvpSolveError",
    "ConfigError",
    "DegenerateBandwidthError",
    "DoubleWellProblem",
    "LogisticWellProblem",
    "MarchStatus",
    "MinmarchError",
    "NewtonConfig",
    "NominalSolveError",
    "ParameterBox",
    "Problem",
    "QuadraticProblem",
    "SampleStudy",
    "Scheme",
    "SolveResult",
    "StationarityError",
    "Trajectory",
    "check_derivatives",
    "fit_loglog_slope",
    "kde",
    "march_block",
    "newton_solve",
    "post_optimality_apply",
    "propagate_study",
    "solve_nominal",
    "summary_errors",
]
PROBLEMS_NAMES = [
    "DoubleWellProblem",
    "LogisticWellProblem",
    "ParameterBox",
    "Problem",
    "QuadraticProblem",
]


def test_the_exported_names_are_exactly_these():
    assert mm.__all__ == PACKAGE_NAMES
    assert minmarch.problems.__all__ == PROBLEMS_NAMES


def test_every_exported_name_resolves():
    for module in (mm, minmarch.problems):
        assert "__getattr__" not in vars(module), module.__name__
        for name in module.__all__:
            assert getattr(module, name) is not None, (module.__name__, name)


def test_names_the_benchmark_uses_resolve():
    # perfbench/ imports, patches or looks up each of these names, and it
    # skips a missing one silently; removing any of them needs a change to
    # the benchmark itself (ROADMAP item A)
    import minmarch.cli as cli
    import minmarch.newton as newton
    import minmarch.uq as uq

    for module, names in [
        (newton, ["newton_solve", "solve_nominal"]),
        (uq, ["solve_nominal"]),
        (cli, ["propagate_study", "resolve_config", "build_problem", "main"]),
    ]:
        for name in names:
            assert callable(getattr(module, name, None)), (module.__name__, name)
    for method in ("objective", "gradient", "objective_gradient", "hessian",
                   "hessian_and_mixed", "in_basin"):
        assert callable(getattr(mm.Problem, method, None)), method
