import minmarch as mm
import minmarch.problems


def test_every_exported_name_resolves():
    # the advdiff names resolve lazily, through the packages' __getattr__
    for module in (mm, minmarch.problems):
        assert len(set(module.__all__)) == len(module.__all__)
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
