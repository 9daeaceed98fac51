import minmarch as mm
import minmarch.problems


def test_every_exported_name_resolves():
    # the advdiff names resolve lazily, through the packages' __getattr__
    for module in (mm, minmarch.problems):
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            assert getattr(module, name) is not None, (module.__name__, name)
