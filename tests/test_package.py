import waferspr


def test_every_exported_name_imports():
    # A stale name in __all__ makes the star import raise AttributeError.
    namespace = {}
    exec("from waferspr import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(waferspr.__all__)
    assert len(set(waferspr.__all__)) == len(waferspr.__all__)


def test_array_holding_types_compare_by_identity():
    # Field-wise == on numpy arrays is ambiguous, so these types compare
    # and hash as objects, like the filter and flow results.
    from waferspr import iwmm, synthgen
    from waferspr.wafer import parse_wafer

    points = iwmm.PointSet([[0.0, 0.0], [1.0, 1.0]])
    objects = [
        (parse_wafer("01\n10\n"), parse_wafer("01\n10\n")),
        (points, iwmm.PointSet(points.coords)),
        (iwmm.GwHyper(), iwmm.GwHyper()),
        (synthgen.generate(8, 8, synthgen.family_specs("two_zone"), 0.0, 0),
         synthgen.generate(8, 8, synthgen.family_specs("two_zone"), 0.0, 0)),
        (iwmm.IwmmResult((1, 1), 1, points.coords, (), 0, 0, 0, 0.01),
         iwmm.IwmmResult((1, 1), 1, points.coords, (), 0, 0, 0, 0.01)),
    ]
    for a, b in objects:
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2
