import stochanneal


def test_export_list_is_what_star_import_binds():
    names = stochanneal.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(stochanneal, name) for name in names)
    bound = {}
    exec("from stochanneal import *", bound)
    assert bound.keys() - {"__builtins__"} == set(names)
