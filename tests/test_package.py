import importlib

import sheafcalc

MODULES = ("rationals", "poset", "galois", "morphology", "modal",
           "complexes", "finsheaf", "cellsheaf", "cohomology")


def test_each_public_name_is_exported_once():
    names = [name for m in MODULES
             for name in importlib.import_module(f"sheafcalc.{m}").__all__]
    assert len(names) == len(set(names))
    assert sorted(sheafcalc.__all__) == sorted(names)


def test_every_exported_name_resolves_to_its_module_binding():
    for m in MODULES:
        module = importlib.import_module(f"sheafcalc.{m}")
        for name in module.__all__:
            assert getattr(sheafcalc, name) is getattr(module, name), name


def test_module_limits_stay_unexported():
    assert "POWERSET_LIMIT" not in sheafcalc.__all__
    assert "ENUMERATION_LIMIT" not in sheafcalc.__all__
