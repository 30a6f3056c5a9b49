"""The package exports exactly its modules' __all__ lists."""

import nomamec
from nomamec import baselines, closed_form, configio, lambertw, model, scenario, solver

MODULES = (baselines, closed_form, configio, lambertw, model, scenario, solver)
# nothing outside their module calls them; the tests import them from it
INTERNAL = {
    model: ("sinr", "user_rate", "aggregated_offload_time", "local_time", "server_time"),
    scenario: ("gains_from_draws",),
    closed_form: ("p1_water", "p2_water"),
    lambertw: ("BRANCH_POINT",),
}


def test_package_all_is_the_module_lists():
    expected = [name for module in MODULES for name in module.__all__]
    assert nomamec.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(nomamec, name) is getattr(module, name)


def test_internal_names_stay_in_their_modules():
    for module, names in INTERNAL.items():
        for name in names:
            assert name not in module.__all__
            assert not hasattr(nomamec, name)
            assert hasattr(module, name)
    # scenario calls it; model, where it is defined, exports it
    assert "dbm_per_hz_to_watts" not in scenario.__all__
    assert nomamec.dbm_per_hz_to_watts is model.dbm_per_hz_to_watts
