"""Every statmon record is a named tuple that keeps the frozen-dataclass contract:
no field can be assigned and no attribute added, and the validated records
check what `_replace`, `copy` and `pickle` build as their constructors do."""

import copy
import importlib
import pickle
import pkgutil

import numpy as np
import pytest

import statmon
from statmon import eigh, extremal, monogamy, npartite, region, selftest
from statmon import group_core as gc
from statmon import observables as ob
from statmon.errors import ValidationError

GRAPH = {"n": 4, "fixed": {"AB": 1, "CD": 1}, "free": ["AC", "AD", "BC", "BD"]}
OBJECTIVE = extremal.Objective(3, [1.0, -1.0, 0.0])
RECORDS = {
    "RegionCheck": lambda: region.RegionCheck.evaluate([0.6, 0.6, -0.6]),
    "SpectralDecomposition": lambda: eigh.symmetric_spectrum(np.eye(2)),
    "Objective": lambda: OBJECTIVE,
    "Constraint": lambda: extremal.Constraint(gc.Pair(0, 1), 1),
    "ExtremalResult": lambda: extremal.max_expectation(OBJECTIVE),
    "OrbitSpace": lambda: extremal.orbit_space(3, ()),
    "Pair": lambda: gc.Pair(0, 1),
    "ExchangeTable": lambda: gc.exchange_table(3),
    "SurfacePoint": lambda: monogamy.surface_state(1.0, 0.5, 1, -1),
    "AuditReport": lambda: monogamy.region_audit(100, 7),
    "ScenarioGraph": lambda: npartite.ScenarioGraph.from_jsonable(GRAPH),
    "ScenarioBound": lambda: npartite.scenario_report(npartite.ScenarioGraph.from_jsonable(GRAPH)),
    "WFrame": ob.w_frame,
    "CheckResult": lambda: selftest.CheckResult("name", True, "detail"),
}

# each validated record, and field values its constructor refuses
REFUSED = {
    "Pair": {"x": 5},
    "Objective": {"weights": [0.0, 0.0, 0.0]},
    "Constraint": {"value": 0.5},
    "ScenarioGraph": {"n": 2},
}


def test_every_tuple_class_of_the_package_is_a_listed_record():
    found = set()
    for info in pkgutil.iter_modules(statmon.__path__):
        module = importlib.import_module(f"statmon.{info.name}")
        found.update(
            name for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == module.__name__
        )
    assert found == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_frozen(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name and isinstance(record, tuple)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[1])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == tuple(record) and record._asdict() == dict(zip(record._fields, record))


@pytest.mark.parametrize("name", REFUSED)
def test_replace_refuses_what_the_constructor_refuses(name):
    record = RECORDS[name]()
    with pytest.raises(ValidationError) as built:
        type(record)(**dict(record._asdict(), **REFUSED[name]))
    with pytest.raises(ValidationError) as replaced:
        record._replace(**REFUSED[name])
    assert str(replaced.value) == str(built.value)


def test_a_valid_replace_is_normalized_as_the_constructor_normalizes():
    assert type(extremal.Constraint(gc.Pair(0, 1), 1)._replace(value=-1.0).value) is int


@pytest.mark.parametrize("name", REFUSED)
def test_copy_and_pickle_build_through_the_checks(name):
    record = RECORDS[name]()
    # built past the checks, as a bare tuple.__new__ can
    forged = tuple.__new__(type(record), dict(record._asdict(), **REFUSED[name]).values())
    for rebuild in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        again = rebuild(record)
        assert type(again) is type(record) and repr(again) == repr(record)
        with pytest.raises(ValidationError):
            rebuild(forged)


@pytest.mark.parametrize(
    "call",
    [
        lambda: extremal.Constraint((0, 1), 1),
        lambda: npartite.ScenarioGraph(4, (), [(0, 1)]),
        lambda: gc.exchange_operator(3, (0, 1)),
        lambda: gc.relabel((0, 1, 2), (0, 2)),
        lambda: extremal.Objective.from_pairs(3, {(0, 1): 1.0}),
    ],
    ids=["Constraint", "ScenarioGraph", "exchange_operator", "relabel", "Objective.from_pairs"],
)
def test_a_plain_tuple_is_never_a_pair(call):
    # a Pair equals and hashes as the tuple of its boxes, so each entry point refuses by type
    with pytest.raises(ValidationError):
        call()
