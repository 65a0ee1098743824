"""The traced run against the real package: every wrapper comes off,
and the metric tables agree with BENCHMARK.json."""

import json
import os

import pytest

import checkout
import layers
import run
import tracing
import workloads
from tracing import Tracer


def test_installed_wrappers_are_all_removed_after_the_run():
    checkout.import_repro()
    import scipy.sparse as sp

    from repro.solvers.cache import FactorizationCache

    tracer = Tracer()
    layers.install(tracer, electrical_size=-1)
    patched = list(tracer._patches)
    assert len(patched) >= 15
    matrix = sp.identity(3, format="csc") * 2.0
    FactorizationCache().factorize(matrix)
    assert tracer.counters["solvers.cache_misses"] == 1
    assert "backends.factorize" in {span.name for span in tracer.spans}

    tracer.restore()
    for owner, attribute, stored in patched:
        if stored is tracing._MISSING:
            assert attribute not in vars(owner)
        else:
            assert vars(owner)[attribute] is stored
        assert not hasattr(getattr(owner, attribute),
                           "__perfbench_original__")
    count = len(tracer.spans)
    FactorizationCache().factorize(matrix)
    assert len(tracer.spans) == count


def test_every_metric_is_derived_from_an_empty_trace():
    metrics = layers.per_layer_metrics(Tracer())
    assert set(metrics) == set(layers.LAYER_UNITS)
    assert all(value == 0 for value in metrics.values())


def _benchmark_json():
    path = os.path.join(checkout.ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json next to the benchmark")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_names_the_workloads_and_metrics_here():
    declared = _benchmark_json()
    assert [item["name"] for item in declared["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {item["name"]: item["unit"] for item in declared["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert [(item["name"], item["unit"], item["better"])
            for item in declared["per_layer"]] == \
        [row[:3] for row in layers.LAYER_METRICS]
