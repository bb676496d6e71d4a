"""The memory controller's ``write`` span is the per-write record: one
span per writeback, whose args split its critical-path latency into
transfer, BMO and persist phases (the paper's Fig. 1 question)."""

import pytest

from repro.common.config import default_config
from repro.core import NvmSystem
from repro.harness.runner import run_point
from repro.obs.tracer import Tracer
from repro.workloads import WorkloadParams, make_workload

MODES = ("serialized", "parallel", "janus", "ideal", "coalesced",
         "async-epoch")


def write_spans(mode="serialized", variant="baseline", n_txns=6):
    tracer = Tracer()
    system = NvmSystem(default_config(mode=mode), tracer=tracer)
    workload = make_workload(
        "array_swap", system, system.cores[0],
        WorkloadParams(n_items=16, value_size=64,
                       n_transactions=n_txns),
        variant=variant)
    system.run_programs([workload.run()])
    return tracer.spans(cat="write")


def bmo_ns(span):
    return span["args"]["bmo_done_ns"] - span["args"]["mc_arrival_ns"]


def mean(values):
    values = list(values)
    return sum(values) / len(values)


def test_tracer_records_every_writeback():
    spans = write_spans()
    assert spans
    for span in spans:
        args = span["args"]
        assert span["ts"] <= args["mc_arrival_ns"] \
            <= args["bmo_done_ns"] <= args["persisted_ns"]


def test_serialized_bmo_phase_dominates():
    spans = write_spans(mode="serialized")
    transfer = mean(s["args"]["mc_arrival_ns"] - s["ts"] for s in spans)
    bmo = mean(bmo_ns(s) for s in spans)
    assert bmo > transfer
    assert bmo > 500  # the ~794 ns serial chain
    assert transfer == pytest.approx(15.0)


def test_janus_run_has_zero_bmo_writes():
    spans = write_spans(mode="janus", variant="manual")
    # Fully pre-executed writes spend ~0 ns in BMOs at the MC.
    assert mean(bmo_ns(s) < 1.0 for s in spans) > 0.2


def test_ideal_mode_charges_no_bmo_time():
    assert mean(bmo_ns(s) for s in write_spans(mode="ideal")) \
        == pytest.approx(0.0)


def test_mode_ordering_visible_in_trace():
    ser = mean(bmo_ns(s) for s in write_spans(mode="serialized"))
    jan = mean(bmo_ns(s)
               for s in write_spans(mode="janus", variant="manual"))
    assert jan < ser


def test_commit_records_marked_critical():
    critical = [s for s in write_spans() if s["args"]["critical"]]
    assert len(critical) == 6  # one commit record per transaction


@pytest.mark.parametrize("cores,shards", [(1, 1), (2, 2)],
                         ids=["1c1s", "2c2s"])
@pytest.mark.parametrize("mode", MODES)
def test_write_spans_match_writebacks(mode, cores, shards):
    tracer = Tracer()
    result = run_point("hash_table", mode=mode, cores=cores,
                       shards=shards,
                       params=WorkloadParams(n_transactions=6),
                       tracer=tracer)
    spans = tracer.spans(cat="write")
    writebacks = sum(value for name, value in result.stats.items()
                     if name.startswith("mc")
                     and name.endswith(".writebacks"))
    assert len(spans) == writebacks > 0
    for span in spans:
        args = span["args"]
        assert span["ts"] <= args["mc_arrival_ns"] \
            <= args["bmo_done_ns"] <= args["persisted_ns"] \
            == span["ts"] + span["dur"], span
