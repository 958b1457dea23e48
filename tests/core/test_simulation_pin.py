"""Trace pin: the revisionist simulation's traces and Lemma 28 checks.

One SHA-256 per simulation run, over every field of every trace event
(``seq``, ``pid``, ``kind``, object name, ``op``, ``args``, ``result``,
``tag``, ``payload``) followed by the Lemma 28 ``Correspondence``
(``entries``, ``hidden_steps``, ``violations``).  The digests are
stored in ``tests/data/simulation_pins.json``; any change to the order
or content of a trace, or to what the checker reconstructs from it,
fails the run that drifted and names its new digest.

Runs pinned:

* ``rotating/<seed>`` — ``RotatingWrites(7, 3, rounds=6)``, k=2, x=1,
  seeds 0–39 (the ``simulate`` benchmark's protocol);
* ``falsify/<seed>`` — ``falsify_target()`` at ``FALSIFY_KX``, seeds
  0–39 (the Theorem 3 falsifier the service's falsify job runs);
* ``ablation/<seed>`` — the E8 ablation (``unsafe_anchor=True``) on
  the rotating protocol, seeds 0–9; its violation messages are pinned
  verbatim too, so the checker's wording cannot drift unseen;
* ``approx/<seed>`` — the Appendix D reduction (two covering
  simulators) on ``TruncatedProtocol(AveragingApprox(4, 2**-8), 2)``,
  seeds 0–19.

The encoding is ``repr`` of plain tuples, dicts and the library's value
types, so the digests do not depend on ``PYTHONHASHSEED``.  A drift
that is intended is one reviewed diff of the data file.
"""

import hashlib
import json
import os

import pytest

from repro.core.approx import run_approx_simulation
from repro.core.invariant import check_correspondence
from repro.core.simulation import run_simulation
from repro.protocols import AveragingApprox, RotatingWrites, TruncatedProtocol
from repro.protocols.scenarios import FALSIFY_KX, falsify_target
from repro.runtime.scheduler import RandomScheduler

PIN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "data", "simulation_pins.json"
)

ROTATING_SEEDS = range(40)
FALSIFY_SEEDS = range(40)
ABLATION_SEEDS = range(10)
APPROX_SEEDS = range(20)


def _rotating(seed, unsafe_anchor=False):
    return run_simulation(
        RotatingWrites(7, 3, rounds=6), k=2, x=1, inputs=[5, 2, 8],
        scheduler=RandomScheduler(seed), unsafe_anchor=unsafe_anchor,
    )


def _falsify(seed):
    protocol, inputs, _task, _expect_safe = falsify_target()
    k, x = FALSIFY_KX
    return run_simulation(
        protocol, k=k, x=x, inputs=list(inputs),
        scheduler=RandomScheduler(seed),
    )


def _approx(seed):
    return run_approx_simulation(
        TruncatedProtocol(AveragingApprox(4, 2**-8), 2), [0, 1],
        RandomScheduler(seed),
    )


def run_digest(outcome):
    """SHA-256 of a run's full trace and its Lemma 28 correspondence."""
    check = check_correspondence(outcome)
    hasher = hashlib.sha256()
    for event in outcome.system.trace:
        fields = (
            event.seq, event.pid, event.kind, event.obj_name, event.op,
            event.args, event.result, event.tag, event.payload,
        )
        hasher.update(repr(fields).encode())
        hasher.update(b"\n")
    hasher.update(
        repr((check.entries, check.hidden_steps, check.violations)).encode()
    )
    return hasher.hexdigest(), check


def compute_pins():
    """Every pinned run's digest, plus the ablation's violation messages."""
    digests = {}
    violations = {}
    for seed in ROTATING_SEEDS:
        digests[f"rotating/{seed}"], _ = run_digest(_rotating(seed))
    for seed in FALSIFY_SEEDS:
        digests[f"falsify/{seed}"], _ = run_digest(_falsify(seed))
    for seed in ABLATION_SEEDS:
        name = f"ablation/{seed}"
        digests[name], check = run_digest(_rotating(seed, unsafe_anchor=True))
        violations[name] = list(check.violations)
    for seed in APPROX_SEEDS:
        digests[f"approx/{seed}"], _ = run_digest(_approx(seed))
    return {"digests": digests, "ablation_violations": violations}


@pytest.fixture(scope="module")
def pins():
    return compute_pins()


@pytest.fixture(scope="module")
def golden():
    with open(PIN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_pins_cover_every_run(pins, golden):
    assert sorted(golden["digests"]) == sorted(pins["digests"])
    assert sorted(golden["ablation_violations"]) == sorted(
        pins["ablation_violations"]
    )


@pytest.mark.parametrize(
    "family", ["rotating", "falsify", "ablation", "approx"]
)
def test_run_digests_match(pins, golden, family):
    drifted = [
        f"{name}: {digest}"
        for name, digest in sorted(pins["digests"].items())
        if name.startswith(family + "/") and golden["digests"].get(name) != digest
    ]
    assert not drifted, "trace or correspondence drifted:\n" + "\n".join(drifted)


def test_ablation_violations_are_pinned(pins, golden):
    for name, messages in golden["ablation_violations"].items():
        assert messages, f"{name}: the ablation must break Lemma 28"
        assert pins["ablation_violations"][name] == messages, name
