"""Protocols in the paper's scan/update normal form.

Section 2 of the paper assumes, without loss of generality, that a protocol
uses one m-component multi-writer atomic snapshot ``M`` which each process
*alternately* scans and updates until a scan lets it decide.  That normal
form is the :class:`~repro.protocols.base.Protocol` interface here: a pure
transition system over hashable states, which is what makes

* real execution (drive it on a shared snapshot through the runtime),
* *local* re-execution (a covering simulator revising a process's past), and
* exhaustive model checking (enumerate all interleavings of small instances)

all trivially consistent with each other.

Concrete protocols:

* :mod:`repro.protocols.simple` — trivial wait-free protocols used to
  exercise machinery (decide-own-input, decide-min-seen).
* :mod:`repro.protocols.racing` — round-racing obstruction-free consensus on
  n single-writer components (the upper bound matched by the paper's tight
  n-register lower bound for consensus).
* :mod:`repro.protocols.kset` — k-set agreement via value-partitioned racing
  groups, plus the register-truncation wrapper used by the falsifier
  experiments.
* :mod:`repro.protocols.approximate` — ε-approximate agreement: the
  n-component averaging protocol and a log₂(1/ε)-register bisection variant.
* :mod:`repro.protocols.commit_adopt` — the graded-agreement building
  block (exhaustively certified) and its rounds-of-CA consensus layering,
  exhibiting the unbounded-space trap.
* :mod:`repro.protocols.anonymous` — the folklore anonymous sweep
  algorithm, kept as an exhaustively-falsified case study.
* :mod:`repro.protocols.registers_runtime` — run any protocol on raw
  registers via the [AAD+93] multi-writer construction.
* :mod:`repro.protocols.rmw` — consensus over read-modify-write base
  objects (swap / test-and-set / compare-and-swap), the multi-primitive
  scenario families.
* :mod:`repro.protocols.largereg` — the Wei 2018-style
  large-register-from-binary-registers emulation and its regularity
  task.
"""

from repro.protocols.base import (
    DECIDE,
    RMW,
    SCAN,
    SYMMETRY_FULL,
    SYMMETRY_IDENTITY,
    UPDATE,
    Protocol,
    apply_step,
    protocol_body,
    run_protocol,
    seeded_run,
    solo_run,
)
from repro.protocols.anonymous import AnonymousSweepConsensus
from repro.protocols.approximate import AveragingApprox, BisectionApprox
from repro.protocols.commit_adopt import (
    CommitAdopt,
    CommitAdoptConsensus,
    CommitAdoptTask,
)
from repro.protocols.kset import GroupedKSet, TruncatedProtocol
from repro.protocols.largereg import (
    LargeRegisterEmulation,
    RegularRegisterTask,
)
from repro.protocols.racing import RacingConsensus
from repro.protocols.rmw import CASConsensus, SwapConsensus, TASConsensus
from repro.protocols.simple import ImmediateDecide, MinSeen, RotatingWrites
from repro.protocols.tasks import ApproxAgreementTask, KSetAgreementTask

__all__ = [
    "Protocol",
    "SCAN",
    "UPDATE",
    "RMW",
    "DECIDE",
    "SYMMETRY_FULL",
    "SYMMETRY_IDENTITY",
    "protocol_body",
    "run_protocol",
    "seeded_run",
    "solo_run",
    "apply_step",
    "ImmediateDecide",
    "MinSeen",
    "RotatingWrites",
    "RacingConsensus",
    "GroupedKSet",
    "TruncatedProtocol",
    "AveragingApprox",
    "BisectionApprox",
    "AnonymousSweepConsensus",
    "CommitAdopt",
    "CommitAdoptConsensus",
    "CommitAdoptTask",
    "SwapConsensus",
    "CASConsensus",
    "TASConsensus",
    "LargeRegisterEmulation",
    "RegularRegisterTask",
    "KSetAgreementTask",
    "ApproxAgreementTask",
]
