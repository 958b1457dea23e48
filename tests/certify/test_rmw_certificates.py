"""Certificate replay over the read-modify-write base objects.

The trust story of docs/CERTIFICATES.md must survive the multi-primitive
substrate: a violation-schedule certificate from a swap-based consensus
scenario and a covering certificate whose reserving executions contain
frozen *and* landed RMW steps both verify through the independent
replayer (``deep=True``), and any tampering with a base-object field —
the protocol's family, an RMW step's operation name or arguments, a
frozen RMW's withheld value, a linearization spec's kind — fails
closed, even when the tamperer honestly re-checksums the lie.
"""

import json

from repro.analysis import explore_protocol
from repro.analysis.covering import build_covering
from repro.analysis.linearizability import (
    CompletedOperation,
    certified_linearization,
    spec_for_base_object,
)
from repro.certify.canonical import canonical_json
from repro.certify.certificates import make_certificate
from repro.certify.emit import (
    SOURCE_EXPLORE,
    exploration_certificates,
    violation_certificate,
)
from repro.certify.verify import (
    REASON_COVERING_INVALID,
    REASON_OK,
    verify,
)
from repro.protocols import KSetAgreementTask, SwapConsensus
from tests.certify.gadgets import register_gadgets
from tests.gadgets import SwapThenWrite

register_gadgets()


def remint(certificate, **updates):
    """An honestly re-checksummed copy with payload fields replaced."""
    payload = json.loads(canonical_json(certificate.payload))
    payload.update(updates)
    return make_certificate(certificate.kind, payload)


def swap_violation_certificate():
    """The explorer's counterexample certificate for swap consensus."""
    protocol = SwapConsensus(3)
    inputs = [0, 1, 2]
    task = KSetAgreementTask(1)
    report = explore_protocol(protocol, inputs, task)
    assert not report.safe
    (certificate,) = exploration_certificates(
        protocol, inputs, task, report
    )
    return certificate


def swap_covering_certificate():
    """A covering certificate with frozen and landed RMW steps."""
    report = build_covering(SwapThenWrite(2), [5, 6], certificates=True)
    assert report.size == 2
    # The second process's reserving execution swapped through the
    # already-covered component 0 — a *landed* RMW step in the log.
    assert any(
        step[0] == "rmw"
        for steps in report.executions.values() for step in steps
    )
    (certificate,) = report.certificates
    return certificate


class TestHonestRMWCertificatesVerify:
    def test_swap_violation_verifies_deep(self):
        verdict = verify(swap_violation_certificate(), deep=True)
        assert verdict.accepted and verdict.reason == REASON_OK

    def test_swap_covering_verifies_deep(self):
        verdict = verify(swap_covering_certificate(), deep=True)
        assert verdict.accepted and verdict.reason == REASON_OK

    def test_swap_linearization_verifies_deep(self):
        history = [
            CompletedOperation("a", 0, "swap", (4,), None, 0, 1),
            CompletedOperation("b", 1, "swap", (9,), 4, 2, 3),
            CompletedOperation("c", 0, "read", (), 9, 4, 5),
        ]
        ok, _order, certificate = certified_linearization(
            history, spec_for_base_object("swap")
        )
        assert ok
        verdict = verify(certificate, deep=True)
        assert verdict.accepted and verdict.reason == REASON_OK


class TestTamperedBaseObjectFieldsFailClosed:
    def test_violation_with_swapped_protocol_family(self):
        """Re-labelling the base object (swap -> CAS consensus) changes
        the replay semantics, so the claimed decisions cannot recur."""
        certificate = swap_violation_certificate()
        tampered = remint(
            certificate, protocol={"family": "cas-consensus", "n": 3}
        )
        assert not verify(tampered, deep=True).accepted

    def test_violation_with_edited_decisions(self):
        certificate = swap_violation_certificate()
        decisions = json.loads(
            canonical_json(certificate.payload["decisions"])
        )
        decisions[0][1] = 99
        tampered = remint(certificate, decisions=decisions)
        assert not verify(tampered, deep=True).accepted

    def _tamper_execution_step(self, certificate, edit):
        payload = json.loads(canonical_json(certificate.payload))
        for _index, steps in payload["executions"]:
            for step in steps:
                if step[0] == "rmw":
                    edit(step)
                    return remint(certificate, executions=payload["executions"])
        raise AssertionError("no landed RMW step to tamper with")

    def test_covering_with_edited_rmw_operation(self):
        certificate = swap_covering_certificate()

        def edit(step):
            step[2] = "test_and_set"
            step[3] = []

        tampered = self._tamper_execution_step(certificate, edit)
        verdict = verify(tampered, deep=True)
        assert not verdict.accepted
        assert verdict.reason == REASON_COVERING_INVALID

    def test_covering_with_edited_rmw_arguments(self):
        certificate = swap_covering_certificate()

        def edit(step):
            step[3] = [step[3][0], "stowaway"] if step[3] else ["x"]

        tampered = self._tamper_execution_step(certificate, edit)
        assert not verify(tampered, deep=True).accepted

    def test_covering_with_edited_withheld_value(self):
        """A frozen RMW's withheld value is recomputed by the verifier
        from the operation's semantics; lying about it must not pass."""
        certificate = swap_covering_certificate()
        poised = json.loads(canonical_json(certificate.payload["poised"]))
        poised[0][2] = "forged"
        tampered = remint(certificate, poised=poised)
        verdict = verify(tampered, deep=True)
        assert not verdict.accepted
        assert verdict.reason == REASON_COVERING_INVALID

    def test_linearization_with_relabelled_spec(self):
        """Claiming a swap history linearizes as a plain register must
        fail: the register spec has no ``swap`` operation."""
        history = [
            CompletedOperation("a", 0, "swap", (4,), None, 0, 1),
        ]
        ok, _order, certificate = certified_linearization(
            history, spec_for_base_object("swap")
        )
        assert ok
        tampered = remint(
            certificate, spec={"family": "register", "initial": None}
        )
        assert not verify(tampered, deep=True).accepted

    def test_forged_violation_on_safe_base_object(self):
        """CAS consensus is safe; relabelling a swap counterexample to
        it (schedule and all) must not yield an accepted violation."""
        protocol = SwapConsensus(3)
        inputs = [0, 1, 2]
        task = KSetAgreementTask(1)
        report = explore_protocol(protocol, inputs, task)
        honest = violation_certificate(
            protocol, inputs, task, report.counterexample, SOURCE_EXPLORE
        )
        tampered = remint(
            honest, protocol={"family": "cas-consensus", "n": 3}
        )
        assert not verify(tampered, deep=True).accepted
