"""Round-trip + cross-producer certificate properties.

For a corpus of protocols (including the DiamondTrap regression
gadget), every violation found by the fuzz / explore / campaign paths
emits a certificate that serializes → deserializes → verifies, and
serial vs sharded runs emit certificate *sets* that are equal after
canonical sort — the property that lets a multi-host campaign's
certificates be audited without knowing how the work was sharded.
"""

import pytest

from repro.analysis.explore import explore_protocol
from repro.analysis.fuzz import fuzz_protocol
from repro.campaign import explore_campaign, fuzz_campaign
from repro.campaign.engine import sweep_protocol_campaign
from repro.certify.certificates import (
    from_json,
    sorted_certificates,
    to_json,
)
from repro.certify.verify import verify
from repro.core.sweep import sweep_protocol
from repro.protocols import (
    KSetAgreementTask,
    RacingConsensus,
    TruncatedProtocol,
)
from tests.certify.gadgets import register_gadgets
from tests.gadgets import DiamondTrap

register_gadgets()

#: (name, protocol factory, inputs, task, explore max_steps)
CORPUS = [
    (
        "truncated-2",
        lambda: TruncatedProtocol(RacingConsensus(2), 1),
        [0, 1], KSetAgreementTask(1), None,
    ),
    (
        "truncated-3",
        lambda: TruncatedProtocol(RacingConsensus(3), 1),
        [0, 1, 2], KSetAgreementTask(1), 12,
    ),
    (
        "diamond-trap",
        lambda: DiamondTrap(),
        [0, 1], KSetAgreementTask(1), 3,
    ),
]


def checksums(certificates):
    """The canonical identity of a certificate set."""
    return [
        (c.kind, c.checksum) for c in sorted_certificates(certificates)
    ]


@pytest.mark.parametrize(
    "name,factory,inputs,task,max_steps",
    CORPUS, ids=[entry[0] for entry in CORPUS],
)
class TestRoundTrip:
    def test_fuzz_certificates_roundtrip_and_verify(
        self, name, factory, inputs, task, max_steps
    ):
        report = fuzz_protocol(
            factory(), inputs, task, runs=120, schedule_length=30,
            seed=3, certificates=True,
        )
        assert report.violations, f"{name}: fuzz found no violation"
        assert report.certificates
        for certificate in report.certificates:
            restored = from_json(to_json(certificate))
            assert restored == certificate
            assert to_json(restored) == to_json(certificate)
            verdict = verify(restored)
            assert verdict.accepted, (name, verdict)

    def test_explore_certificates_roundtrip_and_verify(
        self, name, factory, inputs, task, max_steps
    ):
        report = explore_protocol(
            factory(), inputs, task, max_configs=50_000,
            max_steps=max_steps, certificates=True,
        )
        assert report.counterexample is not None
        (certificate,) = report.certificates
        restored = from_json(to_json(certificate))
        assert restored == certificate
        verdict = verify(restored)
        assert verdict.accepted, (name, verdict)
        assert certificate.payload["schedule"] == report.counterexample


class TestSerialVersusSharded:
    """Certificate sets are a deterministic function of the workload."""

    def test_fuzz_serial_and_campaign_certificates_match(self):
        protocol = TruncatedProtocol(RacingConsensus(2), 1)
        task = KSetAgreementTask(1)
        serial = fuzz_protocol(
            protocol, [0, 1], task, runs=80, schedule_length=40,
            seed=7, certificates=True,
        )
        for workers, chunk_size in ((1, 20), (2, 16), (3, 7)):
            result = fuzz_campaign(
                protocol, [0, 1], task, runs=80, schedule_length=40,
                seed=7, workers=workers, chunk_size=chunk_size,
                verify_certificates=True,
            )
            assert checksums(result.report.certificates) == checksums(
                serial.certificates
            ), (workers, chunk_size)

    def test_explore_serial_and_campaign_certificates_match(self):
        protocol = TruncatedProtocol(RacingConsensus(3), 1)
        task = KSetAgreementTask(1)
        serial = explore_protocol(
            protocol, [0, 1, 2], task, max_configs=50_000, max_steps=12,
            prefix_depth=2, certificates=True,
        )
        result = explore_campaign(
            protocol, [0, 1, 2], task, max_configs=50_000, max_steps=12,
            prefix_depth=2, workers=2, verify_certificates=True,
        )
        assert serial.certificates
        assert checksums(result.report.certificates) == checksums(
            serial.certificates
        )

    def test_sweep_serial_and_campaign_certificates_match(self):
        protocol = TruncatedProtocol(RacingConsensus(2), 1)
        task = KSetAgreementTask(1)
        serial = sweep_protocol(
            protocol, [0, 1], list(range(10)), task=task,
            max_steps=400_000, certificates=True,
        )
        result = sweep_protocol_campaign(
            protocol, [0, 1], range(10), task=task, max_steps=400_000,
            workers=2, chunk_size=3, verify_certificates=True,
        )
        assert serial.certificates
        assert checksums(result.report.certificates) == checksums(
            serial.certificates
        )

    def test_certificates_do_not_change_report_equality(self):
        """Carrying certificates must not perturb report comparisons
        (the differential suite asserts ``==`` and ``repr`` equality)."""
        protocol = TruncatedProtocol(RacingConsensus(2), 1)
        task = KSetAgreementTask(1)
        plain = fuzz_protocol(
            protocol, [0, 1], task, runs=40, schedule_length=40, seed=7,
        )
        certified = fuzz_protocol(
            protocol, [0, 1], task, runs=40, schedule_length=40, seed=7,
            certificates=True,
        )
        assert plain == certified
        assert repr(plain) == repr(certified)
