"""Schema-versioned result certificates with checksummed canonical JSON.

A certificate is a compact, self-contained, machine-checkable claim
about a search result — "this schedule violates this task on this
protocol", "these processes cover these components after these steps",
"this value is decidable from here", "this operation order linearizes
this history".  The searcher that found the result emits it; the
independent verifier (:mod:`repro.certify.verify`) re-checks it without
trusting — or importing — the searcher.

On disk a certificate is one canonical-JSON object::

    {"checksum": "…", "kind": "…", "payload": {…}, "schema_version": 1}

with the checksum computed over ``{kind, schema_version, payload}``
(:mod:`repro.certify.canonical`).  Files are written with the same
atomic tmp → fsync → rename discipline as the campaign checkpoint
journal's full-image writes, so a crash mid-write never leaves a
half-written certificate.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.certify.canonical import canonical_json, canonical_payload
from repro.errors import CertificateError

#: Version stamp of the certificate layout; bump on payload changes.
CERTIFICATE_SCHEMA_VERSION = 1

#: A replayable violating schedule (fuzz / shrink / explore).
KIND_VIOLATION = "violation-schedule"
#: A covering configuration plus the reserving executions reaching it.
KIND_COVERING = "covering"
#: A valence witness: schedules deciding each claimed value.
KIND_VALENCE = "valence"
#: A linearization order for a concurrent history.
KIND_LINEARIZATION = "linearization"
#: A seed-sweep violating run: recorded decisions plus the task verdict.
KIND_SWEEP_RUN = "sweep-run"

#: Every kind this build can emit and verify.
CERTIFICATE_KINDS = (
    KIND_VIOLATION,
    KIND_COVERING,
    KIND_VALENCE,
    KIND_LINEARIZATION,
    KIND_SWEEP_RUN,
)


@dataclass(frozen=True, eq=True)
class Certificate:
    """One schema-versioned, checksummed claim.

    ``payload`` is already in canonical form (tuples flattened to
    lists, dict keys sorted) — :func:`make_certificate` guarantees it —
    so equality of certificates is equality of claims.
    """

    kind: str
    schema_version: int
    payload: Dict[str, Any]
    checksum: str

    @property
    def sort_key(self):
        """Canonical total order: kind, then claim checksum."""
        return (self.kind, self.checksum)


def _require_string_keys(value: Any) -> None:
    """Reject non-string dict keys anywhere in a payload, cheaply.

    ``json.dumps`` silently *coerces* int/bool/None keys to strings,
    so this walk (no allocations, no rebuilding) is what keeps the
    emit-time contract of :mod:`repro.certify.canonical`: a claim that
    cannot be serialized unambiguously is refused at mint time.
    """
    if type(value) is dict:
        for key, item in value.items():
            if type(key) is not str:
                raise CertificateError(
                    f"certificate payload keys must be strings, got "
                    f"{key!r}"
                )
            _require_string_keys(item)
    elif type(value) in (list, tuple):
        for item in value:
            _require_string_keys(item)


def make_certificate(kind: str, payload: Dict[str, Any]) -> Certificate:
    """Build a certificate: canonicalize the payload, stamp the checksum.

    Canonicalization is a single serialization pass — ``json.dumps``
    with sorted keys already flattens tuples to lists and refuses NaN
    and non-JSON objects, and parsing the claim back yields the
    canonical payload object — because minting sits on the campaign
    hot path (one certificate per chunk, per sweep).
    """
    if kind not in CERTIFICATE_KINDS:
        raise CertificateError(f"unknown certificate kind {kind!r}")
    if not isinstance(payload, dict):
        raise CertificateError(
            f"certificate payload must be an object, got "
            f"{type(payload).__name__}"
        )
    _require_string_keys(payload)
    try:
        claim = json.dumps(
            {
                "kind": kind,
                "schema_version": CERTIFICATE_SCHEMA_VERSION,
                "payload": payload,
            },
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
            allow_nan=False,
        )
    except (TypeError, ValueError) as error:
        raise CertificateError(
            f"cannot serialize claim canonically: {error}"
        ) from error
    if "-0.0" in claim:
        # Rare path: the payload may hold a negative-zero float, which
        # json.dumps spells "-0.0" while the equal 0.0 is spelled "0.0".
        # Re-serialize through canonical_payload (which folds -0.0 into
        # 0.0) so equal payloads always mint equal checksums.  The
        # substring test can also hit "-0.0" inside a string value;
        # re-serializing is then a no-op, so over-matching is harmless.
        claim = json.dumps(
            {
                "kind": kind,
                "schema_version": CERTIFICATE_SCHEMA_VERSION,
                "payload": canonical_payload(payload),
            },
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
            allow_nan=False,
        )
    return Certificate(
        kind=kind,
        schema_version=CERTIFICATE_SCHEMA_VERSION,
        payload=json.loads(claim)["payload"],
        checksum=hashlib.sha256(claim.encode("ascii")).hexdigest(),
    )


def to_json(certificate: Certificate) -> str:
    """The certificate's canonical one-line JSON serialization."""
    return canonical_json({
        "kind": certificate.kind,
        "schema_version": certificate.schema_version,
        "payload": certificate.payload,
        "checksum": certificate.checksum,
    })


def from_json(text: str) -> Certificate:
    """Parse a serialized certificate, validating structure only.

    Checksum, schema version, and the claim itself are deliberately
    *not* validated here — a tampered certificate must still load so
    the verifier can reject it with a structured reason instead of an
    exception.  Raises :class:`~repro.errors.CertificateError` only
    when the text is not even shaped like a certificate.
    """
    try:
        record = json.loads(text)
    except json.JSONDecodeError as error:
        raise CertificateError(
            f"certificate is not valid JSON: {error}"
        ) from error
    if not isinstance(record, dict):
        raise CertificateError(
            f"certificate must be a JSON object, got "
            f"{type(record).__name__}"
        )
    kind = record.get("kind")
    version = record.get("schema_version")
    payload = record.get("payload")
    checksum = record.get("checksum")
    if not isinstance(kind, str):
        raise CertificateError("certificate has no string 'kind'")
    if not isinstance(version, int) or isinstance(version, bool):
        raise CertificateError(
            "certificate has no integer 'schema_version'"
        )
    if not isinstance(payload, dict):
        raise CertificateError("certificate has no object 'payload'")
    if not isinstance(checksum, str):
        raise CertificateError("certificate has no string 'checksum'")
    return Certificate(
        kind=kind, schema_version=version,
        payload=canonical_payload(payload), checksum=checksum,
    )


def sorted_certificates(
    certificates: Sequence[Certificate],
) -> List[Certificate]:
    """Canonically sort and checksum-deduplicate a certificate list."""
    by_key: Dict[Any, Certificate] = {}
    for certificate in certificates:
        by_key.setdefault(certificate.sort_key, certificate)
    return [by_key[key] for key in sorted(by_key)]


def certificate_filename(certificate: Certificate) -> str:
    """Stable file name: kind plus a claim-checksum prefix."""
    return f"{certificate.kind}-{certificate.checksum[:16]}.json"


def _write_atomic(path: str, text: str) -> None:
    """tmp → fsync → rename, as the checkpoint journal writes its header."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_certificates(
    directory: str, certificates: Sequence[Certificate]
) -> List[str]:
    """Write certificates into ``directory``, one atomic file each.

    Returns the written paths in canonical order.  File names are
    content-addressed (:func:`certificate_filename`), so re-emitting
    the same claims is idempotent.
    """
    os.makedirs(directory, exist_ok=True)
    paths = []
    for certificate in sorted_certificates(certificates):
        path = os.path.join(
            directory, certificate_filename(certificate)
        )
        _write_atomic(path, to_json(certificate) + "\n")
        paths.append(path)
    return paths


def load_certificate(path: str) -> Certificate:
    """Load one certificate file (structure-validated only)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise CertificateError(
            f"cannot read certificate {path!r}: {error}"
        ) from error
    return from_json(text)


def load_certificates(directory: str) -> List[Certificate]:
    """Load every ``*.json`` certificate in a directory, sorted by name."""
    try:
        names = sorted(os.listdir(directory))
    except OSError as error:
        raise CertificateError(
            f"cannot read certificate directory {directory!r}: {error}"
        ) from error
    return [
        load_certificate(os.path.join(directory, name))
        for name in names if name.endswith(".json")
    ]
