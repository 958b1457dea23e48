"""Shared gadgets for the certify test suite.

Registers the test-only protocols with the certificate registry so
their certificates are self-contained: the verifier rebuilds the
protocol from the ``diamond-trap`` family descriptor with its own
constructor call, exactly as it does for the built-in zoo.
"""

from repro.certify.registry import register_protocol
from tests.gadgets import DiamondTrap, SwapThenWrite


def register_gadgets() -> None:
    """Install descriptors for the test-only protocol families.

    Idempotent (re-registering replaces), so every certify test module
    can call it at import time.
    """
    register_protocol(
        "diamond-trap", DiamondTrap,
        lambda p: {},
        lambda d: DiamondTrap(),
    )
    register_protocol(
        "swap-then-write", SwapThenWrite,
        lambda p: {"n": p.n},
        lambda d: SwapThenWrite(d["n"]),
    )
