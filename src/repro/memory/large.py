"""A large register built from small ones (Wei 2018 style).

Wei (2018) analyzes the space complexity of implementing an ℓ-valued
register from binary registers; the classic unary construction (due to
Lamport, and the baseline Wei's bounds are measured against) builds a
single-writer ℓ-valued *regular* register from ℓ single-writer binary
registers:

* bit array ``A[0..ℓ-1]``, initially ``A[v0] = 1`` and all others 0;
* ``write(v)``: set ``A[v] := 1``, then clear ``A[v-1], ..., A[0]``
  downward;
* ``read()``: probe ``A[0], A[1], ...`` upward and return the index of
  the first set bit.

The opposite sweep directions are the whole trick: a reader climbing up
can never overtake the writer's downward clearing sweep without passing
the bit the writer set first, so every read returns the value of an
overlapping or immediately preceding write (*regularity*) — but two
sequential reads concurrent with one write may observe new-then-old
(no atomicity), which is why this object is checked by the regularity
harness rather than the linearizability checker.

Like :class:`~repro.memory.afek.AfekSnapshot`, this is a *composed*
object: ``read``/``write`` are generators yielding one primitive
register step at a time, so schedulers interleave them freely and the
regularity of the construction is a theorem the test suite checks, not
an assumption.  The bounded-exhaustive counterpart is
:class:`~repro.protocols.largereg.LargeRegisterEmulation`, which
expresses the same sweeps in scan/update normal form so the falsifier
can enumerate every interleaving.
"""

from __future__ import annotations

from typing import Any, Generator, List, Tuple

from repro.errors import ModelError
from repro.memory.registers import Register
from repro.runtime.events import Invoke, OpMarkers


class LargeRegister(OpMarkers):
    """Single-writer ℓ-valued regular register from ℓ binary registers.

    ``domain`` is ℓ (values are ``0..domain-1``); ``writer`` is the only
    pid allowed to write.  ``initial`` selects the pre-set bit.
    """

    def __init__(
        self, name: str, domain: int, writer: int, initial: int = 0
    ) -> None:
        if domain < 1:
            raise ModelError("large register needs a non-empty domain")
        if not 0 <= initial < domain:
            raise ModelError(
                f"initial value {initial} outside domain 0..{domain - 1}"
            )
        self.name = name
        self.domain = domain
        self.writer = writer
        self.initial = initial
        self.bits: List[Register] = [
            Register(
                f"{name}.A[{j}]",
                initial=1 if j == initial else 0,
                writer=writer,
            )
            for j in range(domain)
        ]

    def __repr__(self) -> str:
        return f"LargeRegister({self.name!r}, domain={self.domain})"

    def register_count(self) -> int:
        """ℓ binary registers — the cost Wei (2018) charges this design."""
        return self.domain

    # ------------------------------------------------------------------
    def write(self, pid: int, value: int) -> Generator[Any, Any, None]:
        """Set bit ``value``, then clear the bits below it, downward."""
        if pid != self.writer:
            raise ModelError(
                f"large register {self.name} is single-writer for pid "
                f"{self.writer}; pid {pid} tried to write"
            )
        if not 0 <= value < self.domain:
            raise ModelError(
                f"value {value} outside domain 0..{self.domain - 1} of "
                f"large register {self.name}"
            )
        op_id = self._next_op_id()
        yield self._marker("begin", "write", op_id, args=(value,))
        yield Invoke(self.bits[value], "write", (1,))
        for j in range(value - 1, -1, -1):
            yield Invoke(self.bits[j], "write", (0,))
        yield self._marker("end", "write", op_id, result=None)
        return None

    def read(self, pid: int) -> Generator[Any, Any, int]:
        """Probe bits upward; return the index of the first set bit."""
        op_id = self._next_op_id()
        yield self._marker("begin", "read", op_id)
        for j in range(self.domain):
            bit = yield Invoke(self.bits[j], "read")
            if bit:
                yield self._marker("end", "read", op_id, result=j)
                return j
        # Unreachable when used single-writer: the writer sets the new
        # bit before clearing lower ones, so the upward probe always
        # crosses a set bit.  Surface the impossible case loudly.
        raise ModelError(
            f"large register {self.name}: read found no set bit"
        )

    def view(self) -> Tuple[int, ...]:
        """Current raw bit contents (test/analysis helper, not a step)."""
        return tuple(bit.value for bit in self.bits)
