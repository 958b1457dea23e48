"""k-set agreement protocols and the register-truncation falsifier input.

:class:`GroupedKSet` solves k-set agreement obstruction-free with ``n``
components by the standard value-partition construction: processes are
split into k groups and each group runs an independent obstruction-free
consensus on its members' components, so at most k values are decided and
validity is inherited.  (The paper's best upper bound, n-k+x registers
[BRS15], relies on anonymous multi-writer register techniques; the grouped
construction trades x-obstruction-freedom for x > 1 and k-1 extra registers
for a protocol whose correctness argument is compositional — the bound
*formulas* of :mod:`repro.core.bounds` carry the exact paper numbers.)

:class:`TruncatedProtocol` is the deliberately-broken input for the
falsifier experiments (E4): it aliases the base protocol's components into
``m' < m`` registers, i.e. it "uses too few registers" in the most literal
way.  Theorem 3 says no correct protocol can live below the bound, so the
revisionist simulation run on a truncated protocol must surface a concrete
safety violation or divergence.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.errors import ProtocolError, ValidationError
from repro.protocols.base import RMW, UPDATE, Protocol
from repro.protocols.racing import RacingConsensus


class GroupedKSet(Protocol):
    """Obstruction-free k-set agreement by k independent racing groups.

    Process ``i`` belongs to group ``i % k`` and owns global component
    ``i``; group ``g``'s consensus instance sees exactly the components
    ``{rank * k + g}`` of its members.  A process decides its group's
    consensus value, so at most ``k`` values are decided overall.
    """

    def __init__(self, n: int, k: int) -> None:
        if n < 1:
            raise ValidationError("n must be at least 1")
        if not 1 <= k <= n:
            raise ValidationError("k must satisfy 1 <= k <= n")
        self.n = n
        self.k = k
        self.m = n
        self.name = f"grouped-{k}-set(n={n})"
        self._groups = [
            RacingConsensus(self._group_size(g)) for g in range(k)
        ]

    def _group_size(self, group: int) -> int:
        return (self.n - group + self.k - 1) // self.k

    def _global_component(self, group: int, rank: int) -> int:
        return rank * self.k + group

    def initial_state(self, index: int, value: Any) -> Tuple:
        self.check_index(index)
        group, rank = index % self.k, index // self.k
        return (group, self._groups[group].initial_state(rank, value))

    def poised(self, state: Any) -> Tuple[str, Any]:
        group, inner_state = state
        kind, payload = self._groups[group].poised(inner_state)
        if kind == UPDATE:
            component, value = payload
            return (UPDATE, (self._global_component(group, component), value))
        return (kind, payload)

    def advance(self, state: Any, observation: Any = None) -> Any:
        group, inner_state = state
        inner = self._groups[group]
        if observation is not None:
            observation = tuple(
                observation[self._global_component(group, rank)]
                for rank in range(inner.n)
            )
        return (group, inner.advance(inner_state, observation))


class TruncatedProtocol(Protocol):
    """A base protocol forced onto fewer registers by component aliasing.

    Component ``j`` of the base protocol is mapped onto component
    ``j mod registers`` of a smaller snapshot; scans are expanded back by
    the same aliasing.  For ``registers < base.m`` distinct base components
    collide, which is precisely the "protocol that uses too few registers"
    object the lower-bound proof contradicts out of existence — so feeding
    this to the revisionist simulation must expose a violation.

    Only read/write components are aliased: a base process poised for a
    read-modify-write step is a :class:`~repro.errors.ProtocolError`.
    """

    def __init__(self, base: Protocol, registers: int) -> None:
        if registers < 1:
            raise ValidationError("registers must be at least 1")
        self.base = base
        self.n = base.n
        self.m = registers
        self.name = f"{base.name}|truncated-to-{registers}"

    def initial_state(self, index: int, value: Any) -> Any:
        return self.base.initial_state(index, value)

    def poised(self, state: Any) -> Tuple[str, Any]:
        kind, payload = self.base.poised(state)
        if kind == UPDATE:
            component, value = payload
            return (UPDATE, (component % self.m, value))
        if kind == RMW:
            raise ProtocolError(
                f"{self.name}: the base protocol is poised for a "
                f"read-modify-write step ({payload[1]!r}); truncation "
                "aliases read/write components only, and read/write "
                "registers cannot implement it"
            )
        return (kind, payload)

    def advance(self, state: Any, observation: Any = None) -> Any:
        if observation is not None:
            observation = tuple(
                observation[j % self.m] for j in range(self.base.m)
            )
        return self.base.advance(state, observation)
