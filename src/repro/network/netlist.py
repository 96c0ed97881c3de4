"""Mapped Boolean network: a DAG of single-output gates.

Section 2.0 of the paper models the circuit as a directed acyclic graph
whose vertices are logic gates and whose edges are interconnects.  Every
gate has in-pins and a single out-pin, and "we do not distinguish
between the name of the gate and its out-pin" — the same convention is
used here: the *net* driven by gate ``g`` is simply named ``g``.
Primary inputs are nets with no driving gate.

The structure is deliberately string-keyed: a pin is the pair
``(gate name, fanin index)``, and rewiring operations are nothing more
than assignments into ``Gate.fanins``.  A monotonically increasing
``version`` counter lets analyses (topological orders, timing graphs)
cache against a network snapshot and detect staleness.

The network also owns two indexes that its typed mutators keep current
in O(pins touched): the *fanout index* (net -> consumer pins, in gate
insertion order then pin order — the order a whole-netlist scan
yields) and the *primary-output index* (net -> positions in
:attr:`Network.outputs`).  :meth:`Network.fanout`,
:meth:`Network.fanout_degree`, :meth:`Network.is_output` and
:meth:`Network.output_slots` therefore cost O(1) between mutations
instead of a whole-map rebuild or an output-list scan.  Index lists are
replaced, never edited in place, so a fanout list a caller holds stays
a valid snapshot while it rewires.  Edits that bypass the mutators
(assigning ``Gate.fanins`` then calling :meth:`Network._touch`, or
:meth:`Network.adopt`) drop the indexes; the next query rebuilds them.

Incremental analyses additionally need to know *what* changed, not
just *that* something changed: every mutating method therefore hands
subscribed listeners (held weakly, so a forgotten engine never leaks)
one immutable :class:`Change` record saying which pins moved between
nets, which gates came or went, which were rewritten and which were
rebound to another cell — never which method ran.  A mutator updates
the indexes before it hands listeners the change, so a listener reads
the post-change fanout while it handles it.  A mutation
performed outside these methods still bumps the version through
:meth:`Network._touch`, which then delivers a ``whole`` change —
listeners treat it as a full invalidation, so bypassing the typed
mutators is safe, merely slower.  Each engine's invalidation rules are
documented in ``docs/architecture.md``.
"""

from __future__ import annotations

import bisect
import weakref

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Protocol

from .gatetype import (
    CONST_TYPES,
    GateType,
    eval_gate,
    max_arity,
    min_arity,
)


class Pin(NamedTuple):
    """An in-pin of a gate, addressed as (gate name, fanin index)."""

    gate: str
    index: int

    def __str__(self) -> str:
        return f"{self.gate}[{self.index}]"


class NetworkError(Exception):
    """Raised on structurally invalid network operations."""


class Change(NamedTuple):
    """What one network mutation changed, as facts rather than a verb.

    Every field but ``whole`` is a tuple of entries, empty when the
    mutation did not change that aspect:

    * ``rebound`` — ``(pin, old net, new net)`` per pin moved between
      nets;
    * ``added`` / ``removed`` — ``(gate, fanins)`` per gate that came
      or went;
    * ``recelled`` — ``(gate, fanins)`` per gate rebound to another
      library cell, nothing else changed;
    * ``rewritten`` — ``(gate, old fanins, new fanins)`` per gate whose
      logic type or whole fanin list may have changed (the tuples are
      equal for a type change);
    * ``whole`` — every state derived from the network is stale (an
      IO change or an untracked mutation).
    """

    rebound: tuple[tuple[Pin, str, str], ...] = ()
    added: tuple[tuple[str, tuple[str, ...]], ...] = ()
    removed: tuple[tuple[str, tuple[str, ...]], ...] = ()
    recelled: tuple[tuple[str, tuple[str, ...]], ...] = ()
    rewritten: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = ()
    whole: bool = False


#: The change of an IO mutation or an untracked edit.
WHOLE = Change(whole=True)


class NetworkListener(Protocol):
    """Anything that wants to observe network mutations.

    A listener receives one :class:`Change` per mutation and must act
    on every field of it; ``change.whole`` means all cached state
    derived from the network is stale.  The network's fanout and
    primary-output indexes already describe the mutated network when
    the change arrives.
    """

    def notify_network_event(self, change: Change) -> None: ...


@dataclass(slots=True)
class Gate:
    """A single-output logic gate.

    ``fanins`` holds *net names* in pin order; the out-pin net carries
    the gate's own name.  ``cell`` names the bound library cell once the
    network is technology-mapped (``None`` for a generic logic network).
    Slotted (no per-instance dict): a run keeps one per gate in each of
    its two or three netlist copies.
    """

    name: str
    gtype: GateType
    fanins: list[str] = field(default_factory=list)
    cell: str | None = None

    def arity(self) -> int:
        """Number of in-pins."""
        return len(self.fanins)

    def eval(self, input_words: list[int], mask: int = 1) -> int:
        """Evaluate the gate over bit-parallel words (see ``eval_gate``)."""
        return eval_gate(self.gtype, input_words, mask)


#: Attributes derived from the structure: never pickled, rebuilt lazily.
_DERIVED = frozenset({
    "_listeners",
    "_fanout_index",
    "_rank",
    "_next_rank",
    "_po_index",
    "_topo_cache",
    "_topo_version",
})


class Network:
    """A combinational Boolean network.

    The class offers the queries every later stage needs — drivers,
    fanout maps, topological order, cones — and the primitive mutations
    rewiring is built from.  Mutations bump :attr:`version` and keep the
    fanout and primary-output indexes current (see the module
    docstring); the topological order is recomputed lazily when the
    version moves.
    """

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self.inputs: list[str] = []
        self._outputs: list[str] = []
        self._gates: dict[str, Gate] = {}
        self._input_set: set[str] = set()
        self.version = 0
        self._listeners: weakref.WeakSet[NetworkListener] = weakref.WeakSet()
        self._reset_indexes()

    # ------------------------------------------------------------------
    # change listeners
    # ------------------------------------------------------------------
    def subscribe(self, listener: NetworkListener) -> None:
        """Register a mutation listener (held weakly)."""
        self._listeners.add(listener)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input net."""
        if name in self._input_set:
            raise NetworkError(f"duplicate primary input {name!r}")
        if name in self._gates:
            raise NetworkError(f"net {name!r} already driven by a gate")
        self.inputs.append(name)
        self._input_set.add(name)
        self._touch(WHOLE)
        return name

    def add_output(self, net: str) -> str:
        """Declare *net* a primary output (it may also feed other gates)."""
        self._outputs.append(net)
        index = self._po_index
        if index is not None:
            index[net] = index.get(net, ()) + (len(self._outputs) - 1,)
        self._touch(WHOLE)
        return net

    def add_gate(
        self,
        name: str,
        gtype: GateType,
        fanins: Iterable[str] = (),
        cell: str | None = None,
    ) -> Gate:
        """Create a gate driving net *name*; fanin nets need not exist yet."""
        if name in self._gates:
            raise NetworkError(f"duplicate gate {name!r}")
        if name in self._input_set:
            raise NetworkError(f"net {name!r} is a primary input")
        fanin_list = list(fanins)
        lo, hi = min_arity(gtype), max_arity(gtype)
        if len(fanin_list) < lo or (hi is not None and len(fanin_list) > hi):
            raise NetworkError(
                f"gate {name!r}: {gtype.name} cannot take {len(fanin_list)} fanins"
            )
        gate = Gate(name=name, gtype=gtype, fanins=fanin_list, cell=cell)
        self._gates[name] = gate
        if self._fanout_index is not None:
            self._rank[name] = self._next_rank
            self._next_rank += 1
            for index, net in enumerate(fanin_list):
                self._link(net, Pin(name, index))
        self._touch(Change(added=((name, tuple(fanin_list)),)))
        return gate

    def remove_gate(self, name: str) -> None:
        """Delete a gate; fails if its output net still has consumers."""
        if name not in self._gates:
            raise NetworkError(f"no gate {name!r}")
        consumers = self.fanout(name)
        if consumers:
            raise NetworkError(
                f"gate {name!r} still drives {len(consumers)} pins"
            )
        if self.is_output(name):
            raise NetworkError(f"gate {name!r} is a primary output")
        fanins = tuple(self._gates[name].fanins)
        for index, net in enumerate(fanins):
            self._unlink(net, Pin(name, index))
        self._rank.pop(name, None)
        del self._gates[name]
        self._touch(Change(removed=((name, fanins),)))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, net: str) -> bool:
        return net in self._gates or net in self._input_set

    def __len__(self) -> int:
        return len(self._gates)

    @property
    def outputs(self) -> list[str]:
        """Primary-output nets in declaration order.

        Change them through :meth:`add_output` / :meth:`replace_output`;
        never edit the returned list in place.
        """
        return self._outputs

    def gate(self, name: str) -> Gate:
        """Return the gate driving net *name*."""
        try:
            return self._gates[name]
        except KeyError:
            raise NetworkError(f"no gate drives net {name!r}") from None

    def gates(self) -> Iterator[Gate]:
        """Iterate over all gates in insertion order."""
        return iter(self._gates.values())

    def gate_names(self) -> Iterator[str]:
        """Iterate over all gate (= internal net) names."""
        return iter(self._gates.keys())

    def nets(self) -> Iterator[str]:
        """Iterate over every net: primary inputs then gate outputs."""
        yield from self.inputs
        yield from self._gates.keys()

    def is_input(self, net: str) -> bool:
        """True if *net* is a primary input."""
        return net in self._input_set

    def is_output(self, net: str) -> bool:
        """True if *net* is listed as a primary output."""
        return net in self._outputs_index()

    def output_slots(self, net: str) -> tuple[int, ...]:
        """Positions of *net* in :attr:`outputs`, ascending (may be empty)."""
        return self._outputs_index().get(net, ())

    def driver(self, net: str) -> Gate | None:
        """Gate driving *net*, or ``None`` for a primary input."""
        gate = self._gates.get(net)
        if gate is None and net not in self._input_set:
            raise NetworkError(f"unknown net {net!r}")
        return gate

    def fanin_net(self, pin: Pin) -> str:
        """Net connected to *pin*."""
        return self.gate(pin.gate).fanins[pin.index]

    def fanout(self, net: str) -> list[Pin]:
        """All in-pins the net drives (primary-output use not included).

        Pins come in gate insertion order, then pin order.  The list is
        a snapshot — mutations replace index lists instead of editing
        them — so callers may rewire while iterating it, but must not
        modify it.
        """
        return self._fanouts().get(net, [])

    def fanout_degree(self, net: str) -> int:
        """Number of sink pins plus one per primary-output listing."""
        return len(self.fanout(net)) + len(self.output_slots(net))

    def topo_order(self) -> list[str]:
        """Gate names in topological order (fanins before fanouts).

        Raises :class:`NetworkError` when the network contains a
        combinational cycle.
        """
        if self._topo_cache is not None and self._topo_version == self.version:
            return self._topo_cache
        indegree: dict[str, int] = {}
        for gate in self._gates.values():
            count = 0
            for net in gate.fanins:
                if net in self._gates:
                    count += 1
                elif net not in self._input_set:
                    raise NetworkError(
                        f"gate {gate.name!r} references unknown net {net!r}"
                    )
            indegree[gate.name] = count
        ready = [name for name, deg in indegree.items() if deg == 0]
        order: list[str] = []
        fanout = self._fanouts()
        cursor = 0
        while cursor < len(ready):
            name = ready[cursor]
            cursor += 1
            order.append(name)
            for pin in fanout.get(name, ()):
                indegree[pin.gate] -= 1
                if indegree[pin.gate] == 0:
                    ready.append(pin.gate)
        if len(order) != len(self._gates):
            raise NetworkError("network contains a combinational cycle")
        self._topo_cache = order
        self._topo_version = self.version
        return order

    def levels(self) -> dict[str, int]:
        """Logic level of every net (PIs at level 0)."""
        level = {net: 0 for net in self.inputs}
        for name in self.topo_order():
            gate = self._gates[name]
            if gate.gtype in CONST_TYPES:
                level[name] = 0
            else:
                level[name] = 1 + max(level[f] for f in gate.fanins)
        return level

    def depth(self) -> int:
        """Maximum logic level over all nets (0 for an empty network)."""
        levels = self.levels()
        return max(levels.values(), default=0)

    # ------------------------------------------------------------------
    # derived indexes
    # ------------------------------------------------------------------
    def _reset_indexes(self) -> None:
        """Drop every derived index; the next query rebuilds it."""
        #: net -> consumer pins; ``None`` until first queried
        self._fanout_index: dict[str, list[Pin]] | None = None
        #: gate -> insertion rank, the fanout lists' sort key
        self._rank: dict[str, int] = {}
        self._next_rank = 0
        #: net -> positions in ``outputs``; ``None`` until first queried
        self._po_index: dict[str, tuple[int, ...]] | None = None
        self._topo_cache: list[str] | None = None
        self._topo_version = -1

    def _fanouts(self) -> dict[str, list[Pin]]:
        index = self._fanout_index
        if index is None:
            index = {}
            rank: dict[str, int] = {}
            for position, gate in enumerate(self._gates.values()):
                rank[gate.name] = position
                for pin_index, net in enumerate(gate.fanins):
                    index.setdefault(net, []).append(Pin(gate.name, pin_index))
            self._fanout_index = index
            self._rank = rank
            self._next_rank = len(rank)
        return index

    def _outputs_index(self) -> dict[str, tuple[int, ...]]:
        index = self._po_index
        if index is None:
            index = {}
            for position, net in enumerate(self._outputs):
                index[net] = index.get(net, ()) + (position,)
            self._po_index = index
        return index

    def _pin_key(self, pin: Pin) -> tuple[int, int]:
        return (self._rank[pin.gate], pin.index)

    def _link(self, net: str, pin: Pin) -> None:
        """Add *pin* to *net*'s fanout list at its sorted position."""
        index = self._fanout_index
        if index is None:
            return
        pins = index.get(net)
        if pins is None:
            index[net] = [pin]
            return
        at = bisect.bisect(pins, self._pin_key(pin), key=self._pin_key)
        index[net] = pins[:at] + [pin] + pins[at:]

    def _unlink(self, net: str, pin: Pin) -> None:
        """Remove *pin* from *net*'s fanout list."""
        index = self._fanout_index
        if index is None:
            return
        pins = [other for other in index[net] if other != pin]
        if pins:
            index[net] = pins
        else:
            del index[net]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _touch(self, change: Change | None = None) -> None:
        self.version += 1
        if change is None:
            # an untracked edit: the indexes may no longer describe it
            self._reset_indexes()
            change = WHOLE
        if self._listeners:
            for listener in tuple(self._listeners):
                listener.notify_network_event(change)

    def replace_fanin(self, pin: Pin, net: str) -> str:
        """Reconnect *pin* to *net*; returns the previously connected net."""
        gate = self.gate(pin.gate)
        if net not in self:
            raise NetworkError(f"unknown net {net!r}")
        old = gate.fanins[pin.index]
        gate.fanins[pin.index] = net
        if old != net:
            self._unlink(old, pin)
            self._link(net, pin)
        self._touch(Change(rebound=((pin, old, net),)))
        return old

    def swap_fanins(self, pin_a: Pin, pin_b: Pin) -> None:
        """Exchange the nets feeding two pins (a non-inverting swap)."""
        net_a = self.fanin_net(pin_a)
        net_b = self.fanin_net(pin_b)
        self.gate(pin_a.gate).fanins[pin_a.index] = net_b
        self.gate(pin_b.gate).fanins[pin_b.index] = net_a
        if net_a != net_b:
            self._unlink(net_a, pin_a)
            self._unlink(net_b, pin_b)
            self._link(net_b, pin_a)
            self._link(net_a, pin_b)
        self._touch(Change(
            rebound=((pin_a, net_a, net_b), (pin_b, net_b, net_a))
        ))

    def replace_output(self, old: str, new: str) -> None:
        """Retarget every primary-output reference from *old* to *new*."""
        if new not in self:
            raise NetworkError(f"unknown net {new!r}")
        self._outputs = [new if net == old else net for net in self._outputs]
        index = self._po_index
        if index is not None and old != new:
            moved = index.pop(old, ())
            if moved:
                index[new] = tuple(sorted(index.get(new, ()) + moved))
        self._touch(WHOLE)

    def set_gate_type(self, name: str, gtype: GateType) -> None:
        """Change a gate's logic type in place (arity must stay legal)."""
        gate = self.gate(name)
        lo, hi = min_arity(gtype), max_arity(gtype)
        if gate.arity() < lo or (hi is not None and gate.arity() > hi):
            raise NetworkError(
                f"gate {name!r}: {gtype.name} cannot take {gate.arity()} fanins"
            )
        gate.gtype = gtype
        gate.cell = None
        fanins = tuple(gate.fanins)
        self._touch(Change(rewritten=((name, fanins, fanins),)))

    def set_cell(self, name: str, cell: str | None) -> None:
        """Rebind a gate to a library cell (``None`` unbinds)."""
        gate = self.gate(name)
        gate.cell = cell
        self._touch(Change(recelled=((name, tuple(gate.fanins)),)))

    def set_fanins(self, name: str, fanins: Iterable[str]) -> None:
        """Replace a gate's whole fanin list.

        Arity is not validated against the current gate type: callers
        that shrink a gate (constant folding) fix the type right after.
        """
        gate = self.gate(name)
        old = tuple(gate.fanins)
        gate.fanins = list(fanins)
        for index, net in enumerate(old):
            self._unlink(net, Pin(name, index))
        for index, net in enumerate(gate.fanins):
            self._link(net, Pin(name, index))
        self._touch(Change(rewritten=((name, old, tuple(gate.fanins)),)))

    def adopt(self, source: "Network", announce: bool = True) -> None:
        """Take over copies of *source*'s inputs, outputs and gates.

        This object keeps its identity — name, listeners and every
        reference other components hold — which is how whole-netlist
        rewrites (mapping, committed trial copies, snapshot rollbacks,
        checkpoint grafts) land in a live network.  The derived indexes
        are dropped.  With *announce* the change reaches listeners as a
        ``whole`` :class:`Change`; a caller that describes it precisely
        (the optimizer's rollback diff) or must not notify at all (a
        checkpoint graft) passes ``False`` and owns the version and the
        change itself.
        """
        self.inputs = list(source.inputs)
        self._input_set = set(source._input_set)
        self._outputs = list(source._outputs)
        self._gates = {
            name: Gate(
                name=gate.name,
                gtype=gate.gtype,
                fanins=list(gate.fanins),
                cell=gate.cell,
            )
            for name, gate in source._gates.items()
        }
        self._reset_indexes()
        if announce:
            self._touch()

    def recent_gates(self, count: int) -> list[str]:
        """Names of the *count* most recently added gates (oldest first).

        Gate insertion order is preserved by the underlying dict; used
        by the optimizer to find inverters a rewiring move just created.
        """
        if count <= 0:
            return []
        names = list(self._gates.keys())
        return names[-count:]

    def fresh_name(self, prefix: str) -> str:
        """Return an unused net name starting with *prefix*."""
        if prefix not in self:
            return prefix
        counter = 0
        while True:
            candidate = f"{prefix}_{counter}"
            if candidate not in self:
                return candidate
            counter += 1

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Picklable view: listeners and derived indexes stay behind.

        Subscribed listeners (timing engines, supergate caches) belong
        to *this* process; a pickled copy shipped to an evaluation
        worker must arrive unobserved.  The indexes are cheap to
        rebuild and would only fatten the payload.
        """
        return {
            key: value for key, value in self.__dict__.items()
            if key not in _DERIVED
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._listeners = weakref.WeakSet()
        self._reset_indexes()

    def copy(self, name: str | None = None) -> "Network":
        """Deep-copy the network (gate objects are duplicated)."""
        other = Network(name or self.name)
        other.adopt(self, announce=False)
        return other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network({self.name!r}, pi={len(self.inputs)}, "
            f"po={len(self._outputs)}, gates={len(self._gates)})"
        )
