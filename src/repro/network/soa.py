"""Array-native netlist kernel: one structure-of-arrays core per network.

The :class:`~repro.network.netlist.Network` object API stays the
mutation facade; this module is the shared flat view every engine used
to build privately.  One :class:`SoAKernel` per network owns

* the :class:`~repro.logic.simcore.compiled.CompiledNetwork` flat form
  (opcode / fanin-CSR / fanout adjacency), kept current by *patching*
  it in place on pin-rewiring events instead of recompiling — this is
  the object :func:`repro.logic.simcore.compiled.get_compiled` now
  hands out, so simcore, STA and the wirelength engine all read the
  same arrays behind one shared version/revision counter;
* the per-gate cell bindings in compiled order (sizing moves patch
  them without touching the logic arrays);
* lazily built numpy arrays (:meth:`SoAKernel.arrays`): the consumer
  CSR (fanin edges grouped by driven net) the vectorized HPWL rebuild
  gathers from.

Synchronisation contract: the kernel subscribes to the network's typed
mutation events.  ``REPLACE_FANIN``/``SWAP_FANINS`` are absorbed as
in-place patches (``compiled.revision`` bumps, numpy mirrors rebuild
lazily), ``SET_CELL`` patches the binding table, and every structural
kind marks the kernel stale so the next :meth:`SoAKernel.sync` does a
full recompile (``epoch`` bumps).  A patch that cannot keep the stored
topological order valid also falls back to stale — consumers only ever
see arrays consistent with the live network.
"""

from __future__ import annotations

import weakref

from ..logic.simcore.compiled import (
    CompiledNetwork,
    compile_network,
)
from . import events
from .netlist import Network

try:  # pragma: no cover - exercised via the numpy-present suite
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

#: Events absorbed as cell-binding table patches.
_CELL_KINDS = frozenset({events.SET_CELL})
#: Structural events: the flat form is rebuilt at the next sync.
_STALE_KINDS = frozenset({
    events.SET_FANINS,
    events.SET_GATE_TYPE,
    events.ADD_GATE,
    events.REMOVE_GATE,
    events.ADD_INPUT,
    events.ADD_OUTPUT,
    events.REPLACE_OUTPUT,
    events.RESTORE,
    events.UNKNOWN,
})


class SoAKernel:
    """Structure-of-arrays core for one network (see module docstring)."""

    def __init__(self, network: Network) -> None:
        self._network_ref = weakref.ref(network)
        self.compiled: CompiledNetwork | None = None
        #: cell binding per topological position (compiled order)
        self.cells: list[str | None] = []
        #: full-rebuild counter; ``(epoch, compiled.revision)`` keys
        #: every derived structure
        self.epoch = 0
        self.rebuilds = 0
        self.patches = 0
        self._version = -1
        self._stale = True
        self._np: dict | None = None
        self._np_key: tuple[int, int] | None = None
        network.subscribe(self)

    # ------------------------------------------------------------------
    # event intake
    # ------------------------------------------------------------------
    def notify_network_event(self, kind: str, data: dict) -> None:
        if kind == events.REPLACE_FANIN:
            if self._stale or self.compiled is None:
                return
            self._absorb(self._patch_pin(data["pin"], data["new"]))
        elif kind == events.SWAP_FANINS:
            if self._stale or self.compiled is None:
                return
            ok = self._patch_pin(data["pin_a"], data["net_b"])
            ok = self._patch_pin(data["pin_b"], data["net_a"]) and ok
            self._absorb(ok)
        elif kind in _CELL_KINDS:
            if self._stale or self.compiled is None:
                return
            self._absorb(self._patch_cell(data["gate"]))
        elif kind in _STALE_KINDS:
            self._stale = True
        else:
            self._stale = True

    def _absorb(self, ok: bool) -> None:
        """Record a successful in-place patch, or fall back to stale."""
        network = self._network_ref()
        if ok and network is not None:
            self._version = network.version
            self.compiled.version = network.version
        else:
            self._stale = True

    def _patch_pin(self, pin, net: str) -> bool:
        compiled = self.compiled
        index = compiled.net_index.get(pin.gate)
        if index is None or index < compiled.num_inputs:
            return False
        position = index - compiled.num_inputs
        width = (
            compiled.fanin_offset[position + 1]
            - compiled.fanin_offset[position]
        )
        if not 0 <= pin.index < width:
            return False
        self.patches += 1
        return compiled.patch_fanin(position, pin.index, net)

    def _patch_cell(self, gate: str) -> bool:
        network = self._network_ref()
        if network is None:
            return False
        compiled = self.compiled
        index = compiled.net_index.get(gate)
        if index is None or index < compiled.num_inputs:
            return False
        self.cells[index - compiled.num_inputs] = network.gate(gate).cell
        return True

    # ------------------------------------------------------------------
    # synchronisation + derived arrays
    # ------------------------------------------------------------------
    @property
    def synced(self) -> bool:
        network = self._network_ref()
        return (
            network is not None
            and not self._stale
            and self.compiled is not None
            and self._version == network.version
        )

    def sync(self) -> CompiledNetwork:
        """Current flat form, rebuilding from the network if stale."""
        network = self._network_ref()
        if network is None:
            raise ReferenceError("network was garbage-collected")
        if (
            self._stale
            or self.compiled is None
            or self._version != network.version
        ):
            self.compiled = compile_network(network)
            self.cells = [
                network.gate(name).cell
                for name in self.compiled.gate_names
            ]
            self.epoch += 1
            self.rebuilds += 1
            self._version = network.version
            self._stale = False
            self._np = None
            self._np_key = None
        return self.compiled

    def arrays(self) -> dict | None:
        """Numpy arrays over the flat form, rebuilt per (epoch, revision).

        ``None`` when numpy is unavailable.  Keys:

        ``consumer_offset``/``consumer_counts``/``consumer_gate``
            consumer CSR: for net ``i`` the edge range
            ``consumer_offset[i]:consumer_offset[i+1]`` lists the
            topological position of every gate reading the net, once
            per pin, in stable fanin-slot order (int64).
        """
        if np is None:
            return None
        compiled = self.sync()
        key = (self.epoch, compiled.revision)
        if self._np_key != key:
            self._np = _build_arrays(compiled)
            self._np_key = key
        return self._np

    def location_table(self, placement) -> "np.ndarray | None":
        """(num_gates, 2) float64 gate locations in compiled order.

        ``None`` when numpy is unavailable or any compiled gate is
        missing from *placement* (callers fall back to their scalar
        path, which raises the same ``KeyError`` the object walk did).
        """
        if np is None:
            return None
        compiled = self.sync()
        locations = placement.locations
        table = np.empty((compiled.num_gates, 2), dtype=np.float64)
        for position, name in enumerate(compiled.gate_names):
            point = locations.get(name)
            if point is None:
                return None
            table[position, 0] = point[0]
            table[position, 1] = point[1]
        return table


def ragged_indices(starts, counts):
    """Flat source indices for a ragged multi-segment gather.

    Given per-segment source *starts* and *counts* (CSR slices to pull
    together), returns ``(indices, seg_starts)`` where ``indices`` lays
    each segment's ``starts[i] .. starts[i]+counts[i]`` range out
    consecutively and ``seg_starts`` marks each segment's first
    position in that layout (for ``ufunc.reduceat`` folds over the
    gathered values; empty segments must be masked out by the caller).
    """
    total = int(counts.sum())
    seg_starts = np.concatenate(
        ([0], np.cumsum(counts)[:-1])
    ).astype(np.int64)
    if total == 0:
        return np.empty(0, dtype=np.int64), seg_starts
    indices = (
        np.arange(total, dtype=np.int64)
        - np.repeat(seg_starts, counts)
        + np.repeat(starts, counts)
    )
    return indices, seg_starts


def _build_arrays(compiled: CompiledNetwork) -> dict:
    fanin_offset = np.asarray(compiled.fanin_offset, dtype=np.int64)
    fanin_flat = np.asarray(compiled.fanin_flat, dtype=np.int64)
    fanin_counts = np.diff(fanin_offset)
    num_gates = compiled.num_gates
    num_nets = compiled.num_nets
    # consumer CSR: sort the edge slots by driven net; a stable sort
    # keeps each net's edges in (gate, pin) slot order
    owner = np.repeat(np.arange(num_gates, dtype=np.int64), fanin_counts)
    order = np.argsort(fanin_flat, kind="stable")
    consumer_counts = np.bincount(fanin_flat, minlength=num_nets)
    consumer_offset = np.concatenate(
        ([0], np.cumsum(consumer_counts))
    ).astype(np.int64)
    return {
        "consumer_offset": consumer_offset,
        "consumer_counts": consumer_counts.astype(np.int64),
        "consumer_gate": owner[order],
    }


_KERNELS: "weakref.WeakKeyDictionary[Network, SoAKernel]" = (
    weakref.WeakKeyDictionary()
)


def get_soa(network: Network) -> SoAKernel:
    """The per-network kernel, created on first use.

    The kernel holds the network weakly (the cache would otherwise pin
    its own keys alive) and subscribes to its mutation events, so a
    cached kernel is always either in sync or marked stale.
    """
    kernel = _KERNELS.get(network)
    if kernel is None:
        kernel = SoAKernel(network)
        _KERNELS[network] = kernel
    return kernel
