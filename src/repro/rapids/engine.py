"""RAPIDS: Rewiring After Placement usIng easily Detectable Symmetries.

The paper's prototype tool, reimplemented.  Three optimization modes
mirror Section 6:

* ``gsg``    — supergate-based rewiring only: each non-trivial
  supergate's legal pin swaps are its "library implementations";
* ``gs``     — Coudert gate sizing only, every mapped gate a site;
* ``gsg_gs`` — the combination: rewiring for gates covered by
  non-trivial supergates, sizing for gates covered only by trivial
  ones (minimum perturbation of the placement).

All modes run the same two-phase min-slack / relaxation loop from
``repro.sizing``; the placement is never modified (new inverters adopt
their sink's location).

Supergate extraction results persist at two granularities: the
:class:`SupergateCache` keeps one partition incrementally fresh across
optimizer rounds on a live network, and the process-wide
:data:`SUPERGATE_STORE` shares finished partitions *across* networks
with identical logic content (the three Table-1 modes, presize/final
runs) keyed by a ``PYTHONHASHSEED``-independent content hash that
ignores cell bindings.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from types import SimpleNamespace

from ..checkpoint import CheckpointManager, graft_state, stage_payload
from ..config import MODES as MODES  # re-exported: callers import it here
from ..config import RapidsConfig
from ..library.cells import Library
from ..network.netlist import Change, Network
from ..place.placement import Placement, perturbation
from ..sizing.coudert import OptimizeResult, Site, optimize
from ..sizing.moves import resize_sites
from ..symmetry.redundancy import find_easy_redundancies, redundancy_counts
from ..symmetry.supergate import (
    SupergateNetwork,
    extract_supergates,
    grow_supergate,
)
from ..timing.sta import TimingEngine
from ..verify.equiv import networks_equivalent
from .moves import swap_sites


def network_content_hash(network: Network) -> str:
    """Stable digest of the network's *logic structure*.

    Covers IO ordering, gate types and fanin wiring — everything
    supergate extraction depends on — and deliberately excludes cell
    bindings (sizing a gate never moves a supergate boundary) and the
    mutable version counter.  ``hashlib`` keeps the digest independent
    of ``PYTHONHASHSEED``.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update("|".join(network.inputs).encode())
    digest.update(b"\x00")
    digest.update("|".join(network.outputs).encode())
    for name in sorted(network.gate_names()):
        gate = network.gate(name)
        digest.update(
            f"\x00{name}\x01{gate.gtype.value}\x01{','.join(gate.fanins)}"
            .encode()
        )
    return digest.hexdigest()


class PersistentSupergateStore:
    """Content-addressed supergate partitions, shared across runs.

    The three Table-1 modes (and the presize/final pair) each start
    from a *copy* of the same prepared network, so every `run_rapids`
    call used to pay a full extraction for an identical structure.
    The store keys finished partitions by :func:`network_content_hash`
    and re-binds them to whichever network object asks next; cell
    rebinding (pure sizing) leaves the hash — and the partition —
    untouched.  Entries hold plain dict snapshots (``Supergate``
    objects are immutable after extraction), so attaching is a cheap
    dict copy instead of an O(pins) re-growth.
    """

    #: Inert: perfbench/flows.py reads ``dedup.hit_rate``; always 0.0.
    dedup = SimpleNamespace(hit_rate=0.0)
    #: Partitions kept; the least recently used one goes first.
    MAX_ENTRIES = 16

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, tuple[dict, dict]]" = OrderedDict()

    def fetch(
        self, network: Network, key: str | None = None
    ) -> SupergateNetwork | None:
        """Partition for *network*'s current content, or ``None``."""
        if key is None:
            key = network_content_hash(network)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        supergates, owner = entry
        return SupergateNetwork(
            network=network,
            supergates=dict(supergates),
            owner=dict(owner),
        )

    def store(
        self,
        network: Network,
        sgn: SupergateNetwork,
        key: str | None = None,
    ) -> None:
        """Snapshot a freshly extracted partition under the content key."""
        if key is None:
            key = network_content_hash(network)
        self._entries[key] = (dict(sgn.supergates), dict(sgn.owner))
        self._entries.move_to_end(key)
        while len(self._entries) > self.MAX_ENTRIES:
            self._entries.popitem(last=False)

    def get_or_extract(self, network: Network) -> SupergateNetwork:
        """Cached partition when the content matches, else extract+store."""
        key = network_content_hash(network)
        sgn = self.fetch(network, key=key)
        if sgn is None:
            sgn = extract_supergates(network)
            self.store(network, sgn, key=key)
        return sgn

    def clear(self) -> None:
        self._entries.clear()


#: Process-wide store: one prepared benchmark is optimized three times
#: (once per mode) plus presized, all from copies with identical logic.
SUPERGATE_STORE = PersistentSupergateStore()


class SupergateCache:
    """Supergate extraction cached across optimizer rounds.

    Subscribes to the network's changes; :meth:`get` drops
    only the supergates whose covered gates — or whose boundary nets'
    fanout — were touched since the previous extraction and re-grows
    the freed region, reusing every untouched supergate.  Falls back
    to a full re-extraction when an untracked mutation happens or a
    boundary shifts beyond the tracked region.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.full_extractions = 0
        self.partial_refreshes = 0
        self.store_fetches = 0
        self._sgn: SupergateNetwork | None = None
        self._touched_gates: set[str] = set()
        self._touched_nets: set[str] = set()
        self._removed: set[str] = set()
        self._full = True
        network.subscribe(self)

    def notify_network_event(self, change: Change) -> None:
        if change.whole:
            # IO moved or an untracked mutation: fanout degree counts
            # primary-output use, so any coverage boundary may move
            self._full = True
        for name, fanins in change.removed:
            self._removed.add(name)
            self._touched_gates.discard(name)
            self._touched_nets.update(fanins)
        for name, fanins in change.added:
            self._removed.discard(name)
            self._touched_gates.add(name)
            self._touched_nets.update(fanins)
        for name, old_fanins, new_fanins in change.rewritten:
            # the gate's own net is a growth boundary for its
            # consumers' supergates: a class change (say XOR -> INV)
            # can make it absorbable, so their owners must re-grow
            self._touched_gates.add(name)
            self._touched_nets.add(name)
            self._touched_nets.update(old_fanins)
            self._touched_nets.update(new_fanins)
        for pin, old, new in change.rebound:
            self._touched_nets.add(old)
            self._touched_nets.add(new)
            self._touched_gates.add(pin.gate)
        # change.recelled needs nothing: a cell binding does not change
        # supergate structure

    def get(self) -> SupergateNetwork:
        """Current supergate partition, refreshed as locally as possible."""
        network = self.network
        if self._sgn is None or self._full:
            return self._extract_full()
        sgn = self._sgn
        if not (self._touched_gates or self._touched_nets or self._removed):
            return sgn
        # gates whose coverage may have changed: the touched gates, the
        # drivers and the consumers of every touched net (the net's
        # fanout degree gates supergate growth across it)
        seeds: set[str] = set()
        for gate in self._touched_gates:
            if gate in network and not network.is_input(gate):
                seeds.add(gate)
        for net in self._touched_nets:
            if net not in network:
                continue
            if not network.is_input(net):
                seeds.add(net)
            for pin in network.fanout(net):
                seeds.add(pin.gate)
        invalid_roots: set[str] = set()
        region: set[str] = set()
        for gate in seeds:
            root = sgn.owner.get(gate)
            if root is None:
                region.add(gate)  # new gate, never covered
            else:
                invalid_roots.add(root)
        for name in self._removed:
            root = sgn.owner.get(name)
            if root is not None:
                invalid_roots.add(root)
        for root in invalid_roots:
            sg = sgn.supergates.pop(root, None)
            if sg is None:
                continue
            for gate in sg.covered:
                if sgn.owner.get(gate) == root:
                    del sgn.owner[gate]
                if gate in network:
                    region.add(gate)
        for name in self._removed:
            sgn.owner.pop(name, None)
            sgn.supergates.pop(name, None)
            region.discard(name)
        for name in reversed(network.topo_order()):
            if name not in region or name in sgn.owner:
                continue
            sg = grow_supergate(network, name)
            for covered_name in sg.covered:
                if sgn.owner.get(covered_name) is not None:
                    # growth crossed into a supergate we considered
                    # valid: the tracked region under-approximated the
                    # change — rebuild everything
                    return self._extract_full()
            for covered_name in sg.covered:
                sgn.owner[covered_name] = name
            sgn.supergates[name] = sg
        self._reset_dirty()
        self.partial_refreshes += 1
        return sgn

    def _extract_full(self) -> SupergateNetwork:
        # fetch-only: a hit reuses the prepared network's partition
        # (first factory call of every mode), but mid-optimization
        # fallback extractions of a mutated trajectory would only
        # pollute the shared LRU with never-again-matching snapshots,
        # so storing stays with run_rapids / prepare_benchmark
        sgn = SUPERGATE_STORE.fetch(self.network)
        if sgn is None:
            sgn = extract_supergates(self.network)
            self.full_extractions += 1
        else:
            self.store_fetches += 1
        self._sgn = sgn
        self._reset_dirty()
        return self._sgn

    def _reset_dirty(self) -> None:
        self._touched_gates.clear()
        self._touched_nets.clear()
        self._removed.clear()
        self._full = False


@dataclass
class RapidsResult:
    """Everything one Table 1 row needs, for one mode."""

    mode: str
    optimize: OptimizeResult
    coverage_percent: float
    max_supergate_inputs: int
    redundancies: int
    perturbation: dict[str, float] = field(default_factory=dict)
    equivalent: bool | None = None
    #: Section-5 wirelength polish outcome (None unless wl_passes > 0).
    wirelength: "WirelengthResult | None" = None

    @property
    def improvement_percent(self) -> float:
        return self.optimize.improvement_percent

    @property
    def area_delta_percent(self) -> float:
        return self.optimize.area_delta_percent

    @property
    def runtime_seconds(self) -> float:
        return self.optimize.runtime_seconds


def _site_factory(
    mode: str, library: Library, supergates: SupergateCache | None
):
    """The optimizer's sites for *mode*, re-enumerated per call.

    ``gsg`` swaps over supergates, ``gs`` resizes every gate (without
    touching *supergates*) and ``gsg_gs`` puts the swap sites first,
    then resizes only the gates no nontrivial supergate covers.
    """

    def factory(network: Network, engine: TimingEngine) -> list[Site]:
        if mode == "gs":
            return resize_sites(network, library)
        sgn = supergates.get()
        sites = swap_sites(network, engine, sgn)
        if mode == "gsg_gs":
            nontrivial_gates = {
                name
                for sg in sgn.nontrivial()
                for name in sg.covered
            }
            sites.extend(
                resize_sites(
                    network,
                    library,
                    gate_filter=lambda name: name not in nontrivial_gates,
                )
            )
        return sites

    return factory


def run_rapids(
    network: Network,
    placement: Placement,
    library: Library,
    *,
    wl_class_swaps: bool = False,  # inert: perfbench/flows.py passes it
    sim_backend: str = "auto",  # inert: perfbench/flows.py passes it
    wl_batched: bool = True,  # inert: perfbench/flows.py passes it
    **knobs,
) -> RapidsResult:
    """Optimize a placed mapped network in place; returns the report.

    *knobs* are the fields of :class:`repro.config.RapidsConfig`, which
    documents each; a bad knob is refused before any work.  The run is
    the ``mode`` optimizer, ``wl_passes`` wirelength-polish passes and
    the optional equivalence check.  A ``checkpoint`` has the stage
    boundaries ``"optimize"`` (each round), ``"wl"``, ``"wl_round"``
    (each batched-polish round) and ``"done"``; ``"wl"`` and ``"done"``
    always save, the others as the save budget allows
    (:data:`~repro.checkpoint.SAVE_BUDGET`), and a SIGTERM saves at the
    next one and unwinds with :class:`~repro.checkpoint.RunInterrupted`;
    ``resume`` finishes bit-identically to an uninterrupted run.
    *wl_class_swaps* must be ``False``, *sim_backend* ``"auto"`` and
    *wl_batched* ``True``.
    """
    if wl_class_swaps:
        raise ValueError("wl_class_swaps=True is not supported")
    if sim_backend != "auto":
        raise ValueError(f"sim_backend={sim_backend!r} is not supported")
    if not wl_batched:
        raise ValueError("wl_batched=False is not supported")
    config = RapidsConfig(**knobs)
    manager = saved = stage = None
    if config.checkpoint is not None:
        manager = CheckpointManager(config.checkpoint)
        manager.knobs = config.trajectory_knobs()
        if config.resume:
            saved = manager.load()
            stage = saved and saved["stage"]
        manager.install()
    try:
        # pre-flight metrics run on the pristine input even when
        # resuming (the saved state is grafted only afterwards), so a
        # resumed report matches the uninterrupted one field for field
        reference = network.copy() if config.check_equivalence else None
        placement_before = placement.copy()
        sgn = SUPERGATE_STORE.get_or_extract(network)
        coverage = sgn.coverage() * 100.0
        max_inputs = sgn.max_supergate_inputs()
        redundancies = redundancy_counts(
            find_easy_redundancies(network, sgn)
        )["events"]
        if saved is not None:
            # every stage saved the live netlist under the same keys
            graft_state(saved["network"], saved["placement"],
                        network, placement)
        if stage == "done":
            # a finished checkpoint: return the saved report instead of
            # redoing any work
            result = saved["result"]
        else:
            # one timing engine and one supergate cache serve every
            # stage: the optimizer keeps both current, and the polish
            # continues from them.  A resumed engine analyzes the saved
            # netlist afresh (incremental STA equals a fresh analysis
            # bit for bit) with the saved period, which a timing-aware
            # polish pinned to the pre-polish delay
            engine = TimingEngine(
                network, placement, library, period=saved and saved["period"]
            )
            supergates = SupergateCache(network)
            if stage in ("wl", "wl_round"):
                opt = saved["opt"]
            else:
                opt = optimize(
                    network,
                    placement,
                    library,
                    site_factory=_site_factory(
                        config.mode, library, supergates
                    ),
                    engine=engine,
                    mode=config.mode,
                    max_rounds=config.max_rounds,
                    batch_limit=config.batch_limit,
                    collect_log=config.collect_log,
                    checkpoint=manager,
                    resume_data=saved,
                )
            if manager is not None:
                # later payloads carry the finished optimization result;
                # the forced boundary also turns a SIGTERM after the
                # optimizer's last round into a clean stage handoff
                manager.context = {"opt": opt}
                if stage not in ("wl", "wl_round"):
                    manager.boundary(
                        "wl", lambda: stage_payload(network, placement),
                        force=True,
                    )
            wirelength = None
            if config.wl_passes > 0:
                wirelength = _polish(
                    network, placement, config, opt, manager,
                    saved if stage == "wl_round" else None,
                    engine, supergates,
                )
            result = RapidsResult(
                mode=config.mode,
                optimize=opt,
                coverage_percent=coverage,
                max_supergate_inputs=max_inputs,
                redundancies=redundancies,
                perturbation=perturbation(placement_before, placement),
                wirelength=wirelength,
            )
        if reference is not None:
            result.equivalent = networks_equivalent(reference, network)
        if manager is not None and stage != "done":
            # a SIGTERM no earlier boundary saw unwinds here, after the
            # run's own result is saved
            manager.context = {}
            manager.boundary(
                "done",
                lambda: stage_payload(network, placement, result=result),
                force=True,
            )
        return result
    finally:
        if manager is not None:
            manager.uninstall()


def _polish(network, placement, config, opt, manager, saved, engine,
            supergates):
    """:func:`run_rapids`' polish stage on the run's engine and cache,
    resuming round payload *saved*; calls go through module attributes,
    which wrappers may replace."""
    from . import partition, wirelength

    shared = dict(
        max_passes=config.wl_passes,
        timing_engine=engine if config.wl_timing_aware else None,
        slack_margin=config.wl_slack_margin, checkpoint=manager,
        resume_data=saved, supergates=supergates,
    )
    if config.partition:
        result = partition.reduce_wirelength_partitioned(
            network, placement, max_gates=config.partition_max_gates,
            workers=config.workers, **shared,
        )
    else:
        result = wirelength.reduce_wirelength(
            network, placement, **shared,
        )
    if result.swaps_applied or result.cross_swaps_applied:
        # the polish rewired nets after the optimizer's last STA:
        # re-time so the reported delay describes the returned netlist
        # (area is untouched — these moves add no cells).  A timing-
        # aware polish already refolded every commit, so this refresh
        # only does work after a timing-blind one.
        engine.refresh()
        opt.final_delay = engine.max_delay
    return result
