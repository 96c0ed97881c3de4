"""Star interconnect model with Elmore delay (Riess-Ettl, paper [4]).

Each net is modeled as a star: the center sits at the center of gravity
of all terminals, the net splits into a source->center segment and one
center->sink segment per sink.  Every segment is a lumped RC (its
resistance in series, its capacitance at the far node) using the
paper's unit values of 2 pF/cm and 2.4 kOhm/cm; Elmore delay then gives
a per-sink wire delay, so "each sink may have different delay from the
source" exactly as Section 6 describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..library.cells import (
    Library,
    wire_capacitance,
    wire_resistance,
)
from ..network.netlist import Network, Pin
from ..place.placement import Placement, manhattan

#: Default capacitive load of a primary-output pad (pF).
PO_PAD_CAP = 0.050


@dataclass(frozen=True)
class StarSink:
    """One sink of a star net.

    ``pin`` is ``None`` for a primary-output pad sink.  ``wire_delay``
    is the Elmore delay from the driver's output pin to this sink,
    *excluding* the driver's own load-dependent gate delay.
    """

    pin: Pin | None
    location: tuple[float, float]
    pin_cap: float
    wire_delay: float


@dataclass(frozen=True)
class StarNet:
    """RC view of one placed net."""

    net: str
    source: tuple[float, float]
    center: tuple[float, float]
    total_cap: float            # what the driver sees (wire + all pins)
    sinks: tuple[StarSink, ...]

    def sink_delay(self, pin: Pin | None) -> float:
        """Wire delay to the sink at *pin* (``None`` = first PO pad)."""
        for sink in self.sinks:
            if sink.pin == pin:
                return sink.wire_delay
        raise KeyError(f"net {self.net} has no sink {pin}")


def pin_capacitance(network: Network, library: Library, pin: Pin) -> float:
    """Input capacitance of the cell pin (0 for unmapped gates)."""
    gate = network.gate(pin.gate)
    if gate.cell is None:
        return 0.0
    return library.cell(gate.cell).input_cap


def build_star(
    network: Network,
    placement: Placement,
    library: Library,
    net: str,
    po_pad_cap: float = PO_PAD_CAP,
    override_sinks: list[tuple[Pin | None, tuple[float, float], float]]
    | None = None,
) -> StarNet:
    """Build the star RC model of *net*.

    ``override_sinks`` replaces the sink list for what-if evaluation
    (each entry: pin, location, pin capacitance) without mutating the
    network.
    """
    source = placement.source_location(network, net)
    if override_sinks is None:
        sink_specs: list[tuple[Pin | None, tuple[float, float], float]] = []
        for pin in network.fanout(net):
            sink_specs.append(
                (
                    pin,
                    placement.locations[pin.gate],
                    pin_capacitance(network, library, pin),
                )
            )
        for index in network.output_slots(net):
            sink_specs.append(
                (None, placement.output_pads[index], po_pad_cap)
            )
    else:
        sink_specs = override_sinks
    if not sink_specs:
        return StarNet(
            net=net, source=source, center=source, total_cap=0.0, sinks=(),
        )
    points = [source] + [spec[1] for spec in sink_specs]
    center = (
        sum(p[0] for p in points) / len(points),
        sum(p[1] for p in points) / len(points),
    )
    source_len = manhattan(source, center)
    r_source = wire_resistance(source_len)
    c_source = wire_capacitance(source_len)
    sink_lens = [manhattan(center, spec[1]) for spec in sink_specs]
    c_segments = [wire_capacitance(length) for length in sink_lens]
    downstream_cap = sum(c_segments) + sum(spec[2] for spec in sink_specs)
    total_cap = c_source + downstream_cap
    sinks = []
    for spec, length, c_seg in zip(sink_specs, sink_lens, c_segments):
        pin, location, cap = spec
        r_seg = wire_resistance(length)
        # Elmore: R_source sees its own cap (at center) + everything
        # downstream; R_seg sees its segment cap + the sink pin.
        delay = r_source * (c_source + downstream_cap) + r_seg * (
            c_seg + cap
        )
        sinks.append(
            StarSink(
                pin=pin, location=location, pin_cap=cap, wire_delay=delay,
            )
        )
    return StarNet(
        net=net,
        source=source,
        center=center,
        total_cap=total_cap,
        sinks=tuple(sinks),
    )
