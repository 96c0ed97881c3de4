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
    UNIT_WIRE_CAP_PER_UM,
    UNIT_WIRE_RES_PER_UM,
    Library,
)
from ..network.netlist import Network, Pin
from ..place.placement import Placement

#: Default capacitive load of a primary-output pad (pF).
PO_PAD_CAP = 0.050


@dataclass(slots=True)
class StarSink:
    """One sink of a star net.

    ``pin`` is ``None`` for a primary-output pad sink.  ``wire_delay``
    is the Elmore delay from the driver's output pin to this sink,
    *excluding* the driver's own load-dependent gate delay.

    Star records are built for every net of every analysis, so they are
    slotted (no per-instance dict) and not frozen (a frozen dataclass
    sets each field through ``object.__setattr__``).  Treat them as
    immutable all the same: the engine shares them between its caches.
    """

    pin: Pin | None
    location: tuple[float, float]
    pin_cap: float
    wire_delay: float


@dataclass(slots=True)
class StarNet:
    """RC view of one placed net (immutable by convention, as
    :class:`StarSink`)."""

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
    override_sinks: list[tuple[Pin | None, tuple[float, float], float]]
    | None = None,
) -> StarNet:
    """Build the star RC model of *net*.

    ``override_sinks`` replaces the sink list for what-if evaluation
    (each entry: pin, location, pin capacitance) without mutating the
    network.  A segment of length ``l`` has resistance
    ``UNIT_WIRE_RES_PER_UM * l`` and capacitance
    ``UNIT_WIRE_CAP_PER_UM * l``; lengths are Manhattan distances, with
    the arithmetic written out inline.
    """
    source = placement.source_location(network, net)
    if override_sinks is None:
        locations = placement.locations
        gate = network.gate
        cell = library.cell
        sink_specs: list[tuple[Pin | None, tuple[float, float], float]] = []
        for pin in network.fanout(net):
            name = gate(pin.gate).cell
            sink_specs.append((
                pin,
                locations[pin.gate],
                0.0 if name is None else cell(name).input_cap,
            ))
        for index in network.output_slots(net):
            sink_specs.append(
                (None, placement.output_pads[index], PO_PAD_CAP)
            )
    else:
        sink_specs = override_sinks
    if not sink_specs:
        return StarNet(net, source, source, 0.0, ())
    points = [source] + [spec[1] for spec in sink_specs]
    center_x = sum([p[0] for p in points]) / len(points)
    center_y = sum([p[1] for p in points]) / len(points)
    source_len = abs(source[0] - center_x) + abs(source[1] - center_y)
    r_source = UNIT_WIRE_RES_PER_UM * source_len
    c_source = UNIT_WIRE_CAP_PER_UM * source_len
    sink_lens = [
        abs(center_x - spec[1][0]) + abs(center_y - spec[1][1])
        for spec in sink_specs
    ]
    c_segments = [UNIT_WIRE_CAP_PER_UM * length for length in sink_lens]
    downstream_cap = sum(c_segments) + sum([spec[2] for spec in sink_specs])
    # Elmore: R_source sees its own cap (at center) + everything
    # downstream; each R_seg sees its segment cap + the sink pin
    head = r_source * (c_source + downstream_cap)
    return StarNet(
        net,
        source,
        (center_x, center_y),
        c_source + downstream_cap,
        tuple([
            StarSink(
                pin, location, cap,
                head + UNIT_WIRE_RES_PER_UM * length * (c_seg + cap),
            )
            for (pin, location, cap), length, c_seg
            in zip(sink_specs, sink_lens, c_segments)
        ]),
    )
