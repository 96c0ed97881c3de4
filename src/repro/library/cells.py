"""Standard-cell library model.

The paper maps onto "a commercial 0.35um standard cell library
consisting of INV, BUF, NAND, NOR, XOR, and XNOR with number of inputs
ranging from 2 to 4.  Each type has 4 different implementations."  This
module models such a library parametrically: every cell has a logic
function, pin capacitance, area, and a load-dependent pin-to-pin delay
``d = intrinsic + R_drive * C_load`` with separate rise and fall
parameters.  Interconnect constants follow the paper: 2 pF/cm and
2.4 kOhm/cm.

Units: time ns, capacitance pF, resistance kOhm (so R*C is ns),
distance um, area um^2.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..network.gatetype import GateType

#: Paper Section 6: unit wire capacitance, 2 pF/cm = 2e-4 pF/um.
UNIT_WIRE_CAP_PER_UM = 2.0e-4
#: Paper Section 6: unit wire resistance, 2.4 kOhm/cm = 2.4e-4 kOhm/um.
UNIT_WIRE_RES_PER_UM = 2.4e-4
#: Standard-cell row height used by the placer (um).
ROW_HEIGHT_UM = 13.0


@dataclass(frozen=True)
class Cell:
    """One library cell (a function at one drive strength).

    ``rise``/``fall`` parameters describe the pin-to-pin delay of any
    input to the output: ``delay = intrinsic + resistance * load``.
    """

    name: str
    function: GateType
    arity: int
    size: int
    area: float
    input_cap: float
    rise_intrinsic: float
    rise_resistance: float
    fall_intrinsic: float
    fall_resistance: float

    @property
    def width(self) -> float:
        """Footprint width in a standard-cell row (um)."""
        return self.area / ROW_HEIGHT_UM

    def delay(self, load: float, transition: str) -> float:
        """Pin-to-pin delay (ns) driving *load* pF for "rise"/"fall"."""
        if transition == "rise":
            return self.rise_intrinsic + self.rise_resistance * load
        return self.fall_intrinsic + self.fall_resistance * load

    def worst_delay(self, load: float) -> float:
        """Worse of the rise/fall delays for *load*."""
        return max(self.delay(load, "rise"), self.delay(load, "fall"))


class Library:
    """A collection of cells indexed by name and by (function, arity)."""

    def __init__(self, name: str, cells: list[Cell]) -> None:
        self.name = name
        self.cells: dict[str, Cell] = {}
        self._by_signature: dict[tuple[GateType, int], list[Cell]] = {}
        for cell in cells:
            if cell.name in self.cells:
                raise ValueError(f"duplicate cell {cell.name!r}")
            self.cells[cell.name] = cell
            group = self._by_signature.setdefault(
                (cell.function, cell.arity), []
            )
            group.append(cell)
        for group in self._by_signature.values():
            group.sort(key=lambda cell: cell.size)

    def cell(self, name: str) -> Cell:
        """Look up a cell by name."""
        try:
            return self.cells[name]
        except KeyError:
            raise KeyError(f"no cell {name!r} in library {self.name}") from None

    def implementations(self, function: GateType, arity: int) -> list[Cell]:
        """All drive strengths of a function/arity, smallest first."""
        return list(self._by_signature.get((function, arity), []))

    def sizes_of(self, cell: Cell) -> list[Cell]:
        """Alternative implementations of the same function and arity."""
        return self.implementations(cell.function, cell.arity)

    def default_cell(self, function: GateType, arity: int) -> Cell:
        """The mid-strength implementation the mapper binds initially."""
        group = self.implementations(function, arity)
        if not group:
            raise KeyError(
                f"library {self.name} has no {function.name}{arity} cell"
            )
        return group[min(1, len(group) - 1)]

    def max_arity(self, function: GateType) -> int:
        """Largest arity available for *function* (0 when absent)."""
        return max(
            (ar for fn, ar in self._by_signature if fn is function),
            default=0,
        )


def _scaled(
    name: str,
    function: GateType,
    arity: int,
    base_area: float,
    base_cap: float,
    base_rise_int: float,
    base_rise_res: float,
    base_fall_int: float,
    base_fall_res: float,
) -> list[Cell]:
    """Build the four drive strengths (X1, X2, X4, X8) of one function.

    Doubling the drive roughly halves the output resistance, scales the
    input capacitance and area up (sub-linearly for area, as the
    diffusion is shared) and shaves a little intrinsic delay.
    """
    cells = []
    for size in (1, 2, 4, 8):
        scale = float(size)
        # transistor widths scale with drive: input capacitance grows
        # almost linearly (R * Cin roughly constant — logical effort),
        # area slightly sub-linearly (shared diffusion/wells)
        cells.append(
            Cell(
                name=f"{name}_X{size}",
                function=function,
                arity=arity,
                size=size,
                area=base_area * (0.35 + 0.65 * scale),
                input_cap=base_cap * (0.15 + 0.85 * scale),
                rise_intrinsic=base_rise_int * (1.0 - 0.04 * (size - 1)),
                rise_resistance=base_rise_res / scale,
                fall_intrinsic=base_fall_int * (1.0 - 0.04 * (size - 1)),
                fall_resistance=base_fall_res / scale,
            )
        )
    return cells


def default_library() -> Library:
    """The repository's stand-in for the paper's 0.35 um library.

    Same cell set as the paper (INV, BUF, NAND/NOR 2-4, XOR/XNOR 2),
    four implementations per type.  Numbers are representative of a
    0.35 um process: X1 inverter input cap of 8 fF, a few kOhm of drive
    resistance, intrinsic delays below 150 ps.
    """
    cells: list[Cell] = []
    cells += _scaled("INV", GateType.INV, 1, 90.0, 0.008,
                     0.045, 2.4, 0.040, 2.0)
    cells += _scaled("BUF", GateType.BUF, 1, 130.0, 0.009,
                     0.090, 2.2, 0.085, 1.9)
    cells += _scaled("NAND2", GateType.NAND, 2, 120.0, 0.010,
                     0.060, 3.0, 0.050, 2.3)
    cells += _scaled("NAND3", GateType.NAND, 3, 160.0, 0.011,
                     0.075, 3.5, 0.062, 2.7)
    cells += _scaled("NAND4", GateType.NAND, 4, 205.0, 0.012,
                     0.092, 4.1, 0.075, 3.2)
    cells += _scaled("NOR2", GateType.NOR, 2, 125.0, 0.010,
                     0.066, 3.3, 0.048, 2.2)
    cells += _scaled("NOR3", GateType.NOR, 3, 170.0, 0.012,
                     0.085, 4.0, 0.058, 2.5)
    cells += _scaled("NOR4", GateType.NOR, 4, 220.0, 0.013,
                     0.105, 4.7, 0.068, 2.9)
    cells += _scaled("XOR2", GateType.XOR, 2, 230.0, 0.014,
                     0.120, 3.8, 0.110, 3.3)
    cells += _scaled("XNOR2", GateType.XNOR, 2, 235.0, 0.014,
                     0.125, 3.9, 0.112, 3.4)
    return Library("repro035", cells)
