"""Standard-cell library: structure, delay model, scaling laws."""

import pytest

from repro.library.cells import (
    Library,
    UNIT_WIRE_CAP_PER_UM,
    UNIT_WIRE_RES_PER_UM,
    default_library,
)
from repro.network.gatetype import GateType


def test_paper_cell_set_present(library):
    # INV, BUF, NAND, NOR, XOR, XNOR with 2..4 inputs, 4 sizes each
    assert len(library.implementations(GateType.INV, 1)) == 4
    assert len(library.implementations(GateType.BUF, 1)) == 4
    for arity in (2, 3, 4):
        assert len(library.implementations(GateType.NAND, arity)) == 4
        assert len(library.implementations(GateType.NOR, arity)) == 4
    assert len(library.implementations(GateType.XOR, 2)) == 4
    assert len(library.implementations(GateType.XNOR, 2)) == 4


def test_paper_wire_constants():
    # Section 6: 2 pF/cm and 2.4 kOhm/cm
    assert UNIT_WIRE_CAP_PER_UM == pytest.approx(2.0e-4)
    assert UNIT_WIRE_RES_PER_UM == pytest.approx(2.4e-4)
    assert UNIT_WIRE_CAP_PER_UM * 10_000 == pytest.approx(2.0)   # 1 cm
    assert UNIT_WIRE_RES_PER_UM * 10_000 == pytest.approx(2.4)


def _signatures(library):
    """Every (function, arity) the library implements."""
    return {(cell.function, cell.arity) for cell in library.cells.values()}


def test_sizes_sorted_and_scaling_monotone(library):
    for function, arity in _signatures(library):
        cells = library.implementations(function, arity)
        sizes = [cell.size for cell in cells]
        assert sizes == sorted(sizes)
        for small, big in zip(cells, cells[1:]):
            assert big.rise_resistance < small.rise_resistance
            assert big.fall_resistance < small.fall_resistance
            assert big.input_cap > small.input_cap
            assert big.area > small.area


def test_logical_effort_roughly_constant(library):
    """R * Cin should not collapse with size (upsizing is not free)."""
    for function, arity in _signatures(library):
        cells = library.implementations(function, arity)
        efforts = [
            cell.rise_resistance * cell.input_cap for cell in cells
        ]
        assert max(efforts) / min(efforts) < 2.5


def test_delay_model_load_dependence(library):
    cell = library.cell("NAND2_X2")
    assert cell.delay(0.1, "rise") > cell.delay(0.01, "rise")
    assert cell.delay(0.1, "rise") == pytest.approx(
        cell.rise_intrinsic + cell.rise_resistance * 0.1
    )
    assert cell.worst_delay(0.1) == max(
        cell.delay(0.1, "rise"), cell.delay(0.1, "fall")
    )


def test_cell_lookup_and_errors(library):
    assert library.cell("INV_X1").function is GateType.INV
    with pytest.raises(KeyError):
        library.cell("FROB_X9")
    with pytest.raises(KeyError):
        library.default_cell(GateType.XOR, 4)
    assert library.implementations(GateType.XOR, 4) == []
    assert library.implementations(GateType.NAND, 3)
    assert library.implementations(GateType.NAND, 5) == []


def test_max_arity(library):
    assert library.max_arity(GateType.NAND) == 4
    assert library.max_arity(GateType.XOR) == 2
    assert library.max_arity(GateType.AND) == 0


def test_sizes_of(library):
    cell = library.cell("NOR3_X2")
    siblings = library.sizes_of(cell)
    assert cell in siblings and len(siblings) == 4


def test_width_positive(library):
    for cell in library.cells.values():
        assert cell.width > 0


def test_duplicate_cells_rejected():
    cell = default_library().cell("INV_X1")
    with pytest.raises(ValueError):
        Library("dup", [cell, cell])
