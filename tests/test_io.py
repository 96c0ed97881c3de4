"""BLIF and .bench readers: round trips and SIS-style corners."""

from io import StringIO

import pytest

from repro.logic.simulate import truth_tables
from repro.network.bench_io import read_bench
from repro.network.blif import read_blif
from repro.network.netlist import NetworkError

from helpers import bench_text, blif_text, random_network


def test_blif_round_trip_random_networks():
    for seed in range(12):
        net = random_network(seed, num_gates=16)
        back = read_blif(StringIO(blif_text(net)))
        assert back.inputs == net.inputs
        tables_a = truth_tables(net)
        tables_b = truth_tables(back, support=list(net.inputs))
        for out_a, out_b in zip(net.outputs, back.outputs):
            assert tables_a[out_a] == tables_b[out_b], seed


def test_bench_round_trip_random_networks():
    for seed in range(12):
        net = random_network(seed, num_gates=16)
        back = read_bench(StringIO(bench_text(net)))
        tables_a = truth_tables(net)
        tables_b = truth_tables(back, support=list(net.inputs))
        for out_a, out_b in zip(net.outputs, back.outputs):
            assert tables_a[out_a] == tables_b[out_b], seed


def test_blif_sop_cover_synthesis():
    text = """
.model sop
.inputs a b c
.outputs f
.names a b c f
11- 1
--1 1
.end
"""
    net = read_blif(StringIO(text))
    tables = truth_tables(net)
    from repro.logic.simulate import variable_word

    a = variable_word(0, 3)
    b = variable_word(1, 3)
    c = variable_word(2, 3)
    assert tables[net.outputs[0]] == ((a & b) | c) & 0xFF


def test_blif_offset_cover():
    text = """
.model off
.inputs a b
.outputs f
.names a b f
10 0
01 0
.end
"""
    net = read_blif(StringIO(text))
    tables = truth_tables(net)
    from repro.logic.simulate import variable_word

    a = variable_word(0, 2)
    b = variable_word(1, 2)
    assert tables[net.outputs[0]] == (~(a ^ b)) & 0xF


def test_blif_constants():
    text = """
.model consts
.inputs a
.outputs one zero
.names one
1
.names zero
.end
"""
    net = read_blif(StringIO(text))
    tables = truth_tables(net)
    assert tables["one"] == 0b11
    assert tables["zero"] == 0


def test_blif_latch_becomes_pseudo_input():
    text = """
.model seq
.inputs a
.outputs f
.latch f q 0
.names a q f
11 1
.end
"""
    net = read_blif(StringIO(text))
    assert "q" in net.inputs


def test_blif_continuation_lines():
    text = ".model c\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n"
    net = read_blif(StringIO(text))
    assert net.inputs == ["a", "b"]


_HEADER = ".model m\n.inputs a b\n.outputs f\n"


@pytest.mark.parametrize("text, problem", [
    (_HEADER + "this is not blif\n.names a b f\n11 1\n",
     "line 4: 'this is not blif' is outside a .names cover"),
    (_HEADER + ".gate AND2 A=a B=b Y=f\n", "line 4: unsupported directive .gate"),
    (_HEADER + ".subckt and2 x=a y=b z=f\n",
     "line 4: unsupported directive .subckt"),
    (_HEADER + ".names\n", "line 4: .names declares no signals"),
    (_HEADER + ".latch f\n", "line 4: .latch needs an input and an output"),
    (_HEADER + ".names a b f\n1 1\n", "line 5: cube '1' has 1 literals"),
    (_HEADER + ".names a b f\n111 1\n", "line 5: cube '111' has 3 literals"),
    (_HEADER + ".names a b f\n1x 1\n", "line 5: cube '1x' holds a character"),
    (_HEADER + ".names a b f\n11 2\n", "line 5: output bit '2' is not 0 or 1"),
    (_HEADER + ".names a b f\n11\n", "line 5: expected an input pattern"),
    (_HEADER + ".names a b f\n11 1\n00 0\n",
     "line 6: cover mixes on-set and off-set rows"),
], ids=[
    "stray-line", "gate", "subckt", "empty-names", "short-latch",
    "short-cube", "long-cube", "bad-literal", "bad-output-bit",
    "no-output-bit", "mixed-cover",
])
def test_blif_rejects_garbage(text, problem):
    with pytest.raises(NetworkError) as error:
        read_blif(StringIO(text))
    assert str(error.value).startswith(problem)


def test_blif_error_names_the_first_line_of_a_continued_line():
    text = ".model m\n.inputs a \\\nb\n.outputs f\n.latch \\\nf\n"
    with pytest.raises(NetworkError, match="^line 5: .latch needs"):
        read_blif(StringIO(text))
    text = ".model m\n.gate AND2 \\\nA=a\n"
    with pytest.raises(NetworkError, match="^line 2: unsupported directive"):
        read_blif(StringIO(text))


def test_bench_dff_stripped():
    text = """
INPUT(a)
OUTPUT(f)
g = DFF(d)
d = AND(a, g)
f = NOT(d)
"""
    net = read_bench(StringIO(text))
    # DFF output becomes a pseudo input, its data input a pseudo output
    assert "g" in net.inputs
    assert "d" in net.outputs


def test_bench_rejects_garbage():
    with pytest.raises(NetworkError):
        read_bench(StringIO("f = FROB(a, b)\n"))
    with pytest.raises(NetworkError):
        read_bench(StringIO("this is not bench\n"))


def test_bench_undefined_output_rejected():
    with pytest.raises(NetworkError):
        read_bench(StringIO("INPUT(a)\nOUTPUT(f)\n"))


def test_bench_constant_expansion():
    from repro.network.builder import NetworkBuilder
    from repro.network.gatetype import GateType

    builder = NetworkBuilder("c")
    builder.input("a")
    one = builder.network.add_gate("one", GateType.CONST1).name
    builder.output(one)
    net = builder.build()
    back = read_bench(StringIO(bench_text(net)))
    tables = truth_tables(back, support=["a"])
    assert tables[back.outputs[0]] == 0b11
