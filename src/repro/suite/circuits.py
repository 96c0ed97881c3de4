"""Benchmark circuit generators.

The paper evaluates on MCNC'91 and ISCAS'85/'89 netlists, which are not
redistributable here; each benchmark is therefore replaced by a
deterministic generator of the same *documented function and flavour*:
ALUs (alu2/alu4, c3540), single-error-correcting XOR circuits
(c499/c1355, c1908), a priority/interrupt controller (c432), an array
multiplier (c6288), bus/ALU interfaces (c2670, c5315, c7552), PLA-style
two-level control logic (k2, i8, x3) and scan-stripped random control
logic (i10, s5378 ... s38417).  What the rewiring study actually
depends on — gate-type mix, XOR content, reconvergent fanout, supergate
width distribution and depth — is reproduced per family; DESIGN.md
documents the substitution.

All generators build *generic* networks (AND/OR/XOR/INV of any arity);
``repro.synth.map_network`` turns them into library netlists.
"""

from __future__ import annotations

import random

from ..network.builder import NetworkBuilder
from ..network.gatetype import GateType
from ..network.netlist import Network

#: Chance that a random-control gate's extra fanin is any earlier net
#: rather than one sampled from a lower level (reconvergence).
_CONTROL_REUSE = 0.45
#: :func:`tiled_control`'s fixed tile shape: signals each tile borrows
#: from the previous one, XOR share, depth bound and fanin reuse.
_STITCH_WIDTH = 6
_TILE_XOR_FRACTION = 0.06
_TILE_MAX_DEPTH = 24
_TILE_REUSE = 0.4


def slotted_tree(
    builder: NetworkBuilder,
    gtype: GateType,
    slots: list[str | None],
    memo: dict,
    lo: int = 0,
    hi: int | None = None,
) -> str | None:
    """Bisection tree over a fixed slot space with subset memoization.

    ``slots[k]`` is the operand occupying slot ``k`` (``None`` =
    absent).  The tree always splits at the midpoint of the *slot
    range*, so two trees whose operands agree on a whole half share
    that half's product through a single multi-fanout node — the way
    real decoder/PLA logic shares aligned sub-products.  This is the
    main source of the realistic (paper-level) supergate coverage of
    the generated benchmarks.
    """
    if hi is None:
        hi = len(slots)
    present = tuple(
        (index, slots[index])
        for index in range(lo, hi)
        if slots[index] is not None
    )
    if not present:
        return None
    if len(present) == 1:
        return present[0][1]
    key = (gtype, lo, hi, present)
    cached = memo.get(key)
    if cached is not None:
        return cached
    mid = (lo + hi) // 2
    left = slotted_tree(builder, gtype, slots, memo, lo, mid)
    right = slotted_tree(builder, gtype, slots, memo, mid, hi)
    if left is None:
        result = right
    elif right is None:
        result = left
    else:
        pair_key = (gtype, *sorted((left, right)))
        result = memo.get(pair_key)
        if result is None:
            result = builder.gate(gtype, left, right)
            memo[pair_key] = result
    memo[key] = result
    return result


# ----------------------------------------------------------------------
# arithmetic building blocks
# ----------------------------------------------------------------------
def ripple_adder(
    builder: NetworkBuilder, a: list[str], b: list[str], carry_in: str
) -> tuple[list[str], str]:
    """Ripple-carry adder; returns (sum bits, carry out)."""
    sums: list[str] = []
    carry = carry_in
    for bit_a, bit_b in zip(a, b):
        total, carry = builder.full_adder(bit_a, bit_b, carry)
        sums.append(total)
    return sums, carry


def alu(bits: int = 8, name: str = "alu") -> Network:
    """A small ALU: add/sub, AND/OR/XOR, result mux, zero/carry flags.

    Stands in for MCNC ``alu2``/``alu4`` (and contributes to the cXXXX
    interfaces).  Like real ALU netlists, the propagate (``a XOR b``)
    and generate (``a AND b``) terms are *shared* between the carry
    chain, the sum and the logic unit — this reconvergent sharing is
    what keeps supergate coverage at realistic levels.
    """
    builder = NetworkBuilder(name)
    a = [builder.input(f"a{i}") for i in range(bits)]
    b = [builder.input(f"b{i}") for i in range(bits)]
    op0 = builder.input("op0")
    op1 = builder.input("op1")
    sub = builder.input("sub")
    b_eff = [builder.xor(bit, sub) for bit in b]
    carry = sub
    sums: list[str] = []
    for index in range(bits):
        propagate = builder.xor(a[index], b_eff[index])   # shared P
        generate = builder.and_(a[index], b_eff[index])   # shared G
        total = builder.xor(propagate, carry)
        carry = builder.or_(generate, builder.and_(propagate, carry))
        sums.append(total)
        or_bit = builder.or_(a[index], b[index])
        logic = builder.mux(op0, generate, or_bit)
        arith = builder.mux(op0, total, propagate)
        builder.output(builder.mux(op1, arith, logic, name=f"y{index}"))
    zero = builder.tree(GateType.NOR, sums, fanin_limit=4, name="zflag")
    builder.output(zero)
    builder.output(builder.buf(carry, name="cflag"))
    return builder.build()


def multiplier(bits: int = 8, name: str = "mult") -> Network:
    """Array multiplier (the c6288 structure: a grid of adders).

    c6288 is famous for being almost entirely reconvergent XOR/AND
    logic; its supergates are tiny (the paper reports L=3), which this
    grid reproduces.
    """
    builder = NetworkBuilder(name)
    a = [builder.input(f"a{i}") for i in range(bits)]
    b = [builder.input(f"b{i}") for i in range(bits)]
    # partial products bucketed by weight (column)
    columns: list[list[str]] = [[] for _ in range(2 * bits)]
    for i in range(bits):
        for j in range(bits):
            columns[i + j].append(builder.and_(a[i], b[j]))
    # carry-save compression: full adders reduce every column to <= 2
    changed = True
    while changed:
        changed = False
        for weight in range(2 * bits - 1):
            while len(columns[weight]) >= 3:
                x, y, z = (columns[weight].pop() for _ in range(3))
                total, carry = builder.full_adder(x, y, z)
                columns[weight].append(total)
                columns[weight + 1].append(carry)
                changed = True
    # final carry-propagate (ripple) adder over the two remaining rows
    outputs: list[str] = []
    carry: str | None = None
    for weight in range(2 * bits):
        bits_here = list(columns[weight])
        if carry is not None:
            bits_here.append(carry)
        carry = None
        if not bits_here:
            break
        if len(bits_here) == 1:
            total = bits_here[0]
        elif len(bits_here) == 2:
            total, carry = builder.half_adder(*bits_here)
        else:
            total, carry = builder.full_adder(*bits_here)
        outputs.append(total)
    if carry is not None:
        outputs.append(carry)
    for index, net in enumerate(outputs):
        builder.output(builder.buf(net, name=f"p{index}"))
    return builder.build()


# ----------------------------------------------------------------------
# error-correcting circuits (c499 / c1355 / c1908 family)
# ----------------------------------------------------------------------
def sec_circuit(
    data_bits: int = 32,
    syndrome_bits: int = 8,
    expanded: bool = False,
    name: str = "sec",
) -> Network:
    """Single-error-correcting circuit: syndrome XOR trees + correction.

    ``expanded`` mimics c1355, where every XOR is expanded into four
    NANDs before mapping (identical function, different structure — the
    paper reports identical supergate statistics for both, L=3).
    """
    builder = NetworkBuilder(name)
    rng = random.Random(data_bits * 1000 + syndrome_bits)
    data = [builder.input(f"d{i}") for i in range(data_bits)]
    checks = [builder.input(f"c{i}") for i in range(syndrome_bits)]

    def xor2(x: str, y: str) -> str:
        if not expanded:
            return builder.xor(x, y)
        n1 = builder.nand(x, y)
        n2 = builder.nand(x, n1)
        n3 = builder.nand(y, n1)
        return builder.nand(n2, n3)

    def balanced_xor(nets: list[str]) -> str:
        level = list(nets)
        while len(level) > 1:
            paired = [
                xor2(level[i], level[i + 1])
                for i in range(0, len(level) - 1, 2)
            ]
            if len(level) % 2:
                paired.append(level[-1])
            level = paired
        return level[0]

    # Stage 1: chunk parities, shared by every syndrome that needs them
    # (the real c499 computes byte-wise parities once and reuses them;
    # this sharing is why the paper reports tiny L=3 supergates here).
    chunk_size = 4
    chunk_parity: list[str] = []
    for start in range(0, data_bits, chunk_size):
        chunk = data[start:start + chunk_size]
        chunk_parity.append(balanced_xor(chunk))
    num_chunks = len(chunk_parity)

    # Stage 2: each syndrome XORs a subset of chunk parities + its check
    syndromes: list[str] = []
    groups: list[list[int]] = []
    for s in range(syndrome_bits):
        chunk_members = sorted(
            k for k in range(num_chunks)
            if (k >> (s % 4)) & 1 or rng.random() < 0.3
        )
        if not chunk_members:
            chunk_members = [s % num_chunks]
        members = sorted(
            i
            for k in chunk_members
            for i in range(k * chunk_size,
                           min((k + 1) * chunk_size, data_bits))
        )
        groups.append(members)
        body = balanced_xor([chunk_parity[k] for k in chunk_members])
        syndromes.append(xor2(body, checks[s]))
    for index, syndrome in enumerate(syndromes):
        builder.output(builder.buf(syndrome, name=f"s{index}"))
    # correction: data XOR (AND of matching syndrome pattern); memoized
    # decode trees let bits with similar patterns share decode levels
    inverted_syndromes = [builder.inv(s) for s in syndromes]
    decode_memo: dict = {}
    for i in range(data_bits):
        pattern = []
        for s, members in enumerate(groups):
            if i in members:
                pattern.append(syndromes[s])
            else:
                pattern.append(inverted_syndromes[s])
        hit = slotted_tree(builder, GateType.AND, pattern, decode_memo)
        builder.output(xor2(data[i], hit))
    return builder.build()


# ----------------------------------------------------------------------
# priority / interrupt controller (c432 family)
# ----------------------------------------------------------------------
def interrupt_controller(
    channels: int = 9, buses: int = 3, name: str = "intctl"
) -> Network:
    """Priority interrupt controller in the style of ISCAS c432.

    *buses* request groups of *channels* lines each; a priority chain
    (deep and-or cones) grants the highest-priority active line.
    """
    builder = NetworkBuilder(name)
    requests = [
        [builder.input(f"r{b}_{c}") for c in range(channels)]
        for b in range(buses)
    ]
    enables = [builder.input(f"e{b}") for b in range(buses)]
    masked = [
        [builder.and_(requests[b][c], enables[b]) for c in range(channels)]
        for b in range(buses)
    ]
    # bus priority: bus b wins if any line active and no lower bus active
    any_active = [
        builder.tree(GateType.OR, masked[b], fanin_limit=4)
        for b in range(buses)
    ]
    grant_bus: list[str] = []
    for b in range(buses):
        higher = [builder.inv(any_active[j]) for j in range(b)]
        grant_bus.append(
            builder.tree(GateType.AND, higher + [any_active[b]],
                         fanin_limit=4)
        )
        builder.output(builder.buf(grant_bus[b], name=f"gb{b}"))
    # channel priority within the winning bus; the blocker sets of
    # channel c are a subset of channel c+1's, so memoized trees share
    # them across channels (multi-fanout, like the real c432)
    inv_masked = [
        [builder.inv(masked[b][c]) for c in range(channels)]
        for b in range(buses)
    ]
    memo: dict = {}
    for c in range(channels):
        per_bus = []
        for b in range(buses):
            slots: list = [None] * (channels + 2)
            for j in range(c):
                slots[j] = inv_masked[b][j]
            slots[channels] = masked[b][c]
            slots[channels + 1] = grant_bus[b]
            term = slotted_tree(builder, GateType.AND, slots, memo)
            per_bus.append(term)
        builder.output(
            builder.tree(GateType.OR, per_bus, fanin_limit=4,
                         name=f"gc{c}")
        )
    return builder.build()


# ----------------------------------------------------------------------
# PLA-style control logic (k2 / i8 / x3 family)
# ----------------------------------------------------------------------
def pla_control(
    num_inputs: int = 32,
    num_terms: int = 96,
    num_outputs: int = 24,
    term_width: int = 8,
    seed: int = 7,
    name: str = "pla",
) -> Network:
    """Two-level PLA-like control logic.

    Wide AND product terms feeding wide ORs create the very large
    implication supergates of MCNC ``k2`` (the paper's L = 43 record).
    """
    builder = NetworkBuilder(name)
    rng = random.Random(seed)
    inputs = [builder.input(f"x{i}") for i in range(num_inputs)]
    literal_cache: dict[tuple[int, bool], str] = {}

    def literal(index: int, positive: bool) -> str:
        key = (index, positive)
        if key not in literal_cache:
            literal_cache[key] = (
                inputs[index] if positive else builder.inv(inputs[index])
            )
        return literal_cache[key]

    memo: dict = {}
    terms: list[str] = []
    for _ in range(num_terms):
        width = rng.randint(max(2, term_width - 3), term_width + 3)
        chosen = sorted(rng.sample(range(num_inputs), min(width, num_inputs)))
        # polarity keyed by input index so overlapping terms reuse the
        # same literals; slot-aligned trees then share their product
        # sub-terms — the multi-level sharing SIS extracts from PLAs
        slots: list = [None] * num_inputs
        for i in chosen:
            slots[i] = literal(i, (i * 2654435761) % 3 != 0)
        terms.append(slotted_tree(builder, GateType.AND, slots, memo))
    for out_index in range(num_outputs):
        count = rng.randint(3, max(4, num_terms // 6))
        chosen = set(rng.sample(terms, min(count, len(terms))))
        slots = [term if term in chosen else None for term in terms]
        builder.output(
            builder.buf(
                slotted_tree(builder, GateType.OR, slots, memo),
                name=f"f{out_index}",
            )
        )
    return builder.build()


# ----------------------------------------------------------------------
# random multilevel control logic (i10 and the s-series, scan-stripped)
# ----------------------------------------------------------------------
def random_control(
    num_inputs: int = 64,
    num_gates: int = 600,
    num_outputs: int = 48,
    seed: int = 11,
    xor_fraction: float = 0.08,
    max_depth: int = 30,
    name: str = "ctl",
) -> Network:
    """Random multilevel control logic with ISCAS-like fanout.

    Used for i10 and the scan-stripped ISCAS'89 circuits, whose
    combinational bodies are irregular control logic between flip-flop
    boundaries (the flip-flops themselves become pseudo PIs/POs, which
    is why these benchmarks have hundreds of each).
    """
    builder = NetworkBuilder(name)
    rng = random.Random(seed)
    nets = [builder.input(f"x{i}") for i in range(num_inputs)]
    level_of = {net: 0 for net in nets}
    by_level: list[list[str]] = [list(nets)]
    weights = (
        [GateType.NAND] * 24 + [GateType.NOR] * 18 + [GateType.AND] * 16
        + [GateType.OR] * 16 + [GateType.INV] * 12
        + [GateType.XOR] * max(1, int(100 * xor_fraction))
        + [GateType.XNOR] * max(1, int(50 * xor_fraction))
    )
    for _ in range(num_gates):
        gtype = rng.choice(weights)
        if gtype in (GateType.INV, GateType.BUF):
            arity = 1
        else:
            arity = rng.choice((2, 2, 2, 3, 3, 4))
        # level-bounded growth: one fanin near the target level keeps
        # cones connected; the rest sample lower levels (reconvergence)
        target = rng.randint(1, max_depth)
        top = min(target - 1, len(by_level) - 1)
        fanins: list[str] = []
        anchor_pool = by_level[top]
        fanins.append(rng.choice(anchor_pool))
        while len(fanins) < arity:
            if rng.random() < _CONTROL_REUSE:
                candidate = rng.choice(nets)
            else:
                lvl = rng.randint(0, top)
                candidate = rng.choice(by_level[lvl])
            if level_of[candidate] > top or candidate in fanins:
                continue
            fanins.append(candidate)
        new_net = builder.gate(gtype, *fanins)
        nets.append(new_net)
        level = 1 + max(level_of[f] for f in fanins)
        level_of[new_net] = level
        while len(by_level) <= level:
            by_level.append([])
        by_level[level].append(new_net)
    internal = nets[num_inputs:]
    sinks = rng.sample(internal, min(num_outputs, len(internal)))
    for index, net in enumerate(sinks):
        builder.output(net)
    return builder.build()


def tiled_control(
    tiles: int = 8,
    gates_per_tile: int = 400,
    inputs_per_tile: int = 24,
    outputs_per_tile: int = 8,
    seed: int = 17,
    name: str = "tiled",
) -> Network:
    """Tile-composed control logic for the 1e5-1e6 gate workloads.

    Real million-gate designs are not one amorphous cloud but many
    moderately coupled blocks; this generator composes *tiles* blocks
    of :func:`random_control`-style logic, each borrowing
    six exported signals from the previous tile as extra leaf
    inputs.  The sparse tile-to-tile stitching gives the FM
    carve (``repro.place.regions``) natural min-cut seams, and tiles
    are emitted in sequence so insertion-order placements (the grid
    scaffolding benchmarks use) keep them spatially coherent — the
    structure partitioned rewiring is designed to exploit.  Total
    gate count is ``tiles * gates_per_tile``.

    Every sink net (no fanout inside its tile, not stitched onward)
    becomes a primary output — the flop-boundary convention of the
    scan-mapped ISCAS sequential benchmarks — so the whole gate count
    stays live through the mapper's dead-logic sweep; *outputs_per_tile*
    only adds observation points on *internal* nets on top of that.
    """
    builder = NetworkBuilder(name)
    rng = random.Random(seed)
    weights = (
        [GateType.NAND] * 24 + [GateType.NOR] * 18 + [GateType.AND] * 16
        + [GateType.OR] * 16 + [GateType.INV] * 12
        + [GateType.XOR] * max(1, int(100 * _TILE_XOR_FRACTION))
        + [GateType.XNOR] * max(1, int(50 * _TILE_XOR_FRACTION))
    )
    exports: list[str] = []
    for tile in range(tiles):
        pis = [
            builder.input(f"t{tile}x{i}") for i in range(inputs_per_tile)
        ]
        borrowed = exports[:_STITCH_WIDTH]
        nets = pis + borrowed
        level_of = {net: 0 for net in nets}
        by_level: list[list[str]] = [list(nets)]
        used: set[str] = set()
        for _ in range(gates_per_tile):
            gtype = rng.choice(weights)
            if gtype in (GateType.INV, GateType.BUF):
                arity = 1
            else:
                arity = rng.choice((2, 2, 2, 3, 3, 4))
            target = rng.randint(1, _TILE_MAX_DEPTH)
            top = min(target - 1, len(by_level) - 1)
            fanins: list[str] = []
            fanins.append(rng.choice(by_level[top]))
            while len(fanins) < arity:
                if rng.random() < _TILE_REUSE:
                    candidate = rng.choice(nets)
                else:
                    lvl = rng.randint(0, top)
                    candidate = rng.choice(by_level[lvl])
                if level_of[candidate] > top or candidate in fanins:
                    continue
                fanins.append(candidate)
            new_net = builder.gate(gtype, *fanins)
            used.update(fanins)
            nets.append(new_net)
            level = 1 + max(level_of[f] for f in fanins)
            level_of[new_net] = level
            while len(by_level) <= level:
                by_level.append([])
            by_level[level].append(new_net)
        internal = nets[len(pis) + len(borrowed):]
        if internal:
            for net in rng.sample(
                internal, min(outputs_per_tile, len(internal))
            ):
                builder.output(net)
                used.add(net)
            exports = rng.sample(
                internal, min(_STITCH_WIDTH, len(internal))
            )
            used.update(exports)
            for net in internal:
                if net not in used:
                    builder.output(net)
    return builder.build()


def bus_interface(
    width: int = 16,
    control_gates: int = 300,
    seed: int = 5,
    name: str = "busif",
) -> Network:
    """ALU + comparator + parity + random control (c2670/c5315/c7552).

    The big ISCAS'85 interfaces mix datapath slices with irregular
    control; this generator stitches an ALU, an equality comparator, a
    parity tree and a random-control block sharing the same operand
    wires.
    """
    builder = NetworkBuilder(name)
    rng = random.Random(seed)
    a = [builder.input(f"a{i}") for i in range(width)]
    b = [builder.input(f"b{i}") for i in range(width)]
    ctl = [builder.input(f"k{i}") for i in range(max(6, width // 2))]
    # adder slice
    sums, carry = ripple_adder(builder, a, b, ctl[0])
    for index, net in enumerate(sums):
        builder.output(builder.buf(net, name=f"sum{index}"))
    builder.output(builder.buf(carry, name="cout"))
    # comparator
    eq_bits = [builder.xnor(x, y) for x, y in zip(a, b)]
    builder.output(
        builder.tree(GateType.AND, eq_bits, fanin_limit=4, name="eq")
    )
    # parity
    builder.output(
        builder.tree(GateType.XOR, a + ctl, fanin_limit=2, name="par")
    )
    # control cloud over everything
    nets = a + b + ctl + sums + eq_bits
    pool = list(nets)
    weights = (
        [GateType.NAND] * 5 + [GateType.NOR] * 4 + [GateType.AND] * 3
        + [GateType.OR] * 3 + [GateType.INV] * 2 + [GateType.XOR]
    )
    created: list[str] = []
    for _ in range(control_gates):
        gtype = rng.choice(weights)
        arity = 1 if gtype is GateType.INV else rng.choice((2, 2, 3, 4))
        fanins: list[str] = []
        while len(fanins) < arity:
            source = pool if rng.random() < 0.4 else pool[-40:]
            candidate = rng.choice(source)
            if candidate not in fanins:
                fanins.append(candidate)
        net = builder.gate(gtype, *fanins)
        pool.append(net)
        created.append(net)
    for index, net in enumerate(rng.sample(created, min(width, len(created)))):
        builder.output(net)
    return builder.build()
