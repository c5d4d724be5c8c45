#!/usr/bin/env python3
"""Regenerates the derived members of the ingestion corpus.

c17.bench is the genuine ISCAS85 c17 and is committed as-is; every other
file here is a re-derivation of a classic arithmetic block, written by
this script so the corpus is reproducible and its function is known
exactly (the tests simulate the parsed netlists against the arithmetic
the generator claims to implement):

  cla16.bench    16-bit carry-lookahead adder, 4-bit blocks (74182 style)
  mul8.bench     8x8 ripple-carry array multiplier (2-input gates only)
  alu8.bench     8-bit ALU with flags, the c880-class member

  counter8.blif  8-bit enabled binary counter with terminal count
  par32.aag      32-input parity tree, ASCII AIGER
  mul6.aig       6x6 array multiplier, binary AIGER
  mul6.aag       the same multiplier, ASCII AIGER (its twin, so the tests
                 can check that both readers load one design)

Run from anywhere: files land next to the script. Byte-stable across
runs (no timestamps, fixed iteration order).
"""

import os
import struct

HERE = os.path.dirname(os.path.abspath(__file__))


def write(name, data):
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(os.path.join(HERE, name), mode) as f:
        f.write(data)
    print(f"wrote {name}")


# ---------------------------------------------------------------- .bench ---

class Bench:
    def __init__(self, title):
        self.lines = [f"# {title}", "# generated by generate_corpus.py"]
        self.n = 0

    def inp(self, name):
        self.lines.append(f"INPUT({name})")

    def out(self, name):
        self.lines.append(f"OUTPUT({name})")

    def gate(self, kind, ins, name=None):
        if name is None:
            self.n += 1
            name = f"n{self.n}"
        self.lines.append(f"{name} = {kind}({', '.join(ins)})")
        return name

    def text(self):
        return "\n".join(self.lines) + "\n"


def gen_cla16():
    b = Bench("cla16 -- 16-bit carry-lookahead adder, 4-bit lookahead blocks")
    for i in range(16):
        b.inp(f"a{i}")
    for i in range(16):
        b.inp(f"b{i}")
    b.inp("cin")
    for i in range(16):
        b.out(f"s{i}")
    b.out("cout")
    carry = "cin"
    for blk in range(4):
        p, g = [], []
        for k in range(4):
            i = 4 * blk + k
            p.append(b.gate("XOR", [f"a{i}", f"b{i}"], f"p{i}"))
            g.append(b.gate("AND", [f"a{i}", f"b{i}"], f"g{i}"))
        # Sum bits use the block-internal lookahead carries.
        c = [carry]
        for k in range(1, 5):
            # c_k = g_{k-1} | p_{k-1}g_{k-2} | ... | p_{k-1}..p_0 c_0
            terms = [g[k - 1]]
            for j in range(k - 1):
                terms.append(b.gate("AND", p[j + 1:k] + [g[j]]))
            terms.append(b.gate("AND", p[0:k] + [carry]))
            c.append(b.gate("OR", terms, f"c{4 * blk + k}"))
        for k in range(4):
            i = 4 * blk + k
            b.gate("XOR", [p[k], c[k]], f"s{i}")
        carry = c[4]
    b.gate("BUF", [carry], "cout")
    return b.text()


def gen_mul8():
    b = Bench("mul8 -- 8x8 ripple-carry array multiplier")
    W = 8
    for i in range(W):
        b.inp(f"a{i}")
    for i in range(W):
        b.inp(f"b{i}")
    for i in range(2 * W):
        b.out(f"m{i}")

    def ha(x, y):
        return b.gate("XOR", [x, y]), b.gate("AND", [x, y])

    def fa(x, y, z):
        t = b.gate("XOR", [x, y])
        s = b.gate("XOR", [t, z])
        u = b.gate("AND", [t, z])
        v = b.gate("AND", [x, y])
        return s, b.gate("OR", [u, v])

    # Row r contributes pp[r][i] at weight r+i; a ripple row of HA/FA folds
    # it into the running sum, bit r of which is final after row r.
    pp = [[b.gate("AND", [f"a{i}", f"b{j}"], f"pp{i}_{j}")
           for i in range(W)] for j in range(W)]
    acc = list(pp[0])
    b.gate("BUF", [acc[0]], "m0")
    acc = acc[1:]
    for row in range(1, W):
        nxt, carry = [], None
        for i in range(W):
            x = acc[i] if i < len(acc) else None
            y = pp[row][i]
            if x is None:
                s, carry = ha(y, carry)
            elif carry is None:
                s, carry = ha(x, y)
            else:
                s, carry = fa(x, y, carry)
            nxt.append(s)
        nxt.append(carry)
        b.gate("BUF", [nxt[0]], f"m{row}")
        acc = nxt[1:]
    for k, sig in enumerate(acc, start=W):
        b.gate("BUF", [sig], f"m{k}")
    return b.text()


def gen_alu8():
    """8-bit ALU, the corpus's c880-class member (~300 gates before
    synthesis): one shared ripple adder/subtractor plus a bitwise logic
    unit, an 8:1 result mux, and carry/zero/parity/overflow flags.

    opcode (op2 op1 op0): 0 ADD a+b+cin, 1 SUB a-b-cin (borrow style:
    a + ~b + ~cin), 2 AND, 3 OR, 4 XOR, 5 NOR, 6 NAND, 7 XNOR.
    cout/ovf are gated to 0 for the logic opcodes.
    """
    b = Bench("alu8 -- 8-bit ALU (c880-class): add/sub, 6 bitwise ops, flags")
    for i in range(8):
        b.inp(f"a{i}")
    for i in range(8):
        b.inp(f"b{i}")
    b.inp("cin")
    for i in range(3):
        b.inp(f"op{i}")
    for i in range(8):
        b.out(f"y{i}")
    for f in ("cout", "zero", "parity", "ovf"):
        b.out(f)

    nop = [b.gate("NOT", [f"op{i}"], f"nop{i}") for i in range(3)]
    # Opcode decode: d[k] is the minterm for opcode k (bit j of k <-> opj).
    d = [b.gate("AND",
                [(f"op{j}" if (k >> j) & 1 else nop[j]) for j in range(3)],
                f"d{k}")
         for k in range(8)]
    sub = d[1]

    # Arithmetic unit: a + (b ^ sub) + (cin ^ sub). SUB is thus borrow
    # style: a + ~b + ~cin = a - b - cin mod 256, carry-out = not-borrow.
    bx = [b.gate("XOR", [f"b{i}", sub], f"bx{i}") for i in range(8)]
    carry = b.gate("XOR", ["cin", sub], "c0")
    c7 = None
    s = []
    for i in range(8):
        t = b.gate("XOR", [f"a{i}", bx[i]], f"t{i}")
        s.append(b.gate("XOR", [t, carry], f"s{i}"))
        u = b.gate("AND", [t, carry])
        v = b.gate("AND", [f"a{i}", bx[i]])
        carry = b.gate("OR", [u, v], f"c{i + 1}")
        if i == 6:
            c7 = carry

    # Logic unit: the three base functions plus their complements.
    andb = [b.gate("AND", [f"a{i}", f"b{i}"], f"and{i}") for i in range(8)]
    orb = [b.gate("OR", [f"a{i}", f"b{i}"], f"or{i}") for i in range(8)]
    xorb = [b.gate("XOR", [f"a{i}", f"b{i}"], f"xor{i}") for i in range(8)]
    norb = [b.gate("NOT", [orb[i]], f"nor{i}") for i in range(8)]
    nandb = [b.gate("NOT", [andb[i]], f"nand{i}") for i in range(8)]
    xnorb = [b.gate("NOT", [xorb[i]], f"xnor{i}") for i in range(8)]

    # 8:1 result mux per bit (ADD and SUB share the adder sum).
    funcs = [s, s, andb, orb, xorb, norb, nandb, xnorb]
    y = []
    for i in range(8):
        terms = [b.gate("AND", [d[k], funcs[k][i]]) for k in range(8)]
        y.append(b.gate("OR", terms, f"r{i}"))
        b.gate("BUF", [y[i]], f"y{i}")

    # Flags. cout/ovf only mean something for the arithmetic opcodes.
    arith = b.gate("OR", [d[0], d[1]], "arith")
    b.gate("AND", [carry, arith], "cout")
    any_y = b.gate("OR", y, "any_y")
    b.gate("NOT", [any_y], "zero")
    p = y[0]
    for i in range(1, 8):
        p = b.gate("XOR", [p, y[i]], "parity" if i == 7 else f"p{i}")
    ovf_raw = b.gate("XOR", [c7, carry], "ovf_raw")
    b.gate("AND", [ovf_raw, "arith"], "ovf")
    return b.text()


# ----------------------------------------------------------------- .blif ---

def gen_counter8():
    rows = []
    rows.append(".model counter8")
    rows.append(".inputs en")
    rows.append(".outputs " + " ".join(f"q{i}" for i in range(8)) + " tc")
    for i in range(8):
        rows.append(f".latch d{i} q{i} re clk 0")
    rows.append("# carry chain: c0 = en, c_{i+1} = c_i & q_i")
    rows.append(".names en c0")
    rows.append("1 1")
    for i in range(7):
        rows.append(f".names c{i} q{i} c{i + 1}")
        rows.append("11 1")
    for i in range(8):
        rows.append(f"# d{i} = q{i} ^ c{i}")
        rows.append(f".names q{i} c{i} d{i}")
        rows.append("10 1")
        rows.append("01 1")
    rows.append("# terminal count: all ones and counting")
    rows.append(".names c6 q6 q7 tc")
    rows.append("111 1")
    rows.append(".end")
    return "# counter8 -- 8-bit enabled binary counter\n" + \
        "# generated by generate_corpus.py\n" + "\n".join(rows) + "\n"


# ----------------------------------------------------------------- AIGER ---

class AigBuilder:
    """Minimal AIG with sequential variable numbering (inputs first)."""

    def __init__(self, num_inputs):
        self.I = num_inputs
        self.ands = []  # (rhs0, rhs1), lhs implicit: 2*(I+1+idx)

    def inp(self, i):
        return 2 * (i + 1)

    def land(self, a, b):
        if a < b:
            a, b = b, a
        self.ands.append((a, b))
        return 2 * (self.I + len(self.ands))

    def lor(self, a, b):
        return self.land(a ^ 1, b ^ 1) ^ 1

    def lxor(self, a, b):
        return self.lor(self.land(a, b ^ 1), self.land(a ^ 1, b))


def aag_text(g, outputs, in_names, out_names, comment):
    M = g.I + len(g.ands)
    lines = [f"aag {M} {g.I} 0 {len(outputs)} {len(g.ands)}"]
    lines += [str(2 * (i + 1)) for i in range(g.I)]
    lines += [str(o) for o in outputs]
    for k, (a, b) in enumerate(g.ands):
        lines.append(f"{2 * (g.I + 1 + k)} {a} {b}")
    lines += [f"i{i} {n}" for i, n in enumerate(in_names)]
    lines += [f"o{i} {n}" for i, n in enumerate(out_names)]
    lines += ["c", comment]
    return "\n".join(lines) + "\n"


def aig_binary(g, outputs, in_names, out_names, comment):
    M = g.I + len(g.ands)
    out = bytearray()
    out += f"aig {M} {g.I} 0 {len(outputs)} {len(g.ands)}\n".encode()
    for o in outputs:
        out += f"{o}\n".encode()
    for k, (a, b) in enumerate(g.ands):
        lhs = 2 * (g.I + 1 + k)
        for delta in (lhs - a, a - b):
            while True:
                byte = delta & 0x7F
                delta >>= 7
                out += struct.pack("B", byte | (0x80 if delta else 0))
                if not delta:
                    break
    for i, n in enumerate(in_names):
        out += f"i{i} {n}\n".encode()
    for i, n in enumerate(out_names):
        out += f"o{i} {n}\n".encode()
    out += f"c\n{comment}\n".encode()
    return bytes(out)


def gen_par32():
    g = AigBuilder(32)
    level = [g.inp(i) for i in range(32)]
    while len(level) > 1:
        level = [g.lxor(level[i], level[i + 1])
                 for i in range(0, len(level), 2)]
    return aag_text(g, [level[0]], [f"x{i}" for i in range(32)], ["parity"],
                    "par32: 32-input parity tree")


def mul6():
    """The 6x6 array multiplier as aag_text/aig_binary arguments."""
    W = 6
    g = AigBuilder(2 * W)
    a = [g.inp(i) for i in range(W)]
    b = [g.inp(W + i) for i in range(W)]

    def fa(x, y, z):
        t = g.lxor(x, y)
        return g.lxor(t, z), g.lor(g.land(t, z), g.land(x, y))

    def ha(x, y):
        return g.lxor(x, y), g.land(x, y)

    pp = [[g.land(a[i], b[j]) for i in range(W)] for j in range(W)]
    outs = []
    acc = list(pp[0])
    outs.append(acc[0])
    acc = acc[1:]
    for row in range(1, W):
        nxt, carry = [], None
        for i in range(W):
            x = acc[i] if i < len(acc) else None
            y = pp[row][i]
            if x is None:
                s, carry = ha(y, carry)
            elif carry is None:
                s, carry = ha(x, y)
            else:
                s, carry = fa(x, y, carry)
            nxt.append(s)
        nxt.append(carry)
        outs.append(nxt[0])
        acc = nxt[1:]
    outs.extend(acc)
    return (g, outs,
            [f"a{i}" for i in range(W)] + [f"b{i}" for i in range(W)],
            [f"m{i}" for i in range(2 * W)],
            "mul6: 6x6 array multiplier")


# ------------------------------------------------------------- reference ---

def check():
    """Sanity-simulate the generated arithmetic before writing anything."""
    # cla16 / mul8 / counter8 are checked by tests/ingest_test.cpp after
    # parsing; here we only verify the AIGER builders' logic because the
    # binary file is not hand-readable.
    g = AigBuilder(2)
    x = g.lxor(g.inp(0), g.inp(1))
    for va in (0, 1):
        for vb in (0, 1):
            vals = {0: 0, 1: 1, 2 * 1: va, 2 * 1 + 1: va ^ 1,
                    2 * 2: vb, 2 * 2 + 1: vb ^ 1}
            for k, (p, q) in enumerate(g.ands):
                lhs = 2 * (g.I + 1 + k)
                v = vals[p] & vals[q]
                vals[lhs] = v
                vals[lhs + 1] = v ^ 1
            assert vals[x] == va ^ vb, "xor builder broken"


def main():
    check()
    write("cla16.bench", gen_cla16())
    write("mul8.bench", gen_mul8())
    write("alu8.bench", gen_alu8())
    write("counter8.blif", gen_counter8())
    write("par32.aag", gen_par32())
    write("mul6.aig", aig_binary(*mul6()))
    write("mul6.aag", aag_text(*mul6()))


if __name__ == "__main__":
    main()
