"""Seeded guest generator of the benchmark.

Every guest is one self-checking RV32IM program in the repo assembler's
syntax. Its inputs (a byte buffer, a word array, two matrices, an opcode
stream for a jump-table dispatcher and a divide table) come from the seed;
the values it must compute (CRC-32 of the buffer, the sorted array, the
matrix-product checksum, the dispatcher's accumulator and the divide
checksum) are computed here on the host and embedded as `expect_*` data.
The guest exits 0 only if every value matches, and 1..5 naming the first
check that failed. Each round recomputes everything from the inputs, so a
guest of R rounds retires R times the work of one round.

The seed changes data, never the amount of work: CRC and sort are
branchless and the opcode stream is a shuffle of equal numbers of each
opcode, so every guest of one Shape retires the same number of
instructions. Golden runs of equal length draw the same fault triggers from
one campaign seed, which keeps the cost of a campaign (hangs run eight
times the golden length) from varying with the seed.

All loops are counted or carry a `.loopbound`, and the dispatcher's
`jalr zero` lands in a branch table in .text whose targets the data-flow
layer resolves from the `la` + masked index, so every guest is accepted by
the static WCET analyzer and can be replayed under the whole timing matrix.
"""

import random
import zlib

MASK = 0xFFFFFFFF


def s32(v):
    v &= MASK
    return v - (1 << 32) if v & 0x80000000 else v


def rv_div(a, b):
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def rv_rem(a, b):
    return a - b * rv_div(a, b)


class Shape:
    """Sizes of one guest: rounds and the per-round kernel sizes."""

    def __init__(self, rounds, buf_len, arr_len, mat_n, ops_len, div_len):
        self.rounds = rounds
        self.buf_len = buf_len
        self.arr_len = arr_len
        self.mat_n = mat_n
        self.ops_len = ops_len
        self.div_len = div_len


def words(values):
    out = []
    for i in range(0, len(values), 8):
        out.append("    .word " + ", ".join(str(s32(v)) for v in values[i:i + 8]))
    return "\n".join(out)


def byte_lines(values):
    out = []
    for i in range(0, len(values), 16):
        out.append("    .byte " + ", ".join(str(v) for v in values[i:i + 16]))
    return "\n".join(out)


def make_guest(seed, shape, corrupt=False):
    """Returns (source, uart_text). `corrupt` embeds a wrong expected CRC
    (the self-test of the guest's own check)."""
    assert shape.ops_len % 4 == 0, "the opcode mix must be balanced"
    rng = random.Random(seed)
    n, m = shape.arr_len, shape.mat_n
    buf = [rng.randrange(256) for _ in range(shape.buf_len)]
    arr = [rng.randrange(-(1 << 31), 1 << 31) for _ in range(n)]
    mat_a = [rng.randrange(-(1 << 15), 1 << 15) for _ in range(m * m)]
    mat_b = [rng.randrange(-(1 << 15), 1 << 15) for _ in range(m * m)]
    ops = [i % 4 for i in range(shape.ops_len)]
    rng.shuffle(ops)
    k_add = rng.randrange(1, 2048)
    k_mul = rng.randrange(3, 1 << 20) | 1
    k_xor = rng.randrange(1, 2048)
    acc0 = rng.randrange(1 << 32)
    divs = []
    for _ in range(shape.div_len):
        divs.append(rng.randrange(-(1 << 31), 1 << 31))
        divs.append(rng.randrange(1, 1 << 15))

    crc = zlib.crc32(bytes(buf)) & MASK
    if corrupt:
        crc ^= 1
    mat_sum = 0
    for i in range(m):
        for j in range(m):
            mat_sum += sum(mat_a[i * m + k] * mat_b[k * m + j] for k in range(m))
    mat_sum &= MASK
    acc = acc0
    for op in ops:
        if op == 0:
            acc = (acc + k_add) & MASK
        elif op == 1:
            acc = (acc * k_mul) & MASK
        elif op == 2:
            acc ^= k_xor
        else:
            acc = ((acc << 3) | (acc >> 29)) & MASK
    div_sum = 0
    for i in range(0, len(divs), 2):
        a, b = divs[i], divs[i + 1]
        div_sum = (div_sum + ((rv_div(a, b) ^ rv_rem(a, b)) & MASK)) & MASK
    uart = "".join(chr(ord("a") + (r & 15)) for r in range(shape.rounds, 0, -1))
    uart += "ok\n"

    src = f"""
.equ UART_TX, 0x10000000
_start:
    li s11, {shape.rounds}
round:
    .loopbound {shape.rounds}
    la a0, buf
    li a1, {shape.buf_len}
    call crc32
    la t0, result
    sw a0, 0(t0)
    call sort
    call matmul
    la t0, result
    sw a0, 4(t0)
    call dispatch
    la t0, result
    sw a0, 8(t0)
    call divide
    la t0, result
    sw a0, 12(t0)
    andi t1, s11, 15
    addi t1, t1, 97
    li t0, UART_TX
    sw t1, 0(t0)
    addi s11, s11, -1
    bnez s11, round
    la s0, result
    la s1, expect
    li s2, 4
    li s3, 1
check_results:
    .loopbound 4
    lw t0, 0(s0)
    lw t1, 0(s1)
    bne t0, t1, fail
    addi s0, s0, 4
    addi s1, s1, 4
    addi s3, s3, 1
    addi s2, s2, -1
    bnez s2, check_results
    la s0, sorted
    la s1, expect_sorted
    li s2, {n}
check_sorted:
    .loopbound {n}
    lw t0, 0(s0)
    lw t1, 0(s1)
    bne t0, t1, fail
    addi s0, s0, 4
    addi s1, s1, 4
    addi s2, s2, -1
    bnez s2, check_sorted
    li t0, UART_TX
    li t1, 111
    sw t1, 0(t0)
    li t1, 107
    sw t1, 0(t0)
    li t1, 10
    sw t1, 0(t0)
    li a0, 0
    li a7, 93
    ecall
fail:
    mv a0, s3
    li a7, 93
    ecall

# a0 = CRC-32 (reflected, poly 0xEDB88320) of a1 bytes at a0; the
# conditional xor is a mask, not a branch.
crc32:
    li t0, -1
    li t3, 0xEDB88320
crc_byte:
    .loopbound {shape.buf_len}
    lbu t1, 0(a0)
    xor t0, t0, t1
    li t2, 8
crc_bit:
    .loopbound 8
    andi t4, t0, 1
    neg t4, t4
    and t4, t4, t3
    srli t0, t0, 1
    xor t0, t0, t4
    addi t2, t2, -1
    bnez t2, crc_bit
    addi a0, a0, 1
    addi a1, a1, -1
    bnez a1, crc_byte
    not a0, t0
    ret

# Copy `array` to `sorted`, then bubble-sort `sorted` ascending (signed)
# with a branchless compare-exchange.
sort:
    la t0, array
    la t1, sorted
    li t2, {n}
copy:
    .loopbound {n}
    lw t3, 0(t0)
    sw t3, 0(t1)
    addi t0, t0, 4
    addi t1, t1, 4
    addi t2, t2, -1
    bnez t2, copy
    li t5, {n - 1}
pass:
    .loopbound {n - 1}
    la t0, sorted
    mv t6, t5
bubble:
    .loopbound {n - 1}
    lw t2, 0(t0)
    lw t3, 4(t0)
    slt t4, t3, t2
    neg t4, t4
    sub a6, t3, t2
    and a6, a6, t4
    add t2, t2, a6
    sub t3, t3, a6
    sw t2, 0(t0)
    sw t3, 4(t0)
    addi t0, t0, 4
    addi t6, t6, -1
    bnez t6, bubble
    addi t5, t5, -1
    bnez t5, pass
    ret

# mat_c = mat_a * mat_b ({m}x{m}); a0 = sum of mat_c.
matmul:
    la a2, mat_a
    la a3, mat_b
    la a4, mat_c
    li a5, {m}
    li a0, 0
    li t0, 0
mm_i:
    .loopbound {m}
    li t1, 0
mm_j:
    .loopbound {m}
    li t2, 0
    li t6, 0
mm_k:
    .loopbound {m}
    mul t3, t0, a5
    add t3, t3, t2
    slli t3, t3, 2
    add t3, t3, a2
    lw t4, 0(t3)
    mul t3, t2, a5
    add t3, t3, t1
    slli t3, t3, 2
    add t3, t3, a3
    lw t5, 0(t3)
    mul t4, t4, t5
    add t6, t6, t4
    addi t2, t2, 1
    blt t2, a5, mm_k
    mul t3, t0, a5
    add t3, t3, t1
    slli t3, t3, 2
    add t3, t3, a4
    sw t6, 0(t3)
    add a0, a0, t6
    addi t1, t1, 1
    blt t1, a5, mm_j
    addi t0, t0, 1
    blt t0, a5, mm_i
    ret

# Byte-coded dispatcher through a branch table in .text: entry i (8 bytes)
# calls handler i and jumps to op_done.
dispatch:
    addi sp, sp, -16
    sw ra, 12(sp)
    sw s0, 8(sp)
    sw s1, 4(sp)
    la s0, ops
    li s1, {shape.ops_len}
    li a0, {s32(acc0)}
next_op:
    .loopbound {shape.ops_len}
    lbu t0, 0(s0)
    andi t0, t0, 3
    slli t0, t0, 3
    la t1, op_table
    add t0, t0, t1
    jalr zero, 0(t0)
op_table:
    call op_add
    j op_done
    call op_mul
    j op_done
    call op_xor
    j op_done
    call op_rot
op_done:
    addi s0, s0, 1
    addi s1, s1, -1
    bnez s1, next_op
    lw s1, 4(sp)
    lw s0, 8(sp)
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
op_add:
    addi a0, a0, {k_add}
    ret
op_mul:
    li t0, {k_mul}
    mul a0, a0, t0
    ret
op_xor:
    xori a0, a0, {k_xor}
    ret
op_rot:
    slli t0, a0, 3
    srli t1, a0, 29
    or a0, t0, t1
    ret

# a0 = sum over the divide table of (a / b) ^ (a % b).
divide:
    la t0, div_table
    li t1, {shape.div_len}
    li a0, 0
div_loop:
    .loopbound {shape.div_len}
    lw t2, 0(t0)
    lw t3, 4(t0)
    div t4, t2, t3
    rem t5, t2, t3
    xor t4, t4, t5
    add a0, a0, t4
    addi t0, t0, 8
    addi t1, t1, -1
    bnez t1, div_loop
    ret

.data
result:
    .word 0, 0, 0, 0
expect:
    .word {s32(crc)}, {s32(mat_sum)}, {s32(acc)}, {s32(div_sum)}
array:
{words(arr)}
sorted:
    .space {4 * n}
expect_sorted:
{words(sorted(arr))}
mat_a:
{words(mat_a)}
mat_b:
{words(mat_b)}
mat_c:
    .space {4 * m * m}
div_table:
{words(divs)}
buf:
{byte_lines(buf)}
ops:
{byte_lines(ops)}
"""
    return src, uart
