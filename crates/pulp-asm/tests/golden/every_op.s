# Every instruction form the assembler accepts: one line per ISA table
# row x SIMD format x operand mode, with immediates at their field
# extremes. tests/every_op_listing.rs assembles this file and checks
# the listing against every_op.lst byte for byte.
.org 0x1000
# RV32I: upper immediates, jumps
lui a0, 0x0
lui a0, 0x12345
lui a0, 0xfffff
auipc a1, 0xabcde
jal ra, 16
jal zero, -1048576
jal t0, 1048574
jalr ra, -2048(a1)
jalr zero, 2047(a1)
# RV32I: branches (every condition, both offset extremes)
beq a0, a1, -4096
beq s2, t6, 8
bne a0, a1, 4094
bne s2, t6, -8
blt a0, a1, -4096
blt s2, t6, 8
bge a0, a1, 4094
bge s2, t6, -8
bltu a0, a1, -4096
bltu s2, t6, 8
bgeu a0, a1, 4094
bgeu s2, t6, -8
# RV32I: loads and stores (every kind)
lb a0, -2048(a1)
lh a0, 2047(a1)
lw a0, -2048(a1)
lbu a0, 2047(a1)
lhu a0, -2048(a1)
sb a2, 2047(a1)
sh a2, -2048(a1)
sw a2, 2047(a1)
# RV32I: register-register ALU
add a0, a1, a2
sub a0, a1, a2
sll a0, a1, a2
slt a0, a1, a2
sltu a0, a1, a2
xor a0, a1, a2
srl a0, a1, a2
sra a0, a1, a2
or a0, a1, a2
and a0, a1, a2
# RV32I: register-immediate ALU (no sub form)
addi a0, a1, -2048
addi t6, s11, 2047
slli a0, a1, 0
slli t6, s11, 31
slti a0, a1, -2048
slti t6, s11, 2047
sltui a0, a1, -2048
sltui t6, s11, 2047
xori a0, a1, -2048
xori t6, s11, 2047
srli a0, a1, 0
srli t6, s11, 31
srai a0, a1, 0
srai t6, s11, 31
ori a0, a1, -2048
ori t6, s11, 2047
andi a0, a1, -2048
andi t6, s11, 2047
# RV32I: system, CSR, nop
fence
ecall
ebreak
nop
csrrw a0, 0x0, a1
csrrs a0, 0xb00, zero
csrrc t6, 0xfff, s11
# RV32M
mul a0, a1, a2
mulh a0, a1, a2
mulhsu a0, a1, a2
mulhu a0, a1, a2
div a0, a1, a2
divu a0, a1, a2
rem a0, a1, a2
remu a0, a1, a2
# XpulpV2: scalar ALU
p.min a0, a1, a2
p.minu a0, a1, a2
p.max a0, a1, a2
p.maxu a0, a1, a2
p.abs a0, a1
p.exths a0, a1
p.exthz a0, a1
p.extbs a0, a1
p.extbz a0, a1
p.clip a0, a1, 0
p.clip a0, a1, 31
p.clipu a0, a1, 8
p.clipu t6, s11, 31
p.mac a0, a1, a2
p.msu a0, a1, a2
p.ff1 a0, a1
p.fl1 a0, a1
p.cnt a0, a1
p.clb a0, a1
p.extract a0, a1, 1, 0
p.extract a0, a1, 32, 31
p.extractu a0, a1, 8, 16
p.extractu t6, s11, 32, 0
p.insert a0, a1, 4, 28
p.insert t6, s11, 1, 31
# XpulpV2: post-increment and register-offset memory (every kind)
p.lb a0, -2048(a1!)
p.lb a0, a2(a1!)
p.lb t6, s11(s10)
p.lh a0, 2047(a1!)
p.lh a0, a2(a1!)
p.lh t6, s11(s10)
p.lw a0, -2048(a1!)
p.lw a0, a2(a1!)
p.lw t6, s11(s10)
p.lbu a0, 2047(a1!)
p.lbu a0, a2(a1!)
p.lbu t6, s11(s10)
p.lhu a0, -2048(a1!)
p.lhu a0, a2(a1!)
p.lhu t6, s11(s10)
p.sb a2, 2047(a1!)
p.sb a2, t6(a1!)
p.sh a2, -2048(a1!)
p.sh a2, t6(a1!)
p.sw a2, 2047(a1!)
p.sw a2, t6(a1!)
# XpulpV2: hardware loops
lp.starti x0, -4096
lp.starti x1, 4094
lp.endi x0, 64
lp.endi x1, -2
lp.count x0, a0
lp.count x1, t6
lp.counti x0, 0
lp.counti x1, 4095
lp.setup x0, a0, 200
lp.setup x1, t6, -4096
lp.setupi x0, 0, 0
lp.setupi x1, 4095, 62
# XpulpV2/XpulpNN: packed SIMD ALU (every op x format x mode)
pv.add.h a0, a1, a2
pv.add.sc.h a0, a1, a2
pv.add.sci.h a0, a1, -32
pv.add.sci.h a0, a1, 31
pv.add.b a0, a1, a2
pv.add.sc.b a0, a1, a2
pv.add.sci.b a0, a1, -32
pv.add.sci.b a0, a1, 31
pv.add.n a0, a1, a2
pv.add.sc.n a0, a1, a2
pv.add.c a0, a1, a2
pv.add.sc.c a0, a1, a2
pv.sub.h a0, a1, a2
pv.sub.sc.h a0, a1, a2
pv.sub.sci.h a0, a1, -32
pv.sub.sci.h a0, a1, 31
pv.sub.b a0, a1, a2
pv.sub.sc.b a0, a1, a2
pv.sub.sci.b a0, a1, -32
pv.sub.sci.b a0, a1, 31
pv.sub.n a0, a1, a2
pv.sub.sc.n a0, a1, a2
pv.sub.c a0, a1, a2
pv.sub.sc.c a0, a1, a2
pv.avg.h a0, a1, a2
pv.avg.sc.h a0, a1, a2
pv.avg.sci.h a0, a1, -32
pv.avg.sci.h a0, a1, 31
pv.avg.b a0, a1, a2
pv.avg.sc.b a0, a1, a2
pv.avg.sci.b a0, a1, -32
pv.avg.sci.b a0, a1, 31
pv.avg.n a0, a1, a2
pv.avg.sc.n a0, a1, a2
pv.avg.c a0, a1, a2
pv.avg.sc.c a0, a1, a2
pv.avgu.h a0, a1, a2
pv.avgu.sc.h a0, a1, a2
pv.avgu.sci.h a0, a1, -32
pv.avgu.sci.h a0, a1, 31
pv.avgu.b a0, a1, a2
pv.avgu.sc.b a0, a1, a2
pv.avgu.sci.b a0, a1, -32
pv.avgu.sci.b a0, a1, 31
pv.avgu.n a0, a1, a2
pv.avgu.sc.n a0, a1, a2
pv.avgu.c a0, a1, a2
pv.avgu.sc.c a0, a1, a2
pv.min.h a0, a1, a2
pv.min.sc.h a0, a1, a2
pv.min.sci.h a0, a1, -32
pv.min.sci.h a0, a1, 31
pv.min.b a0, a1, a2
pv.min.sc.b a0, a1, a2
pv.min.sci.b a0, a1, -32
pv.min.sci.b a0, a1, 31
pv.min.n a0, a1, a2
pv.min.sc.n a0, a1, a2
pv.min.c a0, a1, a2
pv.min.sc.c a0, a1, a2
pv.minu.h a0, a1, a2
pv.minu.sc.h a0, a1, a2
pv.minu.sci.h a0, a1, -32
pv.minu.sci.h a0, a1, 31
pv.minu.b a0, a1, a2
pv.minu.sc.b a0, a1, a2
pv.minu.sci.b a0, a1, -32
pv.minu.sci.b a0, a1, 31
pv.minu.n a0, a1, a2
pv.minu.sc.n a0, a1, a2
pv.minu.c a0, a1, a2
pv.minu.sc.c a0, a1, a2
pv.max.h a0, a1, a2
pv.max.sc.h a0, a1, a2
pv.max.sci.h a0, a1, -32
pv.max.sci.h a0, a1, 31
pv.max.b a0, a1, a2
pv.max.sc.b a0, a1, a2
pv.max.sci.b a0, a1, -32
pv.max.sci.b a0, a1, 31
pv.max.n a0, a1, a2
pv.max.sc.n a0, a1, a2
pv.max.c a0, a1, a2
pv.max.sc.c a0, a1, a2
pv.maxu.h a0, a1, a2
pv.maxu.sc.h a0, a1, a2
pv.maxu.sci.h a0, a1, -32
pv.maxu.sci.h a0, a1, 31
pv.maxu.b a0, a1, a2
pv.maxu.sc.b a0, a1, a2
pv.maxu.sci.b a0, a1, -32
pv.maxu.sci.b a0, a1, 31
pv.maxu.n a0, a1, a2
pv.maxu.sc.n a0, a1, a2
pv.maxu.c a0, a1, a2
pv.maxu.sc.c a0, a1, a2
pv.srl.h a0, a1, a2
pv.srl.sc.h a0, a1, a2
pv.srl.sci.h a0, a1, -32
pv.srl.sci.h a0, a1, 31
pv.srl.b a0, a1, a2
pv.srl.sc.b a0, a1, a2
pv.srl.sci.b a0, a1, -32
pv.srl.sci.b a0, a1, 31
pv.srl.n a0, a1, a2
pv.srl.sc.n a0, a1, a2
pv.srl.c a0, a1, a2
pv.srl.sc.c a0, a1, a2
pv.sra.h a0, a1, a2
pv.sra.sc.h a0, a1, a2
pv.sra.sci.h a0, a1, -32
pv.sra.sci.h a0, a1, 31
pv.sra.b a0, a1, a2
pv.sra.sc.b a0, a1, a2
pv.sra.sci.b a0, a1, -32
pv.sra.sci.b a0, a1, 31
pv.sra.n a0, a1, a2
pv.sra.sc.n a0, a1, a2
pv.sra.c a0, a1, a2
pv.sra.sc.c a0, a1, a2
pv.sll.h a0, a1, a2
pv.sll.sc.h a0, a1, a2
pv.sll.sci.h a0, a1, -32
pv.sll.sci.h a0, a1, 31
pv.sll.b a0, a1, a2
pv.sll.sc.b a0, a1, a2
pv.sll.sci.b a0, a1, -32
pv.sll.sci.b a0, a1, 31
pv.sll.n a0, a1, a2
pv.sll.sc.n a0, a1, a2
pv.sll.c a0, a1, a2
pv.sll.sc.c a0, a1, a2
pv.or.h a0, a1, a2
pv.or.sc.h a0, a1, a2
pv.or.sci.h a0, a1, -32
pv.or.sci.h a0, a1, 31
pv.or.b a0, a1, a2
pv.or.sc.b a0, a1, a2
pv.or.sci.b a0, a1, -32
pv.or.sci.b a0, a1, 31
pv.or.n a0, a1, a2
pv.or.sc.n a0, a1, a2
pv.or.c a0, a1, a2
pv.or.sc.c a0, a1, a2
pv.and.h a0, a1, a2
pv.and.sc.h a0, a1, a2
pv.and.sci.h a0, a1, -32
pv.and.sci.h a0, a1, 31
pv.and.b a0, a1, a2
pv.and.sc.b a0, a1, a2
pv.and.sci.b a0, a1, -32
pv.and.sci.b a0, a1, 31
pv.and.n a0, a1, a2
pv.and.sc.n a0, a1, a2
pv.and.c a0, a1, a2
pv.and.sc.c a0, a1, a2
pv.xor.h a0, a1, a2
pv.xor.sc.h a0, a1, a2
pv.xor.sci.h a0, a1, -32
pv.xor.sci.h a0, a1, 31
pv.xor.b a0, a1, a2
pv.xor.sc.b a0, a1, a2
pv.xor.sci.b a0, a1, -32
pv.xor.sci.b a0, a1, 31
pv.xor.n a0, a1, a2
pv.xor.sc.n a0, a1, a2
pv.xor.c a0, a1, a2
pv.xor.sc.c a0, a1, a2
# packed SIMD: abs, lane extract/insert, shuffle2, qnt
pv.abs.h a0, a1
pv.extract.h a0, a1, 0
pv.extract.h t6, s11, 1
pv.extractu.h a0, a1, 0
pv.extractu.h t6, s11, 1
pv.insert.h a0, a1, 0
pv.insert.h t6, s11, 1
pv.abs.b a0, a1
pv.extract.b a0, a1, 0
pv.extract.b t6, s11, 3
pv.extractu.b a0, a1, 0
pv.extractu.b t6, s11, 3
pv.insert.b a0, a1, 0
pv.insert.b t6, s11, 3
pv.abs.n a0, a1
pv.extract.n a0, a1, 0
pv.extract.n t6, s11, 7
pv.extractu.n a0, a1, 0
pv.extractu.n t6, s11, 7
pv.insert.n a0, a1, 0
pv.insert.n t6, s11, 7
pv.abs.c a0, a1
pv.extract.c a0, a1, 0
pv.extract.c t6, s11, 15
pv.extractu.c a0, a1, 0
pv.extractu.c t6, s11, 15
pv.insert.c a0, a1, 0
pv.insert.c t6, s11, 15
pv.shuffle2.h a0, a1, a2
pv.shuffle2.b a0, a1, a2
pv.qnt.n a0, a1, a2
pv.qnt.c a0, a1, a2
# packed SIMD: dot products (every sign x format x mode)
pv.dotup.h a0, a1, a2
pv.dotup.sc.h a0, a1, a2
pv.dotup.sci.h a0, a1, -32
pv.dotup.sci.h a0, a1, 31
pv.dotup.b a0, a1, a2
pv.dotup.sc.b a0, a1, a2
pv.dotup.sci.b a0, a1, -32
pv.dotup.sci.b a0, a1, 31
pv.dotup.n a0, a1, a2
pv.dotup.sc.n a0, a1, a2
pv.dotup.c a0, a1, a2
pv.dotup.sc.c a0, a1, a2
pv.dotusp.h a0, a1, a2
pv.dotusp.sc.h a0, a1, a2
pv.dotusp.sci.h a0, a1, -32
pv.dotusp.sci.h a0, a1, 31
pv.dotusp.b a0, a1, a2
pv.dotusp.sc.b a0, a1, a2
pv.dotusp.sci.b a0, a1, -32
pv.dotusp.sci.b a0, a1, 31
pv.dotusp.n a0, a1, a2
pv.dotusp.sc.n a0, a1, a2
pv.dotusp.c a0, a1, a2
pv.dotusp.sc.c a0, a1, a2
pv.dotsp.h a0, a1, a2
pv.dotsp.sc.h a0, a1, a2
pv.dotsp.sci.h a0, a1, -32
pv.dotsp.sci.h a0, a1, 31
pv.dotsp.b a0, a1, a2
pv.dotsp.sc.b a0, a1, a2
pv.dotsp.sci.b a0, a1, -32
pv.dotsp.sci.b a0, a1, 31
pv.dotsp.n a0, a1, a2
pv.dotsp.sc.n a0, a1, a2
pv.dotsp.c a0, a1, a2
pv.dotsp.sc.c a0, a1, a2
pv.sdotup.h a0, a1, a2
pv.sdotup.sc.h a0, a1, a2
pv.sdotup.sci.h a0, a1, -32
pv.sdotup.sci.h a0, a1, 31
pv.sdotup.b a0, a1, a2
pv.sdotup.sc.b a0, a1, a2
pv.sdotup.sci.b a0, a1, -32
pv.sdotup.sci.b a0, a1, 31
pv.sdotup.n a0, a1, a2
pv.sdotup.sc.n a0, a1, a2
pv.sdotup.c a0, a1, a2
pv.sdotup.sc.c a0, a1, a2
pv.sdotusp.h a0, a1, a2
pv.sdotusp.sc.h a0, a1, a2
pv.sdotusp.sci.h a0, a1, -32
pv.sdotusp.sci.h a0, a1, 31
pv.sdotusp.b a0, a1, a2
pv.sdotusp.sc.b a0, a1, a2
pv.sdotusp.sci.b a0, a1, -32
pv.sdotusp.sci.b a0, a1, 31
pv.sdotusp.n a0, a1, a2
pv.sdotusp.sc.n a0, a1, a2
pv.sdotusp.c a0, a1, a2
pv.sdotusp.sc.c a0, a1, a2
pv.sdotsp.h a0, a1, a2
pv.sdotsp.sc.h a0, a1, a2
pv.sdotsp.sci.h a0, a1, -32
pv.sdotsp.sci.h a0, a1, 31
pv.sdotsp.b a0, a1, a2
pv.sdotsp.sc.b a0, a1, a2
pv.sdotsp.sci.b a0, a1, -32
pv.sdotsp.sci.b a0, a1, 31
pv.sdotsp.n a0, a1, a2
pv.sdotsp.sc.n a0, a1, a2
pv.sdotsp.c a0, a1, a2
pv.sdotsp.sc.c a0, a1, a2
# Xrvv: vector unit
vsetvli a0, a1, e2
vsetvli a0, a1, e4
vsetvli a0, a1, e8
vsetvli a0, a1, e16
vle.v v1, (a1)
vle.v v31, (t6)
vse.v v2, (a1)
vlse.v v3, (a1), a2
vsse.v v31, (t6), s11
vdotup.vv a0, v1, v2
vdotusp.vv a0, v1, v2
vdotsp.vv a0, v1, v2
vqnt.n.v v2, a1, v3
vqnt.c.v v2, a1, v3
vslide1down.vx v1, v2, a0
vmv.x.s a0, v31
