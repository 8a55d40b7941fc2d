//! Decoded-basic-block fast path.
//!
//! Every retired instruction executes as an [`Op`]: the decoded
//! instruction plus its decode-time specialization (`USpec`),
//! run by `Core::exec_spec`. The interpreter builds that op afresh
//! from a fetch → decode → extension check on every step; the fast
//! path converts the regularity of PULP-NN kernels — millions of
//! retires from a few dozen static addresses in tight hardware-loop
//! bodies — into host throughput by decoding straight-line spans
//! **once** into [`Block`]s, cached by start PC. Only the
//! fetch/decode work is elided; the execution and cycle-accounting
//! code is the same, so architectural state, the `cycles == Σ buckets`
//! ledger invariant and every pinned cycle count stay bit-exact by
//! construction.
//!
//! # Block formation
//!
//! Translation walks forward from a PC, decoding until it reaches:
//!
//! * a control-flow instruction (`jal`, `jalr`, a branch, `ecall`,
//!   `ebreak`) — **included** as the block's final op, since it executes
//!   from its pre-decoded form just fine;
//! * an instruction that fails to fetch, decode, or pass the extension
//!   check — **excluded**; at the block start, the lookup returns that
//!   instruction's trap, the very trap the interpreter raises there;
//! * the block size cap.
//!
//! Hardware-loop back-edges need no special casing: the executor
//! follows the core's *actual* next PC after every op, so a back-edge
//! (or any other redirect) simply ends the block replay and the next
//! lookup starts at the loop head.
//!
//! # Fallback matrix
//!
//! | situation | behaviour |
//! |---|---|
//! | tracer attached | ops decoded afresh per step (`step`/`run` check first) |
//! | fault plan armed | driver calls `Core::disable_fastpath()` |
//! | op would trap | untranslatable op → the lookup returns its trap |
//! | store hits fetched code | store executes, then the cache flushes |
//! | `restore()` / `reset()` | cache flushes |
//! | host write bypassing the bus | caller calls `Core::invalidate_fastpath()` |
//! | ISA config changed | cache flushes on the next lookup |

use crate::bus::Bus;
use crate::core::{Core, IsaConfig, Trap};
use pulp_isa::instr::{AluOp, BranchCond, Instr, LoadKind, SimdOperand};
use pulp_isa::simd::{DotSign, SimdFmt};
use pulp_isa::Reg;
use std::sync::Arc;

/// Longest block the translator will form, in instructions. Long
/// enough to swallow any kernel loop body whole, short enough that a
/// mid-block budget exhaustion re-checks promptly.
const MAX_BLOCK_OPS: usize = 64;

/// Direct-mapped block-table size (slots, power of two). Indexed by
/// `(pc >> 1) & (BLOCK_SLOTS - 1)`, so starts within an 8 kB code
/// window never alias; a colliding start simply evicts the old block.
const BLOCK_SLOTS: usize = 4096;

/// One pre-decoded instruction, the executable form of every retire
/// (`Core::exec_spec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Address the instruction was fetched from.
    pub pc: u32,
    /// Encoded length in bytes (2 for RVC, 4 otherwise).
    pub ilen: u32,
    /// The decoded instruction.
    pub instr: Instr,
    /// The instruction's specialized form.
    pub(crate) spec: USpec,
}

/// The second operand of a specialized dot product, with `.sci`
/// immediates already replicated across lanes at translation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DotOp2 {
    /// `.v`: full vector register.
    Vector(Reg),
    /// `.sc`: lane 0 of the register, replicated at execution time.
    Scalar(Reg),
    /// `.sci`: the replicated immediate, precomputed.
    Replicated(u32),
}

/// Decode-time specialization of one instruction.
///
/// The profiled QNN kernels spend >90 % of retires in a handful of
/// shapes (post-increment word loads, `pv.sdot*`, scalar ALU,
/// branches), so `with_spec!` resolves those shapes into compact
/// pre-specialized variants — no runtime-`fmt` SIMD lane loops, no
/// dynamic load/store sizing — that `Core::exec_spec` executes.
/// Everything else stays [`USpec::Generic`] and runs through
/// `Core::exec_decoded`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum USpec {
    /// No specialization: execute via `Core::exec_decoded`.
    Generic,
    /// Conditional branch (target offset pre-cast).
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        offset: u32,
    },
    /// Direct jump-and-link.
    Jal { rd: Reg, offset: u32 },
    // Burst-eligible shapes (`USpec::is_burst`) from here on.
    /// `lui`.
    Lui { rd: Reg, imm: u32 },
    /// `auipc`.
    Auipc { rd: Reg, imm: u32 },
    /// Register-register ALU op.
    Alu {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Register-immediate ALU op (immediate pre-cast).
    AluImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: u32,
    },
    /// Base+offset word load (`lw`): the dominant load shape, with the
    /// access width a compile-time constant so the bus access inlines
    /// to a single 32-bit read.
    LoadW { rd: Reg, rs1: Reg, offset: u32 },
    /// Post-increment word load (`p.lw rd, off(rs1!)`), the QNN
    /// kernels' hottest memory shape.
    LoadWPostInc { rd: Reg, rs1: Reg, offset: u32 },
    /// Base+offset load of any other width.
    Load {
        kind: LoadKind,
        rd: Reg,
        rs1: Reg,
        offset: u32,
    },
    /// Post-increment load of any other width.
    LoadPostInc {
        kind: LoadKind,
        rd: Reg,
        rs1: Reg,
        offset: u32,
    },
    /// Base+offset word store (`sw`).
    StoreW { rs1: Reg, rs2: Reg, offset: u32 },
    /// Post-increment word store (`p.sw`).
    StoreWPostInc { rs1: Reg, rs2: Reg, offset: u32 },
    /// Base+offset store of any other width (size pre-resolved).
    Store {
        size: u32,
        rs1: Reg,
        rs2: Reg,
        offset: u32,
    },
    /// Post-increment store of any other width.
    StorePostInc {
        size: u32,
        rs1: Reg,
        rs2: Reg,
        offset: u32,
    },
    /// `pv.dot*` / `pv.sdot*` with the lane math monomorphized per
    /// `(fmt, sign)` (dispatched through [`pulp_isa::simd::dotp`]).
    Dot {
        acc: bool,
        fmt: SimdFmt,
        sign: DotSign,
        rd: Reg,
        rs1: Reg,
        op2: DotOp2,
    },
}

impl USpec {
    /// True for the burst-eligible shapes: single-cycle ops that
    /// redirect control only through the hardware-loop rule, so runs
    /// of them can retire as one counter-batched burst
    /// (`Core::seg_burst`) as well as one by one. `Core::exec_burst`
    /// holds each one's only body.
    #[inline]
    pub(crate) fn is_burst(&self) -> bool {
        !matches!(
            self,
            USpec::Generic | USpec::Branch { .. } | USpec::Jal { .. }
        )
    }
}

#[inline(always)]
pub(crate) fn dot_spec(
    fmt: SimdFmt,
    sign: DotSign,
    rd: Reg,
    rs1: Reg,
    op2: SimdOperand,
    acc: bool,
) -> USpec {
    let op2 = match op2 {
        SimdOperand::Vector(r) => DotOp2::Vector(r),
        SimdOperand::Scalar(r) => DotOp2::Scalar(r),
        SimdOperand::Imm(i) => DotOp2::Replicated(pulp_isa::simd::replicate(fmt, i as i32 as u32)),
    };
    USpec::Dot {
        acc,
        fmt,
        sign,
        rd,
        rs1,
        op2,
    }
}

/// Classifies the decoded instruction `$instr` into its specialized
/// execution form (or [`USpec::Generic`]) and passes that form to the
/// callable `$k`, spelled out once per arm. [`specialize`] passes it
/// through; the interpreter's step passes a closure that executes it,
/// so once inlined every arm runs its shape's body directly instead of
/// dispatching a second time on the form. Pure function of the
/// instruction — no ISA-config dependence, so cached blocks stay valid
/// per config.
macro_rules! with_spec {
    ($instr:expr, $k:expr) => {{
        use ::pulp_isa::instr::{Instr, LoadKind};
        use $crate::fastpath::{dot_spec, USpec};
        match $instr {
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => $k(USpec::Branch {
                cond,
                rs1,
                rs2,
                offset: offset as u32,
            }),
            Instr::Jal { rd, offset } => $k(USpec::Jal {
                rd,
                offset: offset as u32,
            }),
            Instr::Lui { rd, imm } => $k(USpec::Lui { rd, imm }),
            Instr::Auipc { rd, imm } => $k(USpec::Auipc { rd, imm }),
            Instr::Alu { op, rd, rs1, rs2 } => $k(USpec::Alu { op, rd, rs1, rs2 }),
            Instr::AluImm { op, rd, rs1, imm } => $k(USpec::AluImm {
                op,
                rd,
                rs1,
                imm: imm as u32,
            }),
            Instr::Load {
                kind: LoadKind::Word,
                rd,
                rs1,
                offset,
            } => $k(USpec::LoadW {
                rd,
                rs1,
                offset: offset as u32,
            }),
            Instr::Load {
                kind,
                rd,
                rs1,
                offset,
            } => $k(USpec::Load {
                kind,
                rd,
                rs1,
                offset: offset as u32,
            }),
            Instr::LoadPostInc {
                kind: LoadKind::Word,
                rd,
                rs1,
                offset,
            } => $k(USpec::LoadWPostInc {
                rd,
                rs1,
                offset: offset as u32,
            }),
            Instr::LoadPostInc {
                kind,
                rd,
                rs1,
                offset,
            } => $k(USpec::LoadPostInc {
                kind,
                rd,
                rs1,
                offset: offset as u32,
            }),
            Instr::Store {
                kind,
                rs1,
                rs2,
                offset,
            } => match kind.size() {
                4 => $k(USpec::StoreW {
                    rs1,
                    rs2,
                    offset: offset as u32,
                }),
                size => $k(USpec::Store {
                    size,
                    rs1,
                    rs2,
                    offset: offset as u32,
                }),
            },
            Instr::StorePostInc {
                kind,
                rs1,
                rs2,
                offset,
            } => match kind.size() {
                4 => $k(USpec::StoreWPostInc {
                    rs1,
                    rs2,
                    offset: offset as u32,
                }),
                size => $k(USpec::StorePostInc {
                    size,
                    rs1,
                    rs2,
                    offset: offset as u32,
                }),
            },
            Instr::PvDot {
                fmt,
                sign,
                rd,
                rs1,
                op2,
            } => $k(dot_spec(fmt, sign, rd, rs1, op2, false)),
            Instr::PvSdot {
                fmt,
                sign,
                rd,
                rs1,
                op2,
            } => $k(dot_spec(fmt, sign, rd, rs1, op2, true)),
            _ => $k(USpec::Generic),
        }
    }};
}
pub(crate) use with_spec;

/// The specialized execution form of one decoded instruction (see
/// [`with_spec`]).
pub(crate) fn specialize(instr: &Instr) -> USpec {
    with_spec!(*instr, |spec| spec)
}

/// A decoded straight-line span. Blocks are immutable once formed and
/// shared via [`Arc`] so a `Core` clone (or a cluster hart running on
/// another thread) is cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// PC of the first op (the cache key).
    pub start: u32,
    /// The pre-decoded run; never empty.
    pub ops: Vec<Op>,
}

/// Block-cache event counters (host-side instrumentation; these never
/// influence simulated state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Ops served from cache (cursor or table hit).
    pub hits: u64,
    /// Ops served by a fresh translation's first instruction.
    pub misses: u64,
    /// Blocks translated.
    pub translations: u64,
    /// Total ops across all translations.
    pub translated_ops: u64,
    /// Lookups at an untranslatable PC (the instruction there fails to
    /// fetch, decode or extension-check, so its trap is returned).
    pub interp_fallbacks: u64,
    /// Whole-cache flushes (restore/reset/SMC/ISA change/capacity).
    pub invalidations: u64,
}

impl FastPathStats {
    /// Fraction of fast-path steps served from the cache, in `0..=1`
    /// (`1.0` for an idle cache, so a fresh core reads as "no misses").
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.interp_fallbacks;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A deliberate, switchable fast-path defect.
///
/// Test-only by convention (mirrors `conformance`'s `RefBug`): the
/// lockstep oracle and the divergence shrinker are themselves validated
/// by arming a known bug and proving they catch and minimize it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FastBug {
    /// No defect: the fast path is faithful.
    #[default]
    None,
    /// Drops every PC redirect after a cached op retires (taken
    /// branches, jumps and hardware-loop back-edges all fall through
    /// sequentially). Any control transfer diverges, so the shrinker
    /// should land a repro of just a few instructions.
    SquashRedirects,
}

/// The per-core decoded-block cache.
///
/// Lookup is a direct-mapped table rather than a hash map: the hot
/// path — a hardware-loop back-edge redirecting to the head of the
/// block currently on the cursor — never touches the table at all,
/// and a genuine table probe is one masked index plus a tag compare.
#[derive(Debug, Clone)]
pub struct BlockCache {
    slots: Vec<Option<Arc<Block>>>,
    /// Indices of the occupied `slots`, so a flush touches only those
    /// (a run fills a few dozen of the 4096).
    filled: Vec<usize>,
    /// The block being replayed and the index of the *next* op —
    /// consecutive ops (and back-edges to the block head) are served
    /// without touching the table.
    cursor: Option<(Arc<Block>, usize)>,
    isa: IsaConfig,
    /// Byte span covered by every fetch the translator has performed
    /// (`lo > hi` ⇒ empty). Stores intersecting it are self-modifying.
    code_lo: u32,
    code_hi: u32,
    /// Event counters.
    pub stats: FastPathStats,
    /// Armed defect (test-only; see [`FastBug`]).
    pub(crate) bug: FastBug,
}

impl BlockCache {
    /// An empty cache for a core configured with `isa`.
    pub(crate) fn new(isa: IsaConfig) -> BlockCache {
        BlockCache {
            slots: vec![None; BLOCK_SLOTS],
            filled: Vec::new(),
            cursor: None,
            isa,
            code_lo: u32::MAX,
            code_hi: 0,
            stats: FastPathStats::default(),
            bug: FastBug::None,
        }
    }

    /// Drops every cached block and the covered-code span.
    pub(crate) fn flush(&mut self) {
        for slot in self.filled.drain(..) {
            self.slots[slot] = None;
        }
        self.cursor = None;
        self.code_lo = u32::MAX;
        self.code_hi = 0;
        self.stats.invalidations += 1;
    }

    /// True when a `size`-byte access at `addr` intersects any region
    /// the translator has fetched instructions from.
    pub(crate) fn covers_code(&self, addr: u32, size: u32) -> bool {
        addr < self.code_hi && addr.saturating_add(size) > self.code_lo
    }

    /// Resolves the block containing the core's current PC: cursor,
    /// back-edge wrap, table probe, then fresh translation (after
    /// re-keying the cache if the core's ISA changed). Returns
    /// `(block, index, fresh)`; the caller owns hit accounting for the
    /// ops it actually retires (`fresh` marks that the first op was
    /// already counted as the translation's miss) and parks the cursor
    /// with [`BlockCache::resume_at`].
    ///
    /// # Errors
    ///
    /// The trap of the instruction at the PC when it fails to fetch,
    /// decode or extension-check — exactly the interpreter's trap.
    pub(crate) fn current_run<B: Bus>(
        &mut self,
        core: &Core,
        bus: &mut B,
    ) -> Result<(Arc<Block>, usize, bool), Trap> {
        if self.isa != core.isa {
            // Extension checks ran at translation: blocks from another
            // configuration are unusable.
            self.flush();
            self.isa = core.isa;
        }
        let pc = core.pc;
        if let Some((block, idx)) = &self.cursor {
            if block.ops.get(*idx).is_some_and(|op| op.pc == pc) {
                return Ok((Arc::clone(block), *idx, false));
            }
            // Back-edge to the head of the very block on the cursor
            // (the hardware-loop steady state): no table probe.
            if block.start == pc {
                return Ok((Arc::clone(block), 0, false));
            }
        }
        if let Some(block) = &self.slots[Self::slot_of(pc)] {
            if block.start == pc {
                return Ok((Arc::clone(block), 0, false));
            }
        }
        self.translate(core, bus, pc).map(|b| (b, 0, true))
    }

    /// Parks the cursor at `ops[idx]` of `block`, so the next lookup
    /// (a single step or a resumed run) continues from the same
    /// pre-decoded position.
    pub(crate) fn resume_at(&mut self, block: Arc<Block>, idx: usize) {
        self.cursor = Some((block, idx));
    }

    /// Direct-mapped slot of a block start. Instructions are at least
    /// 2-byte aligned, so `pc >> 1` spreads starts densely.
    #[inline]
    fn slot_of(pc: u32) -> usize {
        ((pc >> 1) as usize) & (BLOCK_SLOTS - 1)
    }

    /// Decodes a fresh block starting at `pc`, caches it, and returns
    /// it (with the cursor primed past the first op).
    fn translate<B: Bus>(
        &mut self,
        core: &Core,
        bus: &mut B,
        start: u32,
    ) -> Result<Arc<Block>, Trap> {
        let mut ops = Vec::new();
        let mut pc = start;
        while ops.len() < MAX_BLOCK_OPS {
            let op = match core.decode_checked(bus, pc) {
                Ok((instr, ilen)) => Op {
                    pc,
                    ilen,
                    instr,
                    spec: specialize(&instr),
                },
                Err(trap) if ops.is_empty() => {
                    self.cursor = None;
                    self.stats.interp_fallbacks += 1;
                    return Err(trap);
                }
                Err(_) => break,
            };
            self.code_lo = self.code_lo.min(pc);
            self.code_hi = self.code_hi.max(pc.wrapping_add(op.ilen));
            ops.push(op);
            if matches!(
                op.instr,
                Instr::Jal { .. }
                    | Instr::Jalr { .. }
                    | Instr::Branch { .. }
                    | Instr::Ecall
                    | Instr::Ebreak
            ) {
                break;
            }
            pc = pc.wrapping_add(op.ilen);
        }
        self.stats.translations += 1;
        self.stats.translated_ops += ops.len() as u64;
        self.stats.misses += 1;
        let block = Arc::new(Block { start, ops });
        // Direct-mapped: a colliding start simply evicts the old block
        // (it re-translates if re-entered), which also bounds the
        // cache at `BLOCK_SLOTS` without a capacity flush.
        let slot = Self::slot_of(start);
        if self.slots[slot].replace(Arc::clone(&block)).is_none() {
            self.filled.push(slot);
        }
        self.cursor = Some((Arc::clone(&block), 1));
        Ok(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::SliceMem;
    use crate::core::{Core, IsaConfig, Trap};
    use pulp_asm::Asm;
    use pulp_isa::Reg;

    /// Assembles, then runs the program twice — interpreter vs fast
    /// path — and asserts full architectural + counter identity.
    fn assert_paths_agree(build: impl Fn(&mut Asm)) -> (Core, Core) {
        let mut a = Asm::new(0);
        build(&mut a);
        let prog = a.assemble().expect("assembly failed");

        let run = |fast: bool| {
            let mut mem = SliceMem::new(0, 1 << 16);
            mem.load_program(&prog);
            let mut core = Core::new(IsaConfig::xpulpnn());
            core.pc = prog.base;
            if fast {
                core.enable_fastpath();
            }
            let exit = core.run(&mut mem, 1_000_000).expect("trap");
            assert!(exit.halted);
            (core, mem)
        };
        let (interp, imem) = run(false);
        let (fast, fmem) = run(true);
        assert_eq!(interp.regs, fast.regs);
        assert_eq!(interp.pc, fast.pc);
        assert_eq!(interp.perf, fast.perf);
        assert_eq!(imem.as_bytes(), fmem.as_bytes());
        (interp, fast)
    }

    #[test]
    fn straight_line_and_branches_are_bit_exact() {
        assert_paths_agree(|a| {
            a.li(Reg::A0, 0);
            a.li(Reg::A1, 10);
            a.label("loop");
            a.addi(Reg::A0, Reg::A0, 3);
            a.addi(Reg::A1, Reg::A1, -1);
            a.bne(Reg::A1, Reg::Zero, "loop");
            a.ecall();
        });
    }

    #[test]
    fn hardware_loops_are_bit_exact_and_mostly_cached() {
        let (_, fast) = assert_paths_agree(|a| {
            a.li(Reg::A0, 0);
            a.li(Reg::T0, 100);
            a.lp_setup(pulp_isa::instr::LoopIdx::L0, Reg::T0, "end");
            a.addi(Reg::A0, Reg::A0, 1);
            a.addi(Reg::A0, Reg::A0, 1);
            a.label("end");
            a.nop();
            a.ecall();
        });
        assert_eq!(fast.reg(Reg::A0), 200);
        let stats = fast.fastpath_stats().expect("fastpath enabled");
        assert!(
            stats.hit_rate() > 0.9,
            "loop body should be cache-served: {stats:?}"
        );
        assert_eq!(stats.interp_fallbacks, 0);
    }

    #[test]
    fn run_is_resumable_in_one_cycle_chunks_under_fastpath() {
        // Chunked budget-1 runs must land on exactly the same state as
        // one big run: the fast path's per-op budget check is the
        // interpreter's per-step check.
        let mut a = Asm::new(0);
        a.li(Reg::A0, 5);
        a.li(Reg::A1, 3);
        a.label("loop");
        a.addi(Reg::A0, Reg::A0, 7);
        a.addi(Reg::A1, Reg::A1, -1);
        a.bne(Reg::A1, Reg::Zero, "loop");
        a.ecall();
        let prog = a.assemble().unwrap();

        let mut mem = SliceMem::new(0, 1 << 16);
        mem.load_program(&prog);
        let mut one = Core::new(IsaConfig::xpulpnn());
        one.enable_fastpath();
        one.pc = prog.base;
        let exit_one = one.run(&mut mem, 10_000).unwrap();

        let mut mem = SliceMem::new(0, 1 << 16);
        mem.load_program(&prog);
        let mut chunked = Core::new(IsaConfig::xpulpnn());
        chunked.enable_fastpath();
        chunked.pc = prog.base;
        let exit_chunked = loop {
            match chunked.run(&mut mem, 1) {
                Ok(exit) => break exit,
                Err(Trap::Watchdog { .. }) => {}
                Err(t) => panic!("unexpected trap {t}"),
            }
        };
        assert_eq!(exit_one, exit_chunked);
        assert_eq!(one.regs, chunked.regs);
        assert_eq!(one.perf, chunked.perf);
    }

    #[test]
    fn extension_fault_pc_matches_interpreter() {
        let mut a = Asm::new(0);
        a.li(Reg::A0, 1);
        a.i(Instr::PvAlu {
            op: pulp_isa::instr::SimdAluOp::Add,
            fmt: pulp_isa::simd::SimdFmt::Nibble,
            rd: Reg::A1,
            rs1: Reg::A0,
            op2: pulp_isa::instr::SimdOperand::Vector(Reg::A0),
        });
        a.ecall();
        let prog = a.assemble().unwrap();

        let trap_of = |fast: bool| {
            let mut mem = SliceMem::new(0, 1 << 16);
            mem.load_program(&prog);
            let mut core = Core::new(IsaConfig::xpulpv2());
            if fast {
                core.enable_fastpath();
            }
            core.pc = prog.base;
            let trap = core.run(&mut mem, 1000).unwrap_err();
            (trap, core.pc, core.perf)
        };
        assert_eq!(trap_of(false), trap_of(true));
        let (trap, _, _) = trap_of(true);
        assert!(matches!(
            trap,
            Trap::ExtensionFault {
                required: "xpulpnn",
                ..
            }
        ));
    }

    #[test]
    fn self_modifying_store_invalidates_cached_blocks() {
        // The program patches the instruction at `patchme` from
        // `addi a0, a0, 1` to `addi a0, a0, 64` *after* the fast path
        // has already fetched and cached it, then loops back through it.
        let build = |a: &mut Asm| {
            a.li(Reg::A0, 0);
            a.li(Reg::T1, 2); // outer trip count
            a.label("loop");
            a.label("patchme");
            a.addi(Reg::A0, Reg::A0, 1);
            // Patch: addi a0, a0, 64 == 0x04050513
            a.li(Reg::T0, 0x0405_0513);
            a.la(Reg::T2, "patchme");
            a.sw(Reg::T0, 0, Reg::T2);
            a.addi(Reg::T1, Reg::T1, -1);
            a.bne(Reg::T1, Reg::Zero, "loop");
            a.ecall();
        };
        let (interp, fast) = assert_paths_agree(build);
        // First pass adds 1, second pass executes the patched add.
        assert_eq!(interp.reg(Reg::A0), 65);
        assert_eq!(fast.reg(Reg::A0), 65);
        let stats = fast.fastpath_stats().unwrap();
        assert!(stats.invalidations >= 1, "SMC must flush: {stats:?}");
    }

    #[test]
    fn restore_after_self_modification_does_not_replay_stale_blocks() {
        // Regression for the snapshot/rollback coherence invariant:
        // checkpoint *before* a store to fetched code, let the store
        // land (cache flushed), roll the core *and* memory back, and
        // make sure the re-run still executes the original instruction
        // rather than a stale decoded copy — and vice versa: a restore
        // must also drop blocks decoded from pre-patch code when the
        // restorer rewrites memory underneath the core.
        let mut a = Asm::new(0);
        a.label("patchme");
        a.addi(Reg::A0, Reg::A0, 1);
        a.ecall();
        let prog = a.assemble().unwrap();

        let mut mem = SliceMem::new(0, 1 << 16);
        mem.load_program(&prog);
        let mut core = Core::new(IsaConfig::xpulpnn());
        core.enable_fastpath();
        core.pc = prog.base;

        // Run once: `patchme` is now decoded and cached.
        let snap = core.snapshot();
        let mem_snap = mem.as_bytes().to_vec();
        let exit = core.run(&mut mem, 1000).unwrap();
        assert_eq!(exit.exit_code, 1);

        // Host-side patch (simulates the restorer replaying a different
        // memory image): addi a0, a0, 64.
        mem.as_bytes_mut()[0..4].copy_from_slice(&0x0405_0513u32.to_le_bytes());
        core.restore(&snap);
        let exit = core.run(&mut mem, 1000).unwrap();
        assert_eq!(
            exit.exit_code, 64,
            "restore must not replay the stale decoded block"
        );

        // Roll memory back too and confirm interpreter identity.
        mem.as_bytes_mut().copy_from_slice(&mem_snap);
        core.restore(&snap);
        let exit = core.run(&mut mem, 1000).unwrap();
        assert_eq!(exit.exit_code, 1);

        let mut interp = Core::new(IsaConfig::xpulpnn());
        interp.restore(&snap);
        let mut imem = SliceMem::new(0, 1 << 16);
        imem.as_bytes_mut().copy_from_slice(&mem_snap);
        let iexit = interp.run(&mut imem, 1000).unwrap();
        assert_eq!(iexit, exit);
        assert_eq!(interp.regs, core.regs);
        assert_eq!(interp.perf, core.perf);
    }

    #[test]
    fn squash_redirects_bug_diverges_on_a_taken_branch() {
        let mut a = Asm::new(0);
        a.li(Reg::A0, 0);
        a.li(Reg::A1, 1);
        a.bne(Reg::A1, Reg::Zero, "skip"); // taken
        a.li(Reg::A0, 99); // must be skipped
        a.label("skip");
        a.ecall();
        let prog = a.assemble().unwrap();

        let run = |bug: FastBug| {
            let mut mem = SliceMem::new(0, 1 << 16);
            mem.load_program(&prog);
            let mut core = Core::new(IsaConfig::xpulpnn());
            core.enable_fastpath();
            core.set_fastpath_bug(bug);
            core.pc = prog.base;
            core.run(&mut mem, 1000).map(|e| e.exit_code)
        };
        assert_eq!(run(FastBug::None), Ok(0));
        assert_eq!(run(FastBug::SquashRedirects), Ok(99));
    }
}
