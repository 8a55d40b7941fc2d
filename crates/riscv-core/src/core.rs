//! The RI5CY core model: architectural state, functional execution and
//! the pipeline timing rules of [`crate::timing`].

use crate::bus::{Bus, BusError};
use crate::fastpath::{with_spec, BlockCache, DotOp2, FastBug, FastPathStats, Op, USpec};
use crate::perf::{fmt_index, CycleClass, PerfCounters};
use crate::quant;
use crate::timing;
use crate::trace::ExecTracer;
use pulp_isa::decode::decode;
use pulp_isa::instr::{Instr, LoadKind, SimdOperand};
use pulp_isa::simd::{self, SimdFmt};
use pulp_isa::{csr, Reg};
use rvv_vec::{VecError, VecMem, VecMemFault, VecUnit};
use std::collections::BTreeMap;
use std::fmt;

/// Which ISA extensions the core implements.
///
/// The paper compares a baseline RI5CY (`RV32IM` + XpulpV2) against the
/// extended core (additionally XpulpNN); instructions outside the
/// configured set raise [`Trap::ExtensionFault`], exactly as executing an
/// XpulpNN binary on the unextended silicon would trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsaConfig {
    /// XpulpV2: hardware loops, post-increment memory ops, `p.*` scalar
    /// ops, 8/16-bit SIMD.
    pub xpulpv2: bool,
    /// XpulpNN: 4/2-bit SIMD and `pv.qnt`.
    pub xpulpnn: bool,
    /// Xrvv: the RVV-style sub-byte vector unit (the comparison
    /// backend, see the `rvv-vec` crate and DESIGN.md §15).
    pub rvv: bool,
}

impl IsaConfig {
    /// Plain RV32IM, no PULP extensions.
    pub const fn rv32im() -> IsaConfig {
        IsaConfig {
            xpulpv2: false,
            xpulpnn: false,
            rvv: false,
        }
    }

    /// The baseline RI5CY of the paper: RV32IM + XpulpV2.
    pub const fn xpulpv2() -> IsaConfig {
        IsaConfig {
            xpulpv2: true,
            xpulpnn: false,
            rvv: false,
        }
    }

    /// The paper's extended core: RV32IM + XpulpV2 + XpulpNN.
    pub const fn xpulpnn() -> IsaConfig {
        IsaConfig {
            xpulpv2: true,
            xpulpnn: true,
            rvv: false,
        }
    }

    /// The vector comparison backend: RV32IM + XpulpV2 + the Xrvv
    /// vector unit (no XpulpNN packed SIMD — the two sub-byte
    /// datapaths are alternatives, which is the point of the
    /// comparison).
    pub const fn vector() -> IsaConfig {
        IsaConfig {
            xpulpv2: true,
            xpulpnn: false,
            rvv: true,
        }
    }

    /// Human-readable ISA string.
    pub fn name(&self) -> &'static str {
        match (self.xpulpv2, self.xpulpnn, self.rvv) {
            (false, _, false) => "rv32im",
            (false, _, true) => "rv32im+xrvv",
            (true, false, false) => "rv32im+xpulpv2",
            (true, true, false) => "rv32im+xpulpv2+xpulpnn",
            (true, false, true) => "rv32im+xpulpv2+xrvv",
            (true, true, true) => "rv32im+xpulpv2+xpulpnn+xrvv",
        }
    }
}

impl Default for IsaConfig {
    fn default() -> Self {
        IsaConfig::xpulpnn()
    }
}

/// An execution trap; terminates simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Undecodable instruction word.
    IllegalInstruction {
        /// PC of the faulting fetch.
        pc: u32,
        /// The raw word.
        word: u32,
    },
    /// A decodable instruction from an extension this core does not
    /// implement ([`IsaConfig`]).
    ExtensionFault {
        /// PC of the faulting instruction.
        pc: u32,
        /// `"xpulpv2"`, `"xpulpnn"` or `"xrvv"`.
        required: &'static str,
    },
    /// A data access or fetch left mapped memory.
    Bus {
        /// PC of the faulting instruction.
        pc: u32,
        /// The underlying bus fault.
        error: BusError,
    },
    /// `ebreak` executed.
    Breakpoint {
        /// PC of the breakpoint.
        pc: u32,
    },
    /// A [`Core::run`]-style loop exhausted its cycle budget before the
    /// program halted.
    Watchdog {
        /// PC when the budget ran out.
        pc: u32,
        /// The exhausted budget, in cycles.
        budget: u64,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::IllegalInstruction { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at pc {pc:#010x}")
            }
            Trap::ExtensionFault { pc, required } => {
                write!(
                    f,
                    "instruction at pc {pc:#010x} requires the {required} extension"
                )
            }
            Trap::Bus { pc, error } => write!(f, "{error} at pc {pc:#010x}"),
            Trap::Breakpoint { pc } => write!(f, "breakpoint at pc {pc:#010x}"),
            Trap::Watchdog { pc, budget } => {
                write!(
                    f,
                    "watchdog: cycle budget ({budget}) exhausted at pc {pc:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for Trap {}

/// Why [`Core::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExitStatus {
    /// True if the program executed `ecall` (normal halt). Budget
    /// exhaustion is reported as [`Trap::Watchdog`], so a successful
    /// return always has `halted == true`; the field is kept so callers
    /// can assert the invariant they rely on.
    pub halted: bool,
    /// Value of `a0` at the halt (exit code convention).
    pub exit_code: u32,
    /// Final program counter.
    pub pc: u32,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct HwLoop {
    start: u32,
    end: u32,
    count: u32,
}

/// How a burst-eligible op retired ([`Core::exec_burst`]): selects
/// the counter and the one-cycle ledger class its retire books.
#[derive(Clone, Copy)]
enum Retired {
    Alu,
    Load,
    /// The bytes written, for the self-modifying-code check.
    Store {
        addr: u32,
        size: u32,
    },
    Dot(SimdFmt),
}

/// Exit disposition of a [`Core::seg_burst`] run. On either variant
/// the burst has flushed its batched counters and materialized
/// `self.pc`, so architectural state is exact.
enum SegExit {
    /// Replay continues inside the same block at this op index (the op
    /// there is not burst-eligible, or the burst budget ran out).
    At(usize),
    /// Control left the block (hardware-loop redirect elsewhere, fell
    /// off the end, or a self-modifying store flushed the cache): the
    /// caller must re-resolve at `self.pc`.
    Out,
}

/// A checkpoint of the full architectural state of a [`Core`]: pc,
/// register file, CSRs, hardware-loop state, and every performance
/// counter including the cycle ledger. Restoring it and re-executing
/// on an identical bus image reproduces the original run cycle for
/// cycle, which is what makes fault replay and rollback recovery
/// deterministic.
///
/// The attached [`ExecTracer`] is deliberately *not* part of the
/// snapshot: it is a forensic aid, not architectural state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    regs: [u32; 32],
    pc: u32,
    isa: IsaConfig,
    perf: PerfCounters,
    hwloops: [HwLoop; 2],
    csrs: BTreeMap<u16, u32>,
    hartid: u32,
    // Vector-unit state (registers, vl, SEW) when the core has one;
    // tail-zero semantics make the whole register file well-defined.
    vec: Option<Box<VecUnit>>,
}

impl Snapshot {
    /// Program counter at the checkpoint.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Cycle count at the checkpoint.
    pub fn cycles(&self) -> u64 {
        self.perf.cycles
    }

    /// Folds the architectural state into an FNV-1a style accumulator:
    /// register file, pc, hart id, hardware-loop state, CSRs, and the
    /// headline counters. Integrity checks (e.g. serving-template
    /// checksums) use this to detect a corrupted checkpoint before it
    /// is restored into a live core.
    pub fn fold_fnv(&self, h: &mut u64) {
        let mut fold = |x: u64| {
            *h ^= x;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for &r in &self.regs {
            fold(u64::from(r));
        }
        fold(u64::from(self.pc));
        fold(u64::from(self.hartid));
        for l in &self.hwloops {
            fold(u64::from(l.start));
            fold(u64::from(l.end));
            fold(u64::from(l.count));
        }
        for (&csr, &v) in &self.csrs {
            fold(u64::from(csr));
            fold(u64::from(v));
        }
        fold(self.perf.cycles);
        fold(self.perf.instret);
        if let Some(vec) = &self.vec {
            vec.fold_fnv(h);
        }
    }
}

/// The core model. See the crate docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Core {
    /// Integer register file; index 0 reads as zero.
    pub regs: [u32; 32],
    /// Program counter.
    pub pc: u32,
    /// Implemented extensions.
    pub isa: IsaConfig,
    /// Accumulated event counters.
    pub perf: PerfCounters,
    hwloops: [HwLoop; 2],
    csrs: BTreeMap<u16, u32>,
    hartid: u32,
    // The Xrvv vector unit; created at construction when the ISA has
    // `rvv`, or lazily on first vector-instruction retire if `isa` is
    // flipped afterwards. Boxed: 1 KiB of vector registers should not
    // burden every scalar-only core clone.
    vec: Option<Box<VecUnit>>,
    // Boxed so the untraced hot path carries one pointer, not the ring.
    tracer: Option<Box<ExecTracer>>,
    // Decoded-block cache; `None` means pure interpretation. Boxed for
    // the same reason as the tracer. Not architectural state: it never
    // appears in a `Snapshot` and is flushed on `restore`/`reset`.
    fastpath: Option<Box<BlockCache>>,
}

impl Core {
    /// Creates a core with zeroed state (hart 0).
    pub fn new(isa: IsaConfig) -> Core {
        Core::with_hartid(isa, 0)
    }

    /// Creates a core wired as hart `hartid` of a cluster: `csrr
    /// mhartid` returns the given id, everything else starts zeroed.
    pub fn with_hartid(isa: IsaConfig, hartid: u32) -> Core {
        Core {
            regs: [0; 32],
            pc: 0,
            isa,
            perf: PerfCounters::new(),
            hwloops: [HwLoop::default(); 2],
            csrs: BTreeMap::new(),
            hartid,
            vec: if isa.rvv {
                Some(Box::new(VecUnit::new(rvv_vec::DEFAULT_VLEN_BITS)))
            } else {
                None
            },
            tracer: None,
            fastpath: None,
        }
    }

    /// (Re)configures the vector unit's `VLEN`, zeroing its state. The
    /// unit exists afterwards even if `isa.rvv` is false (execution
    /// still traps until the extension is enabled).
    ///
    /// # Panics
    ///
    /// Panics unless `vlen_bits` is a power of two in `32..=256`
    /// ([`VecUnit::new`]).
    pub fn set_vlen(&mut self, vlen_bits: u32) {
        self.vec = Some(Box::new(VecUnit::new(vlen_bits)));
    }

    /// The vector unit, if this core has one.
    pub fn vector_unit(&self) -> Option<&VecUnit> {
        self.vec.as_deref()
    }

    /// Enables the decoded-block fast path: basic blocks are decoded
    /// once, cached by PC, and replayed through the same execution
    /// routine the interpreter uses, so architectural state and every
    /// cycle counter stay bit-exact. The cache is invalidated on
    /// [`Core::restore`], [`Core::reset`] and self-modifying stores;
    /// execution falls back to pure interpretation whenever a tracer is
    /// attached (see [`crate::fastpath`] for the fallback matrix).
    pub fn enable_fastpath(&mut self) {
        if self.fastpath.is_none() {
            self.fastpath = Some(Box::new(BlockCache::new(self.isa)));
        }
    }

    /// Disables the fast path and drops the block cache. Used by
    /// drivers that need guaranteed step-by-step interpretation, e.g.
    /// an armed fault-injection loop that mutates state behind the
    /// core's back.
    pub fn disable_fastpath(&mut self) {
        self.fastpath = None;
    }

    /// True when the decoded-block fast path is enabled.
    pub fn fastpath_enabled(&self) -> bool {
        self.fastpath.is_some()
    }

    /// Drops every cached decoded block (the fast path stays enabled).
    /// Call after host-side writes that bypass the bus and may touch
    /// already-fetched code; stores executed *by the core* are detected
    /// and invalidate automatically.
    pub fn invalidate_fastpath(&mut self) {
        if let Some(fp) = &mut self.fastpath {
            fp.flush();
        }
    }

    /// Block-cache statistics, if the fast path is enabled.
    pub fn fastpath_stats(&self) -> Option<FastPathStats> {
        self.fastpath.as_ref().map(|fp| fp.stats)
    }

    /// Arms a deliberate fast-path defect (test-only, mirrors
    /// `conformance::RefBug`): the lockstep oracle and its shrinker are
    /// validated by proving they catch and minimize a known bug. No
    /// effect unless the fast path is enabled.
    pub fn set_fastpath_bug(&mut self, bug: FastBug) {
        if let Some(fp) = &mut self.fastpath {
            fp.bug = bug;
        }
    }

    /// The hart id `csrr mhartid` reports (0 for a standalone core).
    pub fn hartid(&self) -> u32 {
        self.hartid
    }

    /// Attaches an execution tracer keeping the last `capacity` retired
    /// instructions (replacing any existing tracer). Tracing costs a hash
    /// update per retired instruction, so attach it only for forensic
    /// re-runs or profiling passes.
    pub fn attach_tracer(&mut self, capacity: usize) {
        self.tracer = Some(Box::new(ExecTracer::new(capacity)));
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&ExecTracer> {
        self.tracer.as_deref()
    }

    /// Detaches and returns the tracer, leaving the core untraced.
    pub fn take_tracer(&mut self) -> Option<Box<ExecTracer>> {
        self.tracer.take()
    }

    /// Reads a register (x0 is always zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register; writes to x0 are discarded.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::Zero {
            self.regs[r.index()] = v;
        }
    }

    /// Captures a checkpoint of the full architectural state.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            regs: self.regs,
            pc: self.pc,
            isa: self.isa,
            perf: self.perf,
            hwloops: self.hwloops,
            csrs: self.csrs.clone(),
            hartid: self.hartid,
            vec: self.vec.clone(),
        }
    }

    /// Restores a checkpoint taken with [`Core::snapshot`], rolling every
    /// architectural register and performance counter back to the values
    /// captured. An attached tracer stays attached untouched.
    pub fn restore(&mut self, snap: &Snapshot) {
        self.regs = snap.regs;
        self.pc = snap.pc;
        self.isa = snap.isa;
        self.perf = snap.perf;
        self.hwloops = snap.hwloops;
        self.csrs = snap.csrs.clone();
        self.hartid = snap.hartid;
        self.vec = snap.vec.clone();
        // The checkpoint may predate stores into already-fetched code
        // (and the restorer may roll the memory image back behind our
        // back), so every cached decoded block is suspect: drop them.
        self.invalidate_fastpath();
    }

    /// Resets architectural state (registers, PC, loops, counters). An
    /// attached tracer stays attached but starts over empty.
    pub fn reset(&mut self) {
        self.regs = [0; 32];
        self.pc = 0;
        self.perf = PerfCounters::new();
        self.hwloops = [HwLoop::default(); 2];
        self.csrs.clear();
        if let Some(vec) = &mut self.vec {
            **vec = VecUnit::new(vec.vlen_bits());
        }
        if let Some(t) = &mut self.tracer {
            **t = ExecTracer::new(t.capacity());
        }
        self.invalidate_fastpath();
    }

    fn csr_read(&self, num: u16) -> u32 {
        match num {
            csr::MCYCLE => self.perf.cycles as u32,
            csr::MCYCLEH => (self.perf.cycles >> 32) as u32,
            csr::MINSTRET => self.perf.instret as u32,
            csr::MINSTRETH => (self.perf.instret >> 32) as u32,
            csr::MHARTID => self.hartid,
            csr::LPSTART0 => self.hwloops[0].start,
            csr::LPEND0 => self.hwloops[0].end,
            csr::LPCOUNT0 => self.hwloops[0].count,
            csr::LPSTART1 => self.hwloops[1].start,
            csr::LPEND1 => self.hwloops[1].end,
            csr::LPCOUNT1 => self.hwloops[1].count,
            other => self.csrs.get(&other).copied().unwrap_or(0),
        }
    }

    fn csr_write(&mut self, num: u16, value: u32) {
        self.csrs.insert(num, value);
    }

    /// Charges the stall of an access that crosses a word boundary
    /// (RI5CY splits it into two bus transactions).
    #[inline(always)]
    fn charge_misalign(&mut self, addr: u32, size: u32) {
        if timing::crosses_word_boundary(addr, size) {
            self.perf.cycles += timing::MISALIGN_PENALTY;
            self.perf.stall_cycles += timing::MISALIGN_PENALTY;
            self.perf
                .ledger
                .charge(CycleClass::MisalignStall, timing::MISALIGN_PENALTY);
        }
    }

    /// The data read of a load retiring at `pc`, misalign stall
    /// included. A load that completes is counted at its retire; a bus
    /// fault counts the faulting load here and becomes the trap, the
    /// partial-op state every path leaves behind.
    #[inline(always)]
    fn load<B: Bus>(&mut self, bus: &mut B, pc: u32, addr: u32, size: u32) -> Result<u32, Trap> {
        self.charge_misalign(addr, size);
        bus.read(addr, size).map_err(|error| {
            self.perf.loads += 1;
            Trap::Bus { pc, error }
        })
    }

    /// The data write of a store retiring at `pc`, counted like a load.
    #[inline(always)]
    fn store<B: Bus>(
        &mut self,
        bus: &mut B,
        pc: u32,
        addr: u32,
        size: u32,
        value: u32,
    ) -> Result<(), Trap> {
        self.charge_misalign(addr, size);
        bus.write(addr, size, value).map_err(|error| {
            self.perf.stores += 1;
            Trap::Bus { pc, error }
        })
    }

    /// Resolves the second operand of a SIMD instruction.
    fn simd_op2(&self, fmt: SimdFmt, op2: SimdOperand) -> u32 {
        match op2 {
            SimdOperand::Vector(r) => self.reg(r),
            SimdOperand::Scalar(r) => simd::replicate(fmt, self.reg(r)),
            SimdOperand::Imm(i) => simd::replicate(fmt, i as i32 as u32),
        }
    }

    fn check_extension(&self, instr: &Instr, pc: u32) -> Result<(), Trap> {
        let required = if instr.requires_rvv() && !self.isa.rvv {
            "xrvv"
        } else if instr.requires_xpulpnn() && !self.isa.xpulpnn {
            "xpulpnn"
        } else if instr.requires_xpulpv2() && !self.isa.xpulpv2 {
            "xpulpv2"
        } else {
            return Ok(());
        };
        Err(Trap::ExtensionFault { pc, required })
    }

    /// Applies the zero-overhead hardware-loop rule: when the retiring
    /// instruction is the last of an active loop body with remaining
    /// iterations, the next PC is the loop start.
    fn hwloop_next_pc(&mut self, retired_pc: u32, ilen: u32, fallthrough: u32) -> u32 {
        // Loop 0 is the innermost by RI5CY convention: check it first.
        for i in 0..2 {
            let lp = &mut self.hwloops[i];
            if lp.count > 0 && retired_pc + ilen == lp.end {
                if lp.count > 1 {
                    lp.count -= 1;
                    self.perf.hwloop_backs += 1;
                    return lp.start;
                }
                lp.count = 0;
            }
        }
        fallthrough
    }

    /// Fetches and decodes the instruction at the current PC without
    /// executing it (used by [`Core::run_traced`]).
    ///
    /// # Errors
    ///
    /// Bus faults on the fetch and illegal-instruction traps.
    pub fn fetch_decode<B: Bus>(&self, bus: &mut B) -> Result<(Instr, u32), Trap> {
        self.fetch_decode_at(bus, self.pc)
    }

    /// Fetches and decodes the instruction at an arbitrary PC without
    /// executing it (every step and the block translator decode with
    /// this).
    ///
    /// # Errors
    ///
    /// Bus faults on the fetch and illegal-instruction traps.
    pub fn fetch_decode_at<B: Bus>(&self, bus: &mut B, pc: u32) -> Result<(Instr, u32), Trap> {
        let word = bus.fetch(pc).map_err(|error| Trap::Bus { pc, error })?;
        // RV32C: a parcel whose low two bits are not 0b11 is a 16-bit
        // compressed instruction expanding to one base instruction.
        if pulp_isa::compressed::is_compressed(word) {
            let (_, instr) =
                pulp_isa::compressed::decode16(word as u16).ok_or(Trap::IllegalInstruction {
                    pc,
                    word: word & 0xffff,
                })?;
            Ok((instr, 2))
        } else {
            Ok((
                decode(word).map_err(|_| Trap::IllegalInstruction { pc, word })?,
                4,
            ))
        }
    }

    /// Fetches, decodes and extension-checks the instruction at `pc`:
    /// the interpreter's per-step decode and the block translator's.
    #[inline(always)]
    pub(crate) fn decode_checked<B: Bus>(
        &self,
        bus: &mut B,
        pc: u32,
    ) -> Result<(Instr, u32), Trap> {
        let (instr, ilen) = self.fetch_decode_at(bus, pc)?;
        self.check_extension(&instr, pc)?;
        Ok((instr, ilen))
    }

    /// Executes one instruction.
    ///
    /// Returns `Ok(true)` if the instruction was `ecall` (the halt
    /// convention), `Ok(false)` otherwise.
    ///
    /// When the fast path is enabled and no tracer is attached, the
    /// instruction comes from the decoded-block cache instead of a
    /// fetch+decode; architectural effects and cycle accounting are
    /// identical either way because both run the same specialized op
    /// through the same execution routine.
    ///
    /// # Errors
    ///
    /// Any [`Trap`]: illegal/unimplemented instructions, bus faults, or
    /// `ebreak`.
    pub fn step<B: Bus>(&mut self, bus: &mut B) -> Result<bool, Trap> {
        let mut fp = self.fastpath.take();
        let r = self.step_with(bus, fp.as_deref_mut());
        self.fastpath = fp;
        r
    }

    /// One retire against a (temporarily detached) block cache, if the
    /// fast path is enabled: the op comes from the cache unless a
    /// tracer is attached, else from a fresh decode, and is traced.
    /// Either way a store into fetched code flushes the cache.
    fn step_with<B: Bus>(
        &mut self,
        bus: &mut B,
        mut fp: Option<&mut BlockCache>,
    ) -> Result<bool, Trap> {
        if let Some(fp) = fp.as_deref_mut().filter(|_| self.tracer.is_none()) {
            let (block, idx, fresh) = fp.current_run(self, bus)?;
            fp.stats.hits += u64::from(!fresh);
            let op = block.ops[idx];
            fp.resume_at(block, idx + 1);
            let squash = fp.bug == FastBug::SquashRedirects;
            let (halted, _) = self.exec_spec(bus, Some(fp), &op)?;
            if squash && !halted {
                self.pc = op.pc.wrapping_add(op.ilen);
            }
            return Ok(halted);
        }
        let pc = self.pc;
        let (instr, ilen) = self.decode_checked(bus, pc)?;
        let cycles_at_entry = self.perf.cycles;
        let (halted, _) = with_spec!(instr, |spec| {
            self.exec_spec(
                bus,
                fp,
                &Op {
                    pc,
                    ilen,
                    instr,
                    spec,
                },
            )
        })?;
        if let Some(t) = &mut self.tracer {
            t.record(pc, instr, self.perf.cycles - cycles_at_entry);
        }
        Ok(halted)
    }

    /// The effective address and size of a `Generic` store, or `None`
    /// for every other instruction (the self-modifying-code check).
    fn store_target(&self, instr: &Instr) -> Option<(u32, u32)> {
        match *instr {
            Instr::StorePostIncReg { kind, rs1, .. } => Some((self.reg(rs1), kind.size())),
            // Vector stores report a conservative superset of the bytes
            // touched (SMC flushing must never under-approximate): the
            // whole register span for unit stride, everything for
            // strided (arbitrary stride, rare op).
            Instr::VStore { rs1, .. } => {
                let span = self
                    .vec
                    .as_ref()
                    .map_or(rvv_vec::MAX_VLEN_BYTES as u32, |v| v.vlen_bits() / 8);
                Some((self.reg(rs1), span))
            }
            Instr::VStoreStrided { .. } => Some((0, u32::MAX)),
            _ => None,
        }
    }

    /// Retire sequence of a specialized op that is *not* an explicit
    /// jump: hardware-loop rule, cycle/ledger charge, PC advance — the
    /// same tail as [`Core::exec_decoded`].
    #[inline]
    fn retire(&mut self, pc: u32, ilen: u32, class: CycleClass, cycles: u64) {
        let next_pc = self.hwloop_next_pc(pc, ilen, pc.wrapping_add(ilen));
        self.perf.cycles += cycles;
        self.perf.ledger.charge(class, cycles);
        debug_assert_eq!(
            self.perf.cycles,
            self.perf.ledger.total(),
            "cycle ledger out of balance at retire @ {pc:#010x}"
        );
        self.pc = next_pc;
    }

    /// Executes one op at the current PC (`op.pc == self.pc`): the
    /// per-op retire every step takes, interpreted or cached. Burst
    /// shapes run their one body ([`Core::exec_burst`]) and retire
    /// here; branches and `jal` are executed inline; everything else
    /// goes through [`Core::exec_decoded`]. Side effects match on
    /// every path: `instret` counts the op before its body, a faulting
    /// access leaves the misalign charge and its load/store count but
    /// no retire, and only non-jump retires take the hardware-loop
    /// rule.
    ///
    /// With a block cache `fp`, a store into fetched code flushes it
    /// after the store retires. Returns `(halted, flushed)`; a flush
    /// means any block the caller is replaying is stale and must be
    /// re-resolved.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] of the op, with the op's PC.
    #[inline(always)]
    fn exec_spec<B: Bus>(
        &mut self,
        bus: &mut B,
        fp: Option<&mut BlockCache>,
        op: &Op,
    ) -> Result<(bool, bool), Trap> {
        let (pc, ilen) = (op.pc, op.ilen);
        // The bytes a store wrote, for the self-modifying-code check.
        let mut stored = None;
        let halted = match op.spec {
            USpec::Generic => {
                if fp.is_some() {
                    stored = self.store_target(&op.instr);
                }
                self.exec_decoded(bus, op.instr, ilen)?
            }
            USpec::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                self.perf.instret += 1;
                self.perf.branches += 1;
                if cond.eval(self.reg(rs1), self.reg(rs2)) {
                    // A taken branch is an explicit jump: it bypasses
                    // the hardware-loop end check (RI5CY forbids
                    // branches as the last body instruction).
                    self.perf.branches_taken += 1;
                    self.perf.stall_cycles += timing::BRANCH_TAKEN_CYCLES - 1;
                    self.perf.cycles += timing::BRANCH_TAKEN_CYCLES;
                    self.perf
                        .ledger
                        .charge(CycleClass::Branch, timing::BRANCH_TAKEN_CYCLES);
                    self.pc = pc.wrapping_add(offset);
                } else {
                    self.retire(
                        pc,
                        ilen,
                        CycleClass::Branch,
                        timing::BRANCH_NOT_TAKEN_CYCLES,
                    );
                }
                false
            }
            USpec::Jal { rd, offset } => {
                self.perf.instret += 1;
                self.set_reg(rd, pc.wrapping_add(ilen));
                self.perf.jumps += 1;
                self.perf.cycles += timing::JUMP_CYCLES;
                self.perf
                    .ledger
                    .charge(CycleClass::Jump, timing::JUMP_CYCLES);
                self.pc = pc.wrapping_add(offset);
                false
            }
            // Nothing may run between the two matches on the shape, so
            // the compiler can fold them into one dispatch.
            spec => {
                let body = self.exec_burst(bus, pc, spec);
                self.perf.instret += 1;
                let (class, cycles) = match body? {
                    Retired::Alu => (CycleClass::Alu, timing::ALU_CYCLES),
                    Retired::Load => {
                        self.perf.loads += 1;
                        (CycleClass::Load, timing::MEM_CYCLES)
                    }
                    Retired::Store { addr, size } => {
                        self.perf.stores += 1;
                        stored = Some((addr, size));
                        (CycleClass::Store, timing::MEM_CYCLES)
                    }
                    Retired::Dot(fmt) => {
                        self.perf.dotp[fmt_index(fmt)] += 1;
                        (CycleClass::Dotp(fmt), timing::ALU_CYCLES)
                    }
                };
                self.retire(pc, ilen, class, cycles);
                false
            }
        };
        // The store's decoded form predates the overwrite, so every
        // cached block is dropped and the next op is re-fetched.
        let flushed = match (fp, stored) {
            (Some(fp), Some((addr, size))) if fp.covers_code(addr, size) => {
                fp.flush();
                true
            }
            _ => false,
        };
        Ok((halted, flushed))
    }

    /// The register, memory and misalign-stall effect of one
    /// burst-eligible op at `pc` ([`USpec::is_burst`]): the only body
    /// of each such shape, shared by the per-op retire ([`Core::exec_spec`]) and the
    /// batched one ([`Core::seg_burst`]). The caller books the retire —
    /// `instret`, the load/store/dot counter, the one-cycle ledger
    /// charge and the next PC — from the returned [`Retired`] kind.
    ///
    /// # Errors
    ///
    /// A bus fault on the access (see [`Core::load`]).
    #[inline(always)]
    fn exec_burst<B: Bus>(&mut self, bus: &mut B, pc: u32, spec: USpec) -> Result<Retired, Trap> {
        Ok(match spec {
            USpec::Lui { rd, imm } => {
                self.set_reg(rd, imm);
                Retired::Alu
            }
            USpec::Auipc { rd, imm } => {
                self.set_reg(rd, pc.wrapping_add(imm));
                Retired::Alu
            }
            USpec::Alu { op, rd, rs1, rs2 } => {
                let v = op.eval(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                Retired::Alu
            }
            USpec::AluImm { op, rd, rs1, imm } => {
                let v = op.eval(self.reg(rs1), imm);
                self.set_reg(rd, v);
                Retired::Alu
            }
            USpec::LoadW { rd, rs1, offset } => {
                let v = self.load(bus, pc, self.reg(rs1).wrapping_add(offset), 4)?;
                self.set_reg(rd, v);
                Retired::Load
            }
            USpec::LoadWPostInc { rd, rs1, offset } => {
                let addr = self.reg(rs1);
                let v = self.load(bus, pc, addr, 4)?;
                self.set_reg(rd, v);
                self.set_reg(rs1, addr.wrapping_add(offset));
                Retired::Load
            }
            USpec::Load {
                kind,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset);
                let raw = self.load(bus, pc, addr, kind.size())?;
                self.set_reg(rd, extend_load(kind, raw));
                Retired::Load
            }
            USpec::LoadPostInc {
                kind,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1);
                let raw = self.load(bus, pc, addr, kind.size())?;
                self.set_reg(rd, extend_load(kind, raw));
                self.set_reg(rs1, addr.wrapping_add(offset));
                Retired::Load
            }
            USpec::StoreW { rs1, rs2, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset);
                self.store(bus, pc, addr, 4, self.reg(rs2))?;
                Retired::Store { addr, size: 4 }
            }
            USpec::StoreWPostInc { rs1, rs2, offset } => {
                let addr = self.reg(rs1);
                self.store(bus, pc, addr, 4, self.reg(rs2))?;
                self.set_reg(rs1, addr.wrapping_add(offset));
                Retired::Store { addr, size: 4 }
            }
            USpec::Store {
                size,
                rs1,
                rs2,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset);
                self.store(bus, pc, addr, size, self.reg(rs2))?;
                Retired::Store { addr, size }
            }
            USpec::StorePostInc {
                size,
                rs1,
                rs2,
                offset,
            } => {
                let addr = self.reg(rs1);
                self.store(bus, pc, addr, size, self.reg(rs2))?;
                self.set_reg(rs1, addr.wrapping_add(offset));
                Retired::Store { addr, size }
            }
            USpec::Dot {
                acc,
                fmt,
                sign,
                rd,
                rs1,
                op2,
            } => {
                let b = match op2 {
                    DotOp2::Vector(r) => self.reg(r),
                    DotOp2::Scalar(r) => simd::replicate(fmt, self.reg(r)),
                    DotOp2::Replicated(v) => v,
                };
                let d = simd::dotp(fmt, sign, self.reg(rs1), b);
                let v = if acc { self.reg(rd).wrapping_add(d) } else { d };
                self.set_reg(rd, v);
                Retired::Dot(fmt)
            }
            USpec::Generic | USpec::Branch { .. } | USpec::Jal { .. } => {
                unreachable!("{spec:?} is not a burst shape")
            }
        })
    }

    /// Executes one already-decoded [`USpec::Generic`] instruction at
    /// the current PC: every instruction `with_spec!` leaves without a
    /// specialized form (CSRs, multiply/divide, hardware-loop setup,
    /// the other SIMD ops, `pv.qnt`, the vector unit, `jalr`, ...).
    ///
    /// Returns `Ok(true)` on `ecall`, like [`Core::step`].
    ///
    /// # Errors
    ///
    /// Bus faults and `ebreak`; the caller has already decoded and
    /// extension-checked the instruction.
    fn exec_decoded<B: Bus>(&mut self, bus: &mut B, instr: Instr, ilen: u32) -> Result<bool, Trap> {
        let pc = self.pc;
        self.perf.instret += 1;
        let mut cycles = timing::ALU_CYCLES;
        // Where the ledger charges this instruction's `cycles`. Memory
        // misalignment stalls are charged separately (to `MisalignStall`,
        // at the point the access happens); `qnt_stall` carries the part
        // of a `pv.qnt`'s latency that must be split off the same way.
        let mut class = CycleClass::Alu;
        let mut qnt_stall = 0u64;
        let mut next_pc = pc.wrapping_add(ilen);
        // Jumps (and the halting `ecall`) bypass the hardware-loop end
        // check.
        let mut explicit_jump = false;
        let mut halted = false;

        match instr {
            Instr::Lui { .. }
            | Instr::Auipc { .. }
            | Instr::Jal { .. }
            | Instr::Branch { .. }
            | Instr::Load { .. }
            | Instr::LoadPostInc { .. }
            | Instr::Store { .. }
            | Instr::StorePostInc { .. }
            | Instr::Alu { .. }
            | Instr::AluImm { .. }
            | Instr::PvDot { .. }
            | Instr::PvSdot { .. } => unreachable!("{instr} executes as its specialized op"),
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                self.set_reg(rd, pc.wrapping_add(ilen));
                next_pc = target;
                cycles = timing::JUMP_CYCLES;
                class = CycleClass::Jump;
                self.perf.jumps += 1;
                explicit_jump = true;
            }
            Instr::Fence | Instr::Nop => {}
            Instr::Ecall => {
                class = CycleClass::Csr;
                explicit_jump = true;
                halted = true;
            }
            Instr::Ebreak => return Err(Trap::Breakpoint { pc }),
            Instr::Csr { op, rd, rs1, csr } => {
                class = CycleClass::Csr;
                let old = self.csr_read(csr);
                let src = self.reg(rs1);
                let new = match op {
                    0 => src,
                    1 => old | src,
                    _ => old & !src,
                };
                if op == 0 || rs1 != Reg::Zero {
                    self.csr_write(csr, new);
                }
                self.set_reg(rd, old);
            }
            Instr::MulDiv { op, rd, rs1, rs2 } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                self.set_reg(rd, op.eval(a, b));
                if op.is_div_rem() {
                    cycles = timing::div_cycles(a);
                    class = CycleClass::Div;
                    self.perf.divs += 1;
                    self.perf.stall_cycles += cycles - 1;
                } else {
                    class = CycleClass::Mul;
                    self.perf.muls += 1;
                    if op != pulp_isa::instr::MulDivOp::Mul {
                        cycles = timing::MULH_CYCLES;
                        self.perf.stall_cycles += cycles - 1;
                    }
                }
            }
            Instr::PulpAlu { op, rd, rs1, rs2 } => {
                let v = op.eval(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
            }
            Instr::PClip { rd, rs1, bits } => {
                let x = self.reg(rs1) as i32;
                let (lo, hi) = if bits == 0 {
                    (-1i32, 0i32)
                } else {
                    (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
                };
                self.set_reg(rd, x.clamp(lo, hi) as u32);
            }
            Instr::PClipU { rd, rs1, bits } => {
                let x = self.reg(rs1) as i32;
                let hi = if bits == 0 {
                    0
                } else {
                    (1i32 << (bits - 1)) - 1
                };
                self.set_reg(rd, x.clamp(0, hi) as u32);
            }
            Instr::PMac { rd, rs1, rs2 } => {
                let v = self
                    .reg(rd)
                    .wrapping_add(self.reg(rs1).wrapping_mul(self.reg(rs2)));
                self.set_reg(rd, v);
                class = CycleClass::Mul;
                self.perf.muls += 1;
            }
            Instr::PMsu { rd, rs1, rs2 } => {
                let v = self
                    .reg(rd)
                    .wrapping_sub(self.reg(rs1).wrapping_mul(self.reg(rs2)));
                self.set_reg(rd, v);
                class = CycleClass::Mul;
                self.perf.muls += 1;
            }
            Instr::PBit { op, rd, rs1 } => {
                let v = op.eval(self.reg(rs1));
                self.set_reg(rd, v);
            }
            Instr::PExtract { rd, rs1, len, off } => {
                let v = extract_field(self.reg(rs1), len, off, true);
                self.set_reg(rd, v);
            }
            Instr::PExtractU { rd, rs1, len, off } => {
                let v = extract_field(self.reg(rs1), len, off, false);
                self.set_reg(rd, v);
            }
            Instr::PInsert { rd, rs1, len, off } => {
                let mask = field_mask(len) << off;
                let v = (self.reg(rd) & !mask) | ((self.reg(rs1) << off) & mask);
                self.set_reg(rd, v);
            }
            Instr::LoadPostIncReg { kind, rd, rs1, rs2 } => {
                let addr = self.reg(rs1);
                let inc = self.reg(rs2);
                let raw = self.load(bus, pc, addr, kind.size())?;
                self.set_reg(rd, extend_load(kind, raw));
                self.set_reg(rs1, addr.wrapping_add(inc));
                self.perf.loads += 1;
                cycles = timing::MEM_CYCLES;
                class = CycleClass::Load;
            }
            Instr::LoadRegOff { kind, rd, rs1, rs2 } => {
                let addr = self.reg(rs1).wrapping_add(self.reg(rs2));
                let raw = self.load(bus, pc, addr, kind.size())?;
                self.set_reg(rd, extend_load(kind, raw));
                self.perf.loads += 1;
                cycles = timing::MEM_CYCLES;
                class = CycleClass::Load;
            }
            Instr::StorePostIncReg {
                kind,
                rs1,
                rs2,
                rs3,
            } => {
                let addr = self.reg(rs1);
                let inc = self.reg(rs3);
                self.store(bus, pc, addr, kind.size(), self.reg(rs2))?;
                self.set_reg(rs1, addr.wrapping_add(inc));
                self.perf.stores += 1;
                cycles = timing::MEM_CYCLES;
                class = CycleClass::Store;
            }
            Instr::LpStarti { l, offset } => {
                self.hwloops[l.index()].start = pc.wrapping_add(offset as u32);
                class = CycleClass::HwLoop;
                self.perf.hwloop_setups += 1;
            }
            Instr::LpEndi { l, offset } => {
                self.hwloops[l.index()].end = pc.wrapping_add(offset as u32);
                class = CycleClass::HwLoop;
                self.perf.hwloop_setups += 1;
            }
            Instr::LpCount { l, rs1 } => {
                self.hwloops[l.index()].count = self.reg(rs1);
                class = CycleClass::HwLoop;
                self.perf.hwloop_setups += 1;
            }
            Instr::LpCounti { l, imm } => {
                self.hwloops[l.index()].count = imm;
                class = CycleClass::HwLoop;
                self.perf.hwloop_setups += 1;
            }
            Instr::LpSetup { l, rs1, offset } => {
                let count = self.reg(rs1);
                let lp = &mut self.hwloops[l.index()];
                lp.start = pc.wrapping_add(4);
                lp.end = pc.wrapping_add(offset as u32);
                lp.count = count;
                class = CycleClass::HwLoop;
                self.perf.hwloop_setups += 1;
            }
            Instr::LpSetupi { l, imm, offset } => {
                let lp = &mut self.hwloops[l.index()];
                lp.start = pc.wrapping_add(4);
                lp.end = pc.wrapping_add(offset as u32);
                lp.count = imm;
                class = CycleClass::HwLoop;
                self.perf.hwloop_setups += 1;
            }
            Instr::PvAlu {
                op,
                fmt,
                rd,
                rs1,
                op2,
            } => {
                let b = self.simd_op2(fmt, op2);
                let v = op.eval(fmt, self.reg(rs1), b);
                self.set_reg(rd, v);
                class = CycleClass::SimdAlu(fmt);
                self.perf.simd_alu[fmt_index(fmt)] += 1;
            }
            Instr::PvAbs { fmt, rd, rs1 } => {
                let v = simd::abs(fmt, self.reg(rs1));
                self.set_reg(rd, v);
                class = CycleClass::SimdAlu(fmt);
                self.perf.simd_alu[fmt_index(fmt)] += 1;
            }
            Instr::PvExtract {
                fmt,
                rd,
                rs1,
                idx,
                signed,
            } => {
                let v = if signed {
                    simd::lane_s(fmt, self.reg(rs1), idx as usize) as u32
                } else {
                    simd::lane_u(fmt, self.reg(rs1), idx as usize)
                };
                self.set_reg(rd, v);
                class = CycleClass::SimdAlu(fmt);
                self.perf.simd_alu[fmt_index(fmt)] += 1;
            }
            Instr::PvInsert { fmt, rd, rs1, idx } => {
                let v = simd::with_lane(fmt, self.reg(rd), idx as usize, self.reg(rs1));
                self.set_reg(rd, v);
                class = CycleClass::SimdAlu(fmt);
                self.perf.simd_alu[fmt_index(fmt)] += 1;
            }
            Instr::PvShuffle2 { fmt, rd, rs1, rs2 } => {
                let v = simd::shuffle2(fmt, self.reg(rd), self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                class = CycleClass::SimdAlu(fmt);
                self.perf.simd_alu[fmt_index(fmt)] += 1;
            }
            Instr::PvQnt { fmt, rd, rs1, rs2 } => {
                let r = quant::execute(bus, fmt, self.reg(rs1), self.reg(rs2))
                    .map_err(|error| Trap::Bus { pc, error })?;
                self.set_reg(rd, r.rd);
                cycles = r.cycles;
                class = CycleClass::Qnt;
                qnt_stall = r.stall_cycles;
                self.perf.qnt += 1;
                self.perf.loads += r.fetches as u64;
                self.perf.stall_cycles += cycles - 1;
            }
            Instr::VSetvli { rd, rs1, sew } => {
                // `rs1 = x0` requests VLMAX (the strip-mined-loop
                // prologue); otherwise vl = min(avl, VLMAX).
                let avl = if rs1 == Reg::Zero {
                    None
                } else {
                    Some(self.reg(rs1))
                };
                let vl = vec_unit(&mut self.vec).vsetvli(avl, sew);
                self.set_reg(rd, vl);
                class = CycleClass::VecCfg;
            }
            Instr::VLoad { vd, rs1 } => {
                let base = self.reg(rs1);
                let r = vec_unit(&mut self.vec).load_unit(&mut VecBus(bus), vd.index(), base);
                let cost = r.map_err(|e| vec_trap(pc, &instr, e))?;
                cycles = cost.cycles;
                class = CycleClass::VecLoad;
                qnt_stall = cost.stall_cycles;
                self.perf.vec_loads += 1;
                self.perf.stall_cycles += cycles - 1;
            }
            Instr::VStore { vs, rs1 } => {
                let base = self.reg(rs1);
                let r = vec_unit(&mut self.vec).store_unit(&mut VecBus(bus), vs.index(), base);
                let cost = r.map_err(|e| vec_trap(pc, &instr, e))?;
                cycles = cost.cycles;
                class = CycleClass::VecStore;
                qnt_stall = cost.stall_cycles;
                self.perf.vec_stores += 1;
                self.perf.stall_cycles += cycles - 1;
            }
            Instr::VLoadStrided { vd, rs1, rs2 } => {
                let base = self.reg(rs1);
                let stride = self.reg(rs2);
                let r = vec_unit(&mut self.vec).load_strided(
                    &mut VecBus(bus),
                    vd.index(),
                    base,
                    stride,
                );
                let cost = r.map_err(|e| vec_trap(pc, &instr, e))?;
                cycles = cost.cycles;
                class = CycleClass::VecLoad;
                qnt_stall = cost.stall_cycles;
                self.perf.vec_loads += 1;
                self.perf.stall_cycles += cycles - 1;
            }
            Instr::VStoreStrided { vs, rs1, rs2 } => {
                let base = self.reg(rs1);
                let stride = self.reg(rs2);
                let r = vec_unit(&mut self.vec).store_strided(
                    &mut VecBus(bus),
                    vs.index(),
                    base,
                    stride,
                );
                let cost = r.map_err(|e| vec_trap(pc, &instr, e))?;
                cycles = cost.cycles;
                class = CycleClass::VecStore;
                qnt_stall = cost.stall_cycles;
                self.perf.vec_stores += 1;
                self.perf.stall_cycles += cycles - 1;
            }
            Instr::VDot { sign, rd, vs1, vs2 } => {
                let (sum, cost, vl) = {
                    let vec = vec_unit(&mut self.vec);
                    let (s, c) = vec.dot(sign, vs1.index(), vs2.index());
                    (s, c, vec.vl())
                };
                // Accumulating reduction into the scalar register,
                // wrapping mod 2^32 exactly like `pv.sdot*`.
                let v = self.reg(rd).wrapping_add(sum);
                self.set_reg(rd, v);
                cycles = cost.cycles;
                class = CycleClass::VecDot;
                self.perf.vec_dots += 1;
                self.perf.vec_macs += u64::from(vl);
                self.perf.stall_cycles += cycles - 1;
            }
            Instr::VQnt { fmt, vd, rs1, vs2 } => {
                let trees = self.reg(rs1);
                let r = vec_unit(&mut self.vec).qnt(
                    &mut VecBus(bus),
                    fmt,
                    vd.index(),
                    trees,
                    vs2.index(),
                );
                let cost = r.map_err(|e| vec_trap(pc, &instr, e))?;
                cycles = cost.cycles;
                class = CycleClass::VecQnt;
                qnt_stall = cost.stall_cycles;
                self.perf.vec_qnt += 1;
                self.perf.loads += u64::from(cost.fetches);
                self.perf.stall_cycles += cycles - 1;
            }
            Instr::VSlide1 { vd, vs2, rs1 } => {
                let x = self.reg(rs1);
                vec_unit(&mut self.vec).slide1down(vd.index(), vs2.index(), x);
                class = CycleClass::VecAlu;
            }
            Instr::VMvXS { rd, vs2 } => {
                let (v, _) = vec_unit(&mut self.vec).mv_x_s(vs2.index());
                self.set_reg(rd, v);
                class = CycleClass::VecAlu;
            }
        }

        if !explicit_jump {
            next_pc = self.hwloop_next_pc(pc, ilen, next_pc);
        }
        self.perf.cycles += cycles;
        self.perf.ledger.charge(class, cycles - qnt_stall);
        if qnt_stall > 0 {
            self.perf
                .ledger
                .charge(CycleClass::MisalignStall, qnt_stall);
        }
        debug_assert_eq!(
            self.perf.cycles,
            self.perf.ledger.total(),
            "cycle ledger out of balance at retire of {instr} @ {pc:#010x}"
        );
        self.pc = next_pc;
        Ok(halted)
    }

    /// Runs like [`Core::run`] but calls `trace` with `(pc, instruction)`
    /// before each instruction retires — the simulator's equivalent of an
    /// RTL waveform for control flow.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Trap`] raised by [`Core::step`];
    /// [`Trap::Watchdog`] if the cycle budget runs out first.
    pub fn run_traced<B: Bus>(
        &mut self,
        bus: &mut B,
        max_cycles: u64,
        mut trace: impl FnMut(u32, &Instr),
    ) -> Result<ExitStatus, Trap> {
        let limit = self.perf.cycles.saturating_add(max_cycles);
        while self.perf.cycles < limit {
            let (instr, _) = self.fetch_decode(bus)?;
            trace(self.pc, &instr);
            if self.step(bus)? {
                return Ok(ExitStatus {
                    halted: true,
                    exit_code: self.reg(Reg::A0),
                    pc: self.pc,
                });
            }
        }
        Err(Trap::Watchdog {
            pc: self.pc,
            budget: max_cycles,
        })
    }

    /// Runs until `ecall`, a trap, or the cycle budget is exhausted
    /// (reported as [`Trap::Watchdog`]).
    ///
    /// # Errors
    ///
    /// Propagates the first [`Trap`] raised by [`Core::step`];
    /// [`Trap::Watchdog`] if the cycle budget runs out first.
    pub fn run<B: Bus>(&mut self, bus: &mut B, max_cycles: u64) -> Result<ExitStatus, Trap> {
        if self.fastpath.is_some() && self.tracer.is_none() {
            return self.run_fast(bus, max_cycles);
        }
        let limit = self.perf.cycles.saturating_add(max_cycles);
        while self.perf.cycles < limit {
            if self.step(bus)? {
                return Ok(ExitStatus {
                    halted: true,
                    exit_code: self.reg(Reg::A0),
                    pc: self.pc,
                });
            }
        }
        Err(Trap::Watchdog {
            pc: self.pc,
            budget: max_cycles,
        })
    }

    /// [`Core::run`] through the decoded-block cache. Identical
    /// semantics — the per-op budget check and the shared execution
    /// routines keep halt points, traps and counters bit-exact — but
    /// the cache is detached once for the whole run and each resolved
    /// block is replayed in a tight loop that touches the cache again
    /// only at control-flow discontinuities.
    fn run_fast<B: Bus>(&mut self, bus: &mut B, max_cycles: u64) -> Result<ExitStatus, Trap> {
        let mut fp = self.fastpath.take().expect("fastpath enabled");
        let limit = self.perf.cycles.saturating_add(max_cycles);
        let result = self.run_fast_blocks(bus, &mut fp, max_cycles, limit);
        self.fastpath = Some(fp);
        result
    }

    /// Folds a finished burst's register-local counters into the
    /// architectural performance counters. Every burst-eligible op is a
    /// single-cycle retire of exactly one class, so `instret`, `cycles`
    /// and the per-class ledger buckets are all derivable from the
    /// per-class op counts (misalign stalls were charged directly when
    /// they occurred).
    #[inline]
    fn seg_flush(&mut self, alu: u64, load: u64, store: u64, dot: [u64; 4]) {
        let total = alu + load + store + dot[0] + dot[1] + dot[2] + dot[3];
        self.perf.instret += total;
        self.perf.cycles += total;
        self.perf.loads += load;
        self.perf.stores += store;
        self.perf.ledger.charge(CycleClass::Alu, alu);
        self.perf.ledger.charge(CycleClass::Load, load);
        self.perf.ledger.charge(CycleClass::Store, store);
        self.perf
            .ledger
            .charge(CycleClass::Dotp(SimdFmt::Half), dot[0]);
        self.perf
            .ledger
            .charge(CycleClass::Dotp(SimdFmt::Byte), dot[1]);
        self.perf
            .ledger
            .charge(CycleClass::Dotp(SimdFmt::Nibble), dot[2]);
        self.perf
            .ledger
            .charge(CycleClass::Dotp(SimdFmt::Crumb), dot[3]);
        self.perf.dotp[0] += dot[0];
        self.perf.dotp[1] += dot[1];
        self.perf.dotp[2] += dot[2];
        self.perf.dotp[3] += dot[3];
        debug_assert_eq!(
            self.perf.cycles,
            self.perf.ledger.total(),
            "cycle ledger out of balance at burst flush"
        );
    }

    /// The armed hardware-loop end PCs as `u64`s (`u64::MAX` when the
    /// loop is inactive, which no 32-bit retire PC can equal).
    #[inline]
    fn armed_loop_ends(&self) -> (u64, u64) {
        let end = |lp: &HwLoop| {
            if lp.count > 0 {
                lp.end as u64
            } else {
                u64::MAX
            }
        };
        (end(&self.hwloops[0]), end(&self.hwloops[1]))
    }

    /// Executes a burst of consecutive burst-eligible ops
    /// ([`USpec::is_burst`]) from `ops[idx..]` through their shared bodies
    /// ([`Core::exec_burst`]), keeping `instret`/`cycles`/ledger deltas
    /// in register-local counters and *not* maintaining `self.pc` per
    /// op. Control flow is tracked through the block's contiguity
    /// invariant plus register-held armed-loop-end compares, so the
    /// per-op store→load forwarding chains of the architectural
    /// counters and PC disappear from the critical path.
    ///
    /// Exactness contract with the per-op path:
    /// - counters are flushed (and `self.pc` materialized) on every
    ///   exit, so architectural state is indistinguishable from per-op
    ///   retires at every point the caller can observe;
    /// - a trapping access leaves the per-op path's partial-op state
    ///   (`instret`/`loads`/`stores` bumped, misalign charged, no
    ///   retire) and reports the trapping op's index;
    /// - the burst length is capped so `cycles` cannot reach `limit`
    ///   mid-burst (each eligible op costs at most 2 cycles including a
    ///   misalign stall), leaving watchdog placement to the caller;
    /// - self-modifying stores flush the cache and exit, exactly like
    ///   the per-op path.
    ///
    /// Returns `(exit, ops_served)`; errors carry `(trap, index of the
    /// trapping op, ops_served)`.
    ///
    /// Preconditions: `self.pc == ops[idx].pc` and no fast-path bug
    /// armed.
    fn seg_burst<B: Bus>(
        &mut self,
        bus: &mut B,
        fp: &mut BlockCache,
        ops: &[Op],
        block_start: u32,
        mut idx: usize,
        limit: u64,
    ) -> Result<(SegExit, u64), (Trap, usize, u64)> {
        let mut remaining = limit.saturating_sub(self.perf.cycles) / 2;
        let mut served: u64 = 0;
        let (mut n_alu, mut n_load, mut n_store) = (0u64, 0u64, 0u64);
        let (mut d0, mut d1, mut d2, mut d3) = (0u64, 0u64, 0u64, 0u64);
        let (mut e0, mut e1) = self.armed_loop_ends();
        macro_rules! flush {
            () => {
                self.seg_flush(n_alu, n_load, n_store, [d0, d1, d2, d3])
            };
        }
        loop {
            let op = &ops[idx];
            if remaining == 0 || !op.spec.is_burst() {
                flush!();
                self.pc = op.pc;
                return Ok((SegExit::At(idx), served));
            }
            let pend = op.pc.wrapping_add(op.ilen);
            match self.exec_burst(bus, op.pc, op.spec) {
                Ok(Retired::Alu) => n_alu += 1,
                Ok(Retired::Load) => n_load += 1,
                Ok(Retired::Store { addr, size }) => {
                    n_store += 1;
                    if fp.covers_code(addr, size) {
                        // The store overwrote fetched code: retire it
                        // (hardware-loop rule included), flush every
                        // cached block, and hand control back.
                        served += 1;
                        let next = self.hwloop_next_pc(op.pc, op.ilen, pend);
                        flush!();
                        fp.flush();
                        self.pc = next;
                        return Ok((SegExit::Out, served));
                    }
                }
                Ok(Retired::Dot(fmt)) => match fmt {
                    SimdFmt::Half => d0 += 1,
                    SimdFmt::Byte => d1 += 1,
                    SimdFmt::Nibble => d2 += 1,
                    SimdFmt::Crumb => d3 += 1,
                },
                Err(t) => {
                    flush!();
                    self.perf.instret += 1;
                    self.pc = op.pc;
                    return Err((t, idx, served));
                }
            }
            served += 1;
            remaining -= 1;
            if pend as u64 == e0 || pend as u64 == e1 {
                // The exact hardware-loop dance (count decrements,
                // nested-loop precedence, back-edge accounting) — then
                // re-cache the armed ends, which it may have changed.
                let next = self.hwloop_next_pc(op.pc, op.ilen, pend);
                (e0, e1) = self.armed_loop_ends();
                if next != pend {
                    if next == block_start {
                        idx = 0;
                        continue;
                    }
                    flush!();
                    self.pc = next;
                    return Ok((SegExit::Out, served));
                }
            }
            idx += 1;
            if idx == ops.len() {
                flush!();
                self.pc = pend;
                return Ok((SegExit::Out, served));
            }
            debug_assert_eq!(ops[idx].pc, pend, "non-contiguous block ops");
        }
    }

    /// The bulk-replay loop behind [`Core::run_fast`]: resolve the
    /// block at the current PC once, then retire its pre-decoded ops
    /// back-to-back — including hardware-loop back-edges, which rewind
    /// the index in place — re-entering the resolver only on real
    /// discontinuities (jumps elsewhere, traps, self-modifying stores,
    /// untranslatable PCs).
    fn run_fast_blocks<B: Bus>(
        &mut self,
        bus: &mut B,
        fp: &mut BlockCache,
        max_cycles: u64,
        limit: u64,
    ) -> Result<ExitStatus, Trap> {
        loop {
            if self.perf.cycles >= limit {
                return Err(Trap::Watchdog {
                    pc: self.pc,
                    budget: max_cycles,
                });
            }
            let (block, mut idx, fresh) = fp.current_run(self, bus)?;
            let bug = fp.bug;
            let mut served: u64 = 0;
            // `Ok(Some(exit))` halt, `Ok(None)` resolve afresh,
            // `Err(trap)` propagate with the cursor parked on the
            // trapping op (a resumed run re-executes it, exactly like
            // the interpreter).
            let outcome: Result<Option<ExitStatus>, Trap> = 'replay: loop {
                if self.perf.cycles >= limit {
                    fp.resume_at(block, idx);
                    fp.stats.hits += served.saturating_sub(fresh as u64);
                    return Err(Trap::Watchdog {
                        pc: self.pc,
                        budget: max_cycles,
                    });
                }
                let mut op = &block.ops[idx];
                // Runs of simple ops execute as a counter-batched burst;
                // it hands back on the first op that needs the general
                // path (or on budget/discontinuity), which then executes
                // one op below before the next burst attempt.
                if bug == FastBug::None && op.spec.is_burst() {
                    match self.seg_burst(bus, fp, &block.ops, block.start, idx, limit) {
                        Ok((SegExit::At(i), s)) => {
                            idx = i;
                            if s > 0 {
                                // The burst consumed cycles: re-check
                                // the watchdog budget before the next
                                // op, exactly like the per-op path.
                                served += s;
                                continue 'replay;
                            }
                            // Nothing served: the op needs the general
                            // path (or the budget head-room is below one
                            // burst op) — execute exactly one op below.
                            op = &block.ops[idx];
                        }
                        Ok((SegExit::Out, s)) => {
                            served += s;
                            break 'replay Ok(None);
                        }
                        Err((t, i, s)) => {
                            served += s;
                            idx = i;
                            break 'replay Err(t);
                        }
                    }
                }
                served += 1;
                let (halted, flushed) = match self.exec_spec(bus, Some(fp), op) {
                    Ok(r) => r,
                    Err(t) => break 'replay Err(t),
                };
                if halted {
                    break 'replay Ok(Some(ExitStatus {
                        halted: true,
                        exit_code: self.reg(Reg::A0),
                        pc: self.pc,
                    }));
                }
                if bug == FastBug::SquashRedirects {
                    let seq = op.pc.wrapping_add(op.ilen);
                    if self.pc != seq {
                        self.pc = seq;
                    }
                }
                if flushed {
                    // The store overwrote fetched code: the cache was
                    // flushed and this block's remaining ops are
                    // stale. Re-resolve at the new PC.
                    break 'replay Ok(None);
                }
                idx += 1;
                match block.ops.get(idx) {
                    Some(next) if next.pc == self.pc => {}
                    _ => {
                        if self.pc == block.start {
                            // Hardware-loop back-edge (or self-jump) to
                            // the block head: rewind in place.
                            idx = 0;
                        } else {
                            break 'replay Ok(None);
                        }
                    }
                }
            };
            fp.stats.hits += served.saturating_sub(fresh as u64);
            match outcome {
                Ok(Some(exit)) => {
                    fp.resume_at(block, idx + 1);
                    return Ok(exit);
                }
                Ok(None) => {}
                Err(t) => {
                    fp.resume_at(block, idx);
                    return Err(t);
                }
            }
        }
    }
}

impl Default for Core {
    fn default() -> Self {
        Core::new(IsaConfig::default())
    }
}

/// Adapts the core's [`Bus`] to the vector unit's [`VecMem`] interface
/// (identical address/endianness semantics; faults converted
/// field-for-field so the trap carries the exact failing beat).
struct VecBus<'a, B: Bus>(&'a mut B);

impl<B: Bus> VecMem for VecBus<'_, B> {
    fn read(&mut self, addr: u32, size: u32) -> Result<u32, VecMemFault> {
        self.0.read(addr, size).map_err(|e| VecMemFault {
            addr: e.addr,
            size: e.size,
            write: e.write,
        })
    }

    fn read_into(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), VecMemFault> {
        self.0.read_block(addr, buf).map_err(|e| VecMemFault {
            addr: e.addr,
            size: e.size,
            write: e.write,
        })
    }

    fn write(&mut self, addr: u32, size: u32, value: u32) -> Result<(), VecMemFault> {
        self.0.write(addr, size, value).map_err(|e| VecMemFault {
            addr: e.addr,
            size: e.size,
            write: e.write,
        })
    }
}

/// The core's vector unit, created on demand with the default `VLEN`
/// so a core whose `isa.rvv` was flipped on after construction still
/// executes (the extension check has already passed by the time an
/// exec arm calls this).
#[inline]
fn vec_unit(slot: &mut Option<Box<VecUnit>>) -> &mut VecUnit {
    slot.get_or_insert_with(|| Box::new(VecUnit::new(rvv_vec::DEFAULT_VLEN_BITS)))
}

/// Maps a vector-operation failure to its architectural trap: memory
/// faults surface as bus traps with the failing beat's address;
/// configuration-illegal operations (strided access at a sub-byte SEW,
/// `vqnt` away from e16) trap as illegal instructions, like RVV's
/// reserved-encoding rule for unsupported `vtype` combinations.
fn vec_trap(pc: u32, instr: &Instr, e: VecError) -> Trap {
    match e {
        VecError::Mem(f) => Trap::Bus {
            pc,
            error: BusError {
                addr: f.addr,
                size: f.size,
                write: f.write,
            },
        },
        VecError::IllegalStride(_) | VecError::QntSew(_) => Trap::IllegalInstruction {
            pc,
            word: pulp_isa::encode::encode(instr),
        },
    }
}

/// Width-extends a raw little-endian load result per the load kind.
#[inline]
fn extend_load(kind: LoadKind, raw: u32) -> u32 {
    match kind {
        LoadKind::Byte => raw as u8 as i8 as i32 as u32,
        LoadKind::Half => raw as u16 as i16 as i32 as u32,
        LoadKind::Word => raw,
        LoadKind::ByteU => raw & 0xff,
        LoadKind::HalfU => raw & 0xffff,
    }
}

#[inline]
fn field_mask(len: u8) -> u32 {
    if len >= 32 {
        u32::MAX
    } else {
        (1u32 << len) - 1
    }
}

#[inline]
fn extract_field(value: u32, len: u8, off: u8, signed: bool) -> u32 {
    let raw = (value >> off) & field_mask(len);
    if signed && len < 32 && (raw >> (len - 1)) & 1 == 1 {
        raw | !field_mask(len)
    } else {
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::SliceMem;
    use pulp_asm::Asm;
    use pulp_isa::instr::{AluOp, LoopIdx};
    use pulp_isa::simd::DotSign;

    fn run_asm(build: impl FnOnce(&mut Asm)) -> (Core, SliceMem) {
        run_asm_isa(IsaConfig::xpulpnn(), build)
    }

    fn run_asm_isa(isa: IsaConfig, build: impl FnOnce(&mut Asm)) -> (Core, SliceMem) {
        let mut a = Asm::new(0);
        build(&mut a);
        let prog = a.assemble().expect("assembly failed");
        let mut mem = SliceMem::new(0, 1 << 16);
        mem.load_program(&prog);
        let mut core = Core::new(isa);
        core.pc = prog.base;
        let exit = core.run(&mut mem, 1_000_000).expect("trap");
        assert!(exit.halted, "program did not halt");
        (core, mem)
    }

    #[test]
    fn arithmetic_program() {
        let (core, _) = run_asm(|a| {
            a.li(Reg::A0, 6);
            a.li(Reg::A1, 7);
            a.i(Instr::MulDiv {
                op: pulp_isa::instr::MulDivOp::Mul,
                rd: Reg::A2,
                rs1: Reg::A0,
                rs2: Reg::A1,
            });
            a.ecall();
        });
        assert_eq!(core.reg(Reg::A2), 42);
        assert_eq!(core.perf.muls, 1);
    }

    #[test]
    fn loads_stores_and_memory() {
        let (core, mem) = run_asm(|a| {
            a.li(Reg::A0, 0x1000);
            a.li(Reg::A1, -2);
            a.sw(Reg::A1, 0, Reg::A0);
            a.lbu(Reg::A2, 0, Reg::A0);
            a.lw(Reg::A3, 0, Reg::A0);
            a.i(Instr::Load {
                kind: LoadKind::Half,
                rd: Reg::A4,
                rs1: Reg::A0,
                offset: 0,
            });
            a.ecall();
        });
        assert_eq!(core.reg(Reg::A2), 0xfe);
        assert_eq!(core.reg(Reg::A3), 0xffff_fffe);
        assert_eq!(core.reg(Reg::A4), 0xffff_fffe);
        assert_eq!(mem.as_bytes()[0x1000], 0xfe);
        assert_eq!(core.perf.loads, 3);
        assert_eq!(core.perf.stores, 1);
    }

    #[test]
    fn branch_loop_cycle_accounting() {
        // 3-iteration countdown: per iteration addi(1) + taken bne(3),
        // last bne not taken (1).
        let (core, _) = run_asm(|a| {
            a.li(Reg::A0, 3);
            a.label("top");
            a.addi(Reg::A0, Reg::A0, -1);
            a.bne(Reg::A0, Reg::Zero, "top");
            a.ecall();
        });
        // li(1) + 3*addi + 2 taken bne (3 each) + 1 not-taken bne + ecall
        let expected = 1 + 3 + 2 * 3 + 1 + 1;
        assert_eq!(core.perf.cycles, expected);
        assert_eq!(core.perf.branches, 3);
        assert_eq!(core.perf.branches_taken, 2);
    }

    #[test]
    fn jumps_link_and_cost_two_cycles() {
        let (core, _) = run_asm(|a| {
            a.jal("fn"); // links ra
            a.ecall();
            a.label("fn");
            a.li(Reg::A0, 99);
            a.ret();
        });
        assert_eq!(core.reg(Reg::A0), 99);
        assert_eq!(core.perf.jumps, 2);
        // jal(2) + li(1) + ret(2) + ecall(1)
        assert_eq!(core.perf.cycles, 6);
    }

    #[test]
    fn hardware_loop_zero_overhead() {
        let n = 10u32;
        let (core, _) = run_asm(|a| {
            a.li(Reg::T0, n as i32);
            a.lp_setup(LoopIdx::L0, Reg::T0, "end");
            a.addi(Reg::A0, Reg::A0, 1);
            a.addi(Reg::A1, Reg::A1, 2);
            a.label("end");
            a.ecall();
        });
        assert_eq!(core.reg(Reg::A0), n);
        assert_eq!(core.reg(Reg::A1), 2 * n);
        // li + lp.setup + 2n body + ecall, zero loop overhead.
        assert_eq!(core.perf.cycles, (2 + 2 * n as u64) + 1);
        assert_eq!(core.perf.hwloop_backs, (n - 1) as u64);
    }

    #[test]
    fn nested_hardware_loops() {
        let (core, _) = run_asm(|a| {
            a.li(Reg::T0, 4);
            a.li(Reg::T1, 5);
            a.lp_setup(LoopIdx::L1, Reg::T0, "outer_end");
            a.lp_setup(LoopIdx::L0, Reg::T1, "inner_end");
            a.addi(Reg::A0, Reg::A0, 1);
            a.label("inner_end");
            a.addi(Reg::A1, Reg::A1, 1);
            a.label("outer_end");
            a.ecall();
        });
        assert_eq!(core.reg(Reg::A0), 20, "inner body runs 4*5 times");
        assert_eq!(core.reg(Reg::A1), 4, "outer tail runs 4 times");
    }

    #[test]
    fn single_instruction_hw_loop_body() {
        let (core, _) = run_asm(|a| {
            a.li(Reg::T0, 7);
            a.lp_setup(LoopIdx::L0, Reg::T0, "end");
            a.addi(Reg::A0, Reg::A0, 3);
            a.label("end");
            a.ecall();
        });
        assert_eq!(core.reg(Reg::A0), 21);
    }

    #[test]
    fn post_increment_load_walks_array() {
        let (core, _) = run_asm(|a| {
            a.li(Reg::A1, 0x2000);
            a.li(Reg::T2, 3);
            // store 3 words: 5, 6, 7
            a.li(Reg::T0, 5);
            a.sw(Reg::T0, 0, Reg::A1);
            a.li(Reg::T0, 6);
            a.sw(Reg::T0, 4, Reg::A1);
            a.li(Reg::T0, 7);
            a.sw(Reg::T0, 8, Reg::A1);
            a.lp_setup(LoopIdx::L0, Reg::T2, "end");
            a.p_lw_postinc(Reg::T1, 4, Reg::A1);
            a.add(Reg::A0, Reg::A0, Reg::T1);
            a.label("end");
            a.ecall();
        });
        assert_eq!(core.reg(Reg::A0), 18);
        assert_eq!(core.reg(Reg::A1), 0x2000 + 12);
    }

    #[test]
    fn simd_dotp_instruction_execution() {
        let (core, _) = run_asm(|a| {
            a.li(Reg::A1, 0x0102_0304u32 as i32); // bytes 4,3,2,1
            a.li(Reg::A2, 0x0101_0101u32 as i32); // bytes 1,1,1,1
            a.li(Reg::A0, 100);
            a.pv_sdot(
                SimdFmt::Byte,
                DotSign::SignedSigned,
                Reg::A0,
                Reg::A1,
                Reg::A2,
            );
            a.ecall();
        });
        assert_eq!(core.reg(Reg::A0), 110);
        assert_eq!(core.perf.dotp[fmt_index(SimdFmt::Byte)], 1);
        assert_eq!(core.perf.total_macs(), 4);
    }

    #[test]
    fn sub_byte_simd_traps_on_baseline_core() {
        let mut a = Asm::new(0);
        a.pv_sdot(
            SimdFmt::Nibble,
            DotSign::SignedSigned,
            Reg::A0,
            Reg::A1,
            Reg::A2,
        );
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut mem = SliceMem::new(0, 4096);
        mem.load_program(&prog);
        let mut core = Core::new(IsaConfig::xpulpv2());
        core.pc = prog.base;
        let e = core.run(&mut mem, 100).unwrap_err();
        assert_eq!(
            e,
            Trap::ExtensionFault {
                pc: 0,
                required: "xpulpnn"
            }
        );
        // The same program runs on the extended core.
        let mut core = Core::new(IsaConfig::xpulpnn());
        core.pc = prog.base;
        assert!(core.run(&mut mem, 100).unwrap().halted);
    }

    #[test]
    fn xpulpv2_traps_on_rv32im_core() {
        let mut a = Asm::new(0);
        a.p_lw_postinc(Reg::A0, 4, Reg::A1);
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut mem = SliceMem::new(0, 4096);
        mem.load_program(&prog);
        let mut core = Core::new(IsaConfig::rv32im());
        core.pc = prog.base;
        let e = core.run(&mut mem, 100).unwrap_err();
        assert_eq!(
            e,
            Trap::ExtensionFault {
                pc: 0,
                required: "xpulpv2"
            }
        );
    }

    #[test]
    fn pv_qnt_executes_with_paper_latency() {
        use crate::quant::{eytzinger, tree_stride};
        let sorted: Vec<i16> = (1..16).map(|i| i * 10).collect();
        let (core, _) = {
            let mut a = Asm::new(0);
            // Build threshold data inline at 0x4000 and 0x4000+stride.
            a.equ("thr", 0x4000);
            a.la(Reg::A2, "thr");
            a.li(Reg::A1, (45u32 | (1000u32 << 16)) as i32); // -> bins 4, 15
            a.pv_qnt(SimdFmt::Nibble, Reg::A0, Reg::A1, Reg::A2);
            a.ecall();
            let prog = a.assemble().unwrap();
            let mut mem = SliceMem::new(0, 1 << 16);
            mem.load_program(&prog);
            let heap = eytzinger(&sorted);
            for (i, t) in heap.iter().enumerate() {
                mem.write(0x4000 + (i as u32) * 2, 2, *t as u16 as u32)
                    .unwrap();
                mem.write(
                    0x4000 + tree_stride(SimdFmt::Nibble) + (i as u32) * 2,
                    2,
                    *t as u16 as u32,
                )
                .unwrap();
            }
            let mut core = Core::new(IsaConfig::xpulpnn());
            core.pc = prog.base;
            core.run(&mut mem, 1000).unwrap();
            (core, mem)
        };
        assert_eq!(core.reg(Reg::A0), 4 | (15 << 4));
        assert_eq!(core.perf.qnt, 1);
        // la(2 instr) + li(2: lui+addi since value > 2048... actually
        // 45 | 1000<<16 is large) + qnt(9) + ecall(1); just check the qnt
        // contribution is present via stall cycles >= 8.
        assert!(core.perf.stall_cycles >= 8);
    }

    #[test]
    fn misaligned_store_costs_a_stall() {
        let (core, _) = run_asm(|a| {
            a.li(Reg::A0, 0x1002);
            a.li(Reg::A1, 0x0a0b_0c0d);
            a.sw(Reg::A1, 0, Reg::A0); // crosses word boundary
            a.ecall();
        });
        assert_eq!(core.perf.stall_cycles, 1);
    }

    #[test]
    fn bit_field_ops() {
        let (core, _) = run_asm(|a| {
            a.li(Reg::A1, 0x0000_ff00u32 as i32);
            a.i(Instr::PExtract {
                rd: Reg::A2,
                rs1: Reg::A1,
                len: 8,
                off: 8,
            });
            a.i(Instr::PExtractU {
                rd: Reg::A3,
                rs1: Reg::A1,
                len: 8,
                off: 8,
            });
            a.li(Reg::A4, 0x5);
            a.i(Instr::PInsert {
                rd: Reg::A1,
                rs1: Reg::A4,
                len: 4,
                off: 0,
            });
            a.ecall();
        });
        assert_eq!(core.reg(Reg::A2), 0xffff_ffff); // sign-extended 0xff
        assert_eq!(core.reg(Reg::A3), 0xff);
        assert_eq!(core.reg(Reg::A1), 0x0000_ff05);
    }

    #[test]
    fn clip_matches_paper_semantics() {
        let (core, _) = run_asm(|a| {
            a.li(Reg::A1, 1000);
            a.i(Instr::PClip {
                rd: Reg::A2,
                rs1: Reg::A1,
                bits: 8,
            });
            a.li(Reg::A1, -1000);
            a.i(Instr::PClip {
                rd: Reg::A3,
                rs1: Reg::A1,
                bits: 8,
            });
            a.i(Instr::PClipU {
                rd: Reg::A4,
                rs1: Reg::A1,
                bits: 8,
            });
            a.ecall();
        });
        assert_eq!(core.reg(Reg::A2) as i32, 127);
        assert_eq!(core.reg(Reg::A3) as i32, -128);
        assert_eq!(core.reg(Reg::A4), 0);
    }

    #[test]
    fn csr_cycle_counter_visible() {
        let (core, _) = run_asm(|a| {
            a.nop();
            a.nop();
            a.i(Instr::Csr {
                op: 1,
                rd: Reg::A0,
                rs1: Reg::Zero,
                csr: pulp_isa::csr::MCYCLE,
            });
            a.ecall();
        });
        assert_eq!(core.reg(Reg::A0), 2);
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut mem = SliceMem::new(0, 64);
        mem.write(0, 4, 0xffff_ffff).unwrap();
        let mut core = Core::new(IsaConfig::xpulpnn());
        let e = core.run(&mut mem, 10).unwrap_err();
        assert_eq!(
            e,
            Trap::IllegalInstruction {
                pc: 0,
                word: 0xffff_ffff
            }
        );
    }

    #[test]
    fn bus_fault_traps_with_pc() {
        let mut a = Asm::new(0);
        a.li(Reg::A0, 0x4000_0000u32 as i32);
        a.lw(Reg::A1, 0, Reg::A0);
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut mem = SliceMem::new(0, 4096);
        mem.load_program(&prog);
        let mut core = Core::new(IsaConfig::xpulpnn());
        let e = core.run(&mut mem, 100).unwrap_err();
        assert!(matches!(e, Trap::Bus { .. }));
    }

    #[test]
    fn run_respects_cycle_budget() {
        let mut a = Asm::new(0);
        a.label("spin");
        a.j("spin");
        let prog = a.assemble().unwrap();
        let mut mem = SliceMem::new(0, 64);
        mem.load_program(&prog);
        let mut core = Core::new(IsaConfig::xpulpnn());
        let e = core.run(&mut mem, 100).unwrap_err();
        assert!(matches!(e, Trap::Watchdog { budget: 100, .. }), "{e}");
        assert!(core.perf.cycles >= 100);
    }

    #[test]
    fn x0_writes_discarded() {
        let (core, _) = run_asm(|a| {
            a.i(Instr::AluImm {
                op: AluOp::Add,
                rd: Reg::Zero,
                rs1: Reg::Zero,
                imm: 5,
            });
            a.ecall();
        });
        assert_eq!(core.reg(Reg::Zero), 0);
    }

    #[test]
    fn run_is_resumable_in_one_cycle_chunks() {
        // Interrupting and resuming the simulation (budget exhaustion)
        // must be invisible: chunked execution lands on the same state
        // and cycle count as a single run.
        let build = |a: &mut Asm| {
            a.li(Reg::A0, 5);
            a.label("top");
            a.addi(Reg::A1, Reg::A1, 3);
            a.addi(Reg::A0, Reg::A0, -1);
            a.bne(Reg::A0, Reg::Zero, "top");
            a.ecall();
        };
        let mut a = Asm::new(0);
        build(&mut a);
        let prog = a.assemble().unwrap();

        let mut mem1 = SliceMem::new(0, 4096);
        mem1.load_program(&prog);
        let mut once = Core::new(IsaConfig::xpulpnn());
        let exit_once = once.run(&mut mem1, 10_000).unwrap();

        let mut mem2 = SliceMem::new(0, 4096);
        mem2.load_program(&prog);
        let mut chunked = Core::new(IsaConfig::xpulpnn());
        let exit_chunked = loop {
            match chunked.run(&mut mem2, 1) {
                Ok(e) => {
                    assert!(e.halted);
                    break e;
                }
                Err(Trap::Watchdog { .. }) => {}
                Err(t) => panic!("unexpected trap: {t}"),
            }
        };
        assert_eq!(exit_once, exit_chunked);
        assert_eq!(once.regs, chunked.regs);
        assert_eq!(once.perf.cycles, chunked.perf.cycles);
        assert_eq!(once.perf, chunked.perf);
    }

    #[test]
    fn run_traced_reports_every_retired_instruction() {
        let mut a = Asm::new(0);
        a.li(Reg::A0, 3);
        a.label("top");
        a.addi(Reg::A0, Reg::A0, -1);
        a.bne(Reg::A0, Reg::Zero, "top");
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut mem = SliceMem::new(0, 4096);
        mem.load_program(&prog);
        let mut core = Core::new(IsaConfig::xpulpnn());
        let mut trace = Vec::new();
        let exit = core
            .run_traced(&mut mem, 1000, |pc, i| trace.push((pc, i.to_string())))
            .unwrap();
        assert!(exit.halted);
        assert_eq!(trace.len() as u64, core.perf.instret);
        assert_eq!(trace[0].0, 0);
        assert!(trace[0].1.starts_with("addi a0"));
        assert!(trace.last().unwrap().1.contains("ecall"));
        // The loop body appears three times.
        assert_eq!(
            trace.iter().filter(|(_, t)| t == "addi a0, a0, -1").count(),
            3
        );
    }

    #[test]
    fn compressed_instructions_execute() {
        use pulp_isa::compressed::compress;
        // Hand-place a mixed 16/32-bit stream:
        //   c.li a0, 5 ; c.addi a0, 3 ; c.mv a1, a0 ; ecall
        let parcels = [
            compress(&Instr::AluImm {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::Zero,
                imm: 5,
            })
            .unwrap(),
            compress(&Instr::AluImm {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: 3,
            })
            .unwrap(),
            compress(&Instr::Alu {
                op: AluOp::Add,
                rd: Reg::A1,
                rs1: Reg::Zero,
                rs2: Reg::A0,
            })
            .unwrap(),
        ];
        let mut mem = SliceMem::new(0, 64);
        let mut addr = 0;
        for p in parcels {
            mem.write(addr, 2, p as u32).unwrap();
            addr += 2;
        }
        mem.write(addr, 4, pulp_isa::encode::encode(&Instr::Ecall))
            .unwrap();
        let mut core = Core::new(IsaConfig::xpulpnn());
        let exit = core.run(&mut mem, 100).unwrap();
        assert!(exit.halted);
        assert_eq!(core.reg(Reg::A0), 8);
        assert_eq!(core.reg(Reg::A1), 8);
        assert_eq!(core.perf.instret, 4);
        // RVC trades size, not cycles.
        assert_eq!(core.perf.cycles, 4);
    }

    #[test]
    fn compressed_jal_links_narrow_return_address() {
        use pulp_isa::compressed::compress;
        let mut mem = SliceMem::new(0, 64);
        // 0x00: c.jal +6  (to 0x06)
        // 0x02: ecall (32-bit, at the return point... place return at 0x02)
        let cjal = compress(&Instr::Jal {
            rd: Reg::Ra,
            offset: 6,
        })
        .unwrap();
        mem.write(0, 2, cjal as u32).unwrap();
        mem.write(2, 4, pulp_isa::encode::encode(&Instr::Ecall))
            .unwrap();
        // 0x06: c.jr ra (returns to 0x02)
        let cjr = compress(&Instr::Jalr {
            rd: Reg::Zero,
            rs1: Reg::Ra,
            offset: 0,
        })
        .unwrap();
        mem.write(6, 2, cjr as u32).unwrap();
        let mut core = Core::new(IsaConfig::xpulpnn());
        let exit = core.run(&mut mem, 100).unwrap();
        assert!(exit.halted);
        assert_eq!(core.reg(Reg::Ra), 2, "c.jal links pc + 2");
    }

    #[test]
    fn all_zero_parcel_is_illegal() {
        let mut mem = SliceMem::new(0, 16);
        let mut core = Core::new(IsaConfig::xpulpnn());
        let e = core.run(&mut mem, 10).unwrap_err();
        assert_eq!(e, Trap::IllegalInstruction { pc: 0, word: 0 });
    }

    #[test]
    fn exit_code_is_a0() {
        let (core, _) = run_asm(|a| {
            a.li(Reg::A0, 17);
            a.ecall();
        });
        assert_eq!(core.reg(Reg::A0), 17);
    }

    #[test]
    fn ledger_balances_and_attributes_a_mixed_program() {
        use crate::perf::CycleClass as C;
        let (core, _) = run_asm(|a| {
            a.li(Reg::A0, 100); // alu
            a.li(Reg::A1, 7); // alu
            a.i(Instr::MulDiv {
                op: pulp_isa::instr::MulDivOp::Div,
                rd: Reg::A2,
                rs1: Reg::A0,
                rs2: Reg::A1,
            });
            a.li(Reg::A3, 0x2000);
            a.sw(Reg::A0, 0, Reg::A3); // aligned store
            a.lw(Reg::A4, 0, Reg::A3); // aligned load
            a.li(Reg::A5, 0x1002);
            a.sw(Reg::A0, 0, Reg::A5); // misaligned store: +1 stall
            a.pv_sdot(
                SimdFmt::Byte,
                DotSign::SignedSigned,
                Reg::A2,
                Reg::A0,
                Reg::A1,
            );
            a.beq(Reg::Zero, Reg::Zero, "out"); // taken branch
            a.label("out");
            a.ecall();
        });
        let l = &core.perf.ledger;
        assert_eq!(core.perf.cycles, l.total(), "ledger must balance");
        assert_eq!(l.get(C::Div), timing::div_cycles(100));
        assert_eq!(l.get(C::Load), 1);
        assert_eq!(l.get(C::Store), 2);
        assert_eq!(l.get(C::MisalignStall), 1);
        assert_eq!(l.get(C::Branch), timing::BRANCH_TAKEN_CYCLES);
        assert_eq!(l.get(C::Dotp(SimdFmt::Byte)), 1);
        assert_eq!(l.get(C::Csr), 1, "ecall is charged to csr");
        assert_eq!(l.get(C::Qnt), 0);
    }

    #[test]
    fn ledger_splits_qnt_misalign_stalls() {
        use crate::perf::CycleClass as C;
        use crate::quant::{eytzinger, tree_stride};
        let sorted = [-50i16, 0, 50];
        let mut a = Asm::new(0);
        a.li(Reg::A2, 0x4001); // odd tree base: misaligned fetches
        a.li(Reg::A1, 0);
        a.pv_qnt(SimdFmt::Crumb, Reg::A0, Reg::A1, Reg::A2);
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut mem = SliceMem::new(0, 1 << 16);
        mem.load_program(&prog);
        for (i, t) in eytzinger(&sorted).iter().enumerate() {
            mem.write(0x4001 + (i as u32) * 2, 2, *t as u16 as u32)
                .unwrap();
            mem.write(
                0x4001 + tree_stride(SimdFmt::Crumb) + (i as u32) * 2,
                2,
                *t as u16 as u32,
            )
            .unwrap();
        }
        let mut core = Core::new(IsaConfig::xpulpnn());
        core.pc = prog.base;
        assert!(core.run(&mut mem, 1000).unwrap().halted);
        let l = &core.perf.ledger;
        assert_eq!(core.perf.cycles, l.total());
        // The base pv.qnt latency lands in Qnt; the two misaligned
        // threshold fetches (addr % 4 == 3) land in MisalignStall.
        assert_eq!(l.get(C::Qnt), timing::qnt_cycles(SimdFmt::Crumb));
        assert_eq!(l.get(C::MisalignStall), 2);
    }

    #[test]
    fn tracer_records_tail_and_hotspots() {
        let mut a = Asm::new(0);
        a.li(Reg::A0, 3);
        a.label("loop");
        a.addi(Reg::A0, Reg::A0, -1);
        a.bne(Reg::A0, Reg::Zero, "loop");
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut mem = SliceMem::new(0, 4096);
        mem.load_program(&prog);
        let mut core = Core::new(IsaConfig::xpulpnn());
        core.pc = prog.base;
        core.attach_tracer(4);
        assert!(core.run(&mut mem, 1000).unwrap().halted);
        let t = core.tracer().expect("tracer attached");
        assert_eq!(t.retired(), core.perf.instret);
        // Per-entry cycle costs sum to the core's cycle counter (ring is
        // bigger than the program here, so nothing was evicted... except
        // possibly; use hotspots which survive eviction).
        let hot_total: u64 = t.hotspots(usize::MAX).iter().map(|h| h.cycles).sum();
        assert_eq!(hot_total, core.perf.cycles);
        let dump = core.tracer().unwrap().dump_tail();
        assert!(dump.contains("ecall"));
        let taken = core.take_tracer().expect("take");
        assert!(core.tracer().is_none());
        assert_eq!(taken.retired(), core.perf.instret);
    }

    #[test]
    fn reset_clears_tracer_but_keeps_it_attached() {
        let (mut core, mut mem) = run_asm(|a| {
            a.li(Reg::A0, 1);
            a.ecall();
        });
        core.attach_tracer(8);
        core.reset();
        // Re-run the same image with the tracer attached from pc 0.
        assert!(core.run(&mut mem, 1000).unwrap().halted);
        let t = core.tracer().expect("still attached");
        assert_eq!(t.retired(), core.perf.instret);
    }

    use pulp_isa::vec::{VReg, VecSew};

    /// A 16-byte dot product through the vector unit: load two vectors,
    /// `vdotup.vv`, check value, counters and the ledger invariant.
    #[test]
    fn vector_load_dot_store_round_trip() {
        let (core, mem) = run_asm_isa(IsaConfig::vector(), |a| {
            a.li(Reg::A1, 0x2000);
            a.li(Reg::A2, 0x2100);
            // Stage 16 bytes of 1,2,...,16 at 0x2000 and all-ones at 0x2100.
            for i in 0..16u32 {
                a.li(Reg::T0, (i + 1) as i32);
                a.i(Instr::Store {
                    kind: pulp_isa::StoreKind::Byte,
                    rs1: Reg::A1,
                    rs2: Reg::T0,
                    offset: i as i32,
                });
                a.li(Reg::T0, 1);
                a.i(Instr::Store {
                    kind: pulp_isa::StoreKind::Byte,
                    rs1: Reg::A2,
                    rs2: Reg::T0,
                    offset: i as i32,
                });
            }
            a.i(Instr::VSetvli {
                rd: Reg::T1,
                rs1: Reg::Zero,
                sew: VecSew::E8,
            });
            a.i(Instr::VLoad {
                vd: VReg::V0,
                rs1: Reg::A1,
            });
            a.i(Instr::VLoad {
                vd: VReg::new(1).unwrap(),
                rs1: Reg::A2,
            });
            a.i(Instr::VDot {
                sign: DotSign::UnsignedUnsigned,
                rd: Reg::A0,
                vs1: VReg::V0,
                vs2: VReg::new(1).unwrap(),
            });
            a.i(Instr::VStore {
                vs: VReg::V0,
                rs1: Reg::A2,
            });
            a.ecall();
        });
        assert_eq!(core.reg(Reg::T1), 16, "VLMAX at VLEN=128 e8");
        assert_eq!(core.reg(Reg::A0), (1..=16).sum::<u32>());
        assert_eq!(core.perf.vec_loads, 2);
        assert_eq!(core.perf.vec_stores, 1);
        assert_eq!(core.perf.vec_dots, 1);
        assert_eq!(core.perf.vec_macs, 16);
        assert_eq!(core.perf.total_macs(), 16);
        assert_eq!(&mem.as_bytes()[0x2100..0x2104], &[1, 2, 3, 4]);
        // Timing: vsetvli 1; each 16-byte unit-stride access 1 + 2 beats;
        // dot 1 + ceil(128/128).
        assert_eq!(core.perf.ledger.get(CycleClass::VecCfg), 1);
        assert_eq!(core.perf.ledger.get(CycleClass::VecLoad), 6);
        assert_eq!(core.perf.ledger.get(CycleClass::VecStore), 3);
        assert_eq!(core.perf.ledger.get(CycleClass::VecDot), 2);
        assert_eq!(core.perf.cycles, core.perf.ledger.total());
    }

    #[test]
    fn vector_traps_without_the_extension() {
        let mut a = Asm::new(0);
        a.i(Instr::VSetvli {
            rd: Reg::T0,
            rs1: Reg::Zero,
            sew: VecSew::E4,
        });
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut mem = SliceMem::new(0, 4096);
        mem.load_program(&prog);
        for isa in [
            IsaConfig::rv32im(),
            IsaConfig::xpulpv2(),
            IsaConfig::xpulpnn(),
        ] {
            let mut core = Core::new(isa);
            core.pc = prog.base;
            assert_eq!(
                core.run(&mut mem, 100).unwrap_err(),
                Trap::ExtensionFault {
                    pc: 0,
                    required: "xrvv"
                },
                "{}",
                isa.name()
            );
        }
        let mut core = Core::new(IsaConfig::vector());
        core.pc = prog.base;
        assert!(core.run(&mut mem, 100).unwrap().halted);
        assert_eq!(core.reg(Reg::T0), 32);
    }

    #[test]
    fn strided_access_at_sub_byte_sew_is_illegal() {
        let mut a = Asm::new(0);
        a.li(Reg::A1, 0x1000);
        a.li(Reg::A2, 4);
        a.i(Instr::VSetvli {
            rd: Reg::T0,
            rs1: Reg::Zero,
            sew: VecSew::E4,
        });
        a.i(Instr::VLoadStrided {
            vd: VReg::V0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        });
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut mem = SliceMem::new(0, 1 << 16);
        mem.load_program(&prog);
        let mut core = Core::new(IsaConfig::vector());
        core.pc = prog.base;
        let e = core.run(&mut mem, 100).unwrap_err();
        assert!(matches!(e, Trap::IllegalInstruction { .. }), "got {e:?}");
    }

    #[test]
    fn vector_state_snapshots_and_restores() {
        let (mut core, _mem) = run_asm_isa(IsaConfig::vector(), |a| {
            a.li(Reg::A1, 0x3000);
            a.li(Reg::T0, 0x7f);
            a.sw(Reg::T0, 0, Reg::A1);
            a.i(Instr::VSetvli {
                rd: Reg::T1,
                rs1: Reg::Zero,
                sew: VecSew::E8,
            });
            a.i(Instr::VLoad {
                vd: VReg::V0,
                rs1: Reg::A1,
            });
            a.ecall();
        });
        let snap = core.snapshot();
        let vec_before = core.vector_unit().expect("unit").clone();
        assert_eq!(vec_before.vl(), 16);
        let mut h1 = 0xcbf2_9ce4_8422_2325u64;
        snap.fold_fnv(&mut h1);

        // Mutate vector state: reconfiguring VLEN zeroes the unit.
        core.set_vlen(64);
        assert_ne!(*core.vector_unit().expect("unit"), vec_before);

        core.restore(&snap);
        assert_eq!(*core.vector_unit().expect("unit"), vec_before);
        let mut h2 = 0xcbf2_9ce4_8422_2325u64;
        core.snapshot().fold_fnv(&mut h2);
        assert_eq!(h1, h2, "snapshot hash covers vector state");
    }

    #[test]
    fn set_vlen_reconfigures_vlmax() {
        let mut a = Asm::new(0);
        a.i(Instr::VSetvli {
            rd: Reg::A0,
            rs1: Reg::Zero,
            sew: VecSew::E2,
        });
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut mem = SliceMem::new(0, 4096);
        mem.load_program(&prog);
        let mut core = Core::new(IsaConfig::vector());
        core.set_vlen(256);
        core.pc = prog.base;
        assert!(core.run(&mut mem, 100).unwrap().halted);
        assert_eq!(core.reg(Reg::A0), 128, "VLEN=256 at e2");
    }

    /// The fast path executes vector ops through `USpec::Generic`; the
    /// counters and results must match pure interpretation bit-exactly.
    #[test]
    fn fastpath_matches_interpreter_on_vector_program() {
        let mut a = Asm::new(0);
        a.li(Reg::A1, 0x2000);
        a.li(Reg::T2, 8);
        a.lp_setup(pulp_isa::instr::LoopIdx::L0, Reg::T2, "end");
        a.i(Instr::VSetvli {
            rd: Reg::T1,
            rs1: Reg::Zero,
            sew: VecSew::E4,
        });
        a.i(Instr::VLoad {
            vd: VReg::V0,
            rs1: Reg::A1,
        });
        a.i(Instr::VDot {
            sign: DotSign::UnsignedSigned,
            rd: Reg::A0,
            vs1: VReg::V0,
            vs2: VReg::V0,
        });
        a.label("end");
        a.ecall();
        let prog = a.assemble().unwrap();

        let run = |fast: bool| {
            let mut mem = SliceMem::new(0, 1 << 16);
            mem.load_program(&prog);
            for i in 0..16u32 {
                mem.write(0x2000 + i, 1, 0xa5u32.wrapping_mul(i + 1) & 0xff)
                    .unwrap();
            }
            let mut core = Core::new(IsaConfig::vector());
            if fast {
                core.enable_fastpath();
            }
            core.pc = prog.base;
            assert!(core.run(&mut mem, 100_000).unwrap().halted);
            (
                core.reg(Reg::A0),
                core.perf,
                core.vector_unit().expect("unit").clone(),
            )
        };
        let (interp_a0, interp_perf, interp_vec) = run(false);
        let (fast_a0, fast_perf, fast_vec) = run(true);
        assert_eq!(interp_a0, fast_a0);
        assert_eq!(interp_perf, fast_perf);
        assert_eq!(interp_vec, fast_vec);
        assert_eq!(interp_perf.vec_dots, 8);
    }
}
