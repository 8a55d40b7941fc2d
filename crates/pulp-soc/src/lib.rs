#![warn(missing_docs)]

//! A PULPissimo-like microcontroller model hosting the extended RI5CY
//! core.
//!
//! The paper integrates its core into the open-source PULPissimo SoC
//! (512 kB of SRAM, a µDMA and peripherals — Fig. 5) to measure
//! system-level cycles and power. The kernels only exercise the core and
//! the single-cycle memory, so this model provides exactly that contract:
//!
//! * **L2 SRAM**: 512 kB at `0x1C00_0000` holding code and data, with
//!   single-cycle access (the [`riscv_core::timing`] rules account
//!   misalignment);
//! * **console peripheral**: a write-only byte register (standing in for
//!   PULPissimo's UART through the µDMA) so programs can print;
//! * **end-of-computation**: the `ecall` halt convention of the core.
//!
//! # Example
//!
//! ```
//! use pulp_soc::Soc;
//! use pulp_asm::Asm;
//! use pulp_isa::Reg;
//! use riscv_core::IsaConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new(pulp_soc::CODE_BASE);
//! a.li(Reg::A0, '4' as i32);
//! a.li(Reg::A1, pulp_soc::CONSOLE_ADDR as i32);
//! a.sb(Reg::A0, 0, Reg::A1);
//! a.li(Reg::A0, 2);
//! a.ecall();
//! let prog = a.assemble()?;
//!
//! let mut soc = Soc::new(IsaConfig::xpulpnn());
//! soc.load(&prog);
//! let report = soc.run(10_000)?;
//! assert!(report.exit.halted);
//! assert_eq!(report.exit.exit_code, 2);
//! assert_eq!(soc.console_text(), "4");
//! # Ok(())
//! # }
//! ```

pub mod cluster;

use pulp_asm::Program;
use riscv_core::{Bus, BusError, Core, ExitStatus, IsaConfig, PerfCounters, Snapshot, Trap};

/// Base address of the 512 kB L2 SRAM.
pub const L2_BASE: u32 = 0x1c00_0000;
/// Size of the L2 SRAM in bytes (PULPissimo ships 512 kB).
pub const L2_SIZE: u32 = 512 * 1024;
/// Conventional load address for program code within L2.
pub const CODE_BASE: u32 = 0x1c00_8000;
/// Write-only console byte register (stands in for the UART).
pub const CONSOLE_ADDR: u32 = 0x1a10_0000;
/// Initial stack pointer: top of L2.
pub const STACK_TOP: u32 = L2_BASE + L2_SIZE;

/// Granule of [`SocSnapshot`]'s sparse L2 image and of [`SocMem`]'s
/// dirty tracking.
const PAGE_SIZE: usize = 4 * 1024;

/// The pages of `mask`, ascending.
fn pages(mut mask: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let page = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            page
        })
    })
}

/// The bytes of L2 page `page`.
fn page_range(page: usize) -> std::ops::Range<usize> {
    page * PAGE_SIZE..(page + 1) * PAGE_SIZE
}

/// The SoC memory system: L2 SRAM plus peripherals.
#[derive(Debug, Clone)]
pub struct SocMem {
    l2: Vec<u8>,
    /// Bit `p` is set when L2 page `p` may be non-zero: it was written
    /// since the last [`Soc::restore`], or that restore copied it in.
    /// Every page with a clear bit is all zero.
    dirty: u128,
    console: Vec<u8>,
}

// One bit of `SocMem::dirty` per L2 page.
const _: () = assert!(L2_SIZE as usize / PAGE_SIZE == u128::BITS as usize);

impl SocMem {
    /// Creates zeroed SRAM and an empty console buffer.
    pub fn new() -> SocMem {
        SocMem {
            l2: vec![0; L2_SIZE as usize],
            dirty: 0,
            console: Vec::new(),
        }
    }

    /// Marks every page that the `len >= 1` bytes at L2 offset `off`
    /// touch as possibly non-zero.
    #[inline]
    fn mark_dirty(&mut self, off: usize, len: usize) {
        let first = off / PAGE_SIZE;
        let last = (off + len - 1) / PAGE_SIZE;
        self.dirty |= (u128::MAX >> (127 - (last - first))) << first;
    }

    #[inline]
    fn l2_offset(&self, addr: u32, size: u32) -> Option<usize> {
        let off = addr.checked_sub(L2_BASE)? as usize;
        if off + size as usize <= self.l2.len() {
            Some(off)
        } else {
            None
        }
    }

    /// Bytes written to the console peripheral so far.
    pub fn console_bytes(&self) -> &[u8] {
        &self.console
    }

    /// Host-side bulk write into L2 (for loading tensors).
    ///
    /// # Panics
    ///
    /// Panics if the range leaves L2; host-side setup bugs should fail
    /// loudly.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let off = self
            .l2_offset(addr, bytes.len() as u32)
            .unwrap_or_else(|| panic!("host write outside L2: {addr:#010x}"));
        if bytes.is_empty() {
            return;
        }
        self.mark_dirty(off, bytes.len());
        self.l2[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Host-side bulk read from L2 (for collecting results).
    ///
    /// # Panics
    ///
    /// Panics if the range leaves L2.
    pub fn read_bytes(&self, addr: u32, len: usize) -> &[u8] {
        let off = self
            .l2_offset(addr, len as u32)
            .unwrap_or_else(|| panic!("host read outside L2: {addr:#010x}"));
        &self.l2[off..off + len]
    }

    /// Host-side 16-bit little-endian write helper.
    pub fn write_i16(&mut self, addr: u32, value: i16) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Host-side 32-bit little-endian read helper.
    pub fn read_u32(&self, addr: u32) -> u32 {
        let b = self.read_bytes(addr, 4);
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }
}

impl Default for SocMem {
    fn default() -> Self {
        SocMem::new()
    }
}

impl Bus for SocMem {
    #[inline]
    fn read(&mut self, addr: u32, size: u32) -> Result<u32, BusError> {
        if let Some(off) = self.l2_offset(addr, size) {
            let mut v = 0u32;
            for i in (0..size as usize).rev() {
                v = (v << 8) | self.l2[off + i] as u32;
            }
            return Ok(v);
        }
        Err(BusError {
            addr,
            size,
            write: false,
        })
    }

    /// One copy when the whole span lies in L2; otherwise byte beats,
    /// so a fault names the first unmapped byte and `buf` keeps the
    /// bytes before it.
    #[inline]
    fn read_block(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), BusError> {
        if let Some(off) = self.l2_offset(addr, buf.len() as u32) {
            buf.copy_from_slice(&self.l2[off..off + buf.len()]);
            return Ok(());
        }
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.read(addr.wrapping_add(i as u32), 1)? as u8;
        }
        Ok(())
    }

    #[inline]
    fn write(&mut self, addr: u32, size: u32, value: u32) -> Result<(), BusError> {
        if addr == CONSOLE_ADDR {
            self.console.push(value as u8);
            return Ok(());
        }
        if let Some(off) = self.l2_offset(addr, size) {
            self.mark_dirty(off, size as usize);
            for i in 0..size as usize {
                self.l2[off + i] = (value >> (8 * i)) as u8;
            }
            return Ok(());
        }
        Err(BusError {
            addr,
            size,
            write: true,
        })
    }
}

/// Outcome of a program run: exit status plus a snapshot of the core's
/// performance counters for this run only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Halt/budget status and exit code.
    pub exit: ExitStatus,
    /// Counters accumulated during this run.
    pub perf: PerfCounters,
}

/// A checkpoint of the whole SoC: the core's architectural
/// [`Snapshot`] plus the L2 image and console buffer. Restoring it and
/// re-running is deterministic, which is what rollback recovery and
/// fault replay build on.
///
/// The L2 image is page-sparse: only its non-zero 4 KiB pages are
/// stored, as `(index, bytes)` in ascending index order, and every
/// absent page is all zero. The form is canonical — no stored page is
/// all zero — so two snapshots of the same logical state compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocSnapshot {
    core: Snapshot,
    pages: Vec<(usize, Box<[u8]>)>,
    console: Vec<u8>,
}

impl SocSnapshot {
    /// Cycle count at the checkpoint.
    pub fn cycles(&self) -> u64 {
        self.core.cycles()
    }

    /// Program counter at the checkpoint.
    pub fn pc(&self) -> u32 {
        self.core.pc()
    }

    /// Number of non-zero 4 KiB L2 pages the checkpoint stores (of the
    /// 128 that make up L2).
    pub fn stored_pages(&self) -> usize {
        self.pages.len()
    }

    /// FNV-1a style checksum over the whole checkpoint: the core's
    /// architectural state, each stored L2 page's index and bytes
    /// (folded 8 bytes at a time) and the console buffer. Since the
    /// stored form is canonical, two snapshots compare equal iff their
    /// checksums do for all practical purposes; the serving layer
    /// verifies it before every request to catch a corrupted template
    /// before it reaches a worker.
    pub fn checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        self.core.fold_fnv(&mut h);
        let mut fold = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        fold(self.pages.len() as u64);
        for (index, bytes) in &self.pages {
            fold(*index as u64);
            for c in bytes.chunks_exact(8) {
                fold(u64::from_le_bytes([
                    c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
                ]));
            }
        }
        fold(self.console.len() as u64);
        for &b in &self.console {
            fold(u64::from(b));
        }
        h
    }

    /// Fault-injection hook: flips one bit of the logical 512 KiB L2
    /// image inside the checkpoint (offset is wrapped into range). A
    /// strike on an absent page stores that page; a strike that
    /// returns a page to all zero drops it, keeping the form
    /// canonical. Models a soft error striking a stored
    /// template/checkpoint while it sits in host memory — exactly what
    /// [`SocSnapshot::checksum`] verification is there to catch. Never
    /// used on the clean serving path.
    pub fn corrupt_l2_bit(&mut self, offset: usize, bit: u8) {
        let off = offset % L2_SIZE as usize;
        let page = off / PAGE_SIZE;
        let at = match self.pages.binary_search_by_key(&page, |(index, _)| *index) {
            Ok(at) => at,
            Err(at) => {
                self.pages.insert(at, (page, vec![0; PAGE_SIZE].into()));
                at
            }
        };
        let bytes = &mut self.pages[at].1;
        bytes[off % PAGE_SIZE] ^= 1 << (bit % 8);
        if bytes.iter().all(|&b| b == 0) {
            self.pages.remove(at);
        }
    }
}

/// The microcontroller: one RI5CY-family core plus [`SocMem`].
#[derive(Debug, Clone)]
pub struct Soc {
    /// The core (exposed for register inspection in tests/examples).
    pub core: Core,
    /// The memory system (exposed for host-side tensor I/O).
    pub mem: SocMem,
}

impl Soc {
    /// Creates an SoC with the given core configuration.
    pub fn new(isa: IsaConfig) -> Soc {
        Soc {
            core: Core::new(isa),
            mem: SocMem::new(),
        }
    }

    /// Creates an SoC whose core carries a vector unit of the given
    /// VLEN (in bits). Shorthand for [`Soc::new`] followed by
    /// [`riscv_core::Core::set_vlen`]; use with
    /// [`IsaConfig::vector`](riscv_core::IsaConfig::vector).
    pub fn with_vlen(isa: IsaConfig, vlen_bits: u32) -> Soc {
        let mut soc = Soc::new(isa);
        soc.core.set_vlen(vlen_bits);
        soc
    }

    /// Enables the core's decoded-block fast path (see
    /// [`riscv_core::fastpath`]). Call [`Soc::invalidate_fastpath`]
    /// after any later host-side write that may touch already-fetched
    /// code; [`Soc::load`] and [`Soc::restore`] handle themselves.
    pub fn enable_fastpath(&mut self) {
        self.core.enable_fastpath();
    }

    /// Drops cached decoded blocks after host-side writes that bypass
    /// the bus (no-op when the fast path is disabled).
    pub fn invalidate_fastpath(&mut self) {
        self.core.invalidate_fastpath();
    }

    /// Loads a program's code and data into L2 and points the core at
    /// its entry, with the stack at the top of L2.
    ///
    /// # Panics
    ///
    /// Panics if any segment falls outside L2.
    pub fn load(&mut self, prog: &Program) {
        for (i, w) in prog.words.iter().enumerate() {
            self.mem
                .write_bytes(prog.base + (i as u32) * 4, &w.to_le_bytes());
        }
        for (addr, bytes) in &prog.data {
            self.mem.write_bytes(*addr, bytes);
        }
        // The load bypasses the bus, so any blocks decoded from a
        // previously-loaded program are stale.
        self.core.invalidate_fastpath();
        self.core.pc = prog.base;
        self.core.set_reg(pulp_isa::Reg::Sp, STACK_TOP);
    }

    /// Runs until halt or the cycle budget expires.
    ///
    /// # Errors
    ///
    /// Propagates any [`Trap`] from the core.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunReport, Trap> {
        let before = self.core.perf;
        let exit = self.core.run(&mut self.mem, max_cycles)?;
        let perf = self.core.perf.delta_since(&before);
        Ok(RunReport { exit, perf })
    }

    /// Captures a checkpoint of the core and the memory image. Only
    /// pages marked dirty are scanned, and only the non-zero ones among
    /// them are stored.
    pub fn snapshot(&self) -> SocSnapshot {
        let l2 = &self.mem.l2;
        SocSnapshot {
            core: self.core.snapshot(),
            pages: pages(self.mem.dirty)
                .map(|page| (page, &l2[page_range(page)]))
                .filter(|(_, bytes)| bytes.iter().any(|&b| b != 0))
                .map(|(page, bytes)| (page, bytes.into()))
                .collect(),
            console: self.mem.console.clone(),
        }
    }

    /// Restores a checkpoint taken with [`Soc::snapshot`]. Only pages
    /// that may differ are touched: dirty pages the checkpoint does not
    /// store are zeroed, stored pages are copied in, and afterwards
    /// exactly the stored pages are marked dirty. An attached tracer on
    /// the core stays attached untouched.
    pub fn restore(&mut self, snap: &SocSnapshot) {
        self.core.restore(&snap.core);
        let stored = snap
            .pages
            .iter()
            .fold(0u128, |mask, (page, _)| mask | 1 << page);
        let mem = &mut self.mem;
        for page in pages(mem.dirty & !stored) {
            mem.l2[page_range(page)].fill(0);
        }
        for (page, bytes) in &snap.pages {
            mem.l2[page_range(*page)].copy_from_slice(bytes);
        }
        mem.dirty = stored;
        mem.console.clear();
        mem.console.extend_from_slice(&snap.console);
    }

    /// The console output interpreted as UTF-8 (lossy).
    pub fn console_text(&self) -> String {
        String::from_utf8_lossy(self.mem.console_bytes()).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulp_asm::Asm;
    use pulp_isa::Reg;

    #[test]
    fn load_and_run_in_l2() {
        let mut a = Asm::new(CODE_BASE);
        a.li(Reg::A0, 7);
        a.slli(Reg::A0, Reg::A0, 2);
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut soc = Soc::new(IsaConfig::xpulpnn());
        soc.load(&prog);
        let r = soc.run(1000).unwrap();
        assert!(r.exit.halted);
        assert_eq!(r.exit.exit_code, 28);
        assert_eq!(soc.core.reg(Reg::Sp), STACK_TOP);
    }

    #[test]
    fn data_segments_are_loaded() {
        let mut a = Asm::new(CODE_BASE);
        a.la(Reg::A1, "table");
        a.lw(Reg::A0, 4, Reg::A1);
        a.ecall();
        a.data_words("table", &[11, 22, 33]);
        let prog = a.assemble().unwrap();
        let mut soc = Soc::new(IsaConfig::xpulpnn());
        soc.load(&prog);
        let r = soc.run(1000).unwrap();
        assert_eq!(r.exit.exit_code, 22);
    }

    #[test]
    fn console_collects_bytes() {
        let mut a = Asm::new(CODE_BASE);
        a.li(Reg::A1, CONSOLE_ADDR as i32);
        for c in b"ok" {
            a.li(Reg::A0, *c as i32);
            a.sb(Reg::A0, 0, Reg::A1);
        }
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut soc = Soc::new(IsaConfig::xpulpnn());
        soc.load(&prog);
        soc.run(1000).unwrap();
        assert_eq!(soc.console_text(), "ok");
    }

    #[test]
    fn unmapped_access_is_a_bus_trap() {
        let mut a = Asm::new(CODE_BASE);
        a.li(Reg::A0, 0x1000_0000);
        a.lw(Reg::A1, 0, Reg::A0);
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut soc = Soc::new(IsaConfig::xpulpnn());
        soc.load(&prog);
        assert!(matches!(soc.run(1000), Err(Trap::Bus { .. })));
    }

    #[test]
    fn host_io_round_trip() {
        let mut soc = Soc::new(IsaConfig::xpulpnn());
        soc.mem.write_bytes(L2_BASE + 0x100, &[1, 2, 3, 4]);
        assert_eq!(soc.mem.read_bytes(L2_BASE + 0x100, 4), &[1, 2, 3, 4]);
        assert_eq!(soc.mem.read_u32(L2_BASE + 0x100), 0x0403_0201);
        soc.mem.write_i16(L2_BASE + 0x200, -2);
        assert_eq!(soc.mem.read_bytes(L2_BASE + 0x200, 2), &[0xfe, 0xff]);
    }

    #[test]
    #[should_panic(expected = "outside L2")]
    fn host_write_outside_l2_panics() {
        let mut soc = Soc::new(IsaConfig::xpulpnn());
        soc.mem.write_bytes(0x1000, &[0]);
    }

    #[test]
    fn run_report_isolates_counters_per_run() {
        let mut a = Asm::new(CODE_BASE);
        a.nop();
        a.nop();
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut soc = Soc::new(IsaConfig::xpulpnn());
        soc.load(&prog);
        let r1 = soc.run(1000).unwrap();
        soc.load(&prog); // reset PC; counters keep accumulating
        let r2 = soc.run(1000).unwrap();
        // Reports are full per-run deltas: every counter matches, not
        // just cycles/instret, and each run's ledger balances on its own.
        assert_eq!(r1.perf, r2.perf);
        assert_eq!(soc.core.perf.cycles, r1.perf.cycles * 2);
        assert_eq!(r1.perf.ledger.total(), r1.perf.cycles);
        assert_eq!(r2.perf.ledger.total(), r2.perf.cycles);
    }

    #[test]
    fn soc_snapshot_round_trip_restores_memory_and_console() {
        let mut a = Asm::new(CODE_BASE);
        a.li(Reg::A1, CONSOLE_ADDR as i32);
        a.li(Reg::A0, b'x' as i32);
        a.sb(Reg::A0, 0, Reg::A1);
        a.li(Reg::A2, (L2_BASE + 0x1_0000) as i32);
        a.li(Reg::A0, 77);
        a.sw(Reg::A0, 0, Reg::A2);
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut soc = Soc::new(IsaConfig::xpulpnn());
        soc.load(&prog);
        let snap = soc.snapshot();
        let r1 = soc.run(1000).unwrap();
        assert_eq!(soc.console_text(), "x");

        // Roll back: memory write and console byte must both vanish,
        // and a re-run must reproduce the original run exactly.
        let mut replay = soc.clone();
        replay.restore(&snap);
        assert_eq!(replay.snapshot(), snap);
        assert_eq!(replay.console_text(), "");
        assert_eq!(replay.mem.read_u32(L2_BASE + 0x1_0000), 0);
        let r2 = replay.run(1000).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(replay.core.perf, soc.core.perf);
    }

    #[test]
    fn budget_exhaustion_is_a_watchdog_trap() {
        let mut a = Asm::new(CODE_BASE);
        a.label("spin");
        a.j("spin");
        let prog = a.assemble().unwrap();
        let mut soc = Soc::new(IsaConfig::xpulpnn());
        soc.load(&prog);
        assert!(matches!(
            soc.run(100),
            Err(Trap::Watchdog { budget: 100, .. })
        ));
    }

    /// Serving-template audit pin (fast-path staleness): restoring a
    /// snapshot of a *different* program staged at the same base must
    /// never replay decoded blocks of the previous one. `Core::restore`
    /// flushes the block cache unconditionally — this test holds that
    /// contract for the snapshot-forked worker path.
    #[test]
    fn restore_of_another_template_cannot_replay_stale_blocks() {
        let prog = |k: i32| {
            let mut a = Asm::new(CODE_BASE);
            a.li(Reg::A0, k);
            a.ecall();
            a.assemble().unwrap()
        };
        let (prog_a, prog_b) = (prog(11), prog(22));
        let mut soc = Soc::new(IsaConfig::xpulpnn());
        soc.load(&prog_a);
        let template_a = soc.snapshot();
        soc.load(&prog_b);
        let template_b = soc.snapshot();

        soc.enable_fastpath();
        soc.restore(&template_a);
        // Warm the block cache on program A's code.
        assert_eq!(soc.run(1000).unwrap().exit.exit_code, 11);
        // Re-fork onto template B at the same addresses: stale blocks
        // from A must not survive the restore.
        soc.restore(&template_b);
        assert_eq!(soc.run(1000).unwrap().exit.exit_code, 22);
        // And back again, still exact.
        soc.restore(&template_a);
        assert_eq!(soc.run(1000).unwrap().exit.exit_code, 11);
    }

    /// Serving-template audit pin (data divergence): two workers forked
    /// from ONE post-staging snapshot, with host-diverged input words,
    /// must each compute from their own data — decoded blocks may be
    /// shared conceptually, data never.
    #[test]
    fn two_forks_from_one_template_diverge_on_inputs() {
        let data = L2_BASE + 0x2_0000;
        let mut a = Asm::new(CODE_BASE);
        a.li(Reg::A1, data as i32);
        a.lw(Reg::A0, 0, Reg::A1);
        a.slli(Reg::A0, Reg::A0, 1);
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut staged = Soc::new(IsaConfig::xpulpnn());
        staged.load(&prog);
        let template = staged.snapshot();

        let fork = |input: u32| {
            let mut soc = Soc::new(IsaConfig::xpulpnn());
            soc.enable_fastpath();
            soc.restore(&template);
            soc.mem.write_bytes(data, &input.to_le_bytes());
            soc.run(1000).unwrap()
        };
        let r1 = fork(21);
        let r2 = fork(100);
        assert_eq!(r1.exit.exit_code, 42);
        assert_eq!(r2.exit.exit_code, 200);
        // Same code path, same cost — only the data diverged.
        assert_eq!(r1.perf, r2.perf);
    }

    /// Snapshot-integrity pin: the checksum is stable across identical
    /// snapshots, sensitive to a single flipped L2 bit, and restored
    /// state round-trips back to the original checksum.
    #[test]
    fn snapshot_checksum_detects_single_bit_corruption() {
        let mut a = Asm::new(CODE_BASE);
        a.li(Reg::A0, 5);
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut soc = Soc::new(IsaConfig::xpulpnn());
        soc.load(&prog);
        let snap = soc.snapshot();
        let sum = snap.checksum();
        assert_eq!(soc.snapshot().checksum(), sum, "checksum must be stable");

        let mut bad = snap.clone();
        bad.corrupt_l2_bit(0x1234, 3);
        assert_ne!(bad.checksum(), sum, "one flipped bit must change it");
        // Flipping the same bit back restores the checksum exactly.
        bad.corrupt_l2_bit(0x1234, 3);
        assert_eq!(bad.checksum(), sum);

        // Restore + re-snapshot reproduces the checksum.
        let mut other = Soc::new(IsaConfig::xpulpnn());
        other.restore(&snap);
        assert_eq!(other.snapshot().checksum(), sum);
    }

    /// Canonical sparse form: a strike on an absent page stores that
    /// page and changes the checksum; striking it again drops the page,
    /// so the snapshot compares equal to the original, not merely
    /// checksum-equal. A page written back to zero is not stored either.
    #[test]
    fn strike_on_absent_page_is_visible_and_double_strike_is_canonical() {
        let mut a = Asm::new(CODE_BASE);
        a.li(Reg::A0, 5);
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut soc = Soc::new(IsaConfig::xpulpnn());
        soc.load(&prog);
        let snap = soc.snapshot();
        let absent = 0x4_0123;
        assert!(snap.pages.iter().all(|(p, _)| *p != absent / PAGE_SIZE));

        let mut bad = snap.clone();
        bad.corrupt_l2_bit(absent + L2_SIZE as usize, 6); // wraps
        assert_eq!(bad.stored_pages(), snap.stored_pages() + 1);
        assert_ne!(bad.checksum(), snap.checksum());
        assert_ne!(bad, snap);

        // Restoring the struck checkpoint shows the bit in L2.
        let mut other = Soc::new(IsaConfig::xpulpnn());
        other.restore(&bad);
        assert_eq!(other.mem.read_bytes(L2_BASE + absent as u32, 1), &[1 << 6]);
        assert_eq!(other.snapshot(), bad);

        bad.corrupt_l2_bit(absent, 6);
        assert_eq!(bad, snap);
        assert_eq!(bad.checksum(), snap.checksum());

        soc.mem.write_bytes(L2_BASE + absent as u32, &[9]);
        soc.mem.write_bytes(L2_BASE + absent as u32, &[0]);
        assert_eq!(soc.snapshot(), snap);
    }

    /// Vector-backend plumbing pin: a `with_vlen` SoC runs Xrvv code
    /// end-to-end, the strip length honours the configured VLEN, and
    /// the vector register file survives a snapshot round trip.
    #[test]
    fn with_vlen_runs_vector_code_and_snapshots() {
        use pulp_isa::simd::DotSign;
        use pulp_isa::vec::{VReg, VecSew};

        let data = L2_BASE + 0x2_0000;
        let mut a = Asm::new(CODE_BASE);
        a.li(Reg::T0, 8);
        a.vsetvli(Reg::T1, Reg::T0, VecSew::E8);
        a.li(Reg::A1, data as i32);
        a.vle(VReg::new(0).unwrap(), Reg::A1);
        a.li(Reg::A2, (data + 8) as i32);
        a.vle(VReg::new(1).unwrap(), Reg::A2);
        a.li(Reg::A0, 0);
        a.vdot(
            DotSign::UnsignedSigned,
            Reg::A0,
            VReg::new(0).unwrap(),
            VReg::new(1).unwrap(),
        );
        a.ecall();
        let prog = a.assemble().unwrap();

        let mut soc = Soc::with_vlen(IsaConfig::vector(), 256);
        soc.load(&prog);
        soc.mem.write_bytes(data, &[1, 2, 3, 4, 5, 6, 7, 8]);
        soc.mem
            .write_bytes(data + 8, &[1u8, 1, 1, 1, 0xff, 1, 1, 1]);
        let snap = soc.snapshot();
        let r = soc.run(1000).unwrap();
        assert!(r.exit.halted);
        // 1+2+3+4-5+6+7+8 = 26 (weight -1 on the fifth lane).
        assert_eq!(r.exit.exit_code, 26);
        // vsetvli granted the full request: 8 <= VLMAX (32 at e8/256).
        assert_eq!(soc.core.reg(Reg::T1), 8);

        // Roll back and replay: vector state restores deterministically.
        let mut replay = soc.clone();
        replay.restore(&snap);
        assert_eq!(replay.run(1000).unwrap(), r);
    }

    /// Forwards only `read` and `write`, so `read_block` takes the
    /// trait's one-beat-per-byte default: the oracle for `SocMem`'s
    /// bulk override.
    struct Beats<'a>(&'a mut SocMem);

    impl Bus for Beats<'_> {
        fn read(&mut self, addr: u32, size: u32) -> Result<u32, BusError> {
            self.0.read(addr, size)
        }

        fn write(&mut self, addr: u32, size: u32, value: u32) -> Result<(), BusError> {
            self.0.write(addr, size, value)
        }
    }

    #[test]
    fn read_block_equals_byte_reads() {
        let mut mem = SocMem::new();
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 37 + 5) as u8).collect();
        mem.write_bytes(L2_BASE, &bytes);
        mem.write_bytes(L2_BASE + L2_SIZE - 64, &bytes);
        let end = L2_BASE + L2_SIZE;
        let spans = [
            (L2_BASE, 32, Ok(())),
            (L2_BASE + 3, 17, Ok(())),
            (end - 32, 32, Ok(())),
            (end, 0, Ok(())),
            (end - 5, 16, Err(end)),
            (L2_BASE - 2, 8, Err(L2_BASE - 2)),
            (CONSOLE_ADDR, 4, Err(CONSOLE_ADDR)),
        ];
        for (addr, len, fault) in spans {
            let (mut bulk, mut beats) = ([0xaa_u8; 32], [0xaa_u8; 32]);
            let got = mem.read_block(addr, &mut bulk[..len]);
            let want = Beats(&mut mem).read_block(addr, &mut beats[..len]);
            assert_eq!(got, want, "{addr:#010x}+{len}");
            assert_eq!(bulk, beats, "{addr:#010x}+{len}");
            let fault = fault.map_err(|addr| BusError {
                addr,
                size: 1,
                write: false,
            });
            assert_eq!(got, fault, "{addr:#010x}+{len}");
        }
        let mut buf = [0u8; 17];
        mem.read_block(L2_BASE + 3, &mut buf).unwrap();
        assert_eq!(buf, bytes[3..20]);
    }

    /// A `vle.v` whose span runs past the end of L2 traps on the first
    /// unmapped byte and leaves `vd` holding the bytes before it, tail
    /// zeroed, exactly as one byte beat per byte does.
    #[test]
    fn faulting_vle_matches_byte_beats() {
        use pulp_isa::vec::{VReg, VecSew};

        let end = L2_BASE + L2_SIZE;
        let v3 = VReg::new(3).unwrap();
        for vlen in [128, 256] {
            let mut a = Asm::new(CODE_BASE);
            a.vsetvli(Reg::T1, Reg::Zero, VecSew::E8);
            // Fill v3 first so the faulting load must clear it.
            a.li(Reg::A1, (L2_BASE + 0x2_0000) as i32);
            a.vle(v3, Reg::A1);
            a.li(Reg::A1, (end - 5) as i32);
            a.vle(v3, Reg::A1);
            a.ecall();
            let prog = a.assemble().unwrap();
            let mut soc = Soc::with_vlen(IsaConfig::vector(), vlen);
            soc.load(&prog);
            soc.mem.write_bytes(L2_BASE + 0x2_0000, &[0xee; 32]);
            soc.mem
                .write_bytes(end - 5, &[0x11, 0x22, 0x33, 0x44, 0x55]);
            let mut beats = soc.clone();

            let trap = soc.run(1000).unwrap_err();
            let want = beats
                .core
                .run(&mut Beats(&mut beats.mem), 1000)
                .unwrap_err();
            assert_eq!(trap, want, "VLEN {vlen}");
            let Trap::Bus { error, .. } = trap else {
                panic!("VLEN {vlen}: {trap:?} is not a bus trap");
            };
            assert_eq!(
                error,
                BusError {
                    addr: end,
                    size: 1,
                    write: false
                }
            );
            let vd = |s: &Soc| *s.core.vector_unit().unwrap().vreg_bytes(3);
            assert_eq!(vd(&soc), vd(&beats), "VLEN {vlen}");
            assert_eq!(vd(&soc)[..5], [0x11, 0x22, 0x33, 0x44, 0x55]);
            assert!(vd(&soc)[5..].iter().all(|b| *b == 0), "VLEN {vlen}");
        }
    }

    #[test]
    fn stack_usable_at_top_of_l2() {
        let mut a = Asm::new(CODE_BASE);
        a.addi(Reg::Sp, Reg::Sp, -16);
        a.li(Reg::A0, 123);
        a.sw(Reg::A0, 0, Reg::Sp);
        a.li(Reg::A0, 0);
        a.lw(Reg::A0, 0, Reg::Sp);
        a.ecall();
        let prog = a.assemble().unwrap();
        let mut soc = Soc::new(IsaConfig::xpulpnn());
        soc.load(&prog);
        let r = soc.run(1000).unwrap();
        assert_eq!(r.exit.exit_code, 123);
    }
}
