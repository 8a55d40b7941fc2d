#![warn(missing_docs)]

//! The RVV-style sub-byte vector unit: the second compute backend of
//! the XpulpNN reproduction.
//!
//! The paper's packed-SIMD extension (XpulpNN) keeps sub-byte operands
//! inside the 32-bit scalar register file. The obvious architectural
//! alternative — taken by the Quark/Ara lineage — is a dedicated vector
//! register file with *effective* element widths below one byte. This
//! crate models that alternative as a small, deterministic RVV subset so
//! EXPERIMENTS.md can publish a three-way XpulpV2 / XpulpNN-SIMD /
//! vector comparison on identical kernels.
//!
//! The model (DESIGN.md §15 documents every deviation from RVV/Quark):
//!
//! * 32 vector registers of `VLEN` ∈ {32, 64, 128, 256} bits;
//! * `vsetvli`-style configuration with SEW ∈ {e2, e4, e8, e16}, fixed
//!   `LMUL = 1`, no masking, **tail-zero** semantics (tail elements and
//!   the unused upper bytes of every register read as zero, which makes
//!   snapshots and lock-step comparison exact);
//! * sub-byte elements are packed contiguously from bit 0, exactly like
//!   the XpulpNN nibble/crumb packing but across the whole register;
//! * unit-stride and (whole-byte-element) strided loads/stores, a
//!   scalar-accumulating dot product that wraps mod 2³² like
//!   `pv.sdot*`, a vectorized staircase-quantization op sharing the
//!   Eytzinger threshold-tree layout of `pv.qnt`, plus the two glue ops
//!   kernels need (`vslide1down.vx`, `vmv.x.s`).
//!
//! The crate is self-contained: memory is reached through the local
//! [`VecMem`] trait (the core adapts its bus), and every operation
//! returns a [`VecCost`] so the caller owns cycle/ledger accounting.
//! The host works on bytes and words: an element is one shift and mask
//! (or one `u16`), `vdot` folds [`pulp_isa::simd::dotp`] over packed
//! words, and `vle.v` is one [`VecMem::read_into`] call.

use pulp_isa::simd::{self, DotSign, SimdFmt};
use pulp_isa::vec::VecSew;
use std::fmt;

/// Largest supported `VLEN` in bits.
pub const MAX_VLEN_BITS: u32 = 256;
/// Largest supported `VLEN` in bytes (backing storage per register).
pub const MAX_VLEN_BYTES: usize = (MAX_VLEN_BITS / 8) as usize;
/// The default `VLEN` when the embedding core does not choose one.
pub const DEFAULT_VLEN_BITS: u32 = 128;

/// A failed vector memory transaction (the vector twin of the core's
/// bus error — the embedding core converts between the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VecMemFault {
    /// The faulting byte address.
    pub addr: u32,
    /// Access size in bytes (1 or 2 for this unit).
    pub size: u32,
    /// True for writes.
    pub write: bool,
}

impl fmt::Display for VecMemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = if self.write { "write" } else { "read" };
        write!(
            f,
            "vector memory fault: {}-byte {dir} at {:#010x}",
            self.size, self.addr
        )
    }
}

impl std::error::Error for VecMemFault {}

/// Memory interface the vector unit issues element beats through.
///
/// Mirrors the core's `Bus` (byte addresses, little-endian, value in
/// the low bits) but lives here so `rvv-vec` stays dependency-free of
/// the core: the core adapts its bus with a newtype. Beats are 1 or 2
/// bytes; unit-stride loads move their span with [`VecMem::read_into`].
pub trait VecMem {
    /// Reads `size` ∈ {1, 2} bytes.
    ///
    /// # Errors
    ///
    /// [`VecMemFault`] if any byte of the access is unmapped.
    fn read(&mut self, addr: u32, size: u32) -> Result<u32, VecMemFault>;

    /// Fills `buf` from the bytes at `addr` (addresses wrap). Defaults
    /// to one 1-byte [`VecMem::read`] beat per byte; an override must
    /// give the same bytes and the same fault.
    ///
    /// # Errors
    ///
    /// The first unmapped byte's fault; `buf` keeps the bytes before it.
    fn read_into(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), VecMemFault> {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.read(addr.wrapping_add(i as u32), 1)? as u8;
        }
        Ok(())
    }

    /// Writes the low `size` ∈ {1, 2} bytes of `value`.
    ///
    /// # Errors
    ///
    /// [`VecMemFault`] if any byte of the access is unmapped.
    fn write(&mut self, addr: u32, size: u32, value: u32) -> Result<(), VecMemFault>;
}

/// Why a vector operation could not execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecError {
    /// An element beat left mapped memory.
    Mem(VecMemFault),
    /// A strided access with a sub-byte SEW: byte-granular strides
    /// cannot address 2- or 4-bit elements, so the instruction is
    /// architecturally illegal at this configuration.
    IllegalStride(VecSew),
    /// `vqnt` executed with SEW ≠ e16 (the quantizer consumes 16-bit
    /// accumulators, exactly like `pv.qnt`).
    QntSew(VecSew),
}

impl From<VecMemFault> for VecError {
    fn from(f: VecMemFault) -> VecError {
        VecError::Mem(f)
    }
}

impl fmt::Display for VecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VecError::Mem(e) => e.fmt(f),
            VecError::IllegalStride(sew) => {
                write!(f, "strided vector access is illegal at SEW {sew}")
            }
            VecError::QntSew(sew) => write!(f, "vqnt requires SEW e16, unit is at {sew}"),
        }
    }
}

impl std::error::Error for VecError {}

/// Cycle cost of one vector operation under the unit's timing model
/// (see [`VecUnit`] for the per-op formulas).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VecCost {
    /// Total latency in cycles, including misalignment stalls.
    pub cycles: u64,
    /// Misalignment stall cycles included in `cycles` (the core's
    /// cycle ledger attributes these to its stall bucket).
    pub stall_cycles: u64,
    /// Threshold fetches performed (`vqnt` only; the core counts them
    /// as data loads like it does for `pv.qnt`).
    pub fetches: u32,
}

impl VecCost {
    /// `busy` cycles plus `stalls` misalignment stall cycles, no fetches.
    fn new(busy: u64, stalls: u64) -> VecCost {
        VecCost {
            cycles: busy + stalls,
            stall_cycles: stalls,
            fetches: 0,
        }
    }
}

/// True when an access of `size` bytes at `addr` crosses a 32-bit word
/// boundary (same rule as the scalar pipeline: the memory port is
/// 32-bit, a crossing access takes an extra beat).
#[inline]
fn crosses_word(addr: u32, size: u32) -> bool {
    size > 1 && (addr % 4) + size > 4
}

/// Byte stride between consecutive output channels' threshold trees
/// (`2^Q` 16-bit entries — identical to the scalar quantization unit's
/// hard-wired second-tree offset, so kernels share one layout).
///
/// # Panics
///
/// Panics for non-sub-byte formats; quantization trees exist only for
/// nibble/crumb outputs.
pub const fn tree_stride(fmt: SimdFmt) -> u32 {
    match fmt {
        SimdFmt::Nibble => 32,
        SimdFmt::Crumb => 8,
        _ => panic!("vqnt trees exist only for nibble/crumb"),
    }
}

/// The architectural state of the vector unit plus its timing model.
///
/// # Timing model
///
/// A 64-bit memory port and a 128-bit MAC datapath, both pipelined with
/// one setup cycle (deviation from Quark's per-lane figures, noted in
/// EXPERIMENTS.md):
///
/// | op | cycles |
/// |---|---|
/// | `vsetvli` | 1 |
/// | unit-stride load/store | 1 + ⌈active bytes / 8⌉ (+1 if base not word-aligned) |
/// | strided load/store | 1 + vl (+1 per element beat crossing a word) |
/// | `vdot*.vv` | 1 + ⌈vl·SEW / 128⌉ |
/// | `vqnt.{n,c}.v` | 1 + vl·Q (+1 per misaligned threshold fetch) |
/// | `vslide1down.vx`, `vmv.x.s` | 1 |
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecUnit {
    vlen_bits: u32,
    vl: u32,
    sew: VecSew,
    vregs: [[u8; MAX_VLEN_BYTES]; 32],
}

impl VecUnit {
    /// Creates a zeroed unit with the given `VLEN` (vl = 0, SEW = e8).
    ///
    /// # Panics
    ///
    /// Panics unless `vlen_bits` is a power of two in `32..=256`: the
    /// register file is sized for [`MAX_VLEN_BITS`] and a non-power-of-
    /// two VLEN has no RVV meaning.
    pub fn new(vlen_bits: u32) -> VecUnit {
        assert!(
            vlen_bits.is_power_of_two() && (32..=MAX_VLEN_BITS).contains(&vlen_bits),
            "unsupported VLEN {vlen_bits}"
        );
        VecUnit {
            vlen_bits,
            vl: 0,
            sew: VecSew::E8,
            vregs: [[0; MAX_VLEN_BYTES]; 32],
        }
    }

    /// The configured `VLEN` in bits.
    pub fn vlen_bits(&self) -> u32 {
        self.vlen_bits
    }

    /// Current vector length (elements per operation).
    pub fn vl(&self) -> u32 {
        self.vl
    }

    /// Current selected element width.
    pub fn sew(&self) -> VecSew {
        self.sew
    }

    /// Elements one register holds at `sew` (`VLEN / SEW`; LMUL is
    /// fixed at 1).
    pub fn vlmax(&self, sew: VecSew) -> u32 {
        self.vlen_bits / sew.bits()
    }

    /// The backing bytes of register `idx` (tail bytes beyond
    /// `VLEN/8` are always zero). Used by lock-step oracles and
    /// snapshot folding.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 32`.
    pub fn vreg_bytes(&self, idx: usize) -> &[u8; MAX_VLEN_BYTES] {
        &self.vregs[idx]
    }

    /// `vsetvli`: selects `sew` and sets `vl = min(avl, VLMAX)`;
    /// `avl = None` models `rs1 = x0` (take VLMAX). Returns the new
    /// `vl`. Costs 1 cycle (charged by the caller).
    pub fn vsetvli(&mut self, avl: Option<u32>, sew: VecSew) -> u32 {
        let vlmax = self.vlmax(sew);
        self.sew = sew;
        self.vl = match avl {
            Some(n) => n.min(vlmax),
            None => vlmax,
        };
        self.vl
    }

    /// Bytes the current `(vl, sew)` configuration occupies in a
    /// register: ⌈vl·SEW / 8⌉.
    pub fn active_bytes(&self) -> u32 {
        (self.vl * self.sew.bits()).div_ceil(8)
    }

    /// Element `i` of register `v`, zero-extended.
    ///
    /// # Panics
    ///
    /// Panics if the element's bits fall outside the register.
    #[inline]
    pub fn elem_u(&self, v: usize, i: u32) -> u32 {
        let bits = self.sew.bits();
        assert!((i + 1) * bits <= self.vlen_bits);
        get_elem(&self.vregs[v], bits, i)
    }

    /// Element `i` of register `v`, sign-extended.
    ///
    /// # Panics
    ///
    /// Panics if the element's bits fall outside the register.
    pub fn elem_s(&self, v: usize, i: u32) -> i32 {
        let u = self.elem_u(v, i);
        let shift = 32 - self.sew.bits();
        ((u << shift) as i32) >> shift
    }

    #[inline]
    fn set_elem(&mut self, v: usize, i: u32, value: u32) {
        let bits = self.sew.bits();
        debug_assert!((i + 1) * bits <= self.vlen_bits);
        put_elem(&mut self.vregs[v], bits, i, value);
    }

    /// `vle.v vd, (base)`: unit-stride load of the active bytes, tail
    /// zeroed.
    ///
    /// # Errors
    ///
    /// [`VecError::Mem`] if any byte of the transfer is unmapped; the
    /// destination keeps the bytes loaded before the fault (the beats
    /// already performed), like a split scalar access.
    pub fn load_unit<M: VecMem>(
        &mut self,
        mem: &mut M,
        vd: usize,
        base: u32,
    ) -> Result<VecCost, VecError> {
        let nbytes = self.active_bytes();
        self.vregs[vd] = [0; MAX_VLEN_BYTES];
        mem.read_into(base, &mut self.vregs[vd][..nbytes as usize])?;
        Ok(self.unit_stride_cost(base, nbytes))
    }

    /// `vse.v vs, (base)`: unit-stride store of the active bytes.
    ///
    /// # Errors
    ///
    /// [`VecError::Mem`] if any byte of the transfer is unmapped.
    pub fn store_unit<M: VecMem>(
        &mut self,
        mem: &mut M,
        vs: usize,
        base: u32,
    ) -> Result<VecCost, VecError> {
        let nbytes = self.active_bytes();
        for (i, byte) in self.vregs[vs][..nbytes as usize].iter().enumerate() {
            mem.write(base.wrapping_add(i as u32), 1, u32::from(*byte))?;
        }
        Ok(self.unit_stride_cost(base, nbytes))
    }

    /// Unit-stride cost: one setup cycle plus ⌈bytes/8⌉ beats over the
    /// 64-bit port, plus one realignment stall when the base is not
    /// word-aligned (a zero-length transfer pays setup only).
    fn unit_stride_cost(&self, base: u32, nbytes: u32) -> VecCost {
        let stall = u64::from(nbytes > 0 && !base.is_multiple_of(4));
        VecCost::new(1 + u64::from(nbytes.div_ceil(8)), stall)
    }

    /// `vlse.v vd, (base), stride`: strided load, one element beat per
    /// element. Requires a whole-byte SEW.
    ///
    /// # Errors
    ///
    /// [`VecError::IllegalStride`] at e2/e4; [`VecError::Mem`] if an
    /// element beat is unmapped.
    pub fn load_strided<M: VecMem>(
        &mut self,
        mem: &mut M,
        vd: usize,
        base: u32,
        stride: u32,
    ) -> Result<VecCost, VecError> {
        if !self.sew.is_byte_multiple() {
            return Err(VecError::IllegalStride(self.sew));
        }
        let eb = self.sew.bits() / 8;
        let vl = self.vl;
        self.vregs[vd] = [0; MAX_VLEN_BYTES];
        let mut stalls = 0u64;
        for i in 0..vl {
            let addr = base.wrapping_add(stride.wrapping_mul(i));
            stalls += u64::from(crosses_word(addr, eb));
            let v = mem.read(addr, eb)?;
            self.set_elem(vd, i, v);
        }
        Ok(VecCost::new(1 + u64::from(vl), stalls))
    }

    /// `vsse.v vs, (base), stride`: strided store, one element beat
    /// per element. Requires a whole-byte SEW.
    ///
    /// # Errors
    ///
    /// [`VecError::IllegalStride`] at e2/e4; [`VecError::Mem`] if an
    /// element beat is unmapped.
    pub fn store_strided<M: VecMem>(
        &mut self,
        mem: &mut M,
        vs: usize,
        base: u32,
        stride: u32,
    ) -> Result<VecCost, VecError> {
        if !self.sew.is_byte_multiple() {
            return Err(VecError::IllegalStride(self.sew));
        }
        let eb = self.sew.bits() / 8;
        let mut stalls = 0u64;
        for i in 0..self.vl {
            let addr = base.wrapping_add(stride.wrapping_mul(i));
            stalls += u64::from(crosses_word(addr, eb));
            let v = self.elem_u(vs, i);
            mem.write(addr, eb, v)?;
        }
        Ok(VecCost::new(1 + u64::from(self.vl), stalls))
    }

    /// `vdot{up,usp,sp}.vv`: Σ over the active elements of
    /// `vs1[i] · vs2[i]`, wrapping mod 2³² — the exact arithmetic of
    /// `pv.sdot*`, which is what makes the SIMD and vector backends
    /// bit-identical on the same data. The caller accumulates the sum
    /// into the scalar destination.
    ///
    /// The sum folds [`pulp_isa::simd::dotp`], the `pv.sdot*` datapath,
    /// over the registers' 32-bit words; the last word is masked to the
    /// live elements, as bits past `vl` may be stale.
    ///
    /// Cost: 1 + ⌈vl·SEW / 128⌉ over the 128-bit MAC datapath.
    pub fn dot(&self, sign: DotSign, vs1: usize, vs2: usize) -> (u32, VecCost) {
        let fmt = match self.sew {
            VecSew::E2 => SimdFmt::Crumb,
            VecSew::E4 => SimdFmt::Nibble,
            VecSew::E8 => SimdFmt::Byte,
            VecSew::E16 => SimdFmt::Half,
        };
        let live = self.vl * self.sew.bits();
        let word = |v: usize, k: u32| {
            let w = &self.vregs[v][4 * k as usize..][..4];
            let live_bits = (live - 32 * k).min(32);
            u32::from_le_bytes(w.try_into().expect("4 bytes")) & (u32::MAX >> (32 - live_bits))
        };
        let acc = (0..live.div_ceil(32)).fold(0u32, |acc, k| {
            acc.wrapping_add(simd::dotp(fmt, sign, word(vs1, k), word(vs2, k)))
        });
        (acc, VecCost::new(1 + u64::from(live).div_ceil(128), 0))
    }

    /// `vqnt.{n,c}.v vd, (trees), vs2`: staircase-quantizes the `vl`
    /// 16-bit accumulators in `vs2` by walking one Eytzinger threshold
    /// tree per element — element `i`'s tree at
    /// `trees + i · tree_stride(fmt)`, the same per-output-channel
    /// layout the scalar `pv.qnt` kernels stage. The Q-bit results
    /// pack contiguously from bit 0 of `vd`; the tail is zeroed.
    ///
    /// Cost: 1 + vl·Q (one comparison per tree level per element),
    /// plus one stall per misaligned threshold fetch.
    ///
    /// # Errors
    ///
    /// [`VecError::QntSew`] unless SEW is e16; [`VecError::Mem`] if a
    /// threshold fetch is unmapped.
    ///
    /// # Panics
    ///
    /// Panics for non-sub-byte output formats (the decoder never
    /// produces them).
    pub fn qnt<M: VecMem>(
        &mut self,
        mem: &mut M,
        fmt: SimdFmt,
        vd: usize,
        trees: u32,
        vs2: usize,
    ) -> Result<VecCost, VecError> {
        if self.sew != VecSew::E16 {
            return Err(VecError::QntSew(self.sew));
        }
        let q_bits = fmt.bits();
        assert!(fmt.is_sub_byte(), "vqnt has no {fmt:?} form");
        let vl = self.vl;
        let mut stalls = 0u64;
        // Results pack at the *output* width from bit 0, like a
        // narrowing op, and land only once every fetch succeeded.
        let mut out = [0; MAX_VLEN_BYTES];
        for i in 0..vl {
            let x = self.elem_s(vs2, i) as i16;
            let base = trees.wrapping_add(tree_stride(fmt).wrapping_mul(i));
            let mut k: u32 = 1;
            let mut q = 0;
            for _ in 0..q_bits {
                let addr = base + (k - 1) * 2;
                stalls += u64::from(crosses_word(addr, 2));
                let t = mem.read(addr, 2)? as u16 as i16;
                let bit = u32::from(x > t);
                k = 2 * k + bit;
                q = (q << 1) | bit;
            }
            put_elem(&mut out, q_bits, i, q);
        }
        self.vregs[vd] = out;
        Ok(VecCost {
            fetches: vl * q_bits,
            ..VecCost::new(1 + u64::from(vl) * u64::from(q_bits), stalls)
        })
    }

    /// `vslide1down.vx vd, vs2, x`: `vd[i] = vs2[i+1]` for the first
    /// `vl − 1` elements, `vd[vl−1] = x` truncated to SEW, tail
    /// zeroed. Single cycle.
    pub fn slide1down(&mut self, vd: usize, vs2: usize, x: u32) -> VecCost {
        let (src, bits, vl) = (self.vregs[vs2], self.sew.bits(), self.vl);
        self.vregs[vd] = [0; MAX_VLEN_BYTES];
        for i in 1..vl {
            put_elem(&mut self.vregs[vd], bits, i - 1, get_elem(&src, bits, i));
        }
        if vl > 0 {
            put_elem(&mut self.vregs[vd], bits, vl - 1, x);
        }
        VecCost::new(1, 0)
    }

    /// `vmv.x.s rd, vs2`: element 0 sign-extended to 32 bits at the
    /// current SEW. Single cycle; `vl` does not gate it (RVV reads
    /// element 0 even at `vl = 0`).
    pub fn mv_x_s(&self, vs2: usize) -> (u32, VecCost) {
        (self.elem_s(vs2, 0) as u32, VecCost::new(1, 0))
    }

    /// Folds the unit's architectural state into an FNV-1a style
    /// accumulator (the core's snapshot-integrity hash).
    pub fn fold_fnv(&self, h: &mut u64) {
        let mut fold = |x: u64| {
            *h ^= x;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        fold(u64::from(self.vlen_bits));
        fold(u64::from(self.vl));
        fold(u64::from(self.sew.code()));
        for reg in &self.vregs {
            for chunk in reg.chunks_exact(8) {
                fold(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
            }
        }
    }
}

/// Element `i` of `bits` ∈ {2, 4, 8, 16} packed from bit 0 of `reg`,
/// zero-extended. Elements are naturally aligned, so a sub-byte or e8
/// element sits inside one byte and an e16 element is a byte pair.
#[inline]
fn get_elem(reg: &[u8; MAX_VLEN_BYTES], bits: u32, i: u32) -> u32 {
    let off = (i * bits) as usize;
    if bits == 16 {
        u32::from(u16::from_le_bytes([reg[off / 8], reg[off / 8 + 1]]))
    } else {
        u32::from(reg[off / 8] >> (off % 8)) & ((1 << bits) - 1)
    }
}

/// Writes the low `bits` of `value` as element `i` (see [`get_elem`]),
/// leaving every other bit of `reg` alone.
#[inline]
fn put_elem(reg: &mut [u8; MAX_VLEN_BYTES], bits: u32, i: u32, value: u32) {
    let off = (i * bits) as usize;
    if bits == 16 {
        reg[off / 8..off / 8 + 2].copy_from_slice(&(value as u16).to_le_bytes());
    } else {
        let mask = (((1u32 << bits) - 1) << (off % 8)) as u8;
        let byte = &mut reg[off / 8];
        *byte = (*byte & !mask) | ((value << (off % 8)) as u8 & mask);
    }
}

/// A flat test memory implementing [`VecMem`] (the crate's own tiny
/// twin of the core's `SliceMem`, so unit tests need no core types).
#[derive(Debug, Clone)]
pub struct VecTestMem {
    base: u32,
    bytes: Vec<u8>,
}

impl VecTestMem {
    /// Zero-initialized RAM of `len` bytes at `base`.
    pub fn new(base: u32, len: usize) -> VecTestMem {
        VecTestMem {
            base,
            bytes: vec![0; len],
        }
    }

    /// The backing bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable backing bytes.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    fn offset(&self, addr: u32, size: u32, write: bool) -> Result<usize, VecMemFault> {
        let off = addr
            .checked_sub(self.base)
            .ok_or(VecMemFault { addr, size, write })? as usize;
        if off + size as usize <= self.bytes.len() {
            Ok(off)
        } else {
            Err(VecMemFault { addr, size, write })
        }
    }
}

impl VecMem for VecTestMem {
    fn read(&mut self, addr: u32, size: u32) -> Result<u32, VecMemFault> {
        let off = self.offset(addr, size, false)?;
        let mut v = 0u32;
        for i in (0..size as usize).rev() {
            v = (v << 8) | u32::from(self.bytes[off + i]);
        }
        Ok(v)
    }

    fn write(&mut self, addr: u32, size: u32, value: u32) -> Result<(), VecMemFault> {
        let off = self.offset(addr, size, true)?;
        for i in 0..size as usize {
            self.bytes[off + i] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulp_isa::simd::ALL_DOT_SIGNS;
    use pulp_isa::vec::ALL_SEWS;

    #[test]
    fn vlmax_geometry() {
        let u = VecUnit::new(128);
        assert_eq!(u.vlmax(VecSew::E2), 64);
        assert_eq!(u.vlmax(VecSew::E4), 32);
        assert_eq!(u.vlmax(VecSew::E8), 16);
        assert_eq!(u.vlmax(VecSew::E16), 8);
        let u = VecUnit::new(256);
        assert_eq!(u.vlmax(VecSew::E4), 64);
    }

    #[test]
    #[should_panic(expected = "unsupported VLEN")]
    fn rejects_odd_vlen() {
        VecUnit::new(96);
    }

    #[test]
    fn vsetvli_clamps_to_vlmax() {
        let mut u = VecUnit::new(128);
        assert_eq!(u.vsetvli(Some(100), VecSew::E4), 32);
        assert_eq!(u.vl(), 32);
        assert_eq!(u.sew(), VecSew::E4);
        assert_eq!(u.vsetvli(Some(7), VecSew::E4), 7);
        assert_eq!(u.vsetvli(None, VecSew::E16), 8);
        assert_eq!(u.vsetvli(Some(0), VecSew::E8), 0);
    }

    #[test]
    fn elem_packing_round_trips_at_every_sew() {
        for sew in ALL_SEWS {
            let mut u = VecUnit::new(128);
            u.vsetvli(None, sew);
            let mask = if sew.bits() == 32 {
                u32::MAX
            } else {
                (1 << sew.bits()) - 1
            };
            for i in 0..u.vl() {
                u.set_elem(3, i, i.wrapping_mul(0x9e37) & mask);
            }
            for i in 0..u.vl() {
                assert_eq!(u.elem_u(3, i), i.wrapping_mul(0x9e37) & mask, "{sew} {i}");
            }
        }
    }

    #[test]
    fn elem_s_sign_extends() {
        let mut u = VecUnit::new(128);
        u.vsetvli(None, VecSew::E4);
        u.set_elem(0, 5, 0b1111);
        assert_eq!(u.elem_s(0, 5), -1);
        assert_eq!(u.elem_u(0, 5), 15);
        u.vsetvli(None, VecSew::E2);
        u.set_elem(1, 63, 0b10);
        assert_eq!(u.elem_s(1, 63), -2);
    }

    #[test]
    fn unit_stride_load_store_round_trip_and_tail_zero() {
        let mut mem = VecTestMem::new(0x100, 64);
        for (i, b) in mem.as_bytes_mut().iter_mut().enumerate() {
            *b = i as u8;
        }
        let mut u = VecUnit::new(128);
        u.vsetvli(Some(10), VecSew::E4); // 5 active bytes
        let cost = u.load_unit(&mut mem, 2, 0x100).unwrap();
        assert_eq!(cost.cycles, 1 + 1); // 5 bytes -> one 64-bit beat
        assert_eq!(cost.stall_cycles, 0);
        assert_eq!(&u.vreg_bytes(2)[..5], &[0, 1, 2, 3, 4]);
        assert!(u.vreg_bytes(2)[5..].iter().all(|b| *b == 0), "tail zero");

        let cost = u.store_unit(&mut mem, 2, 0x120).unwrap();
        assert_eq!(cost.cycles, 2);
        assert_eq!(&mem.as_bytes()[0x20..0x25], &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn unit_stride_cost_model() {
        let mut mem = VecTestMem::new(0, 128);
        let mut u = VecUnit::new(256);
        u.vsetvli(None, VecSew::E8); // 32 bytes -> 4 beats
        assert_eq!(u.load_unit(&mut mem, 0, 0).unwrap().cycles, 1 + 4);
        // Unaligned base pays one realignment stall.
        let c = u.load_unit(&mut mem, 0, 2).unwrap();
        assert_eq!(c.cycles, 1 + 4 + 1);
        assert_eq!(c.stall_cycles, 1);
        // vl = 0: setup only, no memory touched.
        u.vsetvli(Some(0), VecSew::E8);
        assert_eq!(u.load_unit(&mut mem, 0, 999_999).unwrap().cycles, 1);
    }

    #[test]
    fn strided_load_gathers_and_rejects_sub_byte() {
        let mut mem = VecTestMem::new(0, 64);
        for (i, b) in mem.as_bytes_mut().iter_mut().enumerate() {
            *b = (i * 3) as u8;
        }
        let mut u = VecUnit::new(128);
        u.vsetvli(Some(4), VecSew::E8);
        let cost = u.load_strided(&mut mem, 1, 0, 5).unwrap();
        assert_eq!(cost.cycles, 1 + 4);
        for i in 0..4 {
            assert_eq!(u.elem_u(1, i), (i * 5 * 3) & 0xff);
        }
        u.vsetvli(Some(4), VecSew::E4);
        assert_eq!(
            u.load_strided(&mut mem, 1, 0, 5),
            Err(VecError::IllegalStride(VecSew::E4))
        );
        assert_eq!(
            u.store_strided(&mut mem, 1, 0, 5),
            Err(VecError::IllegalStride(VecSew::E4))
        );
    }

    #[test]
    fn strided_e16_charges_word_crossing_beats() {
        let mut mem = VecTestMem::new(0, 64);
        let mut u = VecUnit::new(128);
        u.vsetvli(Some(4), VecSew::E16);
        // Addresses 3, 7, 11, 15: every 2-byte beat crosses a word.
        let c = u.load_strided(&mut mem, 0, 3, 4).unwrap();
        assert_eq!(c.cycles, 1 + 4 + 4);
        assert_eq!(c.stall_cycles, 4);
        // Aligned addresses: no stalls.
        let c = u.store_strided(&mut mem, 0, 0, 4).unwrap();
        assert_eq!(c.cycles, 1 + 4);
    }

    #[test]
    fn mem_fault_carries_address() {
        let mut mem = VecTestMem::new(0, 8);
        let mut u = VecUnit::new(128);
        u.vsetvli(None, VecSew::E8);
        let e = u.load_unit(&mut mem, 0, 4).unwrap_err();
        assert_eq!(
            e,
            VecError::Mem(VecMemFault {
                addr: 8,
                size: 1,
                write: false
            })
        );
    }

    #[test]
    fn dot_matches_naive_reference_and_wraps() {
        let mut u = VecUnit::new(128);
        u.vsetvli(None, VecSew::E4);
        for i in 0..u.vl() {
            u.set_elem(0, i, i & 0xf);
            u.set_elem(4, i, 0xfu32.wrapping_sub(i) & 0xf);
        }
        // usp: vs1 unsigned, vs2 signed.
        let mut want = 0u32;
        for i in 0..32u32 {
            let a = i & 0xf;
            let b = {
                let raw = 0xfu32.wrapping_sub(i) & 0xf;
                ((raw << 28) as i32 >> 28) as u32
            };
            want = want.wrapping_add(a.wrapping_mul(b));
        }
        let (got, cost) = u.dot(DotSign::UnsignedSigned, 0, 4);
        assert_eq!(got, want);
        assert_eq!(cost.cycles, 1 + 1); // 32*4 = 128 bits -> 1 beat

        let (up, _) = u.dot(DotSign::UnsignedUnsigned, 0, 4);
        let mut want_up = 0u32;
        for i in 0..32u32 {
            want_up = want_up.wrapping_add((i & 0xf).wrapping_mul(0xfu32.wrapping_sub(i) & 0xf));
        }
        assert_eq!(up, want_up);
    }

    #[test]
    fn dot_cost_scales_with_active_bits() {
        let mut u = VecUnit::new(256);
        u.vsetvli(None, VecSew::E8); // 32 elem * 8 = 256 bits -> 2 beats
        assert_eq!(u.dot(DotSign::SignedSigned, 0, 1).1.cycles, 1 + 2);
        u.vsetvli(Some(3), VecSew::E8);
        assert_eq!(u.dot(DotSign::SignedSigned, 0, 1).1.cycles, 1 + 1);
        u.vsetvli(Some(0), VecSew::E8);
        assert_eq!(u.dot(DotSign::SignedSigned, 0, 1).1.cycles, 1);
    }

    /// Sorted-threshold staircase: the architectural definition the
    /// tree walk must agree with.
    fn staircase(sorted: &[i16], x: i16) -> u8 {
        sorted.iter().take_while(|t| **t < x).count() as u8
    }

    /// Stores `sorted` (2^Q − 1 thresholds) in Eytzinger order.
    fn store_tree(mem: &mut VecTestMem, base: u32, sorted: &[i16]) {
        fn fill(sorted: &[i16], next: &mut usize, out: &mut [i16], k: usize) {
            if k <= sorted.len() {
                fill(sorted, next, out, 2 * k);
                out[k - 1] = sorted[*next];
                *next += 1;
                fill(sorted, next, out, 2 * k + 1);
            }
        }
        let mut heap = vec![i16::MAX; sorted.len() + 1];
        let mut next = 0;
        fill(sorted, &mut next, &mut heap, 1);
        for (i, t) in heap.iter().enumerate() {
            mem.write(base + (i as u32) * 2, 2, *t as u16 as u32)
                .unwrap();
        }
    }

    #[test]
    fn qnt_walks_one_tree_per_element() {
        let mut mem = VecTestMem::new(0, 512);
        // 8 channels, channel c thresholds at c*10 + {10,20,...,150}.
        let mut sortedv = Vec::new();
        for c in 0..8u32 {
            let sorted: Vec<i16> = (1..16).map(|i| (c as i16) * 10 + i * 10).collect();
            store_tree(&mut mem, c * tree_stride(SimdFmt::Nibble), &sorted);
            sortedv.push(sorted);
        }
        let mut u = VecUnit::new(128);
        u.vsetvli(None, VecSew::E16); // 8 accumulators
        let xs: [i16; 8] = [-5, 15, 45, 100, 155, 80, 9, 1000];
        for (i, x) in xs.iter().enumerate() {
            u.set_elem(2, i as u32, *x as u16 as u32);
        }
        let cost = u.qnt(&mut mem, SimdFmt::Nibble, 3, 0, 2).unwrap();
        assert_eq!(cost.cycles, 1 + 8 * 4);
        assert_eq!(cost.fetches, 32);
        for (i, x) in xs.iter().enumerate() {
            let want = staircase(&sortedv[i], *x);
            let got = (u.vreg_bytes(3)[i / 2] >> ((i % 2) * 4)) & 0xf;
            assert_eq!(got, want, "channel {i}, x = {x}");
        }
        assert!(u.vreg_bytes(3)[4..].iter().all(|b| *b == 0), "tail zero");
    }

    #[test]
    fn qnt_crumb_and_sew_gate() {
        let mut mem = VecTestMem::new(0, 128);
        for c in 0..4u32 {
            store_tree(&mut mem, c * tree_stride(SimdFmt::Crumb), &[-50, 0, 50]);
        }
        let mut u = VecUnit::new(128);
        u.vsetvli(Some(4), VecSew::E16);
        for (i, x) in [-100i16, -49, 1, 51].iter().enumerate() {
            u.set_elem(0, i as u32, *x as u16 as u32);
        }
        let cost = u.qnt(&mut mem, SimdFmt::Crumb, 1, 0, 0).unwrap();
        assert_eq!(cost.cycles, 1 + 4 * 2);
        assert_eq!(u.vreg_bytes(1)[0], 0b11_10_01_00);

        u.vsetvli(Some(4), VecSew::E8);
        assert_eq!(
            u.qnt(&mut mem, SimdFmt::Crumb, 1, 0, 0),
            Err(VecError::QntSew(VecSew::E8))
        );
    }

    #[test]
    fn slide1down_shifts_and_inserts() {
        let mut u = VecUnit::new(128);
        u.vsetvli(Some(5), VecSew::E16);
        for i in 0..5 {
            u.set_elem(6, i, 100 + i);
        }
        let cost = u.slide1down(6, 6, 0xdead_cafe); // in-place is legal
        assert_eq!(cost.cycles, 1);
        for i in 0..4 {
            assert_eq!(u.elem_u(6, i), 101 + i);
        }
        assert_eq!(u.elem_u(6, 4), 0xcafe);
        assert_eq!(u.elem_u(6, 5), 0, "tail zero");
    }

    #[test]
    fn mv_x_s_sign_extends_element_zero() {
        let mut u = VecUnit::new(128);
        u.vsetvli(None, VecSew::E16);
        u.set_elem(9, 0, 0x8001);
        let (v, cost) = u.mv_x_s(9);
        assert_eq!(v, 0xffff_8001);
        assert_eq!(cost.cycles, 1);
        u.vsetvli(None, VecSew::E8);
        u.set_elem(9, 0, 0x7f);
        assert_eq!(u.mv_x_s(9).0, 0x7f);
    }

    #[test]
    fn fold_fnv_distinguishes_state() {
        let mut a = VecUnit::new(128);
        let mut b = VecUnit::new(128);
        let (mut ha, mut hb) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
        a.fold_fnv(&mut ha);
        b.fold_fnv(&mut hb);
        assert_eq!(ha, hb);
        b.vsetvli(Some(1), VecSew::E2);
        let mut hb2 = 0xcbf2_9ce4_8422_2325u64;
        b.fold_fnv(&mut hb2);
        assert_ne!(ha, hb2);
        a.vsetvli(Some(1), VecSew::E2);
        a.set_elem(31, 0, 1);
        let mut ha2 = 0xcbf2_9ce4_8422_2325u64;
        a.fold_fnv(&mut ha2);
        assert_ne!(ha2, hb2);
    }

    #[test]
    fn snapshot_is_clone_equality() {
        let mut u = VecUnit::new(256);
        u.vsetvli(Some(9), VecSew::E4);
        u.set_elem(7, 3, 0xb);
        let snap = u.clone();
        u.set_elem(7, 3, 0x2);
        assert_ne!(u, snap);
        u = snap.clone();
        assert_eq!(u, snap);
        assert_eq!(u.elem_u(7, 3), 0xb);
    }

    /// The unit's element access and `vdot` as it first computed them,
    /// one bit and one element at a time: the oracle for the byte- and
    /// word-wide forms.
    mod reference {
        use super::*;

        pub fn elem_u(u: &VecUnit, v: usize, i: u32) -> u32 {
            let width = u.sew.bits() as usize;
            let off = i as usize * width;
            assert!(off + width <= u.vlen_bits as usize);
            let bytes = &u.vregs[v];
            let mut out = 0u32;
            for b in 0..width {
                let bit = off + b;
                out |= u32::from((bytes[bit / 8] >> (bit % 8)) & 1) << b;
            }
            out
        }

        pub fn elem_s(u: &VecUnit, v: usize, i: u32) -> i32 {
            let shift = 32 - u.sew.bits();
            ((elem_u(u, v, i) << shift) as i32) >> shift
        }

        pub fn set_elem(u: &mut VecUnit, v: usize, i: u32, value: u32) {
            let width = u.sew.bits() as usize;
            let off = i as usize * width;
            let bytes = &mut u.vregs[v];
            for b in 0..width {
                let bit = off + b;
                let mask = 1u8 << (bit % 8);
                if (value >> b) & 1 == 1 {
                    bytes[bit / 8] |= mask;
                } else {
                    bytes[bit / 8] &= !mask;
                }
            }
        }

        pub fn dot(u: &VecUnit, sign: DotSign, vs1: usize, vs2: usize) -> u32 {
            let mut acc = 0u32;
            for i in 0..u.vl {
                let a = match sign {
                    DotSign::UnsignedUnsigned | DotSign::UnsignedSigned => elem_u(u, vs1, i),
                    DotSign::SignedSigned => elem_s(u, vs1, i) as u32,
                };
                let b = match sign {
                    DotSign::UnsignedUnsigned => elem_u(u, vs2, i),
                    DotSign::UnsignedSigned | DotSign::SignedSigned => elem_s(u, vs2, i) as u32,
                };
                acc = acc.wrapping_add(a.wrapping_mul(b));
            }
            acc
        }
    }

    /// Random full registers at every VLEN, every SEW, every `vl` in
    /// `0..=vlmax` and every signedness: element reads, element writes
    /// and `vdot` agree exactly with the bit-loop reference.
    #[test]
    fn word_forms_match_the_bit_loop_reference() {
        let mut rng = xrand::Rng::new(0x7ec_d07);
        for vlen in [32, 64, 128, 256] {
            for sew in ALL_SEWS {
                let mut u = VecUnit::new(vlen);
                let vlmax = u.vlmax(sew);
                for _ in 0..4 {
                    for reg in &mut u.vregs[..3] {
                        for b in &mut reg[..vlen as usize / 8] {
                            *b = rng.next_u32() as u8;
                        }
                    }
                    for vl in 0..=vlmax {
                        u.vsetvli(Some(vl), sew);
                        for v in 0..3 {
                            for i in 0..vlmax {
                                assert_eq!(u.elem_u(v, i), reference::elem_u(&u, v, i));
                                assert_eq!(u.elem_s(v, i), reference::elem_s(&u, v, i));
                            }
                        }
                        for sign in ALL_DOT_SIGNS {
                            for (vs1, vs2) in [(0, 1), (1, 2), (2, 2)] {
                                assert_eq!(
                                    u.dot(sign, vs1, vs2).0,
                                    reference::dot(&u, sign, vs1, vs2),
                                    "VLEN {vlen} {sew} vl {vl} {sign:?} v{vs1}.v{vs2}"
                                );
                            }
                        }
                        let i = rng.below(u64::from(vlmax)) as u32;
                        let value = rng.next_u32();
                        let (mut fast, mut slow) = (u.clone(), u.clone());
                        fast.set_elem(2, i, value);
                        reference::set_elem(&mut slow, 2, i, value);
                        assert_eq!(fast, slow, "VLEN {vlen} {sew} set element {i}");
                    }
                }
            }
        }
    }

    /// After `vsetvli` shrinks `vl` to end mid-word, the bits past `vl`
    /// still hold the old data. No operation may read them: `vdot`,
    /// `vslide1down.vx` and `vmv.x.s` give what a register with a zero
    /// tail gives, `vse.v` writes only the active bytes, and a later
    /// `vle.v` zeroes the tail.
    #[test]
    fn bits_past_vl_are_ignored() {
        for vlen in [128, 256] {
            for sew in ALL_SEWS {
                let bits = sew.bits();
                let mut mem = VecTestMem::new(0, 256);
                for (i, b) in mem.as_bytes_mut().iter_mut().enumerate() {
                    *b = (i as u8).wrapping_mul(0x9d) | 0x81;
                }
                let mut stale = VecUnit::new(vlen);
                let vlmax = stale.vsetvli(None, sew);
                stale.load_unit(&mut mem, 1, 0).unwrap();
                stale.load_unit(&mut mem, 2, 64).unwrap();
                for vl in (1..vlmax).filter(|vl| vl * bits % 32 != 0) {
                    stale.vsetvli(Some(vl), sew);
                    let mut clean = stale.clone();
                    for i in vl..vlmax {
                        clean.set_elem(1, i, 0);
                        clean.set_elem(2, i, 0);
                    }
                    assert_ne!(stale, clean, "{sew} vl {vl}: the tail must be stale");
                    let at = format!("VLEN {vlen} {sew} vl {vl}");

                    for sign in ALL_DOT_SIGNS {
                        let want = reference::dot(&clean, sign, 1, 2);
                        assert_eq!(stale.dot(sign, 1, 2).0, want, "{at} {sign:?}");
                        assert_eq!(clean.dot(sign, 1, 2).0, want, "{at} {sign:?}");
                    }
                    assert_eq!(stale.mv_x_s(1), clean.mv_x_s(1), "{at}");
                    let (mut a, mut b) = (stale.clone(), clean.clone());
                    a.slide1down(3, 1, 0x5a5a_5a5a);
                    b.slide1down(3, 1, 0x5a5a_5a5a);
                    assert_eq!(a.vregs[3], b.vregs[3], "{at}");

                    // A store moves the active bytes and nothing past
                    // them; a `vl` ending mid-byte stores that byte whole.
                    let active = stale.active_bytes() as usize;
                    let mut out = VecTestMem::new(0, 64);
                    out.as_bytes_mut().fill(0xee);
                    stale.store_unit(&mut out, 1, 0).unwrap();
                    assert_eq!(out.as_bytes()[..active], stale.vregs[1][..active], "{at}");
                    assert!(out.as_bytes()[active..].iter().all(|b| *b == 0xee), "{at}");
                    if vl * bits % 8 == 0 {
                        assert_eq!(out.as_bytes()[..active], clean.vregs[1][..active], "{at}");
                    }

                    let mut reload = stale.clone();
                    reload.load_unit(&mut mem, 1, 128).unwrap();
                    assert_eq!(reload.vregs[1][..active], mem.as_bytes()[128..128 + active]);
                    assert!(reload.vregs[1][active..].iter().all(|b| *b == 0), "{at}");
                }
            }
        }
    }
}
