//! The memory bus abstraction between the core and the SoC.

use std::fmt;

/// A failed bus transaction (access to an unmapped address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusError {
    /// The faulting address.
    pub addr: u32,
    /// Access size in bytes.
    pub size: u32,
    /// True for writes.
    pub write: bool,
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = if self.write { "write" } else { "read" };
        write!(
            f,
            "bus error: {}-byte {dir} at {:#010x}",
            self.size, self.addr
        )
    }
}

impl std::error::Error for BusError {}

/// Memory/peripheral access interface presented to the core.
///
/// Addresses are byte addresses; values are little-endian and passed in
/// the low bits of the `u32`. Misalignment is legal (RI5CY splits the
/// access) — the core model accounts the extra cycle, the bus only moves
/// bytes.
pub trait Bus {
    /// Reads `size` ∈ {1, 2, 4} bytes.
    ///
    /// # Errors
    ///
    /// [`BusError`] if any byte of the access is unmapped.
    fn read(&mut self, addr: u32, size: u32) -> Result<u32, BusError>;

    /// Writes the low `size` ∈ {1, 2, 4} bytes of `value`.
    ///
    /// # Errors
    ///
    /// [`BusError`] if any byte of the access is unmapped.
    fn write(&mut self, addr: u32, size: u32, value: u32) -> Result<(), BusError>;

    /// Fetches one 32-bit instruction word. Defaults to a 4-byte read.
    ///
    /// # Errors
    ///
    /// [`BusError`] if the address is unmapped.
    fn fetch(&mut self, addr: u32) -> Result<u32, BusError> {
        self.read(addr, 4)
    }

    /// Fills `buf` from the consecutive bytes at `addr` (addresses
    /// wrap). Defaults to one 1-byte [`Bus::read`] beat per byte, so an
    /// implementation that observes beats sees every one; an override
    /// must give the same bytes and the same error.
    ///
    /// # Errors
    ///
    /// The [`BusError`] of the first unmapped byte; `buf` keeps the
    /// bytes read before it.
    fn read_block(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), BusError> {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.read(addr.wrapping_add(i as u32), 1)? as u8;
        }
        Ok(())
    }
}

/// A flat RAM covering `[base, base + len)`, for unit tests and simple
/// programs (the full SoC memory map lives in `pulp-soc`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceMem {
    base: u32,
    bytes: Vec<u8>,
}

impl SliceMem {
    /// Creates a zero-initialized RAM of `len` bytes at `base`.
    pub fn new(base: u32, len: usize) -> SliceMem {
        SliceMem {
            base,
            bytes: vec![0; len],
        }
    }

    /// Base address of the RAM.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the RAM has zero length.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Direct view of the backing bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable view of the backing bytes.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    #[inline]
    fn offset(&self, addr: u32, size: u32) -> Option<usize> {
        let off = addr.checked_sub(self.base)? as usize;
        if off + size as usize <= self.bytes.len() {
            Some(off)
        } else {
            None
        }
    }

    /// Copies an assembled program's code and data into the RAM.
    ///
    /// # Panics
    ///
    /// Panics if any segment falls outside the RAM, which indicates a
    /// mis-configured test.
    pub fn load_program(&mut self, prog: &pulp_asm::Program) {
        for (i, w) in prog.words.iter().enumerate() {
            let addr = prog.base + (i as u32) * 4;
            self.write(addr, 4, *w)
                .expect("program code outside test RAM");
        }
        for (addr, bytes) in &prog.data {
            for (i, b) in bytes.iter().enumerate() {
                self.write(addr + i as u32, 1, *b as u32)
                    .expect("program data outside test RAM");
            }
        }
    }
}

impl Bus for SliceMem {
    #[inline]
    fn read(&mut self, addr: u32, size: u32) -> Result<u32, BusError> {
        let off = self.offset(addr, size).ok_or(BusError {
            addr,
            size,
            write: false,
        })?;
        let mut v = 0u32;
        for i in (0..size as usize).rev() {
            v = (v << 8) | self.bytes[off + i] as u32;
        }
        Ok(v)
    }

    #[inline]
    fn write(&mut self, addr: u32, size: u32, value: u32) -> Result<(), BusError> {
        let off = self.offset(addr, size).ok_or(BusError {
            addr,
            size,
            write: true,
        })?;
        for i in 0..size as usize {
            self.bytes[off + i] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_read_write() {
        let mut m = SliceMem::new(0x100, 16);
        m.write(0x100, 4, 0x1234_5678).unwrap();
        assert_eq!(m.read(0x100, 4).unwrap(), 0x1234_5678);
        assert_eq!(m.read(0x100, 1).unwrap(), 0x78);
        assert_eq!(m.read(0x101, 1).unwrap(), 0x56);
        assert_eq!(m.read(0x102, 2).unwrap(), 0x1234);
        m.write(0x103, 1, 0xff).unwrap();
        assert_eq!(m.read(0x100, 4).unwrap(), 0xff34_5678);
    }

    #[test]
    fn misaligned_access_is_legal() {
        let mut m = SliceMem::new(0, 8);
        m.write(1, 4, 0xdead_beef).unwrap();
        assert_eq!(m.read(1, 4).unwrap(), 0xdead_beef);
    }

    #[test]
    fn out_of_range_errors() {
        let mut m = SliceMem::new(0x100, 4);
        assert_eq!(
            m.read(0xfc, 4),
            Err(BusError {
                addr: 0xfc,
                size: 4,
                write: false
            })
        );
        assert_eq!(
            m.read(0x102, 4),
            Err(BusError {
                addr: 0x102,
                size: 4,
                write: false
            })
        );
        assert!(m.write(0x104, 1, 0).is_err());
    }
}
