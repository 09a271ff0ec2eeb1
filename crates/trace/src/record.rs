//! Trace record types.

use std::fmt;

/// Cache block size in bytes used throughout the reproduction (the paper
/// assumes 64-byte blocks; the `offset` feature is defined as "1 to 6 bits in
/// a system with 64B blocks").
pub const BLOCK_BYTES: u64 = 64;

/// Number of address bits covered by the block offset (`log2(BLOCK_BYTES)`).
pub const BLOCK_OFFSET_BITS: u32 = 6;

/// Kind of memory operation performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand load.
    Load,
    /// A demand store.
    Store,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Load => f.write_str("load"),
            AccessKind::Store => f.write_str("store"),
        }
    }
}

/// One memory access in a program trace.
///
/// A trace is a sequence of these records. Non-memory instructions are not
/// traced individually; instead each record carries the number of non-memory
/// instructions that executed since the previous record
/// ([`MemoryAccess::non_memory_before`]), which the timing model in `mrp-cpu`
/// charges at the pipeline width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryAccess {
    /// Program counter of the memory instruction.
    pub pc: u64,
    /// Virtual (here: physical, identity-mapped) byte address accessed.
    pub address: u64,
    /// Core issuing the access (0 for single-thread traces).
    pub core: u8,
    /// Load or store.
    pub kind: AccessKind,
    /// Non-memory instructions executed since the previous traced access.
    pub non_memory_before: u8,
    /// True when the address of this access depends on the *data* of the
    /// previous access (pointer chasing, tree descent). The timing model
    /// serializes dependent accesses instead of overlapping their misses.
    pub dependent: bool,
}

impl MemoryAccess {
    /// Creates a load record on core 0 with a default instruction gap.
    ///
    /// Convenience for tests and examples; generators construct records
    /// directly.
    pub fn load(pc: u64, address: u64) -> Self {
        MemoryAccess {
            pc,
            address,
            core: 0,
            kind: AccessKind::Load,
            non_memory_before: 3,
            dependent: false,
        }
    }

    /// The 64-byte block address (address with the offset bits dropped).
    #[inline]
    pub fn block(&self) -> u64 {
        self.address >> BLOCK_OFFSET_BITS
    }

    /// The byte offset of the access within its cache block.
    #[inline]
    pub fn block_offset(&self) -> u64 {
        self.address & (BLOCK_BYTES - 1)
    }

    /// Total instructions represented by this record (the access itself plus
    /// the preceding non-memory instructions).
    #[inline]
    pub fn instructions(&self) -> u64 {
        u64::from(self.non_memory_before) + 1
    }
}

impl fmt::Display for MemoryAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pc={:#x} addr={:#x} core={}",
            self.kind, self.pc, self.address, self.core
        )
    }
}

/// The highest level of the hierarchy a recorded access interacted with.
///
/// Recordings (`mrp-cache`'s in-memory `LlcRecording`) tag each demand
/// access with the level that serviced it. `Llc` means the access missed
/// the private levels and reached the last-level cache; whether it hit
/// there depends on the LLC policy and is decided at replay time, not at
/// record time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceLevel {
    /// Serviced by the L1 data cache.
    L1,
    /// Serviced by the unified L2.
    L2,
    /// Missed the private levels; bound for the LLC.
    Llc,
}

impl ServiceLevel {
    /// Two-bit encoding packed into a recording's per-event word.
    #[inline]
    pub fn encode(self) -> u8 {
        match self {
            ServiceLevel::L1 => 0,
            ServiceLevel::L2 => 1,
            ServiceLevel::Llc => 2,
        }
    }

    /// Inverse of [`ServiceLevel::encode`]; `None` for invalid encodings.
    #[inline]
    pub fn decode(bits: u8) -> Option<Self> {
        match bits {
            0 => Some(ServiceLevel::L1),
            1 => Some(ServiceLevel::L2),
            2 => Some(ServiceLevel::Llc),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_strips_offset_bits() {
        let a = MemoryAccess::load(0x400000, 0x1234);
        assert_eq!(a.block(), 0x1234 >> 6);
        assert_eq!(a.block_offset(), 0x34);
    }

    #[test]
    fn blocks_share_prefix() {
        let a = MemoryAccess::load(0x400000, 0x1000);
        let b = MemoryAccess::load(0x400004, 0x103f);
        let c = MemoryAccess::load(0x400008, 0x1040);
        assert_eq!(a.block(), b.block());
        assert_ne!(a.block(), c.block());
    }

    #[test]
    fn instruction_accounting_includes_access() {
        let mut a = MemoryAccess::load(1, 2);
        a.non_memory_before = 0;
        assert_eq!(a.instructions(), 1);
        a.non_memory_before = 7;
        assert_eq!(a.instructions(), 8);
    }

    #[test]
    fn display_is_nonempty() {
        let a = MemoryAccess::load(0x400000, 0x1234);
        assert!(!format!("{a}").is_empty());
        assert!(!format!("{a:?}").is_empty());
    }

    #[test]
    fn service_level_encoding_round_trips() {
        for level in [ServiceLevel::L1, ServiceLevel::L2, ServiceLevel::Llc] {
            assert_eq!(ServiceLevel::decode(level.encode()), Some(level));
        }
        assert_eq!(ServiceLevel::decode(3), None);
    }
}
