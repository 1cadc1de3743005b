//! A keyless index from a key's hash to the slot of its row.
//!
//! Per-flow tables keep their rows in a `Vec` and the key inside the row;
//! a hash map from key to slot would store every key a second time.
//! [`SlotIndex`] stores 8-byte `hash32 << 32 | slot` cells instead and asks
//! its caller whether a candidate row is the one sought, so a flow costs
//! one row and one cell. [`FlowTable`](crate::FlowTable) and the capture
//! pair's per-flow table both use it.

use std::hash::{BuildHasher, Hash};

/// A cell no row is in: no slot is `u32::MAX`.
pub(crate) const EMPTY: u64 = u64::MAX;
/// Cells of the smallest index that is not empty.
const MIN_CELLS: usize = 8;

/// The index's share of `key`'s hash under `hasher`: the top half, the
/// better mixed one of a multiplicative hasher.
#[inline]
pub fn hash32<S: BuildHasher, K: Hash>(hasher: &S, key: &K) -> u32 {
    (hasher.hash_one(key) >> 32) as u32
}

/// Which row holds a key, without the key: open addressing over 8-byte
/// cells of `hash32 << 32 | slot`, probed linearly from the cell the top
/// bits of `hash32` name. A look-up compares the 32 stored hash bits first
/// and asks its caller about the row only where they match; growing
/// re-places the cells by their own hash bits, so it touches no row.
#[derive(Debug, Clone, Default)]
pub struct SlotIndex {
    /// Empty, or a power of two of cells, at most three quarters in use.
    pub(crate) cells: Vec<u64>,
    /// Cells in use.
    pub(crate) len: usize,
}

impl SlotIndex {
    /// Where the probe for `hash32` starts.
    #[inline]
    fn home(&self, hash32: u32) -> usize {
        let bits = self.cells.len().trailing_zeros();
        (hash32 >> 32u32.saturating_sub(bits)) as usize
    }

    /// The slot stored under `hash32` for which `is_row` holds.
    #[inline]
    pub fn find(&self, hash32: u32, mut is_row: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.cells.is_empty() {
            return None;
        }
        let mask = self.cells.len() - 1;
        let mut at = self.home(hash32);
        loop {
            let cell = self.cells[at];
            if cell == EMPTY {
                return None;
            }
            // Truncations: a cell's halves.
            if (cell >> 32) as u32 == hash32 && is_row(cell as u32) {
                return Some(cell as u32);
            }
            at = (at + 1) & mask;
        }
    }

    /// Store `slot` (below `u32::MAX`) under `hash32`; the caller found no
    /// such row.
    pub fn insert(&mut self, hash32: u32, slot: u32) {
        assert!(
            slot != u32::MAX,
            "slot u32::MAX would read as an empty cell"
        );
        if (self.len + 1) * 4 > self.cells.len() * 3 {
            let cells = (self.cells.len() * 2).max(MIN_CELLS);
            let old = std::mem::replace(&mut self.cells, vec![EMPTY; cells]);
            old.into_iter()
                .filter(|&cell| cell != EMPTY)
                .for_each(|cell| self.place(cell));
        }
        self.place(u64::from(hash32) << 32 | u64::from(slot));
        self.len += 1;
    }

    /// Put `cell` in the first empty cell of its probe sequence.
    fn place(&mut self, cell: u64) {
        let mask = self.cells.len() - 1;
        let mut at = self.home((cell >> 32) as u32);
        while self.cells[at] != EMPTY {
            at = (at + 1) & mask;
        }
        self.cells[at] = cell;
    }

    /// Allocated capacity × cell size: 8 bytes a key at a load of 3/8 to
    /// 3/4, so 11–21 bytes.
    pub fn approx_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<u64>()
    }
}
