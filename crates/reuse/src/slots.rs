//! The stack processors' line → slot index.
//!
//! A [`memtrace::DataLayout`] numbers the five arrays' cache lines
//! densely as `0..total_lines`, so both stacks map a line to its slot (a
//! list node or a time stamp) through a flat `Vec<u32>` indexed by the
//! line id: one indexed load per reference, no hashing and no collision
//! chains. Memory is 4 bytes per line id below the largest one seen.

/// The slot value of a line the index does not hold. Collision-free:
/// both stacks cap their slots below `u32::MAX`.
pub(crate) const ABSENT: u32 = u32::MAX;

/// Line → slot map over dense line ids, insert-or-update only (a line,
/// once held, is never forgotten). It grows when a line at or beyond its
/// length is inserted, so a pre-size is a hint, not a bound.
#[derive(Clone, Debug, Default)]
pub(crate) struct LineSlots {
    slots: Vec<u32>,
}

impl LineSlots {
    /// An index pre-sized for line ids below `lines`.
    pub(crate) fn with_universe(lines: usize) -> Self {
        LineSlots {
            slots: vec![ABSENT; lines],
        }
    }

    /// The slot of `line`, or [`ABSENT`].
    #[inline]
    pub(crate) fn get(&self, line: u64) -> u32 {
        self.slots.get(line as usize).copied().unwrap_or(ABSENT)
    }

    /// Maps `line` to `slot`, returning its previous slot or [`ABSENT`].
    ///
    /// # Panics
    ///
    /// Panics if `line` is `u32::MAX` or more (a layout bounds its line
    /// ids below that).
    #[inline]
    pub(crate) fn replace(&mut self, line: u64, slot: u32) -> u32 {
        let i = line as usize;
        if i >= self.slots.len() {
            self.grow(line);
        }
        std::mem::replace(&mut self.slots[i], slot)
    }

    /// Extends the index past `line`, at least doubling it so that a
    /// stream of ascending cold lines costs O(1) per line.
    #[cold]
    fn grow(&mut self, line: u64) {
        assert!(
            line < u64::from(u32::MAX),
            "line id {line} exceeds the u32 range"
        );
        let len = (line as usize + 1).max(2 * self.slots.len());
        self.slots.resize(len, ABSENT);
    }

    /// Length of the index: one more than the largest line id it can hold
    /// without growing.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Every held line's slot, mutably, in line order.
    pub(crate) fn held_mut(&mut self) -> impl Iterator<Item = &mut u32> {
        self.slots.iter_mut().filter(|s| **s != ABSENT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_past_the_presize_and_keeps_held_slots() {
        let mut s = LineSlots::with_universe(4);
        assert_eq!(s.replace(2, 7), ABSENT);
        assert_eq!(s.replace(2, 9), 7);
        assert_eq!(s.get(2), 9);
        assert_eq!(s.get(1000), ABSENT);
        assert_eq!(s.replace(1000, 1), ABSENT);
        assert!(s.len() > 1000);
        assert_eq!((s.get(2), s.get(1000), s.get(3)), (9, 1, ABSENT));
        let held: Vec<u32> = s.held_mut().map(|v| *v).collect();
        assert_eq!(held, [9, 1]);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 range")]
    fn rejects_line_ids_beyond_u32() {
        LineSlots::default().replace(u64::from(u32::MAX), 0);
    }
}
