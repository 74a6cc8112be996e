//! Per-object header flag bits.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign, Not};
use std::sync::atomic::{AtomicU16, Ordering};

/// Header flag bits for a heap object.
///
/// The paper "steals" spare bits from the two-word Jikes RVM object header
/// to store assertion state at zero space cost; this type is the Rust
/// analogue. The collector owns [`Flags::MARK`]; the assertion engine owns
/// the rest.
///
/// * [`Flags::MARK`] — set while tracing, cleared by sweep.
/// * [`Flags::DEAD`] — the program asserted this object dead
///   (`assert-dead`, §2.3.1); finding it reachable is a violation.
/// * [`Flags::UNSHARED`] — the program asserted at most one incoming
///   pointer (`assert-unshared`, §2.5.1).
/// * [`Flags::OWNEE`] — this object is the ownee of some
///   `assert-ownedby` pair (§2.5.2); lets the tracer skip the ownership
///   table lookup for the common case.
/// * [`Flags::OWNED`] — set during the ownership phase when the ownee was
///   reached from its owner; recomputed (cleared) every collection.
/// * [`Flags::REPORTED`] — a violation for this object was already
///   reported; used to de-duplicate warnings across collections when the
///   configuration asks for report-once semantics.
///
/// # Example
///
/// ```
/// use gca_heap::Flags;
///
/// let mut f = Flags::empty();
/// f |= Flags::MARK | Flags::DEAD;
/// assert!(f.contains(Flags::MARK));
/// assert!(f.contains(Flags::DEAD));
/// let f = f.without(Flags::MARK);
/// assert!(!f.contains(Flags::MARK));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Flags(u16);

impl Flags {
    /// No bits set.
    pub const fn empty() -> Flags {
        Flags(0)
    }

    /// Tracing mark bit.
    pub const MARK: Flags = Flags(1 << 0);
    /// `assert-dead` bit.
    pub const DEAD: Flags = Flags(1 << 1);
    /// `assert-unshared` bit.
    pub const UNSHARED: Flags = Flags(1 << 2);
    /// Object is an ownee of some `assert-ownedby` pair.
    pub const OWNEE: Flags = Flags(1 << 3);
    /// Ownee was reached from its owner this collection.
    pub const OWNED: Flags = Flags(1 << 4);
    /// A violation involving this object was already reported.
    pub const REPORTED: Flags = Flags(1 << 5);
    /// Object is an owner of some `assert-ownedby` pair; lets the
    /// ownership phase detect owner-region boundaries with a header test
    /// instead of a table lookup on every traced object.
    pub const OWNER: Flags = Flags(1 << 6);
    /// Object has survived a collection (generational mode): minor
    /// collections treat it as immortal and do not scan beyond it.
    pub const OLD: Flags = Flags(1 << 7);

    /// Bits that must be recomputed on every collection and are therefore
    /// cleared by sweep ([`Flags::MARK`] and [`Flags::OWNED`]).
    pub const PER_GC: Flags = Flags(Flags::MARK.0 | Flags::OWNED.0);

    /// Returns `true` if every bit of `other` is set in `self`.
    #[inline]
    pub fn contains(self, other: Flags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `true` if any bit of `other` is set in `self`.
    #[inline]
    pub fn intersects(self, other: Flags) -> bool {
        self.0 & other.0 != 0
    }

    /// Returns `self` with the bits of `other` cleared.
    #[inline]
    #[must_use]
    pub fn without(self, other: Flags) -> Flags {
        Flags(self.0 & !other.0)
    }

    /// Returns `self` with the bits of `other` set.
    #[inline]
    #[must_use]
    pub fn with(self, other: Flags) -> Flags {
        Flags(self.0 | other.0)
    }

    /// Returns `true` if no bit is set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Raw bit pattern, for debugging.
    #[inline]
    pub fn bits(self) -> u16 {
        self.0
    }

    /// Rebuilds flags from a raw bit pattern (the page table composes
    /// per-object flags from its side bit-planes).
    #[inline]
    pub(crate) const fn from_bits(bits: u16) -> Flags {
        Flags(bits)
    }
}

impl BitOr for Flags {
    type Output = Flags;
    fn bitor(self, rhs: Flags) -> Flags {
        Flags(self.0 | rhs.0)
    }
}

impl BitOrAssign for Flags {
    fn bitor_assign(&mut self, rhs: Flags) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for Flags {
    type Output = Flags;
    fn bitand(self, rhs: Flags) -> Flags {
        Flags(self.0 & rhs.0)
    }
}

impl Not for Flags {
    type Output = Flags;
    fn not(self) -> Flags {
        Flags(!self.0)
    }
}

impl fmt::Debug for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: [(Flags, &str); 8] = [
            (Flags::MARK, "MARK"),
            (Flags::DEAD, "DEAD"),
            (Flags::UNSHARED, "UNSHARED"),
            (Flags::OWNEE, "OWNEE"),
            (Flags::OWNED, "OWNED"),
            (Flags::REPORTED, "REPORTED"),
            (Flags::OWNER, "OWNER"),
            (Flags::OLD, "OLD"),
        ];
        let mut first = true;
        write!(f, "Flags(")?;
        for (bit, name) in names {
            if self.contains(bit) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "empty")?;
        }
        write!(f, ")")
    }
}

impl fmt::Binary for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

/// Atomically updatable header flags — the storage form of [`Flags`]
/// inside an object header.
///
/// The parallel mark phase lets N tracer workers race to set
/// [`Flags::MARK`] (and the assertion engine's per-GC bits) on shared
/// objects; `fetch_set` returns the *previous* bits so exactly one winner
/// observes the transition (the paper's "check and set the mark bit"
/// step, made into a single RMW).
///
/// All operations use relaxed ordering: collection is stop-the-world, the
/// object graph is immutable while tracing, and per-worker results are
/// merged after `std::thread::scope` joins (which synchronizes
/// everything); the bits carry no release/acquire payload of their own.
#[derive(Debug, Default)]
pub struct AtomicFlags(AtomicU16);

impl AtomicFlags {
    /// No bits set.
    pub const fn empty() -> AtomicFlags {
        AtomicFlags(AtomicU16::new(0))
    }

    /// Current bits as a value-type [`Flags`].
    #[inline]
    pub fn load(&self) -> Flags {
        Flags(self.0.load(Ordering::Relaxed))
    }

    /// Sets `bits`, returning the bits held *before* the update. The
    /// caller that sees `!previous.contains(bit)` is the unique setter.
    #[inline]
    pub fn fetch_set(&self, bits: Flags) -> Flags {
        Flags(self.0.fetch_or(bits.0, Ordering::Relaxed))
    }

    /// Clears `bits`, returning the bits held before the update.
    #[inline]
    pub fn fetch_clear(&self, bits: Flags) -> Flags {
        Flags(self.0.fetch_and(!bits.0, Ordering::Relaxed))
    }

    /// Tests whether all of `bits` are currently set.
    #[inline]
    pub fn contains(&self, bits: Flags) -> bool {
        self.load().contains(bits)
    }
}

impl Clone for AtomicFlags {
    fn clone(&self) -> AtomicFlags {
        AtomicFlags(AtomicU16::new(self.load().0))
    }
}

impl From<Flags> for AtomicFlags {
    fn from(f: Flags) -> AtomicFlags {
        AtomicFlags(AtomicU16::new(f.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_contains_nothing() {
        let f = Flags::empty();
        assert!(f.is_empty());
        assert!(!f.contains(Flags::MARK));
        // `contains(empty)` is vacuously true.
        assert!(f.contains(Flags::empty()));
    }

    #[test]
    fn set_and_clear() {
        let mut f = Flags::empty();
        f |= Flags::DEAD;
        assert!(f.contains(Flags::DEAD));
        assert!(f.intersects(Flags::DEAD | Flags::MARK));
        assert!(!f.contains(Flags::DEAD | Flags::MARK));
        f = f.with(Flags::MARK);
        assert!(f.contains(Flags::DEAD | Flags::MARK));
        f = f.without(Flags::DEAD);
        assert!(!f.contains(Flags::DEAD));
        assert!(f.contains(Flags::MARK));
    }

    #[test]
    fn per_gc_mask_covers_mark_and_owned() {
        assert!(Flags::PER_GC.contains(Flags::MARK));
        assert!(Flags::PER_GC.contains(Flags::OWNED));
        assert!(!Flags::PER_GC.intersects(Flags::DEAD));
        assert!(!Flags::PER_GC.intersects(Flags::UNSHARED));
        assert!(!Flags::PER_GC.intersects(Flags::OWNEE));
    }

    #[test]
    fn bits_are_distinct() {
        let all = [
            Flags::MARK,
            Flags::DEAD,
            Flags::UNSHARED,
            Flags::OWNEE,
            Flags::OWNED,
            Flags::REPORTED,
            Flags::OWNER,
            Flags::OLD,
        ];
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                if i != j {
                    assert!(!a.intersects(*b), "{a:?} overlaps {b:?}");
                }
            }
        }
    }

    #[test]
    fn atomic_fetch_set_reports_previous_bits() {
        let f = AtomicFlags::empty();
        let prev = f.fetch_set(Flags::MARK);
        assert!(prev.is_empty(), "first setter sees the bit clear");
        let prev = f.fetch_set(Flags::MARK | Flags::DEAD);
        assert!(prev.contains(Flags::MARK), "second setter sees it set");
        assert!(!prev.contains(Flags::DEAD));
        assert!(f.contains(Flags::MARK | Flags::DEAD));
        let prev = f.fetch_clear(Flags::MARK);
        assert!(prev.contains(Flags::MARK));
        assert!(!f.contains(Flags::MARK));
        assert!(f.contains(Flags::DEAD));
    }

    #[test]
    fn atomic_clone_and_from_snapshot_bits() {
        let f = AtomicFlags::from(Flags::OWNEE | Flags::OWNER);
        let g = f.clone();
        f.fetch_set(Flags::MARK);
        assert!(f.contains(Flags::MARK));
        assert!(!g.contains(Flags::MARK), "clone is an independent cell");
        assert_eq!(g.load(), Flags::OWNEE | Flags::OWNER);
    }

    #[test]
    fn debug_lists_set_bits() {
        let f = Flags::MARK | Flags::OWNEE;
        let s = format!("{f:?}");
        assert!(s.contains("MARK"));
        assert!(s.contains("OWNEE"));
        assert!(!s.contains("DEAD"));
        assert_eq!(format!("{:?}", Flags::empty()), "Flags(empty)");
    }
}
