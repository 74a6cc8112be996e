//! VM-side census state: allocation-site tagging and post-cycle
//! attribution.
//!
//! The collector knows nothing of the census; the VM takes it after each
//! cycle, from the live heap. This module holds:
//!
//! * **Allocation sites** — an interned string table of site labels plus a
//!   slot-indexed side table recording which site allocated each heap
//!   slot. Tagging is a single `Vec` store on [`crate::Vm::alloc`]'s path
//!   (and nothing at all when the census is off).
//! * **Attribution** — after a major cycle's sweep,
//!   [`CensusState::build_data`] walks the live heap once, tallying each
//!   object under its class and its allocation site. [`CensusState::build_minor_data`] runs the same
//!   tally over a minor cycle's nursery survivors.
//! * **The recorder** — a [`HeapCensus`] fed one [`CensusData`] per cycle,
//!   which maintains the drift windows and serves `Vm::census()`.

use std::collections::HashMap;

use gca_heap::{ClassId, Heap, ObjRef, Object};
use gca_telemetry::{CensusData, CensusEntry, HeapCensus};

/// Heap words are u64s.
const WORD_BYTES: u64 = 8;

/// Site id 0 is reserved for allocations made with no site set.
const UNATTRIBUTED: u32 = 0;

/// An interned allocation-site label, obtained from
/// [`crate::Vm::alloc_site`] and installed with
/// [`crate::Vm::set_alloc_site`]. Copy-cheap; compares by identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocSite(pub(crate) u32);

impl AllocSite {
    /// The default site: allocations made while no site is set are
    /// attributed to `<unattributed>`.
    pub const UNATTRIBUTED: AllocSite = AllocSite(UNATTRIBUTED);
}

/// All census state owned by the VM (boxed, present only when
/// [`crate::VmConfig::census`] is set).
#[derive(Debug)]
pub(crate) struct CensusState {
    site_names: Vec<String>,
    site_ids: HashMap<String, u32>,
    current_site: u32,
    /// Slot-indexed: which site allocated the object currently in each
    /// heap slot. Stale entries for freed slots are overwritten by the
    /// next allocation in that slot and never read meanwhile (attribution
    /// only looks up slots of live objects).
    site_of: Vec<u32>,
    /// The rolling recorder behind `Vm::census()`.
    pub(crate) recorder: HeapCensus,
}

impl CensusState {
    pub(crate) fn new() -> CensusState {
        let unattributed = "<unattributed>".to_owned();
        CensusState {
            site_ids: HashMap::from([(unattributed.clone(), UNATTRIBUTED)]),
            site_names: vec![unattributed],
            current_site: UNATTRIBUTED,
            site_of: Vec::new(),
            recorder: HeapCensus::new(),
        }
    }

    /// Interns a site label, returning its id.
    pub(crate) fn intern(&mut self, name: &str) -> AllocSite {
        if let Some(&id) = self.site_ids.get(name) {
            return AllocSite(id);
        }
        let id = self.site_names.len() as u32;
        self.site_names.push(name.to_owned());
        self.site_ids.insert(name.to_owned(), id);
        AllocSite(id)
    }

    /// Replaces the current site, returning the previous one so callers
    /// can scope-restore. A site id this table never issued (e.g. one
    /// from another VM) falls back to `<unattributed>`.
    pub(crate) fn set_current(&mut self, site: AllocSite) -> AllocSite {
        let id = if (site.0 as usize) < self.site_names.len() {
            site.0
        } else {
            UNATTRIBUTED
        };
        AllocSite(std::mem::replace(&mut self.current_site, id))
    }

    /// Tags a freshly-allocated slot with the current site.
    pub(crate) fn note_alloc(&mut self, slot: u32) {
        let slot = slot as usize;
        if self.site_of.len() <= slot {
            self.site_of.resize(slot + 1, UNATTRIBUTED);
        }
        self.site_of[slot] = self.current_site;
    }

    fn site_name(&self, id: u32) -> &str {
        &self.site_names[id as usize]
    }

    /// Builds major-cycle census data from the live heap. The VM calls it
    /// straight after the cycle's sweep, so it tallies every survivor.
    ///
    /// In debug builds the walk also checks the heap's occupancy
    /// accounting: the live objects' words must add up to
    /// [`Heap::occupied_words`].
    pub(crate) fn build_data(&self, heap: &Heap) -> CensusData {
        let data = self.tally(heap, heap.iter());
        debug_assert_eq!(
            data.total_bytes() / WORD_BYTES,
            heap.occupied_words() as u64,
            "heap occupancy accounting drifted from the live population"
        );
        data
    }

    /// Builds nursery-survivor census data after a minor collection:
    /// every still-valid entry of the taken young list was promoted by
    /// the sweep. Minor census covers the nursery only (untouched old
    /// objects are invisible to a minor trace) and is kept out of the
    /// drift windows for that reason.
    pub(crate) fn build_minor_data(&self, heap: &Heap, young: &[ObjRef]) -> CensusData {
        let survivors = young
            .iter()
            .filter_map(|&y| heap.get(y).ok().map(|o| (y, o)));
        self.tally(heap, survivors)
    }

    /// Tallies `objects` by class and by allocation site into named,
    /// normalized census data.
    fn tally<'h>(
        &self,
        heap: &Heap,
        objects: impl Iterator<Item = (ObjRef, &'h Object)>,
    ) -> CensusData {
        let mut per_class: HashMap<ClassId, (u64, u64)> = HashMap::new();
        let mut per_site: HashMap<u32, (u64, u64)> = HashMap::new();
        for (r, o) in objects {
            let bytes = o.size_words() as u64 * WORD_BYTES;
            let class = per_class.entry(o.class()).or_insert((0, 0));
            class.0 += 1;
            class.1 += bytes;
            let site_id = self
                .site_of
                .get(r.index() as usize)
                .copied()
                .unwrap_or(UNATTRIBUTED);
            let site = per_site.entry(site_id).or_insert((0, 0));
            site.0 += 1;
            site.1 += bytes;
        }
        let mut data = CensusData {
            classes: entries(per_class, |c| heap.registry().name(c)),
            sites: entries(per_site, |s| self.site_name(s)),
        };
        data.normalize();
        data
    }
}

/// Names each `(objects, bytes)` tally.
fn entries<'n, K>(
    tallies: HashMap<K, (u64, u64)>,
    name: impl Fn(K) -> &'n str,
) -> Vec<CensusEntry> {
    tallies
        .into_iter()
        .map(|(key, (objects, bytes))| CensusEntry {
            name: name(key).to_owned(),
            objects,
            bytes,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut s = CensusState::new();
        let a = s.intern("Foo::bar");
        let b = s.intern("Foo::bar");
        let c = s.intern("Other");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(s.site_name(a.0), "Foo::bar");
    }

    #[test]
    fn unattributed_is_the_default_site() {
        let mut s = CensusState::new();
        assert_eq!(s.intern("<unattributed>"), AllocSite::UNATTRIBUTED);
        s.note_alloc(3);
        assert_eq!(s.site_of, vec![0, 0, 0, 0]);
    }

    #[test]
    fn set_current_returns_previous() {
        let mut s = CensusState::new();
        let site = s.intern("X");
        let prev = s.set_current(site);
        assert_eq!(prev, AllocSite::UNATTRIBUTED);
        s.note_alloc(0);
        assert_eq!(s.site_of, vec![site.0]);
        let prev = s.set_current(AllocSite::UNATTRIBUTED);
        assert_eq!(prev, site);
    }

    #[test]
    fn build_data_resolves_names_and_sites() {
        let mut heap = Heap::new();
        let node = heap.register_class("Node", &["next"]);
        let mut s = CensusState::new();
        let site = s.intern("test::mk");
        s.set_current(site);
        let a = heap.alloc(node, 1, 0).unwrap();
        s.note_alloc(a.index());
        s.set_current(AllocSite::UNATTRIBUTED);
        let b = heap.alloc(node, 1, 0).unwrap();
        s.note_alloc(b.index());

        let data = s.build_data(&heap);
        assert_eq!(data.classes.len(), 1);
        assert_eq!(data.classes[0].name, "Node");
        assert_eq!(data.classes[0].objects, 2);
        assert_eq!(data.classes[0].bytes, 2 * 3 * 8); // header 2 + 1 ref
        let names: Vec<&str> = data.sites.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["<unattributed>", "test::mk"]); // normalized
        assert!(data.sites.iter().all(|e| e.objects == 1 && e.bytes == 24));
    }

    #[test]
    fn invalid_refs_are_ignored() {
        // A minor's young list still names the nursery objects its sweep
        // freed; only the survivors may be tallied.
        let mut heap = Heap::new();
        let node = heap.register_class("Node", &[]);
        let s = CensusState::new();
        let kept = heap.alloc(node, 0, 0).unwrap();
        let freed = heap.alloc(node, 0, 0).unwrap();
        heap.free(freed).unwrap();
        let data = s.build_minor_data(&heap, &[kept, freed, ObjRef::NULL]);
        assert_eq!(data.total_objects(), 1);
        assert_eq!(data.sites.len(), 1);
        assert_eq!(data.sites[0].objects, 1);
    }
}
