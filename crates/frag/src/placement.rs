//! Placement of fragments onto sites — the paper's mapping function `h`.

use crate::Forest;
use parbox_xml::FragmentId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a site (a machine in the paper's LAN experiments; a
/// simulated worker in this reproduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SiteId(pub u32);

impl SiteId {
    /// Index form, for vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// The assignment `h : F → S` of fragments to sites.
///
/// No constraints are imposed: any number of fragments may share a site
/// (Experiment 4 varies exactly this).
#[derive(Debug, Clone, Default)]
pub struct Placement {
    map: HashMap<FragmentId, SiteId>,
}

impl Placement {
    /// Empty placement.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns a fragment to a site.
    pub fn assign(&mut self, frag: FragmentId, site: SiteId) {
        self.map.insert(frag, site);
    }

    /// The site holding `frag`.
    ///
    /// # Panics
    /// Panics if the fragment is unplaced — a configuration error.
    pub fn site_of(&self, frag: FragmentId) -> SiteId {
        *self
            .map
            .get(&frag)
            .unwrap_or_else(|| panic!("fragment {frag} is not placed on any site"))
    }

    /// All fragments assigned to `site`, ascending by id.
    pub fn fragments_at(&self, site: SiteId) -> Vec<FragmentId> {
        let mut out: Vec<FragmentId> = self
            .map
            .iter()
            .filter(|&(_, &s)| s == site)
            .map(|(&f, _)| f)
            .collect();
        out.sort();
        out
    }

    /// Distinct sites in use, ascending.
    pub fn sites(&self) -> Vec<SiteId> {
        let mut out: Vec<SiteId> = self.map.values().copied().collect();
        out.sort();
        out.dedup();
        out
    }

    /// Number of placed fragments.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is placed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Places every fragment on a single site (degenerate / centralized).
    pub fn single_site(forest: &Forest) -> Placement {
        let mut p = Placement::new();
        for f in forest.fragment_ids() {
            p.assign(f, SiteId(0));
        }
        p
    }

    /// Round-robin placement over `n_sites` sites, in fragment-id order.
    /// The root fragment lands on site `S0`, which doubles as the
    /// coordinating site in the experiments.
    pub fn round_robin(forest: &Forest, n_sites: u32) -> Placement {
        assert!(n_sites > 0, "need at least one site");
        let mut p = Placement::new();
        for (i, f) in forest.fragment_ids().enumerate() {
            p.assign(f, SiteId(i as u32 % n_sites));
        }
        p
    }

    /// One dedicated site per fragment (the paper's Experiments 1–3:
    /// "each fragment is assigned to a different machine").
    pub fn one_per_fragment(forest: &Forest) -> Placement {
        let mut p = Placement::new();
        for (i, f) in forest.fragment_ids().enumerate() {
            p.assign(f, SiteId(i as u32));
        }
        p
    }

    /// Checks that every fragment of the forest is placed; the error
    /// names the first unplaced fragment.
    pub fn check(&self, forest: &Forest) -> Result<(), crate::FragError> {
        for f in forest.fragment_ids() {
            if !self.map.contains_key(&f) {
                return Err(crate::FragError::UnplacedFragment(f));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbox_xml::Tree;

    fn forest_with(n_extra: usize) -> Forest {
        let mut xml = String::from("<r>");
        for i in 0..n_extra {
            xml.push_str(&format!("<c{i}><leaf/></c{i}>"));
        }
        xml.push_str("</r>");
        let mut f = Forest::from_tree(Tree::parse(&xml).unwrap());
        for i in 0..n_extra {
            let tree = &f.fragment(FragmentId(0)).tree;
            let node = tree
                .descendants(tree.root())
                .find(|&n| tree.label_str(n) == format!("c{i}"))
                .unwrap();
            f.split(FragmentId(0), node).unwrap();
        }
        f
    }

    #[test]
    fn round_robin_covers_all_fragments() {
        let f = forest_with(5);
        let p = Placement::round_robin(&f, 3);
        p.check(&f).unwrap();
        assert_eq!(p.sites().len(), 3);
        assert_eq!(p.site_of(FragmentId(0)), SiteId(0));
        assert_eq!(p.site_of(FragmentId(3)), SiteId(0));
        assert_eq!(p.site_of(FragmentId(4)), SiteId(1));
    }

    #[test]
    fn one_per_fragment_is_injective() {
        let f = forest_with(4);
        let p = Placement::one_per_fragment(&f);
        assert_eq!(p.sites().len(), f.card());
        for s in p.sites() {
            assert_eq!(p.fragments_at(s).len(), 1);
        }
    }

    #[test]
    fn single_site_collapses() {
        let f = forest_with(4);
        let p = Placement::single_site(&f);
        assert_eq!(p.sites(), vec![SiteId(0)]);
        assert_eq!(p.fragments_at(SiteId(0)).len(), f.card());
    }

    #[test]
    fn validate_flags_missing() {
        let f = forest_with(2);
        let mut p = Placement::new();
        p.assign(FragmentId(0), SiteId(0));
        assert_eq!(
            p.check(&f),
            Err(crate::FragError::UnplacedFragment(FragmentId(1)))
        );
    }

    #[test]
    fn fragments_at_sorted() {
        let mut p = Placement::new();
        p.assign(FragmentId(3), SiteId(1));
        p.assign(FragmentId(1), SiteId(1));
        assert_eq!(
            p.fragments_at(SiteId(1)),
            vec![FragmentId(1), FragmentId(3)]
        );
    }
}
