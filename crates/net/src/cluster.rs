//! The [`Cluster`]: a fragmented document deployed on simulated sites.

use crate::NetworkModel;
use parbox_frag::{Forest, ForestStats, FragError, Placement, SiteId};

/// A deployment of a fragmented document: forest + placement + induced
/// source tree + network model. This is the input every distributed
/// algorithm in `parbox-core` operates on.
#[derive(Debug, Clone)]
pub struct Cluster<'a> {
    /// The fragmented document.
    pub forest: &'a Forest,
    /// Assignment of fragments to sites (the paper's `h`).
    pub placement: &'a Placement,
    /// The induced source tree `S_T`, with per-fragment and per-site
    /// sizes.
    pub forest_stats: ForestStats,
    /// Network cost model.
    pub model: NetworkModel,
}

impl<'a> Cluster<'a> {
    /// Builds a cluster, inducing the source tree.
    ///
    /// # Panics
    /// Panics if some fragment is unplaced. Fallible callers (the CLI, a
    /// serving engine fed external configuration) should use
    /// [`Cluster::try_new`] instead.
    pub fn new(forest: &'a Forest, placement: &'a Placement, model: NetworkModel) -> Cluster<'a> {
        Cluster::try_new(forest, placement, model)
            .unwrap_or_else(|e| panic!("invalid placement: {e}"))
    }

    /// Builds a cluster, inducing the source tree; errs (instead of
    /// panicking) when the placement does not cover every fragment.
    pub fn try_new(
        forest: &'a Forest,
        placement: &'a Placement,
        model: NetworkModel,
    ) -> Result<Cluster<'a>, FragError> {
        placement.check(forest)?;
        Ok(Cluster {
            forest,
            placement,
            forest_stats: ForestStats::compute(forest, placement),
            model,
        })
    }

    /// The coordinating site: the site storing the root fragment (the
    /// paper's convention, w.l.o.g.).
    pub fn coordinator(&self) -> SiteId {
        self.forest_stats.site_of(self.forest_stats.root())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbox_frag::strategies;
    use parbox_xml::Tree;

    fn setup() -> (Forest, Placement) {
        let tree = Tree::parse("<r><a><x/><y/></a><b><z/></b><c/></r>").unwrap();
        let mut forest = Forest::from_tree(tree);
        let root = forest.root_fragment();
        strategies::star(&mut forest, root).unwrap();
        let placement = Placement::round_robin(&forest, 2);
        (forest, placement)
    }

    #[test]
    fn coordinator_is_root_fragment_site() {
        let (forest, placement) = setup();
        let c = Cluster::new(&forest, &placement, NetworkModel::lan());
        assert_eq!(c.coordinator(), placement.site_of(forest.root_fragment()));
    }

    #[test]
    #[should_panic(expected = "invalid placement")]
    fn unplaced_fragment_panics() {
        let (forest, _) = setup();
        let empty = Placement::new();
        let _ = Cluster::new(&forest, &empty, NetworkModel::lan());
    }

    #[test]
    fn try_new_reports_unplaced_fragment() {
        let (forest, placement) = setup();
        assert!(Cluster::try_new(&forest, &placement, NetworkModel::lan()).is_ok());
        let mut partial = Placement::new();
        partial.assign(forest.root_fragment(), parbox_frag::SiteId(0));
        let err = Cluster::try_new(&forest, &partial, NetworkModel::lan()).unwrap_err();
        assert!(matches!(err, FragError::UnplacedFragment(_)), "{err}");
    }
}
