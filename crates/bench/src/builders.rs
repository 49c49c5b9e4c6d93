//! Cluster builders reproducing the fragment-tree shapes of Fig. 6.

use parbox_frag::{strategies, Forest, Placement, SiteId};
use parbox_xmark::{generate, plant_marker, XmarkConfig};
use parbox_xml::{FragmentId, Tree};

/// Experiment scale: the byte budget standing in for the paper's "50MB".
///
/// The default (256 KiB) keeps each experiment iteration in the tens of
/// milliseconds while leaving compute comfortably above the modeled
/// network costs, preserving the paper's runtime shapes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Bytes standing in for the paper's constant 50 MB corpus.
    pub corpus_bytes: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            corpus_bytes: 256 * 1024,
            seed: 2006,
        }
    }
}

impl Scale {
    /// Scale with an explicit byte budget.
    pub fn bytes(corpus_bytes: usize) -> Scale {
        Scale {
            corpus_bytes,
            ..Default::default()
        }
    }

    /// Parses `--scale <bytes>` from argv, defaulting to [`Scale::default`].
    ///
    /// # Panics
    /// Panics, naming the flag, on a value that is not a byte count.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        match num_flag(&args, "--scale") {
            Some(corpus_bytes) => Scale::bytes(corpus_bytes),
            None => Scale::default(),
        }
    }
}

/// The value after the flag `name` in `args`, if given.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

/// Parses the numeric flag `name` in `args`, if given.
///
/// # Panics
/// Panics, naming the flag, on a value that does not parse: a
/// malformed flag never falls back to a default.
pub fn num_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    flag(args, name).map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{name}: bad value {v:?}"))
    })
}

/// Plants one `qmarker` with key `F<i>` at the root of every fragment so
/// experiments can target queries at specific fragments.
pub fn plant_markers(forest: &mut Forest) {
    let ids: Vec<FragmentId> = forest.fragment_ids().collect();
    for id in ids {
        let tree = forest.tree_mut(id);
        let root = tree.root();
        plant_marker(tree, root, &id.to_string());
    }
}

/// **FT1** (Experiment 1): a star of `n` equally sized fragments over a
/// constant-size corpus, one fragment per site.
///
/// As in the paper, "each fragment corresponds to a single XMark site":
/// the corpus is `n` whole XMark documents of `corpus / n` bytes hanging
/// off a common collection root; `F0` keeps the root and the first site,
/// `F1 … F_{n-1}` are the remaining sites.
pub fn ft1(scale: Scale, n: usize) -> (Forest, Placement) {
    assert!(n >= 1);
    let per = (scale.corpus_bytes / n).max(1024);
    let mut tree = Tree::new("collection");
    let root = tree.root();
    for i in 0..n {
        let site = generate(XmarkConfig {
            target_bytes: per,
            seed: scale.seed ^ i as u64,
        });
        tree.append_tree(root, &site);
    }
    let mut forest = Forest::from_tree(tree);
    let f0 = forest.root_fragment();
    // Split every site but the first off the root fragment.
    let cuts: Vec<_> = {
        let t = &forest.fragment(f0).tree;
        t.children(t.root()).skip(1).collect()
    };
    for cut in cuts {
        forest.split(f0, cut).expect("site subtrees are splittable");
    }
    plant_markers(&mut forest);
    let placement = Placement::one_per_fragment(&forest);
    (forest, placement)
}

/// **FT2** (Experiment 2): a chain `F0 ⊃ F1 ⊃ … ⊃ F_{n-1}` over a
/// constant-size corpus — the paper's temporal-database reading: each
/// fragment is one version of an XMark site, nested under its
/// predecessor. One fragment per site, with a marker planted in every
/// fragment so `qF0` / `qFn` / `qF⌈n/2⌉` can be targeted.
pub fn ft2_chain(scale: Scale, n: usize) -> (Forest, Placement) {
    assert!(n >= 1);
    let per = (scale.corpus_bytes / n).max(1024);
    let mut tree = Tree::new("history");
    let mut cur = tree.root();
    for i in 0..n {
        let version = tree.add_child(cur, "version");
        tree.set_attr(version, "seq", &i.to_string());
        let slice = generate(XmarkConfig {
            target_bytes: per,
            seed: scale.seed ^ (i as u64),
        });
        tree.append_tree(version, &slice);
        cur = version;
    }
    // Split at each version node, deepest-last, so F_{j+1} ⊂ F_j.
    let mut forest = Forest::from_tree(tree);
    let mut last = forest.root_fragment();
    for i in 1..n {
        let cut = {
            let t = &forest.fragment(last).tree;
            t.descendants(t.root())
                .find(|&nd| {
                    t.label_str(nd) == "version" && t.node(nd).attr("seq") == Some(&i.to_string())
                })
                .expect("version node present")
        };
        last = forest
            .split(last, cut)
            .expect("version subtrees are splittable");
    }
    plant_markers(&mut forest);
    let placement = Placement::one_per_fragment(&forest);
    (forest, placement)
}

/// **FT3** (Experiment 3): the two-level, eight-fragment tree of Fig. 6
/// with skewed sizes. `growth ∈ [0, 1]` sweeps the paper's 45 MB → 160 MB
/// axis: `F0` stays constant while the others grow linearly, `F1` being
/// the largest throughout.
///
/// Structure: `F0 → {F1, F2, F3}`, `F1 → {F4, F5}`, `F3 → {F6, F7}`.
pub fn ft3(scale: Scale, growth: f64) -> (Forest, Placement) {
    let unit = scale.corpus_bytes as f64 / 50.0; // bytes standing in for 1 MB
                                                 // (lo, hi) in "MB" for F0..F7, F0 constant, F1 dominant (paper text).
    let ranges: [(f64, f64); 8] = [
        (10.0, 10.0), // F0
        (10.0, 50.0), // F1
        (3.5, 15.0),  // F2
        (5.0, 20.0),  // F3
        (4.0, 16.0),  // F4
        (4.0, 16.0),  // F5
        (2.0, 10.0),  // F6
        (0.7, 3.7),   // F7
    ];
    let size = |i: usize| -> usize {
        let (lo, hi) = ranges[i];
        ((lo + growth * (hi - lo)) * unit) as usize
    };

    // Assemble the whole document with nested attachment points:
    // sections 4 and 5 live inside section 1; sections 6 and 7 inside 3.
    let mut tree = generate(XmarkConfig {
        target_bytes: size(0),
        seed: scale.seed,
    });
    let root = tree.root();
    let section = |tree: &mut Tree, parent, i: usize| {
        let slot = tree.add_child(parent, "section");
        tree.set_attr(slot, "frag", &i.to_string());
        let content = generate(XmarkConfig {
            target_bytes: size(i),
            seed: scale.seed ^ (100 + i as u64),
        });
        tree.append_tree(slot, &content);
        slot
    };
    let s1 = section(&mut tree, root, 1);
    section(&mut tree, s1, 4);
    section(&mut tree, s1, 5);
    section(&mut tree, root, 2);
    let s3 = section(&mut tree, root, 3);
    section(&mut tree, s3, 6);
    section(&mut tree, s3, 7);

    // Split hierarchically: parents first, then the nested sections out
    // of the fragments that now own them.
    let mut forest = Forest::from_tree(tree);
    let f0 = forest.root_fragment();
    let find_slot = |forest: &Forest, frag: FragmentId, i: usize| {
        let t = &forest.fragment(frag).tree;
        t.descendants(t.root())
            .find(|&n| {
                t.label_str(n) == "section" && t.node(n).attr("frag") == Some(&i.to_string())
            })
            .expect("section slot present")
    };
    let f1 = forest.split(f0, find_slot(&forest, f0, 1)).unwrap();
    forest.split(f0, find_slot(&forest, f0, 2)).unwrap();
    let f3 = forest.split(f0, find_slot(&forest, f0, 3)).unwrap();
    forest.split(f1, find_slot(&forest, f1, 4)).unwrap();
    forest.split(f1, find_slot(&forest, f1, 5)).unwrap();
    forest.split(f3, find_slot(&forest, f3, 6)).unwrap();
    forest.split(f3, find_slot(&forest, f3, 7)).unwrap();

    plant_markers(&mut forest);
    let placement = Placement::one_per_fragment(&forest);
    (forest, placement)
}

/// **Experiment 4**: a single site holding the whole corpus split into
/// `n` equal fragments — evaluation time must stay constant in `n`.
pub fn single_site_split(scale: Scale, n: usize) -> (Forest, Placement) {
    let tree = generate(XmarkConfig {
        target_bytes: scale.corpus_bytes,
        seed: scale.seed,
    });
    let mut forest = Forest::from_tree(tree);
    strategies::fragment_evenly(&mut forest, n).expect("corpus large enough");
    let mut placement = Placement::new();
    for f in forest.fragment_ids() {
        placement.assign(f, SiteId(0));
    }
    (forest, placement)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            corpus_bytes: 40_000,
            seed: 7,
        }
    }

    #[test]
    fn numeric_flags_parse_or_panic_naming_the_flag() {
        let args: Vec<String> = [
            "bin",
            "--machines",
            "12",
            "--rate",
            "0.5",
            "--queries",
            "abc",
        ]
        .iter()
        .map(|a| a.to_string())
        .collect();
        assert_eq!(num_flag::<usize>(&args, "--machines"), Some(12));
        assert_eq!(num_flag::<f64>(&args, "--rate"), Some(0.5));
        assert_eq!(num_flag::<usize>(&args, "--scale"), None);
        assert_eq!(flag(&args, "--queries").as_deref(), Some("abc"));
        let err = std::panic::catch_unwind(|| num_flag::<usize>(&args, "--queries"))
            .expect_err("a malformed value must not fall back");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("--queries") && msg.contains("abc"), "{msg}");
    }

    #[test]
    fn ft1_builds_requested_fragment_count() {
        for n in [1usize, 4, 10] {
            let (forest, placement) = ft1(tiny(), n);
            assert_eq!(forest.card(), n);
            forest.validate().unwrap();
            placement.check(&forest).unwrap();
            // One fragment per site.
            assert_eq!(placement.sites().len(), n);
        }
    }

    #[test]
    fn ft1_fragments_roughly_equal() {
        let (forest, _) = ft1(tiny(), 5);
        let sizes: Vec<usize> = forest
            .fragment_ids()
            .map(|f| forest.fragment(f).len())
            .collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max <= min * 2, "imbalanced: {sizes:?}");
    }

    #[test]
    fn ft2_is_a_chain_with_markers() {
        let (forest, _) = ft2_chain(tiny(), 5);
        assert_eq!(forest.card(), 5);
        forest.validate().unwrap();
        // Linear fragment tree.
        for f in forest.fragment_ids() {
            assert!(forest.children(f).len() <= 1);
        }
        assert_eq!(forest.depth(FragmentId(4)), 4);
    }

    #[test]
    fn ft3_has_eight_fragments_with_skew() {
        let (forest, placement) = ft3(tiny(), 0.5);
        assert_eq!(forest.card(), 8);
        forest.validate().unwrap();
        placement.check(&forest).unwrap();
        // F1's section is the largest non-root fragment.
        let sizes: Vec<(FragmentId, usize)> = forest
            .fragment_ids()
            .map(|f| (f, forest.fragment(f).byte_size()))
            .collect();
        let f1 = sizes.iter().find(|(f, _)| *f == FragmentId(1)).unwrap().1;
        for (f, s) in &sizes {
            if *f != FragmentId(0) && *f != FragmentId(1) {
                assert!(f1 >= *s, "F1 ({f1}) smaller than {f} ({s})");
            }
        }
    }

    #[test]
    fn ft3_growth_grows_everything_but_f0() {
        let (small, _) = ft3(tiny(), 0.0);
        let (large, _) = ft3(tiny(), 1.0);
        let sz = |forest: &Forest, i: u32| forest.fragment(FragmentId(i)).byte_size();
        // F0 roughly constant (generator granularity aside).
        let f0_small = sz(&small, 0) as f64;
        let f0_large = sz(&large, 0) as f64;
        assert!((f0_large / f0_small) < 1.5);
        // F1 roughly 5×.
        assert!(sz(&large, 1) > 3 * sz(&small, 1));
    }

    #[test]
    fn single_site_split_keeps_one_site() {
        let (forest, placement) = single_site_split(tiny(), 6);
        assert_eq!(forest.card(), 6);
        assert_eq!(placement.sites(), vec![SiteId(0)]);
    }
}
