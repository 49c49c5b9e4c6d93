//! Deterministic XMark-style document generator.
//!
//! The paper's experiments generate XMark auction-site documents. The
//! original `xmlgen` is a closed C tool, so this module produces
//! documents with the same element vocabulary and rough shape
//! (regions/items, categories, people, open and closed auctions), sized
//! in approximate serialized bytes, fully deterministic under a seed
//! (docs/ARCHITECTURE.md, "Workloads and experiments").

use parbox_xml::{NodeId, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`generate`].
#[derive(Debug, Clone, Copy)]
pub struct XmarkConfig {
    /// Target serialized size in bytes (approximate, ±one item).
    pub target_bytes: usize,
    /// RNG seed; equal configs generate identical documents.
    pub seed: u64,
}

impl XmarkConfig {
    /// Convenience constructor.
    pub fn sized(target_bytes: usize) -> XmarkConfig {
        XmarkConfig {
            target_bytes,
            seed: 0xC0FFEE,
        }
    }
}

const REGIONS: [&str; 6] = [
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];

const WORDS: [&str; 24] = [
    "auction",
    "great",
    "condition",
    "vintage",
    "rare",
    "collector",
    "mint",
    "original",
    "shipping",
    "included",
    "antique",
    "classic",
    "bargain",
    "quality",
    "limited",
    "edition",
    "signed",
    "certified",
    "restored",
    "working",
    "complete",
    "boxed",
    "sealed",
    "tested",
];

const FIRST: [&str; 10] = [
    "Ada", "Brke", "Chen", "Dara", "Edur", "Fumi", "Gert", "Hana", "Ivor", "Jin",
];
const LAST: [&str; 10] = [
    "Adams", "Brown", "Cortez", "Dietz", "Endo", "Fagin", "Gupta", "Hopper", "Ito", "Jones",
];

/// Generates an XMark-style document of roughly `config.target_bytes`
/// serialized bytes.
pub fn generate(config: XmarkConfig) -> Tree {
    Generator::new(config).run()
}

struct Generator {
    rng: StdRng,
    tree: Tree,
    /// Running estimate of serialized size, maintained incrementally so
    /// sizing is O(n) total.
    bytes: usize,
    target: usize,
    item_seq: usize,
    person_seq: usize,
    auction_seq: usize,
}

impl Generator {
    fn new(config: XmarkConfig) -> Generator {
        Generator {
            rng: StdRng::seed_from_u64(config.seed),
            tree: Tree::new("site"),
            bytes: 0,
            target: config.target_bytes,
            item_seq: 0,
            person_seq: 0,
            auction_seq: 0,
        }
    }

    fn run(mut self) -> Tree {
        let root = self.tree.root();
        let regions = self.el(root, "regions");
        let region_nodes: Vec<NodeId> = REGIONS.iter().map(|r| self.el(regions, r)).collect();
        let categories = self.el(root, "categories");
        let people = self.el(root, "people");
        let open = self.el(root, "open_auctions");
        let closed = self.el(root, "closed_auctions");

        for i in 0..6 {
            let cat = self.el(categories, "category");
            let name = format!("category{i}");
            self.text(cat, "name", &name);
        }

        // Round-robin sections until the size target is met, so every
        // section grows proportionally (like xmlgen's fixed ratios).
        while self.bytes < self.target {
            let region = region_nodes[self.item_seq % region_nodes.len()];
            self.item(region);
            self.person(people);
            self.open_auction(open);
            if self.auction_seq.is_multiple_of(2) {
                self.closed_auction(closed);
            }
        }
        self.tree
    }

    /// Adds an element, maintaining the size estimate.
    fn el(&mut self, parent: NodeId, label: &str) -> NodeId {
        self.bytes += 2 * label.len() + 5;
        self.tree.add_child(parent, label)
    }

    /// Adds a text element, maintaining the size estimate.
    fn text(&mut self, parent: NodeId, label: &str, value: &str) -> NodeId {
        self.bytes += 2 * label.len() + 5 + value.len();
        self.tree.add_text_child(parent, label, value)
    }

    fn words(&mut self, n: usize) -> String {
        let mut out = String::new();
        for i in 0..n {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(WORDS[self.rng.random_range(0..WORDS.len())]);
        }
        out
    }

    fn person_name(&mut self) -> String {
        format!(
            "{} {}",
            FIRST[self.rng.random_range(0..FIRST.len())],
            LAST[self.rng.random_range(0..LAST.len())]
        )
    }

    fn item(&mut self, region: NodeId) {
        let id = self.item_seq;
        self.item_seq += 1;
        let item = self.el(region, "item");
        let name = format!("item{id}");
        self.text(item, "name", &name);
        let loc = if self.rng.random_bool(0.7) {
            "United States"
        } else {
            "Elsewhere"
        };
        self.text(item, "location", loc);
        let qty = self.rng.random_range(1..5u32).to_string();
        self.text(item, "quantity", &qty);
        let desc = self.el(item, "description");
        let body = self.words(8);
        self.text(desc, "text", &body);
        let payment = if self.rng.random_bool(0.5) {
            "Creditcard"
        } else {
            "Cash"
        };
        self.text(item, "payment", payment);
        if self.rng.random_bool(0.3) {
            let mailbox = self.el(item, "mailbox");
            let mail = self.el(mailbox, "mail");
            let from = self.person_name();
            self.text(mail, "from", &from);
            let date = format!("0{}/2006", 1 + id % 9);
            self.text(mail, "date", &date);
            let body = self.words(5);
            self.text(mail, "text", &body);
        }
    }

    fn person(&mut self, people: NodeId) {
        let id = self.person_seq;
        self.person_seq += 1;
        let p = self.el(people, "person");
        let name = self.person_name();
        self.text(p, "name", &name);
        let email = format!("mailto:person{id}@example.com");
        self.text(p, "emailaddress", &email);
        if self.rng.random_bool(0.4) {
            let phone = format!("+1 ({}) 555-01{:02}", 200 + id % 700, id % 100);
            self.text(p, "phone", &phone);
        }
    }

    fn open_auction(&mut self, open: NodeId) {
        let id = self.auction_seq;
        self.auction_seq += 1;
        let a = self.el(open, "open_auction");
        let initial = format!("{}.{:02}", self.rng.random_range(1..200u32), id % 100);
        self.text(a, "initial", &initial);
        for _ in 0..self.rng.random_range(1..4u32) {
            let bidder = self.el(a, "bidder");
            let inc = format!("{}.00", self.rng.random_range(1..20u32));
            self.text(bidder, "increase", &inc);
        }
        let itemref = format!("item{}", self.rng.random_range(0..self.item_seq.max(1)));
        self.text(a, "itemref", &itemref);
    }

    fn closed_auction(&mut self, closed: NodeId) {
        let a = self.el(closed, "closed_auction");
        let price = format!("{}.00", self.rng.random_range(5..500u32));
        self.text(a, "price", &price);
        let seller = self.person_name();
        self.text(a, "seller", &seller);
        let buyer = self.person_name();
        self.text(a, "buyer", &buyer);
    }
}

/// Plants a uniquely identifiable marker element under the given node —
/// used by the experiments to construct queries satisfied in a chosen
/// fragment (`qF0`, `qFn`, `qF⌈n/2⌉`).
pub fn plant_marker(tree: &mut Tree, under: NodeId, key: &str) -> NodeId {
    let m = tree.add_child(under, "qmarker");
    tree.add_text_child(m, "key", key);
    m
}

/// The XBL query satisfied exactly where [`plant_marker`] planted `key`.
pub fn marker_query(key: &str) -> String {
    format!("[//qmarker[key/text() = \"{key}\"]]")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_seed() {
        let a = generate(XmarkConfig {
            target_bytes: 20_000,
            seed: 7,
        });
        let b = generate(XmarkConfig {
            target_bytes: 20_000,
            seed: 7,
        });
        assert!(a.structural_eq(&b));
        let c = generate(XmarkConfig {
            target_bytes: 20_000,
            seed: 8,
        });
        assert!(!a.structural_eq(&c));
    }

    #[test]
    fn size_tracks_target() {
        for target in [5_000usize, 50_000, 200_000] {
            let t = generate(XmarkConfig::sized(target));
            let actual = t.byte_size(t.root());
            assert!(
                actual >= target && actual < target + target / 2 + 2_000,
                "target {target}, got {actual}"
            );
        }
    }

    #[test]
    fn has_xmark_vocabulary() {
        let t = generate(XmarkConfig::sized(30_000));
        let mut labels = std::collections::BTreeSet::new();
        for n in t.descendants(t.root()) {
            labels.insert(t.label_str(n).to_string());
        }
        for expect in [
            "site",
            "regions",
            "asia",
            "item",
            "name",
            "people",
            "person",
            "open_auctions",
            "open_auction",
            "bidder",
            "closed_auctions",
            "price",
        ] {
            assert!(labels.contains(expect), "missing {expect}");
        }
    }

    #[test]
    fn markers_work() {
        let mut t = generate(XmarkConfig::sized(5_000));
        let root = t.root();
        plant_marker(&mut t, root, "F3");
        let q = parbox_query::compile(&parbox_query::parse_query(&marker_query("F3")).unwrap());
        // Marker query has the canonical |QList| = 8 shape of Example 2.1.
        assert_eq!(q.len(), 8);
    }

    #[test]
    fn document_is_valid_tree() {
        let t = generate(XmarkConfig::sized(10_000));
        t.validate().unwrap();
        // Round-trips through serialization.
        let xml = t.to_xml();
        let back = Tree::parse(&xml).unwrap();
        assert!(t.structural_eq(&back));
    }
}
