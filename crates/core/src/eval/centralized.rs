//! Optimal centralized evaluation of Boolean XPath.
//!
//! The values of all sub-queries in `QList(q)` at every node — the
//! `O(|T| · |q|)` strategy of Gottlob, Koch & Pichler cited as the
//! best-known centralized algorithm in the paper (Section 2.2). This is
//! both the correctness oracle for all distributed algorithms and the
//! compute kernel of `NaiveCentralized`.
//!
//! It runs the same column-at-a-time bitset kernel as
//! [`bottom_up`](fn@crate::eval::bottom_up) (`eval/columns.rs`): one
//! column of `⌈|T|/64⌉` words per sub-query, so `NaiveCentralized` and
//! ParBoX pay the same price per `(node, sub-query)` unit and their
//! comparison stays like for like. The per-node interpreter it replaced
//! is [`centralized_eval_reference`](crate::eval::centralized_eval_reference),
//! the oracle the kernel is tested against.

use crate::eval::columns::{eval_columns, Layout};
use parbox_query::CompiledQuery;
use parbox_xml::Tree;

/// Result of a counted centralized evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CentralizedRun {
    /// The query answer at the tree root.
    pub answer: bool,
    /// Work units: `nodes visited × |QList|`.
    pub work_units: u64,
}

/// Evaluates `q` at the root of `tree`.
///
/// Virtual nodes, if present, are treated as opaque leaves that satisfy
/// no predicate (callers evaluating fragmented documents should use the
/// distributed algorithms instead).
pub fn centralized_eval(tree: &Tree, q: &CompiledQuery) -> bool {
    centralized_eval_counted(tree, q).answer
}

/// Evaluates `q` and reports the work performed.
pub fn centralized_eval_counted(tree: &Tree, q: &CompiledQuery) -> CentralizedRun {
    let resolved = q.resolve(tree.labels());
    let layout = Layout::new(tree);
    let cols = eval_columns(&layout, &resolved, false, None);
    CentralizedRun {
        // The root is position 0.
        answer: cols.v_bit(resolved.root as usize, 0),
        work_units: (layout.len() * resolved.len()) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbox_query::{compile, parse_query};

    fn eval(xml: &str, q: &str) -> bool {
        let tree = Tree::parse(xml).unwrap();
        let compiled = compile(&parse_query(q).unwrap());
        centralized_eval(&tree, &compiled)
    }

    #[test]
    fn descendant_queries() {
        assert!(eval("<a><b><c/></b></a>", "[//c]"));
        assert!(!eval("<a><b><c/></b></a>", "[//z]"));
        // Descendant-or-self includes the root itself.
        assert!(eval("<a/>", "[label() = a]"));
        assert!(eval("<a><b/></a>", "[//b]"));
    }

    #[test]
    fn child_vs_descendant() {
        let xml = "<a><b><c/></b></a>";
        assert!(eval(xml, "[b]"));
        assert!(!eval(xml, "[c]"), "c is not a child of the root");
        assert!(eval(xml, "[b/c]"));
        assert!(eval(xml, "[//c]"));
        assert!(eval(xml, "[*/c]"));
        assert!(!eval(xml, "[*/*/c]"));
    }

    #[test]
    fn text_predicates() {
        let xml = r#"<stocks><stock><code>GOOG</code></stock></stocks>"#;
        assert!(eval(xml, "[//stock/code/text() = \"GOOG\"]"));
        assert!(!eval(xml, "[//stock/code/text() = \"YHOO\"]"));
        assert!(eval(xml, "[//code = \"GOOG\"]"));
    }

    #[test]
    fn boolean_connectives() {
        let xml = "<r><a/><b/></r>";
        assert!(eval(xml, "[//a and //b]"));
        assert!(!eval(xml, "[//a and //c]"));
        assert!(eval(xml, "[//a or //c]"));
        assert!(eval(xml, "[not //c]"));
        assert!(!eval(xml, "[not //a]"));
        assert!(eval(xml, "[//a and not(//c and //b)]"));
    }

    #[test]
    fn qualifiers() {
        let xml = r#"<portfolio>
            <broker><name>Bache</name><stock><code>IBM</code></stock></broker>
            <broker><name>ML</name><stock><code>GOOG</code></stock></broker>
        </portfolio>"#;
        assert!(eval(xml, "[//broker[name/text() = \"Bache\"]]"));
        assert!(eval(
            xml,
            "[//broker[name/text() = \"Bache\"][//code = \"IBM\"]]"
        ));
        assert!(!eval(
            xml,
            "[//broker[name/text() = \"Bache\"][//code = \"GOOG\"]]"
        ));
        assert!(eval(xml, "[//broker[not(//code = \"IBM\")]]"));
    }

    #[test]
    fn paper_intro_example() {
        // Fig. 1(a): tags A and B occur in separate subtrees; Q = [//A ∧ //B].
        let xml = "<r><x><z><A/></z></x><y><B/></y></r>";
        assert!(eval(xml, "[//A ∧ //B]"));
        assert!(!eval(xml, "[//A ∧ //C]"));
    }

    #[test]
    fn paper_stock_example() {
        let xml = r#"<portofolio>
          <broker><name>Bache</name>
            <market><title>NYSE</title>
              <stock><code>IBM</code><buy>80</buy><sell>78</sell></stock>
            </market>
          </broker>
          <broker><name>Merill Lynch</name>
            <market><name>NASDAQ</name>
              <stock><code>GOOG</code><buy>374</buy><sell>373</sell></stock>
            </market>
          </broker>
        </portofolio>"#;
        assert!(eval(
            xml,
            "[//stock[code/text() = \"GOOG\" and sell/text() = \"373\"]]"
        ));
        assert!(!eval(
            xml,
            "[//stock[code/text() = \"GOOG\" and sell/text() = \"376\"]]"
        ));
        assert!(eval(xml, "[/portofolio/broker/name = \"Merill Lynch\"]"));
        assert!(!eval(xml, "[/portofolio/broker/name = \"Goldman\"]"));
    }

    #[test]
    fn wildcard_and_self() {
        let xml = "<r><a><b/></a></r>";
        assert!(eval(xml, "[*]"));
        assert!(eval(xml, "[./a]"));
        assert!(eval(xml, "[*[b]]"));
        assert!(!eval(xml, "[*[c]]"));
    }

    #[test]
    fn work_units_scale() {
        let tree = Tree::parse("<a><b/><c/><d/></a>").unwrap();
        let q = compile(&parse_query("[//b]").unwrap());
        let run = centralized_eval_counted(&tree, &q);
        assert_eq!(run.work_units, 4 * q.len() as u64);
        assert!(run.answer);
    }

    #[test]
    fn virtual_nodes_are_opaque() {
        let mut tree = Tree::parse("<a><b/></a>").unwrap();
        let r = tree.root();
        tree.add_virtual_child(r, parbox_xml::FragmentId(1));
        let q = compile(&parse_query("[//parbox:virtual]").unwrap());
        assert!(
            !centralized_eval(&tree, &q),
            "virtual nodes satisfy nothing"
        );
        let q = compile(&parse_query("[//b]").unwrap());
        assert!(centralized_eval(&tree, &q));
    }

    #[test]
    fn deep_tree_no_stack_overflow() {
        let mut xml = String::new();
        for _ in 0..50_000 {
            xml.push_str("<d>");
        }
        xml.push_str("<leaf/>");
        for _ in 0..50_000 {
            xml.push_str("</d>");
        }
        let tree = Tree::parse(&xml).unwrap();
        let q = compile(&parse_query("[//leaf]").unwrap());
        assert!(centralized_eval(&tree, &q));
    }

    #[test]
    fn nested_negation_with_descendants() {
        let xml = "<r><a><x/></a><b/></r>";
        // ¬(//a[//x]) is false (it exists), so outer not(...) and //b.
        assert!(!eval(xml, "[not(//a[//x])]"));
        assert!(eval(xml, "[not(//a[//y]) and //b]"));
    }
}
