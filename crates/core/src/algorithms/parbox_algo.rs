//! Algorithm **ParBoX** (paper, Section 3.1, Fig. 3).
//!
//! Three stages:
//!
//! 1. the coordinating site identifies, from the source tree, every site
//!    holding at least one fragment and sends each the whole query;
//! 2. all sites — in parallel — partially evaluate the query over each of
//!    their fragments with `bottomUp`, producing `(V, CV, DV)` triplets of
//!    Boolean formulas, and send them back;
//! 3. the coordinator composes the partial answers by solving the
//!    resulting linear system of Boolean equations (`evalST`) in one
//!    bottom-up pass of the source tree.
//!
//! Guarantees (Section 3.2): each site is visited exactly once; total
//! network traffic is `O(|q| · card(F))`, independent of `|T|`; total
//! computation is `O(|q| (|T| + card(F)))`.
//!
//! A serving round ([`crate::serve`]) is ParBoX batched over several
//! queries and supervised; `batch_schedule` prices it.

use crate::algorithms::{answer_from_resolved, query_wire_size, EvalOutcome, FragmentSize, Sizes};
use crate::eval::bottom_up;
use crate::plan::compute_s;
use parbox_bool::EquationSystem;
use parbox_net::{run_sites_parallel, Cluster, MessageKind, NetworkModel, RunReport, SiteId};
use parbox_query::CompiledQuery;
use std::time::Instant;

/// Evaluates `q` over the cluster with the ParBoX algorithm.
pub fn parbox(cluster: &Cluster<'_>, q: &CompiledQuery) -> EvalOutcome {
    let wall = Instant::now();
    let st = &cluster.forest_stats;
    let sites: Vec<SiteId> = st.sites().collect();

    // Stage 2: parallel partial evaluation of every fragment.
    let runs = run_sites_parallel(&sites, |s| {
        st.fragments_at(s)
            .into_iter()
            .map(|f| (f, bottom_up(&cluster.forest.fragment(f).tree, q)))
            .collect::<Vec<_>>()
    });
    let sizes: Sizes = (runs.iter().flat_map(|run| &run.output))
        .map(|(f, frun)| (*f, FragmentSize::of(frun)))
        .collect();
    let mut report = parbox_schedule(cluster, q, &sizes);

    let mut sys = EquationSystem::new();
    for run in runs {
        report.record_compute(run.site, run.elapsed);
        for (frag, frun) in run.output {
            sys.insert(frag, frun.triplet);
        }
    }
    // Stage 3: solve the Boolean equation system at the coordinator.
    let solve_start = Instant::now();
    let resolved = sys
        .solve(st.postorder())
        .expect("triplets cover every fragment in bottom-up order");
    report.record_compute(cluster.coordinator(), solve_start.elapsed());
    report.elapsed_wall_s = wall.elapsed().as_secs_f64();

    EvalOutcome {
        answer: answer_from_resolved(&resolved, cluster, q),
        report,
        algorithm: "ParBoX",
    }
}

/// ParBoX's schedule. Stage 1: one visit per site, the query to every
/// remote one. Stage 2: each fragment's work at its site, its reply to
/// the coordinator. Stage 3: the solve, one work unit per entry of the
/// `O(|q| · card(F))` equation system (paper: linear-time solve).
/// Modeled time: query broadcast ∥ → the slowest site → replies over
/// the coordinator's shared inbound link → solve.
pub(crate) fn parbox_schedule(
    cluster: &Cluster<'_>,
    q: &CompiledQuery,
    sizes: &Sizes,
) -> RunReport {
    let mut report = RunReport::new();
    let coord = cluster.coordinator();
    let st = &cluster.forest_stats;
    let qsize = query_wire_size(q);
    let (mut replies, mut reply_bytes) = (0, 0);
    for s in st.sites() {
        report.record_visit(s);
        if s != coord {
            report.record_message(coord, s, qsize, MessageKind::Query);
        }
        for f in st.fragments_at(s) {
            let size = sizes[&f];
            report.record_work(s, size.work);
            if s != coord {
                report.record_message(s, coord, size.reply_bytes, MessageKind::Triplet);
                replies += 1;
                reply_bytes += size.reply_bytes;
            }
        }
    }
    let slowest_site = report.sites().map(|(_, r)| r.work_units).max().unwrap_or(0);
    let solve_work = (q.len() * st.card()) as u64;
    report.record_work(coord, solve_work);

    let model = &cluster.model;
    let broadcast = match st.site_count() {
        1 => 0.0,
        _ => model.transfer_time(qsize),
    };
    report.elapsed_model_s = broadcast
        + compute_s(slowest_site)
        + model.shared_link_time(replies, reply_bytes)
        + compute_s(solve_work);
    report
}

/// What a serving round's schedule prices of one site's reply.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplySize {
    /// The replying site.
    pub site: SiteId,
    /// Work units the site spent.
    pub work: u64,
    /// Wire bytes of its envelope; the coordinator's own reply crosses
    /// no link, and its bytes are never read.
    pub envelope_bytes: usize,
}

/// The sizes a serving round is priced from: what the round measured,
/// or what its plan predicts. Every list is in the order the round
/// charges it.
#[derive(Debug, Default)]
pub(crate) struct RoundSizes {
    /// Wire size of the merged program: the request every visited site
    /// receives.
    pub request_bytes: usize,
    /// The wave: one request per site.
    pub sites: Vec<SiteId>,
    /// One more request per supervised retry.
    pub retries: Vec<SiteId>,
    /// The fragments re-seeded to a restarted site: (site, bytes).
    pub reseeds: Vec<(SiteId, usize)>,
    /// Every reply of the wave.
    pub replies: Vec<ReplySize>,
    /// Work units of each coordinator solve before the wave (members
    /// re-solved from cached triplets)…
    pub cache_solves: Vec<u64>,
    /// …and of each solve after it (the members the wave served).
    pub member_solves: Vec<u64>,
}

/// A serving round's schedule: ParBoX's, batched and supervised. The
/// cache solves at the coordinator; the wave — a visit per site, the
/// merged program to each remote one, each retry again, each reseed as
/// data; each reply's work at its site and a remote site's envelope to
/// the coordinator; then the member solves. Modeled time, in that
/// order: the cache solves → the broadcast ∥ → each retry and reseed →
/// the slowest reply → the envelopes over the coordinator's shared
/// inbound link → the member solves.
pub(crate) fn batch_schedule(coord: SiteId, model: &NetworkModel, round: &RoundSizes) -> RunReport {
    let mut report = RunReport::new();
    let mut modeled_s = 0.0;
    for &work in &round.cache_solves {
        report.record_work(coord, work);
        modeled_s += compute_s(work);
    }
    let request = |report: &mut RunReport, site: SiteId| {
        report.record_visit(site);
        let remote = site != coord;
        if remote {
            report.record_message(coord, site, round.request_bytes, MessageKind::BatchQuery);
        }
        remote
    };
    let mut any_remote = false;
    for &site in &round.sites {
        any_remote |= request(&mut report, site);
    }
    if any_remote {
        modeled_s += model.transfer_time(round.request_bytes);
    }
    for &site in &round.retries {
        if request(&mut report, site) {
            modeled_s += model.transfer_time(round.request_bytes);
        }
    }
    for &(site, bytes) in &round.reseeds {
        if site != coord && bytes > 0 {
            report.record_message(coord, site, bytes, MessageKind::Data);
            modeled_s += model.transfer_time(bytes);
        }
    }
    let (mut slowest, mut envelopes, mut envelope_bytes) = (0.0f64, 0, 0);
    for reply in &round.replies {
        report.record_work(reply.site, reply.work);
        slowest = slowest.max(compute_s(reply.work));
        if reply.site != coord {
            let bytes = reply.envelope_bytes;
            report.record_message(reply.site, coord, bytes, MessageKind::Envelope);
            envelopes += 1;
            envelope_bytes += bytes;
        }
    }
    modeled_s += slowest + model.shared_link_time(envelopes, envelope_bytes);
    for &work in &round.member_solves {
        report.record_work(coord, work);
        modeled_s += compute_s(work);
    }
    report.elapsed_model_s = modeled_s;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::centralized::centralized_eval;
    use parbox_frag::{strategies, Forest, Placement};
    use parbox_net::NetworkModel;
    use parbox_query::{compile, parse_query};
    use parbox_xml::Tree;

    fn fig1_forest() -> Forest {
        // Paper Fig. 1(a): R{X{Z{A}}, Y{B}} with A only in Z, B only in Y.
        let tree = Tree::parse("<r><x><z><A/><A/></z><pad/></x><y><B/></y></r>").unwrap();
        let mut forest = Forest::from_tree(tree);
        let f0 = forest.root_fragment();
        let find = |forest: &Forest, frag, label: &str| {
            let t = &forest.fragment(frag).tree;
            t.descendants(t.root())
                .find(|&n| t.label_str(n) == label)
                .unwrap()
        };
        let x = find(&forest, f0, "x");
        let fx = forest.split(f0, x).unwrap();
        let z = find(&forest, fx, "z");
        forest.split(fx, z).unwrap();
        let y = find(&forest, f0, "y");
        forest.split(f0, y).unwrap();
        forest
    }

    #[test]
    fn intro_example_answer_true() {
        let forest = fig1_forest();
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//A and //B]").unwrap());
        let out = parbox(&cluster, &q);
        assert!(out.answer);
        assert_eq!(out.algorithm, "ParBoX");
    }

    #[test]
    fn each_site_visited_exactly_once() {
        let forest = fig1_forest();
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//A and //B]").unwrap());
        let out = parbox(&cluster, &q);
        for (_, site) in out.report.sites() {
            assert_eq!(site.visits, 1);
        }
        assert_eq!(out.report.max_visits(), 1);
    }

    #[test]
    fn one_visit_even_with_many_fragments_per_site() {
        // All four fragments on a single remote-ish setup: 2 sites.
        let forest = fig1_forest();
        let placement = Placement::round_robin(&forest, 2);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//A and //B]").unwrap());
        let out = parbox(&cluster, &q);
        assert!(out.answer);
        assert_eq!(out.report.max_visits(), 1, "S2-style multi-fragment sites");
    }

    #[test]
    fn agrees_with_centralized_oracle() {
        let forest = fig1_forest();
        let whole = forest.reassemble();
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        for src in [
            "[//A]",
            "[//B and //pad]",
            "[//A and not //B]",
            "[//x/z]",
            "[//x[z/A]]",
            "[//z/A and //y/B]",
            "[not(//nothing)]",
            "[*/*]",
        ] {
            let q = compile(&parse_query(src).unwrap());
            let out = parbox(&cluster, &q);
            assert_eq!(out.answer, centralized_eval(&whole, &q), "query {src}");
        }
    }

    #[test]
    fn traffic_independent_of_data_size() {
        // Same fragmentation shape, 10× the data: triplet traffic must not
        // grow (it depends on |q| and card(F) only).
        let q = compile(&parse_query("[//A and //B]").unwrap());

        let small = fig1_forest();
        let placement = Placement::one_per_fragment(&small);
        let bytes_small = {
            let cluster = Cluster::new(&small, &placement, NetworkModel::lan());
            parbox(&cluster, &q).report.total_bytes()
        };

        let tree = {
            let mut xml = String::from("<r><x><z><A/>");
            for i in 0..200 {
                xml.push_str(&format!("<junk{}/>", i % 7));
            }
            xml.push_str("</z></x><y><B/>");
            for _ in 0..200 {
                xml.push_str("<more/>");
            }
            xml.push_str("</y></r>");
            Tree::parse(&xml).unwrap()
        };
        let mut big = Forest::from_tree(tree);
        let root = big.root_fragment();
        strategies::star(&mut big, root).unwrap();
        let placement = Placement::one_per_fragment(&big);
        let bytes_big = {
            let cluster = Cluster::new(&big, &placement, NetworkModel::lan());
            parbox(&cluster, &q).report.total_bytes()
        };
        // Allow the difference driven by card(F) (4 vs 3 fragments) but
        // not by the ~50× node count.
        assert!(
            bytes_big < bytes_small * 3,
            "traffic grew with data: {bytes_small} -> {bytes_big}"
        );
    }

    #[test]
    fn work_comparable_to_centralized() {
        let forest = fig1_forest();
        let whole = forest.reassemble();
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//A and //B]").unwrap());
        let central = crate::eval::centralized_eval_counted(&whole, &q);
        let out = parbox(&cluster, &q);
        let eval_work: u64 = out.report.total_work();
        // Distributed total work = centralized + virtual nodes + solve term.
        let overhead = (3 * q.len() * cluster.forest.card()) as u64 + q.len() as u64 * 4;
        assert!(eval_work >= central.work_units);
        assert!(
            eval_work <= central.work_units + overhead,
            "work {eval_work} vs centralized {} + {overhead}",
            central.work_units
        );
    }

    #[test]
    fn single_fragment_degenerates_gracefully() {
        let tree = Tree::parse("<a><b/></a>").unwrap();
        let forest = Forest::from_tree(tree);
        let placement = Placement::single_site(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let q = compile(&parse_query("[//b]").unwrap());
        let out = parbox(&cluster, &q);
        assert!(out.answer);
        assert_eq!(
            out.report.total_messages(),
            0,
            "no remote sites, no traffic"
        );
    }
}
