//! `parbox-cli` — command-line front end for the ParBoX engine.
//!
//! ```text
//! parbox-cli compile  '<query>'                     show normal form + QList
//! parbox-cli query    <file.xml> '<query>'          Boolean answer (centralized)
//! parbox-cli select   <file.xml> '<path query>'     list matching nodes
//! parbox-cli run      <file.xml> '<query>' [--fragments N] [--sites K] [--algo NAME]
//!                                                   fragment + evaluate distributed
//! parbox-cli batch    <file.xml> '<q1>' '<q2>' … [--fragments N] [--sites K]
//!                                                   answer a whole batch in one engine round
//! parbox-cli serve    <file.xml> [--fragments N] [--sites K] [--ops N] [--seed S]
//!                                                   drive a mixed workload through the
//!                                                   resident serving engine
//! parbox-cli generate --bytes N [--seed S]          emit an XMark document to stdout
//! ```

use parbox::core::{
    centralized_eval, count_centralized, full_dist_parbox, lazy_parbox, naive_centralized,
    naive_distributed, parbox, select_centralized, sum_centralized,
};
use parbox::core::{Engine, EngineConfig, PlanContext, Planner};
use parbox::frag::{strategies, Forest, Placement};
use parbox::net::{Cluster, FaultPlan, NetworkModel, SupervisorConfig};
use parbox::query::{compile, compile_batch, compile_selection, normalize, parse_query};
use parbox::xmark::{drive_stream, generate, mixed_workload, MixedConfig, XmarkConfig};
use parbox::xml::Tree;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compile") => cmd_compile(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("select") => cmd_select(&args[1..]),
        Some("count") => cmd_aggregate(&args[1..], true),
        Some("sum") => cmd_aggregate(&args[1..], false),
        Some("run") => cmd_run(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
parbox-cli — distributed Boolean XPath via partial evaluation (VLDB 2006)

USAGE:
  parbox-cli compile  '<query>'
  parbox-cli query    <file.xml> '<query>'
  parbox-cli select   <file.xml> '<path query>'
  parbox-cli count    <file.xml> '<predicate>'
  parbox-cli sum      <file.xml> '<predicate>'
  parbox-cli run      <file.xml> '<query>' [--fragments N] [--sites K]
                      [--strategy NAME|all|auto] [--network lan|wan|infinite]
  parbox-cli explain  <file.xml> '<query>' [--fragments N] [--sites K]
                      [--network lan|wan|infinite]
  parbox-cli batch    <file.xml> '<q1>' '<q2>' ... [--fragments N] [--sites K]
  parbox-cli serve    <file.xml> [--fragments N] [--sites K] [--ops N] [--seed S] [--batch N]
                      [--fault-plan SPEC] [--deadline-ms N]
  parbox-cli generate --bytes N [--seed S]

Fault spec: comma-separated kind:rate pairs, e.g. --fault-plan panic:0.01,wedge:0.02
            (kinds: panic wedge delay drop crash, each once; panic+wedge+delay+drop <= 1;
            chaos runs print restart/retry counters)
Query syntax (XBL): [//stock[code/text() = \"GOOG\" and sell/text() = \"376\"]]
Strategies: ParBoX NaiveCentralized NaiveDistributed FullDistParBoX LazyParBoX
            auto — the cost-based planner picks per query (see `explain`)
(--algo remains an alias of --strategy.)
";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

/// Parses the numeric flag `name`, if given. A value that does not
/// parse is an error naming the flag, never a silent default.
fn num_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| v.parse().map_err(|_| format!("{name}: bad value {v:?}")))
        .transpose()
}

fn positional(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = true;
            continue;
        }
        out.push(a);
    }
    out
}

fn load_tree(path: &str) -> Result<Tree, String> {
    let xml = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Tree::parse(&xml).map_err(|e| format!("parsing {path}: {e}"))
}

fn parse_arg_query(src: &str) -> Result<parbox::query::Query, String> {
    parse_query(src).map_err(|e| format!("query syntax: {e}"))
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let [src] = positional(args)[..] else {
        return Err("usage: parbox-cli compile '<query>'".into());
    };
    let q = parse_arg_query(src)?;
    println!("query:       {q}");
    println!("normal form: {}", normalize(&q));
    let c = compile(&q);
    println!("QList ({} sub-queries):\n{c}", c.len());
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let [file, src] = positional(args)[..] else {
        return Err("usage: parbox-cli query <file.xml> '<query>'".into());
    };
    let tree = load_tree(file)?;
    let q = compile(&parse_arg_query(src)?);
    let run = parbox::core::centralized_eval_counted(&tree, &q);
    println!("{}", run.answer);
    eprintln!(
        "({} nodes × {} sub-queries = {} work units)",
        tree.len(),
        q.len(),
        run.work_units
    );
    Ok(())
}

fn cmd_select(args: &[String]) -> Result<(), String> {
    let [file, src] = positional(args)[..] else {
        return Err("usage: parbox-cli select <file.xml> '<path query>'".into());
    };
    let tree = load_tree(file)?;
    let program = compile_selection(&parse_arg_query(src)?).map_err(|e| e.to_string())?;
    let nodes = select_centralized(&tree, &program);
    for &n in &nodes {
        // Print a root-to-node label path plus any text.
        let mut path: Vec<&str> = tree.ancestors(n).map(|a| tree.label_str(a)).collect();
        path.reverse();
        path.push(tree.label_str(n));
        let text = tree.node(n).text.as_deref().unwrap_or("");
        println!(
            "/{}{}{}",
            path.join("/"),
            if text.is_empty() { "" } else { " = " },
            text
        );
    }
    eprintln!("({} nodes selected)", nodes.len());
    Ok(())
}

fn cmd_aggregate(args: &[String], count: bool) -> Result<(), String> {
    let [file, src] = positional(args)[..] else {
        return Err("usage: parbox-cli count|sum <file.xml> '<predicate>'".into());
    };
    let tree = load_tree(file)?;
    let q = compile(&parse_arg_query(src)?);
    if count {
        println!("{}", count_centralized(&tree, &q));
    } else {
        println!("{}", sum_centralized(&tree, &q));
    }
    Ok(())
}

/// Parses `--network lan|wan|infinite` (default: lan).
fn network_flag(args: &[String]) -> Result<NetworkModel, String> {
    match flag(args, "--network").as_deref() {
        None | Some("lan") => Ok(NetworkModel::lan()),
        Some("wan") => Ok(NetworkModel::wan()),
        Some("infinite") => Ok(NetworkModel::infinite()),
        Some(other) => Err(format!(
            "unknown network model {other:?} (lan|wan|infinite)"
        )),
    }
}

/// Fragments `file` (`--fragments`, default 4) and places the fragments
/// round-robin over `--sites` sites (default one per fragment).
fn deploy(file: &str, args: &[String]) -> Result<(Forest, Placement), String> {
    let fragments: usize = num_flag(args, "--fragments")?.unwrap_or(4);
    let sites: u32 = num_flag(args, "--sites")?.unwrap_or(fragments as u32);
    let tree = load_tree(file)?;
    let mut forest = Forest::from_tree(tree);
    strategies::fragment_evenly(&mut forest, fragments).map_err(|e| format!("fragmenting: {e}"))?;
    let placement = Placement::round_robin(&forest, sites.max(1));
    Ok((forest, placement))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let pos = positional(args);
    let [file, src] = pos[..] else {
        return Err(
            "usage: parbox-cli run <file.xml> '<query>' [--fragments N] [--sites K] \
                    [--strategy NAME|all|auto] [--network lan|wan|infinite]"
                .into(),
        );
    };
    let strategy = flag(args, "--strategy")
        .or_else(|| flag(args, "--algo"))
        .unwrap_or_else(|| "all".into());

    let (forest, placement) = deploy(file, args)?;
    let model = network_flag(args)?;
    let q = compile(&parse_arg_query(src)?);
    let expected = centralized_eval(&forest.reassemble(), &q);
    let cluster =
        Cluster::try_new(&forest, &placement, model).map_err(|e| format!("deploying: {e}"))?;
    println!(
        "document fragmented into {} fragments over {} site(s); centralized answer: {expected}",
        forest.card(),
        placement.sites().len()
    );
    println!(
        "{:<22} {:>7} {:>11} {:>12} {:>12} {:>12}",
        "strategy", "answer", "max visits", "traffic (B)", "work units", "modeled (s)"
    );
    let names: Vec<&str> = if strategy == "all" {
        vec![
            "ParBoX",
            "NaiveCentralized",
            "NaiveDistributed",
            "auto",
            "FullDistParBoX",
            "LazyParBoX",
        ]
    } else {
        vec![strategy.as_str()]
    };
    for name in names {
        let out = match name {
            "ParBoX" => parbox(&cluster, &q),
            "NaiveCentralized" => naive_centralized(&cluster, &q),
            "NaiveDistributed" => naive_distributed(&cluster, &q),
            "FullDistParBoX" => full_dist_parbox(&cluster, &q),
            "LazyParBoX" => lazy_parbox(&cluster, &q),
            "auto" | "Auto" => parbox::core::plan_run(&cluster, &q),
            "HybridParBoX" => parbox::core::hybrid_parbox(&cluster, &q),
            other => return Err(format!("unknown strategy {other:?}")),
        };
        let label = match &out.report.planned {
            Some(p) if name == "auto" || name == "Auto" => format!("auto→{}", p.strategy),
            _ => out.algorithm.to_string(),
        };
        println!(
            "{:<22} {:>7} {:>11} {:>12} {:>12} {:>12.6}",
            label,
            out.answer,
            out.report.max_visits(),
            out.report.total_bytes(),
            out.report.total_work(),
            out.report.elapsed_model_s
        );
        if let Some(p) = &out.report.planned {
            if name == "auto" || name == "Auto" {
                println!(
                    "  planner: chose {} of {} candidates (predicted {} visits, {} msgs, {} B, {:.6}s)",
                    p.strategy,
                    p.candidates,
                    p.estimate.visits,
                    p.estimate.messages,
                    p.estimate.traffic_bytes,
                    p.estimate.modeled_s
                );
            }
        }
        if out.answer != expected {
            return Err(format!("{name} disagreed with the centralized answer!"));
        }
    }
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let pos = positional(args);
    let [file, src] = pos[..] else {
        return Err(
            "usage: parbox-cli explain <file.xml> '<query>' [--fragments N] [--sites K] \
                    [--network lan|wan|infinite]"
                .into(),
        );
    };
    let (forest, placement) = deploy(file, args)?;
    let model = network_flag(args)?;
    let q = compile(&parse_arg_query(src)?);
    let cluster =
        Cluster::try_new(&forest, &placement, model).map_err(|e| format!("deploying: {e}"))?;
    let cx = PlanContext::new(&cluster, &q);
    let planner = Planner::standard();
    let choice = planner.choose(&cx);
    println!(
        "{} fragments over {} site(s), |QList| = {}, network {}: candidate estimates",
        cluster.forest_stats.card(),
        cluster.forest_stats.site_count(),
        q.len(),
        flag(args, "--network").unwrap_or_else(|| "lan".into()),
    );
    print!("{}", choice.explain);
    println!(
        "planner chooses {} (predicted {:.6}s modeled time)",
        choice.summary.strategy, choice.summary.estimate.modeled_s
    );
    Ok(())
}

fn cmd_batch(args: &[String]) -> Result<(), String> {
    let pos = positional(args);
    let Some((&file, queries)) = pos.split_first() else {
        return Err(
            "usage: parbox-cli batch <file.xml> '<q1>' '<q2>' ... [--fragments N] [--sites K]"
                .into(),
        );
    };
    if queries.is_empty() {
        return Err("batch needs at least one query".into());
    }
    let parsed = queries
        .iter()
        .map(|src| parse_arg_query(src))
        .collect::<Result<Vec<_>, _>>()?;
    let (forest, placement) = deploy(file, args)?;
    let whole = forest.reassemble();
    let mut engine = Engine::new(forest, placement, EngineConfig::default())
        .map_err(|e| format!("deploying: {e}"))?;
    let model = *engine.model();
    for q in &parsed {
        engine.submit(q);
    }
    let out = engine.flush().expect("the batch is pending");

    let compiled: Vec<_> = parsed.iter().map(compile).collect();
    let summed: usize = compiled.iter().map(|c| c.len()).sum();
    println!(
        "batch of {} queries — merged QList {} (vs {} compiled separately), {} fragments, {} site(s)",
        parsed.len(),
        compile_batch(&parsed).merged_len(),
        summed,
        engine.forest().card(),
        engine.placement().sites().len()
    );
    let mut disagreed = Vec::new();
    for ((src, c), &(_, answer)) in queries.iter().zip(&compiled).zip(&out.answers) {
        println!("{answer:<5}  {src}");
        if answer != centralized_eval(&whole, c) {
            disagreed.push(src.as_str());
        }
    }
    let cluster = Cluster::try_new(engine.forest(), engine.placement(), model)
        .map_err(|e| format!("deploying: {e}"))?;
    let sequential: f64 = compiled
        .iter()
        .map(|c| parbox(&cluster, c).report.network_cost_s(&model))
        .sum();
    let batched = out.report.network_cost_s(&model);
    let saving = if batched > 0.0 {
        format!("{:.1}x", sequential / batched)
    } else {
        "all fragments local, no network".into()
    };
    println!(
        "one round: max visits/site {}, {} messages, {} bytes; network cost {:.6}s vs {:.6}s sequential ({saving})",
        out.report.max_visits(),
        out.report.total_messages(),
        out.report.total_bytes(),
        batched,
        sequential,
    );
    if !disagreed.is_empty() {
        return Err(format!(
            "the engine disagreed with the centralized answer on {disagreed:?}"
        ));
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let [file] = positional(args)[..] else {
        return Err(
            "usage: parbox-cli serve <file.xml> [--fragments N] [--sites K] [--ops N] \
             [--seed S] [--batch N] [--fault-plan SPEC] [--deadline-ms N]"
                .into(),
        );
    };
    let ops: usize = num_flag(args, "--ops")?.unwrap_or(1000);
    let seed: u64 = num_flag(args, "--seed")?.unwrap_or(2006);
    let max_batch: usize = num_flag(args, "--batch")?.unwrap_or(32);
    let fault_plan = match flag(args, "--fault-plan") {
        Some(spec) => FaultPlan::parse(&spec, seed, std::time::Duration::from_millis(75))
            .map_err(|e| format!("--fault-plan: {e}"))?,
        None => FaultPlan::none(),
    };
    let supervisor = num_flag::<u64>(args, "--deadline-ms")?.map(|ms| SupervisorConfig {
        deadline: std::time::Duration::from_millis(ms),
        max_attempts: 4,
        restart_after_timeouts: 1,
        backoff_base: std::time::Duration::from_millis((ms / 4).max(1)),
        jitter_seed: seed,
    });

    let (forest, placement) = deploy(file, args)?;
    let chaotic = !fault_plan.is_inert();
    let config = EngineConfig {
        max_batch,
        fault_plan,
        supervisor,
        ..EngineConfig::default()
    };
    let mut engine =
        Engine::new(forest, placement, config).map_err(|e| format!("deploying: {e}"))?;
    println!(
        "deployed {} fragments over {} resident site worker(s); serving {ops} mixed ops \
         (seed {seed}, admission batch {max_batch})",
        engine.forest().card(),
        engine.placement().sites().len()
    );

    let stream = mixed_workload(MixedConfig::serving(ops, seed));
    let start = std::time::Instant::now();
    let served = drive_stream(&mut engine, &stream);
    let wall = start.elapsed().as_secs_f64();

    let stats = engine.stats();
    let trues = served.answers.iter().filter(|&&a| a).count();
    println!(
        "answered {} queries ({trues} true) and applied {} updates \
         in {wall:.3}s ({:.0} queries/s)",
        served.answers.len(),
        served.updates_applied,
        served.answers.len() as f64 / wall.max(1e-9)
    );
    println!(
        "rounds {}  coordinator cache hits {}  site cache hits {}  traffic {} bytes",
        stats.rounds, stats.members_from_cache, stats.site_cache_hits, served.bytes
    );
    let coord_rate = stats.members_from_cache as f64 / (stats.queries as f64).max(1.0);
    let site_rate = stats.site_cache_hits as f64
        / ((stats.site_cache_hits + stats.fragments_evaluated) as f64).max(1.0);
    let arena = parbox::boolean::Formula::arena_stats();
    println!(
        "cache efficacy: coordinator {:.1}%  site {:.1}%  |  formula arena: {} nodes \
         interned, {} thread-local hits",
        100.0 * coord_rate,
        100.0 * site_rate,
        arena.nodes,
        arena.local_hits
    );
    let total = (stats.entries_repaired + stats.entries_invalidated).max(1);
    println!(
        "update maintenance: {} entries repaired in place ({:.1}%), {} invalidated, \
         {} nodes re-interned, {} delta bytes shipped",
        stats.entries_repaired,
        100.0 * stats.entries_repaired as f64 / total as f64,
        stats.entries_invalidated,
        stats.repair_nodes_recomputed,
        stats.repair_delta_bytes
    );
    if chaotic {
        println!(
            "supervision: timeouts {}  retries {}  actor restarts {}  partial answers {}",
            stats.timeouts, stats.retries, stats.restarts, served.partial_answers
        );
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let bytes: usize =
        num_flag(args, "--bytes")?.ok_or("usage: parbox-cli generate --bytes N [--seed S]")?;
    let seed: u64 = num_flag(args, "--seed")?.unwrap_or(0);
    let tree = generate(XmarkConfig {
        target_bytes: bytes,
        seed,
    });
    println!("{}", tree.to_xml());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn numeric_flags_parse_or_name_the_flag() {
        let a = args(&["doc.xml", "--ops", "12", "--sites", "-1"]);
        assert_eq!(num_flag::<usize>(&a, "--ops"), Ok(Some(12)));
        assert_eq!(num_flag::<usize>(&a, "--seed"), Ok(None));
        let err = num_flag::<u32>(&a, "--sites").unwrap_err();
        assert!(err.contains("--sites") && err.contains("-1"), "{err}");
    }

    #[test]
    fn every_command_rejects_a_malformed_numeric_flag() {
        type Cmd = fn(&[String]) -> Result<(), String>;
        let cases: [(Cmd, &[&str], &str); 9] = [
            (cmd_run, &["missing.xml", "[//a]"], "--fragments"),
            (cmd_explain, &["missing.xml", "[//a]"], "--sites"),
            (cmd_batch, &["missing.xml", "[//a]", "[//b]"], "--fragments"),
            (cmd_batch, &["missing.xml", "[//a]"], "--sites"),
            (cmd_serve, &["missing.xml"], "--ops"),
            (cmd_serve, &["missing.xml"], "--seed"),
            (cmd_serve, &["missing.xml"], "--batch"),
            (cmd_serve, &["missing.xml"], "--deadline-ms"),
            (cmd_generate, &["--bytes", "100"], "--seed"),
        ];
        for (cmd, base, name) in cases {
            let mut a = args(base);
            a.extend(args(&[name, "abc"]));
            let err = cmd(&a).expect_err(name);
            assert!(err.contains(name) && err.contains("abc"), "{name}: {err}");
        }
        let err = cmd_generate(&args(&["--bytes", "abc"])).unwrap_err();
        assert!(err.contains("--bytes"), "{err}");
    }

    #[test]
    fn batch_answers_in_one_engine_round() {
        let path =
            std::env::temp_dir().join(format!("parbox-cli-batch-{}.xml", std::process::id()));
        std::fs::write(&path, "<r><x><A/></x><y><B/></y><z><C/></z></r>").unwrap();
        let file = path.to_string_lossy().into_owned();
        let a = args(&[&file, "[//A and //B]", "[//A]", "[//A and not //C]"]);
        let run = cmd_batch(&[a, args(&["--fragments", "3", "--sites", "2"])].concat());
        std::fs::remove_file(&path).unwrap();
        run.unwrap();
    }
}
