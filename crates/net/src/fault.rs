//! Deterministic fault injection and supervision policy for the
//! resident site workers.
//!
//! The paper's protocol — and the seed implementation — assume every
//! site answers every visit. A real deployment will not: actors panic,
//! wedge, and messages stall or vanish. This module provides the two
//! halves of the chaos-hardening story:
//!
//! * [`FaultPlan`] — a deterministic, seedable schedule of injected
//!   faults ([`FaultKind`]) threaded into the `SitePool` worker loop.
//!   The zero-fault default ([`FaultPlan::none`]) is provably inert:
//!   workers check a single precomputed flag and touch nothing else.
//!   Faults are decided per *request* from a splitmix hash of
//!   `(seed, site, per-site op counter)`; the counters live in the plan
//!   (not the worker) so a restarted actor does not deterministically
//!   re-fault on the same request and wedge forever.
//! * [`SupervisorConfig`] — the coordinator-side policy: a per-request
//!   deadline derived from the [`NetworkModel`], bounded retries with
//!   exponential backoff plus deterministic jitter, and a restart
//!   threshold for wedged actors.
//!
//! Injected panics carry an [`InjectedFault`] payload; the pool installs
//! a quiet panic hook (once, process-wide) that swallows exactly those
//! payloads so chaos runs do not spray backtraces, while every other
//! panic still reports normally.

use crate::model::NetworkModel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::Duration;

/// The kinds of failure the injector can produce at a site actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The actor thread panics while evaluating a request.
    Panic,
    /// The actor stops replying but stays alive, holding every request
    /// (and its reply channel) open so the coordinator must time out.
    Wedge,
    /// The reply is computed but delivered late — after the plan's
    /// configured delay, typically past the round deadline.
    DelayReply,
    /// The reply envelope is lost in flight: the work happens, the
    /// reply never arrives, and the coordinator waits out the deadline.
    DropEnvelope,
    /// The actor panics while applying a fragment load — the
    /// crash-during-apply case, detected at the next send.
    CrashApply,
}

impl FaultKind {
    /// Stable lowercase name, used by the CLI `--fault-plan` spec and
    /// the chaos experiment's JSON rows.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Wedge => "wedge",
            FaultKind::DelayReply => "delay",
            FaultKind::DropEnvelope => "drop",
            FaultKind::CrashApply => "crash",
        }
    }

    fn parse(s: &str) -> Option<FaultKind> {
        Some(match s {
            "panic" => FaultKind::Panic,
            "wedge" => FaultKind::Wedge,
            "delay" => FaultKind::DelayReply,
            "drop" => FaultKind::DropEnvelope,
            "crash" => FaultKind::CrashApply,
            _ => return None,
        })
    }

    fn index(self) -> usize {
        match self {
            FaultKind::Panic => 0,
            FaultKind::Wedge => 1,
            FaultKind::DelayReply => 2,
            FaultKind::DropEnvelope => 3,
            FaultKind::CrashApply => 4,
        }
    }

    fn applies(self, ctx: FaultContext) -> bool {
        match ctx {
            FaultContext::Eval => self != FaultKind::CrashApply,
            FaultContext::Apply => self == FaultKind::CrashApply,
        }
    }
}

/// Where in the worker loop a fault decision is being made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultContext {
    /// Deciding the fate of an evaluation request.
    Eval,
    /// Deciding the fate of a fragment load (apply path).
    Apply,
}

/// Per-kind injection probabilities, each in `[0, 1]`, evaluated
/// cumulatively per request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultRates {
    /// Probability an evaluation request panics the actor.
    pub panic: f64,
    /// Probability an evaluation request wedges the actor.
    pub wedge: f64,
    /// Probability a reply is delayed by the plan's delay.
    pub delay: f64,
    /// Probability a reply envelope is dropped.
    pub drop_envelope: f64,
    /// Probability a fragment load crashes the actor.
    pub crash_apply: f64,
}

impl FaultRates {
    /// Uniform rate for a single fault kind, all others zero.
    pub fn only(kind: FaultKind, rate: f64) -> FaultRates {
        let mut r = FaultRates::default();
        match kind {
            FaultKind::Panic => r.panic = rate,
            FaultKind::Wedge => r.wedge = rate,
            FaultKind::DelayReply => r.delay = rate,
            FaultKind::DropEnvelope => r.drop_envelope = rate,
            FaultKind::CrashApply => r.crash_apply = rate,
        }
        r
    }

    /// Every kind injected at `rate / 5` — the "mixed" chaos cell.
    pub fn mixed(rate: f64) -> FaultRates {
        let each = rate / 5.0;
        FaultRates {
            panic: each,
            wedge: each,
            delay: each,
            drop_envelope: each,
            crash_apply: each,
        }
    }

    fn is_zero(&self) -> bool {
        self.panic == 0.0
            && self.wedge == 0.0
            && self.delay == 0.0
            && self.drop_envelope == 0.0
            && self.crash_apply == 0.0
    }
}

struct PlanInner {
    seed: u64,
    rates: FaultRates,
    delay: Duration,
    scripted: Vec<(u32, u64, FaultKind)>,
    /// Statically inert: no rates, no script. Never changes.
    inert: bool,
    /// Dynamically armed; [`FaultPlan::disarm`] clears it so a chaos
    /// run can prove post-fault recovery with the hooks still in place.
    armed: AtomicBool,
    /// Per-site request counters. Shared across worker restarts so a
    /// fresh actor does not replay its predecessor's fault schedule.
    ops: Mutex<HashMap<u32, u64>>,
    injected: [AtomicU64; 5],
}

/// A deterministic, seedable fault schedule shared by every worker in a
/// `SitePool`. Cloning is cheap (an `Arc`); all clones observe the same
/// per-site op counters, injection tallies, and armed flag.
#[derive(Clone)]
pub struct FaultPlan(Arc<PlanInner>);

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.0.seed)
            .field("rates", &self.0.rates)
            .field("scripted", &self.0.scripted.len())
            .field("inert", &self.0.inert)
            .field("armed", &self.0.armed.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    fn build(
        seed: u64,
        rates: FaultRates,
        delay: Duration,
        scripted: Vec<(u32, u64, FaultKind)>,
    ) -> FaultPlan {
        let inert = rates.is_zero() && scripted.is_empty();
        FaultPlan(Arc::new(PlanInner {
            seed,
            rates,
            delay,
            scripted,
            inert,
            armed: AtomicBool::new(true),
            ops: Mutex::new(HashMap::new()),
            injected: Default::default(),
        }))
    }

    /// The inert zero-fault plan: every decision is `None` via a single
    /// precomputed flag, with no counter traffic at all.
    pub fn none() -> FaultPlan {
        FaultPlan::build(0, FaultRates::default(), Duration::ZERO, Vec::new())
    }

    /// A rate-driven plan: each request at each site draws a
    /// deterministic uniform variate from `(seed, site, op)` and
    /// compares it against the cumulative `rates`.
    pub fn random(seed: u64, rates: FaultRates, delay: Duration) -> FaultPlan {
        FaultPlan::build(seed, rates, delay, Vec::new())
    }

    /// A scripted plan: fault kind `k` fires exactly at the `op`-th
    /// request site `site` receives (counting from zero, shared across
    /// restarts). Used by the deterministic supervisor tests.
    pub fn scripted(faults: Vec<(u32, u64, FaultKind)>, delay: Duration) -> FaultPlan {
        FaultPlan::build(0, FaultRates::default(), delay, faults)
    }

    /// Parse a CLI spec like `"panic:0.01,wedge:0.02"` into a
    /// rate-driven plan. Kinds are the [`FaultKind::name`] strings, each
    /// at most once; panic, wedge, delay and drop share one draw per
    /// request, so their rates must sum to at most 1.
    pub fn parse(spec: &str, seed: u64, delay: Duration) -> Result<FaultPlan, String> {
        let mut rates = FaultRates::default();
        let mut seen = [false; 5];
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (kind, rate) = part
                .split_once(':')
                .ok_or_else(|| format!("bad fault spec `{part}`: expected kind:rate"))?;
            let k = FaultKind::parse(kind)
                .ok_or_else(|| format!("unknown fault kind `{kind}` in `{spec}`"))?;
            let r: f64 = rate
                .parse()
                .map_err(|_| format!("bad fault rate `{rate}` in `{spec}`"))?;
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("fault rate `{rate}` out of [0, 1]"));
            }
            if std::mem::replace(&mut seen[k.index()], true) {
                return Err(format!("fault kind `{kind}` given twice in `{spec}`"));
            }
            match k {
                FaultKind::Panic => rates.panic = r,
                FaultKind::Wedge => rates.wedge = r,
                FaultKind::DelayReply => rates.delay = r,
                FaultKind::DropEnvelope => rates.drop_envelope = r,
                FaultKind::CrashApply => rates.crash_apply = r,
            }
        }
        let eval_sum = rates.panic + rates.wedge + rates.delay + rates.drop_envelope;
        if eval_sum > 1.0 + 1e-9 {
            return Err(format!("fault rates in `{spec}` sum to {eval_sum} > 1"));
        }
        Ok(FaultPlan::random(seed, rates, delay))
    }

    /// True when the plan can never inject anything (the default).
    /// Workers use this as their fast path; an inert plan adds one
    /// branch per request to the zero-fault engine.
    pub fn is_inert(&self) -> bool {
        self.0.inert
    }

    /// Stop injecting from now on, leaving the hooks in place. The
    /// chaos experiment disarms after the fault phase and asserts the
    /// engine then recovers to all-complete, all-correct answers.
    pub fn disarm(&self) {
        self.0.armed.store(false, Ordering::Relaxed);
    }

    /// The delay applied by [`FaultKind::DelayReply`].
    pub fn reply_delay(&self) -> Duration {
        self.0.delay
    }

    /// How many faults of `kind` have actually been injected so far.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.0.injected[kind.index()].load(Ordering::Relaxed)
    }

    /// Total faults injected across all kinds.
    pub fn total_injected(&self) -> u64 {
        self.0
            .injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Decide the fate of one request at `site`. Advances the site's op
    /// counter (even when armed-off, so disarming does not shift the
    /// schedule of a later re-arm) unless the plan is statically inert.
    pub fn decide(&self, site: u32, ctx: FaultContext) -> Option<FaultKind> {
        if self.0.inert {
            return None;
        }
        let op = {
            let mut ops = self.0.ops.lock().expect("fault-plan counter lock");
            let c = ops.entry(site).or_insert(0);
            let v = *c;
            *c += 1;
            v
        };
        if !self.0.armed.load(Ordering::Relaxed) {
            return None;
        }
        for &(s, o, k) in &self.0.scripted {
            if s == site && o == op && k.applies(ctx) {
                self.0.injected[k.index()].fetch_add(1, Ordering::Relaxed);
                return Some(k);
            }
        }
        if self.0.rates.is_zero() {
            return None;
        }
        let u = unit_variate(self.0.seed, site, op);
        let r = &self.0.rates;
        let picked = match ctx {
            FaultContext::Eval => {
                let mut edge = r.panic;
                if u < edge {
                    Some(FaultKind::Panic)
                } else if u < {
                    edge += r.wedge;
                    edge
                } {
                    Some(FaultKind::Wedge)
                } else if u < {
                    edge += r.delay;
                    edge
                } {
                    Some(FaultKind::DelayReply)
                } else if u < {
                    edge += r.drop_envelope;
                    edge
                } {
                    Some(FaultKind::DropEnvelope)
                } else {
                    None
                }
            }
            FaultContext::Apply => (u < r.crash_apply).then_some(FaultKind::CrashApply),
        };
        if let Some(k) = picked {
            self.0.injected[k.index()].fetch_add(1, Ordering::Relaxed);
        }
        picked
    }
}

/// Deterministic uniform variate in `[0, 1)` from `(seed, site, op)`.
fn unit_variate(seed: u64, site: u32, op: u64) -> f64 {
    let mut z = seed
        ^ (site as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ op.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The payload of an injected panic. The quiet panic hook recognises
/// this type and suppresses the report; genuine panics pass through.
#[derive(Debug)]
pub struct InjectedFault {
    /// The site whose actor was killed.
    pub site: u32,
    /// What was injected.
    pub kind: FaultKind,
}

/// Install (once, process-wide) a panic hook that silences panics whose
/// payload is an [`InjectedFault`] and delegates everything else to the
/// previous hook. Idempotent; called by the pool when a non-inert plan
/// is attached.
pub fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Coordinator-side supervision policy for one evaluation round: how
/// long to wait for each site, how often to retry, and when a silent
/// actor is declared wedged and restarted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Per-request deadline, measured from the send. A site that has
    /// not replied by then is counted as a timeout and retried.
    pub deadline: Duration,
    /// Total attempts per site per round (first try included). A site
    /// still silent after the last attempt fails the round for its
    /// fragments and the answer degrades to `Partial`.
    pub max_attempts: u32,
    /// Consecutive timeouts after which the actor thread is presumed
    /// wedged, torn down, restarted, and re-seeded from the
    /// coordinator's authoritative fragment handles.
    pub restart_after_timeouts: u32,
    /// Base of the exponential backoff between attempts.
    pub backoff_base: Duration,
    /// Seed for the deterministic jitter added to each backoff.
    pub jitter_seed: u64,
}

impl SupervisorConfig {
    /// Derive a policy from the network model: the deadline covers a
    /// full request/reply exchange with generous margin (a floor keeps
    /// the zero-latency [`NetworkModel::infinite`] model from producing
    /// a zero deadline), and the backoff starts at a quarter deadline.
    pub fn from_model(model: &NetworkModel) -> SupervisorConfig {
        let deadline = Duration::from_secs_f64(0.5 + 16.0 * model.latency_s);
        SupervisorConfig {
            deadline,
            max_attempts: 4,
            restart_after_timeouts: 2,
            backoff_base: deadline / 4,
            jitter_seed: 0x000C_1A05,
        }
    }

    /// The pre-supervision contract: one attempt, a long deadline, and
    /// no tolerance — any failure is a hard error. Legacy
    /// `SitePool::eval_round` callers run under this.
    pub fn strict() -> SupervisorConfig {
        SupervisorConfig {
            deadline: Duration::from_secs(60),
            max_attempts: 1,
            restart_after_timeouts: u32::MAX,
            backoff_base: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// Backoff before retry `attempt` (1-based): exponential in the
    /// base plus deterministic jitter in `[0, base)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base = self.backoff_base.as_secs_f64();
        if base == 0.0 {
            return Duration::ZERO;
        }
        let exp = base * (1u64 << (attempt - 1).min(16)) as f64;
        let jitter = base * unit_variate(self.jitter_seed, 0, attempt as u64);
        Duration::from_secs_f64(exp + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert_and_decides_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_inert());
        for site in 0..4 {
            for _ in 0..100 {
                assert_eq!(plan.decide(site, FaultContext::Eval), None);
                assert_eq!(plan.decide(site, FaultContext::Apply), None);
            }
        }
        assert_eq!(plan.total_injected(), 0);
    }

    #[test]
    fn rate_plan_is_deterministic_and_roughly_calibrated() {
        let rates = FaultRates::only(FaultKind::Panic, 0.2);
        let a = FaultPlan::random(7, rates, Duration::ZERO);
        let b = FaultPlan::random(7, rates, Duration::ZERO);
        let draws: Vec<_> = (0..2000).map(|_| a.decide(3, FaultContext::Eval)).collect();
        let again: Vec<_> = (0..2000).map(|_| b.decide(3, FaultContext::Eval)).collect();
        assert_eq!(draws, again, "same seed, same schedule");
        let hits = draws.iter().filter(|d| d.is_some()).count();
        assert!(
            (200..600).contains(&hits),
            "0.2 rate over 2000 draws landed {hits} faults"
        );
        assert_eq!(a.injected(FaultKind::Panic) as usize, hits);
    }

    #[test]
    fn scripted_faults_fire_once_at_their_op_and_respect_context() {
        let plan = FaultPlan::scripted(
            vec![(1, 0, FaultKind::Panic), (1, 2, FaultKind::CrashApply)],
            Duration::ZERO,
        );
        assert!(!plan.is_inert());
        // site 0 sees nothing
        assert_eq!(plan.decide(0, FaultContext::Eval), None);
        // site 1, op 0: panic on eval
        assert_eq!(plan.decide(1, FaultContext::Eval), Some(FaultKind::Panic));
        // op 1: nothing
        assert_eq!(plan.decide(1, FaultContext::Eval), None);
        // op 2 as an *apply*: crash; the same op as eval would not fire.
        assert_eq!(
            plan.decide(1, FaultContext::Apply),
            Some(FaultKind::CrashApply)
        );
        assert_eq!(plan.total_injected(), 2);
    }

    #[test]
    fn disarm_stops_injection_without_shifting_counters() {
        let plan = FaultPlan::scripted(vec![(0, 5, FaultKind::Wedge)], Duration::ZERO);
        for _ in 0..3 {
            assert_eq!(plan.decide(0, FaultContext::Eval), None);
        }
        plan.disarm();
        // ops 3 and 4 burn while disarmed...
        assert_eq!(plan.decide(0, FaultContext::Eval), None);
        assert_eq!(plan.decide(0, FaultContext::Eval), None);
        // ...and op 5 passes quietly too: disarmed means inert.
        assert_eq!(plan.decide(0, FaultContext::Eval), None);
        assert_eq!(plan.total_injected(), 0);
    }

    #[test]
    fn parse_round_trips_kinds_and_rejects_junk() {
        let plan = FaultPlan::parse("panic:0.1,wedge:0.05", 1, Duration::from_millis(5)).unwrap();
        assert!(!plan.is_inert());
        assert_eq!(plan.reply_delay(), Duration::from_millis(5));
        assert!(FaultPlan::parse("explode:0.1", 1, Duration::ZERO).is_err());
        assert!(FaultPlan::parse("panic:2.0", 1, Duration::ZERO).is_err());
        assert!(FaultPlan::parse("panic", 1, Duration::ZERO).is_err());
        // The eval kinds share one cumulative draw, so 0.7 + 0.7 cannot
        // be honoured; crash draws in its own context.
        let parse = |spec| FaultPlan::parse(spec, 1, Duration::ZERO);
        assert!(parse("panic:0.7,wedge:0.7").unwrap_err().contains("1.4"));
        assert!(parse("panic:0.1,delay:0.2,drop:0.7").is_ok());
        assert!(parse("panic:0.9,crash:0.9").is_ok());
        assert!(parse("panic:0.1,panic:0.9").unwrap_err().contains("twice"));
    }

    #[test]
    fn backoff_grows_and_is_deterministic() {
        let cfg = SupervisorConfig {
            deadline: Duration::from_millis(40),
            max_attempts: 4,
            restart_after_timeouts: 2,
            backoff_base: Duration::from_millis(4),
            jitter_seed: 9,
        };
        let b1 = cfg.backoff(1);
        let b2 = cfg.backoff(2);
        let b3 = cfg.backoff(3);
        assert!(b1 >= Duration::from_millis(4));
        assert!(b2 > b1 && b3 > b2, "exponential growth");
        assert_eq!(cfg.backoff(2), b2, "jitter is deterministic");
        assert_eq!(SupervisorConfig::strict().backoff(3), Duration::ZERO);
    }

    #[test]
    fn from_model_floors_the_zero_latency_model() {
        let inf = SupervisorConfig::from_model(&NetworkModel::infinite());
        assert!(inf.deadline >= Duration::from_millis(100));
        let wan = SupervisorConfig::from_model(&NetworkModel::wan());
        assert!(wan.deadline > inf.deadline, "latency term contributes");
    }
}
