//! Parallel per-site execution.
//!
//! ParBoX's stage 2 runs the same partial evaluation on every site *in
//! parallel* — here each site is a scoped worker thread that really
//! performs its fragment evaluations concurrently, and reports how long
//! its local work took: the measured per-site compute. The elapsed-time
//! model prices the sites' work units instead.

use parbox_frag::SiteId;
use std::time::{Duration, Instant};

/// Result of one site's work.
#[derive(Debug)]
pub struct SiteRun<R> {
    /// The site.
    pub site: SiteId,
    /// The value the site computed.
    pub output: R,
    /// Measured wall-clock duration of the site's local work.
    pub elapsed: Duration,
}

/// Runs `work` for every site concurrently (one thread per site) and
/// collects outputs with per-site timings, in the input order of `sites`.
///
/// Panics in a worker propagate to the caller with their original
/// payload (via [`std::panic::resume_unwind`]), so an injected-fault
/// payload or assertion message survives the thread boundary intact
/// instead of being wrapped in a generic "site worker panicked" expect.
pub fn run_sites_parallel<R, F>(sites: &[SiteId], work: F) -> Vec<SiteRun<R>>
where
    R: Send,
    F: Fn(SiteId) -> R + Sync,
{
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = sites
            .iter()
            .map(|&site| {
                scope.spawn(move || {
                    let start = Instant::now();
                    let output = work(site);
                    SiteRun {
                        site,
                        output,
                        elapsed: start.elapsed(),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(run) => run,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_runs_all_sites_and_preserves_order() {
        let sites: Vec<SiteId> = (0..8).map(SiteId).collect();
        let counter = AtomicUsize::new(0);
        let runs = run_sites_parallel(&sites, |s| {
            counter.fetch_add(1, Ordering::SeqCst);
            s.0 * 2
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.site, SiteId(i as u32));
            assert_eq!(r.output, i as u32 * 2);
        }
    }

    #[test]
    fn parallel_actually_overlaps() {
        // 4 sites sleeping 30 ms each: parallel wall time must be well
        // under the 120 ms a sequential run would need.
        let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
        let start = Instant::now();
        let runs = run_sites_parallel(&sites, |_| {
            std::thread::sleep(Duration::from_millis(30));
        });
        let wall = start.elapsed();
        assert!(wall < Duration::from_millis(100), "no overlap: {wall:?}");
        for r in &runs {
            assert!(r.elapsed >= Duration::from_millis(25));
        }
    }

    #[test]
    fn empty_site_list_is_fine() {
        let runs = run_sites_parallel::<(), _>(&[], |_| ());
        assert!(runs.is_empty());
    }
}
