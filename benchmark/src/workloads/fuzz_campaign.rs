//! `fuzz-campaign`: one `scenario::fuzz` campaign of fixed seed and count
//! at jobs 1, repeated into a fresh output directory each time.
//!
//! The only workload where `.scn` generate/mutate/compile and the
//! `Auditor` sink do real work per operation — thousands of tiny audited
//! runs. It bypasses `store` and `par` (jobs 1 runs on the calling
//! thread).
//!
//! `--seed` does not reach this workload. A campaign's cost is set by
//! how many of its scenarios happen to be thousand-flow populations:
//! over campaign seeds 1–10 scenarios/s ranged 215–284 and peak RSS
//! 36–131 MiB, which would bury any change to the code. The campaign
//! seed is therefore part of the workload's definition, like an
//! experiment's seeds in `figures-quick`.

use super::{Scale, Tally, Workload};
use crate::host::Scratch;
use crate::span::SpanLog;
use netsim::Network;
use scenario::{FuzzOptions, Scenario, ScenarioStrategy};
use simcore::rng::Xoshiro256;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use testkit::prop::Strategy;

/// Scenarios per campaign: 16 planning batches of 32, long enough for
/// coverage feedback to steer planning and short enough to repeat.
const CAMPAIGN_COUNT: usize = 512;

/// The campaign's seed (`repro fuzz`'s default).
const CAMPAIGN_SEED: u64 = 1;

/// Scenarios in the set-up's warm-up campaign.
const WARMUP_COUNT: usize = 64;

/// The canonical corpus in file-name order, as `repro fuzz` loads it from
/// `tests/scenarios/`.
pub fn seed_corpus() -> Vec<Scenario> {
    let mut names: Vec<&str> = starvation::CANONICAL.to_vec();
    names.sort_unstable();
    names
        .into_iter()
        .map(|name| {
            let src = starvation::canon::canonical_source(name).expect("canonical names resolve");
            scenario::parse(src).unwrap_or_else(|e| panic!("{name}.scn: {e}"))
        })
        .collect()
}

/// A prepared campaign.
pub struct FuzzCampaign<'s> {
    count: usize,
    corpus: Vec<Scenario>,
    scratch: &'s Scratch,
    last_out: Option<PathBuf>,
    /// Coverage features the first full campaign found; every repeat of
    /// the same seed must find the same number.
    expect_features: Option<usize>,
    setup: Tally,
}

impl<'s> FuzzCampaign<'s> {
    /// Load the corpus and warm up on a two-batch campaign.
    pub fn prepare(scale: Scale, scratch: &'s Scratch) -> FuzzCampaign<'s> {
        let count = if scale == Scale::Smoke { 32 } else { CAMPAIGN_COUNT };
        let mut w = FuzzCampaign {
            count,
            corpus: seed_corpus(),
            scratch,
            last_out: None,
            expect_features: None,
            setup: Tally::default(),
        };
        let (t, _) = w.campaign(WARMUP_COUNT.min(count));
        w.setup = Tally { work: 0, ..t };
        w.settle();
        w
    }

    fn campaign(&mut self, count: usize) -> (Tally, usize) {
        let out = self.scratch.fresh("fuzz");
        self.last_out = Some(out.clone());
        let mut opts = FuzzOptions::new(CAMPAIGN_SEED, out);
        opts.count = count;
        opts.jobs = 1;
        opts.corpus = self.corpus.clone();
        let mut t = Tally::default();
        match scenario::fuzz(&opts) {
            Ok(report) => {
                t.work = report.executed as u64;
                t.check(report.executed == count);
                // A finding is a failed operation: the auditor rejected a
                // run the simulator produced.
                t.attempted += report.executed as u64;
                t.failed += report.violations as u64;
                (t, report.features)
            }
            Err(e) => {
                eprintln!("spine: fuzz campaign failed: {e}");
                t.check(false);
                (t, 0)
            }
        }
    }
}

impl Workload for FuzzCampaign<'_> {
    fn setup_tally(&self) -> Tally {
        self.setup
    }

    fn unit(&mut self) -> Tally {
        let (mut t, features) = self.campaign(self.count);
        t.check(*self.expect_features.get_or_insert(features) == features);
        t
    }

    /// The campaign's per-scenario pipeline driven from the harness:
    /// generate (mutate a corpus entry or draw fresh) → print → parse →
    /// compile → audited run. Planning inside `scenario::fuzz` is private
    /// and also consults coverage; the re-drive keeps the mutate/draw
    /// mix and adds the print → parse round trip a reproducer goes
    /// through, so every `scenario` entry point has a span.
    fn traced_unit(&mut self, log: &mut SpanLog) -> Tally {
        let strategy = ScenarioStrategy::default();
        let mut rng = Xoshiro256::new(CAMPAIGN_SEED);
        let mut t = Tally::default();
        for i in 0..self.count {
            log.begin_op(i as u64 + 1);
            let op = log.open_span("fuzz.scenario");
            let ast = log.timed("scenario.generate", || {
                if rng.bernoulli(0.6) {
                    let pick = rng.range_u64(self.corpus.len() as u64) as usize;
                    scenario::mutate(&mut rng, &strategy, self.corpus[pick].clone())
                } else {
                    strategy.generate(&mut rng)
                }
            });
            let text = log.timed("scenario.print", || ast.to_string());
            let parsed = log.timed("scenario.parse", || scenario::parse(&text));
            let Ok(parsed) = parsed else {
                log.close_span(op);
                t.check(false);
                continue;
            };
            let cfg = log.timed("scenario.compile", || scenario::compile(&parsed).with_audit(true));
            let clean = log.timed("netsim.run.audited", || {
                catch_unwind(AssertUnwindSafe(|| Network::new(cfg).run())).is_ok()
            });
            log.close_span(op);
            t.work += 1;
            t.check(parsed == ast && clean);
        }
        t
    }

    fn settle(&mut self) -> Tally {
        if let Some(out) = self.last_out.take() {
            let _ = std::fs::remove_dir_all(out);
        }
        Tally::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_the_five_canonical_scenarios_in_file_order() {
        let names: Vec<String> = seed_corpus().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["bbr-two-flow", "copa-jitter", "reno-ideal", "vivace-lossy", "workload-1k"]);
    }

    #[test]
    fn a_smoke_campaign_repeats_and_cleans_up() {
        let scratch = Scratch::create().expect("scratch");
        let mut w = FuzzCampaign::prepare(Scale::Smoke, &scratch);
        assert_eq!(w.setup_tally().failed, 0);
        let mut t = w.unit();
        t.absorb(w.settle());
        let mut log = SpanLog::default();
        t.absorb(w.traced_unit(&mut log));
        assert_eq!((t.work, t.failed), (64, 0));
        assert_eq!(std::fs::read_dir(scratch.root()).expect("scratch").count(), 0);
    }
}
