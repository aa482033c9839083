//! `scenario`: the DSL's entry points over the canonical corpus —
//! parse, canonical print, compile — and the fuzzer's two generators.

use super::{kernel_ns, Table, KERNEL_BATCHES};
use crate::workloads::fuzz_campaign::seed_corpus;
use scenario::{Scenario, ScenarioStrategy};
use simcore::rng::Xoshiro256;
use std::hint::black_box;
use testkit::prop::Strategy;

/// Passes over the five-scenario corpus per batch.
const PASSES: u64 = 40;

fn sources() -> Vec<&'static str> {
    starvation::CANONICAL
        .iter()
        .map(|name| starvation::canon::canonical_source(name).expect("canonical names resolve"))
        .collect()
}

fn over_corpus<T>(corpus: &[T], mut call: impl FnMut(&T)) -> u64 {
    for _ in 0..PASSES {
        for item in corpus {
            call(item);
        }
    }
    PASSES * corpus.len() as u64
}

/// Fill `scenario.*` (microseconds per call).
pub fn measure(t: &mut Table) {
    let k = KERNEL_BATCHES;
    let srcs = sources();
    let asts: Vec<Scenario> = seed_corpus();
    let strategy = ScenarioStrategy::default();

    let parse = kernel_ns(k, || (), |()| over_corpus(&srcs, |s| drop(black_box(scenario::parse(s)))));
    let print = kernel_ns(k, || (), |()| over_corpus(&asts, |a| drop(black_box(a.to_string()))));
    let compile = kernel_ns(k, || (), |()| over_corpus(&asts, |a| drop(black_box(scenario::compile(a)))));
    let generate = kernel_ns(
        k,
        || Xoshiro256::new(11),
        |mut rng| {
            for _ in 0..200 {
                black_box(strategy.generate(&mut rng));
            }
            200
        },
    );
    let mutate = kernel_ns(
        k,
        || Xoshiro256::new(13),
        |mut rng| {
            for i in 0..200usize {
                black_box(scenario::mutate(&mut rng, &strategy, asts[i % asts.len()].clone()));
            }
            200
        },
    );
    for (step, ns) in [("parse", parse), ("print", print), ("compile", compile), ("generate", generate), ("mutate", mutate)] {
        t.insert(format!("scenario.{step}.us"), ns / 1e3);
    }
}
