//! Scenario DSL and golden corpus runner for the two-mode coherence
//! protocol.
//!
//! A *scenario* is a named, declarative experiment in a small text format
//! (`.tmcs`): machine shape, workload mix, per-block mode directives,
//! fault plan, explicit op script, and the golden observables CI asserts
//! (protocol fingerprint, counter totals, per-link charge checksums).
//! The committed corpus under `scenarios/` is swept deterministically by
//! the `tmc scenario check --all` CI job: the serial reference system runs
//! with its sequential-consistency oracle, and every fault-free scenario
//! is also captured and checked by JSONL trace replay (full obligation
//! suite).
//!
//! ```text
//! # tmc scenario
//! [scenario]
//! name = stencil-8
//!
//! [machine]
//! n_caches = 8
//! sets = 64
//! ways = 4
//! words_log2 = 2
//! scheme = combined
//! policy = fixed-gr
//! owner_bypass = true
//!
//! [workload]
//! family = stencil
//! seed = 1
//! tasks = 8
//! placement = adjacent:0
//! rows_per_task = 4
//! iterations = 4
//! ```
//!
//! The format is the single reproducer currency of the repo: the
//! conformance fuzzer emits shrunken divergences as scenario files, and
//! the corpus regression replays them through [`parse()`].
//!
//! # Differential conformance
//!
//! The same Stenström workload runs several ways — the serial
//! [`tmc_core::System`], JSONL trace replay (`tmc_bench::tracecheck`), the
//! fault-injected admission path, the checkpoint codec and the
//! closed-form cost model. The conformance modules *hunt* for
//! disagreement between them in the corners enumeration misses. A
//! conformance case is a [`Scenario`] like any other: the machine, a
//! zero-count `[faults]` plan carrying the faults pair's seed, an
//! optional `[analytic]` probe and the explicit `[ops]` script.
//! [`gen::generate_case`] derives one from a `u64` seed;
//! [`pairs::check_case`] runs it through every applicable engine pair and
//! diffs fingerprints, counters, per-link charges, memory images and JSONL
//! event streams; on divergence [`shrink::shrink`] reduces it to a minimal
//! reproducer, which [`corpus::save`] writes as a `.tmcs` file. `tmc fuzz`
//! ([`cli::fuzz`]) drives the loop, and every divergence found and fixed
//! lives on under `conformance/corpus/`, replayed by the corpus regression
//! test and CI on every push.
//!
//! # Crash recovery
//!
//! [`journal`] is the one journaled-run driver: periodic runner frames,
//! crash injection and bit-identical resume. `tmc scenario run
//! --checkpoint-every/--kill-at/--resume` and `tmc crashsim`
//! ([`crashsim`]), whose campaigns are scenarios too, run through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod corpus;
pub mod crashsim;
pub mod gen;
pub mod journal;
pub mod ops;
pub mod outcome;
pub mod pairs;
pub mod parse;
pub mod run;
pub mod shrink;
pub mod spec;

pub use journal::{resume_journaled, run_journaled, JournalOptions, JournalOutcome, JournalReport};
pub use outcome::{Divergence, RunOutcome};
pub use pairs::{check_case, check_pair, Pair};
pub use parse::{parse, ParseError};
pub use run::{
    check_scenario, expect_diffs, run_scenario, CheckReport, GoldenDiff, ScenarioOutcome,
};
pub use spec::{
    Analytic, Checkpoint, Expect, Family, Faults, Machine, ModeDirective, Scenario, Workload,
};
