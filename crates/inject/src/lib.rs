//! Delay-injection policies: Waffle, WaffleBasic and TSVD, ablations, baselines.
//!
//! Each policy is a [`Monitor`](waffle_sim::Monitor): it observes every
//! instrumented access and decides, per dynamic instance, whether to pause
//! the thread (inject a delay) before the access executes. The crate
//! implements the complete design-space matrix of the paper's Table 1:
//!
//! | Policy | Identification | Delay length | Coordination |
//! |---|---|---|---|
//! | [`WafflePolicy`] | preparation run (plan) | per-location `α·gap` | decay + interference skip |
//! | [`WafflePolicy`] over a TSV plan (WaffleTSV, §8) | preparation run, TSV sites | per-location measured gap | decay |
//! | [`OnlinePolicy`] with [`Pairing::MemOrder`] (WaffleBasic) | online (same run) | fixed 100 ms | decay, parallel delays |
//! | [`OnlinePolicy`] with [`Pairing::Tsv`] (TSVD) | online, TSV sites | fixed 100 ms | decay, parallel delays |
//! | [`OnlinePolicy::no_prep`] (Table 7 row 2) | online + runtime vclock pruning | `α·observed gap` | decay, parallel delays |
//! | [`SingleDelayPolicy`] | sampled location | fixed | one delay per run (RaceFuzzer/CTrigger-style) |
//! | [`RandomSleepPolicy`] | none | fixed | coin flip per access |
//!
//! Probability-decay state ([`DecayState`]) persists across runs, as the
//! real tool saves it to disk after each detection run (§5).

pub mod baselines;
pub mod decay;
pub mod online;
pub(crate) mod recent;
pub mod waffle;

pub use baselines::{RandomSleepPolicy, SingleDelayPolicy};
pub use decay::DecayState;
pub use online::{OnlinePolicy, OnlineState, Pairing};
pub use waffle::{WaffleConfig, WafflePolicy};
