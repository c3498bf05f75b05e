//! Managed-heap model: the substrate on which MemOrder bugs exist.
//!
//! Safe Rust statically prevents the paper's bug class (use-before-
//! initialization and use-after-free on heap objects), so this crate models
//! the relevant part of a managed runtime explicitly: every shared object is
//! a *reference cell* with the C#-like state machine
//!
//! ```text
//!            Init                Dispose
//!   Null ───────────▶ Live ───────────────▶ Disposed
//!    ▲                  ▲                       │
//!    │                  └────────── Init ───────┘   (reassignment)
//!    │
//!  (initial state: the reference is NULL until initialized)
//! ```
//!
//! A *use* (member-field access or member-method call in the paper's
//! terminology) of a cell that is `Null` or `Disposed` raises a modelled
//! [`NullRefError`] — the NULL-reference exception Waffle watches for. The
//! simulator (`waffle-sim`) executes workload operations against a [`Heap`]
//! of these cells and surfaces the errors with timing/thread context.
//!
//! The crate also defines the *static program location* vocabulary
//! ([`SiteId`], [`SiteRegistry`]) shared by the instrumenter, trace
//! analyzer, and injection runtime.

pub mod error;
pub mod heap;
pub mod object;
pub mod site;

pub use error::{NullRefError, NullRefKind};
pub use heap::{AccessOutcome, Heap, HeapStats};
pub use object::{AccessKind, ObjectId, RefState};
pub use site::{SiteId, SiteInfo, SiteRegistry};
