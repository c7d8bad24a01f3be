//! Deterministic discrete-event simulation core for the Aggregate VM
//! reproduction.
//!
//! This crate provides the foundation every other crate in the workspace
//! builds on:
//!
//! * [`time::SimTime`] — virtual time in nanoseconds.
//! * [`engine::Engine`] — a deterministic event loop generic over the event
//!   type, driven by a user-supplied [`engine::World`].
//! * [`rng::DetRng`] — seed-derivable deterministic random numbers, so that
//!   every simulation run is exactly reproducible.
//! * [`pscpu::PsCpu`] — a processor-sharing CPU model used to simulate
//!   overcommitted vCPUs time-sharing a physical core.
//! * [`stats`] — counters, histograms and time series used by the experiment
//!   harness.
//! * [`units`] — bandwidth/size helpers (transfer-time arithmetic).
//! * [`trace`] — a typed, zero-cost-when-disabled structured event sink the
//!   upper crates emit into.
//! * [`audit`] — a trace-replay auditor checking cross-crate invariants
//!   (coherence, FIFO delivery, work conservation, crash recovery).
//! * [`fault`] — seeded, replayable fault plans (node crashes, link
//!   degradation, message drop/duplication) interpreted by the fabric and
//!   the hypervisor's failure detector.
//! * [`digest`] — a streaming FNV-1a hasher for byte-identity and
//!   serial-vs-parallel determinism checks.
//!
//! The design rule for the whole workspace is that protocol crates (DSM,
//! VirtIO, ...) are pure state machines returning *actions*, and only the
//! top-level hypervisor crates own an [`engine::Engine`] and translate
//! actions into scheduled events.

#![warn(missing_docs)]

pub mod audit;
pub mod digest;
pub mod engine;
pub mod fault;
pub mod ids;
pub mod nodeset;
pub mod pscpu;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod units;

pub use digest::Fnv1a;
pub use engine::{Ctx, Engine, EventQueue, World};
pub use fault::{CrashFault, Disruption, FaultInjector, FaultPlan, LinkFault};
pub use nodeset::NodeSet;
pub use rng::DetRng;
pub use time::SimTime;
pub use trace::{TraceEvent, Tracer};
pub use units::{Bandwidth, ByteSize};
