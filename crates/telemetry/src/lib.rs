//! # parole-telemetry
//!
//! Zero-dependency structured tracing, counters and histograms for the
//! PAROLE reproduction pipeline.
//!
//! The crate exposes four recording primitives —
//!
//! - [`counter`]: monotonic `u64` counters ("how many Keccak permutations"),
//! - [`observe`]: log₂-bucketed `u64` histograms ("leaves flushed per root"),
//! - [`observe_f64`]: floating-point series ("base fee per block, in gwei"),
//! - [`span`]: hierarchical RAII-timed spans ("where did `seal_block` spend
//!   its time"),
//!
//! — plus [`snapshot`] to export everything as a [`MetricsSnapshot`]
//! (stable-sorted, JSON-renderable, flamegraph-style span-tree dump) and
//! [`reset`] to clear the registry between measurement windows. The span
//! tree additionally exports as Chrome-trace/Perfetto JSON
//! ([`chrome_trace_json`]) and collapsed-stack flamegraph input
//! ([`flamegraph_collapsed`]), and [`install_panic_hook`] arms a hook that
//! dumps the live snapshot when a test or bench binary panics.
//!
//! Every metric is **statically registered** in [`descriptors::METRICS`]
//! (name, kind, one-line doc); [`describe`] resolves a recorded name to its
//! descriptor. The table is plain `'static` data, available in no-op
//! builds too.
//!
//! ## Feature gating
//!
//! All of it is behind the `enabled` cargo feature. Without it every entry
//! point is an `#[inline(always)]` empty function: instrumented hot paths
//! (the Keccak permutation, `state_root()` flushes, the GENTRANSEQ loop)
//! compile exactly as if the calls were not there. Consuming crates forward
//! a `telemetry` feature here, mirroring the `audit` feature cascade.
//!
//! ## Determinism contract
//!
//! Counter and histogram recordings accumulate in thread-local buffers that
//! merge into the global registry with pure integer addition — an
//! associative, commutative operation — when a thread exits or snapshots.
//! Under the workspace's scoped worker pools (`par::parallel_map`) every
//! worker has merged by the time the pool joins, so **counter and histogram
//! totals are bit-identical at any thread count**. Span durations and float
//! series are wall-clock measurements and carry no such guarantee (counts
//! on spans are deterministic; nanoseconds are not).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod descriptors;
mod snapshot;
mod trace;

pub use descriptors::{describe, MetricDescriptor, MetricKind, METRICS};
pub use snapshot::{BucketCount, FloatStat, HistogramSnapshot, MetricsSnapshot, SpanNode};
pub use trace::{chrome_trace_json, flamegraph_collapsed, install_panic_hook};

#[cfg(feature = "enabled")]
mod registry;

#[cfg(feature = "enabled")]
pub use registry::{
    counter, local_counter, observe, observe_f64, reset, snapshot, span, SpanGuard,
};

#[cfg(not(feature = "enabled"))]
mod noop {
    use crate::snapshot::MetricsSnapshot;

    /// Adds `delta` to the named monotonic counter (no-op build).
    #[inline(always)]
    pub fn counter(_name: &'static str, _delta: u64) {}

    /// Records one observation into the named histogram (no-op build).
    #[inline(always)]
    pub fn observe(_name: &'static str, _value: u64) {}

    /// Records one observation into the named float series (no-op build).
    #[inline(always)]
    pub fn observe_f64(_name: &'static str, _value: f64) {}

    /// This thread's unflushed total for a counter (always 0 in a no-op
    /// build).
    #[inline(always)]
    pub fn local_counter(_name: &'static str) -> u64 {
        0
    }

    /// An inert span guard (no-op build): zero-sized, records nothing.
    pub struct SpanGuard {
        _private: (),
    }

    /// Opens a span (no-op build): returns an inert guard.
    #[inline(always)]
    pub fn span(_name: &'static str) -> SpanGuard {
        SpanGuard { _private: () }
    }

    /// Exports the registry (no-op build): always empty.
    #[inline(always)]
    pub fn snapshot() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Clears the registry (no-op build): nothing to clear.
    #[inline(always)]
    pub fn reset() {}
}

#[cfg(not(feature = "enabled"))]
pub use noop::{counter, local_counter, observe, observe_f64, reset, snapshot, span, SpanGuard};
