//! # pim-runtime — a simulator of the Processing-in-Memory model
//!
//! This crate implements the machine model of *"The Processing-in-Memory
//! Model"* (Kang, Gibbons, Blelloch, Dhulipala, Gu, McGuffey — SPAA 2021),
//! §2.1:
//!
//! * a **CPU side** of parallel cores with a small shared memory of `M`
//!   words (realised by driver code running on the [`pool`] executor plus
//!   the [`metrics::SharedMem`] tracker),
//! * a **PIM side** of `P` modules, each a core with `Θ(n/P)` words of
//!   local memory (the [`module::PimModule`] trait), and
//! * a **network** operating in bulk-synchronous rounds, with `TaskSend`
//!   offloading and per-round `h`-relation accounting (the
//!   [`system::PimSystem`] engine and [`metrics::Metrics`]).
//!
//! The complexity metrics of the model — CPU work, CPU depth, PIM time, IO
//! time, number of rounds, minimum shared-memory size — are all first-class
//! measurements here, so that algorithms built on top (the `pim-core` skip
//! list, the `pim-baseline` comparators) can be checked against the paper's
//! bounds *as the model defines them*, not via noisy hardware proxies.
//!
//! ## Quick tour
//!
//! ```
//! use pim_runtime::{PimModule, PimSystem, ModuleCtx};
//!
//! // A module whose local memory is a single counter.
//! struct Counter(u64);
//! enum Task { Add(u64), Report }
//!
//! impl PimModule for Counter {
//!     type Task = Task;
//!     type Reply = u64;
//!     fn execute(&mut self, t: Task, ctx: &mut ModuleCtx<'_, Task, u64>) {
//!         ctx.work(1); // one unit of local work
//!         match t {
//!             Task::Add(x) => self.0 += x,
//!             Task::Report => ctx.reply(self.0),
//!         }
//!     }
//! }
//!
//! let mut sys = PimSystem::new(4, |_| Counter(0));
//! sys.send(2, Task::Add(5));
//! sys.run_round();
//! sys.send(2, Task::Report);
//! assert_eq!(sys.run_round(), vec![5]);
//! // Model costs were tracked throughout:
//! assert_eq!(sys.metrics().rounds, 2);
//! ```

#![warn(missing_docs)]

pub mod balls;
pub mod buffers;
pub mod crc;
pub mod envcfg;
pub mod export;
pub mod fault;
pub mod handle;
pub mod hashfn;
pub mod histogram;
pub mod metrics;
pub mod module;
pub mod pool;
pub mod rng;
pub mod span;
pub mod system;
pub mod telemetry;
pub mod trace;

pub use buffers::{BufferPool, RouteBuffer};
pub use crc::{crc32, Crc32};
pub use envcfg::EnvSettings;
pub use export::{chrome_trace, rounds_jsonl, ExportBundle, Json};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultRecord};
pub use handle::{Arena, Handle, ModuleId};
pub use histogram::{HistBucket, Histogram, ModuleLanes};
pub use metrics::{Metrics, SharedMem};
pub use module::{ModuleCtx, PimModule};
pub use pool::ExecConfig;
pub use rng::Rng;
pub use span::{ProbeReport, Span, SpanId};
pub use system::{PimSystem, SpanGuard};
pub use telemetry::{CounterId, GaugeId, HistId, Telemetry, TelemetryEvent, TelemetrySnapshot};
pub use trace::{RoundTrace, Trace};

/// `ceil(log2 x)` clamped to at least 1 — the convention used for batch
/// sizes (`P log P`, `P log² P`) and the lower-part height throughout the
/// reproduction (all logarithms base 2, per the paper).
pub fn ceil_log2(x: u64) -> u32 {
    let x = x.max(2);
    x.ilog2() + u32::from(!x.is_power_of_two())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 1);
        assert_eq!(ceil_log2(1), 1);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }
}
