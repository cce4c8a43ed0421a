//! The one supported import surface of `pim-core`.
//!
//! ```
//! use pim_core::prelude::*;
//!
//! let mut list = PimSkipList::new(Config::new(4, 1 << 10, 42));
//! let replies = list.execute(&[Op::Upsert { key: 7, value: 70 }, Op::Get { key: 7 }]);
//! assert_eq!(replies[1], Reply::Value(Some(70)));
//! ```
//!
//! Everything an application needs rides here: the construction
//! [`Config`], the typed mixed-stream contract ([`Op`] / [`OpKind`] /
//! [`Reply`] consumed by [`PimSkipList::execute`] and
//! [`PimSkipList::try_execute`]), durability
//! ([`DurabilityPolicy`] / [`FsyncPolicy`] and the
//! [`PimSkipList::enable_durability`] /
//! [`PimSkipList::recover_from_dir`] pair), and the telemetry handles
//! ([`Telemetry`], [`TelemetrySnapshot`]).
//!
//! The per-op `batch_*` methods remain available on [`PimSkipList`] for
//! paper-bound experiments (Table 1 measures each family in isolation).
//! Their fault-tolerant form is [`PimSkipList::try_execute`] over a
//! homogeneous `&[Op]`; the one typed-error entry point outside it is
//! [`PimSkipList::try_bulk_load`], because a bulk load is not an `Op`.

pub use crate::config::{Config, Key, Value, NEG_INF, POS_INF};
pub use crate::durable::{DurabilityPolicy, DurableStats, FsyncPolicy, RecoveryReport};
pub use crate::error::{PimError, PimResult};
pub use crate::list::PimSkipList;
pub use crate::op::{Op, OpKind, Reply};
pub use crate::range::RangeResult;
pub use crate::tasks::RangeFunc;
pub use crate::UpsertOutcome;
pub use pim_runtime::{Telemetry, TelemetrySnapshot};
