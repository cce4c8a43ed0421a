//! The PIM-module abstraction: a core plus its local memory (§2.1).
//!
//! A [`PimModule`] owns `Θ(n/P)` words of local state and executes tasks
//! delivered through the network. "Each PIM core repeatedly invokes an
//! iterator that removes a task from its queue and then executes the task"
//! — [`PimModule::execute`] is the body of that iterator. During execution
//! a task may:
//!
//! * perform local work (charged explicitly through [`ModuleCtx::work`]),
//! * return a value to CPU shared memory ([`ModuleCtx::reply`]), and/or
//! * offload a continuation to another PIM module ([`ModuleCtx::send`]) —
//!   which the model routes *via the CPU side* ("this is done by A returning
//!   a value to the shared memory, which in turn causes the offload from the
//!   CPU side to B"), so it costs a message at both endpoints.

use crate::handle::ModuleId;

/// The lane a message travels on: the id of the CPU-side job that issued
/// it (see [`crate::PimSystem::set_lane`]). Lane 0 is the default.
pub type Lane = u32;

/// Per-task execution context handed to [`PimModule::execute`].
///
/// Collects the task's outputs (cross-module sends, replies to the CPU) and
/// its local-work charge. The runtime aggregates these per round to compute
/// the `h`-relation and PIM-time of the round. Every output inherits the
/// lane of the task that produced it.
pub struct ModuleCtx<'a, T, R> {
    me: ModuleId,
    round: u64,
    lane: Lane,
    sends: &'a mut Vec<(ModuleId, Lane, T)>,
    replies: &'a mut Vec<(Lane, R)>,
    work: &'a mut u64,
}

impl<'a, T, R> ModuleCtx<'a, T, R> {
    pub(crate) fn new(
        me: ModuleId,
        round: u64,
        lane: Lane,
        sends: &'a mut Vec<(ModuleId, Lane, T)>,
        replies: &'a mut Vec<(Lane, R)>,
        work: &'a mut u64,
    ) -> Self {
        ModuleCtx {
            me,
            round,
            lane,
            sends,
            replies,
            work,
        }
    }

    /// The executing module's id.
    #[inline]
    pub fn me(&self) -> ModuleId {
        self.me
    }

    /// The current bulk-synchronous round number (0-based).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Charge `units` of local work to this module for this round.
    #[inline]
    pub fn work(&mut self, units: u64) {
        *self.work += units;
    }

    /// Offload a task to module `to`, delivered next round.
    ///
    /// Sending to `self` is allowed (it models re-queueing across a barrier)
    /// and still costs messages: the route goes through the CPU side.
    #[inline]
    pub fn send(&mut self, to: ModuleId, task: T) {
        self.sends.push((to, self.lane, task));
    }

    /// Return a value to CPU shared memory (one message from this module).
    #[inline]
    pub fn reply(&mut self, r: R) {
        self.replies.push((self.lane, r));
    }
}

/// A PIM module: local state driven by tasks.
///
/// Implementations must be `Send` so the `P` modules can be driven in
/// parallel by the CPU-side scheduler; each individual module is only ever
/// executed by one thread at a time (one PIM core per module).
pub trait PimModule: Send {
    /// Task type routed to this module (the `TaskSend` payload: function id
    /// plus arguments, constant words each).
    type Task: Send;
    /// Values returned to CPU shared memory.
    type Reply: Send;

    /// Execute one task against local memory.
    fn execute(&mut self, task: Self::Task, ctx: &mut ModuleCtx<'_, Self::Task, Self::Reply>);

    /// Words of local memory currently occupied (for Theorem 3.1's space
    /// accounting). Default 0 for modules that do not track space.
    fn local_words(&self) -> u64 {
        0
    }

    /// Wipe local memory: the module restarts cold after an injected
    /// [`crate::fault::FaultKind::Crash`]. Implementations must reset
    /// every piece of local state to its just-constructed value; the
    /// default is a no-op for modules with no durable local state.
    fn on_crash(&mut self) {}
}
