//! Co-scheduled jobs: several batch runs sharing the machine's rounds.
//!
//! Every batch family is written once, as an `async fn` over a [`Lane`],
//! and every run of an `execute` call is one job; only an invalid run or
//! contention tracking cuts a stream into several spans. A batch suspends
//! at its *waves* ([`Lane::wave`]): it issues its tasks, awaits the moment
//! its lane has nothing in flight, and absorbs the replies. Between two
//! awaits it borrows the structure ([`Lane::with`]) and charges exactly
//! what it charges alone. Coins wait for every earlier job's last draw
//! ([`Lane::draws_settled`]); only a mutating Range runs alone
//! ([`Lane::alone`]): every earlier job of the span finished without
//! error, and the phase runs on lane 0. A Delete's links wait only for the
//! earlier jobs whose answer they change ([`Lane::after`]) and go out as a
//! wave of its own; then it lets the later jobs start ([`Lane::release`])
//! and its frees wait for every earlier job ([`Lane::settled`]). An insert
//! whose towers stay below `h_low` lets the later jobs start at its last
//! draw, except those that touch its key gap ([`Lane::release_outside`]);
//! its allocation, wiring and link wait for every earlier job and go out
//! as waves on its own lane.
//!
//! [`drive`] is the executor: a std-only loop that polls the jobs in run
//! order with a no-op waker and runs one machine round whenever every live
//! job waits on its wave. All live jobs advance in the same rounds, but not
//! in lockstep: a job issues its next wave as soon as its last one ended,
//! and a job starts as soon as every earlier job it conflicts with has
//! finished and every earlier barrier has finished or released it. A lone
//! job is exactly the sequential batch: its waves end at quiescence, as
//! `run_to_quiescence` did. A retry drives the same job table again: the
//! jobs an earlier drive finished keep their outputs and count as settled
//! and drawn, and the others start afresh, co-scheduled as before.
//!
//! The scheduler's bookkeeping (conflict tests, job states) is unmetered,
//! like the service tier's planning.

use std::cell::{Cell, RefCell, RefMut};
use std::future::Future;
use std::ops::Range;
use std::pin::{pin, Pin};
use std::task::{Context, Poll, Waker};

use pim_runtime::module::Lane as LaneId;

use crate::config::{Key, NEG_INF, POS_INF};
use crate::list::PimSkipList;
use crate::tasks::Reply;

/// An inclusive key interval; empty when its start exceeds its end.
pub(crate) type Gap = (Key, Key);

/// The empty interval: what a job that released unconditionally holds.
const NOWHERE: Gap = (POS_INF, NEG_INF);

/// The structure shared by the jobs of one span, borrowed only between
/// awaits.
pub(crate) struct Shared<'s> {
    list: RefCell<&'s mut PimSkipList>,
    /// How many of the span's leading jobs finished without error.
    settled: Cell<usize>,
    /// How many of the span's leading jobs are drawn (see [`Lane::drawn`]).
    drawn: Cell<usize>,
    /// The job being polled called [`Lane::drawn`].
    drew: Cell<bool>,
    /// One past the last job started in this drive.
    started: Cell<usize>,
    /// The job that was alone when the last pass ended (see
    /// [`Lane::is_alone`]).
    alone: Cell<Option<usize>>,
    /// The job being polled released the later jobs outside this gap
    /// ([`Lane::release_outside`]).
    released: Cell<Option<Gap>>,
    /// Each job's run until it finishes (see [`Lane::after`]); a buffer
    /// leased from the structure's scratch for the length of a drive.
    open: RefCell<Vec<Option<Range<usize>>>>,
    /// A phase run by [`Lane::alone`] lost messages or crashed a module.
    /// Its own checks may miss it (a module that crashes idle drops
    /// nothing), so the span's caller must restore the whole machine.
    pub(crate) lone_damage: Cell<bool>,
}

impl<'s> Shared<'s> {
    pub(crate) fn new(list: &'s mut PimSkipList) -> Self {
        Shared {
            list: RefCell::new(list),
            settled: Cell::new(0),
            drawn: Cell::new(0),
            drew: Cell::new(false),
            started: Cell::new(0),
            alone: Cell::new(None),
            released: Cell::new(None),
            open: RefCell::new(Vec::new()),
            lone_damage: Cell::new(false),
        }
    }

    /// Borrow the structure (never across an await).
    pub(crate) fn borrow_mut(&self) -> RefMut<'_, &'s mut PimSkipList> {
        self.list.borrow_mut()
    }
}

/// A job's handle on the shared structure and on its message lane.
#[derive(Clone, Copy)]
pub(crate) struct Lane<'s> {
    list: &'s Shared<'s>,
    id: LaneId,
}

impl<'s> Lane<'s> {
    /// The handle of job `id` (its lane is its index in the span).
    pub(crate) fn new(list: &'s Shared<'s>, id: usize) -> Self {
        Lane {
            list,
            id: id as LaneId,
        }
    }

    /// Borrow the structure until `f` returns (never across an await).
    pub(crate) fn with<T>(&self, f: impl FnOnce(&mut PimSkipList) -> T) -> T {
        f(&mut self.list.borrow_mut())
    }

    /// Record that this job will draw no further random number. A job that
    /// never says so counts as drawn once it finishes.
    pub(crate) fn drawn(self) {
        self.list.drew.set(true);
    }

    /// Wait until every earlier job of the span is drawn: a draw made then,
    /// before any later job starts, is where one run at a time makes it.
    pub(crate) async fn draws_settled(self) {
        reached(&self.list.drawn, self.id).await;
    }

    /// Wait until every earlier job of the span has finished without error.
    pub(crate) async fn settled(self) {
        reached(&self.list.settled, self.id).await;
    }

    /// Has every earlier job of the span finished without error?
    pub(crate) fn is_settled(self) -> bool {
        self.list.settled.get() >= self.id as usize
    }

    /// Wait until every earlier job whose run `blocks` has finished. Each
    /// earlier job is tested in order until it has finished or does not
    /// block, so a job that finished or did not block is never tested
    /// again.
    pub(crate) async fn after(self, blocks: impl Fn(Range<usize>) -> bool) {
        let mut at = 0;
        std::future::poll_fn(|_| {
            let open = self.list.open.borrow();
            at = at.max(self.list.settled.get());
            while at < self.id as usize {
                match &open[at] {
                    Some(run) if blocks(run.clone()) => return Poll::Pending,
                    _ => at += 1,
                }
            }
            Poll::Ready(())
        })
        .await;
    }

    /// Let the later jobs start: this barrier job has made its last draw
    /// and done everything they must not overtake, but has not finished. A
    /// later job that waits for it to finish ([`Lane::settled`],
    /// [`Lane::alone`]) still does.
    pub(crate) fn release(self) {
        self.release_outside(NOWHERE);
    }

    /// Let the later jobs start, except those whose run touches `gap`: while
    /// this barrier job is unfinished, [`drive`]'s conflict test holds them
    /// back with it. The job has made its last draw (it is [`Lane::drawn`]),
    /// and what it still reads or writes lies in `gap`. A later job that
    /// waits for it to finish ([`Lane::settled`], [`Lane::alone`]) still
    /// does.
    pub(crate) fn release_outside(self, gap: Gap) {
        self.drawn();
        self.list.released.set(Some(gap));
    }

    /// Wait until every earlier job of the span has finished without error,
    /// then run `f` on lane 0 — a mutating Range. Coins wait only for every
    /// earlier job's last draw ([`Lane::draws_settled`]), and an insert's
    /// allocation, wiring and link only for [`Lane::settled`]. No later job
    /// has started (it waits for this one), so `f` runs alone and may drive
    /// rounds itself. Damage in those rounds stops the span once this job's
    /// poll returns (see [`drive`]). Its phases are recorded under `name`,
    /// the job family's (see [`Lane::recorded`]).
    pub(crate) async fn alone<T>(
        self,
        name: &'static str,
        f: impl FnOnce(&mut PimSkipList) -> T,
    ) -> T {
        self.settled().await;
        let _recorded = Recorded::enter(self, name);
        self.with(|s| {
            let before = s.sys.metrics();
            s.sys.set_lane(0);
            let out = f(s);
            s.sys.set_lane(self.id);
            if s.damage_since(&before) {
                self.list.lone_damage.set(true);
            }
            out
        })
    }

    /// Run `fut` with its phase spans recorded: inside a multi-job span,
    /// whose phase spans are muted, in the probe span `name`, the job
    /// family's. Only for a phase whose rounds no other job shares: every
    /// earlier job has finished, and no later one has started or starts
    /// before it ends — a barrier that has not released, or a job
    /// [`Lane::is_alone`].
    pub(crate) async fn recorded<T>(self, name: &'static str, fut: impl Future<Output = T>) -> T {
        let _recorded = Recorded::enter(self, name);
        fut.await
    }

    /// Is this job alone until it finishes? When the last pass of [`drive`]
    /// ended, it was the first unfinished job, it was no barrier that might
    /// still release the later jobs, and no later job had started: that
    /// pass visited every later job with every earlier one finished, so the
    /// later jobs that did not start wait for this one (or for a later job
    /// that waits for it).
    pub(crate) fn is_alone(self) -> bool {
        self.list.alone.get() == Some(self.id as usize)
    }

    /// Wait until everything this job sent has executed, then take its
    /// replies. A job that sent nothing gets none, without a round.
    pub(crate) fn wave(self) -> Wave<'s> {
        Wave { lane: self }
    }

    /// Run `fut` inside the probe span `name` (see
    /// [`PimSkipList::spanned`]).
    pub(crate) async fn spanned<T>(self, name: &'static str, fut: impl Future<Output = T>) -> T {
        self.with(|s| s.sys.span_enter(name));
        let out = fut.await;
        self.with(|s| s.sys.span_exit());
        out
    }
}

/// Unmutes a muted span's phase spans inside the probe span it opened, and
/// closes that span and mutes them again when dropped, also when a stopped
/// span drops its job unfinished (see [`Lane::recorded`]).
struct Recorded<'s> {
    /// The lane that unmuted, if the spans were muted.
    lane: Option<Lane<'s>>,
}

impl<'s> Recorded<'s> {
    fn enter(lane: Lane<'s>, name: &'static str) -> Self {
        let muted = lane.with(|s| {
            let muted = s.sys.spans_muted();
            if muted {
                s.sys.set_spans_muted(false);
                s.sys.span_enter(name);
            }
            muted
        });
        Recorded {
            lane: muted.then_some(lane),
        }
    }
}

impl Drop for Recorded<'_> {
    fn drop(&mut self) {
        if let Some(lane) = self.lane {
            lane.with(|s| {
                s.sys.span_exit();
                s.sys.set_spans_muted(true);
            });
        }
    }
}

/// Wait until `cursor`, a count of leading jobs, covers every job before `id`.
async fn reached(cursor: &Cell<usize>, id: LaneId) {
    std::future::poll_fn(|_| {
        if cursor.get() >= id as usize {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    })
    .await;
}

/// The future of one wave (see [`Lane::wave`]).
pub(crate) struct Wave<'s> {
    lane: Lane<'s>,
}

impl Future for Wave<'_> {
    type Output = Vec<Reply>;

    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<Vec<Reply>> {
        let mut list = self.lane.list.borrow_mut();
        if list.sys.pending(self.lane.id) > 0 {
            Poll::Pending
        } else {
            Poll::Ready(list.sys.take_replies(self.lane.id))
        }
    }
}

/// Where a job stands.
pub(crate) enum State<O> {
    /// Not started: an earlier conflicting job is still running (or the
    /// span stopped before it started).
    Waiting,
    /// Started and unfinished; after [`drive`] returns, dropped unfinished
    /// when the span stopped.
    Started,
    /// Finished with this output.
    Done(O),
}

/// One job of a span.
pub(crate) struct Job<O> {
    /// The caller's payload range (the job's run within the span).
    pub run: Range<usize>,
    /// No later job starts before this one has finished or released them
    /// ([`Lane::release_outside`]).
    barrier: bool,
    /// The gap this job released the later jobs outside of.
    released: Option<Gap>,
    /// This job will draw no further random number.
    drawn: bool,
    /// Every earlier job below this one is done or does not conflict.
    scan: usize,
    pub state: State<O>,
}

impl<O> Job<O> {
    pub(crate) fn new(run: Range<usize>, barrier: bool) -> Self {
        Job {
            run,
            barrier,
            released: None,
            drawn: false,
            scan: 0,
            state: State::Waiting,
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.state, State::Done(_))
    }
}

/// Tells a failed job output from a good one (see [`drive`]).
pub(crate) type Failed<'a, O> = &'a dyn Fn(&O) -> bool;

/// Run `jobs` to completion, sharing rounds; returns whether every job
/// finished. Jobs done without a `failed` output (a retry re-drives a table
/// an earlier drive stopped) count as settled and drawn; the others start
/// afresh. Job `j` starts (`make` builds its future on lane `j`) once every
/// earlier barrier is done or released and no earlier unfinished job's run
/// `conflict`s with its own: `conflict(earlier, gap, later)`, where `gap`
/// is what `earlier` released the later jobs outside of (empty for a job
/// that never released, or released them all). A pass over the jobs begins
/// at the settled prefix and ends at the first unfinished barrier that has
/// not released, and a waiting job tests each earlier one once, so a pass
/// costs the live window, not the span. With a `failed` predicate, the span stops
/// at the first failed output, or right after the first round (its own, or
/// one a job drove in [`Lane::alone`]) that lost messages or crashed a
/// module: no further job starts, the jobs done by then keep their
/// outputs, the started ones stay [`State::Started`], and their traffic is
/// still queued for the caller to purge. The caller's lane is set again
/// after every poll, so a drive nested inside a job leaves that job's lane
/// in place. A lone job's future stays on the stack.
pub(crate) fn drive<'s, F: Future>(
    list: &'s Shared<'s>,
    jobs: &mut [Job<F::Output>],
    conflict: impl Fn(&Range<usize>, Gap, &Range<usize>) -> bool,
    mut make: impl FnMut(Lane<'s>, Range<usize>) -> F,
    failed: Option<Failed<'_, F::Output>>,
) -> bool {
    list.open.replace(list.borrow_mut().scratch.take_runs());
    let finished = if let [job] = jobs {
        let mut lone = Some(pin!(make(Lane::new(list, 0), job.run.clone())));
        let start = |_, _| lone.take().expect("one start");
        poll_jobs(list, jobs, &mut [None], conflict, start, failed)
    } else {
        let mut futs: Vec<_> = jobs.iter().map(|_| None).collect();
        let start = |lane, run| Box::pin(make(lane, run));
        poll_jobs(list, jobs, &mut futs, conflict, start, failed)
    };
    let open = list.open.take();
    list.borrow_mut().scratch.give_runs(open);
    finished
}

/// [`drive`] over the futures `futs` of the started jobs.
fn poll_jobs<'s, J: Future + Unpin>(
    list: &'s Shared<'s>,
    jobs: &mut [Job<J::Output>],
    futs: &mut [Option<J>],
    conflict: impl Fn(&Range<usize>, Gap, &Range<usize>) -> bool,
    mut make: impl FnMut(Lane<'s>, Range<usize>) -> J,
    failed: Option<Failed<'_, J::Output>>,
) -> bool {
    let mut cx = Context::from_waker(Waker::noop());
    let outer = list.borrow_mut().sys.lane();
    for job in jobs.iter_mut() {
        if !matches!(&job.state, State::Done(out) if !failed.is_some_and(|f| f(out))) {
            *job = Job::new(job.run.clone(), job.barrier);
        }
    }
    let done = jobs.iter().take_while(|job| job.is_done()).count();
    list.started.set(0);
    list.alone.set(None);
    list.settled.set(done);
    list.drawn.set(done);
    list.open.borrow_mut().extend(
        jobs.iter()
            .map(|job| (!job.is_done()).then(|| job.run.clone())),
    );
    loop {
        let mut all_done = true;
        let mut any_failed = false;
        for j in list.settled.get()..jobs.len() {
            if matches!(jobs[j].state, State::Waiting) {
                // A job stays done, and a conflict-free one stays so: every
                // earlier barrier released (with its gap) before the pass
                // reached `j`.
                let mut at = jobs[j].scan.max(list.settled.get());
                while at < j
                    && (jobs[at].is_done()
                        || !conflict(
                            &jobs[at].run,
                            jobs[at].released.unwrap_or(NOWHERE),
                            &jobs[j].run,
                        ))
                {
                    at += 1;
                }
                jobs[j].scan = at;
                if !any_failed && at == j {
                    list.started.set(list.started.get().max(j + 1));
                    futs[j] = Some(make(Lane::new(list, j), jobs[j].run.clone()));
                    jobs[j].state = State::Started;
                }
            }
            if let Some(fut) = &mut futs[j] {
                list.borrow_mut().sys.set_lane(j as LaneId);
                let polled = Pin::new(fut).poll(&mut cx);
                list.borrow_mut().sys.set_lane(outer);
                any_failed |= failed.is_some() && list.lone_damage.get();
                jobs[j].drawn |= list.drew.take() || polled.is_ready();
                if let Some(gap) = list.released.take() {
                    jobs[j].released = Some(gap);
                }
                while jobs.get(list.drawn.get()).is_some_and(|job| job.drawn) {
                    list.drawn.set(list.drawn.get() + 1);
                }
                if let Poll::Ready(out) = polled {
                    futs[j] = None;
                    list.open.borrow_mut()[j] = None;
                    any_failed |= failed.is_some_and(|f| f(&out));
                    jobs[j].state = State::Done(out);
                    // A failed job settles nothing: the span stops after
                    // this pass, so no later job may run alone first.
                    while !any_failed && jobs.get(list.settled.get()).is_some_and(Job::is_done) {
                        list.settled.set(list.settled.get() + 1);
                    }
                }
            }
            if !jobs[j].is_done() {
                all_done = false;
                if jobs[j].barrier && jobs[j].released.is_none() {
                    break;
                }
            }
        }
        if all_done {
            return true;
        }
        if any_failed {
            return false;
        }
        // The first unfinished job is alone if no later job started, unless
        // it is a barrier that may still release them.
        let first = list.settled.get();
        let holds = jobs[first].barrier && jobs[first].released.is_none();
        list.alone
            .set((list.started.get() <= first + 1 && !holds).then_some(first));
        let mut s = list.borrow_mut();
        // Every live job waits on a wave or on an earlier job, and the
        // earliest unfinished job waits on a wave: a round with no traffic
        // would be counted without doing anything.
        assert!(s.sys.has_pending(), "live jobs wait on empty waves");
        let before = s.sys.metrics();
        s.sys.step();
        if failed.is_some() && s.damage_since(&before) {
            return false;
        }
    }
}

impl PimSkipList {
    /// Run one job alone through the executor (`job` gets lane 0) — a
    /// mutating Range's body, and tests.
    pub(crate) fn run_one<T>(&mut self, job: impl AsyncFnOnce(Lane<'_>) -> T) -> T {
        let list = Shared::new(self);
        let mut jobs = [Job::new(0..0, false)];
        let mut job = Some(job);
        let start = |lane, _| job.take().expect("one start")(lane);
        drive(&list, &mut jobs, |_, _, _| false, start, None);
        let [Job {
            state: State::Done(out),
            ..
        }] = jobs
        else {
            unreachable!("a lone job always finishes");
        };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::get::get_attempt;
    use crate::config::Key;
    use crate::Config;

    #[test]
    fn a_re_driven_table_counts_its_done_jobs_settled_and_drawn() {
        // A retry re-drives a table whose leading jobs an earlier drive
        // finished: the last job's wait for every earlier draw and its
        // phase alone must still start, or it would wait on empty waves.
        let mut list = PimSkipList::new(Config::new(4, 1 << 10, 3));
        let list = Shared::new(&mut list);
        let mut jobs = [
            Job::new(0..1, false),
            Job::new(1..2, true),
            Job::new(2..3, true),
        ];
        jobs[0].state = State::Done(0);
        jobs[1].state = State::Done(1);
        let finished = drive(
            &list,
            &mut jobs,
            |_, _, _| true,
            |lane, run| async move {
                lane.draws_settled().await;
                lane.alone("test", |_| run.start).await
            },
            Some(&|_: &usize| false),
        );
        assert!(finished);
        assert!(matches!(jobs[2].state, State::Done(2)));
    }

    #[test]
    fn a_released_barrier_lets_later_jobs_start_but_not_run_alone() {
        // Job 0, a barrier, releases after its first wave: job 1 starts
        // beside its second one. Job 2's phase alone still waits until both
        // have finished.
        let mut list = PimSkipList::new(Config::new(4, 1 << 10, 3));
        list.batch_upsert(&[(1, 10), (2, 20)]);
        let list = Shared::new(&mut list);
        let log = RefCell::new(Vec::new());
        let mut jobs = [
            Job::new(0..1, true),
            Job::new(1..2, false),
            Job::new(2..3, true),
        ];
        let finished = drive(
            &list,
            &mut jobs,
            |_, _, _| false,
            |lane, run| {
                let log = &log;
                async move {
                    match run.start {
                        0 => {
                            get_attempt(lane, &[1]).await.expect("fault-free");
                            lane.release();
                            get_attempt(lane, &[2]).await.expect("fault-free");
                            log.borrow_mut().push("0 done");
                        }
                        1 => {
                            log.borrow_mut().push("1 started");
                            get_attempt(lane, &[2]).await.expect("fault-free");
                            log.borrow_mut().push("1 done");
                        }
                        _ => {
                            lane.alone("test", |_| log.borrow_mut().push("2 alone"))
                                .await
                        }
                    }
                    run.start
                }
            },
            Some(&|_: &usize| false),
        );
        assert!(finished);
        assert_eq!(
            log.into_inner(),
            ["1 started", "0 done", "1 done", "2 alone"]
        );
    }

    #[test]
    fn a_barrier_released_outside_a_gap_holds_back_the_jobs_inside_it() {
        // Job 0 releases the later jobs outside the keys 10..=20 after its
        // first wave. Job 1 (key 5) starts beside its second one; job 2
        // (key 15) waits until job 0 has finished, and job 3's phase alone
        // until every earlier job has.
        let mut list = PimSkipList::new(Config::new(4, 1 << 10, 3));
        list.batch_upsert(&[(1, 10), (2, 20)]);
        let list = Shared::new(&mut list);
        let log = RefCell::new(Vec::new());
        let keys: [Key; 4] = [0, 5, 15, 30];
        let mut jobs = [
            Job::new(0..1, true),
            Job::new(1..2, false),
            Job::new(2..3, false),
            Job::new(3..4, true),
        ];
        let finished = drive(
            &list,
            &mut jobs,
            |_, (lo, hi), later| (lo..=hi).contains(&keys[later.start]),
            |lane, run| {
                let log = &log;
                async move {
                    match run.start {
                        0 => {
                            get_attempt(lane, &[1]).await.expect("fault-free");
                            lane.release_outside((10, 20));
                            get_attempt(lane, &[2]).await.expect("fault-free");
                            log.borrow_mut().push("0 done");
                        }
                        1 | 2 => {
                            let name = if run.start == 1 { "1" } else { "2" };
                            log.borrow_mut().push(name);
                            get_attempt(lane, &[2]).await.expect("fault-free");
                        }
                        _ => {
                            lane.alone("test", |_| log.borrow_mut().push("3 alone"))
                                .await
                        }
                    }
                    run.start
                }
            },
            Some(&|_: &usize| false),
        );
        assert!(finished);
        assert_eq!(log.into_inner(), ["1", "0 done", "2", "3 alone"]);
    }

    #[test]
    fn a_nested_drive_leaves_the_callers_lane_set() {
        // A job on lane 2 that runs a batch through `run_one` (as a
        // mutating Range does) must keep sending on lane 2 afterwards.
        let mut list = PimSkipList::new(Config::new(4, 1 << 10, 3));
        list.batch_upsert(&[(1, 10), (2, 20)]);
        list.sys.set_lane(2);
        let got = list.run_one(async |lane| get_attempt(lane, &[2, 1, 3]).await);
        assert_eq!(got.expect("fault-free"), vec![Some(20), Some(10), None]);
        assert_eq!(list.sys.lane(), 2);
    }
}
