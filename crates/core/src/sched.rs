//! Co-scheduled jobs: several batch runs sharing the machine's rounds.
//!
//! Every batch family is written once, as an `async fn` over a [`Lane`],
//! and every run of an `execute` call is one job; only an invalid run or
//! contention tracking cuts a stream into several spans. A batch suspends
//! at its *waves* ([`Lane::wave`]): it issues its tasks, awaits the moment
//! its lane has nothing in flight, and absorbs the replies. Between two
//! awaits it borrows the structure ([`Lane::with`]) and charges exactly
//! what it charges alone.
//!
//! This module is mechanism only: which job waits for which is the one
//! function [`conflicts`]. Each unfinished job of a drive has one
//! [`Footprint`] in a table: its run, and the later jobs it holds back. A
//! structural job starts out holding all of them and may publish less
//! ([`Lane::publish`]). A job starts once no earlier footprint conflicts
//! with its run, and may wait on the table again later ([`Lane::after`]).
//! Besides the table, a job can wait for every earlier job's last draw
//! ([`Lane::draws_settled`]) and for every earlier job to finish without
//! error ([`Lane::settled`]).
//!
//! [`drive`] is the executor: a std-only loop that polls the jobs in run
//! order with a no-op waker and runs one machine round whenever every live
//! job waits on its wave. All live jobs advance in the same rounds, but not
//! in lockstep: a job issues its next wave as soon as its last one ended,
//! and starts as soon as the table lets it. A lone job is exactly the
//! sequential batch: its waves end at quiescence, as `run_to_quiescence`
//! did. A retry drives the same job table again: the jobs an earlier drive
//! finished keep their outputs and count as settled and drawn, and the
//! others start afresh, co-scheduled as before.
//!
//! The scheduler's bookkeeping (conflict tests, job states) is unmetered,
//! like the service tier's planning.

use std::cell::{Cell, RefCell, RefMut};
use std::future::Future;
use std::ops::Range;
use std::pin::{pin, Pin};
use std::task::{Context, Poll, Waker};

use pim_runtime::module::Lane as LaneId;

use crate::list::PimSkipList;
use crate::op::{conflicts, Footprint, Hold, Op, Probe};
use crate::tasks::Reply;

/// The structure shared by the jobs of one span, borrowed only between
/// awaits.
pub(crate) struct Shared<'s> {
    list: RefCell<&'s mut PimSkipList>,
    /// The ops whose runs the jobs execute.
    span: &'s [Op],
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
    /// Each job's footprint until it finishes; a buffer leased from the
    /// structure's scratch for the length of a drive.
    open: RefCell<Vec<Option<Footprint>>>,
}

impl<'s> Shared<'s> {
    pub(crate) fn new(list: &'s mut PimSkipList, span: &'s [Op]) -> Self {
        Shared {
            list: RefCell::new(list),
            span,
            settled: Cell::new(0),
            drawn: Cell::new(0),
            drew: Cell::new(false),
            started: Cell::new(0),
            alone: Cell::new(None),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Borrow the structure (never across an await).
    fn borrow_mut(&self) -> RefMut<'_, &'s mut PimSkipList> {
        self.list.borrow_mut()
    }

    /// The first unfinished job of `from..to` (from the settled prefix on)
    /// whose footprint [`conflicts`] with `probe`, or `to`. A job that
    /// finished, or whose footprint did not conflict, never does later
    /// (holds only shrink), so a waiting job resumes its scan here.
    fn first_conflict(&self, from: usize, to: usize, probe: Probe<'_>) -> usize {
        let open = self.open.borrow();
        let mut at = from.max(self.settled.get());
        while at < to
            && !open[at]
                .as_ref()
                .is_some_and(|earlier| conflicts(self.span, earlier, probe))
        {
            at += 1;
        }
        at
    }

    /// Is job `j` unfinished and holding every later job back?
    fn holds_all(&self, j: usize) -> bool {
        self.open.borrow()[j]
            .as_ref()
            .is_some_and(|f| f.hold == Hold::All)
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
    fn new(list: &'s Shared<'s>, id: usize) -> Self {
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

    /// Wait until no earlier unfinished job's footprint [`conflicts`] with
    /// `probe`. Each earlier job is tested in order until it has finished
    /// or does not conflict, and is never tested again.
    pub(crate) async fn after(self, probe: Probe<'_>) {
        let (mut at, id) = (0, self.id as usize);
        std::future::poll_fn(|_| {
            at = self.list.first_conflict(at, id, probe);
            if at < id {
                Poll::Pending
            } else {
                Poll::Ready(())
            }
        })
        .await;
    }

    /// Publish what this job still holds back until it finishes: less than
    /// it held. The job has made its last draw (it is [`Lane::drawn`]) and
    /// done everything a later job outside `hold` must not overtake. A later
    /// job that waits for it to finish ([`Lane::settled`]) still does.
    pub(crate) fn publish(self, hold: Hold) {
        self.drawn();
        let mut open = self.list.open.borrow_mut();
        open[self.id as usize]
            .as_mut()
            .expect("a polled job is unfinished")
            .hold = hold;
    }

    /// Run `fut` with its phase spans recorded: inside a multi-job span,
    /// whose phase spans are muted, in the probe span `name`, the job
    /// family's. Only for a phase whose rounds no other job shares: every
    /// earlier job has finished, and no later one has started or starts
    /// before it ends — a job that holds every later one back, or a job
    /// [`Lane::is_alone`].
    pub(crate) async fn recorded<T>(self, name: &'static str, fut: impl Future<Output = T>) -> T {
        let _recorded = Recorded::enter(self, name);
        fut.await
    }

    /// Is this job alone until it finishes? When the last pass of [`drive`]
    /// ended, it was the first unfinished job, it did not hold every later
    /// job back (it might still publish less), and no later job had
    /// started: that pass visited every later job with every earlier one
    /// finished, so the later jobs that did not start wait for this one (or
    /// for a later job that waits for it).
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
    /// What the job holds back when it starts (see [`Lane::publish`]).
    pub hold: Hold,
    /// This job will draw no further random number.
    drawn: bool,
    /// Every earlier job below this one is done or does not conflict.
    scan: usize,
    pub state: State<O>,
}

impl<O> Job<O> {
    pub(crate) fn new(run: Range<usize>, hold: Hold) -> Self {
        Job {
            run,
            hold,
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
/// afresh, with the hold they start with. Job `j` starts (`make` builds its
/// future on lane `j`) once no earlier unfinished job's footprint
/// [`conflicts`] with its run. A pass over the jobs begins at the settled
/// prefix and ends at the first unfinished job that holds every later one
/// back, and a waiting job tests each earlier one once, so a pass costs the
/// live window, not the span. With a `failed` predicate, the span stops at
/// the first failed output, or right after the first round that lost
/// messages or crashed a module: no further job starts, the jobs done by
/// then keep their outputs, the started ones stay [`State::Started`], and
/// their traffic is still queued for the caller to purge. The caller's lane
/// is set again after every poll. A lone job's future stays on the stack.
pub(crate) fn drive<'s, F: Future>(
    list: &'s Shared<'s>,
    jobs: &mut [Job<F::Output>],
    mut make: impl FnMut(Lane<'s>, Range<usize>) -> F,
    failed: Option<Failed<'_, F::Output>>,
) -> bool {
    list.open.replace(list.borrow_mut().scratch.take_open());
    let finished = if let [job] = jobs {
        let mut lone = Some(pin!(make(Lane::new(list, 0), job.run.clone())));
        let start = |_, _| lone.take().expect("one start");
        poll_jobs(list, jobs, &mut [None], start, failed)
    } else {
        let mut futs: Vec<_> = jobs.iter().map(|_| None).collect();
        let start = |lane, run| Box::pin(make(lane, run));
        poll_jobs(list, jobs, &mut futs, start, failed)
    };
    let open = list.open.take();
    list.borrow_mut().scratch.give_open(open);
    finished
}

/// [`drive`] over the futures `futs` of the started jobs.
fn poll_jobs<'s, J: Future + Unpin>(
    list: &'s Shared<'s>,
    jobs: &mut [Job<J::Output>],
    futs: &mut [Option<J>],
    mut make: impl FnMut(Lane<'s>, Range<usize>) -> J,
    failed: Option<Failed<'_, J::Output>>,
) -> bool {
    let mut cx = Context::from_waker(Waker::noop());
    let outer = list.borrow_mut().sys.lane();
    for job in jobs.iter_mut() {
        if !matches!(&job.state, State::Done(out) if !failed.is_some_and(|f| f(out))) {
            *job = Job::new(job.run.clone(), job.hold);
        }
    }
    let done = jobs.iter().take_while(|job| job.is_done()).count();
    list.started.set(0);
    list.alone.set(None);
    list.settled.set(done);
    list.drawn.set(done);
    list.open.borrow_mut().extend(jobs.iter().map(|job| {
        (!job.is_done()).then(|| Footprint {
            run: job.run.clone(),
            hold: job.hold,
        })
    }));
    loop {
        let mut all_done = true;
        let mut any_failed = false;
        for j in list.settled.get()..jobs.len() {
            if matches!(jobs[j].state, State::Waiting) {
                let probe = Probe::Run(&list.span[jobs[j].run.clone()]);
                let at = list.first_conflict(jobs[j].scan, j, probe);
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
                jobs[j].drawn |= list.drew.take() || polled.is_ready();
                while jobs.get(list.drawn.get()).is_some_and(|job| job.drawn) {
                    list.drawn.set(list.drawn.get() + 1);
                }
                if let Poll::Ready(out) = polled {
                    futs[j] = None;
                    list.open.borrow_mut()[j] = None;
                    any_failed |= failed.is_some_and(|f| f(&out));
                    jobs[j].state = State::Done(out);
                    // A failed job settles nothing: the span stops after
                    // this pass, so no later job that waits for every
                    // earlier one to finish may go first.
                    while !any_failed && jobs.get(list.settled.get()).is_some_and(Job::is_done) {
                        list.settled.set(list.settled.get() + 1);
                    }
                }
            }
            if !jobs[j].is_done() {
                all_done = false;
                if list.holds_all(j) {
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
        // it holds them all back and may still publish less.
        let first = list.settled.get();
        list.alone
            .set((list.started.get() <= first + 1 && !list.holds_all(first)).then_some(first));
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
    /// Run one job alone through the executor (`job` gets lane 0): a
    /// `bulk_load` chunk's allocation, and tests.
    pub(crate) fn run_one<T>(&mut self, job: impl AsyncFnOnce(Lane<'_>) -> T) -> T {
        let list = Shared::new(self, &[]);
        let mut jobs = [Job::new(0..0, Hold::NONE)];
        let mut job = Some(job);
        let start = |lane, _| job.take().expect("one start")(lane);
        drive(&list, &mut jobs, start, None);
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
    use crate::tasks::RangeFunc;
    use crate::{Config, FaultKind, FaultPlan};

    #[test]
    fn a_re_driven_table_counts_its_done_jobs_settled_and_drawn() {
        // A retry re-drives a table whose leading jobs an earlier drive
        // finished: the last job's wait for every earlier draw and for every
        // earlier job to finish must still end, or it would wait on empty
        // waves.
        let mut list = PimSkipList::new(Config::new(4, 1 << 10, 3));
        let span = [
            Op::Get { key: 1 },
            Op::Upsert { key: 2, value: 2 },
            Op::Upsert { key: 3, value: 3 },
        ];
        let list = Shared::new(&mut list, &span);
        let mut jobs = [
            Job::new(0..1, Hold::NONE),
            Job::new(1..2, Hold::All),
            Job::new(2..3, Hold::All),
        ];
        jobs[0].state = State::Done(0);
        jobs[1].state = State::Done(1);
        let finished = drive(
            &list,
            &mut jobs,
            |lane, run| async move {
                lane.draws_settled().await;
                lane.settled().await;
                lane.recorded("test", async { run.start }).await
            },
            Some(&|_: &usize| false),
        );
        assert!(finished);
        assert!(matches!(jobs[2].state, State::Done(2)));
    }

    #[test]
    fn a_released_barrier_lets_later_jobs_start_but_not_run_alone() {
        // Job 0 holds every later job back until it publishes that it holds
        // none, after its first wave: job 1 starts beside its second one.
        // Job 2's wait for every earlier job to finish still ends only once
        // both have.
        let mut list = PimSkipList::new(Config::new(4, 1 << 10, 3));
        list.batch_upsert(&[(1, 10), (2, 20)]);
        let span = [
            Op::Upsert { key: 100, value: 1 },
            Op::Get { key: 200 },
            Op::Upsert { key: 300, value: 3 },
        ];
        let list = Shared::new(&mut list, &span);
        let log = RefCell::new(Vec::new());
        let mut jobs = [
            Job::new(0..1, Hold::All),
            Job::new(1..2, Hold::NONE),
            Job::new(2..3, Hold::All),
        ];
        let finished = drive(
            &list,
            &mut jobs,
            |lane, run| {
                let log = &log;
                async move {
                    match run.start {
                        0 => {
                            get_attempt(lane, &[1]).await.expect("fault-free");
                            lane.publish(Hold::NONE);
                            get_attempt(lane, &[2]).await.expect("fault-free");
                            log.borrow_mut().push("0 done");
                        }
                        1 => {
                            log.borrow_mut().push("1 started");
                            get_attempt(lane, &[2]).await.expect("fault-free");
                            log.borrow_mut().push("1 done");
                        }
                        _ => {
                            lane.settled().await;
                            log.borrow_mut().push("2 alone");
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
        // Job 0 publishes that it holds back the later jobs in the keys
        // 10..=20 after its first wave. Job 1 (key 5) starts beside its
        // second one; job 2 (key 15) waits until job 0 has finished, and
        // job 3's wait for every earlier job to finish until every earlier
        // job has.
        let mut list = PimSkipList::new(Config::new(4, 1 << 10, 3));
        list.batch_upsert(&[(1, 10), (2, 20)]);
        let span = [
            Op::Upsert { key: 0, value: 0 },
            Op::Get { key: 5 },
            Op::Get { key: 15 },
            Op::Upsert { key: 30, value: 3 },
        ];
        let list = Shared::new(&mut list, &span);
        let log = RefCell::new(Vec::new());
        let mut jobs = [
            Job::new(0..1, Hold::All),
            Job::new(1..2, Hold::NONE),
            Job::new(2..3, Hold::NONE),
            Job::new(3..4, Hold::All),
        ];
        let finished = drive(
            &list,
            &mut jobs,
            |lane, run| {
                let log = &log;
                async move {
                    match run.start {
                        0 => {
                            get_attempt(lane, &[1]).await.expect("fault-free");
                            lane.publish(Hold::Keys(10, 20));
                            get_attempt(lane, &[2]).await.expect("fault-free");
                            log.borrow_mut().push("0 done");
                        }
                        1 | 2 => {
                            let name = if run.start == 1 { "1" } else { "2" };
                            log.borrow_mut().push(name);
                            get_attempt(lane, &[2]).await.expect("fault-free");
                        }
                        _ => {
                            lane.settled().await;
                            log.borrow_mut().push("3 alone");
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
    fn a_crash_on_an_idle_module_in_a_round_of_a_job_that_holds_everything_stops_the_drive() {
        // Job 0 holds every later job back and reads key 1 twice. A module
        // that gets none of its messages crashes in its first round: the
        // job's own wave loses nothing, but the drive stops right after
        // that round, with job 0 started and job 1 never started.
        let mut list = PimSkipList::new(Config::new(4, 1 << 10, 3));
        list.batch_upsert(&[(1, 10), (2, 20)]);
        let busy = list.module_of(1, 0);
        let idle = (0..4).find(|&m| m != busy).expect("P = 4");
        let round = list.metrics().rounds;
        list.set_fault_plan(FaultPlan::new().at(round, idle, FaultKind::Crash));
        let span = [
            Op::Range {
                lo: 0,
                hi: 9,
                func: RangeFunc::AddInPlace(1),
            },
            Op::Get { key: 2 },
        ];
        let list = Shared::new(&mut list, &span);
        let mut jobs = [Job::new(0..1, Hold::All), Job::new(1..2, Hold::NONE)];
        let finished = drive(
            &list,
            &mut jobs,
            |lane, run| async move {
                get_attempt(lane, &[1]).await.expect("fault-free");
                get_attempt(lane, &[1]).await.expect("not reached");
                run.start
            },
            Some(&|_: &usize| false),
        );
        assert!(!finished);
        assert_eq!(list.borrow_mut().sys.metrics().module_crashes, 1);
        assert!(matches!(jobs[0].state, State::Started));
        assert!(matches!(jobs[1].state, State::Waiting));
    }

    #[test]
    fn a_nested_drive_leaves_the_callers_lane_set() {
        // A drive sets the caller's lane again after every poll: a batch
        // run through `run_one` while lane 2 is set leaves lane 2 set.
        let mut list = PimSkipList::new(Config::new(4, 1 << 10, 3));
        list.batch_upsert(&[(1, 10), (2, 20)]);
        list.sys.set_lane(2);
        let got = list.run_one(async |lane| get_attempt(lane, &[2, 1, 3]).await);
        assert_eq!(got.expect("fault-free"), vec![Some(20), Some(10), None]);
        assert_eq!(list.sys.lane(), 2);
    }
}
