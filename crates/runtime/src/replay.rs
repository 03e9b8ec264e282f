//! The one schedule-replay loop.
//!
//! Every way of running the threaded runtime — a fixed chain
//! ([`crate::run_pipeline`]), an elastic chain under a [`crate::ScalePlan`]
//! or the auto-scaler, a checkpointed chain, a shard mesh, and the replay
//! of a recovered log suffix — is this loop over a [`Deployment`]:
//!
//! 1. fire the steering plan's steps due at this event index;
//! 2. wait until the event's stream time is due on the deployment's one
//!    [`StreamClock`] ([`pace`]);
//! 3. record the event in the replay log when checkpointing;
//! 4. inject it;
//! 5. take a checkpoint when the cadence says so.
//!
//! The pacing wait is the only wait in the driver.  It is sliced so that
//! partial entry frames on every chain age out on wall time (a silent
//! stream cannot hold a frame beyond `flush_interval`) and, with the
//! auto-scaler engaged, so a desired width is actuated on the next
//! controller tick even while no event arrives.

use crate::autoscale::Controller;
use crate::channel::CancelToken;
use crate::exec::StreamClock;
use crate::options::{Pacing, PipelineOptions};
use llhj_core::checkpoint::ReplayLog;
use llhj_core::driver::DriverEvent;
use llhj_core::time::{TimeDelta, Timestamp};
use llhj_sync::time::{Duration, Instant};

/// What the replay loop drives: one elastic chain or a mesh of them.
pub(crate) trait Deployment<R, S> {
    /// One entry of the deployment's steering plan.
    type Step;

    /// The event index a plan step fires at.
    fn due_at(step: &Self::Step) -> usize;
    fn options(&self) -> &PipelineOptions;
    /// The deployment's one clock; its start is the pacing origin.
    fn clock(&self) -> &StreamClock;
    /// Injects one event.  `totals` are the schedule's per-stream arrival
    /// counts (`usize::MAX` when unknown), so the last arrival of a
    /// stream flushes its frame at once.
    fn inject(&mut self, event: &DriverEvent<R, S>, totals: (usize, usize));
    /// Flushes every partial entry frame that has been filling for at
    /// least `interval` of stream time.
    fn flush_aged(&mut self, now: Timestamp, interval: TimeDelta);
    /// Flushes every partial entry frame.
    fn flush_all(&mut self);
    /// Applies one plan step; `at_event` is the current event index.
    fn step(&mut self, step: &Self::Step, at_event: usize);
    /// The chain width the auto-scaler compares its desired width with.
    fn width(&self) -> usize;
    /// Resizes to the auto-scaler's desired width.
    fn resize(&mut self, width: usize, at_event: usize);
}

/// Who decides when the deployment reshapes.
pub(crate) enum Steering<'a, T> {
    /// Steps at fixed event indexes; an empty plan is a fixed deployment.
    /// Steps at or past the last event still run once the replay ends,
    /// unless it was cancelled.
    Plan(&'a [T]),
    /// The closed loop: the controller's desired width is applied before
    /// every event and on every controller tick inside a pacing wait.
    Autoscale(&'a Controller),
}

/// Durability riding on the replay: every consumed event is recorded in
/// `log` before injection, and after every `every_events`-th event
/// `capture` takes a fenced checkpoint; the log is trimmed when it landed.
pub(crate) struct Checkpointing<'a, R, S, D> {
    pub(crate) every_events: usize,
    pub(crate) log: &'a mut ReplayLog<R, S>,
    pub(crate) capture: &'a mut dyn FnMut(&mut D, usize) -> bool,
}

/// Replays `events` through `deployment`.  Returns `true` if the replay
/// was cancelled through [`PipelineOptions::cancel`].
pub(crate) fn replay<R, S, D>(
    deployment: &mut D,
    events: &[DriverEvent<R, S>],
    totals: (usize, usize),
    steering: Steering<'_, D::Step>,
    mut checkpointing: Option<Checkpointing<'_, R, S, D>>,
) -> bool
where
    R: Clone,
    S: Clone,
    D: Deployment<R, S>,
{
    let cancel = deployment.options().cancel.clone().unwrap_or_default();
    let (plan, controller) = match steering {
        Steering::Plan(steps) => (steps, None),
        Steering::Autoscale(controller) => (&[][..], Some(controller)),
    };
    let mut plan = plan.iter().peekable();
    let mut cancelled = false;
    for (idx, event) in events.iter().enumerate() {
        while let Some(step) = plan.next_if(|s| D::due_at(s) <= idx) {
            deployment.step(step, idx);
        }
        if cancel.is_cancelled() || pace(deployment, event.at, idx, &cancel, controller) {
            cancelled = true;
            break;
        }
        if let Some(cp) = &mut checkpointing {
            cp.log.record(event.clone());
        }
        deployment.inject(event, totals);
        if let Some(cp) = &mut checkpointing {
            let consumed = idx + 1;
            // A failed store write is not fatal to the run — the log
            // simply is not trimmed, so recoverability degrades to the
            // previous durable checkpoint instead of silently lying.
            if consumed.is_multiple_of(cp.every_events) && (cp.capture)(deployment, consumed) {
                cp.log.trim_to(consumed);
            }
        }
    }
    if !cancelled {
        for step in plan {
            deployment.step(step, events.len());
        }
    }
    deployment.flush_all();
    cancelled
}

/// Waits until an event scheduled at `at` is due: `at` of stream time
/// after the clock's start, scaled by the speedup.  Returns `true` if the
/// wait was cancelled; unpaced replays never wait.
///
/// The wait parks on the cancel token, so a cancel interrupts even a long
/// gap between events.  With a `flush_interval` it wakes every half
/// interval of wall time to flush aged partial frames; with a controller
/// it also wakes on every controller tick and applies a newly published
/// width through the usual fenced protocol.
fn pace<R, S, D>(
    deployment: &mut D,
    at: Timestamp,
    idx: usize,
    cancel: &CancelToken,
    controller: Option<&Controller>,
) -> bool
where
    D: Deployment<R, S>,
{
    let options = deployment.options();
    if !matches!(options.pacing, Pacing::RealTime { .. }) {
        return false;
    }
    let deadline =
        deployment.clock().start() + options.stream_to_wall(at.saturating_since(Timestamp::ZERO));
    let flush_interval = options.flush_interval;
    let floor = Duration::from_micros(50);
    let flush_slice = flush_interval.map(|i| (options.stream_to_wall(i) / 2).max(floor));
    let tick_slice = controller.map(|c| c.tick().max(floor));
    let slice = match (flush_slice, tick_slice) {
        (Some(f), Some(t)) => Some(f.min(t)),
        (s, None) | (None, s) => s,
    };
    loop {
        if let Some(width) = controller.and_then(|c| c.desired_if_changed(deployment.width())) {
            deployment.resize(width, idx);
        }
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        let wake = slice.map_or(deadline, |slice| deadline.min(now + slice));
        if cancel.wait_until(wake) {
            return true;
        }
        if let Some(interval) = flush_interval {
            let now = deployment.clock().now();
            deployment.flush_aged(now, interval);
        }
    }
}
